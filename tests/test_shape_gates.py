"""Paper shape claims gated in tier-1 (the cheap subset).

Each test runs one experiment in fast mode and asserts its ``check()``
finds nothing: the science itself, not a synthetic row set.  The full
suite's checks run through ``prestores-experiments``.
"""

from repro.experiments import get


def test_fig5_listing2_shape_holds():
    """Figure 5: no gain at zero reads, a substantial peak, decay after it,
    and B-slow's peak at more reads than B-fast's."""
    experiment = get("fig5")
    result = experiment.run(fast=True, seed=1234)
    assert experiment.check(result) == []
