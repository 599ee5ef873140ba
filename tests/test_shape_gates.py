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


def test_x9_message_latency_shape_holds():
    """§7.3.2: demoting each X9 message before the CAS cuts message
    latency on both B-fast and B-slow."""
    experiment = get("x9")
    result = experiment.run(fast=True, seed=1234)
    assert experiment.check(result) == []


def test_listing3_antipattern_shape_holds():
    """§5, Listing 3: cleaning a hot, rewritten line is a slowdown."""
    experiment = get("listing3")
    result = experiment.run(fast=True, seed=1234)
    assert experiment.check(result) == []


def test_table1_device_granularities_shape_holds():
    """Table 1: the modelled devices' internal granularities."""
    experiment = get("table1")
    result = experiment.run(fast=True, seed=1234)
    assert experiment.check(result) == []
