"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.sim.machine import MachineSpec
from repro.sim.stats import RunResult
from repro.workloads.base import Workload

__all__ = [
    "run_variants",
    "patch_all_sites",
    "endorsed_patches",
    "safe_ratio",
    "MANUAL_MISUSE_SITES",
]


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, NaN when the denominator is zero.

    The §10 convention for measured denominators: NaN propagates through
    derived metrics and renders as a visible hole, where a fake 0.0 (or
    a ZeroDivisionError out of a whole experiment batch) would either
    lie or lose the other rows.
    """
    if denominator == 0:
        return float("nan")
    return numerator / denominator

#: Sites DirtBuster declines (Sections 5 and 7.4.2): patched only by the
#: "incorrect manual use" experiments.
MANUAL_MISUSE_SITES = ("ft.fftz2", "is.rank", "listing3.hot_line")


def patch_all_sites(workload: Workload, mode: PrestoreMode) -> PatchConfig:
    """Apply ``mode`` at every declared patch site of ``workload``."""
    config = PatchConfig()
    for site in workload.patch_sites():
        config.set_mode(site.name, mode)
    return config


def endorsed_patches(workload: Workload, mode: PrestoreMode) -> PatchConfig:
    """Apply ``mode`` at DirtBuster-endorsed sites only.

    The manual-misuse sites (the hot fftz2 scratch, IS's random buckets,
    Listing 3's hot line) stay unpatched, as DirtBuster recommends.
    """
    config = PatchConfig()
    for site in workload.patch_sites():
        if site.name not in MANUAL_MISUSE_SITES:
            config.set_mode(site.name, mode)
    return config


def run_variants(
    make_workload,
    spec: MachineSpec,
    modes: Iterable[PrestoreMode],
    seed: int = 1234,
    endorsed_only: bool = True,
) -> Dict[PrestoreMode, RunResult]:
    """Run one workload configuration under several pre-store modes.

    ``make_workload`` is a zero-argument factory (a fresh instance per
    run keeps the runs independent).

    The modes form a one-axis :class:`~repro.runner.Grid` executed by
    :func:`~repro.runner.execute_cells`, so workers, the result cache
    and chunking come from the ambient
    :func:`~repro.runner.runner_session` (serial and uncached when none
    is active).  Results are bit-identical whatever the worker count,
    and cache hits skip simulation entirely.
    """
    from repro.runner import Grid, execute_cells

    modes = list(modes)
    grid = Grid(
        factories=[make_workload],
        machines=[spec],
        modes=modes,
        seeds=[seed],
        endorsed_only=endorsed_only,
    )
    # Experiments need every variant's numbers: a failed cell raises
    # CellExecutionError (with all other outcomes attached) rather than
    # silently feeding a None result into the figures.
    outcomes = execute_cells(grid.cells(), on_error="raise")
    return {mode: outcome.result for mode, outcome in zip(modes, outcomes)}
