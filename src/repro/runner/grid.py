"""Declarative parameter grids and resumable sweep execution.

The config-matrix shape of the paper's evaluation — machines × modes ×
workloads × seeds — made first-class: a :class:`Grid` expands its axes
into the runner's :class:`~repro.runner.cells.Cell` list in a fixed
row-major order, and :func:`run_grid` executes it through
:func:`~repro.runner.pool.execute_cells`.

Resume is a re-run against a warm
:class:`~repro.runner.cache.ResultCache` (DESIGN.md §16): every finished
cell is stored (fsync + ``os.replace``) the moment it lands, so a killed
sweep loses at most the in-flight cells, and the re-run serves every
stored cell as a cache hit — byte-identical, without calling its
workload factory.  Failed and timed-out cells are never stored, so they
run again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Union

from repro.core.prestore import PrestoreMode
from repro.runner.cells import Cell, cache_key
from repro.runner.pool import CellOutcome, _coerce_cache, active_session, execute_cells
from repro.sim.machine import MachineSpec
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["Grid", "run_grid"]


@dataclass(frozen=True)
class Grid:
    """A declarative sweep: axes that expand into a cell list.

    Cells come out in row-major order — factories slowest, seeds
    fastest — so a grid's expansion is stable across runs (resume and
    bit-identity comparisons rely on that).

    ``factories`` are the same zero-argument workload factories
    :class:`~repro.runner.cells.Cell` takes (module-level callables and
    :func:`functools.partial` over them cache, and so resume; lambdas
    run but do neither).
    """

    factories: Sequence[Callable[[], Workload]]
    machines: Sequence[MachineSpec]
    modes: Sequence[Optional[PrestoreMode]] = (PrestoreMode.NONE,)
    seeds: Sequence[int] = (1234,)
    endorsed_only: bool = True
    obs: bool = False
    sanitize: bool = False
    crashcheck: bool = False
    experiment: Optional[str] = None
    #: Fault-plan axis (the serving scenarios sweep steady / degraded /
    #: crash): None or an empty plan is the plain, bit-identical run.
    fault_plans: Sequence[Optional["FaultPlan"]] = (None,)

    def __post_init__(self) -> None:
        # Freeze the axes: a Grid is a value, not a mutable builder.
        for name in ("factories", "machines", "modes", "fault_plans", "seeds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def __len__(self) -> int:
        return (
            len(self.factories)
            * len(self.machines)
            * len(self.modes)
            * len(self.fault_plans)
            * len(self.seeds)
        )

    def cells(self) -> List[Cell]:
        """The expanded cell list, row-major over the axes."""
        return [
            Cell(
                make_workload=factory,
                spec=spec,
                mode=mode,
                seed=seed,
                endorsed_only=self.endorsed_only,
                obs=self.obs,
                sanitize=self.sanitize,
                crashcheck=self.crashcheck,
                experiment=self.experiment,
                fault_plan=plan,
            )
            for factory, spec, mode, plan, seed in itertools.product(
                self.factories, self.machines, self.modes, self.fault_plans, self.seeds
            )
        ]

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells())


def run_grid(
    grid: Union[Grid, Sequence[Cell]],
    limit: Optional[int] = None,
    **execute_kw: object,
) -> List[CellOutcome]:
    """Execute a grid (or explicit cell list); outcomes in grid order.

    ``limit`` caps how many cells *not already in the cache* this
    invocation executes; the uncached cells past it produce no outcome
    and stay pending for the next run — the deterministic stand-in for
    a killed sweep in tests and smoke jobs.  Cached cells always come
    back (as cache hits).

    Keyword arguments (``workers``, ``cache``, ``chunk_size``,
    ``retries``, ``timeout_s``, ``progress``, ``on_error``, ``events``)
    pass through to :func:`~repro.runner.pool.execute_cells`, whose
    cache defaults to the ambient :func:`~repro.runner.runner_session`'s.
    """
    cells = grid.cells() if isinstance(grid, Grid) else list(grid)
    if limit is not None:
        cache = _coerce_cache(execute_kw.get("cache"))  # type: ignore[arg-type]
        session = active_session()
        if cache is None and session is not None:
            cache = session.cache
        execute_kw["cache"] = cache
        misses = [i for i, c in enumerate(cells) if cache is None or cache_key(c) not in cache]
        deferred = set(misses[max(0, int(limit)) :])
        cells = [cell for i, cell in enumerate(cells) if i not in deferred]
    return execute_cells(cells, **execute_kw)  # type: ignore[arg-type]
