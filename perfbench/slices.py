"""The benchmark's workloads: fixed slices of the paper's experiment suite.

Each slice is a list of registered experiment ids that one fresh
interpreter runs serially in fast mode.  The slices were chosen so that
together they exercise every layer of the simulator stack, each layer
both where it does most of the work and where it should stay idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Slice:
    name: str
    #: Experiment ids, run in this order by ``get(id).run``/``check``.
    experiments: Tuple[str, ...]
    #: Run the experiments' sweeps through a ResultCache in a fresh
    #: directory, so the runner's store path is exercised.
    cached: bool = False
    #: table2 only: the DirtBuster applications analysed (None = all).
    table2_apps: Optional[Tuple[str, ...]] = None


#: table2 analyses 23 applications.  TensorFlow alone costs ~40 % of it
#: and the ten Phoronix apps are read-mostly (sampling pass only); the
#: slice keeps the KV stores, X9 and every NAS kernel, which exercise both
#: DirtBuster passes, and nas-ft, whose classification is a known failure.
TABLE2_APPS = (
    "x9",
    "clht",
    "masstree",
    "nas-mg",
    "nas-ft",
    "nas-sp",
    "nas-ua",
    "nas-bt",
    "nas-is",
    "nas-lu",
    "nas-ep",
    "nas-cg",
)

SLICES: Dict[str, Slice] = {
    s.name: s
    for s in (
        Slice("seq-write", ("fig3", "abl-combiner", "abl-granularity")),
        Slice("weak-fence", ("fig5", "x9", "fig13", "fig14")),
        Slice("kv-mixed", ("fig10", "fig11", "abl-ycsb-mixes", "serve"), cached=True),
        Slice("dirtbuster", ("table2",), table2_apps=TABLE2_APPS),
    )
}
