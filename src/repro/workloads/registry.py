"""Workload registry: name -> trace builder.

``MICRO_WORKLOADS`` and ``MACRO_WORKLOADS`` are the seven benchmarks
of Figs. 11-15; ``FIG4_WORKLOADS`` is the full eleven-workload set of
Fig. 4 (adding Rtree, Ctrie, TATP and Bank).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.errors import ConfigError
from repro.trace.trace import Trace
from repro.workloads import (
    array,
    bank,
    btree,
    ctrie,
    hashtable,
    litmus,
    queue,
    rbtree,
    rtree,
    tatp,
    tpcc,
    ycsb,
)

Builder = Callable[..., Trace]

WORKLOADS: Dict[str, Builder] = {
    "array": array.build,
    "btree": btree.build,
    "hash": hashtable.build,
    "queue": queue.build,
    "rbtree": rbtree.build,
    "rtree": rtree.build,
    "ctrie": ctrie.build,
    "tpcc": tpcc.build,
    "ycsb": ycsb.build,
    "tatp": tatp.build,
    "bank": bank.build,
    "litmus": litmus.build,
}

#: The five micro-benchmarks of Table III.
MICRO_WORKLOADS: List[str] = ["array", "btree", "hash", "queue", "rbtree"]

#: The two Whisper macro-benchmarks of Table III.
MACRO_WORKLOADS: List[str] = ["tpcc", "ycsb"]

#: The seven benchmarks evaluated in Figs. 11-15.
FIG_WORKLOADS: List[str] = MICRO_WORKLOADS + MACRO_WORKLOADS

#: The eleven workloads of Fig. 4, in the figure's order.
FIG4_WORKLOADS: List[str] = [
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
    "rtree",
    "ctrie",
    "tatp",
    "bank",
]


def unknown_workload_error(name: str) -> ConfigError:
    """A :class:`ConfigError` for an unregistered workload name, with a
    did-you-mean suggestion when a registered name is close."""
    import difflib

    known = sorted(WORKLOADS)
    message = f"unknown workload {name!r} (known: {', '.join(known)})"
    close = difflib.get_close_matches(str(name).lower(), known, n=1, cutoff=0.6)
    if close:
        message += f" — did you mean {close[0]!r}?"
    return ConfigError(message)


def build_workload(name: str, threads: int = 8, transactions: int = 1000,
                   **kwargs) -> Trace:
    """Build a workload trace by registry name."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise unknown_workload_error(name) from None
    return builder(threads=threads, transactions=transactions, **kwargs)
