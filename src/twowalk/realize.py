"""Exact decision procedure for "is S the square of an adjacency matrix?"

A candidate first goes through the necessary-condition battery, whose
report the matrix keeps, so a matrix already analyzed is not checked
again; survivors are handed to an exhaustive backtracking search over
the potential edges, split along the support components of S, that
either produces a witness graph (whose square is re-verified entrywise
before returning) or proves by exhaustion that none exists.
The search itself is the pure-Python kernel in ``_search_py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from . import _search_py
from .analysis import necessary_conditions
from .core import Graph, IntMatrix, SearchBudget, _is_int, _squares_to, graph_from_edges
from .formats import graph_json_dict


def search_backend() -> str:
    """Name of the search kernel: always 'python'."""
    return _search_py.KERNEL_NAME


class RealizationVerdict(Enum):
    REALIZED = "realized"
    INFEASIBLE = "infeasible"
    ABORTED = "aborted"


@dataclass(frozen=True)
class RealizationOutcome:
    verdict: RealizationVerdict
    witness: Graph | None
    nodes_explored: int
    elapsed: float
    reason: str | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": None if self.witness is None else graph_json_dict(self.witness),
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Enumeration:
    """Witness list from ``realize_all``; iterates like a list of graphs.

    ``complete`` is True when the search space was exhausted or the
    requested witness limit was reached; False means the budget aborted
    the enumeration early and the list may be missing witnesses.
    """

    witnesses: tuple[Graph, ...]
    complete: bool
    nodes_explored: int
    elapsed: float

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.witnesses)

    def __len__(self) -> int:
        return len(self.witnesses)

    def __getitem__(self, idx):
        return self.witnesses[idx]

    def to_json_dict(self) -> dict:
        return {
            "witnesses": [graph_json_dict(w) for w in self.witnesses],
            "complete": self.complete,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


def verify(G: Graph, S: IntMatrix) -> bool:
    """True iff the square of G's adjacency matrix equals S entrywise."""
    if G.n != S.n:
        raise ValueError(f"graph has {G.n} vertices but matrix is {S.n}x{S.n}")
    adj = [0] * G.n
    for i, j in G.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return _squares_to(adj, S.rows)


def _search(S: IntMatrix, budget: SearchBudget, witness_limit: int):
    """The pipeline behind ``realize`` and ``realize_all``: battery, then
    kernel, then entrywise re-verification of every witness.

    Returns (failed check names or None, kernel status, witnesses, nodes,
    elapsed seconds); a battery rejection explores no nodes.
    """
    start = time.perf_counter()
    report = necessary_conditions(S)
    if not report.overall:
        return report.failed_names(), _search_py.EXHAUSTED, (), 0, time.perf_counter() - start
    time_limit = budget.max_seconds if budget.max_seconds is not None else 0.0
    status, raw, nodes = _search_py.run_search(
        S.n, S.rows, budget.max_nodes, time_limit, witness_limit
    )
    elapsed = time.perf_counter() - start
    # a product of block witness lists can be emitted far faster than each
    # witness is re-verified, so the re-verification gets a time allowance
    # of its own, as large as the search's; witnesses left unchecked when
    # it runs out are dropped and the run counts as stopped by the time
    # budget
    stop = time.perf_counter() + time_limit
    witnesses = []
    for edges in raw:
        w = graph_from_edges(S.n, edges)
        # not an assert: the guarantee must hold under python -O too
        if not verify(w, S):
            raise AssertionError("search returned a non-witness; kernel bug")
        witnesses.append(w)
        if time_limit and len(witnesses) < len(raw) and time.perf_counter() > stop:
            status = _search_py.HIT_TIME_BUDGET
            break
    return None, status, tuple(witnesses), nodes, elapsed


def realize(S: IntMatrix, budget: SearchBudget | None = None) -> RealizationOutcome:
    """Decide whether S is the square of some adjacency matrix.

    Deterministic given S and the budget.  The kernel orders the vertices
    by descending s_ii, ties broken by index, then decides edges row by
    row in that order, absent before present; the witness is returned in
    S's own labels.  Relabelling a non-regular S can therefore change
    which witness comes first (and the node count), never the verdict
    once the search finishes.  When S has two or more support components
    (or an isolated vertex) the kernel searches them block by block, one
    cover of the components at a time (see ``_search_py``), which again
    changes the first witness and the order of ``realize_all``, never the
    witness set.  A Realized outcome always carries a witness that has
    been re-verified against S.
    """
    failed, status, witnesses, nodes, elapsed = _search(S, budget or SearchBudget(), 1)
    if failed is not None:
        return RealizationOutcome(
            RealizationVerdict.INFEASIBLE, None, 0, elapsed,
            f"failed necessary conditions: {', '.join(failed)}",
        )
    if witnesses:
        return RealizationOutcome(RealizationVerdict.REALIZED, witnesses[0], nodes, elapsed, None)
    if status == _search_py.EXHAUSTED:
        return RealizationOutcome(
            RealizationVerdict.INFEASIBLE, None, nodes, elapsed, "search exhausted"
        )
    which = "node" if status == _search_py.HIT_NODE_BUDGET else "time"
    return RealizationOutcome(
        RealizationVerdict.ABORTED, None, nodes, elapsed,
        f"search aborted: {which} budget exhausted",
    )


def realize_all(
    S: IntMatrix,
    limit: int | None = None,
    budget: SearchBudget | None = None,
) -> Enumeration:
    """Enumerate (up to ``limit``) every labeled graph whose adjacency
    square equals S, in the search's deterministic order (see ``realize``).

    Witnesses are labeled graphs; callers wanting representatives up to
    isomorphism can post-filter with ``iso.are_isomorphic``.
    """
    if limit is not None and not _is_int(limit):
        raise ValueError(f"limit must be an integer or None, got {limit!r}")
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive or None")
    _, status, witnesses, nodes, elapsed = _search(S, budget or SearchBudget(), limit or 0)
    complete = status in (_search_py.EXHAUSTED, _search_py.HIT_WITNESS_LIMIT)
    return Enumeration(witnesses, complete, nodes, elapsed)
