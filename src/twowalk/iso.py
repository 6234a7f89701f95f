"""Exact mapping search between symmetric integer matrices, used both for
graph isomorphism (0/1 matrices) and for permutation similarity of
candidate squares (entries act as edge colors).

The engine is color refinement followed by backtracking: vertices start
with colors built from (diagonal entry, support-component size, sorted
row-weight multiset), colors are refined by iterated neighbor-color
multisets jointly on both sides, and a depth-first search over the
refined classes completes the mapping.  Everything is deterministic; no
heuristic can produce a wrong answer, only a budget abort (raised as
``BudgetExhausted``, never conflated with "no mapping exists").
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .analysis import _component_labels
from .core import IntMatrix, Permutation
from .realize import SearchBudget


class BudgetExhausted(RuntimeError):
    """Search gave up on resources before reaching an answer."""


@dataclass(frozen=True)
class IsoBudget(SearchBudget):
    """Limits for the mapping search, validated like ``SearchBudget``."""

    max_nodes: int = 10_000_000
    max_seconds: float | None = None


def _support_component_sizes(M: IntMatrix) -> list[int]:
    """Size of each index's component in the support graph (off-diagonal
    nonzero pattern); a sound invariant for both iso and similarity."""
    label, count = _component_labels(M.rows)
    sizes = [0] * count
    for c in label:
        sizes[c] += 1
    return [sizes[c] for c in label]


def _initial_keys(M: IntMatrix) -> list[tuple]:
    comp_size = _support_component_sizes(M)
    keys = []
    for v in range(M.n):
        row = M.rows[v]
        weights = tuple(sorted(row[u] for u in range(M.n) if u != v))
        keys.append((row[v], comp_size[v], weights))
    return keys


def _refine(Ma: IntMatrix, Mb: IntMatrix) -> tuple[list[int], list[int]] | None:
    """Joint color refinement; None when the color histograms separate
    (no mapping can exist)."""
    n = Ma.n
    keys_a = _initial_keys(Ma)
    keys_b = _initial_keys(Mb)
    palette = {key: idx for idx, key in enumerate(sorted(set(keys_a) | set(keys_b)))}
    col_a = [palette[k] for k in keys_a]
    col_b = [palette[k] for k in keys_b]

    while True:
        if Counter(col_a) != Counter(col_b):
            return None
        sig_a = [
            (col_a[v], tuple(sorted((Ma.rows[v][u], col_a[u]) for u in range(n) if u != v)))
            for v in range(n)
        ]
        sig_b = [
            (col_b[v], tuple(sorted((Mb.rows[v][u], col_b[u]) for u in range(n) if u != v)))
            for v in range(n)
        ]
        palette = {key: idx for idx, key in enumerate(sorted(set(sig_a) | set(sig_b)))}
        new_a = [palette[s] for s in sig_a]
        new_b = [palette[s] for s in sig_b]
        if len(set(new_a)) == len(set(col_a)):
            if Counter(new_a) != Counter(new_b):
                return None
            return new_a, new_b
        col_a, col_b = new_a, new_b


def _search_order(M: IntMatrix, colors: list[int]) -> list[int]:
    """Deterministic vertex order: most already-ordered support-neighbors
    first, then rarest color, then index."""
    n = M.n
    rows = M.rows
    class_size = Counter(colors)
    ordered: list[int] = []
    placed = [False] * n
    anchored = [0] * n  # how many ordered support-neighbors each vertex has
    for _ in range(n):
        best = None
        best_key = None
        for v in range(n):
            if placed[v]:
                continue
            key = (-anchored[v], class_size[colors[v]], v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        assert best is not None
        ordered.append(best)
        placed[best] = True
        rb = rows[best]
        for u in range(n):
            if not placed[u] and u != best and rb[u] != 0:
                anchored[u] += 1
    return ordered


def find_matrix_mapping(
    Ma: IntMatrix,
    Mb: IntMatrix,
    budget: IsoBudget | None = None,
) -> Permutation | None:
    """Bijection p with Ma[i][j] == Mb[p(i)][p(j)] for all i, j, or None
    when none exists.  Raises BudgetExhausted on resource limits."""
    if Ma.n != Mb.n:
        return None
    n = Ma.n
    if n == 0:
        return Permutation.identity(0)
    budget = budget or IsoBudget()

    refined = _refine(Ma, Mb)
    if refined is None:
        return None
    col_a, col_b = refined

    by_color: dict[int, list[int]] = {}
    for x in range(n):
        by_color.setdefault(col_b[x], []).append(x)

    order = _search_order(Ma, col_a)
    rows_a = Ma.rows
    rows_b = Mb.rows
    mapping = [-1] * n
    used = [False] * n
    nodes = 0
    deadline = time.monotonic() + budget.max_seconds if budget.max_seconds else 0.0

    # explicit stack, one candidate cursor per depth, so the depth is not
    # bounded by the interpreter's recursion limit
    cursor = [0] * n
    depth = 0
    while depth < n:
        u = order[depth]
        if mapping[u] != -1:
            # coming back to this depth: undo its last choice
            used[mapping[u]] = False
            mapping[u] = -1
        ra = rows_a[u]
        cands = by_color.get(col_a[u], ())
        c = cursor[depth]
        while c < len(cands):
            x = cands[c]
            c += 1
            if used[x]:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExhausted(f"mapping search exceeded {budget.max_nodes} nodes")
            if deadline and nodes & 0x3FF == 0 and time.monotonic() > deadline:
                raise BudgetExhausted(f"mapping search exceeded {budget.max_seconds}s")
            rb = rows_b[x]
            for v in order[:depth]:
                if ra[v] != rb[mapping[v]]:
                    break
            else:
                # consistent with every vertex mapped so far: take it
                mapping[u] = x
                used[x] = True
                break
        if mapping[u] != -1:
            cursor[depth] = c
            depth += 1
        else:
            cursor[depth] = 0
            if depth == 0:
                return None
            depth -= 1

    # not an assert: the guarantee must hold under python -O too
    if any(rows_a[i][j] != rows_b[mapping[i]][mapping[j]] for i in range(n) for j in range(n)):
        raise AssertionError("mapping search returned a non-witness; engine bug")
    return Permutation(tuple(mapping))
