"""Exact mapping search between symmetric integer matrices, used both for
graph isomorphism (0/1 matrices) and for permutation similarity of
candidate squares (entries act as edge colors).

The engine is color refinement followed by backtracking: vertices start
with colors (diagonal entry, support-component size), and colors are
refined jointly on both sides by iterated multisets of (color, entry)
over each row's nonzero off-diagonal entries, which are read once; a
depth-first search over the refined classes completes the mapping.
Everything is deterministic; no heuristic can produce a wrong answer,
only a budget abort (raised as ``BudgetExhausted``, never conflated
with "no mapping exists").
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


def _nonzero(M: IntMatrix) -> list[list[tuple[int, int]]]:
    """Each row's nonzero off-diagonal entries, as (index, entry) pairs."""
    return [[(u, x) for u, x in enumerate(row) if x and u != v] for v, row in enumerate(M.rows)]


def _initial_keys(M: IntMatrix) -> list[tuple[int, int]]:
    """(diagonal entry, size of the support component) of each index."""
    label, _ = _component_labels(M.rows)
    size = Counter(label)
    return [(M.rows[v][v], size[label[v]]) for v in range(M.n)]


def _signatures(nonzero: list[list[tuple[int, int]]], colors: list[int]) -> list[tuple]:
    """Each index's color and the multiset of (color, entry) of its row."""
    return [(colors[v], tuple(sorted((colors[u], x) for u, x in row)))
            for v, row in enumerate(nonzero)]


def _refine(Ma: IntMatrix, Mb: IntMatrix, nonzero: list) -> tuple[list[int], list[int]] | None:
    """Joint color refinement of Ma and Mb from their ``nonzero`` lists;
    None when the color histograms separate (no mapping can exist).  The
    class sizes match on both sides before every round and fix each
    index's zero entries per class, so this refines as whole rows would."""
    keys = [_initial_keys(Ma), _initial_keys(Mb)]
    classes = 0
    while True:
        palette = {key: idx for idx, key in enumerate(sorted(set(keys[0]) | set(keys[1])))}
        col_a, col_b = ([palette[k] for k in side] for side in keys)
        if Counter(col_a) != Counter(col_b):
            return None
        if len(palette) == classes:
            return col_a, col_b
        classes = len(palette)
        keys = [_signatures(nz, col) for nz, col in zip(nonzero, (col_a, col_b))]


def _search_order(nonzero: list[list[tuple[int, int]]], colors: list[int]) -> list[int]:
    """Deterministic vertex order: most already-ordered support-neighbors
    first, then rarest color, then index."""
    n = len(colors)
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
        for u, _ in nonzero[best]:
            if not placed[u]:
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

    nonzero = [_nonzero(Ma), _nonzero(Mb)]
    refined = _refine(Ma, Mb, nonzero)
    if refined is None:
        return None
    col_a, col_b = refined

    by_color: dict[int, list[int]] = {}
    for x in range(n):
        by_color.setdefault(col_b[x], []).append(x)

    order = _search_order(nonzero[0], col_a)
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
