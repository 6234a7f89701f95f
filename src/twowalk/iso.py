"""Graph isomorphism and permutation similarity: ``are_isomorphic`` and
``permutation_similar``, the two front ends of one exact mapping search
between symmetric integer matrices (a graph is its 0/1 adjacency
matrix; the entries of a matrix act as edge colors).

Each side is read once into a sparse form: its diagonal and each row's
nonzero off-diagonal entries as a dict from index to entry.  A matrix
is read off its rows, a graph straight from its edge set, so no dense
matrix is built.  The engine, ``_find_mapping``,
is color refinement followed by backtracking: vertices start with
colors (diagonal entry, size of the support component that
``core._component_labels`` puts it in), and colors are refined jointly
on both sides by iterated multisets of (color, entry) over each row's
nonzero entries; a depth-first search over the refined classes
completes the mapping, testing each candidate against the nonzero
entries alone.  Everything is deterministic; no heuristic can produce
a wrong answer, only a budget abort (raised as ``BudgetExhausted``,
never conflated with "no mapping exists").
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DimensionMismatch,
    Graph,
    IntMatrix,
    Permutation,
    SearchBudget,
    _component_labels,
)


class BudgetExhausted(RuntimeError):
    """Search gave up on resources before reaching an answer."""


@dataclass(frozen=True)
class IsoBudget(SearchBudget):
    """Limits for the mapping search, validated like ``SearchBudget``."""

    max_nodes: int = 10_000_000
    max_seconds: float | None = None


class _Side(NamedTuple):
    """One side of a mapping search: the diagonal, and each row's nonzero
    off-diagonal entries as a dict from index to entry."""

    diag: list[int]
    nonzero: list[dict[int, int]]


def _matrix_side(M: IntMatrix) -> _Side:
    rows = M.rows
    return _Side([row[v] for v, row in enumerate(rows)],
                 [{u: x for u, x in enumerate(row) if x and u != v} for v, row in enumerate(rows)])


def _graph_side(G: Graph) -> _Side:
    """The side of G's adjacency matrix, from the edge set in O(n + m)."""
    nonzero: list[dict[int, int]] = [{} for _ in range(G.n)]
    for i, j in G.edges:
        nonzero[i][j] = 1
        nonzero[j][i] = 1
    return _Side([0] * G.n, nonzero)


def _signatures(nonzero: list[dict[int, int]], colors: list[int]) -> list[tuple]:
    """Each index's color and the multiset of (color, entry) of its row."""
    return [(colors[v], tuple(sorted([(colors[u], x) for u, x in row.items()])))
            for v, row in enumerate(nonzero)]


def _refine(a: _Side, b: _Side) -> tuple[list[int], list[int]] | None:
    """Joint color refinement of two sides from their nonzero entries;
    None when the color histograms separate (no mapping can exist).  The
    class sizes match on both sides before every round and fix each
    index's zero entries per class, so this refines as whole rows would."""
    keys = []
    for side in (a, b):
        label, count = _component_labels(side.nonzero)
        size = [0] * count
        for c in label:
            size[c] += 1
        keys.append([(d, size[c]) for d, c in zip(side.diag, label)])
    classes = 0
    while True:
        palette = {key: idx for idx, key in enumerate(sorted(set(keys[0]) | set(keys[1])))}
        col_a, col_b = ([palette[k] for k in side] for side in keys)
        if sorted(col_a) != sorted(col_b):
            return None
        if len(palette) == classes:
            return col_a, col_b
        classes = len(palette)
        keys = [_signatures(s.nonzero, col) for s, col in ((a, col_a), (b, col_b))]


def _search_order(nonzero: list[dict[int, int]], colors: list[int]) -> list[int]:
    """Deterministic vertex order: most already-ordered support-neighbors
    first, then rarest color, then index.  A vertex's key only falls as
    its neighbors are ordered, so its newest heap entry is its smallest
    and comes out before any stale one."""
    class_size = Counter(colors)
    heap = [(0, class_size[c], v) for v, c in enumerate(colors)]
    heapq.heapify(heap)
    anchored = [0] * len(colors)  # how many ordered support-neighbors each vertex has
    placed = [False] * len(colors)
    ordered: list[int] = []
    while heap:
        _, _, v = heapq.heappop(heap)
        if placed[v]:
            continue
        ordered.append(v)
        placed[v] = True
        for u in nonzero[v]:
            if not placed[u]:
                anchored[u] += 1
                heapq.heappush(heap, (-anchored[u], class_size[colors[u]], u))
    return ordered


def _search(a: _Side, b: _Side, col_a: list[int], col_b: list[int],
            budget: IsoBudget) -> list[int] | None:
    """Depth-first search for p with a's entries equal to b's under p,
    over candidates of equal color.  The images as a list, or None."""
    n = len(col_a)
    by_color: dict[int, list[int]] = {}
    for x in range(n):
        by_color.setdefault(col_b[x], []).append(x)

    order = _search_order(a.nonzero, col_a)
    depth_of = [0] * n
    for depth, u in enumerate(order):
        depth_of[u] = depth
    # the vertices mapped before depth d are exactly order[:d], so the
    # nonzero entries of order[d] that a candidate must match are fixed
    back = [[(v, x) for v, x in a.nonzero[u].items() if depth_of[v] < depth]
            for depth, u in enumerate(order)]
    nonzero_b = b.nonzero
    mapped_nb = [0] * n  # how many of each b-vertex's nonzero entries sit at used vertices
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
            x = mapping[u]
            used[x] = False
            mapping[u] = -1
            for w in nonzero_b[x]:
                mapped_nb[w] -= 1
        need = back[depth]
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
            # u's nonzeros at mapped vertices match x's at their images, and
            # x has no other nonzero at a used vertex: the dense row test
            if mapped_nb[x] != len(need):
                continue
            ex = nonzero_b[x]
            for v, e in need:
                if ex.get(mapping[v]) != e:
                    break
            else:
                mapping[u] = x
                used[x] = True
                for w in nonzero_b[x]:
                    mapped_nb[w] += 1
                break
        if mapping[u] != -1:
            cursor[depth] = c
            depth += 1
        else:
            cursor[depth] = 0
            if depth == 0:
                return None
            depth -= 1
    return mapping


def _is_witness(a: _Side, b: _Side, mapping: list[int]) -> bool:
    """Whether a's entries equal b's under the injective ``mapping``:
    equal diagonals and nonzero counts, and every nonzero of a found in b."""
    for i, p in enumerate(mapping):
        row_b = b.nonzero[p]
        if a.diag[i] != b.diag[p] or len(a.nonzero[i]) != len(row_b):
            return False
        for j, x in a.nonzero[i].items():
            if row_b.get(mapping[j]) != x:
                return False
    return True


def _find_mapping(a: _Side, b: _Side, budget: IsoBudget | None) -> Permutation | None:
    refined = _refine(a, b)
    if refined is None:
        return None
    mapping = _search(a, b, *refined, budget or IsoBudget())
    if mapping is None:
        return None
    p = Permutation(tuple(mapping))
    # not an assert: the guarantee must hold under python -O too
    if not _is_witness(a, b, mapping):
        raise AssertionError("mapping search returned a non-witness; engine bug")
    return p


def are_isomorphic(
    G: Graph, H: Graph, budget: IsoBudget | None = None
) -> Permutation | None:
    """A permutation p mapping G's edge set onto H's ({i,j} in G iff
    {p(i),p(j)} in H), or None when the graphs are not isomorphic.

    Exact backtracking over color-refined vertex classes, read from the
    edge sets without building either adjacency matrix; raises
    BudgetExhausted rather than guessing on large hard inputs.
    """
    if G.n != H.n or G.num_edges != H.num_edges:
        return None
    return _find_mapping(_graph_side(G), _graph_side(H), budget)


def permutation_similar(
    S1: IntMatrix, S2: IntMatrix, budget: IsoBudget | None = None
) -> Permutation | None:
    """A permutation p with apply_similarity(S1, p) == S2 (that is,
    S2[i][j] == S1[p(i)][p(j)]), or None when the matrices are not
    permutation-similar.  Matrix entries act as edge colors in the
    underlying mapping search."""
    if not S1.is_symmetric() or not S2.is_symmetric():
        raise ValueError("permutation_similar requires symmetric matrices")
    if S1.n != S2.n:
        raise DimensionMismatch(f"matrix sizes differ: {S1.n} vs {S2.n}")
    return _find_mapping(_matrix_side(S2), _matrix_side(S1), budget)
