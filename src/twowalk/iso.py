"""Graph isomorphism and permutation similarity: ``are_isomorphic`` and
``permutation_similar``, the two front ends of one exact mapping search
between symmetric integer matrices (a graph is its 0/1 adjacency
matrix; the entries of a matrix act as edge colors).

Each side is read once into a sparse form: its diagonal and each row's
nonzero off-diagonal entries as a dict from index to entry.  A matrix
is read off its rows, a graph straight from its edge set, so no dense
matrix is built.  The engine, ``_find_mapping``, is color refinement
followed by backtracking.  Refinement runs on one side alone
(``_trace``): vertices start with colors (diagonal entry, size of the
support component that ``core._component_labels`` puts it in), refined
by iterated multisets of (color, entry) over each row's nonzero
entries, and the side's certificate records every round's palette and
the final color histogram.  Two sides refine jointly to the same colors
exactly when their certificates are equal, so a pair is compared by its
two certificates.  A depth-first search over the refined classes
completes the mapping, testing each candidate against the nonzero
entries alone.

Refinement runs once per object and is kept on it: everything that
depends on one side alone (the side, the colors and certificate, the
search order and back-lists of a mapped side, the color buckets of an
image side) is one ``_Refined``, which ``core._kept`` keeps on the Graph
or IntMatrix.  A matrix's symmetry verdict is the one the IntMatrix
keeps itself, so this module depends on ``core`` alone.  The
search and the check of its mapping run per pair.  Everything is
deterministic; no heuristic can produce a wrong answer, only a budget
abort (raised as ``BudgetExhausted``, never conflated with "no mapping
exists").
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property

from .core import (
    DimensionMismatch,
    Graph,
    IntMatrix,
    Permutation,
    SearchBudget,
    _component_labels,
    _kept,
)


class BudgetExhausted(RuntimeError):
    """Search gave up on resources before reaching an answer."""


@dataclass(frozen=True)
class IsoBudget(SearchBudget):
    """Limits for the mapping search, validated like ``SearchBudget``."""

    max_nodes: int = 10_000_000
    max_seconds: float | None = None


def _signatures(nonzero: list[dict[int, int]], colors: list[int]) -> list[tuple]:
    """Each index's color and the multiset of (color, entry) over its
    row's nonzero entries, each pair packed into one int, color + n·entry
    (a color is below n, so the packing is one-to-one)."""
    n = len(colors)
    return [(c, tuple(sorted([colors[u] + n * x for u, x in row.items()])))
            for c, row in zip(colors, nonzero)]


def _trace(side: _Refined) -> tuple[list[int], tuple]:
    """Color refinement of one side from its nonzero entries: its colors
    and its certificate, the tuple of every round's sorted palette
    followed by the final color histogram.  A color is an index into its
    round's palette; refinement stops at the first round that splits no
    class.

    Refined jointly (one palette over both sides, None as soon as their
    histograms differ), two sides reach these same colors exactly when
    their certificates are equal: equal palettes make the joint palette
    each side's own, and each key starts with the color of the round
    before, so the palettes and the final histogram fix every earlier
    round's histogram.  The class sizes then match on both sides before
    every round and fix each index's zero entries per class, so this
    refines as whole rows would."""
    nonzero = side.nonzero
    label, count = _component_labels(nonzero)
    size = [0] * count
    for c in label:
        size[c] += 1
    keys = [(d, size[c]) for d, c in zip(side.diag, label)]
    palettes = []
    while True:
        palette = tuple(sorted(set(keys)))
        palettes.append(palette)
        index = dict(zip(palette, range(len(palette))))
        colors = [index[k] for k in keys]
        if len(palettes) > 1 and len(palette) == len(palettes[-2]):
            break
        keys = _signatures(nonzero, colors)
    histogram = [0] * len(palette)
    for c in colors:
        histogram[c] += 1
    return colors, (*palettes, tuple(histogram))


def _plan(nonzero: list[dict[int, int]], colors: list[int], class_size: tuple[int, ...]
          ) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Deterministic vertex order: most already-ordered support-neighbors
    first, then rarest color (``class_size`` is indexed by color), then
    index; and for each depth the nonzero entries of the vertex there at
    vertices ordered before it, which a candidate for that vertex must
    match.

    A vertex's key packs the tuple (-anchored, class size, index) into
    one int, ((n - anchored)·(n + 1) + size)·n + index, which orders as
    the tuple does; ``key`` holds each unordered vertex's current key and
    -1 for an ordered one, so a heap entry that no longer matches it is
    stale and skipped.  A key only falls, so a vertex's newest entry is
    its smallest and comes out first."""
    n = len(colors)
    step = (n + 1) * n
    key = [n * step + class_size[c] * n + v for v, c in enumerate(colors)]
    heap = key[:]
    heapq.heapify(heap)
    order: list[int] = []
    back: list[list[tuple[int, int]]] = []
    while heap:
        k = heapq.heappop(heap)
        v = k % n
        if key[v] != k:
            continue
        key[v] = -1
        need = []
        for u, x in nonzero[v].items():
            ku = key[u]
            if ku < 0:
                need.append((u, x))
            else:
                key[u] = ku = ku - step
                heapq.heappush(heap, ku)
        back.append(need)
        order.append(v)
    return order, back


class _Refined:
    """One side of a mapping search, kept on the Graph or IntMatrix it was
    read from: the diagonal, and each row's nonzero off-diagonal entries
    as a dict from index to entry.  What the search derives from that
    side alone is worked out on first use: the colors and certificate
    when the object is compared, the search order and back-lists when it
    is the mapped side of a search, the color buckets when it is the
    image side."""

    def __init__(self, diag: list[int], nonzero: list[dict[int, int]]):
        self.diag = diag
        self.nonzero = nonzero

    @cached_property
    def trace(self) -> tuple[list[int], tuple]:
        """(colors, certificate), see ``_trace``."""
        return _trace(self)

    @cached_property
    def plan(self) -> tuple[list[int], list[list[tuple[int, int]]]]:
        """The search order and each depth's back-list, see ``_plan``."""
        colors, certificate = self.trace
        return _plan(self.nonzero, colors, certificate[-1])

    @cached_property
    def buckets(self) -> dict[int, list[int]]:
        """The indices of each color, ascending: a mapped vertex's candidates."""
        by_color: dict[int, list[int]] = {}
        for x, c in enumerate(self.trace[0]):
            by_color.setdefault(c, []).append(x)
        return by_color


def _matrix_side(M: IntMatrix) -> _Refined:
    rows = M.rows
    return _Refined([row[v] for v, row in enumerate(rows)],
                    [{u: x for u, x in enumerate(row) if x and u != v} for v, row in enumerate(rows)])


def _graph_side(G: Graph) -> _Refined:
    """The side of G's adjacency matrix, from the edge set in O(n + m)."""
    nonzero: list[dict[int, int]] = [{} for _ in range(G.n)]
    for i, j in G.edges:
        nonzero[i][j] = 1
        nonzero[j][i] = 1
    return _Refined([0] * G.n, nonzero)


def _search(a: _Refined, b: _Refined, budget: IsoBudget) -> list[int] | None:
    """Depth-first search for p with a's entries equal to b's under p,
    over candidates of equal color.  The images as a list, or None."""
    col_a = a.trace[0]
    order, back = a.plan
    by_color = b.buckets
    cands_at = [by_color.get(col_a[u], ()) for u in order]
    n = len(order)
    nonzero_b = b.nonzero
    mapped_nb = [0] * n  # how many of each b-vertex's nonzero entries sit at used vertices
    mapping = [-1] * n
    used = [False] * n
    nodes = 0
    max_nodes = budget.max_nodes
    deadline = time.monotonic() + budget.max_seconds if budget.max_seconds else 0.0

    # explicit stack, one candidate cursor per depth, so the depth is not
    # bounded by the interpreter's recursion limit
    cursor = [0] * n
    depth = 0
    while depth < n:
        u = order[depth]
        x = mapping[u]
        if x != -1:
            # coming back to this depth: undo its last choice
            used[x] = False
            mapping[u] = -1
            for w in nonzero_b[x]:
                mapped_nb[w] -= 1
        need = back[depth]
        matched = len(need)
        cands = cands_at[depth]
        for c in range(cursor[depth], len(cands)):
            x = cands[c]
            if used[x]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExhausted(f"mapping search exceeded {max_nodes} nodes")
            if deadline and nodes & 0x3FF == 0 and time.monotonic() > deadline:
                raise BudgetExhausted(f"mapping search exceeded {budget.max_seconds}s")
            # u's nonzeros at mapped vertices match x's at their images, and
            # x has no other nonzero at a used vertex: the dense row test
            if mapped_nb[x] != matched:
                continue
            ex = nonzero_b[x]
            for v, e in need:
                if ex.get(mapping[v]) != e:
                    break
            else:
                mapping[u] = x
                used[x] = True
                for w in ex:
                    mapped_nb[w] += 1
                cursor[depth] = c + 1
                depth += 1
                break
        else:
            cursor[depth] = 0
            if depth == 0:
                return None
            depth -= 1
    return mapping


def _is_witness(a: _Refined, b: _Refined, mapping: list[int]) -> bool:
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


def _find_mapping(a: _Refined, b: _Refined, budget: IsoBudget | None) -> Permutation | None:
    if a.trace[1] != b.trace[1]:
        return None
    mapping = _search(a, b, budget or IsoBudget())
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
    edge sets without building either adjacency matrix; each graph is
    refined once and keeps the result.  Raises BudgetExhausted rather
    than guessing on large hard inputs.
    """
    if G.n != H.n or G.num_edges != H.num_edges:
        return None
    return _find_mapping(_kept(G, "_iso", _graph_side), _kept(H, "_iso", _graph_side), budget)


def permutation_similar(
    S1: IntMatrix, S2: IntMatrix, budget: IsoBudget | None = None
) -> Permutation | None:
    """A permutation p with apply_similarity(S1, p) == S2 (that is,
    S2[i][j] == S1[p(i)][p(j)]), or None when the matrices are not
    permutation-similar.  Matrix entries act as edge colors in the
    underlying mapping search; each matrix is checked and refined once
    and keeps the result."""
    if not S1.is_symmetric() or not S2.is_symmetric():
        raise ValueError("permutation_similar requires symmetric matrices")
    if S1.n != S2.n:
        raise DimensionMismatch(f"matrix sizes differ: {S1.n} vs {S2.n}")
    return _find_mapping(_kept(S2, "_iso", _matrix_side), _kept(S1, "_iso", _matrix_side), budget)
