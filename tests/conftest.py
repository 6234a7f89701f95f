"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: they
work straight off edge sets with explicit loops, so agreement with the
library is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from twowalk import Graph, IntMatrix, graph_from_edges


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return graph_from_edges(n, pairs)


def two_walk_count_oracle(G: Graph) -> list[list[int]]:
    """Walks of length two between every ordered pair, by looping over
    the middle vertex of the walk."""
    adj = G.adjacency_sets()
    n = G.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = adj[i]
        for j in range(n):
            out[i][j] = sum(1 for k in range(n) if k in ai and j in adj[k])
    return out


def four_cycle_count_oracle(G: Graph) -> int:
    """Closed 4-walks i->j->k->l->i with all four vertices distinct,
    divided by 8 (each 4-cycle is traced from 4 starts in 2 directions)."""
    adj = G.adjacency_sets()
    walks = 0
    for i in range(G.n):
        for j in adj[i]:
            for k in adj[j]:
                if k == i:
                    continue
                for l in adj[k]:
                    if l != i and l != j and i in adj[l]:
                        walks += 1
    assert walks % 8 == 0
    return walks // 8


def component_count_oracle(G: Graph) -> int:
    adj = G.adjacency_sets()
    seen = [False] * G.n
    count = 0
    for start in range(G.n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return count


def two_colorable_oracle(G: Graph) -> bool:
    """BFS 2-coloring succeeds (edgeless and single-vertex graphs count
    as colorable here)."""
    adj = G.adjacency_sets()
    color = [-1] * G.n
    for start in range(G.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def bipartite_or_disconnected_oracle(G: Graph) -> bool:
    """Block-splitting predicate: disconnected, or 2-colorable with two
    nonempty classes (a lone vertex admits no such split)."""
    if component_count_oracle(G) >= 2:
        return True
    return G.n >= 2 and two_colorable_oracle(G)


def neighbor_degree_sums_oracle(G: Graph) -> list[int]:
    adj = G.adjacency_sets()
    return [sum(len(adj[u]) for u in adj[v]) for v in range(G.n)]


def brute_force_square_witnesses(S: IntMatrix, stop_at: int | None = None) -> list[Graph]:
    """All graphs whose adjacency square equals S, by trying every one of
    the 2^C(n,2) candidates.  Independent of the search kernels."""
    n = S.n
    target = S.rows
    pairs = list(itertools.combinations(range(n), 2))
    hits = []
    for mask in range(1 << len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for k, (a, b) in enumerate(pairs):
            if mask >> k & 1:
                rows[a][b] = rows[b][a] = 1
        good = True
        for i in range(n):
            ri = rows[i]
            ti = target[i]
            for j in range(n):
                if sum(ri[k] * rows[k][j] for k in range(n)) != ti[j]:
                    good = False
                    break
            if not good:
                break
        if good:
            hits.append(graph_from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1]))
            if stop_at is not None and len(hits) >= stop_at:
                return hits
    return hits


def square_witness_table(n: int) -> dict[tuple, list[list[tuple[int, int]]]]:
    """Every graph on n vertices grouped by its square: maps each such
    square, as a tuple of row tuples, to the sorted edge lists of all its
    witnesses.  The same brute force as ``brute_force_square_witnesses``,
    done once for every n × n matrix; a matrix missing here has no
    witness."""
    pairs = list(itertools.combinations(range(n), 2))
    table: dict[tuple, list[list[tuple[int, int]]]] = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        adj = [0] * n
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        S = tuple(tuple((adj[i] & adj[j]).bit_count() for j in range(n)) for i in range(n))
        table.setdefault(S, []).append(edges)
    return table


PRIME = 2**31 - 1  # the modulus of the library's commutation test


def plain_rref(rows: list[list[int]]) -> list[int]:
    """Reduced row echelon form mod ``PRIME`` in place, one list entry at
    a time; returns the pivot column of each nonzero row, in order."""
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        inv = pow(rows[r][c], -1, PRIME)
        top = rows[r] = [x * inv % PRIME for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(x - f * y) % PRIME for x, y in zip(row, top)]
        pivots.append(c)
    return pivots


def powers_commuting_witness(s: list[list[int]]) -> list[list[tuple[int, int]]] | None:
    """The commutation test by the dense powers S^0 .. S^(n-1): None when
    S is not certified cyclic or the diagonal system has nullity >= 2,
    else the block's witnesses, none or one.  O(n^4); the reference the
    library's Krylov-coordinate test is compared against."""
    n = len(s)
    krylov = [[pow(3, v, PRIME) for v in range(n)]]
    for _ in range(n - 1):
        r = krylov[-1]
        krylov.append([sum(a * b for a, b in zip(row, r)) % PRIME for row in s])
    if len(plain_rref(krylov)) < n:
        return None
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    while len(powers) < n:
        last = powers[-1]
        powers.append(
            [[sum(a * b for a, b in zip(row, col)) % PRIME for col in s] for row in last]
        )
    system = [[power[i][i] for power in powers] for i in range(n)]
    pivots = plain_rref(system)
    c = [0] * n
    if len(pivots) == n - 1:
        free = next(k for k in range(n) if k not in pivots)
        c[free] = 1
        for row, k in zip(system, pivots):
            c[k] = -row[free] % PRIME
    elif len(pivots) < n:
        return None
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if sum(ck * power[i][j] for ck, power in zip(c, powers)) % PRIME
    ]
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    square = [[sum(rows[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [edges] if square == s else []


class SteppedClock:
    """A stand-in for the ``time`` module of a searcher: ``monotonic()``
    reads 0.0 for its first ``calls`` calls and 1e9 after them, so a
    deadline set on the first call passes at a chosen later check,
    without sleeping."""

    def __init__(self, calls: int):
        self.left = calls

    def monotonic(self) -> float:
        self.left -= 1
        return 0.0 if self.left >= 0 else 1e9


@pytest.fixture
def rng():
    return random.Random(20260809)


# small named graphs used all over the suite
def cycle(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return graph_from_edges(n, list(itertools.combinations(range(n), 2)))


def empty(n: int) -> Graph:
    return graph_from_edges(n, [])
