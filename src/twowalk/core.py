"""Exact graph / integer-matrix value types and the operations shared by
every other module: the search budget, the square and its popcount
check, and the support components of a symmetric matrix (read off the
indices of each row's nonzero entries).  An IntMatrix decides its own
symmetry, once: every module that needs the verdict reads it there.
What other modules derive from a Graph or IntMatrix alone (the battery's
report, the refined side) they keep on it with ``_kept``.

All arithmetic is exact: matrix entries are Python ints (arbitrary
precision, so products can never silently wrap) and rationals are
`fractions.Fraction`.  Vertices are 0-indexed everywhere in the library;
1-indexed labels like ``v2`` appear only in rendered reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Sequence


class DimensionMismatch(ValueError):
    """Operands have incompatible sizes."""


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exhaustive search; exceeding either aborts the run
    (reported as Aborted, never conflated with Infeasible).  The
    re-verification of the witnesses found gets a second ``max_seconds``."""

    max_nodes: int = 100_000_000
    max_seconds: float | None = 60.0

    def __post_init__(self):
        if not self.max_nodes > 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive or None")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of edges {i, j}.

    The vertex count n is a nonnegative int and edges are pairs (i, j)
    of ints with 0 <= i < j < n (bool excluded from both), stored in a
    frozenset whatever container they came in; any other count or pair
    is rejected (``graph_from_edges`` orders pairs first).
    Instances are immutable and hashable.

    ``iso`` keeps the graph's refined side on it with ``_kept``.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.edges, frozenset):
            # a non-iterable edge is kept as it is, to be rejected as no pair below
            edges = (tuple(e) if isinstance(e, Iterable) else e for e in self.edges)
            object.__setattr__(self, "edges", frozenset(edges))
        if type(self.n) is not int and not _is_int(self.n):
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
            if (type(i) is not int or type(j) is not int) and not (_is_int(i) and _is_int(j)):
                raise ValueError(f"edge ({i!r}, {j!r}) has an endpoint that is not an integer")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n):
                if 0 <= j < i < self.n:
                    raise ValueError(f"edge ({i},{j}) is not ordered i < j; graph_from_edges orders pairs")
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __getstate__(self) -> dict:
        return {"n": self.n, "edges": self.edges}

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from (possibly unordered, duplicated) vertex pairs;
    ``Graph`` rejects non-integer or out-of-range endpoints and self-loops."""
    return Graph(n, frozenset((i, j) if i < j else (j, i) for i, j in pairs))


def _is_int(x: object) -> bool:
    """Whether x is an int, bool excluded: the entry and endpoint test."""
    return isinstance(x, int) and not isinstance(x, bool)


def _kept(obj: Any, name: str, make: Callable[[Any], Any]) -> Any:
    """``make(obj)``, kept in ``obj``'s instance ``__dict__`` under ``name``
    from first use, as ``functools.cached_property`` keeps a value: the
    one memo that other modules put on a Graph or IntMatrix.  Both are
    immutable, so the value never goes stale; it is no field, so ``==``,
    ``hash`` and ``repr`` never read it, and ``__getstate__`` leaves it
    out of pickles and copies."""
    kept = obj.__dict__
    if name not in kept:
        kept[name] = make(obj)
    return kept[name]


def _matrix_problem(rows: Sequence[Sequence[object]]) -> str | None:
    """The first reason ``rows`` is not a square matrix of ints (bool
    excluded), with 1-indexed positions, or None."""
    n = len(rows)
    for i, row in enumerate(rows, 1):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for j, x in enumerate(row, 1):
            # the exact-type test first: it alone settles plain ints, the common case
            if type(x) is not int and not _is_int(x):
                return f"entry at row {i}, column {j} is not an integer"
    return None


def _negative_entry(rows: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first (i, j) with a negative entry, or None; ``rows`` is a
    square matrix of ints."""
    if not rows or min(map(min, rows)) >= 0:
        return None
    return next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x < 0)


def _asymmetric_pair(rows: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first (i, j) with i < j and rows[i][j] != rows[j][i], or None;
    ``rows`` is a square matrix of ints.  Row i is compared with column i
    whole; a difference left of the diagonal would have shown in an
    earlier row, so the first row that differs does so right of it."""
    for i, (row, col) in enumerate(zip(rows, zip(*rows))):
        if tuple(row) != col:
            return i, next(j for j in range(i + 1, len(col)) if row[j] != col[j])
    return None


@dataclass(frozen=True)
class IntMatrix:
    """Dense square matrix of nonnegative integers, stored row-major as
    nested tuples whatever sequences it came in, so instances are
    immutable and hashable.  Entries are plain Python ints, so arithmetic
    on them is exact at any magnitude.

    The matrix keeps its first asymmetric pair (``_asymmetry``, a
    ``cached_property``), which ``is_symmetric`` and every symmetry test
    of ``analysis`` and ``iso`` read; ``analysis`` keeps the
    necessary-condition battery's result on it, and ``iso`` the refined
    side, each with ``_kept``.  None of the three is a field, so ``==``,
    ``hash`` and ``repr`` never read them, and pickling and copying keep
    the rows alone."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        problem = _matrix_problem(self.rows)
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        neg = _negative_entry(self.rows)
        if neg:
            i, j = neg
            raise ValueError(f"entry at row {i + 1}, column {j + 1} is negative: {self.rows[i][j]}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) if isinstance(x, bool) else x for x in row) for row in rows))

    @classmethod
    def zeros(cls, n: int) -> "IntMatrix":
        return cls(tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    @cached_property
    def _asymmetry(self) -> tuple[int, int] | None:
        """The first asymmetric pair (see ``_asymmetric_pair``), or None."""
        return _asymmetric_pair(self.rows)

    def is_symmetric(self) -> bool:
        return self._asymmetry is None

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __getstate__(self) -> dict:
        return {"rows": self.rows}

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()})"


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}: ``mapping[i]`` is the image of i, an int
    (bool excluded)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        # sorted() alone would let (1.0, 0.0) through, since 1.0 == 1
        if not all(type(x) is int or _is_int(x) for x in self.mapping):
            raise ValueError(f"permutation images must be integers, got {self.mapping}")
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"not a permutation of 0..{len(self.mapping) - 1}: {self.mapping}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.mapping):
            inv[x] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """(self ∘ other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DimensionMismatch(f"composing permutations of sizes {self.n} and {other.n}")
        return Permutation(tuple(self.mapping[other.mapping[i]] for i in range(self.n)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest element."""
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.mapping[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"


def adjacency_matrix(G: Graph) -> IntMatrix:
    """Symmetric 0/1 matrix with zero diagonal; entry (i,j)=1 iff {i,j} is an edge."""
    rows = [[0] * G.n for _ in range(G.n)]
    for i, j in G.edges:
        rows[i][j] = 1
        rows[j][i] = 1
    return IntMatrix(rows)


def square(M: IntMatrix) -> IntMatrix:
    """Exact matrix product M·M.

    For an adjacency matrix A(G), entry (i,j) of the square counts the
    walks of length two from vertex i to vertex j, and entry (i,i) is
    deg(i).  The product runs over each row's nonzero entries only:
    after one O(n²) pass that reads them, it makes at most n · nnz
    multiplications for nnz nonzero entries (Σ deg² on a graph), not n³.
    """
    n = M.n
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in M.rows]
    out = []
    for row in nonzero:
        acc = [0] * n
        for k, a in row:
            for j, b in nonzero[k]:
                acc[j] += a * b
        out.append(tuple(acc))
    return IntMatrix(tuple(out))


def _support(rows: Sequence[Sequence[int]]) -> list[Iterator[int]]:
    """Each row's support, the indices of its nonzero entries, for
    ``_component_labels``: one-shot iterators that list v itself when
    s_vv ≠ 0, which the labelling skips as already labelled."""
    indices = range(len(rows))
    return [compress(indices, row) for row in rows]


def _component_labels(adjacent: Sequence[Iterable[int]]) -> tuple[list[int], int]:
    """Support-component label of each index and the component count, from
    each index's support neighbors in a symmetric matrix (each row is
    read once, so one-shot iterators will do).  Labels run 0..count-1 in
    order of each component's lowest index."""
    label = [-1] * len(adjacent)
    count = 0
    for start in range(len(adjacent)):
        if label[start] < 0:
            label[start] = count
            component = [start]
            for v in component:
                for u in adjacent[v]:
                    if label[u] < 0:
                        label[u] = count
                        component.append(u)
            count += 1
    return label, count


def _squares_to(adj: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """Whether the graph with neighbor bitmasks ``adj`` has ``rows`` as the
    square of its adjacency matrix.  Entry (i, j) of the square counts the
    common neighbors of i and j (the degree of i when i == j): one
    popcount of the two bitmasks."""
    return all(
        (ai & aj).bit_count() == sij
        for ai, row in zip(adj, rows)
        for aj, sij in zip(adj, row)
    )


def apply_similarity(M: IntMatrix, p: Permutation) -> IntMatrix:
    """Conjugate M by the permutation p: result[i][j] = M[p(i)][p(j)].

    This is P·M·Pᵀ for the permutation matrix P whose row i is the
    standard basis vector at p(i).  The convention satisfies
    ``apply_similarity(M, identity) == M`` and
    ``apply_similarity(apply_similarity(M, p), q) == apply_similarity(M, p.compose(q))``.
    """
    if M.n != p.n:
        raise DimensionMismatch(f"matrix of size {M.n} vs permutation of size {p.n}")
    m = p.mapping
    rows = M.rows
    return IntMatrix(tuple(tuple(rows[m[i]][m[j]] for j in range(M.n)) for i in range(M.n)))


def permute_graph(G: Graph, p: Permutation) -> Graph:
    """Relabel G consistently with apply_similarity:
    ``adjacency_matrix(permute_graph(G, p)) == apply_similarity(adjacency_matrix(G), p)``.

    Equivalently the result has an edge {i, j} iff G has {p(i), p(j)}.
    """
    if G.n != p.n:
        raise DimensionMismatch(f"graph of size {G.n} vs permutation of size {p.n}")
    inv = p.inverse().mapping
    return graph_from_edges(G.n, [(inv[i], inv[j]) for i, j in G.edges])


def degree_sequence(G: Graph) -> list[int]:
    """Vertex degrees sorted descending; sums to 2·|edges|."""
    deg = [0] * G.n
    for i, j in G.edges:
        deg[i] += 1
        deg[j] += 1
    deg.sort(reverse=True)
    return deg
