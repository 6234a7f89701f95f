"""Answer checks, and the input forms they check against, written without
the code under test.

Everything here works on plain lists and tuples, so a defect in
``twowalk`` cannot hide itself: witnesses are re-squared with this
module's own ``square_of``, permutations are checked entry by entry, and
the isomorphism-class count is bounded from below by a connected-component
invariant computed here.  Any failed check raises ``WrongAnswer``.
"""

from __future__ import annotations

from collections import deque

Rows = list[list[int]]


class WrongAnswer(AssertionError):
    """The program under test gave an answer the benchmark can refute."""


def square_of(n: int, edges) -> Rows:
    """A(G)² for the graph on n vertices with the given edges: entry (i, j)
    counts common neighbours, the diagonal holds degrees."""
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return [[len(nbrs[i] & nbrs[j]) for j in range(n)] for i in range(n)]


def with_entries(rows: Rows, changes) -> Rows:
    """Copy of a symmetric matrix with S[i][j] = S[j][i] = v for each
    (i, j, v) in ``changes``."""
    out = [list(r) for r in rows]
    for i, j, v in changes:
        out[i][j] = out[j][i] = v
    return out


def relabel(rows: Rows, p) -> Rows:
    """The matrix T with T[i][j] = S[p[i]][p[j]]."""
    return [[rows[pi][pj] for pj in p] for pi in p]


def matrix_text(rows: Rows) -> str:
    """Matrix-text input form: the dimension, then one row per line."""
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


def edgelist_text(n: int, edges) -> str:
    """Edge-list input form: the vertex count, then one 'i j' per line."""
    return "\n".join([str(n)] + [f"{i} {j}" for i, j in edges]) + "\n"


def check_witness(rows: Rows, n: int, edges, what: str) -> None:
    """The graph (n, edges) must have no loops or repeated edges and square to rows."""
    norm = {(min(e), max(e)) for e in edges}
    if len(norm) != len(edges) or any(i == j or not 0 <= i < j < n for i, j in norm):
        raise WrongAnswer(f"{what}: witness is not a simple graph on {n} vertices")
    if square_of(n, norm) != rows:
        raise WrongAnswer(f"{what}: witness does not square to the input matrix")


def check_verdict(expected: str, got: str, what: str) -> None:
    """A decided verdict must equal the frozen one; ``aborted`` (the node
    cap was hit) is never wrong but is never a verdict either."""
    if got not in ("realized", "infeasible", "aborted"):
        raise WrongAnswer(f"{what}: unknown verdict {got!r}")
    if got != "aborted" and got != expected:
        raise WrongAnswer(f"{what}: verdict {got}, expected {expected}")


def check_similarity(s1: Rows, s2: Rows, p, what: str) -> None:
    """p must satisfy s2[i][j] == s1[p(i)][p(j)] for all i, j."""
    n = len(s1)
    if sorted(p) != list(range(n)) or relabel(s1, p) != s2:
        raise WrongAnswer(f"{what}: returned permutation is not a similarity")


def check_isomorphism(n: int, g_edges, h_edges, p, what: str) -> None:
    """p must map the edge set of G exactly onto that of H."""
    h = {(min(e), max(e)) for e in h_edges}
    mapped = {(min(p[i], p[j]), max(p[i], p[j])) for i, j in g_edges}
    if sorted(p) != list(range(n)) or mapped != h or len(g_edges) != len(h):
        raise WrongAnswer(f"{what}: returned permutation is not an isomorphism")


def component_signature(n: int, edges) -> tuple:
    """Sorted (size, edge count, bipartite) of each connected component.
    Isomorphic graphs have equal signatures, so k distinct signatures
    prove at least k isomorphism classes."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    color = [-1] * n
    comps = []
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        size, degsum, bipartite = 0, 0, True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            size += 1
            degsum += len(nbrs[v])
            for u in nbrs[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    bipartite = False
        comps.append((size, degsum // 2, bipartite))
    return tuple(sorted(comps))


def check_class_count(expected: int, k: int, found: int, signatures, what: str) -> None:
    """The isomorphism classes found must match the frozen count, and the
    benchmark's own invariant must already separate at least k+1 of them."""
    distinct = len(set(signatures))
    if found != expected:
        raise WrongAnswer(f"{what}: {found} isomorphism classes, expected {expected}")
    if distinct < k + 1:
        raise WrongAnswer(f"{what}: only {distinct} separable classes, need at least {k + 1}")
