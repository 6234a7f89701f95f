"""Pure-Python backtracking kernel for the realization search.

Finds all symmetric 0/1 zero-diagonal matrices A with A·A == S, i.e.
all labeled graphs whose adjacency-matrix square equals S.

Algorithm
---------
The vertices are first ordered by descending s_ii (the degree the
square demands), ties broken by index, and the search runs on S
relabelled in that order; every witness is mapped back to the caller's
labels.  Placing high-degree vertices first decides the most
constrained rows early, which is where the pruning below bites.  An S
whose diagonal is already non-increasing, in particular every regular S
(every duplication square, C6, Petersen), keeps the identity order and
is searched exactly as given.

Decision variables are the C(n,2) potential edges of the ordered
vertices, row by row: (0,1),(0,2),…,(0,n-1),(1,2),…  Values are tried
absent-first (0 then 1), which makes the enumeration order and every
outcome deterministic.

The only search state is one neighbor bitmask per vertex, ``adj``.  It
counts two-walks directly: the degree of i is ``adj[i].bit_count()`` and
the number of common neighbors of i and j is
``(adj[i] & adj[j]).bit_count()``.  Both counts only grow when edges are
added, so exceeding the target (degree of i > s_ii, common neighbors of
i and j > s_ij) prunes soundly.  Additional pruning:

* after deciding pair (i,j): row i can still reach at most
  deg(i) + (n-1-j) neighbors and row j at most deg(j) + (n-i-2); either
  falling short of the required diagonal prunes;
* when row i completes (j = n-1): deg(i) must equal s_ii exactly, every
  now-final common-neighbor count of a and i (a < i) must equal s_ai,
  and every later row r must still be able to reach s_rr.

Degrees-from-diagonal and common-neighbors-from-off-diagonal are exactly
the two-walk interpretation of the square, which is what makes this
propagation complete: a full assignment that survives all row-completion
checks necessarily satisfies A·A == S.

The search runs on an explicit stack (one value cursor and one
"edge applied" flag per position) rather than by recursion, so its depth
is not bounded by, and it never changes, the interpreter's recursion
limit.

A "node" is one attempted (position, value) assignment, counted before
its feasibility checks run.
"""

from __future__ import annotations

import time

KERNEL_NAME = "python"

# search status codes
EXHAUSTED = 0
HIT_NODE_BUDGET = 1
HIT_TIME_BUDGET = 2
HIT_WITNESS_LIMIT = 3

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes


def run_search(
    n: int,
    s: list[list[int]],
    max_nodes: int,
    time_limit: float,
    witness_limit: int,
) -> tuple[int, list[list[tuple[int, int]]], int]:
    """Enumerate graphs whose adjacency square equals ``s``.

    ``s`` must already be validated: symmetric, nonnegative, s_ii <= n-1
    and s_ij <= min(s_ii, s_jj).  ``max_nodes`` <= 0 means unlimited;
    ``time_limit`` <= 0 means no deadline; ``witness_limit`` <= 0 means
    enumerate everything.

    Returns (status, witnesses, nodes) where each witness is a sorted
    edge list in the caller's labels.
    """
    # sorted() is stable, so equal diagonals keep their index order
    order = sorted(range(n), key=lambda v: -s[v][v])
    if order == list(range(n)):
        return _search(n, s, max_nodes, time_limit, witness_limit)
    status, witnesses, nodes = _search(
        n, [[s[a][b] for b in order] for a in order], max_nodes, time_limit, witness_limit
    )
    back = [sorted(tuple(sorted((order[i], order[j]))) for i, j in w) for w in witnesses]
    return status, back, nodes


def _search(
    n: int,
    s: list[list[int]],
    max_nodes: int,
    time_limit: float,
    witness_limit: int,
) -> tuple[int, list[list[tuple[int, int]]], int]:
    """``run_search`` on the vertices in the order given."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    deadline = time.monotonic() + time_limit if time_limit > 0 else 0.0

    adj = [0] * n  # neighbor bitmasks
    witnesses: list[list[tuple[int, int]]] = []
    nodes = 0

    # n <= 1 has no vertex pairs: the all-zero matrix demanded by
    # validation admits exactly the empty graph
    if npairs == 0:
        if all(s[i][i] == 0 and sum(s[i]) == 0 for i in range(n)):
            witnesses.append([])
        return EXHAUSTED, witnesses, 0

    # explicit stack: the next value to try at each position, and whether
    # the edge of that position is currently added
    value = [0] * npairs
    applied = [False] * npairs
    pos = 0
    while True:
        if pos == npairs:
            witnesses.append(sorted(
                (i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1
            ))
            if 0 < witness_limit <= len(witnesses):
                return HIT_WITNESS_LIMIT, witnesses, nodes
            pos -= 1
            continue

        i, j = pairs[pos]
        # the flag is kept: clearing the bits on every visit measured slower
        if applied[pos]:
            applied[pos] = False
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)

        v = value[pos]
        if v == 2:
            # both values tried: backtrack
            value[pos] = 0
            if pos == 0:
                return EXHAUSTED, witnesses, nodes
            pos -= 1
            continue
        value[pos] = v + 1

        nodes += 1
        if 0 < max_nodes < nodes:
            return HIT_NODE_BUDGET, witnesses, nodes
        if deadline and nodes & _TIME_CHECK_MASK == 0 and time.monotonic() > deadline:
            return HIT_TIME_BUDGET, witnesses, nodes

        si = s[i]
        sj = s[j]
        ai = adj[i]
        aj = adj[j]
        if v == 1:
            if ai.bit_count() >= si[i] or aj.bit_count() >= sj[j]:
                continue
            # adding {i,j} makes i a new common neighbor of j with each
            # current neighbor of i, and symmetrically
            ok = True
            m = ai
            while m:
                b = m & -m
                k = b.bit_length() - 1
                m ^= b
                if (aj & adj[k]).bit_count() >= sj[k]:
                    ok = False
                    break
            if ok:
                m = aj
                while m:
                    b = m & -m
                    k = b.bit_length() - 1
                    m ^= b
                    if (ai & adj[k]).bit_count() >= si[k]:
                        ok = False
                        break
            if not ok:
                continue
            ai |= 1 << j
            aj |= 1 << i
            adj[i] = ai
            adj[j] = aj
            applied[pos] = True

        # remaining-capacity checks for the two rows just touched
        di = ai.bit_count()
        ok = di + (n - 1 - j) >= si[i] and aj.bit_count() + (n - i - 2) >= sj[j]
        if ok and j == n - 1:
            # row i is complete: its degree and common-neighbor counts
            # with every earlier row are final
            ok = di == si[i]
            if ok:
                for a in range(i):
                    if (ai & adj[a]).bit_count() != si[a]:
                        ok = False
                        break
            if ok:
                for r in range(i + 1, n):
                    if adj[r].bit_count() + (n - i - 2) < s[r][r]:
                        ok = False
                        break
        if ok:
            pos += 1
