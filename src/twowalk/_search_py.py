"""Pure-Python backtracking kernel for the realization search.

Finds all symmetric 0/1 zero-diagonal matrices A with A·A == S, i.e.
all labeled graphs whose adjacency-matrix square equals S.

Algorithm
---------
**Blocks.**  Two vertices with a common neighbour have s_ij > 0, so
each connected component of a witness G lies inside the union of the
support components of S (off-diagonal nonzero pattern) that it meets.
A nonbipartite component of G is exactly one support component P, with
all its edges inside P; a bipartite one is exactly two, its sides P and
Q, with all its edges between them.  A support component that is one
vertex with s_vv = 0 is an isolated vertex and takes no edges.

**Covers.**  Every witness is therefore one *cover* of the remaining
support components: a matching of some of them into pairs, a
realization of each unmatched component alone (its trace, twice its
edge count, must be even) and a *cross* realization of each matched
pair (P, Q) on the P × Q vertex pairs only (the two traces must be equal
and positive).  Distinct covers give disjoint witness sets, and a cover
gives the product of its blocks' witness sets.  Covers are generated
depth first: the lowest uncovered component is tried with each partner
in index order first, then alone.  So the covers with the most cross
blocks come first: the square of a connected bipartite graph yields its
cross realizations before any realization of its sides apart, and on
the square of 2k copies of C3 or C5 the witnesses made of k double
covers, the most numerous isomorphism class (300 of the 361 for 4 × C5),
come first, so a filter that compares each witness with the class
representatives found so far mostly matches on its first comparison.
Block searches are memoized on the block's matrix, and a set of
components found to have no cover is walked once, not once for each
matching of the components covered before it.  When the lowest
uncovered component has no witness alone, nor with any other block of
S of its trace (each still uncovered and searched with it), no cover
contains it, so S has no witness and the walk stops as exhausted.  The
products of a cover are emitted in lexicographic order.  An S with one
support component and no isolated vertex has one cover, its one block,
searched in the degree order below.

**Plan.**  Inside a block the vertices are ordered by descending s_ii,
ties broken by index (a cross block: P's vertices, then Q's), and the
search decides the block's vertex pairs in the order of a *plan*: all
pairs row by row, (0,1),(0,2),…,(1,2),… for a block searched alone;
P × Q row by row for a cross block.  The plan depends only on the block's
shape, so it is built once per shape.  Values are tried absent-first
(0 then 1), which makes the enumeration order and every outcome
deterministic.

The only search state is one neighbor bitmask per vertex, ``adj``.  It
counts two-walks directly: the degree of i is ``adj[i].bit_count()`` and
the number of common neighbors of i and j is
``(adj[i] & adj[j]).bit_count()``.  Both counts only grow when edges are
added, so exceeding the target (degree of i > s_ii, common neighbors of
i and j > s_ij) prunes soundly.  Additional pruning:

* after deciding a pair (i,j): each of i and j can still gain at most
  as many neighbors as it has undecided plan positions; falling short of
  the required diagonal prunes.  A vertex's degree and positions left
  change only at its own positions, so this one check also keeps every
  partly decided vertex able to reach its diagonal at every later
  position;
* when the last position of a vertex v is decided (a *completion
  event*), its common-neighbor count with every vertex that is already
  final on its side of the block must equal the entry of S (its degree
  is then exactly s_vv by the two checks above).

Every pair of a block's vertices on the same side is compared at the
completion of the later one, and pairs across a cross block have no
common neighbor within it, so a full assignment that survives the
completion events has the block's square equal to S on the block.

**Commutation.**  A witness A of a block searched alone commutes with
the block's matrix S, since A·A² = A²·A; so does A mod p, for the prime
p = 2³¹ − 1.  Let v_m = S^m r for a fixed vector r and K the matrix of
columns v_0, …, v_(n−1).  If K is invertible mod p (a certificate that S
is cyclic over F_p), the matrices that commute with S are exactly its
polynomials (Horn & Johnson, *Matrix Analysis*, §3.2.4), and a zero
diagonal leaves the coefficients c with Σ c_k (S^k)_ii = 0 for every i.
No power of S is formed: S^k K has the columns v_k, …, v_(k+n−1), so in
Krylov coordinates (S^k)_ii = Σ_j (K⁻¹)_ji v_(k+j)[i], and one reduction
of [Kᵀ | I] gives both the certificate and K⁻¹.  Let d be the nullity of
that n × n system.  If d = 0, A ≡ 0, so the block has no witness (S is
not zero).  If d = 1, every witness is a multiple of C = Σ c_k S^k for
one spanning c, so it has C's nonzero pattern (and C's nonzero entries
are equal), where C_ij = Σ_l (K⁻¹)_lj w_l[i] with w_l = Σ_k c_k v_(k+l):
that graph is the block's one witness if its exact square is S, and
otherwise there is none.  d = 0 takes the same path with c = 0, not an
early return: the candidate is then the empty graph, rejected unless S
is zero, and a zero block's one witness is exactly that empty graph.  A
block that is not certified cyclic, or has d ≥ 2, stays undecided, as
does one whose deadline passes between two Krylov steps or before a
reduction.  All of it is exact integer arithmetic mod p; each sum over k
is one product of packed ints, and the eliminations work on rows packed
into one int each, reduced by adding a slot's 31-bit digits (2³¹ ≡ 1 mod
p).  On the squares of G(n, 1/2) the test costs about as much time as
4–8·n² nodes of search for n ≥ 10, so a block searched alone runs it
once, on its first node past its gate min(n³, 6n²), and a decided block
ends there: on the ski-rental rule this at most about doubles a block's
time, while a block done sooner never pays for it.  The gate depends on
n alone, so node counts do not depend on the machine.  The algebra
counts no nodes.  Cross blocks do not run it.

The block search (one value cursor and one "edge applied" flag per
position) and the cover walk run on explicit stacks rather than by
recursion, so their depth is not bounded by, and they never change, the
interpreter's recursion limit.

A "node" is one attempted (position, value) assignment, counted before
its feasibility checks run.  The cover walk counts nodes too, so that the
budgets bound all of its work: one for each block chosen with components
still left to cover, and one for each witness emitted as a product of
two or more blocks (a one-block cover's witnesses were counted by its
search).  The node cap and the deadline are shared by the whole call.
When the block that completes a cover is stopped by a budget, the
witnesses it found are emitted with the first witness of each other
block of the cover, so a stopped search returns a prefix of the
unbudgeted order.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain, product
from operator import mul
from typing import Sequence

from .core import _component_labels, _squares_to, _support

KERNEL_NAME = "python"

# search status codes
EXHAUSTED = 0
HIT_NODE_BUDGET = 1
HIT_TIME_BUDGET = 2
HIT_WITNESS_LIMIT = 3

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes

_PRIME = 2**31 - 1  # the commutation test works modulo this prime


def run_search(
    n: int,
    s: Sequence[Sequence[int]],
    max_nodes: int,
    time_limit: float,
    witness_limit: int,
) -> tuple[int, list[list[tuple[int, int]]], int]:
    """Enumerate graphs whose adjacency square equals ``s``.

    ``s`` must already be validated: symmetric, nonnegative, s_ii <= n-1
    and s_ij <= min(s_ii, s_jj).  ``max_nodes`` is positive;
    ``time_limit`` <= 0 means no deadline; ``witness_limit`` <= 0 means
    enumerate everything.

    Returns (status, witnesses, nodes) where each witness is a sorted
    edge list in the caller's labels.  A search stopped by a budget
    returns the witnesses emitted before the stop, a prefix of the
    unbudgeted order.
    """
    deadline = time.monotonic() + time_limit if time_limit > 0 else 0.0
    label, count = _component_labels(_support(s))
    comps: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(label):
        comps[c].append(v)
    # each block in the degree order; sorted() is stable, so equal
    # diagonals keep their index order
    blocks = [sorted(c, key=lambda v: -s[v][v]) for c in comps if len(c) > 1 or s[c[0]][c[0]]]
    return _Covers(s, blocks, max_nodes, deadline, witness_limit).run()


def _relabel(edges: list[tuple[int, int]], labels: list[int]) -> list[tuple[int, int]]:
    """Block-local edges in the caller's labels, each pair ordered."""
    out = []
    for i, j in edges:
        a, b = labels[i], labels[j]
        out.append((a, b) if a < b else (b, a))
    return out


class _Stopped(Exception):
    """The walk ended early, with the status in ``args[0]``: a budget ran
    out, the witness limit was reached, or a component has no cover."""


class _Covers:
    """Witnesses of S: the depth-first walk over covers of its support
    components (see the module docstring)."""

    def __init__(self, s, blocks, cap, deadline, witness_limit):
        self.s = s
        self.blocks = blocks
        self.trace = [sum(s[v][v] for v in b) for b in blocks]
        self.cap = cap
        self.deadline = deadline
        self.limit = witness_limit
        self.nodes = 0
        self.memo: dict = {}  # block matrix -> block-local witnesses
        self.dead: set[int] = set()  # sets of components without a cover
        self.chosen: list[list] = []  # witness lists of the cover being built
        self.witnesses: list[list[tuple[int, int]]] = []

    def run(self) -> tuple[int, list[list[tuple[int, int]]], int]:
        try:
            self._walk()
            status = EXHAUSTED
        except _Stopped as stop:
            status = stop.args[0]
        return status, self.witnesses, self.nodes

    def _tick(self) -> None:
        """Count one node of the walk itself against the budgets."""
        self.nodes += 1
        if self.nodes > self.cap:
            raise _Stopped(HIT_NODE_BUDGET)
        if (
            self.deadline
            and self.nodes & _TIME_CHECK_MASK == 0
            and time.monotonic() > self.deadline
        ):
            raise _Stopped(HIT_TIME_BUDGET)

    def _walk(self) -> None:
        """Emit the products of every cover of all the blocks."""
        chosen = self.chosen
        if not self.blocks:
            return self._emit(chosen, False)
        # frames: (components left, their options, witnesses emitted before)
        everything = (1 << len(self.blocks)) - 1
        stack = [(everything, self._options(everything), 0)]
        while stack:
            mask, options, before = stack[-1]
            step = next(options, None)
            if step is None:
                stack.pop()
                if len(self.witnesses) == before:
                    self.dead.add(mask)
                if stack:
                    chosen.pop()
                continue
            witnesses, rest = step
            chosen.append(witnesses)
            if rest:
                self._tick()
                stack.append((rest, self._options(rest), len(self.witnesses)))
            else:
                self._emit(chosen, len(chosen) > 1)
                chosen.pop()

    def _options(self, mask: int):
        """Nonempty witness lists of the ways to cover the lowest
        component c of ``mask``, with what is left: c with each partner
        in index order, then c alone, but none that leaves a set known to
        have no cover (a cross block is then not searched).  Stops the
        walk as exhausted when c has no witness alone and every other
        block of S with its trace is still uncovered, searched with c
        here and without a witness: then no cover contains c."""
        c = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << c)
        t = self.trace[c]
        empty = 0  # partners searched here whose cross block has no witness
        m = rest
        while m:
            low = m & -m
            m ^= low
            d = low.bit_length() - 1
            if self.trace[d] == t and rest ^ low not in self.dead:
                witnesses = self._block(c, d, rest == low)
                if witnesses:
                    yield witnesses, rest ^ low
                else:
                    empty += 1
        alone = self._block(c, None, not rest) if t % 2 == 0 else None
        if alone:
            if rest not in self.dead:
                yield alone, rest
        elif empty == self.trace.count(t) - 1:
            raise _Stopped(EXHAUSTED)

    def _block(self, c: int, d: int | None, last: bool) -> list[list[tuple[int, int]]]:
        """Witnesses, in the caller's labels, of block c alone (d None) or
        of the cross block (c, d), searched once per block matrix; ``last``
        when the block completes the cover being built."""
        s = self.s
        side = self.blocks[c]
        labels = side + self.blocks[d] if d is not None else side
        local = tuple(tuple(s[a][b] for b in labels) for a in labels)
        shape = (len(side), len(labels) - len(side))
        matrix = (shape, local)
        found = self.memo.get(matrix)
        if found is None:
            if self.deadline and time.monotonic() > self.deadline:
                raise _Stopped(HIT_TIME_BUDGET)
            room = self.cap - self.nodes
            gate = _gate(len(side)) if d is None else room
            status, found, nodes = _search(
                local, _plan(*shape), room, self.deadline, self.limit, gate
            )
            self.nodes += nodes
            if status in (HIT_NODE_BUDGET, HIT_TIME_BUDGET):
                if last:
                    # what it found before the stop, each with the first witness
                    # of every other chosen block: a prefix of the cover's products
                    partial = [_relabel(w, labels) for w in found]
                    self._emit([w[:1] for w in self.chosen] + [partial], False)
                raise _Stopped(status)
            self.memo[matrix] = found
        return [_relabel(w, labels) for w in found]

    def _emit(self, chosen: list[list], counted: bool) -> None:
        """Append the product of the chosen witness lists; stops the walk
        when the witness limit is reached.  ``counted``: each witness
        counts as a node (those of a product of two or more blocks; a
        one-block cover's witnesses were counted by its search)."""
        witnesses = self.witnesses
        for parts in product(*chosen):
            if counted:
                self._tick()
            witnesses.append(sorted(chain.from_iterable(parts)))
            if len(witnesses) == self.limit:
                raise _Stopped(HIT_WITNESS_LIMIT)


def _gate(n: int) -> int:
    """Nodes a block of ``n`` vertices searched alone runs before its
    commutation test: min(n³, 6n²), about the test's cost in nodes."""
    return n * n * min(n, 6)


@lru_cache(maxsize=256)
def _plan(a: int, b: int) -> tuple[tuple, tuple]:
    """Decision plan of a block of ``a`` vertices searched alone (b = 0)
    or of the cross block between sides 0..a-1 and a..a+b-1.

    Returns (steps, events).  ``steps[t]`` is (i, j, left_i, left_j): the
    pair decided at position t and how many positions of i and of j come
    after it.  ``events[t]`` is None or the completions at t: (v,
    vertices already final on v's side) for each vertex whose last
    position is t.
    """
    if b:
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
    else:
        pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
    # a vertex meets every other one of a block alone, every vertex of the
    # other side of a cross block
    left = [b or a - 1] * a + [a] * b
    final: list[int] = []
    steps = []
    events = []
    for i, j in pairs:
        left[i] -= 1
        left[j] -= 1
        steps.append((i, j, left[i], left[j]))
        completions = []
        for v in (i, j):
            if left[v] == 0:
                completions.append((v, tuple(u for u in final if (u < a) == (v < a))))
                final.append(v)
        events.append(tuple(completions) or None)
    return tuple(steps), tuple(events)


def _search(
    s: Sequence[Sequence[int]],
    plan: tuple[tuple, tuple],
    cap: int,
    deadline: float,
    witness_limit: int,
    gate: int,
) -> tuple[int, list[list[tuple[int, int]]], int]:
    """Search one block: decide the positions of ``plan`` on the vertices
    of ``s`` as given.  Witnesses are sorted block-local edge lists;
    more than ``cap`` nodes aborts.  Past ``gate`` nodes the commutation
    test runs once and ends the search when it decides the block; a
    ``gate`` of ``cap`` or more never runs it."""
    steps, events = plan
    npos = len(steps)
    adj = [0] * len(s)  # neighbor bitmasks
    witnesses: list[list[tuple[int, int]]] = []
    nodes = 0

    # a block without vertex pairs is one vertex with s_vv > 0 (an
    # isolated vertex is no block): it has no witness
    if npos == 0:
        return EXHAUSTED, witnesses, 0

    # explicit stack: the next value to try at each position, and whether
    # the edge of that position is currently added
    value = [0] * npos
    applied = [False] * npos
    pos = 0
    limit = min(gate, cap)
    while True:
        if pos == npos:
            # the plan lists the pairs in sorted order
            witnesses.append([(i, j) for i, j, _, _ in steps if adj[i] >> j & 1])
            if 0 < witness_limit <= len(witnesses):
                return HIT_WITNESS_LIMIT, witnesses, nodes
            pos -= 1
            continue

        i, j, left_i, left_j = steps[pos]
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
        if nodes > limit:
            if nodes > cap:
                return HIT_NODE_BUDGET, witnesses, nodes
            limit = cap
            decided = _commuting_witness(s, deadline)
            if decided is not None:
                witnesses += [w for w in decided if w not in witnesses]
                status = HIT_WITNESS_LIMIT if 0 < witness_limit <= len(witnesses) else EXHAUSTED
                return status, witnesses, nodes
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

        # remaining-capacity checks for the two vertices just touched
        if ai.bit_count() + left_i < si[i] or aj.bit_count() + left_j < sj[j]:
            continue
        completions = events[pos]
        if completions is None or all(
            (adj[u] & adj[a]).bit_count() == s[u][a] for u, earlier in completions for a in earlier
        ):
            pos += 1


def _pack(values: Sequence[int], width: int) -> int:
    """``values`` as one int of ``width``-bit slots, the first lowest."""
    x = 0
    for v in reversed(values):
        x = x << width | v
    return x


def _slots(x: int, width: int, count: int) -> list[int]:
    """The first ``count`` ``width``-bit slots of ``x``, each mod ``_PRIME``."""
    mask = (1 << width) - 1
    return [(x >> k * width & mask) % _PRIME for k in range(count)]


def _fold(x: int, low: int, high: int) -> int:
    """``x`` with each slot replaced by the sum of its 31-bit digits, twice
    over: congruent mod ``_PRIME``, since 2³¹ ≡ 1.  For slots at most 93
    bits wide the result is at most p + 1, and at most p for slots below
    2⁶².  ``low`` packs 2³¹ − 1 = p in every slot, ``high`` the mask of
    each slot's bits from 62 up."""
    x = (x & low) + (x >> 31 & low) + (x >> 62 & high)
    return (x & low) + (x >> 31 & low)


def _reduce(rows: list[list[int]]) -> list[int]:
    """Bring ``rows`` (entries in [0, p)) to reduced row echelon form mod
    ``_PRIME`` in place; returns the pivot column of each nonzero row, in
    order.

    Each row is packed into one int of W-bit slots, and the elimination
    is packed arithmetic throughout; a slot is reduced mod p only where
    it is read.  The pivot row is folded (``_fold``) to slots of at most
    p + 1, scaled by the pivot's inverse (so each slot stays below 2⁶²)
    and folded again to slots of at most p.  Eliminating a column from a
    row is then one multiply-add with p − top, whose slots are ≡ −top
    mod p and not negative, so nothing borrows.  A row takes at most one
    such step per pivot, each adding less than p² < 2⁶² to a slot, so
    with W = 64 + bit_length(rows) + 2 no slot carries into the next; W
    stays within ``_fold``'s 93 bits below 2²⁷ rows."""
    count = len(rows[0])
    width = 64 + len(rows).bit_length() + 2
    mask = (1 << width) - 1
    packed = [_pack(row, width) for row in rows]
    primes = _pack([_PRIME] * count, width)
    high = _pack([(1 << width - 62) - 1] * count, width)
    pivots: list[int] = []
    for c in range(count):
        r = len(pivots)
        if r == len(packed):
            break
        shift = c * width
        column = [(x >> shift & mask) % _PRIME for x in packed]
        at = next((i for i in range(r, len(packed)) if column[i]), None)
        if at is None:
            continue
        packed[r], packed[at] = packed[at], packed[r]
        column[r], column[at] = column[at], column[r]
        inv = pow(column[r], -1, _PRIME)
        top = packed[r] = _fold(_fold(packed[r], primes, high) * inv, primes, high)
        neg_top = primes - top
        for i, f in enumerate(column):
            if f and i != r:
                packed[i] += f * neg_top
        pivots.append(c)
    for row, x in zip(rows, packed):
        row[:] = _slots(x, width, count)
    return pivots


def _correlate(a: int, b: list[int], width: int) -> list[int]:
    """``out[k] = Σ_j b[j] a[k + j]`` mod p for k < len(b), where ``a``
    holds its entries packed in ``width``-bit slots: one product of packed
    ints (Kronecker substitution), since with b reversed ``out[k]`` is
    slot k + len(b) - 1 of the product."""
    product = a * _pack(b[::-1], width)
    return _slots(product >> (len(b) - 1) * width, width, len(b))


def _commuting_witness(s: Sequence[Sequence[int]], deadline: float) -> list[list[tuple[int, int]]] | None:
    """The commutation test on the matrix ``s`` of a block searched alone
    (see the module docstring): None when it does not decide the block,
    else the block's witnesses, none or one, as sorted edge lists."""
    n = len(s)
    # a slot of the packed products below sums at most n products of two
    # numbers below p (so are S's entries), so it never carries
    width = 62 + n.bit_length()
    # S is symmetric, so its packed rows are its packed columns
    columns = [_pack(row, width) for row in s]
    # the Krylov vectors v_m = S^m r, m = 0 .. 2n - 2
    v = [pow(3, k, _PRIME) for k in range(n)]
    krylov = [v]
    for _ in range(2 * n - 2):
        if deadline and time.monotonic() > deadline:
            return None
        v = _slots(sum(map(mul, v, columns)), width, n)
        krylov.append(v)
    if deadline and time.monotonic() > deadline:
        return None
    # [K^T | I] reduces to [I | K^-T] exactly when v_0 .. v_(n-1) are
    # independent, which certifies S cyclic; then inv[i][j] = (K^-1)_ji
    rows = [vm + [int(k == m) for k in range(n)] for m, vm in enumerate(krylov[:n])]
    if _reduce(rows) != list(range(n)):
        return None
    inv = [row[n:] for row in rows]
    # walks[i] packs v_0[i] .. v_(2n-2)[i]; S^k K = [v_k .. v_(k+n-1)], so
    # (S^k)_ii = sum_j (K^-1)_ji v_(k+j)[i]
    walks = [_pack(list(walk), width) for walk in zip(*krylov)]
    system = [_correlate(walks[i], inv[i], width) for i in range(n)]
    if deadline and time.monotonic() > deadline:
        return None
    # the coefficients c with sum_k c_k (S^k)_ii = 0 for every i: only
    # c = 0 (nullity 0), or the multiples of one vector (nullity 1)
    pivots = _reduce(system)
    c = [0] * n
    if len(pivots) == n - 1:
        free = next(k for k in range(n) if k not in pivots)
        c[free] = 1
        for row, k in zip(system, pivots):
            c[k] = -row[free] % _PRIME
    elif len(pivots) < n:
        return None
    # every witness is a multiple of C = sum_k c_k S^k, so it has C's
    # nonzero pattern: that graph is the only candidate (an exact square
    # equal to S also implies that C's nonzero entries are equal).  With
    # w_l = sum_k c_k v_(k+l), row i of C is sum_l w_l[i] times row l of K^-1
    inv_rows = [_pack(list(row), width) for row in zip(*inv)]
    adj = [0] * n
    edges = []
    for i in range(n):
        row = _slots(sum(map(mul, _correlate(walks[i], c, width), inv_rows)), width, n)
        for j in range(i + 1, n):
            if row[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                edges.append((i, j))
    return [edges] if _squares_to(adj, s) else []
