"""Structural analysis of candidate squares S: support components (the
labelling itself is ``core._component_labels``, shared with the search
kernel and the mapping search), four-cycle counting, row-sum
diagnostics, and the battery of necessary conditions a matrix must pass
to be the square of an adjacency matrix.

Every check here is necessary-only: a failure proves S is not such a
square, a pass proves nothing (realization is the separate exact test).

The battery runs at most once per IntMatrix, which keeps its report and
per-row multiset flags (``core._kept``) for ``necessary_conditions``,
``row_sum_report``, ``realize`` and ``realize_all``.  Every symmetry
test here reads the verdict an IntMatrix keeps itself (see
``core.IntMatrix``), so ``support_components``, ``count_c4`` and
``regular_row_sum_check`` run neither the battery nor a second scan,
and the battery scans an IntMatrix for no negative entry, since the
type rejects them.  Raw nested sequences are scanned and checked on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from operator import gt
from typing import Sequence

from .core import (
    IntMatrix,
    _asymmetric_pair,
    _component_labels,
    _kept,
    _matrix_problem,
    _negative_entry,
    _support,
)


def _require_symmetric(S: IntMatrix, what: str) -> None:
    if not S.is_symmetric():
        raise ValueError(f"{what} requires a symmetric matrix")


@dataclass(frozen=True)
class IndexPartition:
    """Partition of matrix indices into connected support components.

    Labels are 0..component_count-1, assigned in order of first
    appearance by index.
    """

    component_of: tuple[int, ...]
    component_count: int

    def components(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.component_count)]
        for i, c in enumerate(self.component_of):
            out[c].append(i)
        return out


def support_components(S: IntMatrix) -> IndexPartition:
    """Connected components of the support graph of S: indices i, j (i≠j)
    are joined whenever s_ij ≠ 0.  Diagonal entries are ignored.

    S is permutation-similar to a block-diagonal matrix with ≥2 zero
    off-blocks exactly when component_count ≥ 2.
    """
    _require_symmetric(S, "support_components")
    label, count = _component_labels(_support(S.rows))
    return IndexPartition(tuple(label), count)


def is_bipartite_or_disconnected(S: IntMatrix) -> bool:
    """For S = A(G)²: true iff G is bipartite or disconnected (block test).

    Meaningful only when S really is the square of an adjacency matrix;
    on arbitrary symmetric input it just reports whether the support
    graph splits.
    """
    return support_components(S).component_count >= 2


@dataclass(frozen=True)
class C4Count:
    """Result of the four-cycle count: pair_sum is Σ_{i≠j} C(s_ij, 2)
    over ordered pairs; the cycle count is pair_sum / 4, which is an
    integer whenever S is actually a square of an adjacency matrix."""

    pair_sum: int

    @property
    def divisible_by_four(self) -> bool:
        return self.pair_sum % 4 == 0

    @property
    def count(self) -> Fraction:
        return Fraction(self.pair_sum, 4)

    @property
    def cycles(self) -> int:
        """Integer count; only valid when divisible_by_four."""
        if not self.divisible_by_four:
            raise ValueError(f"pair sum {self.pair_sum} is not divisible by 4")
        return self.pair_sum // 4

    def to_json_dict(self) -> dict:
        return {
            "pair_sum": self.pair_sum,
            "divisible_by_four": self.divisible_by_four,
            "count": str(self.count),
        }


def count_c4(S: IntMatrix) -> C4Count:
    """Four-cycle count (1/4)·Σ_{i≠j} C(s_ij, 2) from a candidate square.

    For S = A(G)² this equals the number of distinct 4-cycles of G.  On
    arbitrary candidates the sum may fail to be divisible by four; the
    result keeps the exact rational and a divisibility flag so callers
    can use non-divisibility as a rejection.
    """
    _require_symmetric(S, "count_c4")
    return C4Count(_c4_pair_sum(S.rows))


def _c4_pair_sum(rows: Sequence[Sequence[int]]) -> int:
    """Σ_{i≠j} C(s_ij, 2) over ordered pairs: four times the four-cycle
    count of any graph whose square is ``rows``.  The rows must be
    symmetric: each unordered pair is read once, as s_ij·(s_ij − 1) with
    i < j, which counts C(s_ij, 2) for both orders."""
    total = 0
    for i, ri in enumerate(rows):
        for s in ri[i + 1:]:
            total += s * (s - 1)
    return total


@dataclass(frozen=True)
class RowSummary:
    index: int
    row_sum: int
    diagonal: int
    multiset_feasible: bool

    @property
    def avg_neighbor_degree(self) -> Fraction | None:
        """Row sum over diagonal, exact; None when the diagonal is 0."""
        return Fraction(self.row_sum, self.diagonal) if self.diagonal else None

    def to_json_dict(self) -> dict:
        avg = self.avg_neighbor_degree
        return {
            "index": self.index,
            "row_sum": self.row_sum,
            "diagonal": self.diagonal,
            "avg_neighbor_degree": None if avg is None else f"{avg.numerator}/{avg.denominator}",
            "multiset_feasible": self.multiset_feasible,
        }


@dataclass(frozen=True)
class RowSumReport:
    rows: tuple[RowSummary, ...]

    @property
    def all_feasible(self) -> bool:
        return all(r.multiset_feasible for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "all_feasible": self.all_feasible,
        }

    def render_text(self) -> str:
        lines = ["row-sum diagnostics (labels are 1-indexed):"]
        for r in self.rows:
            avg = r.avg_neighbor_degree
            avg_s = "-" if avg is None else str(avg)
            flag = "ok" if r.multiset_feasible else "INFEASIBLE"
            lines.append(
                f"  v{r.index + 1}: row sum {r.row_sum}, diagonal {r.diagonal}, "
                f"avg neighbor degree {avg_s}, multiset {flag}"
            )
        return "\n".join(lines)


def _rows_multiset_feasible(diag: Sequence[int], sums: Sequence[int]) -> list[bool]:
    """For each row i: can s_ii values be picked from the other diagonal
    entries (one occurrence of s_ii removed: a vertex is not its own
    neighbor) so that they sum to the full row sum?

    A row fails at once when s_ii > n − 1 (too few others) or its sum
    exceeds that of the s_ii largest others.  The rest share one DP over
    (count, sum) pairs packed into one int: bit c·W + t is set when some
    c of the values added so far sum to t, for t up to L, the largest sum
    still open.  W = L + 1 + V, V the largest value kept (a value above L
    is never picked), so no slot carries into the next, and adding v is
    ``(dp | dp << (W + v)) & mask``.  The leave-one-out is divide and
    conquer over the open rows' distinct diagonal values: start from the
    diagonal minus one copy of each, and recurse into each half after
    adding the other half's single copies, so the leaf of d is the
    diagonal minus one copy of d, and a row of diagonal d and sum t reads
    bit d·W + t there.  That is O(n + D log D) additions for D distinct
    values, each O(n·L) bit operations."""
    n = len(diag)
    largest = list(accumulate(sorted(diag, reverse=True), initial=0))
    feasible = [False] * n
    # the s_ii largest others are the s_ii largest entries, or the s_ii + 1
    # largest less s_ii itself when s_ii is among them: the smaller sum
    open_rows = [i for i, (d, t) in enumerate(zip(diag, sums))
                 if d < n and t <= min(largest[d], largest[d + 1] - d)]
    if not open_rows:
        return feasible
    limit = max([sums[i] for i in open_rows])
    wanted = sorted({diag[i] for i in open_rows})
    kept = [v for v in diag if v <= limit]
    width = limit + 1 + max(kept, default=0)
    low = (1 << limit + 1) - 1
    mask = sum(low << c * width for c in range(wanted[-1] + 1))
    for d in wanted:
        if d <= limit:
            kept.remove(d)
    dp = 1
    for v in kept:
        dp = (dp | dp << width + v) & mask
    leaf = {}
    stack = [(dp, wanted)]
    while stack:
        dp, values = stack.pop()
        if len(values) == 1:
            leaf[values[0]] = dp
            continue
        half = len(values) // 2
        for part, other in ((values[:half], values[half:]), (values[half:], values[:half])):
            sub = dp
            for v in other:
                if v <= limit:
                    sub = (sub | sub << width + v) & mask
            stack.append((sub, part))
    for i in open_rows:
        d = diag[i]
        feasible[i] = leaf[d] >> d * width + sums[i] & 1 == 1
    return feasible


def row_sum_report(S: IntMatrix) -> RowSumReport:
    """Per-index row sums, average neighbor degree (exact rational,
    absent when the diagonal is 0), and the neighbor-degree-multiset
    feasibility test, whose flags are the battery's on the same S."""
    _require_symmetric(S, "row_sum_report")
    flags = _kept(S, "_battery", _matrix_battery)[1]
    return RowSumReport(tuple(
        RowSummary(i, t, d, f) for i, (t, d, f) in enumerate(zip(S.row_sums(), S.diagonal(), flags))
    ))


@dataclass(frozen=True)
class RegularRowSumCheck:
    """Row-sum test for constant-diagonal matrices: every row of the
    square of a k-regular graph's adjacency matrix sums to k²."""

    passed: bool
    diagonal_constant: bool
    k: int | None
    note: str

    def __bool__(self) -> bool:
        return self.passed


def regular_row_sum_check(S: IntMatrix) -> RegularRowSumCheck:
    _require_symmetric(S, "regular_row_sum_check")
    diag = S.diagonal()
    if S.n == 0:
        return RegularRowSumCheck(True, True, None, "empty matrix")
    if len(set(diag)) != 1:
        return RegularRowSumCheck(True, False, None,
                                  "diagonal not constant: not the square of a regular graph")
    k = diag[0]
    bad = [i for i, s in enumerate(S.row_sums()) if s != k * k]
    if bad:
        return RegularRowSumCheck(
            False, True, k,
            f"rows {[i + 1 for i in bad]} (1-indexed) do not sum to k²={k * k}",
        )
    return RegularRowSumCheck(True, True, k, f"all rows sum to k²={k * k}")


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    reason: str


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the full necessary-condition battery.

    overall = False proves S is not the square of any adjacency matrix;
    overall = True leaves realization open.
    """

    symmetric: CheckResult
    nonneg_integer: CheckResult
    zero_free_diagonal_ok: CheckResult
    common_neighbor_bound: CheckResult
    trace_even: CheckResult
    c4_divisible_by_4: CheckResult
    rowsum_multiset_feasible: CheckResult

    @property
    def overall(self) -> bool:
        return all(getattr(self, name).passed for name in _CHECK_NAMES)

    def checks(self) -> dict[str, CheckResult]:
        return {name: getattr(self, name) for name in _CHECK_NAMES}

    def failed_names(self) -> list[str]:
        return [name for name, c in self.checks().items() if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "checks": {
                name: {"passed": c.passed, "reason": c.reason}
                for name, c in self.checks().items()
            },
            "overall": self.overall,
        }

    def render_text(self) -> str:
        lines = ["necessary conditions:"]
        for name, c in self.checks().items():
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {name}: {c.reason}")
        lines.append(f"  overall: {'pass' if self.overall else 'FAIL (not a square of any adjacency matrix)'}")
        return "\n".join(lines)


# the battery's check names, in report order
_CHECK_NAMES = tuple(f.name for f in fields(ConditionReport))


def necessary_conditions(S) -> ConditionReport:
    """Run the full rejection battery on S (an IntMatrix or raw nested
    integer sequences).  Never raises: malformed input shows up as
    failed checks.  An IntMatrix runs the battery once and keeps the
    report on the matrix; raw sequences are read and checked afresh on
    every call."""
    if isinstance(S, IntMatrix):
        return _kept(S, "_battery", _matrix_battery)[0]
    try:
        rows = tuple(tuple(row) for row in S)
    except TypeError:
        problem = f"input is not a matrix: {type(S).__name__}"
    else:
        problem = _matrix_problem(rows)
    if problem:
        return _skipped({"symmetric": CheckResult(False, problem)}, problem)
    return _battery(rows, _asymmetric_pair(rows), _negative_entry(rows))[0]


def _matrix_battery(S: IntMatrix) -> tuple[ConditionReport, list[bool] | None]:
    """``_battery`` of S, from the symmetry verdict S keeps and with no
    negative entry (the type rejects them)."""
    return _battery(S.rows, S._asymmetry, None)


def _battery(rows: tuple[tuple[int, ...], ...], asym: tuple[int, int] | None,
             neg: tuple[int, int] | None) -> tuple[ConditionReport, list[bool] | None]:
    """The battery on a square matrix of ints, given its first asymmetric
    pair and its first negative entry (each None when there is none): its
    report and each row's multiset flag, or None for the flags when the
    matrix is not symmetric and nonnegative (the checks that need it did
    not run)."""
    if asym is None:
        symmetric = CheckResult(True, "matrix is symmetric")
    else:
        i, j = asym
        symmetric = CheckResult(
            False, f"s_{i + 1},{j + 1}={rows[i][j]} differs from s_{j + 1},{i + 1}={rows[j][i]}"
        )
    if neg is None:
        nonneg = CheckResult(True, "all entries are nonnegative integers")
    else:
        i, j = neg
        nonneg = CheckResult(False, f"s_{i + 1},{j + 1}={rows[i][j]} is negative")
    if not (symmetric.passed and nonneg.passed):
        checks = {"symmetric": symmetric, "nonneg_integer": nonneg}
        return _skipped(checks, "requires a symmetric nonnegative matrix"), None
    square, feasible = _square_checks(rows)
    return ConditionReport(symmetric, nonneg, **square), feasible


def _skipped(checks: dict[str, CheckResult], problem: str) -> ConditionReport:
    """A report with ``checks`` and every other check failed as not
    evaluated, because of ``problem``."""
    skipped = CheckResult(False, f"not evaluated: {problem}")
    return ConditionReport(**{name: checks.get(name, skipped) for name in _CHECK_NAMES})


def _common_neighbor_excess(rows: Sequence[Sequence[int]],
                            diag: Sequence[int]) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with i < j and
    s_ij > min(s_ii, s_jj), or None; ``rows`` is symmetric, so no pair
    below the diagonal is needed.  A row tail is tested whole against
    both bounds; only a row that fails is read entry by entry."""
    for i, row in enumerate(rows):
        tail = row[i + 1:]
        if tail and (max(tail) > diag[i] or any(map(gt, tail, diag[i + 1:]))):
            return i, next(j for j in range(i + 1, len(row)) if row[j] > min(diag[i], diag[j]))
    return None


def _square_checks(rows: tuple[tuple[int, ...], ...]) -> tuple[dict[str, CheckResult], list[bool]]:
    """The checks that need a symmetric nonnegative matrix, and each
    row's multiset flag."""
    n = len(rows)
    diag = [rows[i][i] for i in range(n)]

    big = next((i for i in range(n) if diag[i] > n - 1), None)
    if big is None:
        diag_ok = CheckResult(True, f"every diagonal entry is at most n-1={max(n - 1, 0)}")
    else:
        diag_ok = CheckResult(
            False, f"s_{big + 1},{big + 1}={diag[big]} exceeds n-1={n - 1} (a degree cannot)"
        )

    viol = _common_neighbor_excess(rows, diag)
    if viol is None:
        cn_bound = CheckResult(True, "every off-diagonal entry is at most min of its two diagonals")
    else:
        i, j = viol
        cn_bound = CheckResult(
            False,
            f"s_{i + 1},{j + 1}={rows[i][j]} exceeds min(s_{i + 1},{i + 1}, s_{j + 1},{j + 1})"
            f"={min(diag[i], diag[j])}: common neighbors are bounded by either degree",
        )

    tr = sum(diag)
    trace_even = (
        CheckResult(True, f"trace {tr} is even (twice the edge count)")
        if tr % 2 == 0
        else CheckResult(False, f"trace {tr} is odd, but it must equal twice the edge count")
    )

    pair_sum = _c4_pair_sum(rows)
    c4_ok = (
        CheckResult(True, f"Σ C(s_ij,2) = {pair_sum} is divisible by 4 ({pair_sum // 4} four-cycles)")
        if pair_sum % 4 == 0
        else CheckResult(False, f"Σ C(s_ij,2) = {pair_sum} is not divisible by 4")
    )

    feasible = _rows_multiset_feasible(diag, [sum(row) for row in rows])
    infeasible = [i for i in range(n) if not feasible[i]]
    if not infeasible:
        multiset = CheckResult(True, "every row sum is reachable as a sum of other diagonal entries")
    else:
        labels = ", ".join(f"v{i + 1}" for i in infeasible)
        multiset = CheckResult(
            False,
            f"multiset check fails at {labels}: no sub-multiset of the other diagonal "
            f"entries with the diagonal's size sums to the row sum",
        )

    return {
        "zero_free_diagonal_ok": diag_ok,
        "common_neighbor_bound": cn_bound,
        "trace_even": trace_even,
        "c4_divisible_by_4": c4_ok,
        "rowsum_multiset_feasible": multiset,
    }, feasible
