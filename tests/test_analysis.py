import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twowalk import (
    IntMatrix,
    Permutation,
    adjacency_matrix,
    apply_similarity,
    count_c4,
    disjoint_union,
    is_bipartite_or_disconnected,
    necessary_conditions,
    permutation_similar,
    realize,
    realize_all,
    regular_row_sum_check,
    row_sum_report,
    square,
    support_components,
    to_matrix_text,
)
from twowalk import analysis, core
from twowalk.analysis import _c4_pair_sum, _common_neighbor_excess, _rows_multiset_feasible
from twowalk.cli import main
from twowalk.core import _asymmetric_pair, _matrix_problem
from conftest import (
    all_graphs,
    bipartite_or_disconnected_oracle,
    complete,
    cycle,
    four_cycle_count_oracle,
    neighbor_degree_sums_oracle,
    random_graph,
)

INFEASIBLE_4X4 = IntMatrix.from_rows([[2, 1, 1, 0], [1, 2, 1, 1], [1, 1, 1, 0], [0, 1, 0, 1]])


def sq(G):
    return square(adjacency_matrix(G))


class TestSupportComponents:
    def test_c6_splits_even_odd(self):
        parts = support_components(sq(cycle(6)))
        assert parts.component_count == 2
        assert parts.components() == [[0, 2, 4], [1, 3, 5]]

    def test_two_triangles_split(self):
        parts = support_components(sq(disjoint_union(cycle(3), cycle(3))))
        assert parts.component_count == 2
        assert sorted(len(c) for c in parts.components()) == [3, 3]

    def test_c5_connected(self):
        assert support_components(sq(cycle(5))).component_count == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            support_components(IntMatrix.from_rows([[0, 1], [0, 0]]))

    def test_diagonal_ignored(self):
        # nonzero diagonal must not join indices
        parts = support_components(IntMatrix.from_rows([[5, 0], [0, 7]]))
        assert parts.component_count == 2


def random_symmetric(rng, n, high, density):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(0, high)
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randint(0, high)
    return rows


def full_scan_reference(rows):
    """The common-neighbor violation and the four-cycle pair sum read off
    every ordered pair (i, j), i != j, in row-major order."""
    n = len(rows)
    diag = [rows[i][i] for i in range(n)]
    viol = next(((i, j) for i in range(n) for j in range(n)
                 if i != j and rows[i][j] > min(diag[i], diag[j])), None)
    pair_sum = sum(rows[i][j] * (rows[i][j] - 1) // 2
                   for i in range(n) for j in range(n) if i != j)
    return viol, pair_sum


class TestUnorderedPairScans:
    """The battery reads each unordered pair once; on symmetric rows its
    reports match a scan over every ordered pair."""

    def test_random_symmetric_matrices_match_a_full_scan(self):
        rng = random.Random(15)
        violations = 0
        for _ in range(600):
            rows = random_symmetric(rng, rng.randint(1, 9), rng.choice((2, 4, 8)), 0.6)
            viol, pair_sum = full_scan_reference(rows)
            checks = necessary_conditions(rows).checks()
            cn = checks["common_neighbor_bound"]
            assert cn.passed == (viol is None)
            if viol is not None:
                violations += 1
                i, j = viol
                assert i < j
                assert cn.reason.startswith(f"s_{i + 1},{j + 1}={rows[i][j]} exceeds ")
            assert count_c4(IntMatrix.from_rows(rows)).pair_sum == pair_sum
            assert str(pair_sum) in checks["c4_divisible_by_4"].reason
        assert violations > 100


def reference_labels(rows):
    """Support-component labels by a BFS over dense rows, numbered in
    order of each component's lowest index."""
    n = len(rows)
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] == -1:
            label[start] = count
            queue = [start]
            for v in queue:
                for u in range(n):
                    if u != v and rows[v][u] and label[u] == -1:
                        label[u] = count
                        queue.append(u)
            count += 1
    return label, count


class TestComponentLabels:
    def test_random_symmetric_matrices_match_a_dense_bfs(self):
        rng = random.Random(16)
        for _ in range(500):
            rows = random_symmetric(rng, rng.randint(0, 12), 3, rng.choice((0.05, 0.15, 0.4)))
            label, count = reference_labels(rows)
            parts = support_components(IntMatrix.from_rows(rows))
            assert (list(parts.component_of), parts.component_count) == (label, count)


class TestBipartiteOrDisconnected:
    def test_examples(self):
        assert is_bipartite_or_disconnected(sq(cycle(6))) is True
        assert is_bipartite_or_disconnected(sq(cycle(5))) is False
        assert is_bipartite_or_disconnected(sq(complete(4))) is False

    @pytest.mark.parametrize("n", range(6))
    def test_block_split_exhaustive(self, n):
        for G in all_graphs(n):
            assert is_bipartite_or_disconnected(sq(G)) == bipartite_or_disconnected_oracle(G)

    def test_block_split_sampled_n7(self, rng):
        for _ in range(300):
            G = random_graph(rng, 7, rng.choice([0.2, 0.4, 0.6]))
            assert is_bipartite_or_disconnected(sq(G)) == bipartite_or_disconnected_oracle(G)


class TestCountC4:
    def test_examples(self):
        assert count_c4(sq(cycle(4))).cycles == 1
        assert count_c4(sq(complete(4))).cycles == 3
        assert count_c4(sq(cycle(3))).cycles == 0

    def test_non_divisible_keeps_rational(self):
        # three unordered pairs each contribute C(2,2)=1 twice: pair sum 6
        M = IntMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        c4 = count_c4(M)
        assert not c4.divisible_by_four
        assert c4.pair_sum == 6
        assert c4.count == Fraction(3, 2)
        with pytest.raises(ValueError):
            _ = c4.cycles

    @pytest.mark.parametrize("n", range(6))
    def test_matches_enumeration_exhaustive(self, n):
        for G in all_graphs(n):
            assert count_c4(sq(G)).cycles == four_cycle_count_oracle(G)

    def test_matches_enumeration_sampled_n7(self, rng):
        for _ in range(200):
            G = random_graph(rng, 7)
            assert count_c4(sq(G)).cycles == four_cycle_count_oracle(G)

    def test_invariant_under_similarity(self, rng):
        for _ in range(50):
            G = random_graph(rng, 6)
            S = sq(G)
            p = Permutation(tuple(rng.sample(range(6), 6)))
            assert count_c4(apply_similarity(S, p)).pair_sum == count_c4(S).pair_sum


class TestRowSumReport:
    def test_c6_regular(self):
        report = row_sum_report(sq(cycle(6)))
        for r in report.rows:
            assert r.row_sum == 4
            assert r.avg_neighbor_degree == Fraction(2)
            assert r.multiset_feasible

    def test_infeasible_4x4_average_five_halves(self):
        report = row_sum_report(INFEASIBLE_4X4)
        v2 = report.rows[1]
        assert v2.row_sum == 5 and v2.diagonal == 2
        assert v2.avg_neighbor_degree == Fraction(5, 2)
        assert not v2.multiset_feasible
        assert not report.all_feasible

    def test_isolated_vertex_no_average(self):
        S = sq(disjoint_union(cycle(3), complete(1)))
        r = row_sum_report(S).rows[3]
        assert r.diagonal == 0 and r.row_sum == 0
        assert r.avg_neighbor_degree is None
        assert r.multiset_feasible

    def test_zero_diagonal_with_nonzero_row_is_infeasible(self):
        M = IntMatrix.from_rows([[0, 1, 1], [1, 1, 1], [1, 1, 1]])
        report = row_sum_report(M)
        # index 0 has s_ii=0 but a nonzero row: an isolated vertex has no two-walks
        assert not report.rows[0].multiset_feasible
        # index 1 has s_ii=1 and must find one other diagonal value equal to 3: impossible
        assert not report.rows[1].multiset_feasible

    def test_multiset_flags_match_subset_oracle(self, rng):
        """One packed DP answers every row; each flag must still equal the
        direct search over sub-multisets of the other entries, also with
        diagonal entries above n − 1, row sums above every reachable sum,
        and enough distinct diagonal values to split three levels deep."""

        def oracle(diag, sums):
            return [
                any(sum(c) == t for c in itertools.combinations(diag[:i] + diag[i + 1:], d))
                for i, (d, t) in enumerate(zip(diag, sums))
            ]

        deep = 0
        for case in range(300):
            n = case % 12
            diag = [rng.randrange(min(n, 3) if case % 3 == 0 else n + 3) for _ in range(n)]
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randrange(min(diag[i], diag[j]) + 2)
            report = row_sum_report(IntMatrix.from_rows(rows))
            sums = [r.row_sum for r in report.rows]
            assert [r.multiset_feasible for r in report.rows] == oracle(diag, sums)
            # sums drawn freely, past the largest reachable one included
            sums = [rng.randrange(2 * sum(diag) + 2) for _ in range(n)]
            assert _rows_multiset_feasible(diag, sums) == oracle(diag, sums)
            deep += len(set(diag)) >= 5
        assert deep >= 50
        ladder = list(range(11))
        for sums in ([45, 44, 10, 55, 0, 20, 30, 40, 49, 50, 54], list(range(0, 110, 10))):
            assert _rows_multiset_feasible(ladder, sums) == oracle(ladder, sums)
        assert _rows_multiset_feasible([], []) == []
        assert row_sum_report(IntMatrix.zeros(0)).rows == ()

    def test_huge_row_sums_cost_no_memory(self):
        """A row sum that no s_ii others can reach is settled before the DP,
        whose bitsets would otherwise grow with that sum (10^12 bits here)."""
        report = necessary_conditions(IntMatrix.from_rows([[0, 10**12], [10**12, 0]]))
        checks = report.to_json_dict()["checks"]
        assert not report.overall
        assert report.failed_names() == ["common_neighbor_bound", "rowsum_multiset_feasible"]
        assert checks["rowsum_multiset_feasible"]["reason"] == (
            "multiset check fails at v1, v2: no sub-multiset of the other diagonal "
            "entries with the diagonal's size sums to the row sum"
        )
        assert checks["c4_divisible_by_4"]["reason"] == (
            "Σ C(s_ij,2) = 999999999999000000000000 is divisible by 4 "
            "(249999999999750000000000 four-cycles)"
        )
        huge = row_sum_report(IntMatrix.from_rows([[1, 10**12], [10**12, 1]]))
        assert [r.multiset_feasible for r in huge.rows] == [False, False]

    def test_row_sums_match_neighbor_degree_oracle(self, rng):
        for n in range(6):
            for G in all_graphs(n):
                expected = neighbor_degree_sums_oracle(G)
                got = [r.row_sum for r in row_sum_report(sq(G)).rows]
                assert got == expected
        for _ in range(100):
            G = random_graph(rng, 7)
            assert [r.row_sum for r in row_sum_report(sq(G)).rows] == neighbor_degree_sums_oracle(G)

    def test_real_squares_always_feasible(self, rng):
        for _ in range(150):
            G = random_graph(rng, 7)
            assert row_sum_report(sq(G)).all_feasible

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            row_sum_report(IntMatrix.from_rows([[0, 1], [2, 0]]))


class TestRegularRowSum:
    def test_c6(self):
        check = regular_row_sum_check(sq(cycle(6)))
        assert check and check.diagonal_constant and check.k == 2

    def test_k4(self):
        S = sq(complete(4))
        assert S.diagonal() == (3, 3, 3, 3)
        check = regular_row_sum_check(S)
        assert check and check.k == 3  # rows sum to 9

    def test_constant_diagonal_bad_row_sum(self):
        M = IntMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        check = regular_row_sum_check(M)
        assert not check and check.diagonal_constant

    def test_non_constant_diagonal_vacuous(self):
        M = IntMatrix.from_rows([[1, 0], [0, 2]])
        check = regular_row_sum_check(M)
        assert check and not check.diagonal_constant and check.k is None

    def test_empty_matrix(self):
        check = regular_row_sum_check(IntMatrix(()))
        assert check and check.k is None and check.note == "empty matrix"


class TestNecessaryConditions:
    def test_infeasible_4x4_rejected_by_multiset(self):
        report = necessary_conditions(INFEASIBLE_4X4)
        assert not report.overall
        assert report.failed_names() == ["rowsum_multiset_feasible"]
        assert "v2" in report.rowsum_multiset_feasible.reason

    @pytest.mark.parametrize("n", range(6))
    def test_real_squares_never_rejected(self, n):
        for G in all_graphs(n):
            report = necessary_conditions(sq(G))
            assert report.overall, (G, report.failed_names())

    def test_real_squares_never_rejected_n7_sample(self, rng):
        for _ in range(200):
            G = random_graph(rng, 7)
            assert necessary_conditions(sq(G)).overall

    def test_c4_divisibility_failure(self):
        M = IntMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        report = necessary_conditions(M)
        assert not report.c4_divisible_by_4.passed

    def test_non_sequence_input_fails_without_raising(self):
        report = necessary_conditions(5)
        assert not report.overall
        assert report.symmetric.reason == "input is not a matrix: int"

    def test_malformed_inputs_fail_without_raising(self):
        assert not necessary_conditions([[0, 1], [2, 0]]).symmetric.passed
        assert not necessary_conditions([[0, -1], [-1, 0]]).nonneg_integer.passed
        assert not necessary_conditions([[0, 1]]).overall
        assert not necessary_conditions("nope").overall
        assert not necessary_conditions([[0.5]]).overall
        later = ["zero_free_diagonal_ok", "common_neighbor_bound", "trace_even",
                 "c4_divisible_by_4", "rowsum_multiset_feasible"]
        problem = "row 1 has length 2, expected 1"
        assert necessary_conditions([[0, 1]]).to_json_dict()["checks"] == {
            "symmetric": {"passed": False, "reason": problem},
            **{name: {"passed": False, "reason": f"not evaluated: {problem}"}
               for name in ["nonneg_integer", *later]},
        }
        assert necessary_conditions([[0, 1], [2, 0]]).to_json_dict()["checks"] == {
            "symmetric": {"passed": False, "reason": "s_1,2=1 differs from s_2,1=2"},
            "nonneg_integer": {"passed": True, "reason": "all entries are nonnegative integers"},
            **{name: {"passed": False,
                      "reason": "not evaluated: requires a symmetric nonnegative matrix"}
               for name in later},
        }

    def test_diagonal_bound(self):
        report = necessary_conditions([[3, 0], [0, 0]])
        assert not report.zero_free_diagonal_ok.passed

    def test_common_neighbor_bound(self):
        report = necessary_conditions([[1, 2], [2, 1]])
        assert not report.common_neighbor_bound.passed

    def test_odd_trace(self):
        report = necessary_conditions([[1, 0], [0, 0]])
        assert not report.trace_even.passed

    def test_json_shape(self):
        doc = necessary_conditions(INFEASIBLE_4X4).to_json_dict()
        assert set(doc) == {"checks", "overall"}
        assert set(doc["checks"]) == {
            "symmetric", "nonneg_integer", "zero_free_diagonal_ok",
            "common_neighbor_bound", "trace_even", "c4_divisible_by_4",
            "rowsum_multiset_feasible",
        }
        for entry in doc["checks"].values():
            assert set(entry) == {"passed", "reason"}

    @given(st.integers(2, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=80, deadline=None)
    def test_never_raises_on_square_input(self, rows):
        necessary_conditions(rows)


def _random_rows(rng, n, kind):
    """A raw n × n input of one kind: symmetric nonnegative, asymmetric,
    with negatives, with bools, with floats, or ragged."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randrange(n + 1)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randrange(n + 1)
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in rng.sample(cells, min(len(cells), rng.randrange(4))):
        if kind == "asymmetric":
            rows[i][j] += 1
        elif kind == "negative":
            rows[i][j] = -rows[i][j] - 1
        elif kind == "bool":
            rows[i][j] = rng.random() < 0.5
        elif kind == "float":
            rows[i][j] = rows[i][j] + 0.5
    if kind == "ragged" and n:
        for i in rng.sample(range(n), rng.randrange(1, n + 1)):
            rows[i] = rows[i][:rng.randrange(n)] if rng.random() < 0.5 else rows[i] + [1]
    return tuple(tuple(row) for row in rows)


class TestRowScans:
    """The battery's row-level scans name the same first offender as plain
    row-major scans over single entries."""

    KINDS = ("symmetric", "asymmetric", "negative", "bool", "float", "ragged")

    @staticmethod
    def matrix_problem(rows):
        n = len(rows)
        for i, row in enumerate(rows, 1):
            if len(row) != n:
                return f"row {i} has length {len(row)}, expected {n}"
            for j, x in enumerate(row, 1):
                if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                    return f"entry at row {i}, column {j} is not an integer"
        return None

    @staticmethod
    def asymmetric_pair(rows):
        n = len(rows)
        return next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if rows[i][j] != rows[j][i]), None)

    @staticmethod
    def common_neighbor_excess(rows, diag):
        n = len(rows)
        return next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if rows[i][j] > min(diag[i], diag[j])), None)

    @staticmethod
    def c4_pair_sum(rows):
        n = len(rows)
        return sum(rows[i][j] * (rows[i][j] - 1) for i in range(n) for j in range(i + 1, n))

    def test_first_offender_matches_entrywise_scan(self, rng):
        seen = {kind: 0 for kind in self.KINDS}
        for case in range(1200):
            kind = self.KINDS[case % len(self.KINDS)]
            rows = _random_rows(rng, rng.randrange(8), kind)
            assert _matrix_problem(rows) == self.matrix_problem(rows), rows
            if kind == "ragged":
                seen[kind] += _matrix_problem(rows) is not None
                continue
            diag = [row[i] for i, row in enumerate(rows)]
            got = (_asymmetric_pair(rows), _common_neighbor_excess(rows, diag), _c4_pair_sum(rows))
            want = (self.asymmetric_pair(rows), self.common_neighbor_excess(rows, diag),
                    self.c4_pair_sum(rows))
            assert got == want, rows
            seen[kind] += any(x is not None for x in (_matrix_problem(rows), *got[:2]))
        # every kind of input produced offenders to name
        assert min(seen.values()) >= 50, seen


class TestBatteryRunsOnce:
    """The battery runs at most once per IntMatrix, whichever call needs it
    first, and the kept result is invisible to everything but timing."""

    MATRICES = {
        "c5": sq(cycle(5)),
        "two triangles": sq(disjoint_union(complete(3), complete(3))),
        "infeasible 4x4": INFEASIBLE_4X4,
        "odd trace": IntMatrix.from_rows([[1, 0], [0, 0]]),
        "asymmetric": IntMatrix.from_rows([[1, 1], [0, 1]]),
    }

    CALLS = {
        "necessary_conditions": lambda S: necessary_conditions(S).to_json_dict(),
        "row_sum_report": lambda S: row_sum_report(S).to_json_dict(),
        "support_components": support_components,
        "count_c4": count_c4,
        "realize": lambda S: _outcome(realize(S)),
        "realize_all": lambda S: _enumeration(realize_all(S)),
    }

    @pytest.fixture
    def batteries(self, monkeypatch):
        calls = []
        battery = analysis._battery

        def counted(rows, *rest):
            calls.append(rows)
            return battery(rows, *rest)

        monkeypatch.setattr(analysis, "_battery", counted)
        return calls

    def test_one_battery_across_the_analyze_set_and_realize(self, batteries):
        for what, M in self.MATRICES.items():
            S = IntMatrix(M.rows)
            before = len(batteries)
            for call in self.CALLS.values():
                _result(call, S)
            _result(self.CALLS["necessary_conditions"], S)
            assert len(batteries) - before == 1, what

    def test_standalone_scans_run_no_battery(self, batteries):
        for M in self.MATRICES.values():
            S = IntMatrix(M.rows)
            for call in (count_c4, support_components, regular_row_sum_check,
                         is_bipartite_or_disconnected):
                _result(call, S)
        assert batteries == []

    def test_standalone_scans_read_the_kept_symmetry_verdict(self, monkeypatch):
        kept = {what: IntMatrix(M.rows) for what, M in self.MATRICES.items()}
        before = {what: {name: _result(call, S) for name, call in self.CALLS.items()}
                  for what, S in kept.items()}

        def refuse(rows):
            raise AssertionError("symmetry scanned again")

        # a fresh scan fails in either module
        monkeypatch.setattr(core, "_asymmetric_pair", refuse)
        monkeypatch.setattr(analysis, "_asymmetric_pair", refuse)
        for what, S in kept.items():
            for name in ("support_components", "count_c4"):
                assert _result(self.CALLS[name], S) == before[what][name], what

    def test_every_call_order_gives_the_fresh_results(self):
        for what, M in self.MATRICES.items():
            fresh = {name: _result(call, IntMatrix(M.rows)) for name, call in self.CALLS.items()}
            for order in itertools.permutations(self.CALLS):
                S = IntMatrix(M.rows)
                got = {name: _result(self.CALLS[name], S) for name in order}
                assert got == fresh, (what, order)

    def test_the_kept_result_is_invisible(self):
        for M in self.MATRICES.values():
            analyzed, fresh = IntMatrix(M.rows), IntMatrix(M.rows)
            necessary_conditions(analyzed)
            assert analyzed == fresh
            assert hash(analyzed) == hash(fresh)
            assert repr(analyzed) == repr(fresh)
            assert dataclasses.fields(analyzed) == dataclasses.fields(fresh)
            assert pickle.dumps(analyzed) == pickle.dumps(fresh)
            assert pickle.loads(pickle.dumps(analyzed)) == fresh
            assert copy.copy(analyzed) == fresh

    def test_raw_lists_are_checked_on_every_call(self, batteries):
        raw = [[1, 0], [0, 1]]
        assert necessary_conditions(raw).symmetric.passed
        raw[0][1] = 1
        second = necessary_conditions(raw)
        assert not second.symmetric.passed
        assert second.symmetric.reason == "s_1,2=1 differs from s_2,1=0"
        assert len(batteries) == 2


class TestKeptSymmetryVerdict:
    """An IntMatrix decides its symmetry once; the battery reads that
    verdict and never scans an IntMatrix for negative entries."""

    MATRICES = TestBatteryRunsOnce.MATRICES

    @pytest.fixture
    def scans(self, monkeypatch):
        """Every ``_asymmetric_pair`` call, in ``core`` or ``analysis``,
        as the rows it scanned."""
        calls = []
        scan = core._asymmetric_pair

        def counted(rows):
            calls.append(rows)
            return scan(rows)

        monkeypatch.setattr(core, "_asymmetric_pair", counted)
        monkeypatch.setattr(analysis, "_asymmetric_pair", counted)
        return calls

    def test_one_scan_per_matrix(self, scans):
        calls = dict(TestBatteryRunsOnce.CALLS, regular_row_sum_check=regular_row_sum_check,
                     is_symmetric=IntMatrix.is_symmetric,
                     similar=lambda S: permutation_similar(S, S))
        for what, M in self.MATRICES.items():
            S = IntMatrix(M.rows)
            for _ in range(2):
                for call in calls.values():
                    _result(call, S)
            assert scans == [S.rows], what
            scans.clear()

    @pytest.mark.parametrize("what", ["c5", "infeasible 4x4", "asymmetric"])
    def test_one_scan_in_cli_analyze(self, what, scans, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text(to_matrix_text(self.MATRICES[what]))
        for extra in ([], ["--json"]):
            scans.clear()
            main(["analyze", str(path), *extra])
            capsys.readouterr()
            assert scans == [self.MATRICES[what].rows]

    def test_no_negative_entry_scan_on_an_int_matrix(self, monkeypatch):
        reports = {what: necessary_conditions(IntMatrix(M.rows)) for what, M in self.MATRICES.items()}

        def refuse(rows):
            raise AssertionError("negative entries scanned in the battery")

        monkeypatch.setattr(analysis, "_negative_entry", refuse)
        for what, M in self.MATRICES.items():
            assert necessary_conditions(IntMatrix(M.rows)) == reports[what], what

    def test_raw_lists_are_scanned_for_both(self, scans):
        report = necessary_conditions([[0, -1], [-1, 0]])
        assert report.symmetric.passed
        assert not report.nonneg_integer.passed
        assert report.nonneg_integer.reason == "s_1,2=-1 is negative"
        report = necessary_conditions([[0, -1], [2, 0]])
        assert report.symmetric.reason == "s_1,2=-1 differs from s_2,1=2"
        assert report.nonneg_integer.reason == "s_1,2=-1 is negative"
        assert len(scans) == 2

    def test_the_kept_verdict_is_invisible(self):
        for M in self.MATRICES.values():
            checked, fresh = IntMatrix(M.rows), IntMatrix(M.rows)
            checked.is_symmetric()
            assert "_asymmetry" in checked.__dict__
            assert checked == fresh
            assert hash(checked) == hash(fresh)
            assert pickle.dumps(checked) == pickle.dumps(fresh)
            for clone in (copy.copy(checked), copy.deepcopy(checked),
                          pickle.loads(pickle.dumps(checked))):
                assert "_asymmetry" not in clone.__dict__
                assert clone == fresh and hash(clone) == hash(fresh)


def _result(call, S):
    """What ``call(S)`` returns, or the type and message of what it raises."""
    try:
        return call(S)
    except ValueError as exc:
        return type(exc), str(exc)


def _outcome(out):
    """A realize outcome without its timing."""
    return out.verdict, out.witness, out.nodes_explored, out.reason


def _enumeration(enum):
    """A realize_all enumeration without its timing."""
    return enum.witnesses, enum.complete, enum.nodes_explored
