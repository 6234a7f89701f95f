"""The suite generator is deterministic and the committed suites are its output."""

import pytest

from gen import BUILDERS, build_suite, proves_infeasible, searched_verdict
from suite import dump_suite, import_program, instance_rows, load_suite, suite_path

tw = import_program()


@pytest.mark.parametrize("workload", BUILDERS)
@pytest.mark.parametrize("seed", [1, 2])
def test_committed_suite_is_reproduced_byte_for_byte(workload, seed):
    assert dump_suite(build_suite(tw, workload, seed)) == suite_path(workload, seed).read_text()


def test_seeds_give_different_suites():
    a, b = (build_suite(tw, "hard", s)["instances"] for s in (1, 2))
    assert [i["edges"] for i in a] != [i["edges"] for i in b]


def test_reject_mutations_are_proofs():
    suite = load_suite("screen", 1)
    rejects = [i for i in suite["instances"] if i["family"] == "reject"]
    assert {i["proof"] for i in rejects} == {"odd_trace", "c4_sum", "cn_bound"}
    for inst in rejects:
        assert proves_infeasible(inst["proof"], instance_rows(inst))


def test_searched_verdict_agrees_with_brute_force():
    # a 4-vertex star's square, and the same with one common-neighbour count moved
    star = [[3, 0, 0, 0], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
    assert searched_verdict(tw, star, "star") == "realized"
    moved = [[3, 1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]]
    assert searched_verdict(tw, moved, "moved") == "infeasible"
