"""The answer checker refutes wrong answers without using twowalk."""

import pytest

from check import (
    WrongAnswer,
    check_class_count,
    check_isomorphism,
    check_similarity,
    check_verdict,
    check_witness,
    component_signature,
    relabel,
    square_of,
)

C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def test_square_of_counts_common_neighbours():
    assert square_of(3, [(0, 1), (1, 2)]) == [[1, 0, 1], [0, 2, 0], [1, 0, 1]]


def test_correct_witness_passes():
    check_witness(square_of(5, C5), 5, C5, "c5")


@pytest.mark.parametrize("bad", [
    C5[:-1] + [(0, 3)],      # one edge moved
    C5[:-1],                 # one edge dropped
    C5 + [(0, 1)],           # an edge repeated
    C5[:-1] + [(4, 4)],      # a loop
    C5[:-1] + [(4, 5)],      # a vertex out of range
])
def test_corrupted_witness_is_rejected(bad):
    with pytest.raises(WrongAnswer):
        check_witness(square_of(5, C5), 5, bad, "c5")


def test_flipped_verdict_is_rejected():
    check_verdict("realized", "realized", "x")
    check_verdict("infeasible", "infeasible", "x")
    with pytest.raises(WrongAnswer):
        check_verdict("realized", "infeasible", "x")
    with pytest.raises(WrongAnswer):
        check_verdict("infeasible", "realized", "x")


def test_abort_is_accepted_but_unknown_verdict_is_not():
    check_verdict("realized", "aborted", "x")
    with pytest.raises(WrongAnswer):
        check_verdict("realized", "maybe", "x")


def test_similarity_witness():
    s = square_of(5, C5)
    p = [2, 0, 4, 1, 3]
    t = relabel(s, p)
    check_similarity(s, t, p, "x")
    with pytest.raises(WrongAnswer):
        check_similarity(s, t, [0, 1, 2, 3, 4], "x")


def test_isomorphism_witness():
    p = [1, 2, 3, 4, 0]
    image = [(p[i], p[j]) for i, j in C5]
    check_isomorphism(5, C5, image, p, "x")
    with pytest.raises(WrongAnswer):
        check_isomorphism(5, C5, image, [0, 2, 1, 3, 4], "x")


def test_class_count():
    triangles = component_signature(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    hexagon = component_signature(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    assert triangles != hexagon
    check_class_count(2, 1, 2, [triangles, hexagon], "x")
    with pytest.raises(WrongAnswer):
        check_class_count(2, 1, 1, [triangles, hexagon], "x")
    with pytest.raises(WrongAnswer):
        check_class_count(2, 1, 2, [triangles, triangles], "x")
