"""Surface traces on the exceptional quadric and the gluing dichotomy."""

import pytest

from twistor_pushout.quadric import (
    QuadricClass,
    arithmetic_genus,
    hyperplane_class,
    intersection_number,
)
from twistor_pushout.surfaces import (
    SurfaceData,
    classify_all,
    glue_check,
    trace_bidegree,
    trace_class,
)

RIGID_TABLE = {(2, "in", 2, "in"), (1, "in", 1, "out"), (1, "out", 1, "in")}


def test_trace_values():
    assert trace_class(SurfaceData(3, False)) == QuadricClass.from_bw(3, 0)
    assert trace_class(SurfaceData(2, True)) == QuadricClass.from_bw(1, 1)
    assert trace_class(SurfaceData(1, True)) == QuadricClass.from_bw(0, 1)


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        SurfaceData(0, True)


def test_glue_examples():
    assert glue_check(SurfaceData(2, True), SurfaceData(2, True))
    assert glue_check(SurfaceData(1, True), SurfaceData(1, False))
    assert not glue_check(SurfaceData(3, True), SurfaceData(3, True))
    assert not glue_check(SurfaceData(1, False), SurfaceData(1, False))


def test_classification_is_rigid():
    assert set(classify_all(50)) == RIGID_TABLE
    assert set(classify_all(1)) == {(1, "in", 1, "out"), (1, "out", 1, "in")}
    with pytest.raises(ValueError):
        classify_all(0)


def test_classification_independent_of_bound():
    reference = set(classify_all(2))
    for bound in (3, 7, 12):
        assert set(classify_all(bound)) == reference


def test_classification_equals_pairwise_glue_checks():
    surfaces = [SurfaceData(d, flag) for d in range(1, 61) for flag in (True, False)]
    glues = {(s1, s2): glue_check(s1, s2) for s1 in surfaces for s2 in surfaces}

    def label(s):
        return "in" if s.contains_line else "out"

    for d_max in range(1, 61):
        first = surfaces[: 2 * d_max]
        assert classify_all(d_max) == [
            (s1.twistor_degree, label(s1), s2.twistor_degree, label(s2))
            for s1 in first
            for s2 in first
            if glues[s1, s2]
        ]


def test_no_double_out_configuration():
    assert not [row for row in classify_all(30) if row[1] == "out" and row[3] == "out"]


def test_traces_meet_twistor_lines_in_degree_points():
    xi = hyperplane_class()
    for d in range(1, 51):
        for flag in (True, False):
            assert intersection_number(trace_class(SurfaceData(d, flag)), xi) == d


def test_contained_line_traces_are_rational():
    for d in range(1, 51):
        assert arithmetic_genus(trace_bidegree(SurfaceData(d, True))) == 0


def test_glue_check_symmetry():
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            for f1 in (True, False):
                for f2 in (True, False):
                    assert glue_check(SurfaceData(d1, f1), SurfaceData(d2, f2)) == glue_check(
                        SurfaceData(d2, f2), SurfaceData(d1, f1)
                    )
