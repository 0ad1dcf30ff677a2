import pytest

from ksing import (
    Arrow,
    Relation,
    build_quiver,
    export_quiver,
    quiver_from_json,
    validate_params,
)

from conftest import all_valid_params, three_step_quiver


def arrow_set(q):
    return {(a.source, a.target, a.letter) for a in q.arrows}


def relation_set(q):
    return {(r.vertex, r.first_letter, r.second_letter) for r in q.relations}


def test_low_dim_example_quiver():
    q = build_quiver(validate_params(5, 3, [1, 2, 2]))
    assert q.vertex_count == 4
    assert arrow_set(q) == {
        (1, 2, 1), (2, 3, 1), (3, 4, 1),  # the weight-1 letter
        (1, 3, 2), (2, 4, 2),             # first weight-2 letter
        (1, 3, 3), (2, 4, 3),             # parallel second weight-2 letter
    }
    assert relation_set(q) == {(1, 1, 2), (1, 1, 3)}


def test_smallest_case_is_one_lonely_vertex():
    q = build_quiver(validate_params(2, 2, [1, 1]))
    assert q.vertex_count == 1
    assert q.arrows == ()
    assert q.relations == ()


def test_family_quiver_n4():
    q = build_quiver(validate_params(4, 4, [1, 1, 1, 1]))
    assert q.vertex_count == 3
    assert arrow_set(q) == {
        (i, i + 1, j) for i in (1, 2) for j in (1, 2, 3, 4)
    }
    # all unordered letter pairs survive at vertex 1 only
    assert relation_set(q) == {
        (1, j, jp) for j in range(1, 5) for jp in range(j + 1, 5)
    }


def test_closed_form_equals_three_step_construction():
    for params in all_valid_params(10):
        q = build_quiver(params)
        arrows, relations = three_step_quiver(params)
        assert arrow_set(q) == arrows, params
        assert relation_set(q) == relations, params


def test_arrow_census_and_grading():
    for params in all_valid_params(12):
        q = build_quiver(params)
        expected = sum(max(0, params.n - 1 - a) for a in params.weights)
        assert len(q.arrows) == expected, params
        for a in q.arrows:
            assert 1 <= a.source < a.target <= params.n - 1
        for r in q.relations:
            assert r.first_letter < r.second_letter
            assert 1 <= r.vertex <= params.n - 1


def test_dot_export_counts():
    q = build_quiver(validate_params(5, 3, [1, 2, 2]))
    dot = export_quiver(q, "dot")
    lines = dot.splitlines()
    assert lines[0] == "digraph quiver {"
    assert lines[-1] == "}"
    assert sum("->" in line for line in lines) == 7
    node_lines = [l for l in lines if l.strip().rstrip(";").isdigit()]
    assert len(node_lines) == 4


def test_dot_export_empty_quiver():
    q = build_quiver(validate_params(2, 2, [1, 1]))
    dot = export_quiver(q, "dot")
    assert sum("->" in line for line in dot.splitlines()) == 0
    assert "  1;" in dot


def test_json_round_trip():
    for n, d, w in ((5, 3, (1, 2, 2)), (2, 2, (1, 1)), (7, 4, (1, 2, 1, 3))):
        q = build_quiver(validate_params(n, d, w))
        assert quiver_from_json(export_quiver(q, "json")) == q


def test_unknown_format_rejected():
    q = build_quiver(validate_params(2, 2, [1, 1]))
    with pytest.raises(ValueError):
        export_quiver(q, "svg")


def test_parallel_arrows_from_equal_weights_are_distinct():
    q = build_quiver(validate_params(5, 3, [1, 2, 2]))
    assert Arrow(1, 3, 2) in q.arrows
    assert Arrow(1, 3, 3) in q.arrows
    assert Relation(1, 1, 2) in q.relations


def test_arrows_and_relations_are_immutable_values():
    q = build_quiver(validate_params(5, 3, [1, 2, 2]))
    for obj, field in ((q, "vertex_count"), (q.arrows[0], "source"), (q.relations[0], "vertex")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 9)
    same = build_quiver(validate_params(5, 3, (1, 2, 2)))
    assert q == same and hash(q) == hash(same)
    assert repr(q.arrows[0]) == "Arrow(source=1, target=2, letter=1)"
    assert repr(q.relations[0]) == "Relation(vertex=1, first_letter=1, second_letter=2)"


def test_arrows_and_relations_sort_by_their_fields_in_order():
    # Source, then target, then letter; vertex, then the two letters.
    q = build_quiver(validate_params(7, 3, [3, 1, 3]))
    assert sorted(reversed(q.arrows)) == [
        Arrow(*t)
        for t in [
            (1, 2, 2), (1, 4, 1), (1, 4, 3), (2, 3, 2), (2, 5, 1), (2, 5, 3),
            (3, 4, 2), (3, 6, 1), (3, 6, 3), (4, 5, 2), (5, 6, 2),
        ]
    ]
    assert sorted(reversed(q.relations)) == [
        Relation(*t) for t in [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 2, 3)]
    ]
