import pytest

from gradedquiver import Quiver
from gradedquiver.errors import InputError

from quiver_paths import count_paths, list_paths


def test_opposite_single_arrow():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    op = q.opposite()
    assert op.arrow_by_name["a"].source == "2"
    assert op.arrow_by_name["a"].target == "1"
    back = op.opposite()
    assert back.to_json_dict() == q.to_json_dict()


def test_opposite_no_arrows_fixed_point():
    q = Quiver(["x"], [])
    assert q.opposite().to_json_dict() == q.to_json_dict()


def test_opposite_fix_a(fix_a):
    op = fix_a.quiver.opposite()
    assert op.arrow_by_name["a"].source == "1" and op.arrow_by_name["a"].target == "1"
    assert op.arrow_by_name["b"].source == "2" and op.arrow_by_name["b"].target == "1"


def test_paths_a2():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    ps = list_paths(q, 1, "1", "2")
    assert [p.names() for p in ps] == [("a",)]
    assert list_paths(q, 0, "1", "1")[0].vertex == "1"
    assert list_paths(q, 0, "1", "2") == []


def test_paths_fix_a(fix_a):
    q = fix_a.quiver
    assert [p.names() for p in list_paths(q, 2, "1", "2")] == [("b", "a")]
    assert list_paths(q, 3, "2", "1") == []
    assert [p.names() for p in list_paths(q, 3, "1", "1")] == [("a", "a", "a")]


def test_paths_unknown_vertex(fix_a):
    with pytest.raises(InputError):
        list_paths(fix_a.quiver, 1, "1", "9")


def test_path_count_matches_adjacency_power(fix_a, fix_c):
    for q in (fix_a.quiver, fix_c.quiver):
        for n in range(4):
            for x in q.vertices[:4]:
                for y in q.vertices[:4]:
                    assert len(list_paths(q, n, x, y)) == count_paths(q, n, x, y)


def test_path_composition_order():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    a = q.path_from_names(("a",))
    b = q.path_from_names(("b",))
    ba = b.compose(a)
    assert ba.names() == ("b", "a")
    assert ba.source == "1" and ba.target == "3"
    with pytest.raises(InputError):
        a.compose(b)


def test_analyze(fix_a, fix_b, fix_d):
    r = fix_b.quiver.analyze()
    assert r["acyclic"] and r["strongly_locally_finite"]
    assert not r["infinite_forward_path"] and not r["infinite_backward_path"]
    r = fix_a.quiver.analyze()
    assert not r["acyclic"]
    assert r["infinite_forward_path"] and r["infinite_backward_path"]
    r = fix_d.quiver.analyze()
    assert r["acyclic"]


def test_analyze_opposite_swaps_flags(fix_a, fix_b, fix_c, fix_d):
    for q in (fix_a.quiver, fix_b.quiver, fix_c.quiver, fix_d.quiver):
        r, ro = q.analyze(), q.opposite().analyze()
        assert r["infinite_forward_path"] == ro["infinite_backward_path"]
        assert r["infinite_backward_path"] == ro["infinite_forward_path"]


def test_json_round_trip(fix_c):
    import json
    d = fix_c.quiver.to_json_dict()
    q2 = Quiver.from_json_dict(json.loads(json.dumps(d)))
    assert q2.to_json_dict() == d


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])
    with pytest.raises(InputError):
        Quiver(["1", "1"], [])
    with pytest.raises(InputError):
        Quiver(["1"], [("a", "1", "2")])
