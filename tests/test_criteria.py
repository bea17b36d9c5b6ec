from gradedquiver.criteria import existence_report, human_table

from conftest import make_fix_c


def test_fix_b_hereditary_all_yes(fix_b):
    r = existence_report(fix_b, 6)
    assert r["hereditary"]["fp_almost_split_on_left"]["verdict"] == "yes"
    assert r["hereditary"]["fci_almost_split_on_right"]["verdict"] == "yes"
    assert r["hereditary"]["derived_almost_split_triangles"]["verdict"] == "yes"
    assert r["finitely_presented_category"]["almost_split_on_left"]["verdict"] == "yes"


def test_fix_d_locally_bounded_derived(fix_d):
    r = existence_report(fix_d, 10)
    assert r["boundedness"]["left"]["status"] == "finite"
    assert r["boundedness"]["right"]["status"] == "finite"
    d = r["derived_finite_dimensional"]
    assert d["almost_split_triangles_on_right"]["verdict"] == "yes"
    pd = d["almost_split_triangles_on_right"]["evidence"]["pd"]
    assert {v: rep["value"] for v, rep in pd.items()} == {
        "0": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}
    # in the finite truncation the injective side also certifies (the
    # boundary simple is injective); see the README fixture notes
    assert d["almost_split_triangles_on_left"]["verdict"] == "yes"
    idt = d["almost_split_triangles_on_left"]["evidence"]["id"]
    assert {v: rep["value"] for v, rep in idt.items()} == {
        "0": 5, "1": 4, "2": 3, "3": 2, "4": 1, "5": 0}


def test_fix_a_unbounded_side(fix_a):
    r = existence_report(fix_a, 6)
    assert r["boundedness"]["left"]["status"] == "unbounded-at-cap"
    assert (r["finitely_presented_category"]["almost_split_on_left"]["verdict"]
            == "unknown-at-cap")
    assert (r["derived_finite_dimensional"]["almost_split_triangles_on_right"]
            ["verdict"] == "unknown-at-cap")
    assert "hereditary" not in r


def test_hereditary_cycle_gives_no():
    from gradedquiver import Quiver, GradedAlgebra, QQ
    q = Quiver(["1"], [("a", "1", "1")])
    alg = GradedAlgebra(q, QQ, [])
    r = existence_report(alg, 4)
    assert r["hereditary"]["fp_almost_split_on_left"]["verdict"] == "no"
    assert r["hereditary"]["derived_almost_split_triangles"]["verdict"] == "no"


def test_monotone_in_caps():
    alg = make_fix_c(ray_end=13)
    small = existence_report(alg, 5)
    big = existence_report(alg, 12)

    def verdicts(rep):
        out = {}

        def walk(prefix, node):
            if isinstance(node, dict) and "verdict" in node:
                out[prefix] = node["verdict"]
            elif isinstance(node, dict):
                for k, v in node.items():
                    if k not in ("evidence", "boundedness", "caps",
                                 "quiver_analysis"):
                        walk(prefix + "." + k, v)

        walk("", rep)
        return out

    vs, vb = verdicts(small), verdicts(big)
    for key in vs:
        if vs[key] in ("yes", "no"):
            assert vb[key] == vs[key], key


def test_human_table_renders(fix_d):
    text = human_table(existence_report(fix_d, 6))
    assert "almost_split" in text and "yes" in text


def test_noetherian_assertion(fix_a, fix_d):
    # boundedness certifies noetherianness; otherwise only a user assertion
    # is recorded, never a computed claim
    r = existence_report(fix_a, 6)
    assert "left" not in r.get("noetherian", {})
    r = existence_report(fix_a, 6, assert_noetherian="left")
    assert r["noetherian"]["left"]["status"] == "user-asserted"
    r = existence_report(fix_d, 6)
    assert r["noetherian"]["left"]["status"] == "certified"
    assert r["noetherian"]["right"]["status"] == "certified"
