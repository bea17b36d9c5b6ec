import pytest

from gradedquiver import (QQ, Matrix, GradedModule, GradedMorphism,
                          standard_module, direct_sum)
from gradedquiver.errors import InputError, WindowError

from conftest import classify, kernel
from product_oracle import arrow_element


def test_standard_projective_fix_b(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 3))
    assert P1.dims == {(0, "1"): 1, (1, "2"): 1}
    assert P1.is_exact
    P2 = standard_module(fix_b, "P", "2", 0, window=(0, 3))
    assert P2.dims == {(0, "2"): 1}


def test_standard_projective_fix_a_truncated(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 3))
    assert P1.dims == {(0, "1"): 1, (1, "1"): 1, (1, "2"): 1, (2, "1"): 1, (3, "1"): 1}
    assert P1.exact_below and not P1.exact_above
    with pytest.raises(WindowError):
        P1.total_dim()


def test_standard_injective_fix_b(fix_b):
    I2 = standard_module(fix_b, "I", "2", 0, window=(-2, 0))
    assert I2.dims == {(0, "2"): 1, (-1, "1"): 1}
    assert I2.is_exact
    I1 = standard_module(fix_b, "I", "1", 0, window=(-2, 0))
    assert I1.dims == {(0, "1"): 1}


def test_standard_injective_fix_d_boundary(fix_d):
    # vertex 5 has no incoming arrows in the truncation, so S_5 is injective
    I5 = standard_module(fix_d, "I", "5", 0, window=(-3, 0))
    assert I5.dims == {(0, "5"): 1}
    I0 = standard_module(fix_d, "I", "0", 0, window=(-3, 0))
    assert I0.dims == {(0, "0"): 1, (-1, "1"): 1}
    assert I0.is_exact


def test_simple_and_shift(fix_b):
    S1 = standard_module(fix_b, "S", "1", 0)
    assert S1.dims == {(0, "1"): 1}
    moved = S1.shift(-2)
    assert moved.dims == {(2, "1"): 1}
    assert moved.shift(2).dims == S1.dims
    S2m1 = standard_module(fix_b, "S", "2", -1)
    assert S2m1.dims == {(1, "2"): 1}


def test_validate_planted_defect(fix_c):
    one = QQ.one()
    dims = {(0, "1"): 1, (1, "2"): 1, (1, "3"): 1, (2, "4"): 1}
    good = {("a", 0): Matrix(QQ, 1, 1, [[1]]), ("b", 0): Matrix(QQ, 1, 1, [[1]]),
            ("g", 1): Matrix(QQ, 1, 1, [[1]]), ("d", 1): Matrix(QQ, 1, 1, [[1]])}
    M = GradedModule(fix_c, 0, 2, dims, good)
    assert M.validate() is None
    bad = dict(good)
    bad[("d", 1)] = Matrix(QQ, 1, 1, [[2]])
    with pytest.raises(InputError):
        GradedModule(fix_c, 0, 2, dims, bad)
    # report style: first violating (relation, degree) pair
    M_bad = GradedModule(fix_c, 0, 2, dims, bad, check=False)
    assert M_bad.validate() == (0, 0)


def test_validate_standard_always_ok(fix_a, fix_c, fix_d):
    for alg, v in ((fix_a, "1"), (fix_c, "1"), (fix_d, "3")):
        P = standard_module(alg, "P", v, 0, window=(0, 5))
        assert P.validate() is None
        I = standard_module(alg, "I", v, 0, window=(-5, 0))
        assert I.validate() is None


def test_dual_dims_and_involution(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 2))
    D = P1.dual()
    assert D.algebra is fix_b.opposite()
    assert D.dims == {(0, "1"): 1, (-1, "2"): 1}
    DD = D.dual()
    assert DD.algebra is fix_b
    assert DD.dims == P1.dims
    for key, mat in P1.maps.items():
        assert DD.maps[key] == mat


def test_dual_exchanges_projective_and_injective(fix_d):
    # the dual of the opposite projective is the injective, piece by piece
    opp = fix_d.opposite()
    P2o = standard_module(opp, "P", "2", 0, window=(0, 3))
    I2 = standard_module(fix_d, "I", "2", 0, window=(-3, 0))
    assert P2o.dual().dims == I2.dims


def test_dual_refuses_truncation(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 3))
    with pytest.raises(WindowError):
        P1.dual()


def test_dual_shift_compatibility(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 2))
    lhs = P1.shift(2).dual()
    rhs = P1.dual().shift(-2)
    assert lhs.dims == rhs.dims


def test_simple_dual_is_simple_at_zero(fix_a):
    S1 = standard_module(fix_a, "S", "1", 0)
    D = S1.dual()
    assert D.dims == {(0, "1"): 1}


def test_radical_top_socle_fix_a(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 6))
    soc, _incl = P1.socle()
    assert soc.dims == {(1, "2"): 1}
    rad, _incl = P1.radical()
    top, _proj = P1.top()
    assert top.dims == {(0, "1"): 1}
    for key in P1.dims:
        assert P1.dims[key] == rad.dims.get(key, 0) + top.dims.get(key, 0)


def test_socle_of_injective(fix_d):
    for v in fix_d.quiver.vertices:
        I = standard_module(fix_d, "I", v, 0, window=(-4, 0))
        soc, _ = I.socle()
        assert soc.dims == {(0, v): 1}


def test_top_of_projective_is_simple(fix_c):
    # the 13-vertex truncation makes P_1 finite dimensional: support ends at 11
    P1 = standard_module(fix_c, "P", "1", 0, window=(0, 12))
    assert P1.is_exact
    top, _ = P1.top()
    assert top.dims == {(0, "1"): 1}
    assert classify(top)["semisimple"]


def test_socle_shrinks_truncated_window(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 6))
    soc, incl = P1.socle()
    assert (soc.lo, soc.hi) == (0, 5)
    assert not soc.exact_above
    assert incl.target.dims == P1.with_window(0, 5).dims


def test_radical_shrinks_truncated_below(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 4))
    M = P1.with_window(2, 4)
    assert not M.exact_below
    rad, _ = M.radical()
    # the piece at degree 2 feeds on the unseen degree 1, so it is dropped
    assert (rad.lo, rad.hi) == (3, 4)
    assert not rad.exact_below
    tiny = P1.with_window(4, 4)
    with pytest.raises(WindowError):
        tiny.radical()
    with pytest.raises(WindowError):
        tiny.socle()


def test_classify(fix_b):
    S2 = standard_module(fix_b, "S", "2", -1)
    r = classify(S2)
    assert r["simple"] and r["which"] == [("2", -1, 1)]
    S1 = standard_module(fix_b, "S", "1", 0)
    both, _inj, _prj = direct_sum([S1, S1])
    r = classify(both)
    assert r["semisimple"] and not r["simple"]
    assert r["which"] == [("1", 0, 2)]
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    assert not classify(P1)["semisimple"]


def test_direct_sum_round_trip(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    S2 = standard_module(fix_b, "S", "2", -1, window=(0, 1))
    total, injs, prjs = direct_sum([P1, S2])
    assert total.dims == {(0, "1"): 1, (1, "2"): 2}
    for inj, prj, part in zip(injs, prjs, (P1, S2)):
        assert prj.compose(inj) == GradedMorphism.identity(part)


def test_morphism_naturality_enforced(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    S1 = standard_module(fix_b, "S", "1", 0, window=(0, 1))
    proj = GradedMorphism(P1, S1, {(0, "1"): Matrix(QQ, 1, 1, [[1]])})
    assert proj.is_surjective()
    K, incl = kernel(proj)
    assert K.dims == {(1, "2"): 1}
    C, pr = kernel(proj)[1].cokernel()
    assert C.dims == {(0, "1"): 1}
    S2 = standard_module(fix_b, "S", "2", 0, window=(0, 1))
    with pytest.raises(InputError):
        # a nonzero block between incompatible pieces breaks naturality
        GradedMorphism(P1, P1, {(0, "1"): Matrix(QQ, 1, 1, [[1]]),
                                (1, "2"): Matrix(QQ, 1, 1, [[2]])})


def test_element_action(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 4))
    e1 = Matrix(QQ, 1, 1, [[1]])
    a = arrow_element(fix_a, "a")
    b = arrow_element(fix_a, "b")
    va = P1.element_action(a, 0) @ e1
    assert (va.rows, va.cols) == (P1.dim(1, "1"), 1) and not va.is_zero()
    vba = P1.element_action(b, 1) @ va
    assert (vba.rows, vba.cols) == (P1.dim(2, "2"), 1) and vba.is_zero()


def test_module_json_round_trip(fix_c):
    P1 = standard_module(fix_c, "P", "1", 0, window=(0, 3))
    d = P1.to_json_dict()
    back = GradedModule.from_json_dict(fix_c, d)
    assert back.dims == P1.dims
    for key in P1.maps:
        assert back.maps[key] == P1.maps[key]
    assert back.exact_below == P1.exact_below
    assert back.exact_above == P1.exact_above
