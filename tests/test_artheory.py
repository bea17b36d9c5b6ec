import pytest

from gradedquiver import QQ, standard_module
from gradedquiver.errors import MathRefusal
from gradedquiver.presentations import ProjSum, PMap, minimal_presentation
from gradedquiver.artheory import (transpose, tau, tau_inverse, nakayama,
                                   ar_formula_check, almost_split_sequence,
                                   verify_almost_split, find_isomorphism)

from conftest import transpose_back
from injective_oracle import nakayama_pairing_dims
from product_oracle import arrow_element


def S(alg, v, s=0, window=None):
    return standard_module(alg, "S", v, s, window=window)


def test_transpose_of_projective_is_zero(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    tr = transpose(P1)
    assert tr.is_zero()
    mod = tr.realize((-2, 2))
    assert mod.is_zero()


def test_transpose_of_simple_fix_b(fix_b):
    tr = transpose(S(fix_b, "1"))
    # cover P_2^o<1> over the opposite, presented by P_1^o -> P_2^o<1>
    assert tr.cover_psum.summands == (("2", 1),)
    assert tr.d.src.summands == (("1", 0),)
    mod = tr.realize((-3, 3))
    # Tr S_1 = S_2^o<1>: one dimensional at degree -1, vertex 2
    assert mod.dims == {(-1, "2"): 1}


def test_double_transpose_differential(fix_c):
    rad, _ = standard_module(fix_c, "P", "1", 0, window=(0, 12)).radical()
    pres = minimal_presentation(rad)
    tr = transpose(rad)
    back = transpose_back(tr)
    assert back.src.summands == pres.d1.src.summands
    assert back.dst.summands == pres.d1.dst.summands
    for r1, r2 in zip(back.entries, pres.d1.entries):
        assert r1 == r2


def test_tau_simple_fix_b(fix_b):
    t = tau(S(fix_b, "1"))
    # the translate of S_1 is S_2<-1>
    assert t.module.dims == {(1, "2"): 1}
    assert t.warning is None


def test_tau_projective_warns(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    t = tau(P1)
    assert t.is_zero()
    assert "projective" in t.warning


def test_tau_refuses_decomposable(fix_b):
    from gradedquiver import direct_sum
    S1 = S(fix_b, "1", 0, window=(0, 1))
    S2 = S(fix_b, "2", 0, window=(0, 1))
    both, _, _ = direct_sum([S1, S2])
    with pytest.raises(MathRefusal):
        tau(both)


def test_tau_inverse_round_trip(fix_b):
    t = tau(S(fix_b, "1"))
    back = tau_inverse(t.module)
    assert back.module.dims == {(0, "1"): 1}
    # and the other way
    ti = tau_inverse(S(fix_b, "2", -1))
    assert ti.module.dims == {(0, "1"): 1}
    again = tau(ti.module)
    assert again.module.dims == {(1, "2"): 1}


def test_tau_classical_values_fix_d(fix_d):
    # over the radical-square-zero linear quiver the translates walk the
    # vertices: tau S_n = S_{n-1}<-1>, tau^- S_n = S_{n+1}<1>
    for n in range(1, 6):
        t = tau(S(fix_d, str(n)), check_verdict=False)
        assert t.module.dims == {(1, str(n - 1)): 1}, (n, t.module.dims)
    for n in range(0, 5):
        ti = tau_inverse(S(fix_d, str(n)), check_verdict=False)
        assert ti.module.dims == {(-1, str(n + 1)): 1}, (n, ti.module.dims)
    # the end vertices are projective / injective respectively
    assert tau(S(fix_d, "0"), check_verdict=False).is_zero()
    assert tau_inverse(S(fix_d, "5"), check_verdict=False).is_zero()


def test_tau_round_trips_fix_d(fix_d):
    for v in ("1", "2", "4"):
        M = S(fix_d, v)
        t = tau(M, check_verdict=False)
        if t.is_zero():
            continue
        back = tau_inverse(t.module, check_verdict=False)
        assert back.module.dims == M.dims
        assert find_isomorphism(back.module, M) is not None


def test_dual_exchanges_translates(fix_d):
    # tau over the opposite algebra corresponds to tau-inverse under duality
    M = S(fix_d, "2")
    t = tau(M, check_verdict=False)
    tid = tau_inverse(M.dual(), check_verdict=False)
    assert t.module.dual().dims == tid.module.dims


def test_nakayama_round_trip(fix_b):
    # right multiplication by the arrow maps P_2 into P_1<1>
    psrc = ProjSum(fix_b, [("2", 0)])
    pdst = ProjSum(fix_b, [("1", 1)])
    a = arrow_element(fix_b, "a")
    pm = PMap(psrc, pdst, [[a]])
    # nu P_2 -> nu P_1<1> is the dual of P°_1<-1> -> P°_2 over the opposite
    im = nakayama(pm)
    assert im.algebra is fix_b.opposite()
    assert im.src.summands == (("1", -1),)
    assert im.dst.summands == (("2", 0),)
    back = nakayama(im)
    assert back.algebra is fix_b
    assert back.to_json() == pm.to_json()
    assert back.src.summands == pm.src.summands


def test_nakayama_realizes_injective_map(fix_b):
    # nu(P[a]: P_2 -> P_1<1>) realizes as a nonzero map I_2 -> I_1<1>
    psrc = ProjSum(fix_b, [("2", 0)])
    pdst = ProjSum(fix_b, [("1", 1)])
    a = arrow_element(fix_b, "a")
    pm = PMap(psrc, pdst, [[a]])
    assert not pm.realize((0, 2)).is_zero()
    im = nakayama(pm)
    real = im.realize((-1, 3)).dual()
    assert not real.is_zero()
    assert real.source.dims == standard_module(fix_b, "I", "2", 0,
                                               window=(-3, 1)).dims
    assert real.target.dims == standard_module(fix_b, "I", "1", 1,
                                               window=(-3, 1)).dims
    # identity data maps to identity realization
    ident = nakayama(PMap(psrc, psrc, [[fix_b.unit("2")]]))
    real_id = ident.realize((-1, 3)).dual()
    for key, mat in real_id.blocks.items():
        from gradedquiver import Matrix
        assert mat == Matrix.identity(QQ, mat.rows)


def test_nakayama_pairing(fix_b, fix_d):
    for alg, pairs in ((fix_b, [("1", 0), ("2", -1), ("1", 1)]),
                       (fix_d, [("3", 0), ("1", -2), ("5", 2)])):
        for a, s in pairs:
            psum = ProjSum(alg, [(a, s)])
            for v in alg.quiver.vertices[:3]:
                M = S(alg, v, 0)
                lhs, rhs = nakayama_pairing_dims(psum, M)
                assert lhs == rhs
            rad, _ = standard_module(alg, "P", alg.quiver.vertices[0], 0,
                                     window=(0, 6)).radical()
            if rad.is_exact and not rad.is_zero():
                lhs, rhs = nakayama_pairing_dims(psum, rad)
                assert lhs == rhs


def test_ar_formula_simple_cases(fix_b):
    r = ar_formula_check(S(fix_b, "1"), S(fix_b, "2", -1))
    assert r["formula1_holds"] and r["formula2_holds"]
    assert r["underline_hom"] == 0 and r["ext_against_tau"] == 0
    r = ar_formula_check(S(fix_b, "1"), S(fix_b, "1"))
    assert r["formula1_holds"] and r["formula2_holds"]
    assert r["underline_hom"] == 1 and r["ext_against_tau"] == 1


def test_ar_formula_projective_input(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    for X in (S(fix_b, "1"), S(fix_b, "2", -1), P1):
        r = ar_formula_check(P1, X)
        assert r["underline_hom"] == 0 and r["ext_against_tau"] == 0
        assert r["formula1_holds"]


def test_ar_formula_sweep_fix_d(fix_d):
    shifts = (-1, 0, 1)
    mods = [S(fix_d, v, s) for v in ("0", "2", "5") for s in shifts]
    for M in mods:
        for X in mods:
            r = ar_formula_check(M, X)
            assert r["formula1_holds"], (M.dims, X.dims, r)
            assert r["formula2_holds"], (M.dims, X.dims, r)


def test_almost_split_sequence_fix_b(fix_b):
    seq = almost_split_sequence(S(fix_b, "1"), "ending")
    # 0 -> S_2<-1> -> P_1 -> S_1 -> 0
    assert seq.A.dims == {(1, "2"): 1}
    assert seq.C.dims == {(0, "1"): 1}
    assert seq.E.dims == {(0, "1"): 1, (1, "2"): 1}
    ok, failures = verify_almost_split(seq)
    assert ok, failures


def test_almost_split_sequence_starting(fix_b):
    seq = almost_split_sequence(S(fix_b, "2", -1), "starting")
    assert seq.A.dims == {(1, "2"): 1}
    assert seq.E.dims == {(0, "1"): 1, (1, "2"): 1}
    assert seq.C.dims == {(0, "1"): 1}
    ok, failures = verify_almost_split(seq)
    assert ok, failures


def test_almost_split_refuses_projective_end(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 1))
    with pytest.raises(MathRefusal):
        almost_split_sequence(P1, "ending")


def test_almost_split_fix_d(fix_d):
    seq = almost_split_sequence(S(fix_d, "2"), "ending")
    ok, failures = verify_almost_split(seq)
    assert ok, failures
    # middle dims add up
    for key in seq.E.dims:
        assert seq.E.dims[key] == seq.A.dims.get(key, 0) + seq.C.dims.get(key, 0)


def test_almost_split_fix_c_glued_middle(fix_c):
    # the commuting square glues the two branch simples into one middle term
    seq = almost_split_sequence(standard_module(fix_c, "S", "2", 0), "ending")
    ok, failures = verify_almost_split(seq)
    assert ok, failures
    assert seq.E.dims == {(0, "2"): 1, (0, "3"): 1, (1, "4"): 1}
    assert seq.A.dims == {(0, "3"): 1, (1, "4"): 1}


def test_almost_split_refuses_infinite_translate(fix_a):
    # over the loop fixture the translate of S_1 is infinite dimensional and
    # the construction refuses rather than truncating silently, naming the
    # vertex whose column does not vanish and the degree it was followed to
    with pytest.raises(MathRefusal, match=r"vertex 1 does not vanish up to degree 10\b"):
        almost_split_sequence(S(fix_a, "1"), "ending")


def test_verify_rejects_split_sequence(fix_b):
    from gradedquiver import direct_sum
    from gradedquiver.artheory import AlmostSplitSequence
    A = S(fix_b, "2", -1, window=(0, 1))
    C = S(fix_b, "1", 0, window=(0, 1))
    E, injs, prjs = direct_sum([A, C])
    seq = AlmostSplitSequence(A, E, C, injs[0], prjs[1], {}, "ending")
    ok, failures = verify_almost_split(seq)
    assert not ok
    assert any("nonsplit" in msg for msg in failures)


# -- starting sequences: refusals and verification on the dual -------------------


def test_starting_refusals_name_the_starting_term():
    from gradedquiver import direct_sum
    from test_translate_windows import linear_quiver
    # vertex 1 is the source of 1 -> ... -> 5, so S_1 = I_1 is injective
    alg = linear_quiver(5)
    with pytest.raises(MathRefusal, match=r"^starting term is graded injective "
                       r"\(Ext-injective\): no almost split sequence starts there$"):
        almost_split_sequence(S(alg, "1"), "starting")
    with pytest.raises(MathRefusal, match=r"^ending term is graded projective"):
        almost_split_sequence(S(alg, "5"), "ending")
    pair, _, _ = direct_sum([S(alg, "2"), S(alg, "2")])
    for direction in ("starting", "ending"):
        with pytest.raises(MathRefusal, match=rf"^{direction} term not certified indecomposable"):
            almost_split_sequence(pair, direction)


def starting_sequence(fix_d):
    seq = almost_split_sequence(S(fix_d, "2"), "starting")
    assert verify_almost_split(seq) == (True, [])
    return seq


def test_verify_rejects_split_starting_sequence(fix_d):
    from gradedquiver import direct_sum
    from gradedquiver.artheory import AlmostSplitSequence
    seq = starting_sequence(fix_d)
    E, injs, prjs = direct_sum([seq.A, seq.C])
    ok, failures = verify_almost_split(
        AlmostSplitSequence(seq.A, E, seq.C, injs[0], prjs[1], {}, "starting"))
    assert not ok
    # the ends are right, so only the class fails
    assert failures == ["nonsplit: extension class is zero"]


def test_verify_rejects_starting_sequence_with_zero_left_map(fix_d):
    from gradedquiver.artheory import AlmostSplitSequence
    from gradedquiver.gmodule import GradedMorphism
    seq = starting_sequence(fix_d)
    zero = GradedMorphism.zero(seq.A, seq.E)
    ok, failures = verify_almost_split(
        AlmostSplitSequence(seq.A, seq.E, seq.C, zero, seq.g, {}, "starting"))
    assert not ok
    # the given right map is still onto: only the left map is named.  The
    # dual's right map is zero, so nothing factors through it; End(A) is k,
    # so only the identity would have to
    assert failures == ["exactness: left map not injective",
                        "exactness: rank defect at (0, '2')"]


def test_verify_rejects_starting_sequence_with_wrong_left_term(fix_d):
    # 0 -> A (+) X -> E (+) X -> C -> 0 is exact, but its left term decomposes
    # and C is not the inverse translate of A (+) X
    from gradedquiver import direct_sum
    from gradedquiver.artheory import AlmostSplitSequence
    seq = starting_sequence(fix_d)
    X = S(fix_d, "4").with_window(seq.A.lo, seq.A.hi)
    left, left_in, left_out = direct_sum([seq.A, X])
    mid, mid_in, mid_out = direct_sum([seq.E, X])
    f = mid_in[0].compose(seq.f.compose(left_out[0])) + mid_in[1].compose(left_out[1])
    g = seq.g.compose(mid_out[0])
    ok, failures = verify_almost_split(
        AlmostSplitSequence(left, mid, seq.C, f, g, {}, "starting"))
    assert not ok
    assert not any(msg.startswith("exactness") or "right term decomposes" in msg
                   for msg in failures), failures
    assert "right term does not match the inverse translate (dimensions)" in failures
    assert "left term decomposes" in failures


def test_verify_checks_a_starting_sequence_with_truncated_left_term_as_given(fix_d):
    # its dual would need a presentation of the truncated D A: the checks run
    # on the sequence itself, as for an ending one
    from gradedquiver import GradedModule
    from gradedquiver.artheory import AlmostSplitSequence
    from gradedquiver.gmodule import GradedMorphism
    seq = starting_sequence(fix_d)
    A = GradedModule(fix_d, seq.A.lo, seq.A.hi, seq.A.dims, seq.A.maps, exact_below=False)
    f = GradedMorphism(A, seq.E, seq.f.blocks, check=False)
    assert verify_almost_split(
        AlmostSplitSequence(A, seq.E, seq.C, f, seq.g, {}, "starting")) == (True, [])
