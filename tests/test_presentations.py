import pytest

from gradedquiver import standard_module
from gradedquiver.errors import WindowError
from gradedquiver.presentations import (ProjSum, PMap, top_basis, soc_basis,
                                        projective_cover, minimal_presentation,
                                        injective_envelope, resolution,
                                        graded_dimension)


def S(alg, v, s=0, window=None):
    return standard_module(alg, "S", v, s, window=window)


def test_top_basis_of_projective(fix_c):
    P1 = standard_module(fix_c, "P", "1", 0, window=(0, 12))
    tb = top_basis(P1)
    assert len(tb) == 1
    assert (tb[0].degree, tb[0].vertex) == (0, "1")


def test_top_basis_of_radical(fix_c):
    P1 = standard_module(fix_c, "P", "1", 0, window=(0, 12))
    rad, _ = P1.radical()
    tb = top_basis(rad)
    assert [(g.degree, g.vertex) for g in tb] == [(1, "2"), (1, "3")]


def test_top_basis_semisimple(fix_b):
    from gradedquiver import direct_sum
    S1 = S(fix_b, "1", 0, window=(0, 1))
    S2m1 = S(fix_b, "2", -1, window=(0, 1))
    both, _, _ = direct_sum([S1, S2m1])
    tb = top_basis(both)
    assert [(g.degree, g.vertex) for g in tb] == [(0, "1"), (1, "2")]


def test_projective_cover_of_simple(fix_b):
    cov = projective_cover(S(fix_b, "1"))
    assert cov.psum.summands == (("1", 0),)
    f = cov.realize(S(fix_b, "1"), (0, 1))
    assert f.is_surjective()
    K, _ = f.kernel()
    assert K.dims == {(1, "2"): 1}


def test_cover_kernel_inside_radical(fix_c):
    # Ker(cover) lands in rad P: no kernel component in the generator degrees
    M = S(fix_c, "1")
    cov = projective_cover(M)
    f = cov.realize(M, (0, 1))
    K, _ = f.kernel()
    rad, _ = f.source.radical()
    for key, n in K.dims.items():
        assert n <= rad.dims.get(key, 0)


def test_minimal_presentation_fix_b(fix_b):
    pres = minimal_presentation(S(fix_b, "1"))
    assert pres.p0.summands == (("1", 0),)
    assert pres.p1.summands == (("2", -1),)
    assert pres.is_minimal()
    e = pres.d1.entries[0][0]
    assert e.degree == 1 and (e.source, e.target) == ("1", "2")


def test_minimal_presentation_fix_c(fix_c):
    pres = minimal_presentation(S(fix_c, "1"))
    assert pres.p0.summands == (("1", 0),)
    assert set(pres.p1.summands) == {("2", -1), ("3", -1)}
    assert pres.is_minimal()


def test_presentation_of_projective_is_trivial(fix_b):
    P1 = standard_module(fix_b, "P", "1", 0, window=(0, 2))
    pres = minimal_presentation(P1)
    assert pres.module_is_projective()
    assert pres.p0.summands == (("1", 0),)


def test_pmap_compose_and_realize(fix_c):
    # P_1 --(a;b)--> P_2<-1> (+) P_3<-1> --(g,d)--> P_4<-2> composes to the
    # two equal length-two classes, realized consistently
    alg = fix_c
    top = ProjSum(alg, [("4", -2)])
    mid = ProjSum(alg, [("2", -1), ("3", -1)])
    bot = ProjSum(alg, [("1", 0)])
    g = alg.arrow_element("g")
    d = alg.arrow_element("d")
    a = alg.arrow_element("a")
    b = alg.arrow_element("b")
    f1 = PMap(mid, bot, [[a, b]])
    f2 = PMap(top, mid, [[g], [d]])
    comp = f1.compose(f2)
    e = comp.entries[0][0]
    assert e is not None and e.degree == 2
    assert e == alg.multiply(g, a).scale(alg.field.of(2))
    real = f1.realize((0, 3))
    assert real.source.dims[(1, "2")] == 1
    assert not real.is_zero()


def test_soc_basis_fix_a(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 6))
    sb = soc_basis(P1)
    assert [(g.degree, g.vertex) for g in sb] == [(1, "2")]


def test_injective_envelope_of_simple(fix_b):
    # I_2 = D(P°_2): the envelope is read off the cover of the dual
    psum, env = injective_envelope(S(fix_b, "2"))
    assert psum.algebra is fix_b.opposite()
    assert psum.summands == (("2", 0),)
    assert env.is_injective()
    # socle of the target is contained in the image
    soc, soc_incl = env.target.socle()
    for (i, x), n in soc.dims.items():
        img = env.block(i, x).image_basis()
        joint = img.hstack(soc_incl.block(i, x))
        assert joint.rank() == img.rank()


def test_injective_envelope_of_injective_is_identity_shape(fix_b):
    I2 = standard_module(fix_b, "I", "2", 0, window=(-1, 0))
    psum, env = injective_envelope(I2)
    assert psum.summands == (("2", 0),)
    assert env.is_injective() and env.is_surjective()


def test_minimal_copresentation_of_simple(fix_d):
    # the copresentation M -> I0 -> I1 is the presentation of D M, read
    # through D: P°_a<s> stands for I_a<-s>
    D = S(fix_d, "3").dual()
    co = minimal_presentation(D)
    assert co.p0.summands == (("3", 0),)
    # the cosyzygy of S_3 is S_4<1>, enveloped by I_4<1> = D(P°_4<-1>)
    assert co.p1.summands == (("4", -1),)
    assert co.cover0.realize(D, co.window).dual().is_injective()


def test_copresentation_dualizes_presentation(fix_d):
    co = minimal_presentation(S(fix_d, "2").dual())
    pres = minimal_presentation(S(fix_d.opposite(), "2"))
    assert co.p0.summands == pres.p0.summands
    assert co.p1.summands == pres.p1.summands
    assert co.d1.to_json() == pres.d1.to_json()


def test_resolution_pd_fix_d(fix_d):
    for n in range(6):
        rep = graded_dimension(S(fix_d, str(n)), "proj", 10)
        assert rep == {"kind": "exact", "value": n, "window": rep["window"]}


def test_resolution_id_fix_d(fix_d):
    # in this finite truncation the injective side terminates as well: the
    # cosyzygy chain walks up to the boundary vertex 5 whose simple is
    # injective, giving id(S_n) = 5 - n
    for n in range(6):
        rep = graded_dimension(S(fix_d, str(n)), "inj", 10)
        assert rep["kind"] == "exact" and rep["value"] == 5 - n


def test_resolution_terminates_on_fix_a(fix_a):
    # the chain ends because the b-component of the radical is projective
    rep = graded_dimension(S(fix_a, "1"), "proj", 6)
    assert rep == {"kind": "exact", "value": 2, "window": rep["window"]}


def test_resolution_caps():
    # dual numbers on a single loop: the syzygy of the simple is itself
    # shifted, so the resolution never terminates and the cap is honest
    from gradedquiver import Quiver, GradedAlgebra, QQ
    from conftest import rel
    q = Quiver(["1"], [("a", "1", "1")])
    alg = GradedAlgebra(q, QQ, [rel(q, [(1, ("a", "a"))])])
    rep = graded_dimension(S(alg, "1"), "proj", 4)
    assert rep["kind"] == "at-least" and rep["value"] == 4
    rep_inj = graded_dimension(S(alg, "1"), "inj", 4)
    assert rep_inj["kind"] == "at-least"


def test_resolution_window_auto_extension(fix_d):
    # a deliberately tiny window: the generator of the second syzygy shows up
    # at the window top, the engine retries once with the pad and finishes
    res = resolution(S(fix_d, "5"), 10, pad=5, window_hi=2)
    assert res.status == "finite" and res.length == 5
    assert res.window[1] == 7


def test_resolution_window_exhausted_errors():
    from gradedquiver import Quiver, GradedAlgebra, QQ
    from conftest import rel
    q = Quiver(["1"], [("a", "1", "1")])
    alg = GradedAlgebra(q, QQ, [rel(q, [(1, ("a", "a"))])])
    # syzygies climb one degree per step forever: after the single retry the
    # generator still reaches the top and the run refuses with the degree
    with pytest.raises(WindowError, match="window top"):
        resolution(S(alg, "1"), 20, pad=3, window_hi=2)


def test_second_syzygy_golden_fix_c(fix_c):
    # independent dimension count: 0 -> K -> P_2<-1>+P_3<-1> -> P_1 -> S_1 -> 0
    # forces dim K_i(x) = dim(P_2<-1>+P_3<-1>)_i(x) - dim(P_1)_i(x) + dim(S_1)_i(x)
    expected = {}
    for i in range(0, 11):
        for x in fix_c.quiver.vertices:
            n = (fix_c.dim_piece(i - 1, "2", x) + fix_c.dim_piece(i - 1, "3", x)
                 - fix_c.dim_piece(i, "1", x) + (1 if (i, x) == (0, "1") else 0))
            if n:
                expected[(i, x)] = n
    P4 = standard_module(fix_c, "P", "4", -2, window=(0, 10))
    assert {k: v for k, v in P4.dims.items()} == expected
    # and the engine's second syzygy matches: a single P_4<-2>, not two copies
    res = resolution(S(fix_c, "1"), 5, window_hi=10)
    assert res.status == "finite" and res.length == 2
    assert res.psums[2].summands == (("4", -2),)


def test_resolution_differentials_radical(fix_c, fix_d):
    for alg, v in ((fix_c, "1"), (fix_d, "4")):
        res = resolution(S(alg, v), 6)
        for d in res.pmaps:
            assert d.is_radical()


def test_top_basis_window_guards(fix_a):
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 4))
    with pytest.raises(WindowError):
        top_basis(P1)  # truncated above: a generator may hide beyond the window
    with pytest.raises(WindowError):
        top_basis(standard_module(fix_a, "P", "1", 0, window=(1, 4)))  # and below


def test_resolution_window_must_reach_the_first_syzygy(fix_d):
    # the first syzygy of a module on [lo, hi] has generators up to degree
    # hi + 1, so a working window that stops short of it is refused
    M = S(fix_d, "3", -2)
    with pytest.raises(WindowError, match=r"\[2,2\] must reach degree 3"):
        resolution(M, 4, window_hi=2)
    assert resolution(M, 4, window_hi=3).report()["kind"] == "exact"
