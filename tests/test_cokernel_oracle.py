"""Differential tests: the cokernel from one reduction a piece.

`GradedMorphism.cokernel` reads the image, the complement and the projection
of each target piece off one reduction of [block | I], and the almost split
pushout takes the unit vectors at a projection block's pivot columns as its
section.  `cokernel_oracle` keeps the three-reduction cokernel and the
solved section; both must agree exactly on seeded morphisms over Q and F_3
(zero, surjective, missing source pieces, cokernel pieces of dimension 2 or
more with arrow maps, random combinations of hom bases) and on the
fixtures' realized presentations and transposes.
"""

import os
import random

import pytest

from gradedquiver import GF, QQ, GradedMorphism, GradedQuiverError, direct_sum, standard_module
from gradedquiver.artheory import _pivot_columns, transpose
from gradedquiver.homs import ghom
from gradedquiver.linalg import Matrix
from gradedquiver.presentations import minimal_presentation, projective_cover
from gradedquiver.problem import parse_problem

import cokernel_oracle
from test_standard_columns import seeded_algebras

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def assert_same_cokernel(mor):
    """Both routes on one morphism; returns the kinds of case it covers."""
    C, proj = mor.cokernel()
    want_C, want_proj = cokernel_oracle.cokernel(mor)
    assert (C.lo, C.hi, C.exact_below, C.exact_above) == \
        (want_C.lo, want_C.hi, want_C.exact_below, want_C.exact_above)
    assert list(C.dims.items()) == list(want_C.dims.items())
    assert sorted(C.maps) == sorted(want_C.maps)
    for key, mat in C.maps.items():
        assert mat == want_C.maps[key] and mat.fmt() == want_C.maps[key].fmt(), key
    assert proj.source is mor.target and proj.target is C
    assert sorted(proj.blocks) == sorted(want_proj.blocks)
    for key, blk in proj.blocks.items():
        assert blk == want_proj.blocks[key] and blk.fmt() == want_proj.blocks[key].fmt(), key
        sect = Matrix.identity(blk.field, blk.cols).select_cols(_pivot_columns(blk))
        assert sect == cokernel_oracle.section_of_projection(want_proj, key), key
    kinds = set()
    if mor.is_zero():
        kinds.add("zero")
    if mor.is_surjective():
        kinds.add("surjective")
    if any(key not in mor.source.dims for key in mor.target.dims):
        kinds.add("missing source piece")
    if C.dims and not mor.is_zero():
        kinds.add("proper")
    if any(n >= 2 and (i, x) in mor.blocks and
           any((a.name, i) in C.maps for a in C.algebra.quiver.arrows_from[x])
           for (i, x), n in C.dims.items()):
        kinds.add("wide piece with maps")
    return kinds


def modules_for(alg):
    """Per vertex S_v, S_v (+) S_w<-1>, I_v, P_v and P_v (+) P_v (+) P_w
    on short windows (P_v truncated above when it is infinite)."""
    mods = []
    vertices = alg.quiver.vertices
    for k, v in enumerate(vertices):
        w = vertices[(k + 1) % len(vertices)]
        S = standard_module(alg, "S", v, 0, window=(0, 3))
        Sw = standard_module(alg, "S", w, -1, window=(0, 3))
        P = standard_module(alg, "P", v, 0, window=(0, 3))
        Pw = standard_module(alg, "P", w, 0, window=(0, 3))
        mods += [S, direct_sum([S, Sw])[0], P, direct_sum([P, P, Pw])[0],
                 standard_module(alg, "I", v, 0, window=(-3, 0))]
    return mods


def morphisms_for(alg, rng):
    """Covers, radical inclusions, identities, diagonals M -> M (+) M (+) M,
    and zero, basis and random morphisms between seeded pairs of modules."""
    mods = modules_for(alg)
    out = []
    for M in mods:
        if M.is_exact:
            out.append(projective_cover(M).realize(M))
            out.append(GradedMorphism.identity(M))
        out.append(M.radical()[1])
        _total, injs, _prjs = direct_sum([M, M, M])
        out.append(injs[0] + injs[2].scale(-1))
    f = alg.field
    small = [f.of(c) for c in (-2, -1, 1, 2)] if f.is_rationals else list(range(1, f.p))
    for _ in range(40):
        M, N = rng.choice(mods), rng.choice(mods)
        try:
            H = ghom(M, N)
        except GradedQuiverError:
            continue
        out.append(GradedMorphism.zero(H.source, H.target))
        out += H.morphisms()
        for _ in range(2):
            out.append(H.from_coordinates([rng.choice(small + [f.zero()])
                                           for _ in range(H.dim)]))
    return out


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_seeded_cokernels_match_three_reductions(field):
    rng = random.Random(11)
    kinds = set()
    for _kind, alg in seeded_algebras(field):
        for mor in morphisms_for(alg, rng):
            kinds |= assert_same_cokernel(mor)
    assert kinds == {"zero", "surjective", "missing source piece", "proper",
                     "wide piece with maps"}


@pytest.mark.parametrize("name", ["fix_a", "fix_b", "fix_c", "fix_d"])
def test_fixture_transposes_and_presentations_match_three_reductions(name):
    prob = parse_problem(os.path.join(FIXTURES, f"{name}.json"))
    alg = prob.algebra
    mods = [prob.module(m) for m in prob.module_names()]
    mods += [standard_module(alg, "S", v, 0) for v in alg.quiver.vertices]
    checked = 0
    for M in mods:
        if not M.is_exact:
            continue
        pres = minimal_presentation(M)
        assert_same_cokernel(pres.d1.realize(pres.window))
        trdata = transpose(M)
        if trdata.is_zero():
            continue
        for lo, hi in ((M.lo - 4, M.hi + 6), (M.lo - 1, M.hi + 1), (M.lo, M.lo)):
            assert_same_cokernel(trdata.d.realize((-hi, -lo)))
            checked += 1
    assert checked
