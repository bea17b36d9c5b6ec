"""Differential tests: the injective side read off the opposite projective side.

The program has no injective layer of its own: a sum of injectives is an
opposite ProjSum realized on the mirrored window and dualized, a map of such
sums is an opposite PMap (`nakayama`), and homs into I_a<s> are duals of homs
out of P°_a<-s>.  `injective_oracle` keeps the direct routes (path reversal,
direct sums of standard injectives); both must agree on the fixtures and on
seeded algebras over Q, F_2 and F_3, on exact and truncated windows.
"""

import os
import random

import pytest

from gradedquiver import (AlgElement, GradedQuiverError, GradedMorphism, direct_sum,
                          standard_module)
from gradedquiver.homs import ghom_to_injective
from gradedquiver.presentations import (ProjSum, PMap, injective_envelope,
                                        minimal_presentation)
from gradedquiver.artheory import nakayama
from gradedquiver.problem import parse_problem

import injective_oracle
from test_standard_columns import FIELDS, SHIFTS, WINDOWS, assert_same_module, seeded_algebras

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except GradedQuiverError as e:
        return None, type(e)


def modules_for(alg, named=()):
    """Named modules plus, per vertex, S_v, S_v (+) S_w<-1>, P_v on a short
    window (truncated above when P_v is infinite), I_v, and cuts of the
    latter that leave windows truncated below or above."""
    mods = list(named)
    vertices = alg.quiver.vertices
    for k, v in enumerate(vertices):
        w = vertices[(k + 1) % len(vertices)]
        S = standard_module(alg, "S", v, 0, window=(-1, 1))
        Sw = standard_module(alg, "S", w, -1, window=(-1, 1))
        P = standard_module(alg, "P", v, 0, window=(0, 3))
        I = standard_module(alg, "I", v, 0, window=(-3, 0))
        mods += [S, direct_sum([S, Sw])[0], P, I, P.with_window(0, 1), I.with_window(-1, 0)]
    return mods


def assert_homs_into_injectives_match(alg, mods):
    for M in mods:
        for vertex in alg.quiver.vertices:
            for s in SHIFTS:
                got, got_err = _outcome(ghom_to_injective, M, vertex, s)
                want, want_err = _outcome(injective_oracle.ghom_to_injective, M, vertex, s)
                assert got_err == want_err, (M, vertex, s)
                if want is None:
                    continue
                assert got.source is M
                assert_same_module(got.target, want.target)
                assert got.basis_blocks == want.basis_blocks, (M, vertex, s)


def pmaps_for(alg, mods):
    """Differentials of minimal presentations, the identity of a sum with a
    repeated summand, and a zero map between shifted sums."""
    out = []
    for M in mods:
        if M.is_exact:
            pres = minimal_presentation(M)
            if not pres.p1.is_zero():
                out.append(pres.d1)
    v, w = alg.quiver.vertices[:2]
    psum = ProjSum(alg, [(v, 0), (w, 1), (v, 0)])
    units = [[alg.unit(a) if i == j else None for j, (a, _s) in enumerate(psum.summands)]
             for i in range(len(psum))]
    out.append(PMap(psum, psum, units))
    out.append(PMap(psum.shift(-1), ProjSum(alg, [(w, 2)]), None))
    return out


def assert_injective_sums_and_maps_match(alg, mods):
    for pmap in pmaps_for(alg, mods):
        nu = nakayama(pmap)
        assert nu.algebra is alg.opposite()
        back = nakayama(nu)
        assert back.algebra is alg
        assert (back.src.summands, back.dst.summands) == (pmap.src.summands,
                                                          pmap.dst.summands)
        assert back.entries == pmap.entries
        for lo, hi in WINDOWS:
            real = nu.realize((-hi, -lo)).dual()
            assert_same_module(real.source, injective_oracle.injective_sum(
                alg, pmap.src.summands, (lo, hi)))
            assert_same_module(real.target, injective_oracle.injective_sum(
                alg, pmap.dst.summands, (lo, hi)))
            # natural, hence a morphism of the realized injective sums
            GradedMorphism(real.source, real.target, real.blocks)


def assert_nakayama_maps_act_by_their_entries(alg, mods, rng):
    """nu of right multiplication by e: P_b<t> -> P_a<s> sends the hom
    M -> I_b<t> of a functional phi on M_{-t}(b) to the hom M -> I_a<s> of
    phi(e . -) on M_{-s}(a); both homs come from the path-reversal oracle."""
    f = alg.field
    vertices = alg.quiver.vertices
    for _ in range(12):
        a, b = rng.choice(vertices), rng.choice(vertices)
        degree, t = rng.randint(0, 2), rng.randint(-1, 1)
        s = t + degree
        piece = alg.piece(degree, a, b)
        if piece.dim == 0:
            continue
        e = AlgElement(alg, degree, a, b, [f.of(rng.randint(-3, 3)) for _ in range(piece.dim)])
        pmap = PMap(ProjSum(alg, [(b, t)]), ProjSum(alg, [(a, s)]), [[e]])
        for M in mods:
            into_b, err_b = _outcome(injective_oracle.ghom_to_injective, M, b, t)
            into_a, err_a = _outcome(injective_oracle.ghom_to_injective, M, a, s)
            if err_a or err_b:
                continue
            act = M.element_action(e, -s)  # M_{-s}(a) -> M_{-t}(b)
            nu = nakayama(pmap).realize((-M.hi, -M.lo)).dual()
            for k in range(into_b.dim):
                want = GradedMorphism.zero(M, into_a.target)
                for r in range(into_a.dim):
                    want = want + into_a.morphism(r).scale(act.data[k][r])
                assert nu.compose(into_b.morphism(k)) == want, (M, e, k)


def assert_envelopes_match(alg, mods):
    for M in mods:
        got, err = _outcome(injective_envelope, M)
        if got is None:
            assert not M.is_exact and err is not None
            continue
        psum, env = got
        assert psum.algebra is alg.opposite()
        window = (env.target.lo, env.target.hi)
        assert_same_module(env.target, injective_oracle.injective_sum(
            alg, [(a, -s) for a, s in psum.summands], window))
        assert env.is_injective()


def check_algebra(alg, named=()):
    mods = modules_for(alg, named)
    assert_homs_into_injectives_match(alg, mods)
    assert_injective_sums_and_maps_match(alg, mods)
    assert_nakayama_maps_act_by_their_entries(alg, mods, random.Random(len(mods)))
    assert_envelopes_match(alg, mods)


@pytest.mark.parametrize("name", ["fix_a", "fix_b", "fix_c", "fix_d"])
def test_fixture_injective_side_matches_oracle(name):
    problem = parse_problem(os.path.join(FIXTURES, f"{name}.json"))
    named = [problem.module(m) for m in problem.module_names()]
    named += [problem.module(m, window=(-2, 2)) for m in problem.module_names()]
    check_algebra(problem.algebra, named)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_injective_side_matches_oracle(field):
    for _kind, alg in seeded_algebras(FIELDS[field]):
        check_algebra(alg)


def test_nakayama_pairing_on_sampled_sums():
    rng = random.Random(8)
    for _kind, alg in seeded_algebras(FIELDS["F3"]):
        vertices = alg.quiver.vertices
        for _ in range(6):
            psum = ProjSum(alg, [(rng.choice(vertices), rng.randint(-2, 2))
                                 for _ in range(rng.randint(0, 2))])
            for M in modules_for(alg):
                if M.is_exact:
                    lhs, rhs = injective_oracle.nakayama_pairing_dims(psum, M)
                    assert lhs == rhs, (psum, M)
