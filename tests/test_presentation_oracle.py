"""Differential test: the AR layer reading the first syzygy off the realized
d1 against the syzygy-module route of `presentation_oracle`.

For every simple and its dual, S + S, and sampled finite-dimensional modules,
over the fixtures and seeded algebras over Q, F_2 and F_3 (monomial and
binomial, relations of degree 2 and 3, acyclic and cyclic): the pushout
sequence of every Ext^1(C, tau C) basis class, of one combination of them and
of a coboundary, and the End(C)-action on Ext^1 of every End basis vector.
The class failures `verify_almost_split` reads off g (no class rebuilt) must
be those the oracle's class of each sequence predicts: "nonsplit" for the
zero class, "socle" for a class some radical endomorphism moves, "class
check failed" where End(C) refuses its radical over F_p, none otherwise.  An
indecomposability check whose End algebra refuses its radical is a failure
that names the term, never a raise.
"""

import random
from collections import Counter

import pytest

from gradedquiver import GF, QQ, standard_module
from gradedquiver.artheory import (AlmostSplitSequence, _actions_on_ext, _pushout_sequence, tau,
                                   verify_almost_split)
from gradedquiver.errors import UnsupportedRadical
from gradedquiver.linalg import Matrix
from gradedquiver.homs import end_algebra, ext1
from gradedquiver.presentations import minimal_presentation

import presentation_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_acceptance import hull_sum, sample_fd_modules
from test_standard_columns import seeded_algebras
from test_translate_windows import linear_quiver


def ending_terms(alg, rng):
    """Simples and their duals, S + S (whose End and Ext^1 are matrix
    spaces), sampled modules, and sums of a simple with a sampled module."""
    out = []
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        out += [S, S.dual(), hull_sum([S, S])]
    sampled = sample_fd_modules(alg, rng, 8)
    return out + sampled + [hull_sum([out[0], M]) for M in sampled[:3]]


def moved_class_terms(alg):
    """Over 1 -> 2 -> 3: I_2<-1> = [1 -> 2] plus S_1, and plus S_2<-1>.  The
    radical map I_2<-1> -> S_1 does not factor through P_1 -> S_1, since
    Hom(I_2<-1>, P_1) = 0, so it moves the class of 0 -> rad P_1 -> P_1 ->
    S_1 -> 0 in Ext^1(S_1, tau I_2<-1>), rad P_1 being that translate."""
    I2 = standard_module(alg, "I", "2", -1, window=(0, 1))
    S1 = standard_module(alg, "S", "1", 0)
    return [hull_sum([I2, S1]), hull_sum([I2, S1, standard_module(alg, "S", "2", -1)])]


def sequence_json(seq):
    A, E, C, f, g = seq
    return [A.to_json_dict(), E.to_json_dict(), C.to_json_dict(),
            f.to_json_dict(), g.to_json_dict()]


CLASS_FAILURES = ("nonsplit", "socle", "class check")


def expected_class_failures(seq, ext, end, pres):
    """The class failures of `verify_almost_split`, predicted from the
    oracle's class coordinates and End(C)-action."""
    cls = presentation_oracle.class_of_sequence(seq)
    if not any(cls):
        return ["nonsplit: extension class is zero"]
    try:
        rad = end.radical_basis()
    except UnsupportedRadical as e:
        return [f"class check failed: {e}"]
    vec = Matrix.from_cols(ext.field, ext.dim, [list(cls)])
    for k in range(rad.cols):
        moved = presentation_oracle.action_matrix(ext, end, pres, rad.col(k)) @ vec
        if any(moved.col(0)):
            return ["socle: class not annihilated by the radical of End(C)"]
    return []


def compare(alg, terms):
    """Both routes on every ending term: a count of the sequences compared,
    and of those whose class failures were compared, by failure."""
    counts = Counter()
    for C in terms:
        pres = minimal_presentation(C)
        if pres.module_is_projective():
            continue
        A = tau(C, window=(C.lo - 4, C.hi + 6), check_verdict=False).module
        if not A.is_exact:
            continue
        ext = ext1(C, A)
        end = end_algebra(C)
        f = alg.field
        units = Matrix.identity(f, end.dim)
        actions = _actions_on_ext(pres, ext, units)
        assert len(actions) == end.dim
        for k, act in enumerate(actions):
            assert act == presentation_oracle.action_matrix(ext, end, pres, units.col(k)), \
                (C.dims, k)
        # each basis class, one combination of them, and a coboundary
        tuples = [list(rep) for rep in ext.reps]
        if ext.dim > 1:
            tuples.append([sum((f.mul(f.of(k + 1), t[i]) for k, t in enumerate(tuples)), f.zero())
                           for i in range(ext.size)])
        if ext.B.cols:
            tuples.append(ext.B.col(0))
        for k, xi in enumerate(tuples):
            got = _pushout_sequence(C, A, pres, ext, xi)
            assert sequence_json(got) == \
                sequence_json(presentation_oracle.pushout_sequence(C, A, pres, xi)), (C.dims, k)
            counts["sequences"] += 1
            seq = AlmostSplitSequence(*got, {}, "ending")
            failures = verify_almost_split(seq)[1]
            # an End algebra of dimension >= p refuses its radical
            refused = [m for m in failures if "indecomposability check failed" in m]
            assert all(m.startswith(("right term", "left term")) for m in refused), failures
            assert not (refused and f.is_rationals), failures
            counts["refused"] += bool(refused)
            failures = [m for m in failures if m.startswith(CLASS_FAILURES)]
            assert failures == expected_class_failures(seq, ext, end, pres), (C.dims, k)
            counts[failures[0].split(":")[0] if failures else "none"] += 1
    return counts


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_formal_d1_route_matches_syzygy_module_route(field):
    algs = [alg for _kind, alg in seeded_algebras({"Q": QQ, "F2": GF(2), "F3": GF(3)}[field])]
    if field == "Q":
        algs += [make() for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)]
    rng = random.Random(7)
    counts = sum((compare(alg, ending_terms(alg, rng)) for alg in algs), Counter())
    line = linear_quiver(3, algs[0].field)
    counts += compare(line, moved_class_terms(line))
    assert counts["sequences"] and counts["none"], counts
    if field == "Q":
        # the radicals over F_2 and F_3 refuse these End algebras
        assert counts["nonsplit"] and counts["socle"], counts
    else:
        assert counts["refused"] and counts["class check failed"], counts
