"""Differential test: the AR layer reading the first syzygy off the realized
d1 against the syzygy-module route of `presentation_oracle`.

For every simple and its dual, S + S, and sampled finite-dimensional modules,
over the fixtures and seeded algebras over Q, F_2 and F_3 (monomial and
binomial, relations of degree 2 and 3, acyclic and cyclic): the pushout
sequence of every Ext^1(C, tau C) basis class, the End(C)-action on Ext^1 of
every End basis vector, and the class coordinates of every such sequence.
"""

import random

import pytest

from gradedquiver import GF, QQ, standard_module
from gradedquiver.artheory import AlmostSplitSequence, _class_of_sequence, _pushout_sequence, tau
from gradedquiver.homs import EndActionOnExt, end_algebra, ext1
from gradedquiver.presentations import minimal_presentation

import presentation_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_acceptance import hull_sum, sample_fd_modules
from test_standard_columns import seeded_algebras


def ending_terms(alg, rng):
    """Simples and their duals, S + S (whose End and Ext^1 are matrix
    spaces), sampled modules, and sums of a simple with a sampled module."""
    out = []
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        out += [S, S.dual(), hull_sum([S, S])]
    sampled = sample_fd_modules(alg, rng, 8)
    return out + sampled + [hull_sum([out[0], M]) for M in sampled[:3]]


def sequence_json(seq):
    A, E, C, f, g = seq
    return [A.to_json_dict(), E.to_json_dict(), C.to_json_dict(),
            f.to_json_dict(), g.to_json_dict()]


def compare(alg, rng):
    """Both routes on every ending term; the number of sequences compared."""
    sequences = 0
    for C in ending_terms(alg, rng):
        pres = minimal_presentation(C)
        if pres.module_is_projective():
            continue
        A = tau(C, window=(C.lo - 4, C.hi + 6), check_verdict=False).module
        if not A.is_exact:
            continue
        ext = ext1(C, A)
        end = end_algebra(C)
        action = EndActionOnExt(ext, end, pres=pres)
        f = alg.field
        for k in range(end.dim):
            unit = [f.one() if i == k else f.zero() for i in range(end.dim)]
            assert action.action_matrix(unit) == \
                presentation_oracle.action_matrix(ext, end, pres, unit), (C.dims, k)
        for k in range(ext.dim):
            xi = ext.tuple_of_class(k)
            got = _pushout_sequence(C, A, pres, ext, xi)
            assert sequence_json(got) == \
                sequence_json(presentation_oracle.pushout_sequence(C, A, pres, xi)), (C.dims, k)
            seq = AlmostSplitSequence(*got, {}, "ending")
            assert _class_of_sequence(seq)[0] == presentation_oracle.class_of_sequence(seq), \
                (C.dims, k)
            sequences += 1
    return sequences


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_formal_d1_route_matches_syzygy_module_route(field):
    algs = [alg for _kind, alg in seeded_algebras({"Q": QQ, "F2": GF(2), "F3": GF(3)}[field])]
    if field == "Q":
        algs += [make() for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)]
    rng = random.Random(7)
    assert sum(compare(alg, rng) for alg in algs) > 0
