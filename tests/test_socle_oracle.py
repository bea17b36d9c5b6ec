"""The almost split class read off one joint kernel against the earlier route.

The construction lifts each radical basis endomorphism of C once, reads every
moved class in one solve (`artheory._actions_on_ext`) and takes the socle of
Ext^1(C, tau C) as the kernel of the stacked action matrices.  The oracle
(`presentation_oracle`) solves for one class at a time and intersects the
kernels one action at a time.  The chosen class is the socle vector whose
last nonzero coordinate sits lowest and is 1 on both routes, so the
`nonsplit_witness`, the `socle_annihilation` and the canonical JSON of every
sequence must be equal: over the 5-dimensional string module of the square,
its tau and its tau^-, over Q, F_3 and F_5 in both directions, over Kronecker
modules with up to three radical actions, and over the fixtures and the
seeded corpus of `test_presentation_oracle`.
"""

import random
from collections import Counter
from functools import reduce

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, GradedModule, Matrix, Quiver
from gradedquiver.artheory import (_actions_on_ext, almost_split_sequence, tau, tau_inverse,
                                   verify_almost_split)
from gradedquiver.errors import MathRefusal, UnsupportedRadical
from gradedquiver.homs import end_algebra, ext1, is_strongly_indecomposable
from gradedquiver.presentations import minimal_presentation

import presentation_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_presentation_oracle import ending_terms, moved_class_terms
from test_standard_columns import seeded_algebras
from test_translate_windows import linear_quiver

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def square_module(field):
    """The string module v_top -> t <- u <- w -> v_soc of the square
    w -> u -> t, w -> v -> t: w in degree 0, u, v_soc and v_top in degree 1,
    t in degree 2; End is 2-dimensional with a 1-dimensional radical."""
    q = Quiver(["w", "u", "v", "t"],
               [("a", "w", "u"), ("b", "u", "t"), ("c", "w", "v"), ("d", "v", "t")])
    alg = GradedAlgebra(q, field, [])
    return GradedModule(alg, 0, 2, {(0, "w"): 1, (1, "u"): 1, (1, "v"): 2, (2, "t"): 1},
                        {("a", 0): Matrix(field, 1, 1, [[1]]),
                         ("c", 0): Matrix(field, 2, 1, [[1], [0]]),
                         ("b", 1): Matrix(field, 1, 1, [[1]]),
                         ("d", 1): Matrix(field, 1, 2, [[0, 1]])})


def square_orbit(field):
    C = square_module(field)
    return [C, tau(C, check_verdict=False).module, tau_inverse(C, check_verdict=False).module]


def assert_same_sequence(C, direction):
    seq = almost_split_sequence(C, direction)
    want = presentation_oracle.almost_split_sequence(C, direction)
    got, expected = seq.to_json_dict(), want.to_json_dict()
    for key in ("nonsplit_witness", "socle_annihilation"):
        assert got["certificate"][key] == expected["certificate"][key], (C.dims, direction, key)
    assert got == expected, (C.dims, direction)
    return seq


@pytest.mark.parametrize("field", ["Q", "F3", "F5"])
def test_square_sequences_match_the_iterated_socle(field):
    C = square_module(FIELDS[field])
    end = end_algebra(C)
    assert (end.dim, end.radical_basis().cols) == (2, 1)
    assert is_strongly_indecomposable(C).status == "yes"
    assert ext1(C, tau(C).module).dim == 2
    for M in square_orbit(FIELDS[field]):
        for direction in ("ending", "starting"):
            seq = assert_same_sequence(M, direction)
            assert verify_almost_split(seq) == (True, []), (M.dims, direction)


def test_square_over_f2_refuses_its_radical():
    # the trace form cannot give the radical of a 2-dimensional End over F_2
    for M in square_orbit(GF(2)):
        for direction in ("ending", "starting"):
            with pytest.raises(UnsupportedRadical, match=r"^radical via the trace form needs "
                               r"characteristic 0 or p > 2$"):
                almost_split_sequence(M, direction)


def jordan_kronecker(field, n):
    """The Kronecker module k^n ==> k^n with arrows a nilpotent Jordan block
    and the identity, in degrees 0 and 1: End is k[J]/(J^n), so n - 1
    radical actions on the n-dimensional Ext^1(C, tau C)."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = GradedAlgebra(q, field, [])
    J = Matrix(field, n, n, [[int(j == i + 1) for j in range(n)] for i in range(n)])
    return GradedModule(alg, 0, 1, {(0, "1"): n, (1, "2"): n},
                        {("a", 0): J, ("b", 0): Matrix.identity(field, n)})


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kronecker_sequences_match_the_iterated_socle(field, n):
    C = jordan_kronecker(FIELDS[field], n)
    assert compare_socles(C, tau(C).module) == (n - 1, n)
    for direction in ("ending", "starting"):
        seq = assert_same_sequence(C, direction)
        assert seq.certificate["socle_annihilation"] == [True] * (n - 1)
        assert verify_almost_split(seq) == (True, []), (n, direction)


def compare_socles(C, A):
    """The joint kernel of `_actions_on_ext` against `iterated_socle` on
    the radical actions of End(C) on Ext^1(C, A); None where the radical is
    refused, else (number of actions, dim Ext^1)."""
    pres = minimal_presentation(C)
    ext = ext1(C, A)
    end = end_algebra(C)
    try:
        rad = end.radical_basis()
    except UnsupportedRadical:
        return None
    actions = _actions_on_ext(pres, ext, rad)
    oracle = presentation_oracle.radical_actions(ext, end, pres)
    assert actions == oracle, C.dims
    joint = reduce(Matrix.vstack, actions, Matrix.zeros(ext.field, 0, ext.dim)).kernel_basis()
    iterated = presentation_oracle.iterated_socle(ext, oracle)
    # the same subspace, and the same first column
    assert joint.cols == iterated.cols == joint.hstack(iterated).rank(), C.dims
    if joint.cols:
        assert joint.col(0) == iterated.col(0), C.dims
    return len(actions), ext.dim


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_corpus_socles_and_sequences_match_the_iterated_socle(field):
    algs = [alg for _kind, alg in seeded_algebras(FIELDS[field])]
    if field == "Q":
        algs += [make() for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)]
    rng = random.Random(7)
    line = linear_quiver(3, FIELDS[field])
    # a sum over 1 -> 2 -> 3 carries two radical actions on a 5-dimensional Ext^1
    terms = [C for alg in algs for C in ending_terms(alg, rng)] + moved_class_terms(line)
    counts = Counter()
    for C in terms:
        if minimal_presentation(C).module_is_projective():
            continue
        A = tau(C, window=(C.lo - 4, C.hi + 6), check_verdict=False).module
        if A.is_exact:
            shape = compare_socles(C, A)
            counts["refused radical" if shape is None else "socles"] += 1
            counts["several actions"] += shape is not None and min(shape) > 1
        for direction in ("ending", "starting"):
            try:
                almost_split_sequence(C, direction)
            except MathRefusal:
                continue
            assert_same_sequence(C, direction)
            counts["sequences"] += 1
    assert counts["socles"] and counts["sequences"], counts
    if field == "Q":
        assert counts["several actions"], counts
