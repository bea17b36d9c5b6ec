"""Hom bases read off the source's presentation against the naturality system.

`ghom(M, N)` takes Hom(M, N) as the kernel of the pullback Hom(P0, N) ->
Hom(P1, N) of M's minimal presentation and lays it out in the echelon form
that pivots on the last nonzero coordinate.  The naturality system it
replaced (`hom_oracle.ghom`) is the oracle: both must give the same basis,
block for block, and the same `WindowError`.  The pairs are the simples,
projectives, radicals and injectives of seeded algebras over F_2, F_3 and Q
and of the AR-formula cases, against their shifts, cut below or above or
flagged truncated, and the modules of the tau^- orbits over the graded 2-
and 3-Kronecker quivers.  Also here: End of the 3-Kronecker module of
dimension vector (21, 55), which the naturality system needs 3,466
unknowns for, and verification, which checks the left term's
indecomposability only where it does not follow from A = tau C.
"""

import itertools

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver, WindowError, standard_module
from gradedquiver import artheory
from gradedquiver.artheory import (AlmostSplitSequence, almost_split_sequence, tau_inverse,
                                   verify_almost_split)
from gradedquiver.errors import MathRefusal, UnsupportedRadical
from gradedquiver.gmodule import GradedMorphism, zero_module
from gradedquiver.homs import _fitting_split, end_algebra, ghom, is_strongly_indecomposable

import hom_oracle
from conftest import make_fix_b, make_fix_d
from test_ar_duality import CASES, SHIFTS, finite_modules
from test_stable_homs import translates, truncations
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def outcome(M, N, route):
    """The basis blocks of Hom(M, N) by the route, or its refusal."""
    try:
        return route(M, N).basis_blocks
    except WindowError as e:
        return WindowError, str(e)


def assert_routes_agree(pairs):
    """Both routes on every pair; returns (spaces, refusals, spaces of dim >= 2)."""
    spaces = refusals = wide = 0
    for M, N in pairs:
        got = outcome(M, N, ghom)
        assert got == outcome(M, N, hom_oracle.ghom), (M.dims, N.dims, N.lo, N.hi)
        if isinstance(got, tuple):
            refusals += 1
        else:
            spaces += 1
            wide += len(got) >= 2
    return spaces, refusals, wide


def shifted_and_cut(targets):
    return [Y for X in targets for s in SHIFTS for Y in [X.shift(s)] + truncations(X.shift(s))]


def module_pairs(alg, cap):
    modules = finite_modules(alg, cap)
    return itertools.product(modules, shifted_and_cut(modules))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_homs_match_the_naturality_system(field):
    spaces = refusals = 0
    for _kind, alg in seeded_algebras(FIELDS[field]):
        got = assert_routes_agree(module_pairs(alg, 6))
        spaces += got[0]
        refusals += got[1]
    assert spaces and refusals


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_ar_case_homs_match_the_naturality_system(index):
    _name, alg, cap = CASES[index]
    modules = finite_modules(alg, cap) + translates(alg, cap)
    assert_routes_agree(itertools.product(modules, shifted_and_cut(modules)))


def kronecker(m, field=QQ):
    """The graded m-Kronecker quiver: m arrows 1 -> 2, no relations."""
    return GradedAlgebra(Quiver(["1", "2"], [(f"a{k}", "1", "2") for k in range(m)]), field, [])


def orbit(alg, vertex, steps):
    """P_vertex and its first `steps` inverse translates."""
    out = [standard_module(alg, "P", vertex, 0, (0, 1))]
    for _ in range(steps):
        out.append(tau_inverse(out[-1], check_verdict=False).module)
    return out


def dimension_vector(M):
    return tuple(sum(n for (_i, x), n in M.dims.items() if x == v) for v in ("1", "2"))


@pytest.mark.parametrize("m, steps", [(2, 3), (3, 1)])
def test_kronecker_orbit_homs_match_the_naturality_system(m, steps):
    alg = kronecker(m)
    modules = orbit(alg, "1", steps) + orbit(alg, "2", steps)
    pairs = [(M, N.shift(s)) for M, N in itertools.product(modules, repeat=2) for s in SHIFTS]
    _spaces, _refusals, wide = assert_routes_agree(pairs)
    assert wide


def test_end_of_the_3_kronecker_orbit_module_21_55():
    # tau^-2 P_2 over the 3-Kronecker quiver; the naturality system for its
    # End has 3,466 unknowns, the presentation pullback 441 columns
    M = orbit(kronecker(3), "2", 2)[-1]
    assert dimension_vector(M) == (21, 55)
    H = ghom(M, M)
    assert H.source is M and H.dim == 1
    assert end_algebra(M).is_local_with_trivial_residue()


@pytest.mark.parametrize("make, vertex", [(make_fix_d, "2"), (make_fix_b, "1"), (make_fix_b, "2")])
def test_a_zero_left_term_is_still_checked(make, vertex):
    # C projective and A = 0 = tau C: A is isomorphic to the translate, but
    # zero, so the indecomposability check still runs and still fails
    alg = make()
    P = standard_module(alg, "P", vertex, 0, (0, 3))
    Z = zero_module(alg, P.lo, P.hi)
    seq = AlmostSplitSequence(Z, P, P, GradedMorphism.zero(Z, P), GradedMorphism.identity(P),
                              {}, "ending")
    assert verify_almost_split(seq) == (
        False, ["nonsplit: extension class is zero", "left term decomposes"])


def test_skipped_left_terms_are_indecomposable(monkeypatch):
    # wherever verification skips the left term, tau C is indecomposable:
    # its End algebra, by the oracle's basis, is never split
    checked = []
    verdict = artheory.is_strongly_indecomposable

    def recorded(M, **kwargs):
        checked.append(M)
        return verdict(M, **kwargs)

    monkeypatch.setattr(artheory, "is_strongly_indecomposable", recorded)
    skipped = {}
    for _name, alg, cap in CASES:
        for C, direction in itertools.product(finite_modules(alg, cap), ("ending", "starting")):
            try:
                seq = almost_split_sequence(C, direction, cap=cap)
            except MathRefusal:
                continue
            checked.clear()
            assert verify_almost_split(seq) == (True, [])
            # the left term of the ending sequence verification reads
            A = seq.A if direction == "ending" else seq.C.dual()
            if not any(M is A for M in checked):
                H = ghom(A, A)
                assert H.basis_blocks == hom_oracle.ghom(A, A).basis_blocks
                try:
                    status = is_strongly_indecomposable(A).status
                except UnsupportedRadical:
                    # End(A) of dimension >= p over F_p, where checking A
                    # failed the sequence: no basis endomorphism splits A
                    status = "no" if any(_fitting_split(A, phi) for phi in H.morphisms()) \
                        else "unsupported"
                skipped[status] = skipped.get(status, 0) + 1
    assert "no" not in skipped and skipped.get("yes") and skipped.get("unsupported")
