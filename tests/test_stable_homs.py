"""Stable hom dimensions read off the source's minimal presentation.

`underline_hom_dim(M, N)` takes Hom(M, Y) as the kernel of the pullback
Hom(P0, Y) -> Hom(P1, Y) of M's minimal presentation, for Y = N and for the
realized projective cover of N, and solves no naturality system.  The
naturality route it replaced (`naturality_underline_hom_dim`) is the oracle,
on seeded acyclic binomial algebras with relations of degree 2 and 3 and on
k[x]/(x^4), over Q and F_3: sources are simples, projectives, their radicals
and the translates of the simples, targets are shifted simples, projectives
and injectives, each pair also dualized.  Truncated targets give the
oracle's value or its WindowError.  Also here: `ar_formula_check` solves no
naturality system, and `find_isomorphism` returns the identity between
modules with equal data without a search, and otherwise returns a basis
morphism of Hom(M, N).
"""

import itertools
import os

import pytest

from gradedquiver import GF, QQ, GradedModule, WindowError, standard_module
from gradedquiver import artheory, homs
from gradedquiver.artheory import ar_formula_check, find_isomorphism, tau
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.homs import underline_hom_dim
from gradedquiver.linalg import Matrix
from gradedquiver.problem import parse_problem, parse_problem_dict

from conftest import naturality_underline_hom_dim
from test_ar_duality import SHIFTS, finite_modules, loop_algebra
from test_derived_memo import random_problem
from test_translate_windows import truncated_polynomial

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def cases():
    """(name, algebra, cap): random_problem seeds 0, 2, 3 and 5 are Q and
    F_3 with a binomial relation of degree 2, then of degree 3."""
    out = [(f"seed{seed}", parse_problem_dict(random_problem(seed)).algebra, 10)
           for seed in (0, 2, 3, 5)]
    return out + [("x^4", truncated_polynomial(4), 4),
                  ("x^4-F3", truncated_polynomial(4, GF(3)), 4)]


CASES = cases()


def translates(alg, cap):
    """The nonzero exact translates of the simples."""
    out = []
    for v in alg.quiver.vertices:
        T = tau(standard_module(alg, "S", v, 0), cap=cap, check_verdict=False).module
        if T.is_exact and not T.is_zero():
            out.append(T)
    return out


def sources_and_targets(alg, cap):
    modules = finite_modules(alg, cap)
    targets = [X.shift(s) for X in modules for s in SHIFTS]
    return modules + translates(alg, cap), targets


def outcome(fn, M, N):
    try:
        return fn(M, N)
    except WindowError:
        return WindowError


def truncations(X):
    """X cut by one degree at either end, and X with a side flagged
    truncated but its pieces kept."""
    out = [X.with_window(lo, hi) for lo, hi in ((X.lo + 1, X.hi), (X.lo, X.hi - 1))
           if lo <= hi]
    for below, above in ((False, True), (True, False)):
        out.append(GradedModule(X.algebra, X.lo, X.hi, X.dims, X.maps,
                                exact_below=below, exact_above=above, check=False))
    return out


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_underline_hom_matches_the_naturality_route(index):
    _name, alg, cap = CASES[index]
    sources, targets = sources_and_targets(alg, cap)
    nonzero = 0
    for M, X in itertools.product(sources, targets):
        for A, B in ((M, X), (M.dual(), X.dual())):
            got = underline_hom_dim(A, B)
            assert got == naturality_underline_hom_dim(A, B), (A.dims, B.dims)
            nonzero += got > 0
    # the sweep sees nonzero stable homs, not just zeros
    assert nonzero


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_truncated_targets_give_the_oracle_value_or_its_refusal(index):
    _name, alg, cap = CASES[index]
    sources, targets = sources_and_targets(alg, cap)
    seen = set()
    for M, X in itertools.product(sources, targets):
        for Y in truncations(X):
            got = outcome(underline_hom_dim, M, Y)
            assert got == outcome(naturality_underline_hom_dim, M, Y), (M.dims, Y.dims)
            seen.add(got is WindowError)
    assert seen == {False, True}


def formula_algebras():
    fixtures = [(parse_problem(os.path.join(FIXTURES, f"fix_{c}.json")).algebra, 10)
                for c in "abd"]
    return fixtures + [(alg, cap) for _name, alg, cap in CASES] + [(loop_algebra(), 10)]


def test_ar_formula_check_solves_no_naturality_system(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("ar_formula_check built a Hom basis")

    pairs = []
    for alg, cap in formula_algebras():
        modules = finite_modules(alg, cap)
        pairs += [(M, X.shift(s)) for M, X in itertools.product(modules, repeat=2)
                  for s in SHIFTS]
    # fix_c (13 vertices): its simples against their shifts
    alg = parse_problem(os.path.join(FIXTURES, "fix_c.json")).algebra
    simples = [standard_module(alg, "S", v, 0) for v in alg.quiver.vertices]
    pairs += [(M, X.shift(s)) for M, X in itertools.product(simples, repeat=2) for s in SHIFTS]
    monkeypatch.setattr(homs, "ghom", refuse)
    nonzero = 0
    for M, X in pairs:
        rep = ar_formula_check(M, X)
        assert rep["formula1_holds"] and rep["formula2_holds"], (M.dims, X.dims, rep)
        nonzero += rep["underline_hom"] > 0
    assert nonzero


def change_basis(T, c):
    """A copy of T with the piece (i, x) re-based by c^i times the unit upper
    triangular matrix of ones: isomorphic to T, with every nonzero arrow map
    changed (scaled by c, conjugated)."""
    f = T.algebra.field

    def base(i, n):
        return Matrix(f, n, n, [[c ** i if r <= k else 0 for k in range(n)] for r in range(n)])

    bases = {(i, x): base(i - T.lo, n) for (i, x), n in T.dims.items()}
    maps = {}
    for (name, i), m in T.maps.items():
        a = T.algebra.quiver.arrow_by_name[name]
        inv = bases[(i, a.source)].solve(Matrix.identity(f, m.cols))
        maps[(name, i)] = bases[(i + 1, a.target)] @ m @ inv
    return GradedModule(T.algebra, T.lo, T.hi, T.dims, maps)


def iso_cases():
    """Translates with a nonzero arrow map, over Q and F_3."""
    out = []
    for _name, alg, cap in CASES:
        out += [T for T in translates(alg, cap)
                if not all(m.is_zero() for m in T.maps.values())]
    return out


def test_find_isomorphism_of_equal_data_is_the_identity(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("find_isomorphism searched between equal modules")

    monkeypatch.setattr(artheory, "ghom", refuse)
    monkeypatch.setattr(homs, "ghom", refuse)
    checked = 0
    for T in iso_cases():
        copy = GradedModule(T.algebra, T.lo, T.hi, T.dims, T.maps)
        assert copy is not T
        for M, N in ((T, T), (T, copy)):
            iso = find_isomorphism(M, N)
            assert iso is not None and iso.source is M and iso.target is N
            assert iso == GradedMorphism.identity(M)
            GradedMorphism(M, N, iso.blocks)  # natural: the check raises otherwise
            checked += 1
    assert checked


def test_find_isomorphism_searches_between_different_modules():
    cases = iso_cases()
    assert {T.algebra.field for T in cases} == {QQ, GF(3)}
    for T in cases:
        moved = change_basis(T, 2)
        assert moved.dims == T.dims and moved.maps != T.maps
        iso = find_isomorphism(T, moved)
        assert iso is not None and iso.is_isomorphism()
        GradedMorphism(T, moved, iso.blocks)  # natural: the check raises otherwise
        # the same pieces with every arrow acting by zero: not isomorphic
        flat = GradedModule(T.algebra, T.lo, T.hi, T.dims, {})
        assert find_isomorphism(T, flat) is None


def test_find_isomorphism_returns_a_hom_basis_morphism():
    # End of a translate of a simple is local, so some basis map of
    # Hom(T, moved) is an isomorphism, and it is the one returned
    checked = set()
    for T in iso_cases():
        f = T.algebra.field
        for c in (2, -1, 3, 4, 7):
            if not f.of(c):
                continue
            moved = change_basis(T, c)
            if moved.maps == T.maps:
                continue
            iso = find_isomorphism(T, moved)
            H = homs.ghom(T, moved)
            assert iso is not None and iso.is_isomorphism()
            assert any(iso == H.morphism(k) for k in range(H.dim)), (T.dims, c)
            checked.add((f, f.of(c)))
    assert {f for f, _c in checked} == {QQ, GF(3)}
    assert len(checked) >= 6
