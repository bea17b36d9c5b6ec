"""The AR formulas and right boundedness read through duality.

`ar_formula_check(M, X)` computes dim underline Hom(M, X) and
dim Ext^1(X, tau M) = dim Ext^1(Tr M, D X) over the opposite algebra, off the
unrealized transpose, and its second formula is the first on (D M, D X).  The
routes it replaced are the oracles here, with the stable homs by naturality
systems (`naturality_underline_hom_dim`):
- formula 1: tau M realized at the generator degrees of X's presentation, and
  Ext^1(X, tau M) on the window (min(X.lo, lo), max(X.hi + 1, hi));
- formula 2: overline Hom(X, M) by duality and Ext^1(tau^- M, X) off the
  transpose of D M.
Both run on seeded acyclic binomial algebras over Q and F_3, on k[x]/(x^n)
at cap n and on quivers with a loop, against X at shifts -1, 0 and 1.  Also
here: the right side of `boundedness` against the row scan it replaced, and
`ext1` against the windowed Ext route (`ext_window_oracle`) on the window
`ext1` used to take.  The old formulas read Ext^1 by that route too.
"""

import itertools
import os

import pytest

from gradedquiver import GF, QQ, Quiver, GradedAlgebra, standard_module
from gradedquiver import artheory, presentations
from gradedquiver.artheory import ar_formula_check, tau, transpose
from gradedquiver.homs import ext1
from gradedquiver.presentations import minimal_presentation
from gradedquiver.problem import parse_problem, parse_problem_dict

from conftest import (make_fix_a, make_fix_b, make_fix_c, make_fix_d,
                      naturality_underline_hom_dim, rel)
from ext_window_oracle import WindowedExtSpace
from test_derived_memo import random_problem
from test_standard_columns import seeded_algebras
from test_translate_windows import truncated_polynomial

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SHIFTS = (-1, 0, 1)


def loop_algebra(field=QQ):
    """A loop a at 1 with a^3 = 0, and an arrow b: 1 -> 2."""
    q = Quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("a", "a", "a"))])])


def old_ext1(M, N):
    """Ext^1(M, N) on the window ext1 used to take."""
    return WindowedExtSpace(minimal_presentation(M).d1, N, (min(M.lo, N.lo), max(M.hi + 1, N.hi)))


def old_formula1(M, X, cap):
    """dim underline Hom(M, X) and dim Ext^1(X, tau M), tau M realized."""
    pres = minimal_presentation(X)
    degrees = [-s for _a, s in pres.p0.summands + pres.p1.summands]
    t = tau(M, window=(min(degrees), max(degrees)) if degrees else None, cap=cap,
            check_verdict=False)
    hom = naturality_underline_hom_dim(M, X)
    if t.is_zero():
        return hom, 0
    # over fix_a tau M is cut below, outside the degrees ExtSpace reads
    T = t.module
    rhs = WindowedExtSpace(pres.d1, T, (min(X.lo, T.lo), max(X.hi + 1, T.hi))).dim
    return hom, rhs


def old_formula2(M, X):
    """dim overline Hom(X, M) = dim underline Hom(D M, D X) and
    dim Ext^1(tau^- M, X)."""
    trd = transpose(M.dual())
    hom = naturality_underline_hom_dim(M.dual(), X.dual())
    return hom, 0 if trd.is_zero() else WindowedExtSpace(trd.d, X).dim


def finite_modules(alg, cap):
    """The simples, and the projectives and injectives whose column heights
    are known at the cap, with the nonzero radicals of the projectives."""
    out = []
    for v in alg.quiver.vertices:
        out.append(standard_module(alg, "S", v, 0))
        h = alg.height(v, cap)
        if h is not None:
            P = standard_module(alg, "P", v, 0, (0, h))
            out.append(P)
            rad = P.radical()[0]
            if not rad.is_zero():
                out.append(rad)
        h = alg.opposite().height(v, cap)
        if h is not None:
            out.append(standard_module(alg, "I", v, 0, (-h, 0)))
    return out


def ar_cases():
    """(name, algebra, cap): binomial algebras of degree 2 and 3 over Q and
    F_3, k[x]/(x^n) for n = 4, 8, 20 at cap n, and two quivers with a loop."""
    cases = [(f"seed{seed}", parse_problem_dict(random_problem(seed)).algebra, 10)
             for seed in (0, 2, 3, 5)]
    cases += [(f"x^{n}", truncated_polynomial(n), n) for n in (4, 8, 20)]
    cases += [("loop", loop_algebra(), 10), ("loop-F3", loop_algebra(GF(3)), 10),
              ("fix_a", make_fix_a(), 10)]
    return cases


CASES = ar_cases()


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_ar_formulas_match_the_translate_routes(index):
    _name, alg, cap = CASES[index]
    seen = set()
    modules = finite_modules(alg, cap)
    for M in modules:
        if not M.is_exact:
            continue
        targets = [X.shift(s) for X in modules for s in SHIFTS]
        for X in targets:
            rep = ar_formula_check(M, X)
            want1 = old_formula1(M, X, cap)
            want2 = old_formula2(M, X)
            got1 = (rep["underline_hom"], rep["ext_against_tau"])
            got2 = (rep["overline_hom"], rep["ext_of_tau_inverse"])
            assert got1 == want1, (M.dims, X.dims)
            assert got2 == want2, (M.dims, X.dims)
            assert rep["formula1_holds"] and rep["formula2_holds"], (M.dims, X.dims, rep)
            seen.update(k for k, v in rep.items() if v and not isinstance(v, bool))
    # the sweep sees nonzero values of both formulas, not just zeros
    assert seen == {"underline_hom", "ext_against_tau", "overline_hom", "ext_of_tau_inverse"}


def test_ar_formula_check_realizes_no_translate(monkeypatch):
    presented = []
    real = presentations.minimal_presentation

    def recording(M):
        presented.append(M)
        return real(M)

    def refuse(*_args, **_kwargs):
        raise AssertionError("ar_formula_check realized a translate")

    monkeypatch.setattr(artheory, "minimal_presentation", recording)
    monkeypatch.setattr(presentations, "minimal_presentation", recording)
    for name in ("tau", "tau_inverse", "_translate"):
        monkeypatch.setattr(artheory, name, refuse)
    checked = 0
    for _name, alg, cap in CASES[:4] + CASES[-3:]:  # the seeded algebras and the loops
        modules = finite_modules(alg, cap)
        for M, X in itertools.product(modules, repeat=2):
            if X is M:
                continue
            presented.clear()
            ar_formula_check(M, X)
            # M's presentation (for Tr M) and D M's: never X's or D X's
            assert presented and all(N is M or N is M.dual() for N in presented), (M.dims, X.dims)
            checked += 1
    assert checked > 100


# -- ext1 against the windowed route on the old window ------------------------------


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_ext1_window_matches_the_old_window(index):
    name, alg, cap = CASES[index]
    modules = finite_modules(alg, cap)
    nonzero = 0
    for M, N in itertools.product(modules, repeat=2):
        for s in SHIFTS:
            target = N.shift(s)
            new, old = ext1(M, target), old_ext1(M, target)
            assert (new.dim, new.size) == (old.dim, old.size), (M.dims, target.dims)
            assert [tuple(r) for r in new.reps] == [tuple(r) for r in old.reps]
            if new.dim == 0:
                continue
            nonzero += 1
            f = new.field
            # each rep, and a combination of the reps plus a coboundary
            tuples = [list(r) for r in new.reps]
            combo = [f.zero()] * new.size
            for k, r in enumerate(new.reps):
                combo = [f.add(c, f.mul(f.of(k + 2), v)) for c, v in zip(combo, r)]
            if new.B.cols:
                combo = [f.add(c, v) for c, v in zip(combo, new.B.col(0))]
            tuples.append(combo)
            for t in tuples:
                assert WindowedExtSpace.class_coordinates(new, t) == old.class_coordinates(t)
    if name.startswith(("seed", "x^")):
        assert nonzero, name


# -- right boundedness as the opposite's left side -----------------------------------


def row_scan(alg, cap):
    """The right side as scanned before: dims of (e_v A)_d, summed over the
    pieces ending at v, up to the first empty degree."""
    per_vertex = {}
    for v in alg.quiver.vertices:
        profile = []
        for d in range(1, cap + 1):
            profile.append(sum(alg.dim_piece(d, x, v) for x in alg.quiver.vertices))
            if profile[-1] == 0:
                per_vertex[v] = {"status": "finite", "total_dim": 1 + sum(profile),
                                 "vanishes_at": d}
                break
        else:
            per_vertex[v] = {"status": "unbounded-at-cap", "profile": profile}
    finite = all(pv["status"] == "finite" for pv in per_vertex.values())
    out = {"status": "finite" if finite else "unbounded-at-cap", "per_vertex": per_vertex}
    if finite:
        out["total_dim"] = sum(pv["total_dim"] for pv in per_vertex.values())
    return out


def boundedness_algebras():
    fixtures = [parse_problem(os.path.join(FIXTURES, f"fix_{c}.json")).algebra for c in "abcd"]
    made = [make_fix_a(), make_fix_b(), make_fix_c(), make_fix_d(GF(3)), loop_algebra(),
            truncated_polynomial(4)]
    seeded = [alg for field in (QQ, GF(2), GF(3)) for _kind, alg in seeded_algebras(field)]
    return fixtures + made + seeded


def test_right_boundedness_matches_the_row_scan():
    statuses = set()
    for alg in boundedness_algebras():
        for cap in range(1, 7):
            got = alg.boundedness(cap)
            assert got["right"] == row_scan(alg, cap), (alg, cap)
            statuses.add(got["right"]["status"])
    assert statuses == {"finite", "unbounded-at-cap"}
