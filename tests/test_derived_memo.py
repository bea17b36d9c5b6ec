"""Derived data is computed once per module, presentation or algebra.

Modules never change after construction, so their dual, minimal
presentation, endomorphism algebra and transpose, and the standard modules of
an algebra, are kept and handed out again.  These tests check that the kept
objects are really shared, and that sharing them changes no result: every
query gives the same answer on an algebra whose memos earlier queries filled
("warm") as on a freshly parsed algebra ("cold"), and the kept objects are
unchanged afterwards.
"""

import json
import os
import random
import sys
import threading

import pytest

from gradedquiver import GF, QQ, GradedQuiverError, direct_sum, standard_module
from gradedquiver import homs, presentations
from gradedquiver.artheory import (AlmostSplitSequence, almost_split_sequence,
                                   ar_formula_check, tau, tau_inverse, transpose,
                                   verify_almost_split)
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.homs import end_algebra
from gradedquiver.presentations import minimal_presentation, projective_cover
from gradedquiver.problem import canonical_dumps, parse_problem_dict

from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_acceptance import sample_fd_modules

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


# -- identity ----------------------------------------------------------------


def test_presentation_dual_end_and_transpose_are_computed_once():
    alg = make_fix_d()
    S = standard_module(alg, "S", "2", 0)
    assert minimal_presentation(S) is minimal_presentation(S)
    assert S.dual().dual() is S
    assert S.dual() is S.dual()
    assert end_algebra(S) is end_algebra(S)
    assert transpose(S) is transpose(S)
    assert tau(S).transpose is tau(S, check_verdict=False).transpose
    trdata = transpose(S)
    assert trdata.realize((-5, 3)) is trdata.realize((-5, 3))
    assert tau_inverse(S).presentation is minimal_presentation(S.dual())
    assert projective_cover(S) is projective_cover(S)
    assert minimal_presentation(S).cover0 is projective_cover(S)
    # a morphism of exact modules dualizes between their linked duals
    ident = GradedMorphism.identity(S)
    assert ident.dual().source is S.dual() and ident.dual().dual().target is S


def test_standard_modules_are_kept_per_algebra_and_key():
    alg = make_fix_d()
    assert standard_module(alg, "S", "1", 2) is standard_module(alg, "S", "1", 2)
    assert standard_module(alg, "P", "3", 0, window=(0, 4)) is standard_module(
        alg, "P", "3", 0, window=[0, 4])
    assert standard_module(alg, "P", "3", 0, window=(0, 4)) is not standard_module(
        alg, "P", "3", 0, window=(0, 5))
    assert standard_module(alg, "I", "3", 0, window=(-4, 0)) is not standard_module(
        alg, "I", "3", 0, window=(-5, 0))
    assert standard_module(alg, "S", "1", 0) is not standard_module(alg, "S", "1", 1)
    # the opposite algebra keeps its own table
    opp = alg.opposite()
    assert standard_module(opp, "S", "1", 0) is not standard_module(alg, "S", "1", 0)


def test_copies_of_a_module_do_not_share_memos():
    alg = make_fix_d()
    S = standard_module(alg, "S", "2", 0)
    T = S.with_window(-1, 1)
    assert minimal_presentation(T) is not minimal_presentation(S)
    assert (canonical_dumps(minimal_presentation(T).to_json_dict())
            != canonical_dumps(minimal_presentation(S).to_json_dict()))


# -- the right term of an almost split sequence ------------------------------

# simples with an almost split sequence ending there, on fixtures where the
# sequence's window is wider than the simple's
ENDING_SIMPLES = [(make_fix_b, "1"), (make_fix_c, "1"), (make_fix_d, "2")]


@pytest.mark.parametrize("make, vertex", ENDING_SIMPLES)
def test_right_term_shares_the_data_of_the_ending_module(make, vertex):
    S = standard_module(make(), "S", vertex, 0)
    S.dual()
    seq = almost_split_sequence(S, "ending")
    assert seq.C is not S and (seq.C.lo, seq.C.hi) != (S.lo, S.hi)
    assert seq.C.dims == S.dims
    assert minimal_presentation(seq.C) is minimal_presentation(S)
    assert end_algebra(seq.C) is end_algebra(S)
    assert transpose(seq.C) is transpose(S)
    # the window-dependent dual is not shared
    assert (seq.C.dual().lo, seq.C.dual().hi) == (-seq.C.hi, -seq.C.lo)


@pytest.mark.parametrize("make, vertex", ENDING_SIMPLES)
def test_split_sequence_on_warm_terms_is_refused(make, vertex):
    # the terms of a real sequence carry its memos; the split sequence on the
    # same objects must still be read off its own maps
    S = standard_module(make(), "S", vertex, 0)
    seq = almost_split_sequence(S, "ending")
    assert verify_almost_split(seq) == (True, [])
    total, injs, prjs = direct_sum([seq.A, seq.C])
    split = AlmostSplitSequence(seq.A, total, seq.C, injs[0], prjs[1], {}, "ending")
    ok, failures = verify_almost_split(split)
    assert not ok
    assert "nonsplit: extension class is zero" in failures, failures
    assert verify_almost_split(seq) == (True, [])


def record_builds(monkeypatch):
    """{kind: [what it was built for]} for every presentation, End algebra and
    cokernel built from now on."""
    built = {"presentation": [], "end": [], "cokernel": []}
    make_presentation = presentations._minimal_presentation
    end_init = homs.EndAlgebra.__init__
    cokernel = GradedMorphism.cokernel

    def presentation_of(M):
        built["presentation"].append(M)
        return make_presentation(M)

    def end_of(self, homspace):
        built["end"].append(homspace.source)
        end_init(self, homspace)

    def cokernel_of(self):
        built["cokernel"].append(self)
        return cokernel(self)

    monkeypatch.setattr(presentations, "_minimal_presentation", presentation_of)
    monkeypatch.setattr(homs.EndAlgebra, "__init__", end_of)
    monkeypatch.setattr(GradedMorphism, "cokernel", cokernel_of)
    return built


def builds_for(built, S):
    """The recorded builds for S or a re-windowed copy of it, and the
    cokernels of its transpose's realizations."""
    def is_like_S(M):
        return M.algebra is S.algebra and M.dims == S.dims

    realized = list(transpose(S).d._realized.values())
    return {"presentation": [M for M in built["presentation"] if is_like_S(M)],
            "end": [M for M in built["end"] if is_like_S(M)],
            "cokernel": [m for m in built["cokernel"] if any(m is r for r in realized)]}


@pytest.mark.parametrize("make, vertex", ENDING_SIMPLES)
def test_verifying_an_ending_sequence_builds_nothing_again_for_its_right_term(
        make, vertex, monkeypatch):
    S = standard_module(make(), "S", vertex, 0)
    built = record_builds(monkeypatch)
    seq = almost_split_sequence(S, "ending")
    # the guard sees the builds: the construction makes each of them once
    assert {k: len(v) for k, v in builds_for(built, S).items()} == \
        {"presentation": 1, "end": 1, "cokernel": 1}
    for made in built.values():
        made.clear()
    assert verify_almost_split(seq) == (True, [])
    assert builds_for(built, S) == {"presentation": [], "end": [], "cokernel": []}


# simples with an almost split sequence starting there
STARTING_SIMPLES = [(make_fix_b, "2"), (make_fix_c, "4"), (make_fix_d, "2")]


@pytest.mark.parametrize("make, vertex", STARTING_SIMPLES)
def test_verifying_a_starting_sequence_builds_no_end_algebra(make, vertex, monkeypatch):
    # a starting sequence is verified on its dual, the ending sequence at D N
    # over the opposite, whose terms are the ones the construction built
    N = standard_module(make(), "S", vertex, 0)
    built = record_builds(monkeypatch)
    seq = almost_split_sequence(N, "starting")
    # the left term's dual is the right term of the opposite-side sequence,
    # which shares D N's presentation
    assert minimal_presentation(seq.A.dual()) is minimal_presentation(N.dual())
    assert {k: len(v) for k, v in builds_for(built, N.dual()).items()} == \
        {"presentation": 1, "end": 1, "cokernel": 1}
    for made in built.values():
        made.clear()
    assert verify_almost_split(seq) == (True, [])
    assert builds_for(built, N.dual()) == {"presentation": [], "end": [], "cokernel": []}
    # nothing else either: Hom(D N, D E) is read off D N's presentation, and
    # the translate term D C is tau of D N, so indecomposable without an End
    assert built["presentation"] == [] and built["end"] == []


def test_concurrent_first_use_hands_out_one_object():
    # insert-once: threads racing on an empty memo may each compute, but all
    # of them must get the one value that is kept
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(4):
            alg = make_fix_d()
            S = standard_module(alg, "S", str(trial), 0)
            got = [None] * 8

            def work(k):
                got[k] = (minimal_presentation(S), S.dual(), end_algebra(S))

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for k in range(8):
                assert all(a is b for a, b in zip(got[k], got[0])), (trial, k)
            assert got[0][0] is minimal_presentation(S)
    finally:
        sys.setswitchinterval(old)


# -- warm against cold ---------------------------------------------------------


def _refusal(e):
    return ("refused", type(e).__name__, str(e))


def _module(problem, ref):
    if ref[0] == "named":
        return problem.module(ref[1])
    _s, v, shift = ref
    return standard_module(problem.algebra, "S", v, shift)


def _ars(M, direction):
    try:
        seq = almost_split_sequence(M, direction)
    except GradedQuiverError as e:
        return _refusal(e)
    return canonical_dumps(seq.to_json_dict()), verify_almost_split(seq)


def _translate(fn, M):
    try:
        t = fn(M, check_verdict=False)
    except GradedQuiverError as e:
        return _refusal(e)
    m = t.module
    return sorted(m.dims.items()), (m.lo, m.hi, m.exact_below, m.exact_above)


def _ar_formula(M, X):
    try:
        return ar_formula_check(M, X)
    except GradedQuiverError as e:
        return _refusal(e)


def queries(refs, others):
    """(label, module refs, evaluator) for every compared result."""
    out = []
    for m in refs:
        for direction in ("ending", "starting"):
            out.append((("ars", m, direction), (m,),
                        lambda M, d=direction: _ars(M, d)))
        out.append((("tau", m), (m,), lambda M: _translate(tau, M)))
        out.append((("tau-inverse", m), (m,), lambda M: _translate(tau_inverse, M)))
        for x in others:
            out.append((("ar-formula", m, x), (m, x), _ar_formula))
    return out


def snapshot(M):
    """JSON of a module, its dual and its presentation, where defined."""
    out = [canonical_dumps(M.to_json_dict())]
    for derive in (lambda: M.dual(), lambda: minimal_presentation(M)):
        try:
            out.append(canonical_dumps(derive().to_json_dict()))
        except GradedQuiverError as e:
            out.append(_refusal(e))
    return out


def assert_warm_matches_cold(data, refs, others):
    qs = queries(refs, others)
    cold = {}
    for label, mrefs, fn in qs:
        problem = parse_problem_dict(data)
        cold[label] = fn(*[_module(problem, r) for r in mrefs])
    problem = parse_problem_dict(data)
    modules = {r: _module(problem, r) for r in set(refs) | set(others)}
    before = {r: snapshot(M) for r, M in modules.items()}
    kept = {}
    for r, M in modules.items():
        try:
            kept[r] = minimal_presentation(M)
        except GradedQuiverError:
            pass
    # the second pass runs with every memo filled
    for _ in range(2):
        for label, mrefs, fn in qs:
            assert fn(*[modules[r] for r in mrefs]) == cold[label], label
    for r, M in modules.items():
        assert snapshot(M) == before[r], r
        if r in kept:
            assert minimal_presentation(M) is kept[r], r


def _fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["fix_a.json", "fix_b.json", "fix_c.json", "fix_d.json"])
def test_fixture_results_do_not_depend_on_memos(name):
    data = _fixture(name)
    refs = [("named", m) for m in sorted(data["modules"])]
    assert_warm_matches_cold(data, refs, refs)


# binomial relations p + c*q need units c: over F_2 only c = 1
COEFFS = {"Q": ("1", "-1", "2", "-2"), "Fp:2": ("1",), "Fp:3": ("1", "-1", "2")}


def random_problem(seed):
    """A seeded acyclic algebra on 3-4 vertices with up to two parallel
    arrows, whose relations have degree 2 or 3: binomials p + c*q of two
    parallel paths, or monomials.  Seeds cycle through Q, F_2 and F_3, and
    each draw is kept only if it has a binomial relation of degree 2 (seeds
    0-2 mod 6) or 3 (seeds 3-5 mod 6)."""
    rng = random.Random(seed)
    field = ("Q", "Fp:2", "Fp:3")[seed % 3]
    wanted = 2 + (seed // 3) % 2
    while True:
        data = _draw_problem(rng, field)
        if any(len(r["paths"]) == 2 and len(r["paths"][0]) == wanted
               for r in data["relations"]):
            return data


def _draw_problem(rng, field):
    nv = rng.randint(3, 4)
    while True:
        arrows = []
        for _ in range(nv + rng.randint(0, 1)):
            s = rng.randrange(nv - 1)
            arrows.append((s, rng.randrange(s + 1, nv)))
        if max(arrows.count(a) for a in arrows) <= 2:
            break
    named = [(f"a{k}", s, t) for k, (s, t) in enumerate(sorted(arrows))]
    # paths as arrow names, last applied first, with their end points
    paths = {1: [([a], s, t) for a, s, t in named]}
    for length in (2, 3):
        paths[length] = [([b] + p, s, t) for p, s, m in paths[length - 1]
                         for b, m2, t in named if m2 == m]
    relations = []
    dead = []   # monomial relations: the longer paths through them are zero
    for length in (2, 3):
        by_ends = {}
        for p, s, t in paths[length]:
            if not any(_contains(p, d) for d in dead):
                by_ends.setdefault((s, t), []).append(p)
        for key in sorted(by_ends):
            group = by_ends[key]
            rng.shuffle(group)
            while group:
                r = rng.random()
                if len(group) >= 2 and r < 0.5:
                    relations.append({"paths": [group.pop(), group.pop()],
                                      "coeffs": ["1", rng.choice(COEFFS[field])]})
                elif r < 0.7:
                    dead.append(group.pop())
                    relations.append({"paths": [dead[-1]], "coeffs": ["1"]})
                else:
                    group.pop()
    return {"field": field,
            "quiver": {"vertices": [str(v) for v in range(nv)],
                       "arrows": [{"name": a, "from": str(s), "to": str(t)}
                                  for a, s, t in named]},
            "relations": relations, "modules": {}}


def _contains(path, sub):
    n = len(sub)
    return any(path[i:i + n] == sub for i in range(len(path) - n + 1))


@pytest.mark.parametrize("seed", range(12))
def test_random_algebra_results_do_not_depend_on_memos(seed):
    data = random_problem(seed)
    vertices = data["quiver"]["vertices"]
    refs = [("S", v, 0) for v in vertices]
    others = [("S", w, s) for w in vertices for s in (-1, 0, 1)]
    assert_warm_matches_cold(data, refs, others)


def test_random_algebras_cover_binomials_of_degree_two_and_three_over_each_field():
    seen = set()
    for seed in range(12):
        data = random_problem(seed)
        seen |= {(data["field"], len(r["paths"][0]))
                 for r in data["relations"] if len(r["paths"]) == 2}
    assert seen == {(f, d) for f in COEFFS for d in (2, 3)}


# -- shifted modules ------------------------------------------------------------


def shift_oracle_algebras():
    """The fixtures over Q and F_3, and the seeded algebras of
    `random_problem` over Q, F_2 and F_3 with binomial relations of degree 2
    and 3."""
    algs = [make(field) for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)
            for field in (QQ, GF(3))]
    return algs + [parse_problem_dict(random_problem(seed)).algebra for seed in range(6)]


@pytest.mark.parametrize("index", range(14))
def test_shifted_cover_and_presentation_match_a_fresh_build(index):
    """M<s> is presented from scratch, and its cover and presentation are
    M's shifted by s: the summands of p0 and p1 shift, the generators move
    s degrees down with the same coordinates, the d1 entries are equal, and
    the window shifts."""
    alg = shift_oracle_algebras()[index]
    rng = random.Random(index)
    modules = [standard_module(alg, "S", v, 0) for v in alg.quiver.vertices]
    modules += [M.dual() for M in modules] + sample_fd_modules(alg, rng, 6)
    for M in modules:
        if not M.is_exact:
            continue
        cover0, pres0 = projective_cover(M), minimal_presentation(M)
        for s in (-2, 1, 3):
            shifted = M.shift(s)
            cover = projective_cover(shifted)
            assert cover.psum.summands == cover0.psum.shift(s).summands
            assert cover.generators == [(g.degree - s, g.vertex, g.coords)
                                        for g in cover0.generators]
            pres = minimal_presentation(shifted)
            assert pres.cover0 is cover
            want = pres0.d1.shift(s)
            assert (pres.p0.summands, pres.p1.summands) == (want.dst.summands,
                                                            want.src.summands)
            assert pres.d1.entries == pres0.d1.entries
            assert pres.window == (pres0.window[0] - s, pres0.window[1] - s)


def test_a_shifted_simple_is_the_unshifted_one_shifted():
    alg = make_fix_d()
    S0 = standard_module(alg, "S", "2", 0)
    for s in (-1, 2):
        S = standard_module(alg, "S", "2", s)
        assert S is standard_module(alg, "S", "2", s)
        assert (S.lo, S.hi, S.dims) == (-s, -s, {(-s, "2"): 1})
        T = S0.shift(s)
        assert (S.lo, S.hi, S.dims, S.maps) == (T.lo, T.hi, T.dims, T.maps)
