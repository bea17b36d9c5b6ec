"""Differential test: the degree-by-degree resolution against the module route.

The program seeds each resolution from the minimal presentation and takes
every later syzygy piece by piece as the kernel bases of the realized
differential.  `resolution_oracle` keeps the earlier route, which builds each
syzygy as a module by covering the previous one.  Both must give the same
summands, differentials, status, length and window, or raise the same kind
of error, for the projective and the injective side, caps 0..6, on the
fixtures and on seeded algebras over Q, F_2 and F_3: acyclic and cyclic
quivers, monomial and binomial relations of degree 2, 3 and 4.  The
program's `top_basis` reads a module as its own submodule through the same
generator search; the oracle's complements the module's radical.
"""

import random

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver, standard_module
from gradedquiver.errors import GradedQuiverError
from gradedquiver.gmodule import _sum_with_offsets
from gradedquiver.presentations import minimal_presentation, resolution, top_basis

import resolution_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel
from quiver_paths import list_paths
from test_resolution_windows import seeded_algebras_with_long_relations
from test_standard_columns import seeded_algebras

CAPS = range(0, 7)


def outcome(resolve, M, cap, **kwargs):
    try:
        res = resolve(M, cap, **kwargs)
    except GradedQuiverError as e:
        return ("raised", type(e).__name__)
    return (res.status, res.length, res.window,
            [p.summands for p in res.psums], [d.to_json() for d in res.pmaps])


def compare(alg, windows=False, caps=CAPS, pad=5):
    """Both routes at every simple, both sides and every cap; the outcomes."""
    seen = []
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        for kind, M in (("proj", S), ("inj", S.dual())):
            runs = [(cap, {"pad": pad}) for cap in caps]
            if windows:
                # windows that force the retry, or exhaust it
                runs += [(cap, {"window_hi": M.hi + k, "pad": pad})
                         for cap in (2, 6) for k in (1, 2) for pad in (1, 3)]
            for cap, kwargs in runs:
                got = outcome(resolution, M, cap, **kwargs)
                want = outcome(resolution_oracle.resolution, M, cap, **kwargs)
                assert got == want, (alg.quiver.to_json_dict(), v, kind, cap, kwargs)
                seen.append(got[0])
    return seen


@pytest.mark.parametrize("make", [make_fix_a, make_fix_b, make_fix_c, make_fix_d])
def test_fixture_resolutions_match_module_route(make):
    compare(make(), windows=True)


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_seeded_resolutions_match_module_route(field):
    seen = []
    for _kind, alg in seeded_algebras({"Q": QQ, "F2": GF(2), "F3": GF(3)}[field]):
        seen += compare(alg)
    # cyclic quivers give lower bounds, acyclic ones exact values
    assert "at-least" in seen and "finite" in seen


def many_arrow_algebra(seed):
    """A seeded algebra with several arrows into one vertex: two loops at one
    vertex, or a Kronecker pair plus a loop, over Q, F_2 or F_3, with one to
    three relations of degree 2 or 3 (one path or two).  Its syzygies have
    pieces of dimension >= 2 that are partly radical, where a generator
    search reading kernel coordinates at the wrong rows picks wrong basis
    columns.  Returns None when the relations are refused."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    else:
        q = Quiver(["0", "1"], [("x", "0", "1"), ("y", "0", "1"), ("z", "1", "1")])
    field = rng.choice([QQ, GF(2), GF(3)])
    degree = rng.choice([2, 2, 3])
    ends = [(a, b) for a in q.vertices for b in q.vertices if list_paths(q, degree, a, b)]
    relations = []
    for _ in range(rng.randint(1, 3)):
        paths = list_paths(q, degree, *rng.choice(ends))
        chosen = rng.sample(paths, min(len(paths), rng.randint(1, 2)))
        relations.append(rel(q, [(rng.choice([1, 2, -1]), p.names()) for p in chosen]))
    try:
        return GradedAlgebra(q, field, relations)
    except GradedQuiverError:
        return None


def test_many_arrow_resolutions_match_module_route():
    seen = []
    for seed in range(80):
        alg = many_arrow_algebra(seed)
        if alg is not None:
            # infinite projectives: small caps and pad keep the windows short
            seen += compare(alg, caps=(1, 2, 3), pad=1)
    assert {"at-least", "finite"} <= set(seen)


def test_long_relation_resolutions_match_module_route():
    seen = []
    for alg in seeded_algebras_with_long_relations(12, start_seed=0):
        seen += compare(alg, windows=True)
    assert {"at-least", "finite", "raised"} <= set(seen)


def top_outcome(top, M):
    try:
        return [(g.degree, g.vertex, g.coords) for g in top(M)]
    except GradedQuiverError as e:
        return ("raised", type(e).__name__)


def first_syzygy(M):
    """The kernel of M's minimal cover on the presentation window, as a module."""
    pres = minimal_presentation(M)
    return pres.cover0.realize(M, pres.window).kernel()[0]


def modules_for_tops(alg):
    """Simples, their duals, windowed standard modules (exact or truncated),
    radicals, first syzygies and a direct sum, over one algebra."""
    out = []
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        out += [S, S.dual()]
        for kind in ("P", "I"):
            for window in ((-3, 3), (0, 2), (-1, 5)):
                out.append(standard_module(alg, kind, v, 0, window=window))
        K = first_syzygy(S)
        out.append(K)
        if K.is_exact:
            out.append(first_syzygy(K))
    out += [M.radical()[0] for M in out if M.exact_below and M.hi > M.lo]
    out.append(_sum_with_offsets(
        [standard_module(alg, "S", v, s).with_window(-3, 3)
         for v in alg.quiver.vertices for s in (0, -1)]
        + [standard_module(alg, "P", v, 0, window=(-3, 3)) for v in alg.quiver.vertices])[0])
    return out


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_top_basis_matches_radical_route(field):
    algs = [alg for _kind, alg in seeded_algebras({"Q": QQ, "F2": GF(2), "F3": GF(3)}[field])]
    if field == "Q":
        algs += [make() for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)]
    outcomes = set()
    for alg in algs:
        for M in modules_for_tops(alg):
            got = top_outcome(top_basis, M)
            assert got == top_outcome(resolution_oracle.top_basis, M), \
                (alg.quiver.to_json_dict(), M.dims)
            outcomes.add(got[0] if got and got[0] == "raised" else len(got) > 1)
    # refusals, one generator and several generators all occur
    assert outcomes == {"raised", False, True}
