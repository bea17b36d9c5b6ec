"""Differential tests: standard modules as re-indexed column data.

P_a<s> is read off the per-vertex column A e_a, I_a<s> is the dual of the
opposite P°_a<-s>, and cover morphisms map each representative from the image
of its tail.  `standard_oracle` keeps the earlier direct constructions; both
must give the same windows, flags, dims and maps on the fixtures and on
seeded acyclic and cyclic algebras with monomial and binomial relations of
degree 2-3 over Q, F_2 and F_3.
"""

import itertools
import os
import random

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, InputError, Quiver, WindowError, standard_module
from gradedquiver.problem import parse_problem

import standard_oracle
from resolution_oracle import projective_cover
from conftest import make_fix_c, rel
from quiver_paths import list_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
SHIFTS = range(-3, 4)
# against generators in degrees -3..3: windows that miss the support below
# or above, cut it below or above, straddle the generator, or hold it all
WINDOWS = [(-7, -4), (-4, -1), (-3, 0), (-2, 2), (0, 3), (1, 4), (3, 6), (4, 7), (-6, 6)]


def _fixture(name):
    return parse_problem(os.path.join(FIXTURES, f"{name}.json"))


def random_algebra(seed, field, cyclic, binomial, degree):
    """A seeded algebra on 2-4 vertices with relations of the given degree.

    The quiver is a line with one extra arrow and, when `cyclic`, an arrow
    closing the line into a cycle, so that projectives are infinite.  Each of
    one or two relations is a single path (monomial) or a combination of two
    parallel paths with nonzero coefficients (binomial).  Returns None when
    the quiver has no paths for such a relation.
    """
    rng = random.Random(seed)
    nv = rng.randint(2, 4)
    vertices = [str(i) for i in range(nv)]
    arrows = [(f"a{i}", vertices[i], vertices[i + 1]) for i in range(nv - 1)]
    i, j = sorted(rng.sample(range(nv), 2))
    arrows.append(("b", vertices[i], vertices[j]))
    if cyclic:
        arrows.append(("c", vertices[-1], vertices[0]))
    q = Quiver(vertices, arrows)
    units = [c for c in range(-3, 4) if c % (field.characteristic or 7)]
    relations = []
    for _ in range(rng.randint(1, 2)):
        ends = [(x, y) for x in vertices for y in vertices
                if len(list_paths(q, degree, x, y)) >= (2 if binomial else 1)]
        if not ends:
            return None
        paths = list_paths(q, degree, *rng.choice(ends))
        chosen = rng.sample(paths, 2 if binomial else 1)
        relations.append(rel(q, [(rng.choice(units), p.names()) for p in chosen]))
    return GradedAlgebra(q, field, relations)


def seeded_algebras(field):
    """One algebra for each (cyclic, binomial, relation degree) combination."""
    out = []
    for cyclic, binomial, degree in itertools.product((False, True), (False, True), (2, 3)):
        for seed in itertools.count(100 * degree + 10 * cyclic + binomial):
            alg = random_algebra(seed, field, cyclic, binomial, degree)
            if alg is not None:
                out.append(((cyclic, binomial, degree), alg))
                break
    return out


def assert_same_module(got, want):
    assert got.algebra is want.algebra
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert (got.exact_below, got.exact_above) == (want.exact_below, want.exact_above)
    assert got.dims == want.dims
    assert got.maps == want.maps


def assert_standard_modules_match(alg):
    for vertex in alg.quiver.vertices:
        for s in SHIFTS:
            for window in WINDOWS:
                for kind in ("P", "I", "S"):
                    try:
                        want = standard_oracle.standard_module(alg, kind, vertex, s, window)
                    except WindowError:
                        with pytest.raises(WindowError):
                            standard_module(alg, kind, vertex, s, window)
                        continue
                    got = standard_module(alg, kind, vertex, s, window)
                    assert_same_module(got, want)


@pytest.mark.parametrize("name", ["fix_a", "fix_b", "fix_c", "fix_d"])
def test_fixture_standard_modules_match_oracle(name):
    assert_standard_modules_match(_fixture(name).algebra)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_standard_modules_match_oracle(field):
    for _kind, alg in seeded_algebras(FIELDS[field]):
        assert_standard_modules_match(alg)


def test_seeded_algebras_include_infinite_projectives():
    for field in FIELDS.values():
        infinite = {(cyclic, any(alg.column_dim(12, v) for v in alg.quiver.vertices))
                    for (cyclic, _binomial, _degree), alg in seeded_algebras(field)}
        assert infinite == {(False, False), (True, False), (True, True)}


def test_missing_window_and_unknown_kind_are_refused(fix_a):
    for kind in ("P", "I"):
        with pytest.raises(WindowError):
            standard_module(fix_a, kind, "1", 0)
    with pytest.raises(InputError, match="unknown standard module kind"):
        standard_module(fix_a, "Q", "1", 0, (0, 1))


def test_injective_is_dual_of_opposite_projective(fix_c):
    opp = fix_c.opposite()
    for vertex in ("4", "13"):
        I = standard_module(fix_c, "I", vertex, 1, (-8, 0))
        P = standard_module(opp, "P", vertex, -1, (0, 8))
        assert_same_module(I, P.dual_windowed())


def _cyclic_algebra():
    """The oriented 3-cycle with a parallel arrow and one binomial relation:
    every projective is infinite."""
    q = Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2"), ("c", "2", "0"),
                                 ("d", "0", "1")])
    return GradedAlgebra(q, QQ, [rel(q, [(1, ("b", "a")), (-1, ("b", "d"))])])


@pytest.mark.parametrize("make", [make_fix_c, _cyclic_algebra],
                         ids=["finite", "cyclic"])
def test_shifts_reuse_the_first_column(make):
    """Ten shifts of one projective over the same column degrees: only the
    first realization makes multiplication matrices or looks up pieces."""
    alg = make()
    vertex = alg.quiver.vertices[0]
    calls = {"mult": 0, "piece": 0}

    def counting(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    alg.left_mult_matrix = counting("mult", alg.left_mult_matrix)
    alg.piece = counting("piece", alg.piece)
    for s in range(10):
        P = standard_module(alg, "P", vertex, s, (-s - 1, -s + 6))
        if s == 0:
            first, P0 = dict(calls), P
            assert first["mult"] > 0
        assert P.dims == {(i - s, x): n for (i, x), n in P0.dims.items()}
        assert P.maps == {(name, i - s): m for (name, i), m in P0.maps.items()}
        assert P.exact_above == P0.exact_above
    assert calls == first


def _cover_cases(alg):
    q = alg.quiver
    for v in q.vertices:
        yield standard_module(alg, "S", v, 0)
        yield standard_module(alg, "I", v, 0, (-5, 0))
        yield standard_module(alg, "P", v, 1, (-1, 3))


def assert_covers_match(modules):
    checked = 0
    for M in modules:
        if not M.exact_below or M.is_zero():
            continue
        bound = None if M.exact_above else M.hi
        cover = projective_cover(M, bound)
        windows = [None, (M.lo, M.hi + 1)] if M.exact_above else [None]
        for window in windows:
            got = cover.realize(M, window)
            want = standard_oracle.cover_realize(cover, M, window)
            assert (got.source.dims, got.target.dims) == (want.source.dims, want.target.dims)
            assert got.blocks == want.blocks
            checked += 1
    assert checked


@pytest.mark.parametrize("name", ["fix_a", "fix_b", "fix_c", "fix_d"])
def test_fixture_covers_match_path_action(name):
    prob = _fixture(name)
    modules = [prob.module(m) for m in prob.module_names()]
    assert_covers_match(modules + list(_cover_cases(prob.algebra)))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_covers_match_path_action(field):
    for _kind, alg in seeded_algebras(FIELDS[field]):
        assert_covers_match(_cover_cases(alg))


def test_cover_of_long_injective_matches_path_action():
    """I_15 on the criteria ray: representatives of length up to 13."""
    alg = make_fix_c(ray_end=15)
    M = standard_module(alg, "I", "15", 0, (-14, 0))
    assert M.is_exact and M.dim(-13, "1") == 1
    assert_covers_match([M])


def test_same_window_gives_back_the_module(fix_c):
    M = standard_module(fix_c, "P", "1", 0, (0, 12))
    assert M.with_window(M.lo, M.hi) is M
    N = M.with_window(0, 13)
    assert N is not M and N.with_window(0, 13) is N
