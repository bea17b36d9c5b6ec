"""Differential test: each syzygy's dimensions counted against its kernel.

A resolution ends where a syzygy ker d_n vanishes on the working window.  The
program decides that with no realization: the resolution is exact in degrees
up to the window's top, so piece by piece dim ker d_n = dim P_n - dim
ker d_{n-1}, carried down from M's own dimensions
(`presentations._kernel_dims`).  Here every step of every returned
resolution, from ker(P_0 -> M) to the last differential, is counted that way,
from the count before, and compared with the kernel bases of the realized
map on the same window: the same pieces with the same dimensions, none
negative.  That is checked for every simple on both sides, at caps 0-6
and on windows that force or exhaust the retry, on one algebra per case, so
later resolutions take steps that earlier ones left in the step memo: on the
fixtures, seeded algebras over Q, F_2 and F_3 (cyclic, binomial, relations of
degree 2 and 3), seeded algebras with long relations, a binomial and a cubic
algebra, k[x]/(x^2), whose resolutions never end, and the infinite-dimensional
k[x], k[x,y] and k<x,y>/(yx), whose steps leave the window.
"""

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver, standard_module
from gradedquiver.errors import GradedQuiverError
from gradedquiver.presentations import (_exact_top, _kernel_dims, minimal_presentation,
                                        resolution)

from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel
from test_resolution_steps import runs
from test_resolution_windows import seeded_algebras_with_long_relations
from test_simple_presentations import binomial, commutative_plane, cubic, dual_numbers
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def kernel_dims(morphism):
    return {piece: basis.cols for piece, (basis, _free) in morphism.kernel_bases().items()}


def assert_counts_match(res):
    """Every syzygy of the resolution, counted and as a kernel.  Returns how
    many of its steps had a source that is not exact above the window."""
    M, window = res.module, res.window
    aug = minimal_presentation(M).cover0.realize(M, window)
    steps = [(res.psums[0], aug)] + [(d.src, d.realize(window)) for d in res.pmaps]
    got = dict(M.dims)
    for psum, realized in steps:
        got = _kernel_dims(psum.algebra, psum.summands, got, window[1])
        assert all(n > 0 for n in got.values()), got
        assert got == kernel_dims(realized), (M.dims, window, psum)
    if res.status == "finite":
        assert not got
    return sum(_exact_top(d.algebra, d.src.summands, window[1]) is None for d in res.pmaps)


def check_algebra(alg):
    """Resolve every simple on both sides of one algebra and check every
    resolution returned; (statuses seen, steps outside the window)."""
    seen, outside = set(), 0
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        for M in (S, S.dual()):
            for cap, kwargs in runs(M):
                try:
                    res = resolution(M, cap, **kwargs)
                except GradedQuiverError:
                    seen.add("raised")
                    continue
                seen.add(res.status)
                outside += assert_counts_match(res)
    return seen, outside


@pytest.mark.parametrize("make", [make_fix_a, make_fix_b, make_fix_c, make_fix_d])
def test_fixture_syzygies_count_as_their_kernels(make):
    check_algebra(make())


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_syzygies_count_as_their_kernels(field):
    seen = set()
    for _kind, alg in seeded_algebras(FIELDS[field]):
        seen |= check_algebra(alg)[0]
    assert {"at-least", "finite", "raised"} <= seen


def test_long_relation_syzygies_count_as_their_kernels():
    seen = set()
    for alg in seeded_algebras_with_long_relations(6, start_seed=0):
        seen |= check_algebra(alg)[0]
    assert {"at-least", "finite", "raised"} <= seen


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("make", [binomial, cubic])
def test_binomial_and_cubic_syzygies_count_as_their_kernels(make, field):
    check_algebra(make(FIELDS[field]))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_periodic_syzygies_count_as_their_kernels(field):
    # k[x]/(x^2): every syzygy is the simple again, so no resolution ends
    seen = check_algebra(dual_numbers(FIELDS[field]))[0]
    assert "at-least" in seen and "finite" not in seen


def polynomial(field):
    """k[x]: one loop, no relation."""
    return GradedAlgebra(Quiver(["0"], [("x", "0", "0")]), field, [])


def two_loops_with_a_dead_word(field):
    """k<x,y>/(yx): monomial, infinite-dimensional."""
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("y", "x"))])])


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("make", [commutative_plane, polynomial, two_loops_with_a_dead_word])
def test_syzygies_beyond_the_window_count_as_their_kernels(make, field):
    # the projectives never vanish, so every step leaves the window
    seen, outside = check_algebra(make(FIELDS[field]))
    assert outside and "at-least" in seen
