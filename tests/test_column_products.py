"""Differential tests: products read off the piece layer against normal-form
products.

`column_maps` reads an arrow's action off the column normal forms of the piece
above, and `PMap.realize` pushes each entry along the representatives from the
image of its tail; `product_oracle` takes every column as a product through
its `multiply`.  Both must give the same matrices on the fixtures and
on seeded acyclic and cyclic algebras with monomial and binomial relations of
degree 2-3, over Q, F_2 and F_3, on windows that cut the generators below and
above.  The pieces themselves are filled only at the heads of arrows out of
nonzero pieces; every piece, present or absent, must match the padding-method
oracle.
"""

import random

import pytest

from gradedquiver import GF, QQ, standard_module
from gradedquiver.algebra import AlgElement
from gradedquiver.presentations import PMap, ProjSum, minimal_presentation, next_differential

import product_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from piece_oracle import PaddingPieces
from test_piece_oracle import comparison_degree
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
FIXTURES = [make_fix_a, make_fix_b, make_fix_c, make_fix_d]
MAX_DEGREE = 6


def algebras(field):
    algs = [alg for _kind, alg in seeded_algebras(FIELDS[field])]
    if field == "Q":
        algs += [make() for make in FIXTURES]
    return algs


def assert_column_maps_match(alg):
    """The number of arrow actions compared."""
    count = 0
    for v in alg.quiver.vertices:
        for d in range(-1, MAX_DEGREE):
            got = alg.column_maps(v, d)
            assert got == product_oracle.column_maps(alg, v, d), (v, d)
            count += len(got)
    return count


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_column_maps_match_products(field):
    count = 0
    for alg in algebras(field):
        count += assert_column_maps_match(alg) + assert_column_maps_match(alg.opposite())
    assert count


def random_element(alg, rng, degree, source, target):
    f = alg.field
    dim = alg.dim_piece(degree, source, target)
    return AlgElement(alg, degree, source, target,
                      [f.of(rng.choice((0, 1, 2, -1))) for _ in range(dim)])


def random_pmap(alg, rng):
    """Two to three summands on each side, shifts in -2..2, entries random
    elements of their pieces (many of them zero)."""
    vertices = alg.quiver.vertices
    dst = ProjSum(alg, [(rng.choice(vertices), rng.randint(-2, 2))
                        for _ in range(rng.randint(2, 3))])
    src = ProjSum(alg, [(rng.choice(vertices), rng.randint(-2, 2))
                        for _ in range(rng.randint(2, 3))])
    entries = [[None if s - t < 0 else random_element(alg, rng, s - t, a, b)
                for b, t in src.summands] for a, s in dst.summands]
    return PMap(src, dst, entries)


def presentation_maps(alg):
    """d1 and d2 of the simples, and their transposes over the opposite."""
    for v in alg.quiver.vertices:
        pres = minimal_presentation(standard_module(alg, "S", v, 0))
        if pres.module_is_projective():
            continue
        yield pres.d1
        yield pres.d1.transpose_to_opposite()
        d2 = next_differential(pres.d1, pres.window)
        if len(d2.src):
            yield d2


def windows(pmap):
    """Windows around the lowest source generator: below it, cut just below
    or just above it, holding it, and far above it."""
    g = min(-t for _b, t in pmap.src.summands)
    return [(g - 4, g - 1), (g - 2, g + 3), (g + 1, g + 4), (g - 1, g + 5), (g + 6, g + 7)]


def assert_realizations_match(pmaps):
    checked = 0
    for pmap in pmaps:
        for window in windows(pmap):
            got = pmap.realize(window)
            want = product_oracle.pmap_realize(pmap, window)
            assert (got.source.dims, got.target.dims) == (want.source.dims, want.target.dims)
            assert got.blocks == want.blocks, (pmap, window)
            checked += any(not m.is_zero() for m in got.blocks.values())
    assert checked


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_pmap_realizations_match_products(field):
    rng = random.Random(17)
    for alg in algebras(field):
        pmaps = [random_pmap(alg, rng) for _ in range(4)] + list(presentation_maps(alg))
        assert_realizations_match(pmaps)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_sparse_fill_matches_padding_oracle(field):
    """After the fill, a present piece has the oracle's basis and an absent
    one is zero for the oracle; some pieces are absent."""
    absent = 0
    for alg in algebras(field):
        q = alg.quiver
        top = comparison_degree(q)
        for v in q.vertices:
            alg.column(v, top)
        oracle = PaddingPieces(alg)
        for d in range(top + 1):
            for x in q.vertices:
                for y in q.vertices:
                    want = [p.names() for p in oracle.basis(d, x, y)]
                    got = alg._pieces.get((d, x, y))
                    if got is None:
                        absent += 1
                        assert not want, (d, x, y)
                    else:
                        assert [p.names() for p in got.rep_paths] == want, (d, x, y)
    assert absent
