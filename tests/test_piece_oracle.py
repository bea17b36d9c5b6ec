"""Differential test: inductive piece bases against the padding-method oracle.

Both methods must give the same coset-representative paths, the same normal
form for every path and the same products of representatives, on the
fixtures, on commutative and skew k[x,y,z], on seeded random non-monomial
algebras over cyclic quivers, and on k<x,y,z> modulo dense generic quadratic
relations, whose rows fill in and, over Q, grow fractions.
"""

import os
import random

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver
from gradedquiver.problem import parse_problem

from conftest import make_polynomial, rel
from piece_oracle import PaddingPieces
from product_oracle import multiply
from quiver_paths import count_paths, list_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def assert_matches_oracle(alg, max_degree):
    oracle = PaddingPieces(alg)
    q = alg.quiver
    reps = []
    for d in range(max_degree + 1):
        for x in q.vertices:
            for y in q.vertices:
                basis = alg.piece_basis(d, x, y)
                assert ([p.names() for p in basis]
                        == [p.names() for p in oracle.basis(d, x, y)]), (d, x, y)
                reps += basis
                for p in list_paths(q, d, x, y):
                    assert list(alg.element_from_path(p).coeffs) == oracle.normal_form(p), p
    for pu in reps:
        for pv in reps:
            if pu.source == pv.target and pu.length + pv.length <= max_degree:
                got = multiply(alg, alg.element_from_path(pu), alg.element_from_path(pv))
                assert list(got.coeffs) == oracle.normal_form(pu.compose(pv)), (pu, pv)


@pytest.mark.parametrize("name", ["fix_a", "fix_b", "fix_c", "fix_d"])
def test_fixtures_match_oracle(name):
    alg = parse_problem(os.path.join(FIXTURES, f"{name}.json")).algebra
    assert_matches_oracle(alg, 4)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("skew", [None, {(0, 1): -1, (0, 2): 2, (1, 2): 5}],
                         ids=["commutative", "skew"])
def test_polynomial_rings_match_oracle(field, skew):
    assert_matches_oracle(make_polynomial(field, skew), 5)


def random_cyclic_algebra(seed, field):
    """A seeded non-monomial algebra over a quiver with an oriented cycle.

    One to three vertices on a cycle and up to three extra arrows; up to three
    relations of degree 2-4, each a combination of two or three parallel
    paths with random nonzero coefficients.  Returns None when the quiver has
    too few parallel paths for any relation.
    """
    rng = random.Random(seed)
    nv = rng.randint(1, 3)
    vertices = [str(i) for i in range(nv)]
    arrows = [(f"c{i}", vertices[i], vertices[(i + 1) % nv]) for i in range(nv)]
    arrows += [(f"e{k}", rng.choice(vertices), rng.choice(vertices))
               for k in range(rng.randint(0, 3))]
    q = Quiver(vertices, arrows)
    units = [c for c in range(-3, 4) if c % (field.characteristic or 7)]
    relations = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(2, 4)
        paths = list_paths(q, degree, rng.choice(vertices), rng.choice(vertices))
        if len(paths) < 2:
            continue
        chosen = rng.sample(paths, min(len(paths), rng.randint(2, 3)))
        relations.append(rel(q, [(rng.choice(units), p.names()) for p in chosen]))
    return GradedAlgebra(q, field, relations) if relations else None


def comparison_degree(q, limit=100):
    """Largest degree <= 5 at which every path set stays small for the oracle."""
    d = 1
    while d < 5 and all(count_paths(q, d + 1, x, y) <= limit
                        for x in q.vertices for y in q.vertices):
        d += 1
    return d


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_random_cyclic_algebras_match_oracle(field):
    checked = 0
    for seed in range(7000, 7100):
        alg = random_cyclic_algebra(seed, field)
        if alg is None:
            continue
        assert_matches_oracle(alg, comparison_degree(alg.quiver))
        checked += 1
        if checked == 16:
            break
    assert checked == 16


def dense_quadratic_algebra(seed, field):
    """k<x,y,z> modulo two or three relations, each a combination of all nine
    quadratic words with seeded nonzero coefficients."""
    rng = random.Random(seed)
    names = ("x", "y", "z")
    q = Quiver(["v"], [(n, "v", "v") for n in names])
    words = [(a, b) for a in names for b in names]
    units = [c for c in range(-9, 10) if c % (field.characteristic or 11)]
    relations = [rel(q, [(rng.choice(units), w) for w in words])
                 for _ in range(rng.randint(2, 3))]
    return GradedAlgebra(q, field, relations)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_dense_generic_relations_match_oracle(field):
    for seed in range(8100, 8104):
        assert_matches_oracle(dense_quadratic_algebra(seed, field), 4)
