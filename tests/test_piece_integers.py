"""The piece layer in integers over one denominator.

Relation coefficients are cleared to integers once, the relation rows of a
piece are integer rows reduced by `integer_rref`, and each piece keeps its
column normal forms as integer numerators over one positive denominator,
`_Piece.den`; products a*w (`_Piece.times_arrow`) map (denominator, integer
vector) to (denominator, integer vector).  Canonical scalars are made only at
the exits: `column_maps`, the blocks of `PMap.realize` and `element_from_path`.

These tests check that nothing of that changes a result: representatives,
column normal forms read as rationals, arrow matrices, path normal forms and
realized blocks against the padding-method oracle (`piece_oracle`) and the
piece layer on canonical scalars (`fraction_pieces`), on the fixtures,
commutative and skew k[x,y,z], and seeded algebras whose relation
coefficients are non-integral or large, over Q, F_2 and F_3.  They also check
that no piece holds a `Fraction`, that every exit holds canonical scalars,
and that `integer_rref` gives the rows of `sparse_rref` as primitive integer
rows on the Hypothesis systems of `test_linalg_oracle`.
"""

import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings

from gradedquiver import GF, QQ, GradedAlgebra, Path, Quiver
from gradedquiver.algebra import AlgElement
from gradedquiver.linalg import integer_rref, sparse_rref
from gradedquiver.presentations import PMap, ProjSum
from gradedquiver.problem import parse_problem

from conftest import make_polynomial, rel
from fraction_pieces import FractionPieces
from piece_oracle import PaddingPieces
from quiver_paths import list_paths
from test_linalg_oracle import sparse_systems
from test_piece_oracle import comparison_degree

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
# the skew twin of the benchmark: q = 2, 5, -4, so normal forms over Q are
# not integral
SKEW = {(0, 1): 2, (0, 2): 5, (1, 2): -4}
LARGE = 10 ** 6 + 3
# relation and entry coefficients: non-integral or large over Q, large
# residues over F_p
ODD = {None: (Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), LARGE, -LARGE),
       2: (LARGE, -LARGE), 3: (LARGE, -LARGE, 2 * LARGE)}


def seeded_algebra(seed, field):
    """A seeded algebra over a quiver with a cycle and up to two extra arrows,
    with one to three relations of degree 2 or 3, each a combination of two
    or three parallel paths with coefficients from ODD.  None when the quiver
    has too few parallel paths for any relation."""
    rng = random.Random(seed)
    nv = rng.randint(1, 3)
    vertices = [str(i) for i in range(nv)]
    arrows = [(f"c{i}", vertices[i], vertices[(i + 1) % nv]) for i in range(nv)]
    arrows += [(f"e{k}", rng.choice(vertices), rng.choice(vertices))
               for k in range(rng.randint(0, 2))]
    q = Quiver(vertices, arrows)
    relations = []
    for _ in range(rng.randint(1, 3)):
        paths = list_paths(q, rng.randint(2, 3), rng.choice(vertices), rng.choice(vertices))
        if len(paths) < 2:
            continue
        chosen = rng.sample(paths, min(len(paths), rng.randint(2, 3)))
        relations.append(rel(q, [(rng.choice(ODD[field.p]), p.names()) for p in chosen]))
    return GradedAlgebra(q, field, relations) if relations else None


def seeded_algebras(field, count=4):
    out = []
    for seed in range(500, 600):
        alg = seeded_algebra(seed, field)
        if alg is not None:
            out.append((seed, alg))
            if len(out) == count:
                return out
    raise AssertionError("too few seeded algebras")


def cases():
    out = [(name, lambda name=name: parse_problem(os.path.join(FIXTURES, f"{name}.json")).algebra)
           for name in ("fix_a", "fix_b", "fix_c", "fix_d")]
    for tag, field in FIELDS.items():
        out.append((f"commutative-{tag}", lambda field=field: make_polynomial(field)))
        out.append((f"skew-{tag}", lambda field=field: make_polynomial(field, SKEW)))
        for seed, _alg in seeded_algebras(field):
            out.append((f"seeded-{tag}-{seed}",
                        lambda field=field, seed=seed: seeded_algebra(seed, field)))
    return out


CASES = cases()


def assert_canonical(field, values):
    for x in values:
        if field.p is None:
            assert type(x) is Fraction, x
        else:
            assert type(x) is int and 0 <= x < field.p, x


def assert_integer_pieces(alg):
    """No piece holds a Fraction: its denominator and numerators are ints,
    over F_p a denominator of 1 and numerators in [0, p), over Q the least
    common denominator of the piece's normal forms."""
    f = alg.field
    for key, piece in alg._pieces.items():
        assert type(piece.den) is int and piece.den >= 1, key
        nums = [c for nf in piece.col_nf for _r, c in nf]
        for c in nums:
            assert type(c) is int, (key, c)
        if f.p is not None:
            assert piece.den == 1, key
            assert all(0 <= c < f.p for c in nums), key
        elif nums:
            assert gcd(piece.den, *nums) == 1, key


def rationals(piece, j):
    """Column j's normal form as (representative index, rational) pairs."""
    return tuple((r, Fraction(c, piece.den)) for r, c in piece.col_nf[j])


def seeded_pmaps(alg, seed, count=3):
    """Maps between sums of one or two shifted projectives, with entries of
    degree 0 to 2 whose coefficients come from ODD and small values."""
    rng = random.Random(seed)
    f, vertices = alg.field, alg.quiver.vertices
    values = ODD[f.p] + (1, -1, 0)
    out = []
    while len(out) < count:
        dst = [(rng.choice(vertices), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
        src = [(rng.choice(vertices), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
        entries = [[None] * len(src) for _ in dst]
        for i, (a, s) in enumerate(dst):
            for j, (b, t) in enumerate(src):
                n = alg.piece(s - t, a, b).dim
                if n and rng.random() < 0.8:
                    entries[i][j] = AlgElement(alg, s - t, a, b,
                                               [f.of(rng.choice(values)) for _ in range(n)])
        pmap = PMap(ProjSum(alg, src), ProjSum(alg, dst), entries)
        if not pmap.is_zero():
            out.append(pmap)
    return out


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _make in CASES])
def test_piece_layer_matches_both_oracles(name, make):
    alg = make()
    f, q = alg.field, alg.quiver
    padding, fractions = PaddingPieces(alg), FractionPieces(alg)
    top = min(comparison_degree(q), 4)
    for d in range(top + 1):
        for s in q.vertices:
            for t in q.vertices:
                piece = alg.piece(d, s, t)
                reps, offsets, col_nf = fractions.piece(d, s, t)
                assert ([p.names() for p in piece.rep_paths] == reps
                        == [p.names() for p in padding.basis(d, s, t)]), (d, s, t)
                if d and piece.dim:
                    assert piece.offsets == offsets, (d, s, t)
                    assert [rationals(piece, j) for j in range(len(col_nf))] == col_nf, (d, s, t)
                    for a in q.arrows_into[t]:
                        for i, rep in enumerate(alg.piece(d - 1, s, a.source).rep_paths):
                            got = [f.zero()] * piece.dim
                            for r, x in rationals(piece, offsets[a.name] + i):
                                got[r] = x
                            want = padding.normal_form(Path((a,) + rep.arrows))
                            assert got == want, (d, s, t, a.name, rep)
                for p in list_paths(q, d, s, t):
                    coeffs = alg.element_from_path(p).coeffs
                    assert coeffs == fractions.normal_form(p), p
                    assert list(coeffs) == padding.normal_form(p), p
                    assert_canonical(f, coeffs)
        if d < top:
            for s in q.vertices:
                maps = alg.column_maps(s, d)
                want = {a.name for a in q.arrows
                        if alg.piece(d, s, a.source).dim and alg.piece(d + 1, s, a.target).dim}
                assert set(maps) == want, (s, d)
                for a in q.arrows:
                    if a.name in maps:
                        assert maps[a.name] == fractions.arrow_matrix(s, d, a), (s, d, a.name)
                        assert_canonical(f, [x for row in maps[a.name].data for x in row])
    for pmap in seeded_pmaps(alg, sum(map(ord, name))):
        for window in ((-2, 1), (-1, 3)):
            got = pmap.realize(window).blocks
            assert got == fractions.realize_blocks(pmap, window), (pmap, window)
            for block in got.values():
                assert_canonical(f, [x for row in block.data for x in row])
    assert_integer_pieces(alg)


@pytest.mark.parametrize("tag", sorted(FIELDS))
def test_skew_pieces_keep_one_denominator(tag):
    """The skew twin is the case one denominator per piece is for: over Q
    some piece has a denominator above 1 and its products keep one
    denominator, in lowest terms; over F_p every denominator is 1."""
    alg = make_polynomial(FIELDS[tag], SKEW)
    f = alg.field
    dens = {alg.piece(d, "v", "v").den for d in range(5)}
    assert (dens == {1}) is (f.p is not None), dens
    piece = alg.piece(3, "v", "v")
    for name in ("x", "y", "z"):
        for i in range(alg.piece(2, "v", "v").dim):
            den, vec = alg.piece(4, "v", "v").times_arrow(
                f, name, piece.den, piece.col_nf[piece.offsets[name] + i])
            assert type(den) is int and den >= 1 and all(type(v) is int for v in vec)
            assert gcd(den, *vec) == 1


def cleared(field, rows):
    """The rows of a sparse system as integer pairs: each Q row times the lcm
    of its denominators."""
    if field.p is not None:
        return [list(r.items()) for r in rows]
    out = []
    for r in rows:
        den, nums = field.integers(list(r.values()))
        out.append(list(zip(r, nums)))
    return out


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_integer_core_matches_sparse_rref(system):
    field, _cols, rows = system
    want = sparse_rref(field, map(dict.items, rows))
    got = integer_rref(field.p, cleared(field, rows))
    assert sorted(got) == sorted(want)
    for c, row in got.items():
        assert all(type(x) is int and x for x in row.values())
        if field.p is None:
            # primitive with a positive lead: the one such multiple of the
            # RREF row
            assert row[c] > 0 and gcd(*row.values()) == 1
            assert {j: Fraction(x, row[c]) for j, x in row.items()} == want[c]
        else:
            assert row == want[c]
    if field.p is None:
        # scaling the rows changes none of the pivot rows
        scaled = [[(j, -LARGE * x) for j, x in r] for r in cleared(field, rows)]
        assert integer_rref(None, scaled) == got
