"""Coordinates in a Hom basis read at its pivots, against the solve route.

Every Hom basis the program builds is in pivot form on the `_hom_slots`
flattening: the last nonzero coordinate of each basis vector, its pivot, is
zero in every other basis vector.  `HomSpace.coordinates` reads a morphism's
coordinates at the pivots and recombines them to check that the morphism
lies in the span; `hom_oracle.solve_in_basis` solves against the flattened
basis instead.  Coordinates in a basis are unique, so both must agree: on
each basis morphism, on seeded combinations, and on g o Hom(C, E), which
verification reads in End(C).  The bases are those of `ghom`,
`ghom_to_injective` and `end_algebra`, over the fixtures and the seeded
algebras over Q, F_2 and F_3.  A basis not in pivot form is refused, and
an End of dimension >= 2 matches the composition route, with no solve or
row reduction once its Hom basis is built.
"""

import itertools
import random

import pytest

from gradedquiver import GF, QQ, Matrix, direct_sum, standard_module
from gradedquiver.artheory import almost_split_sequence
from gradedquiver.errors import MathRefusal, WindowError
from gradedquiver.homs import (EndAlgebra, HomSpace, _unflatten, end_algebra, ghom,
                               ghom_to_injective)

import hom_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_ar_duality import finite_modules
from test_end_formal import SEQUENCES, assert_same_end
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
FIXTURES = [make_fix_a, make_fix_b, make_fix_c, make_fix_d]


def algebras(field):
    f = FIELDS[field]
    return [make(f) for make in FIXTURES] + [alg for _kind, alg in seeded_algebras(f)]


def modules(alg):
    """The finite simples, projectives, radicals and injectives at cap 6,
    and the sum of the first two, whose End has dimension >= 2."""
    out = finite_modules(alg, 6)
    pair = [M.with_window(-6, 6) for M in out if M.is_exact][:2]
    return out + [direct_sum(pair)[0]]


def spaces(alg):
    """The Hom spaces of `ghom` between the modules, of `ghom_to_injective`
    out of each, and of `end_algebra` at each."""
    mods = modules(alg)
    for M, N in itertools.product(mods, repeat=2):
        try:
            yield ghom(M, N)
        except WindowError:
            pass
    for M in mods:
        if M.is_exact:
            yield end_algebra(M).hom
        for v, s in itertools.product(alg.quiver.vertices, (-1, 0, 1)):
            try:
                yield ghom_to_injective(M, v, s)
            except WindowError:
                pass


def assert_pivot_form(H):
    flats = [H.flatten(b) for b in H.basis_blocks]
    for k, vec in enumerate(flats):
        p = max(j for j, v in enumerate(vec) if v)
        assert [j for j, other in enumerate(flats) if other[p]] == [k]


def random_coords(f, n, rng):
    small = [-2, -1, 0, 1, 3] if f.is_rationals else list(range(f.p))
    return [f.of(rng.choice(small)) for _ in range(n)]


def assert_coordinates_match_the_solve_route(H, morphisms):
    """Each morphism's coordinates, read at the pivots and solved for."""
    if not morphisms:
        return
    sol = hom_oracle.solve_in_basis(H, [H.flatten(m.blocks) for m in morphisms])
    assert sol is not None
    for k, m in enumerate(morphisms):
        # repr tells a Fraction from an int of the same value
        assert repr(H.coordinates(m)) == repr(sol.col(k))
        assert H.coordinates(m.blocks) == sol.col(k)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_every_basis_is_in_pivot_form_and_reads_like_the_solve(field):
    rng = random.Random(7)
    wide = 0
    for alg in algebras(field):
        f = alg.field
        for H in spaces(alg):
            assert_pivot_form(H)
            combos = [H.from_coordinates(random_coords(f, H.dim, rng)) for _ in range(3)]
            assert_coordinates_match_the_solve_route(H, H.morphisms() + combos)
            wide += H.dim >= 2
    assert wide


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_from_coordinates_round_trips(field):
    rng = random.Random(11)
    for alg in algebras(field):
        f = alg.field
        for H in spaces(alg):
            for _ in range(3):
                coords = random_coords(f, H.dim, rng)
                m = H.from_coordinates(coords)
                assert (m.source, m.target) == (H.source, H.target)
                assert H.coordinates(m) == coords
                want = {}
                for c, basis in zip(coords, H.basis_blocks):
                    for key, blk in basis.items():
                        want[key] = want[key] + blk.scale(c) if key in want else blk.scale(c)
                assert {key: m.block(*key) for key in want} == want
                assert set(m.blocks) <= set(want)


@pytest.mark.parametrize("make", FIXTURES)
@pytest.mark.parametrize("field", ["Q", "F3"])
def test_g_after_hom_c_e_reads_like_the_solve(make, field):
    # verification reads g o h in End(C) for each h in the basis of Hom(C, E),
    # after dualizing a starting sequence into an ending one
    alg = make(FIELDS[field])
    built = 0
    for v, direction in itertools.product(alg.quiver.vertices, ("ending", "starting")):
        try:
            seq = almost_split_sequence(standard_module(alg, "S", v, 0), direction)
        except MathRefusal:
            continue
        g = seq.g if direction == "ending" else seq.f.dual()
        E, C = g.source, g.target
        through_g = [g.compose(h) for h in ghom(C, E).morphisms()]
        assert_coordinates_match_the_solve_route(end_algebra(C).hom, through_g)
        built += 1
    assert built == SEQUENCES[make]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_block_set_outside_the_span_is_refused(field):
    rng = random.Random(3)
    refused = 0
    for alg in algebras(field)[:4]:
        f = alg.field
        for H in spaces(alg):
            slots, size = H.slots()
            if not size:
                continue
            vec = random_coords(f, size, rng)
            if hom_oracle.solve_in_basis(H, [vec]) is not None:
                continue
            with pytest.raises(MathRefusal, match="^morphism not in the hom space$"):
                H.coordinates(_unflatten(f, slots, vec))
            refused += 1
    assert refused


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_a_basis_out_of_pivot_form_is_refused(field):
    f = FIELDS[field]
    wide = [H for alg in algebras(field)[:4] for H in spaces(alg) if H.dim >= 2]
    assert wide
    for H in wide[:20]:
        b0, b1 = H.morphisms()[:2]
        # b0 + b1 is nonzero at the pivots of both b0 and b1
        bad = HomSpace(H.source, H.target, [(b0 + b1).blocks, b1.blocks])
        with pytest.raises(MathRefusal, match="pivot form"):
            bad.coordinates(b1)
        with pytest.raises(MathRefusal, match="pivot form"):
            bad.from_coordinates([f.one(), f.one()])
        if H.source is H.target:
            with pytest.raises(MathRefusal, match="pivot form"):
                EndAlgebra(bad)
        with pytest.raises(MathRefusal, match="pivot form"):
            HomSpace(H.source, H.target, [{}, b1.blocks]).coordinates(b1)


def s_plus_s(f):
    S1 = standard_module(make_fix_b(f), "S", "1", 0)
    return direct_sum([S1, S1])[0]


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_ends_of_dimension_two_and_more_match_composition(field):
    ends = [end_algebra(s_plus_s(FIELDS[field]))]
    for alg in algebras(field):
        ends += [end_algebra(M) for M in modules(alg) if M.is_exact]
    wide = [end for end in ends if end.dim >= 2]
    assert wide and ends[0].dim == 4
    for end in wide:
        assert_same_end(end, hom_oracle.CompositionEnd(end.hom))


def test_end_structure_constants_solve_nothing(monkeypatch):
    M = s_plus_s(QQ)
    H = ghom(M, M)
    want = hom_oracle.CompositionEnd(H)

    def refuse(self, *args):
        raise AssertionError("solve or rref called")

    monkeypatch.setattr(Matrix, "solve", refuse)
    monkeypatch.setattr(Matrix, "rref", refuse)
    got = EndAlgebra(H)
    assert got.dim == 4
    assert repr((got.struct, got.identity_coords)) == repr((want.struct, want.identity_coords))


def test_a_composite_outside_the_basis_span_is_refused():
    # id, E_12 and E_21 in End(S + S) are in pivot form, but E_12 E_21 = E_11
    M = s_plus_s(QQ)
    (key,) = M.dims

    def unit(r, c):
        return {key: Matrix(QQ, 2, 2, [[int((i, j) == (r, c)) for j in range(2)]
                                       for i in range(2)])}

    part = HomSpace(M, M, [{key: Matrix.identity(QQ, 2)}, unit(0, 1), unit(1, 0)])
    with pytest.raises(MathRefusal, match="^endomorphism composition left the hom space$"):
        EndAlgebra(part)
