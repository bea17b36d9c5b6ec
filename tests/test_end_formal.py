"""End(M) read formally against the composition route.

The program reads the End of a simple off its one piece, with no Hom
system, and a one-dimensional End as k off its basis element c*id, with no
composition table or solve.  `hom_oracle.end_by_composition` keeps the
composition route on `ghom(M, M)`'s basis.  Both must give the same basis
blocks, structure constants, identity coordinates, radical and locality:
at every simple of the fixtures and of the seeded algebras over Q, F_2 and
F_3, at shifts -1, 0 and 2, on its own window and a wider one, and at its
dual; at bricks that are not simple; at bases scaled by c != 1; and at
S+S, whose End the composition route still builds.  Building and verifying
the almost split sequences at every simple of the fixtures makes no
`ghom(C, C)` call and composes no one-dimensional End basis.
"""

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, GradedModule, Matrix, Quiver, direct_sum
from gradedquiver import artheory, homs, standard_module
from gradedquiver.artheory import almost_split_sequence, verify_almost_split
from gradedquiver.errors import MathRefusal, UnsupportedRadical
from gradedquiver.homs import EndAlgebra, HomSpace, end_algebra, ghom

import hom_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}
FIXTURES = [make_fix_a, make_fix_b, make_fix_c, make_fix_d]
SHIFTS = (-1, 0, 2)


def radical_or_refusal(end):
    try:
        return end.radical_basis(), end.is_local_with_trivial_residue()
    except UnsupportedRadical:
        return "unsupported"


def assert_same_end(got, want):
    assert got.hom.basis_blocks == want.hom.basis_blocks
    assert got.dim == want.dim
    # repr tells a Fraction from an int of the same value
    assert repr(got.struct) == repr(want.struct)
    assert repr(got.identity_coords) == repr(want.identity_coords)
    assert radical_or_refusal(got) == radical_or_refusal(want)


def assert_end_matches(M):
    got = end_algebra(M)
    assert got.hom.source is M and got.hom.target is M
    assert_same_end(got, hom_oracle.end_by_composition(M))
    return got


def simples(alg):
    """Every simple at every shift, on its window and a wider one, and its dual."""
    for v in alg.quiver.vertices:
        for s in SHIFTS:
            S = standard_module(alg, "S", v, s)
            for M in (S, S.with_window(S.lo - 2, S.hi + 3)):
                yield M
                yield M.dual()


def assert_simples_match(alg):
    for M in simples(alg):
        end = assert_end_matches(M)
        assert end.dim == 1 and end.is_local_with_trivial_residue(), M.dims


@pytest.mark.parametrize("make", FIXTURES)
@pytest.mark.parametrize("field", ["Q", "F3"])
def test_fixture_simples_match_composition(make, field):
    assert_simples_match(make(FIELDS[field]))


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_seeded_simples_match_composition(field):
    for _kind, alg in seeded_algebras(FIELDS[field]):
        assert_simples_match(alg)


def string_module(field):
    """u -> t <- v over the square w -> u -> t, w -> v -> t: u and v in
    degree 1, t in degree 2; a brick that is not simple."""
    q = Quiver(["w", "u", "v", "t"],
               [("a", "w", "u"), ("b", "u", "t"), ("c", "w", "v"), ("d", "v", "t")])
    alg = GradedAlgebra(q, field, [])
    return GradedModule(alg, 1, 2, {(1, "u"): 1, (1, "v"): 1, (2, "t"): 1},
                        {("b", 1): Matrix(field, 1, 1, [[1]]),
                         ("d", 1): Matrix(field, 1, 1, [[1]])})


def bricks(field):
    """One-dimensional Ends of modules that are not simple."""
    out = [standard_module(make_fix_b(field), "P", "1", 0, window=(0, 1)),
           string_module(field)]
    line = make_fix_d(field)
    out += [standard_module(line, kind, v, 0, window=(-1, 1))
            for kind in ("P", "I") for v in ("1", "3")]
    return out + [M.dual() for M in out]


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_bricks_match_composition(field):
    for M in bricks(FIELDS[field]):
        assert len(M.dims) > 1
        end = assert_end_matches(M)
        assert end.dim == 1 and end.is_local_with_trivial_residue(), M.dims


@pytest.mark.parametrize("field", ["Q", "F3", "F5"])
def test_scaled_basis_reads_its_scalar(field):
    # a basis element c*id with c != 1: the structure constant is c and the
    # identity is 1/c, as the composition route solves for them
    f = FIELDS[field]
    for M in bricks(f) + list(simples(make_fix_c(f))):
        (blocks,) = ghom(M, M).basis_blocks
        for c in (2, -1) if f.is_rationals else (2,):
            scaled = HomSpace(M, M, [{k: m.scale(f.of(c)) for k, m in blocks.items()}])
            got = EndAlgebra(scaled)
            assert repr(got.struct) == repr([[[f.of(c)]]])
            assert_same_end(got, hom_oracle.CompositionEnd(scaled))


@pytest.mark.parametrize("field", ["Q", "F3", "F5"])
def test_sum_of_two_simples_keeps_the_composition_route(field):
    f = FIELDS[field]
    S1 = standard_module(make_fix_b(f), "S", "1", 0)
    two, _, _ = direct_sum([S1, S1])
    end = assert_end_matches(two)
    assert end.dim == 4
    if f.is_rationals or f.p > 4:
        assert end.residue_dim() == 4 and not end.is_local_with_trivial_residue()
    else:
        with pytest.raises(UnsupportedRadical):
            end.radical_basis()


def record_end_work(monkeypatch):
    """Every ghom(M, M) call, and every Hom basis of a one-dimensional End
    turned into morphisms to be composed, from now on."""
    seen = {"ghom_self": [], "composed": [], "ends": []}
    real_ghom, real_morphisms, real_init = homs.ghom, HomSpace.morphisms, EndAlgebra.__init__

    def ghom_of(M, N):
        if M is N:
            seen["ghom_self"].append(M)
        return real_ghom(M, N)

    def morphisms_of(self):
        if self.dim == 1 and self.source is self.target:
            seen["composed"].append(self.source)
        return real_morphisms(self)

    def end_of(self, homspace):
        real_init(self, homspace)
        seen["ends"].append(self)

    monkeypatch.setattr(homs, "ghom", ghom_of)
    monkeypatch.setattr(artheory, "ghom", ghom_of)
    monkeypatch.setattr(HomSpace, "morphisms", morphisms_of)
    monkeypatch.setattr(EndAlgebra, "__init__", end_of)
    return seen


# the almost split sequences at the simples, both directions; over fix_a
# every one is refused after End(C) is built: the loop's column never vanishes
SEQUENCES = {make_fix_a: 0, make_fix_b: 2, make_fix_c: 24, make_fix_d: 10}


@pytest.mark.parametrize("make", FIXTURES)
@pytest.mark.parametrize("field", ["Q", "F3"])
def test_sequences_at_simples_build_no_end_hom_system(make, field, monkeypatch):
    alg = make(FIELDS[field])
    seen = record_end_work(monkeypatch)
    built = 0
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        for direction in ("ending", "starting"):
            try:
                seq = almost_split_sequence(S, direction)
            except MathRefusal:
                continue
            assert verify_almost_split(seq) == (True, []), (v, direction)
            built += 1
    assert built == SEQUENCES[make]
    assert seen["ends"] and all(end.dim == 1 for end in seen["ends"])
    assert seen["ghom_self"] == []
    assert seen["composed"] == []
