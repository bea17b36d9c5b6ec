"""Relation rows read off the column normal forms.

The rows r*v of a piece are built from the pieces below it alone: the first
arrow of a term applied to v is a column of the piece one degree above v, and
the rest of the term pushes it along with `_Piece.times_arrow`; no path normal
form is computed.  With `GradedAlgebra._normal_form` made to raise, filling
must still succeed, and the representatives and the column normal forms must
match the padding-method oracle: on commutative and skew k[x,y,z], on
relations of degree 3 and 4, and where the column of the first arrow lies in
a zero piece.  Also here: a column lookup at or past the vanishing degree
fills nothing, and the stable hom dimension is zero without a pullback system
when Hom(P0, N) has no coordinates, with the refusals it gave before.
"""

import itertools
from fractions import Fraction

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Path, Quiver, WindowError, homs
from gradedquiver.homs import underline_hom_dim
from gradedquiver.presentations import minimal_presentation

from conftest import make_fix_c, make_fix_d, make_polynomial, naturality_underline_hom_dim, rel
from piece_oracle import PaddingPieces
from test_stable_homs import CASES, outcome, sources_and_targets, truncations

FIELDS = {"Q": QQ, "F3": GF(3)}
SKEW = {(0, 1): -1, (0, 2): 2, (1, 2): 5}


def refuse(*_args, **_kwargs):
    raise AssertionError("a piece fill computed a path normal form")


def assert_pieces_match_oracle(alg, max_degree):
    """Representatives and column normal forms of every piece up to the
    degree, against the padding method; the number of nonzero pieces."""
    oracle = PaddingPieces(alg)
    f = alg.field
    q = alg.quiver
    nonzero = 0
    for d in range(max_degree + 1):
        for x in q.vertices:
            for y in q.vertices:
                piece = alg.piece(d, x, y)
                assert ([p.names() for p in piece.rep_paths]
                        == [p.names() for p in oracle.basis(d, x, y)]), (d, x, y)
                if not piece.dim or not d:
                    continue
                nonzero += 1
                for a in q.arrows_into[y]:
                    below = alg.piece(d - 1, x, a.source)
                    for i, rep in enumerate(below.rep_paths):
                        got = [f.zero()] * piece.dim
                        for r, c in piece.col_nf[piece.offsets[a.name] + i]:
                            got[r] = Fraction(c, piece.den)
                        want = oracle.normal_form(Path((a,) + rep.arrows))
                        assert got == want, (d, x, y, a.name, rep)
    return nonzero


def loops_of_degree_3_and_4(field):
    """Two loops x, y at one vertex modulo xyx - 2yxy and x^4 + yyxx - xyyx."""
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    return GradedAlgebra(q, field, [
        rel(q, [(1, ("x", "y", "x")), (-2, ("y", "x", "y"))]),
        rel(q, [(1, ("x", "x", "x", "x")), (1, ("y", "y", "x", "x")), (-1, ("x", "y", "y", "x"))]),
    ])


def cycle_of_degree_3_and_4(field):
    """Arrows a, b: 0 -> 1 and c: 1 -> 0, modulo acb - bca + 2aca, of degree
    3 from 0 to 1, and acac + bcbc - acbc, of degree 4 from 1 to 1."""
    q = Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1"), ("c", "1", "0")])
    return GradedAlgebra(q, field, [
        rel(q, [(1, ("a", "c", "b")), (-1, ("b", "c", "a")), (2, ("a", "c", "a"))]),
        rel(q, [(1, ("a", "c", "a", "c")), (1, ("b", "c", "b", "c")), (-1, ("a", "c", "b", "c"))]),
    ])


def zero_first_column(field, chord=False):
    """0 -f-> 1 -a-> 2 -b-> 3 -e-> 4, with 0 -g-> 5 -h-> 6 -i-> 3 keeping
    degree 3 alive, modulo af and eba.  In the row of eba at (4, 0, 4), v is
    f and af lies in the zero piece (2, 0, 2).  With `chord`, also
    ebaf - eihg, whose term ebaf passes through that zero piece after f."""
    q = Quiver([str(v) for v in range(7)],
               [("f", "0", "1"), ("a", "1", "2"), ("b", "2", "3"), ("e", "3", "4"),
                ("g", "0", "5"), ("h", "5", "6"), ("i", "6", "3")])
    relations = [rel(q, [(1, ("a", "f"))]), rel(q, [(1, ("e", "b", "a"))])]
    if chord:
        relations.append(rel(q, [(1, ("e", "b", "a", "f")), (-1, ("e", "i", "h", "g"))]))
    return GradedAlgebra(q, field, relations)


ALGEBRAS = {
    "commutative": (lambda field: make_polynomial(field), 4),
    "skew": (lambda field: make_polynomial(field, SKEW), 4),
    "loops-3-4": (loops_of_degree_3_and_4, 6),
    "cycle-3-4": (cycle_of_degree_3_and_4, 7),
}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_rows_need_no_path_normal_form(monkeypatch, name, field):
    make, max_degree = ALGEBRAS[name]
    monkeypatch.setattr(GradedAlgebra, "_normal_form", refuse)
    assert assert_pieces_match_oracle(make(FIELDS[field]), max_degree)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("chord", [False, True], ids=["eba", "ebaf-eihg"])
def test_first_column_in_a_zero_piece(monkeypatch, field, chord):
    alg = zero_first_column(FIELDS[field], chord)
    monkeypatch.setattr(GradedAlgebra, "_normal_form", refuse)
    assert assert_pieces_match_oracle(alg, 5)
    # the zero piece the rows pass through, and the pieces they cut
    assert alg.piece(2, "0", "2").dim == 0
    assert alg.piece(3, "0", "3").dim == 1
    assert alg.piece(4, "0", "4").dim == (0 if chord else 1)


@pytest.mark.parametrize("make", [make_fix_c, make_fix_d])
def test_column_past_vanish_fills_nothing(monkeypatch, make):
    alg = make()

    def no_fill(*_args, **_kwargs):
        raise AssertionError("column filled past the vanishing degree")

    for v in alg.quiver.vertices:
        height = alg.height(v, 0)
        assert height is not None
        want = alg.column(v, height)
        monkeypatch.setattr(alg, "_fill", no_fill)
        for d in (height + 1, height + 2, height + 10):
            assert alg.column(v, d) == ()
            assert alg.column_dim(d, v) == 0
        assert alg.column(v, height) == want
        monkeypatch.undo()


def p0_size(M, Y):
    """Coordinates of Hom(P0, Y), read without the window checks."""
    return sum(Y.dims.get((-s, b), 0) for b, s in minimal_presentation(M).p0.summands
               if Y.lo <= -s <= Y.hi)


def cut_at_p1(M, X):
    """X cut just below and just above each generator degree of M's P1."""
    out = []
    for _b, s in minimal_presentation(M).p1.summands:
        for lo, hi in ((X.lo, -s - 1), (-s + 1, X.hi)):
            if X.lo <= lo <= hi <= X.hi:
                out.append(X.with_window(lo, hi))
    return out


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_zero_hom_from_p0_builds_no_system(monkeypatch, index):
    _name, alg, cap = CASES[index]
    sources, targets = sources_and_targets(alg, cap)
    pairs = []
    for M, X in itertools.product(sources, targets):
        for Y in [X] + truncations(X) + cut_at_p1(M, X):
            if not p0_size(M, Y):
                pairs.append((M, Y, outcome(naturality_underline_hom_dim, M, Y)))

    def no_system(*_args, **_kwargs):
        raise AssertionError("a pullback system was built with Hom(P0, N) = 0")

    monkeypatch.setattr(homs, "psum_pullback_matrix", no_system)
    seen = set()
    for M, Y, want in pairs:
        assert outcome(underline_hom_dim, M, Y) == want, (M.dims, Y.dims)
        seen.add(want)
    # zeros, and refusals kept
    assert seen == {0, WindowError}
