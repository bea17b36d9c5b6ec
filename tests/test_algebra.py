import itertools
from math import comb

import pytest

from gradedquiver import GF, QQ
from gradedquiver.errors import InputError
from gradedquiver.algebra import Relation

from conftest import make_fix_c, make_polynomial
from quiver_paths import list_paths


def test_relation_validation(fix_a):
    q = fix_a.quiver
    with pytest.raises(InputError):
        # mixed lengths is not homogeneous
        Relation([(1, q.path_from_names(("b", "a"))), (1, q.path_from_names(("b", "a", "a")))])
    with pytest.raises(InputError):
        Relation([(1, q.path_from_names(("b",)))])


def test_fix_a_piece_dims(fix_a):
    # b*a is a relation, so nothing of degree 2 goes 1 -> 2
    assert fix_a.dim_piece(2, "1", "2") == 0
    basis = fix_a.piece_basis(3, "1", "1")
    assert len(basis) == 1 and basis[0].names() == ("a", "a", "a")
    assert fix_a.dim_piece(1, "1", "2") == 1
    assert fix_a.dim_piece(0, "1", "1") == 1
    assert fix_a.dim_piece(0, "1", "2") == 0


def test_fix_c_glued_square(fix_c):
    # two paths 1 -> 4 of length 2, one relation between them
    assert len(list_paths(fix_c.quiver, 2, "1", "4")) == 2
    assert fix_c.dim_piece(2, "1", "4") == 1


def test_multiply_idempotents(fix_a):
    e1 = fix_a.unit("1")
    assert fix_a.multiply(e1, e1) == e1
    b = fix_a.arrow_element("b")
    assert fix_a.multiply(b, e1) == b
    e2 = fix_a.unit("2")
    assert fix_a.multiply(e2, b) == b


def test_multiply_relation_kills(fix_a):
    a = fix_a.arrow_element("a")
    b = fix_a.arrow_element("b")
    assert fix_a.multiply(b, a).is_zero()
    # powers of the loop survive in every degree
    aa = fix_a.multiply(a, a)
    assert not aa.is_zero() and aa.degree == 2


def test_multiply_commuting_square(fix_c):
    g, a = fix_c.arrow_element("g"), fix_c.arrow_element("a")
    d, b = fix_c.arrow_element("d"), fix_c.arrow_element("b")
    assert fix_c.multiply(g, a) == fix_c.multiply(d, b)


def test_multiply_endpoint_mismatch(fix_a):
    with pytest.raises(InputError):
        fix_a.multiply(fix_a.arrow_element("a"), fix_a.arrow_element("b"))


def test_multiply_associative(fix_c):
    els = [fix_c.arrow_element(n) for n in ("a", "g", "e5")]
    a, g, e5 = els
    left = fix_c.multiply(e5, fix_c.multiply(g, a))
    right = fix_c.multiply(fix_c.multiply(e5, g), a)
    assert left == right and not left.is_zero()


def test_opposite_pieces(fix_a):
    opp = fix_a.opposite()
    # no arrows 2 -> 1 in the original, so nothing 1 -> 2 in the opposite
    assert opp.dim_piece(1, "1", "2") == 0
    assert opp.dim_piece(1, "2", "1") == 1
    # the reversed relation kills the reversed composite
    assert opp.dim_piece(2, "2", "1") == 0
    # general transposition of dimensions
    for d in range(4):
        for x, y in itertools.product(("1", "2"), repeat=2):
            assert opp.dim_piece(d, x, y) == fix_a.dim_piece(d, y, x)


def test_unit_opposite_fixed(fix_a):
    e1 = fix_a.unit("1")
    assert fix_a.element_opposite(e1) == fix_a.opposite().unit("1")


def test_double_opposite_is_original(fix_c):
    assert fix_c.opposite().opposite() is fix_c


def test_element_opposite_round_trip(fix_c):
    opp = fix_c.opposite()
    u = fix_c.multiply(fix_c.arrow_element("g"), fix_c.arrow_element("a"))
    uo = fix_c.element_opposite(u)
    assert uo.degree == u.degree
    assert (uo.source, uo.target) == (u.target, u.source)
    assert opp.element_opposite(uo) == u


def test_opposite_anti_multiplicative(fix_c):
    opp = fix_c.opposite()
    u = fix_c.arrow_element("g")
    v = fix_c.arrow_element("a")
    lhs = fix_c.element_opposite(fix_c.multiply(u, v))
    rhs = opp.multiply(fix_c.element_opposite(v), fix_c.element_opposite(u))
    assert lhs == rhs


def test_piece_dim_bounded_by_paths(fix_c):
    for d in range(4):
        for x in ("1", "2", "4"):
            for y in ("1", "4", "6"):
                assert fix_c.dim_piece(d, x, y) <= len(list_paths(fix_c.quiver, d, x, y))


def test_no_relations_gives_path_counts(fix_b):
    for d in range(3):
        for x in ("1", "2"):
            for y in ("1", "2"):
                assert fix_b.dim_piece(d, x, y) == len(list_paths(fix_b.quiver, d, x, y))


def test_boundedness_fix_b(fix_b):
    r = fix_b.boundedness(5)
    assert r["left"]["status"] == "finite"
    assert r["left"]["per_vertex"]["1"]["total_dim"] == 2
    assert r["right"]["status"] == "finite"


def test_boundedness_fix_a(fix_a):
    r = fix_a.boundedness(6)
    assert r["left"]["per_vertex"]["1"]["status"] == "unbounded-at-cap"
    assert r["left"]["status"] == "unbounded-at-cap"
    assert len(r["left"]["per_vertex"]["1"]["profile"]) == 6


def test_boundedness_fix_d(fix_d):
    r = fix_d.boundedness(10)
    assert r["left"]["status"] == "finite"
    assert r["right"]["status"] == "finite"
    for n in range(1, 6):
        assert r["left"]["per_vertex"][str(n)]["total_dim"] == 2
    assert r["left"]["per_vertex"]["0"]["total_dim"] == 1


def test_boundedness_fix_c_cap_sensitivity():
    alg = make_fix_c(ray_end=13)
    r = alg.boundedness(10)
    # the truncated ray is long enough that a cap of 10 certifies nothing at
    # the far vertices on either side
    assert r["left"]["per_vertex"]["1"]["status"] == "unbounded-at-cap"
    assert r["left"]["status"] == "unbounded-at-cap"
    r12 = alg.boundedness(12)
    assert r12["left"]["status"] == "finite"
    assert r12["right"]["status"] == "finite"


def test_prime_field_algebra():
    alg = make_fix_c(field=GF(3), ray_end=6)
    assert alg.dim_piece(2, "1", "4") == 1
    g, a = alg.arrow_element("g"), alg.arrow_element("a")
    d, b = alg.arrow_element("d"), alg.arrow_element("b")
    assert alg.multiply(g, a) == alg.multiply(d, b)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("skew", [None, {(0, 1): -1, (0, 2): 2, (1, 2): 5}],
                         ids=["commutative", "skew"])
def test_polynomial_ring_piece_dims_to_degree_8(field, skew):
    # pieces are built inductively in polynomial time; spanning every
    # padding u*r*v instead takes tens of seconds from degree 6 on
    alg = make_polynomial(field, skew)
    assert [alg.dim_piece(d, "v", "v") for d in range(9)] == [comb(d + 2, 2) for d in range(9)]
