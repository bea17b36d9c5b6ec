import itertools
from math import comb

import pytest

from gradedquiver import GF, QQ
from gradedquiver.errors import InputError
from gradedquiver.algebra import Relation

from conftest import make_fix_c, make_polynomial
from product_oracle import arrow_element, multiply
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
    assert multiply(fix_a, e1, e1) == e1
    b = arrow_element(fix_a, "b")
    assert multiply(fix_a, b, e1) == b
    e2 = fix_a.unit("2")
    assert multiply(fix_a, e2, b) == b


def test_multiply_relation_kills(fix_a):
    a = arrow_element(fix_a, "a")
    b = arrow_element(fix_a, "b")
    assert multiply(fix_a, b, a).is_zero()
    # powers of the loop survive in every degree
    aa = multiply(fix_a, a, a)
    assert not aa.is_zero() and aa.degree == 2


def test_multiply_commuting_square(fix_c):
    g, a = arrow_element(fix_c, "g"), arrow_element(fix_c, "a")
    d, b = arrow_element(fix_c, "d"), arrow_element(fix_c, "b")
    assert multiply(fix_c, g, a) == multiply(fix_c, d, b)


def test_multiply_endpoint_mismatch(fix_a):
    with pytest.raises(InputError):
        multiply(fix_a, arrow_element(fix_a, "a"), arrow_element(fix_a, "b"))


def test_multiply_associative(fix_c):
    els = [arrow_element(fix_c, n) for n in ("a", "g", "e5")]
    a, g, e5 = els
    left = multiply(fix_c, e5, multiply(fix_c, g, a))
    right = multiply(fix_c, multiply(fix_c, e5, g), a)
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
    u = multiply(fix_c, arrow_element(fix_c, "g"), arrow_element(fix_c, "a"))
    uo = fix_c.element_opposite(u)
    assert uo.degree == u.degree
    assert (uo.source, uo.target) == (u.target, u.source)
    assert opp.element_opposite(uo) == u


def test_opposite_anti_multiplicative(fix_c):
    opp = fix_c.opposite()
    u = arrow_element(fix_c, "g")
    v = arrow_element(fix_c, "a")
    lhs = fix_c.element_opposite(multiply(fix_c, u, v))
    rhs = multiply(opp, fix_c.element_opposite(v), fix_c.element_opposite(u))
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
    g, a = arrow_element(alg, "g"), arrow_element(alg, "a")
    d, b = arrow_element(alg, "d"), arrow_element(alg, "b")
    assert multiply(alg, g, a) == multiply(alg, d, b)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("skew", [None, {(0, 1): -1, (0, 2): 2, (1, 2): 5}],
                         ids=["commutative", "skew"])
def test_polynomial_ring_piece_dims_to_degree_8(field, skew):
    # pieces are built inductively in polynomial time; spanning every
    # padding u*r*v instead takes tens of seconds from degree 6 on
    alg = make_polynomial(field, skew)
    assert [alg.dim_piece(d, "v", "v") for d in range(9)] == [comb(d + 2, 2) for d in range(9)]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("skew", [None, {(0, 1): -1, (0, 2): 2, (1, 2): 5}],
                         ids=["commutative", "skew"])
def test_polynomial_ring_piece_dims_to_degree_14(field, skew):
    # scale guard, no timing assert: with the relation rows reduced as sparse
    # rows this takes about 0.1 s per case
    alg = make_polynomial(field, skew)
    assert [alg.dim_piece(d, "v", "v") for d in range(15)] == [comb(d + 2, 2) for d in range(15)]
