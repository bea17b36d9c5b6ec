from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedquiver import GradedAlgebra, GradedModule, GradedMorphism, Quiver
from gradedquiver.homs import _minimal_polynomial
from gradedquiver.linalg import QQ, GF, Matrix, poly_eval, roots_in_field
from gradedquiver.errors import DimensionMismatch, FieldMismatch, InputError


def M(field, rows):
    return Matrix(field, len(rows), len(rows[0]) if rows else 0, rows)


def poly_eval_matrix(poly, A):
    """Evaluate a polynomial (low-first coefficients) at a square matrix."""
    f = A.field
    acc = Matrix.zeros(f, A.rows, A.rows)
    power = Matrix.identity(f, A.rows)
    for c in poly:
        if c:
            acc = acc + power.scale(c)
        power = power @ A
    return acc


def test_identity_kernel_empty():
    A = Matrix.identity(QQ, 2)
    ker, im, rank = A.kernel_basis(), A.image_basis(), A.rank()
    assert ker.cols == 0
    assert rank == 2
    assert im.cols == 2


def test_zero_matrix_full_kernel():
    A = Matrix.zeros(QQ, 3, 2)
    ker, im, rank = A.kernel_basis(), A.image_basis(), A.rank()
    assert rank == 0
    assert ker.cols == 2
    assert im.cols == 0


def test_rank_one_kernel_line():
    # hand row-reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], kernel is k*(2,-1)^T
    A = M(QQ, [[1, 2], [2, 4]])
    ker, rank = A.kernel_basis(), A.rank()
    assert rank == 1
    assert ker.cols == 1
    assert (A @ ker).is_zero()
    v = ker.col(0)
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)


def test_solve_identity():
    B = M(QQ, [[3], [5]])
    assert Matrix.identity(QQ, 2).solve(B) == B


def test_solve_inconsistent():
    A = M(QQ, [[1], [1]])
    B = M(QQ, [[1], [2]])
    assert A.solve(B) is None


def test_solve_mod_five():
    F5 = GF(5)
    A = M(F5, [[2]])
    X = A.solve(M(F5, [[3]]))
    assert X.data == ((4,),)


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatch):
        M(QQ, [[1]]) @ M(GF(5), [[1]])


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        M(QQ, [[1, 2]]) @ M(QQ, [[1, 2]])


def test_zero_shape_edge_cases():
    A = Matrix.zeros(QQ, 0, 3)
    assert A.kernel_basis().cols == 3
    assert A.rank() == 0
    B = Matrix.zeros(QQ, 3, 0)
    assert B.kernel_basis().cols == 0
    assert (A @ B.transpose().transpose()).rows == 0


def _entries(field_tag):
    if field_tag == "Q":
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.integers(min_value=0, max_value=4)


@st.composite
def matrices(draw, field_tag):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    data = draw(st.lists(st.lists(_entries(field_tag), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    field = QQ if field_tag == "Q" else GF(5)
    return Matrix(field, rows, cols, data)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices("Q"), matrices("F5")))
def test_kernel_and_rank_properties(A):
    ker, im, rank = A.kernel_basis(), A.image_basis(), A.rank()
    assert (A @ ker).is_zero()
    assert rank + ker.cols == A.cols
    assert A.transpose().rank() == rank
    assert im.rank() == rank


@settings(max_examples=40, deadline=None)
@given(matrices("Q"), st.integers(0, 2))
def test_solve_round_trip(A, k):
    X0 = Matrix(A.field, A.cols, k, [[(r * 7 + c) % 3 for c in range(k)] for r in range(A.cols)])
    B = A @ X0
    X = A.solve(B)
    assert X is not None
    assert A @ X == B


def minimal_polynomial(A):
    """The minimal polynomial of A as an endomorphism of one piece of
    dimension n over a vertex with no arrows, whose End is every n x n matrix."""
    alg = GradedAlgebra(Quiver(["v"], []), A.field, [])
    M = GradedModule(alg, 0, 0, {(0, "v"): A.rows}, {})
    return _minimal_polynomial(M, GradedMorphism(M, M, {(0, "v"): A}))


def test_minimal_polynomial_small_cases():
    assert minimal_polynomial(M(QQ, [[0, 1], [0, 0]])) == [0, 0, 1]
    assert minimal_polynomial(M(QQ, [[1, 0], [0, 2]])) == [2, -3, 1]
    # a scalar matrix: degree 1, below the characteristic polynomial's 2
    assert minimal_polynomial(M(QQ, [[3, 0], [0, 3]])) == [-3, 1]
    # (t-2)(t-3) = t^2 - 5t + 6 = t^2 + 1 mod 5
    assert minimal_polynomial(M(GF(5), [[2, 0], [0, 3]])) == [1, 0, 1]


@settings(max_examples=40, deadline=None)
@given(st.one_of(matrices("Q"), matrices("F5")))
def test_minimal_polynomial_is_the_least_monic_annihilator(A):
    n = min(A.rows, A.cols)
    A = A.select_rows(range(n)).select_cols(range(n))
    f = A.field
    mu = minimal_polynomial(A)
    assert mu[-1] == f.one()
    assert poly_eval_matrix(mu, A).is_zero()
    # id, A, ..., A^(deg - 1) are independent
    powers = [Matrix.identity(f, n)]
    for _ in range(len(mu) - 2):
        powers.append(powers[-1] @ A)
    flat = [[v for row in P.data for v in row] for P in powers]
    assert Matrix.from_cols(f, n * n, flat).rank() == len(mu) - 1
    if not f.is_rationals:
        singular = [lam for lam in range(f.p)
                    if (A - Matrix.identity(f, n).scale(lam)).rank() < n]
        assert roots_in_field(mu, f) == singular


def test_roots_in_field():
    # (t-1)(t-2) over Q
    assert roots_in_field([Fraction(2), Fraction(-3), Fraction(1)], QQ) == [1, 2]
    # t^2 + 1 over F5 has roots 2, 3
    assert roots_in_field([1, 0, 1], GF(5)) == [2, 3]
    # t^2 - 1/4
    assert roots_in_field([Fraction(-1, 4), Fraction(0), Fraction(1)], QQ) == [
        Fraction(-1, 2), Fraction(1, 2)]
    assert poly_eval([Fraction(-1, 4), Fraction(0), Fraction(1)], Fraction(1, 2), QQ) == 0


def test_scalar_serialization():
    assert QQ.fmt(Fraction(-3, 2)) == "-3/2"
    assert QQ.fmt(Fraction(7)) == "7"
    assert QQ.parse("−3/2") == Fraction(-3, 2)
    assert GF(7).parse("12") == 5


# text every field reads, with its value over Q and mod 7
READ_ALIKE = {"-3": (Fraction(-3), 4), "+5": (Fraction(5), 5), " 7 ": (Fraction(7), 0),
              "\u22122": (Fraction(-2), 5), "12": (Fraction(12), 5), "0": (Fraction(0), 0)}
# text Q reads and F_p refuses
RATIONAL_ONLY = {"3/4": Fraction(3, 4), "0.5": Fraction(1, 2), "3.": Fraction(3),
                 ".25": Fraction(1, 4), "-.5": Fraction(-1, 2)}
# refused everywhere: exponents (Fraction("1e10000000") builds a
# 33-million-bit integer), underscores and digits outside ASCII, which
# Fraction and int read differently from one Python version to the next
REFUSED = ["1e10000000", "1E3", "2e-1", "1_000", "1_0/3", "0.1_5", "\u0661\u0662",
           "\uff11", "1/0", "nan", "inf", "", ".", "+", "3/-4", "0x10", "1 000"]


def test_scalar_text_follows_one_grammar():
    for text, (q, mod7) in READ_ALIKE.items():
        assert QQ.parse(text) == q and type(QQ.parse(text)) is Fraction
        assert GF(7).parse(text) == mod7
    for text, q in RATIONAL_ONLY.items():
        assert QQ.parse(text) == q
        with pytest.raises(InputError):
            GF(7).parse(text)
    for text in REFUSED:
        for field in (QQ, GF(7)):
            with pytest.raises(InputError):
                field.parse(text)
    with pytest.raises(InputError, match="is not a scalar of Q"):
        QQ.of("1_000")


def test_prime_field_reads_a_fraction_as_a_quotient():
    # n/d is n times the inverse of d mod p, not a truncation
    assert GF(3).of(Fraction(1, 2)) == 2
    assert GF(5).of(Fraction(7, 2)) == 1
    assert GF(5).of(Fraction(-3, 1)) == 2
    with pytest.raises(InputError, match="1/3.*3"):
        GF(3).of(Fraction(1, 3))
