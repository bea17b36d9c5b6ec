"""Differential tests of the exact linear algebra against `linalg_oracle`.

Every row reduction of the library runs in `sparse_rref`, over Q on integer
rows; the oracle is the earlier dense code (Bareiss with a back substitution
in `Fraction`s over Q, Gauss-Jordan over F_p).  Both must give the same
reduced row echelon form, pivots, kernel, image and solutions, and every
matrix a public operation returns must hold canonical scalars: `Fraction`
over Q, ints in [0, p) over F_p.  `sparse_rref` is also checked on sparse
rows directly, and on dense rational matrices larger than the Hypothesis ones
(a Hilbert matrix, a rank-deficient wide matrix), where entries grow most.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedquiver.linalg import QQ, GF, Matrix, linear_combination, sparse_rref

import linalg_oracle as oracle

FIELDS = [QQ, GF(2), GF(3), GF(7)]


def raw_scalar(field):
    """Values the public constructor coerces: negative and non-integer
    rationals over Q, arbitrary ints over F_p."""
    if field.p is None:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(-20, 20)


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    field = field if field is not None else draw(st.sampled_from(FIELDS))
    rows = rows if rows is not None else draw(st.integers(0, 6))
    cols = cols if cols is not None else draw(st.integers(0, 6))
    # sparse rows and repeated rows make rank deficiency common
    entry = st.one_of(st.just(0), raw_scalar(field))
    data = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        data[-1] = list(data[0])
    return Matrix(field, rows, cols, data)


def canonical(M):
    if len(M.data) != M.rows or any(type(row) is not tuple or len(row) != M.cols
                                    for row in M.data):
        return False
    if M.field.p is None:
        return all(type(v) is Fraction for row in M.data for v in row)
    return all(type(v) is int and 0 <= v < M.field.p for row in M.data for v in row)


def columns(M):
    return [M.col(j) for j in range(M.cols)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_oracle(A):
    R, pivots = A.rref()
    R0, pivots0 = oracle.rref(A.field, A.rows, A.cols, A.data)
    assert pivots == pivots0
    assert [list(row) for row in R.data] == R0
    assert A.rank() == len(pivots0)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_and_image_match_oracle(A):
    K = A.kernel_basis()
    assert (K.rows, K.cols) == (A.cols, A.cols - A.rank())
    assert columns(K) == oracle.kernel_columns(A.field, A.rows, A.cols, A.data)
    assert (A @ K).is_zero()
    im = A.image_basis()
    assert im.rows == A.rows
    assert columns(im) == oracle.image_columns(A.field, A.rows, A.cols, A.data)


@st.composite
def systems(draw):
    A = draw(matrices())
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        # consistent by construction
        B = A @ draw(matrices(field=A.field, rows=A.cols, cols=k))
    else:
        B = draw(matrices(field=A.field, rows=A.rows, cols=k))
    return A, B


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_matches_oracle(system):
    A, B = system
    X = A.solve(B)
    X0 = oracle.solve_columns(A.field, A.rows, A.cols, A.data, B.cols, B.data)
    if X0 is None:
        assert X is None
        return
    assert X is not None and (X.rows, X.cols) == (A.cols, B.cols)
    assert columns(X) == X0
    assert A @ X == B


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_public_operations_return_canonical_entries(data):
    field = data.draw(st.sampled_from(FIELDS))
    r, c, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    A = data.draw(matrices(field=field, rows=r, cols=c))
    A2 = data.draw(matrices(field=field, rows=r, cols=c))
    B = data.draw(matrices(field=field, rows=c, cols=k))
    C = data.draw(matrices(field=field, rows=r, cols=k))
    raw = data.draw(raw_scalar(field))
    cols = [[data.draw(raw_scalar(field)) for _ in range(r)] for _ in range(k)]
    js = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
    results = [
        A, Matrix.zeros(field, r, c), Matrix.identity(field, c),
        Matrix.from_cols(field, r, cols), A.transpose(), A.hstack(C), A.vstack(A2),
        A.select_cols(js), A + A2, A - A2, A.scale(raw), A @ B, A.rref()[0],
        A.kernel_basis(), A.image_basis(), A.hstack(C).rref()[0],
        linear_combination(field, r, c, [(field.of(raw), A), (field.one(), A2)]),
    ]
    X = A.solve(C)
    if X is not None:
        results.append(X)
    for M in results:
        assert canonical(M), M
    assert (A + A2).data == tuple(tuple(field.add(x, y) for x, y in zip(ra, rb))
                                  for ra, rb in zip(A.data, A2.data))
    assert A.scale(raw).data == tuple(tuple(field.mul(field.of(raw), x) for x in row)
                                      for row in A.data)
    # the textbook product, one field.mul per term
    zero = field.zero()
    assert (A @ B).data == tuple(
        tuple(functools.reduce(field.add, map(field.mul, row, col), zero)
              for col in B.transpose().data)
        for row in A.data)


def test_degenerate_shapes():
    for field in FIELDS:
        for rows, cols in ((0, 3), (3, 0), (0, 0), (2, 2)):
            A = Matrix.zeros(field, rows, cols)
            R, pivots = A.rref()
            assert pivots == () and canonical(R) and R == A
            K = A.kernel_basis()
            assert (K.rows, K.cols) == (cols, cols) and K == Matrix.identity(field, cols)
            assert A.image_basis().cols == 0 and A.image_basis().rows == rows
            X = A.solve(Matrix.zeros(field, rows, 1))
            assert X == Matrix.zeros(field, cols, 1)
            assert A.transpose().rows == cols and A.transpose().cols == rows


@st.composite
def sparse_systems(draw):
    """(field, columns, rows): rows are dicts {column: canonical scalar}, with
    zero entries, empty and repeated rows, and rows whose leftmost entry
    cancels against an earlier row."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), raw_scalar(field)).map(field.of)
    row = st.dictionaries(st.integers(0, cols - 1), entry, max_size=4)
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), dict(rows[0]))
    base = [r for r in rows if any(r.values())]
    if base and draw(st.booleans()):
        # the same leftmost entry plus a tail right of it
        r = base[-1]
        lead = min(j for j, x in r.items() if x)
        tail = draw(st.dictionaries(st.integers(lead + 1, cols), entry, max_size=3))
        r = dict(r)
        for j, x in tail.items():
            if j < cols:
                r[j] = field.add(r.get(j, field.zero()), x)
        rows.append(r)
    return field, cols, rows


def assert_sparse_matches_dense(field, cols, rows):
    before = [dict(r) for r in rows]
    got = sparse_rref(field, map(dict.items, rows))
    R, pivots = oracle.rref(field, len(rows), cols,
                            [[r.get(j, field.zero()) for j in range(cols)] for r in rows])
    assert rows == before
    assert sorted(got) == list(pivots)
    assert ([[got[c].get(j, field.zero()) for j in range(cols)] for c in pivots]
            == R[:len(pivots)])
    for c, row in got.items():
        assert row[c] == 1 and all(x for x in row.values())
        if field.p is None:
            assert all(type(x) is Fraction for x in row.values())
        else:
            assert all(type(x) is int and 0 <= x < field.p for x in row.values())


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_rref_matches_dense_rref(system):
    assert_sparse_matches_dense(*system)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag)
def test_sparse_rref_degenerate_rows(field):
    z, o = field.zero(), field.one()
    two, half = field.of(2), field.of(Fraction(1, 2)) if field.p is None else field.of(3)
    for cols, rows in (
        (3, []),                                      # no rows
        (3, [{}, {1: z}]),                            # zero rows
        (1, [{0: two}, {0: o}, {0: z}]),              # one column
        (4, [{1: two, 3: o}, {1: two, 3: o}]),        # repeated rows
        (4, [{0: o, 2: two}, {0: o, 1: half}]),       # leftmost entry cancels
        (4, [{2: o}, {0: o, 2: half}, {0: two, 3: o}]),
    ):
        assert_sparse_matches_dense(field, cols, rows)


def assert_rref_matches_oracle(A):
    R, pivots = A.rref()
    R0, pivots0 = oracle.rref(A.field, A.rows, A.cols, A.data)
    assert pivots == pivots0 and [list(row) for row in R.data] == R0
    assert canonical(R)
    return R, pivots


def test_rref_hilbert_10():
    """The 10x10 Hilbert matrix: invertible, so its RREF is the identity, and
    solving against the identity gives its inverse, with entries above 10^12."""
    n = 10
    A = Matrix(QQ, n, n, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    R, pivots = assert_rref_matches_oracle(A)
    assert pivots == tuple(range(n)) and R == Matrix.identity(QQ, n)
    X = A.solve(Matrix.identity(QQ, n))
    assert A @ X == Matrix.identity(QQ, n)
    # a known entry of the inverse Hilbert matrix
    assert X[n - 1, n - 1] == 44914183600


def test_rref_rank_deficient_8x12():
    """Rank 5 of 8 rows in 12 columns: three rows are rational combinations of
    the others, and the entries have large numerators and denominators."""
    base = [[Fraction((7 * i + 3 * j * j + 1) % 23 - 11, (i * j) % 9 + 1) for j in range(12)]
            for i in range(5)]
    mixes = ((Fraction(3, 7), Fraction(-5, 2), 0, 1, Fraction(11, 13)),
             (Fraction(-1, 3), 0, Fraction(17, 4), Fraction(2, 9), 0),
             (1, 1, 1, 1, Fraction(-1, 5)))
    extra = [[sum(c * row[j] for c, row in zip(mix, base)) for j in range(12)]
             for mix in mixes]
    data = base[:2] + [extra[0]] + base[2:4] + [extra[1], base[4], extra[2]]
    A = Matrix(QQ, 8, 12, data)
    R, pivots = assert_rref_matches_oracle(A)
    assert len(pivots) == 5 and R.data[5:] == ((Fraction(0),) * 12,) * 3
    K = A.kernel_basis()
    assert K.cols == 7 and (A @ K).is_zero()
    assert columns(K) == oracle.kernel_columns(QQ, 8, 12, A.data)
