"""Exact linear algebra over the rationals and prime fields.

Everything downstream (hom spaces, syzygies, translates) reduces to
kernel/image/solve calls on small dense matrices.  There is one row
reduction, `integer_rref`, on sparse integer rows: over Q it keeps each pivot
row primitive with a positive lead, over F_p monic.  Piece bases hand it
their integer relation rows directly; `sparse_rref`, which `Matrix.rref`
calls, clears the denominators of each row of canonical scalars, and makes
one `Fraction` per nonzero entry of the result.  `Field.integers` and
`Field.scalars` pass between canonical scalars and integers over one
denominator.  The module is kept dependency-free and fully deterministic:
same input, same output basis.

Invariant: a Matrix holds canonical scalars of its field, `Fraction` over Q
and ints in [0, p) over F_p, in a tuple of row tuples.  Only the public
constructors (`Matrix(...)` and `Matrix.from_cols`) check shapes and coerce;
every operation here builds its result with the trusted `Matrix._make`, and
so may callers whose entries are already canonical.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch, DimensionMismatch, InputError

# the shared rational zero and one (Fractions are immutable)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The coefficient field: the rationals ("Q") or a prime field ("Fp:<p>").

    Rational scalars are `Fraction` (always reduced, positive denominator);
    prime-field scalars are ints in [0, p).
    """

    _cache = {}

    def __new__(cls, tag):
        if tag in cls._cache:
            return cls._cache[tag]
        self = super().__new__(cls)
        if tag == "Q":
            self.p = None
        elif tag.startswith("Fp:") and tag[3:].isdecimal():
            p = int(tag[3:])
            if not _is_prime(p):
                raise InputError(f"modulus {p} is not prime")
            self.p = p
        else:
            raise InputError(f"unknown field tag {tag!r}")
        self.tag = tag
        cls._cache[tag] = self
        return self

    @property
    def is_rationals(self):
        return self.p is None

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    def zero(self):
        return _ZERO if self.p is None else 0

    def one(self):
        return _ONE if self.p is None else 1

    def of(self, v):
        """Coerce an int, Fraction or string into a scalar of this field;
        over F_p a Fraction n/d is n times the inverse of d mod p."""
        if self.p is None:
            return v if type(v) is Fraction else (
                self.parse(v) if isinstance(v, str) else Fraction(v))
        if type(v) is int:
            return v % self.p
        if isinstance(v, str):
            return self.parse(v)
        v = Fraction(v)
        if v.denominator % self.p == 0:
            raise InputError(f"{v} has no value mod {self.p}: "
                             f"its denominator is a multiple of {self.p}")
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, self.p - 2, self.p)

    def integers(self, scalars):
        """(den, numerators): canonical scalars as integers over one positive
        denominator, the lcm of theirs over Q and 1 over F_p."""
        if self.p is not None:
            return 1, tuple(scalars)
        den = lcm(*[x.denominator for x in scalars])
        return den, tuple(x.numerator * (den // x.denominator) for x in scalars)

    def scalars(self, den, nums):
        """The canonical scalars nums/den, for integers nums over a positive
        denominator den (1 over F_p, where nums are already in [0, p))."""
        if self.p is not None:
            return tuple(nums)
        return tuple(Fraction(v, den) if v else _ZERO for v in nums)

    def parse(self, value):
        """The one rule for a scalar read from a file: a JSON integer or
        string, read off its text ("-3", "3/4" or "0.5" over Q, a decimal
        residue over F_p).  Refuses anything else, a float or a boolean too."""
        if type(value) is not int and not isinstance(value, str):
            raise InputError(f"expected an integer or a string, got {value!r}")
        s = str(value).strip().replace("−", "-")
        if self.p is not None and "/" in s:
            raise InputError(f"prime-field scalar {s!r} must be a decimal residue")
        try:
            return Fraction(s) if self.p is None else int(s) % self.p
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{value!r} is not a scalar of {self.tag}") from None

    def fmt(self, a):
        if self.p is None:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a)

    def __repr__(self):
        return f"Field({self.tag})"


QQ = Field("Q")


def GF(p):
    return Field(f"Fp:{p}")


class Matrix:
    """An immutable dense matrix over one field, stored row-major.

    Zero-row and zero-column shapes are legal and occur constantly (graded
    pieces are very often 0-dimensional).  `data` is a tuple of row tuples of
    canonical scalars (see the module docstring).
    """

    __slots__ = ("field", "rows", "cols", "data", "_rref")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        self.field = field
        self.rows = rows
        self.cols = cols
        of = field.of
        self.data = tuple(tuple(map(of, row)) for row in entries)
        self._rref = None

    @classmethod
    def _make(cls, field, rows, cols, data):
        """Trusted constructor: `data` is a tuple of `rows` tuples of `cols`
        canonical scalars of `field`; nothing is checked or coerced."""
        self = object.__new__(cls)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._rref = None
        return self

    @classmethod
    def _make_cols(cls, field, nrows, columns):
        """Trusted `from_cols`: the columns hold canonical scalars."""
        return cls._make(field, nrows, len(columns),
                         tuple(zip(*columns)) if columns else ((),) * nrows)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._make(field, rows, cols, ((field.zero(),) * cols,) * rows)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls._make(field, n, n, tuple((z,) * i + (o,) + (z,) * (n - i - 1)
                                            for i in range(n)))

    @classmethod
    def from_cols(cls, field, nrows, columns):
        return cls(field, nrows, len(columns), [[c[i] for c in columns] for i in range(nrows)])

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field.tag, self.rows, self.cols, self.data))

    def _check_field(self, other):
        if self.field is not other.field:
            raise FieldMismatch(f"mixed fields {self.field.tag} and {other.field.tag}")

    def __add__(self, other):
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        p = self.field.p
        if p is None:
            data = tuple(tuple(a + b for a, b in zip(ra, rb))
                         for ra, rb in zip(self.data, other.data))
        else:
            data = tuple(tuple((a + b) % p for a, b in zip(ra, rb))
                         for ra, rb in zip(self.data, other.data))
        return Matrix._make(self.field, self.rows, self.cols, data)

    def __sub__(self, other):
        return self + other.scale(self.field.of(-1))

    def scale(self, c):
        f = self.field
        c = f.of(c)
        if f.p is None:
            data = tuple(tuple(c * v for v in row) for row in self.data)
        else:
            data = tuple(tuple(c * v % f.p for v in row) for row in self.data)
        return Matrix._make(f, self.rows, self.cols, data)

    def __matmul__(self, other):
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        p = f.p
        # row by row: each nonzero a = self[i][k] adds a times row k of
        # other, whose nonzeros are read once for the whole product; over F_p
        # each row is reduced once, at its end
        brows = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        zero = f.zero()
        data = []
        for row in self.data:
            acc = [zero] * other.cols
            for a, brow in zip(row, brows):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            data.append(tuple(acc) if p is None else tuple(v % p for v in acc))
        return Matrix._make(f, self.rows, other.cols, tuple(data))

    def transpose(self):
        if not self.rows:
            return Matrix._make(self.field, self.cols, 0, ((),) * self.cols)
        return Matrix._make(self.field, self.cols, self.rows, tuple(zip(*self.data)))

    def hstack(self, other):
        self._check_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix._make(self.field, self.rows, self.cols + other.cols,
                            tuple(ra + rb for ra, rb in zip(self.data, other.data)))

    def vstack(self, other):
        self._check_field(other)
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix._make(self.field, self.rows + other.rows, self.cols,
                            self.data + other.data)

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def select_rows(self, rs):
        return Matrix._make(self.field, len(rs), self.cols, tuple(self.data[r] for r in rs))

    def select_cols(self, js):
        return Matrix._make(self.field, self.rows, len(js),
                            tuple(tuple(row[j] for j in js) for row in self.data))

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def rref(self):
        """Reduced row echelon form and pivot columns.

        The rows go to `sparse_rref`; its pivot rows are laid out densely in
        pivot order, followed by the zero rows.  Memoized in `_rref`.
        """
        if not self.rows:
            return self, ()
        if self._rref is None:
            reduced = sparse_rref(self.field, map(enumerate, self.data))
            pivots = tuple(sorted(reduced))
            zeros = [self.field.zero()] * self.cols
            data = []
            for c in pivots:
                out = zeros.copy()
                for j, x in reduced[c].items():
                    out[j] = x
                data.append(tuple(out))
            data.extend([tuple(zeros)] * (self.rows - len(pivots)))
            self._rref = Matrix._make(self.field, self.rows, self.cols, tuple(data)), pivots
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Matrix whose columns are the standard RREF kernel basis of self."""
        R, pivots = self.rref()
        f = self.field
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        z = f.zero()
        out = [(z,) * len(free)] * self.cols
        for k, fc in enumerate(free):
            out[fc] = (z,) * k + (f.one(),) + (z,) * (len(free) - k - 1)
        for r, pc in enumerate(pivots):
            row = R.data[r]
            out[pc] = tuple(f.neg(row[fc]) for fc in free)
        return Matrix._make(f, self.cols, len(free), tuple(out))

    def image_basis(self):
        """The pivot columns of self: a basis of the column space."""
        _, pivots = self.rref()
        return self.select_cols(pivots)

    def solve(self, B):
        """Return X with self @ X = B, or None if the system is inconsistent.

        Free variables are set to zero, so the solution is deterministic.
        """
        self._check_field(B)
        if B.rows != self.rows:
            raise DimensionMismatch("solve: right-hand side row mismatch")
        R, pivots = self.hstack(B).rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        out = [(self.field.zero(),) * B.cols] * n
        for r, pc in enumerate(pivots):
            out[pc] = R.data[r][n:]
        return Matrix._make(self.field, n, B.cols, tuple(out))

    def fmt(self):
        f = self.field
        return [[f.fmt(v) for v in row] for row in self.data]

    def __repr__(self):
        return f"Matrix({self.field.tag}, {self.rows}x{self.cols})"


def linear_combination(field, rows, cols, terms):
    """The rows x cols matrix sum of c*M over the (scalar c, Matrix M) terms,
    accumulated in one dense pass."""
    acc = [[0] * cols for _ in range(rows)]
    for c, mat in terms:
        if not c:
            continue
        for arow, mrow in zip(acc, mat.data):
            for j, v in enumerate(mrow):
                if v:
                    arow[j] += c * v
    if field.p is None:
        data = tuple(tuple(v if v else _ZERO for v in row) for row in acc)
    else:
        data = tuple(tuple(v % field.p for v in row) for row in acc)
    return Matrix._make(field, rows, cols, data)


def sparse_rref(field, rows):
    """Reduced row echelon form of rows given as (column, canonical scalar)
    pairs with distinct columns, such as a dict's items or a dense row's
    `enumerate`, as {pivot column: reduced row}, each reduced row a dict
    {column: scalar} without zeros.  The reduction is `integer_rref`; over Q
    each row is first cleared of denominators, and each pivot row is scaled
    to 1 at the end, with one `Fraction` per entry.
    """
    p = field.p
    if p is not None:
        return integer_rref(p, rows)
    pivots = integer_rref(None, map(_cleared, rows))
    return {c: {j: _ONE if j == c else Fraction(x, row[c]) for j, x in row.items()}
            for c, row in pivots.items()}


def _cleared(row):
    """A row of Fraction pairs as integer pairs: times the lcm of its denominators."""
    row = [(j, x) for j, x in row if x]
    mult = lcm(*[x.denominator for _j, x in row])
    return [(j, x.numerator * (mult // x.denominator)) for j, x in row]


def integer_rref(p, rows):
    """The row reduction: rows of (column, integer) pairs with distinct
    columns, over Q (p None) or F_p (entries in [0, p)), as {pivot column:
    reduced row}, each reduced row a dict {column: integer} without zeros;
    the work follows the nonzeros.  The rows are taken in order: each is
    reduced by the pivot rows it touches, and a nonzero remainder becomes the
    pivot row of its leftmost column, which is cleared from the earlier pivot
    rows.  Over F_p a pivot row is scaled to 1; over Q it is kept primitive
    (its entries coprime) with a positive lead, so it is the unique such
    multiple of its RREF row, which is unique for any order of the rows.
    """
    pivots = {}
    for row in rows:
        row = {j: x for j, x in row if x}
        # a pivot row is zero at every other pivot column
        for c in row.keys() & pivots.keys():
            row = _eliminate(p, row, pivots[c], c)
        if row:
            lead = min(row)
            x = row[lead]
            if p is not None:
                if x != 1:
                    inv = pow(x, -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
            else:
                g = gcd(*row.values())
                if x < 0:
                    g = -g
                if g != 1:
                    row = {j: v // g for j, v in row.items()}
            for k, prow in pivots.items():
                if lead in prow:
                    pivots[k] = _eliminate(p, prow, row, lead)
            pivots[lead] = row
    return pivots


def _eliminate(p, row, prow, c):
    """row with its entry at c cleared by prow, without zeros: over F_p, where
    prow[c] is 1, row - row[c]*prow; over Q, where prow[c] > 0, prow[c]*row -
    row[c]*prow, both over their gcd, divided by its content."""
    if p is not None:
        x = row[c]
        row = row.copy()
        for j, y in prow.items():
            v = (row.get(j, 0) - x * y) % p
            if v:
                row[j] = v
            else:
                del row[j]
        return row
    g = gcd(row[c], prow[c])
    x, lead = row[c] // g, prow[c] // g
    row = {j: lead * v for j, v in row.items()}
    for j, y in prow.items():
        row[j] = row.get(j, 0) - x * y
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items() if v}


def charpoly(A):
    """Characteristic polynomial of a square matrix, low-degree-first.

    Samuelson-Berkowitz: division-free, so it is uniform over Q and F_p.
    Returns coefficients of det(tI - A).
    """
    if A.rows != A.cols:
        raise DimensionMismatch("charpoly needs a square matrix")
    f = A.field
    n = A.rows
    if n == 0:
        return [f.one()]
    # vectors are polynomials low-first; iteratively build via Toeplitz products
    poly = [f.neg(A.data[0][0]), f.one()]
    for k in range(1, n):
        a = A.data[k][k]
        R = [A.data[k][j] for j in range(k)]
        C = [A.data[i][k] for i in range(k)]
        sub = [[A.data[i][j] for j in range(k)] for i in range(k)]
        # t-column of the Toeplitz matrix: [-a, 1] then -R S^i C
        tcol = [f.neg(a), f.one()]
        vec = C
        for _ in range(k):
            s = f.zero()
            for x, y in zip(R, vec):
                if x and y:
                    s = f.add(s, f.mul(x, y))
            tcol.insert(0, f.neg(s))
            nxt = []
            for i in range(k):
                acc = f.zero()
                for j in range(k):
                    if sub[i][j] and vec[j]:
                        acc = f.add(acc, f.mul(sub[i][j], vec[j]))
                nxt.append(acc)
            vec = nxt
        # multiply: new = tcol-Toeplitz applied to old poly
        new = [f.zero()] * (len(poly) + 1)
        for i, c in enumerate(poly):
            if not c:
                continue
            for j, t in enumerate(tcol):
                if t:
                    idx = i + j - k
                    if 0 <= idx <= len(poly):
                        new[idx] = f.add(new[idx], f.mul(c, t))
        poly = new
    return poly


def poly_eval(poly, x, field):
    acc = field.zero()
    for c in reversed(poly):
        acc = field.add(field.mul(acc, x), c)
    return acc


_SCAN_LIMIT = 4096


def roots_in_field(poly, field):
    """Roots of a polynomial lying in the base field, ascending.

    Over F_p all residues are scanned (none when p exceeds `_SCAN_LIMIT`).
    Over Q the rational-root test is applied to the cleared-denominator
    polynomial, with at most `_SCAN_LIMIT` divisors of each end coefficient.
    """
    while poly and not poly[-1]:
        poly = poly[:-1]
    if len(poly) <= 1:
        return []
    if not field.is_rationals:
        if field.p > _SCAN_LIMIT:
            return []
        return [x for x in range(field.p) if not poly_eval(poly, x, field)]
    mult = lcm(*(c.denominator for c in poly))
    ipoly = [int(c * mult) for c in poly]
    while ipoly and ipoly[0] == 0:
        ipoly = ipoly[1:]
    # dropped factors of t correspond to the root 0
    roots = set()
    if len(ipoly) < len(poly):
        roots.add(Fraction(0))
    if len(ipoly) > 1:
        a0, an = abs(ipoly[0]), abs(ipoly[-1])
        for p in _bounded_divisors(a0, _SCAN_LIMIT):
            for q in _bounded_divisors(an, _SCAN_LIMIT):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if not poly_eval(poly, cand, field):
                        roots.add(cand)
    return sorted(roots)


def _bounded_divisors(n, limit):
    out = []
    d = 1
    while d * d <= n and len(out) < limit:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)[:limit]
