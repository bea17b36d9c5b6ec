"""Reference row reduction kept only as a test oracle.

These are the earlier `_rref_bareiss` (integer Bareiss forward pass, then a
back substitution in exact `Fraction`s) and `_rref_modp` (Gauss-Jordan with
field calls per entry), working on plain lists of canonical scalars.  The
reduced row echelon form is unique, so the library's rref must agree with
them entry for entry.  Kernel, image and solve are derived here from the
oracle rref by their textbook definitions.
"""

from fractions import Fraction
from math import lcm


def rref_modp(p, rows, cols, data):
    m = [list(row) for row in data]
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(inv * v) % p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                q = m[i][c]
                m[i] = [(a - (q * b) % p) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, tuple(pivots)


def rref_bareiss(rows, cols, data):
    m = []
    for row in data:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        m.append([int(v * mult) for v in row])
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        cand = [i for i in range(r, rows) if m[i][c]]
        if not cand:
            continue
        pr = min(cand, key=lambda i: (abs(m[i][c]).bit_length(), i))
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, rows):
            if any(m[i][c:]):
                piv = m[r][c]
                vic = m[i][c]
                mi, mr = m[i], m[r]
                for j in range(c, cols):
                    mi[j] = (piv * mi[j] - vic * mr[j]) // prev
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    q = [[Fraction(v) for v in row] for row in m]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        piv = q[r][c]
        q[r] = [v / piv for v in q[r]]
        for i in range(r):
            factor = q[i][c]
            if factor:
                q[i] = [a - factor * b for a, b in zip(q[i], q[r])]
    return q, tuple(pivots)


def rref(field, rows, cols, data):
    if field.p is None:
        return rref_bareiss(rows, cols, data)
    return rref_modp(field.p, rows, cols, data)


def kernel_columns(field, rows, cols, data):
    """The standard RREF kernel basis, one list per basis vector."""
    R, pivots = rref(field, rows, cols, data)
    free = [j for j in range(cols) if j not in pivots]
    out = []
    for fc in free:
        v = [field.zero()] * cols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(R[r][fc])
        out.append(v)
    return out


def image_columns(field, rows, cols, data):
    _R, pivots = rref(field, rows, cols, data)
    return [[data[i][j] for i in range(rows)] for j in pivots]


def solve_columns(field, rows, cols, data, rhs_cols, rhs):
    """Columns of X with A X = B, free variables zero; None if inconsistent."""
    aug = [list(a) + list(b) for a, b in zip(data, rhs)]
    R, pivots = rref(field, rows, cols + rhs_cols, aug)
    if any(pc >= cols for pc in pivots):
        return None
    out = []
    for k in range(rhs_cols):
        x = [field.zero()] * cols
        for r, pc in enumerate(pivots):
            x[pc] = R[r][cols + k]
        out.append(x)
    return out
