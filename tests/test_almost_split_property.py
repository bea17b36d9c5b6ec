"""Spot-check the defining factorization property of constructed sequences.

The certificate route (nonzero socle class) is what the engine verifies; here
a finite battery of test morphisms checks the definition directly: every
non-retraction X -> C must factor through the right-hand map g, and no
retraction may.  Lifting is an affine linear problem: find a graded morphism
u: X -> E with g o u = h.
"""

from gradedquiver import Matrix, Quiver, GradedAlgebra, GradedModule, QQ, standard_module
from gradedquiver.homs import ghom
from gradedquiver.artheory import almost_split_sequence, verify_almost_split

from conftest import make_fix_b, make_fix_c, make_fix_d


def lifts_through(g, h):
    """Is there a graded morphism u with g o u = h?  (affine solve)"""
    X = h.source
    E = g.source
    f = X.algebra.field
    slots = []
    off = 0
    for (i, x) in X.support():
        rows = E.dims.get((i, x), 0)
        cols = X.dims[(i, x)]
        if rows:
            slots.append((i, x, rows, cols, off))
            off += rows * cols
    size = off
    index = {(i, x): (r, c, o) for (i, x, r, c, o) in slots}
    eq_rows = []
    rhs = []
    # naturality of u
    for (i, x) in X.support():
        for a in X.algebra.quiver.arrows_from[x]:
            y = a.target
            nE1 = E.dims.get((i + 1, y), 0)
            nX = X.dims[(i, x)]
            Ea = E.map(a.name, i)
            Xa = X.map(a.name, i)
            for p in range(nE1):
                for c in range(nX):
                    row = [f.zero()] * size
                    if (i, x) in index:
                        r_, c_, o_ = index[(i, x)]
                        for q in range(r_):
                            if Ea.data[p][q]:
                                row[o_ + q * c_ + c] = Ea.data[p][q]
                    if (i + 1, y) in index:
                        r_, c_, o_ = index[(i + 1, y)]
                        for m in range(c_):
                            if Xa.data[m][c]:
                                row[o_ + p * c_ + m] = f.sub(
                                    row[o_ + p * c_ + m], Xa.data[m][c])
                    if any(row):
                        eq_rows.append(row)
                        rhs.append(f.zero())
    # composition g o u = h
    for (i, x, r_, c_, o_) in slots:
        gb = g.block(i, x)
        hb = h.block(i, x)
        for p in range(gb.rows):
            for c in range(c_):
                row = [f.zero()] * size
                for q in range(r_):
                    if gb.data[p][q]:
                        row[o_ + q * c_ + c] = gb.data[p][q]
                eq_rows.append(row)
                rhs.append(hb.data[p][c])
    # pieces where X lives but E does not: h must vanish there already
    for (i, x) in X.support():
        if (i, x) not in index:
            hb = h.block(i, x)
            if not hb.is_zero():
                return False
    if not eq_rows:
        return all(h.block(i, x).is_zero() for (i, x) in X.support())
    A = Matrix(X.algebra.field, len(eq_rows), size, eq_rows)
    B = Matrix.from_cols(X.algebra.field, len(rhs), [rhs])
    return A.solve(B) is not None


def battery(alg, C):
    """Shifted simples plus thin standard slices, re-windowed onto C."""
    mods = []
    supp = C.support_degrees()
    lo, hi = supp[0] - 1, supp[-1] + 1
    for v in alg.quiver.vertices[:6]:
        for d in range(lo, hi + 1):
            mods.append(standard_module(alg, "S", v, -d).with_window(C.lo, C.hi))
            for thick in (2, 3):
                big = standard_module(alg, "P", v, -d, window=(d - 1, d + thick))
                dims = {(e, x): n for (e, x), n in big.dims.items()
                        if d <= e <= d + thick - 1 and C.lo <= e <= C.hi}
                maps = {(nm, e): m for (nm, e), m in big.maps.items()
                        if max(d, C.lo) <= e and e + 1 <= min(d + thick - 1, C.hi)}
                if dims:
                    from gradedquiver import GradedModule
                    mods.append(GradedModule(alg, C.lo, C.hi, dims, maps))
    uniq = []
    seen = set()
    for m in mods:
        key = tuple(sorted(m.dims.items()))
        if key and key not in seen:
            seen.add(key)
            uniq.append(m)
    return uniq


def is_retraction(h):
    """h: X -> C is a retraction iff the identity of C lifts through it."""
    from gradedquiver import GradedMorphism
    return lifts_through(h, GradedMorphism.identity(h.target))


def check_right_almost_split(alg, C):
    seq = almost_split_sequence(C, "ending")
    ok, failures = verify_almost_split(seq)
    assert ok, failures
    g = seq.g
    C_W = seq.C
    tested = 0
    nontrivial = 0
    for X in battery(alg, C_W):
        H = ghom(X, C_W)
        for k in range(H.dim):
            h = H.morphism(k)
            if h.is_zero():
                continue
            lifted = lifts_through(g, h)
            if is_retraction(h):
                assert not lifted, "a retraction lifted through g (g would split)"
            else:
                assert lifted, (X.dims, "non-retraction failed to factor")
                nontrivial += 1
            tested += 1
    assert tested >= 2 and nontrivial >= 1, (tested, nontrivial)
    return tested


def colifts_through(f, h):
    """Is there u: E -> Y with u o f = h, for f: A -> E and h: A -> Y?

    Solved by duality: it is the lifting problem for the dual morphisms.
    """
    return lifts_through(f.dual(), h.dual())


def check_left_almost_split(alg, seq):
    f = seq.f
    A = seq.A
    tested = 0
    nontrivial = 0
    for Y in battery(alg, A):
        H = ghom(A.with_window(Y.lo, Y.hi) if (A.lo, A.hi) != (Y.lo, Y.hi) else A, Y)
        for k in range(H.dim):
            h = H.morphism(k)
            if h.is_zero():
                continue
            section = _is_section(h)
            lifted = colifts_through(f, h)
            if section:
                assert not lifted, "a section colifted through f (f would split)"
            else:
                assert lifted, (Y.dims, "non-section failed to factor")
                nontrivial += 1
            tested += 1
    assert tested >= 1, tested
    return tested, nontrivial


def _is_section(h):
    """h: A -> Y is a section iff some r: Y -> A has r o h = id_A."""
    from gradedquiver import GradedMorphism
    return colifts_through(h, GradedMorphism.identity(h.source))


def test_right_almost_split_property_fix_b():
    alg = make_fix_b()
    n = check_right_almost_split(alg, standard_module(alg, "S", "1", 0))
    assert n >= 2


def test_left_almost_split_property_fix_b():
    alg = make_fix_b()
    seq = almost_split_sequence(standard_module(alg, "S", "2", -1), "starting")
    ok, failures = verify_almost_split(seq)
    assert ok, failures
    tested, nontrivial = check_left_almost_split(alg, seq)
    assert nontrivial >= 1


def test_left_almost_split_property_fix_d():
    alg = make_fix_d()
    seq = almost_split_sequence(standard_module(alg, "S", "3", 0), "starting")
    ok, failures = verify_almost_split(seq)
    assert ok, failures
    check_left_almost_split(alg, seq)


def test_right_almost_split_property_fix_d():
    alg = make_fix_d()
    for v in ("1", "3", "5"):
        check_right_almost_split(alg, standard_module(alg, "S", v, 0))


def test_right_almost_split_property_fix_c():
    alg = make_fix_c()
    check_right_almost_split(alg, standard_module(alg, "S", "2", 0))


def test_right_almost_split_property_kronecker():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = GradedAlgebra(q, QQ, [])
    C = GradedModule(alg, 0, 1, {(0, "1"): 2, (1, "2"): 2},
                     {("a", 0): Matrix(QQ, 2, 2, [[0, 1], [0, 0]]),
                      ("b", 0): Matrix.identity(QQ, 2)})
    check_right_almost_split(alg, C)
    # and the graded simple at the source vertex
    check_right_almost_split(alg, standard_module(alg, "S", "1", 0))
