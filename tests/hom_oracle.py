"""Hom spaces by the naturality linear system, kept only as a test oracle.

Hom(M, N) is solved for on a common window, the hull of N's window and of
M's support with one degree above it: one unknown per entry of a block
M_i(x) -> N_i(x), one equation per arrow, degree and entry of
N_i(a) f_{i,x} = f_{i+1,y} M_i(a).  The program reads Hom(M, N) off M's
minimal presentation instead (`homs.ghom`), on the hull without the extra
degree; the basis is the standard kernel basis of this system in both, so
the blocks must agree.

It keeps too the composition route to End(M) at every dimension
(`end_by_composition`), and coordinates in a Hom basis solved against the
flattened basis (`solve_in_basis`); the program reads a one-dimensional End
formally, and coordinates at the basis pivots.
"""

from gradedquiver import homs
from gradedquiver.errors import WindowError
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.homs import EndAlgebra, HomSpace, _hom_slots
from gradedquiver.linalg import Matrix


def hom_window(M, N):
    """The naturality window, or refuse where N is truncated inside it."""
    if not M.is_exact:
        raise WindowError("hom source must be exact-windowed")
    sup = M.support_degrees()
    if not sup:
        return N.lo, N.hi
    dmin, dmax = sup[0], sup[-1]
    if dmin < N.lo and not N.exact_below:
        raise WindowError("target truncated below the source support")
    if dmax + 1 > N.hi and not N.exact_above:
        raise WindowError("target truncated inside the source support")
    return min(dmin, N.lo), max(dmax + 1, N.hi)


def align_for_hom(M, N):
    """Source and target re-windowed to `hom_window`; one copy serves as
    both when N is M."""
    lo, hi = hom_window(M, N)
    M2 = M.with_window(lo, hi)
    return M2, (M2 if N is M else N.with_window(lo, hi))


def ghom(M, N):
    """All graded morphisms M -> N via the naturality linear system."""
    M2, N2 = align_for_hom(M, N)
    f = M2.algebra.field
    slots, size = _hom_slots(M2, N2)
    if size == 0:
        return HomSpace(M2, N2, [])
    index = {(i, x): (rows, cols, off) for (i, x, rows, cols, off) in slots}
    eq_rows = []
    for (i, x) in M2.support():
        for a in M2.algebra.quiver.arrows_from[x]:
            if i + 1 > M2.hi:
                continue
            y = a.target
            nN1 = N2.dims.get((i + 1, y), 0)
            nM = M2.dims[(i, x)]
            Na = N2.map(a.name, i)
            Ma = M2.map(a.name, i)
            # N_i(a) f_{i,x} = f_{i+1,y} M_i(a), one equation per (p, c)
            for p in range(nN1):
                for c in range(nM):
                    row = [f.zero()] * size
                    nontrivial = False
                    if (i, x) in index:
                        rows_ix, cols_ix, off_ix = index[(i, x)]
                        for q in range(rows_ix):
                            v = Na.data[p][q]
                            if v:
                                row[off_ix + q * cols_ix + c] = v
                                nontrivial = True
                    if (i + 1, y) in index:
                        rows_iy, cols_iy, off_iy = index[(i + 1, y)]
                        for m in range(cols_iy):
                            v = Ma.data[m][c]
                            if v:
                                row[off_iy + p * cols_iy + m] = f.sub(
                                    row[off_iy + p * cols_iy + m], v)
                                nontrivial = True
                    if nontrivial:
                        eq_rows.append(row)
    if eq_rows:
        system = Matrix._make(f, len(eq_rows), size, tuple(map(tuple, eq_rows)))
        ker = system.kernel_basis()
    else:
        ker = Matrix.identity(f, size)
    basis = []
    for k in range(ker.cols):
        blocks = {}
        for (i, x, rows, cols, off) in slots:
            entries = [[ker.data[off + r * cols + c][k] for c in range(cols)]
                       for r in range(rows)]
            blk = Matrix._make(f, rows, cols, tuple(map(tuple, entries)))
            if not blk.is_zero():
                blocks[(i, x)] = blk
        basis.append(blocks)
    return HomSpace(M2, N2, basis)


class CompositionEnd(EndAlgebra):
    """End(M) on a given Hom basis by the composition table, whatever its
    dimension: the basis composed pairwise, the products and the identity
    read in the basis by solving against the flattened basis, the radical
    by the trace form."""

    def __init__(self, homspace):
        self.hom = homspace
        self.field = homspace.source.algebra.field
        n = self.dim = homspace.dim
        self._radical = None
        morphs = homspace.morphisms()
        flats = [homspace.flatten(a.compose(b).blocks) for a in morphs for b in morphs]
        flats.append(homspace.flatten(GradedMorphism.identity(homspace.source).blocks))
        self.struct = [[None] * n for _ in range(n)]
        self.identity_coords = []
        if n:
            sol = solve_in_basis(homspace, flats)
            assert sol is not None, "endomorphism composition left the hom space"
            for i in range(n):
                for j in range(n):
                    self.struct[i][j] = sol.col(i * n + j)
            self.identity_coords = sol.col(n * n)


def solve_in_basis(homspace, flats):
    """The coordinates of the flattened vectors in the Hom basis, one column
    each, solved against the basis matrix; None when one is outside its span."""
    f = homspace.source.algebra.field
    size = homspace.slots()[1]
    basis = Matrix.from_cols(f, size, [homspace.flatten(b) for b in homspace.basis_blocks])
    return basis.solve(Matrix.from_cols(f, size, flats))


def end_by_composition(M):
    """End(M) on `homs.ghom(M, M)`'s basis by the composition table."""
    return CompositionEnd(homs.ghom(M, M))
