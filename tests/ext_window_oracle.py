"""Ext^1 by the earlier windowed route, kept only as a test oracle.

A cocycle is a Hom(P1, N) tuple that vanishes on every kernel basis vector
of the presentation differential d1 realized on a window, one linear row per
basis vector and coordinate of N (`_kernel_constraints`); the caller may pick
the window.  The program instead takes the tuples killed by the pullback
along the next differential P2 -> P1 onto the generators of ker d1, on the
hull of N's window and the generator degrees.  Both must give the same
dimension, coboundaries, representatives, class coordinates and refusals.
"""

from gradedquiver.errors import MathRefusal, WindowError
from gradedquiver.homs import hom_psum_slots, psum_pullback_matrix
from gradedquiver.linalg import Matrix


class WindowedExtSpace:
    """Ext^1 of a presented module against N, as cocycle tuples on P1, on a
    window (by default the hull of N's and the generator degrees).

    Input is any presentation P1 --d1--> P0 with exact image (the cokernel is
    the module in question).  A class is a Hom(P1, N) tuple vanishing on the
    kernel of d1, modulo tuples pulled back from P0; representatives are
    deterministic echelon choices.  Since the constraints land inside N, the
    kernel only matters up to the top of N's support, so a window reaching
    max(N.hi, generator degrees) is complete.
    """

    def __init__(self, d1, N, window=None):
        self.d1 = d1
        self.p1 = d1.src
        self.p0 = d1.dst
        self.N = N
        f = N.algebra.field
        self.field = f
        if not N.exact_above:
            raise WindowError("Ext target must be exact above (cocycle "
                              "conditions live inside its support)")
        self.slots, self.size = hom_psum_slots(self.p1, N)
        if self.size == 0:
            self.B = Matrix.zeros(f, 0, 0)
            self.Z = Matrix.zeros(f, 0, 0)
            self.reps = []
            self.dim = 0
            self.window = window
            return
        if window is None:
            degrees = [-s for _a, s in self.p1.summands + self.p0.summands] + [N.lo, N.hi]
            window = (min(degrees), max(degrees))
        self.window = window
        boundary = psum_pullback_matrix(d1, N)  # Hom(P0,N) -> Hom(P1,N)
        self.B = boundary.image_basis()
        constraints = _kernel_constraints(d1, N, window)
        self.Z = constraints.kernel_basis()
        # the cocycles outside the span of B and the earlier ones
        _, pivots = self.B.hstack(self.Z).rref()
        self.reps = [self.Z.col(c - self.B.cols) for c in pivots if c >= self.B.cols]
        self.dim = len(self.reps)

    def class_coordinates(self, tuple_vec):
        """Coordinates of a cocycle tuple over the chosen representatives."""
        if self.dim == 0:
            return []
        f = self.field
        wall = self.B.hstack(Matrix.from_cols(f, self.size, self.reps))
        sol = wall.solve(Matrix.from_cols(f, self.size, [tuple_vec]))
        if sol is None:
            raise MathRefusal("tuple is not a cocycle representative")
        return sol.col(0)[self.B.cols:]

    def tuple_of_class(self, k):
        return list(self.reps[k])


def _kernel_constraints(d1, N, window):
    """Rows cutting out the tuples that vanish on ker(d1) inside P1.

    An element of the realized P1 with coordinates v at piece (d, x) is sent
    by the tuple xi to sum_j sum_k v[c0_j+k] u_{j,k} . xi_j, so each kernel
    basis vector contributes dim N_d(x) linear rows.
    """
    alg = N.algebra
    f = alg.field
    p1 = d1.src
    slots, size = hom_psum_slots(p1, N)
    kers = d1.kernel_bases(window)
    if not kers:
        return Matrix.zeros(f, 0, size)
    _total, offsets = p1.realize(window)
    rows = []
    for (d, x), (basis, _free) in kers.items():
        ndim = N.dims.get((d, x), 0) if N.lo <= d <= N.hi else 0
        if ndim == 0:
            if d > N.hi or (d < N.lo and N.exact_below):
                continue
            if d < N.lo:
                raise WindowError("kernel constraint below the target window")
            continue
        acts = {}
        for j, (b, s) in enumerate(p1.summands):
            piece = alg.piece(d + s, b, x)
            if piece.dim == 0:
                continue
            acts[j] = [N.path_action(rep, -s) for rep in piece.rep_paths]
        for v in range(basis.cols):
            vec = basis.col(v)
            for r in range(ndim):
                row = [f.zero()] * size
                nontrivial = False
                for j, (b, s) in enumerate(p1.summands):
                    if j not in acts:
                        continue
                    c0 = offsets[j][(d, x)]
                    _bj, dj, nj, offj = slots[j]
                    for k, act in enumerate(acts[j]):
                        coeff = vec[c0 + k]
                        if not coeff:
                            continue
                        for m in range(nj):
                            val = f.mul(coeff, act.data[r][m])
                            if val:
                                row[offj + m] = f.add(row[offj + m], val)
                                nontrivial = True
                if nontrivial:
                    rows.append(row)
    if not rows:
        return Matrix.zeros(f, 0, size)
    return Matrix(f, len(rows), size, rows)
