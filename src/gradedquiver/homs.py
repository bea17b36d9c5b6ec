"""Graded hom spaces, endomorphism algebras, stable homs, and Ext^1.

Hom spaces between concrete windowed modules come from the naturality linear
system.  Homs out of formal projective sums are piece lookups; homs into
injectives are obtained by dualizing them: GHom(M, I_a<s>) is the dual of
GHom(P°_a<-s>, D M) over the opposite algebra.  Ext^1 against a presented
module is the space of Hom(P1, N) tuples vanishing on the kernel of the
presentation differential, modulo pullbacks from P0; the right End-action is
realized by lifting endomorphisms along the presentation.
"""

import random

from .errors import InputError, WindowError, UnsupportedRadical, MathRefusal
from .linalg import Matrix, charpoly, roots_in_field
from .gmodule import GradedMorphism, standard_module, _memo
from .presentations import (ProjSum, projective_cover, Cover, _pmap_from_generators,
                            _pmap_generator_image)


def _align_for_hom(M, N):
    """Re-window source and target to a common window where the naturality
    system is fully determined, or refuse."""
    if not M.is_exact:
        raise WindowError("hom source must be exact-windowed")
    sup = M.support_degrees()
    if not sup:
        lo, hi = N.lo, N.hi
        return M.with_window(lo, hi), N
    dmin, dmax = sup[0], sup[-1]
    lo = min(dmin, N.lo)
    hi = max(dmax + 1, N.hi)
    if N.lo > lo:
        if not N.exact_below:
            raise WindowError("target truncated below the source support")
    if N.hi < hi:
        if not N.exact_above:
            if dmax + 1 > N.hi:
                raise WindowError("target truncated inside the source support")
            hi = N.hi
    N2 = N.with_window(lo, hi)
    M2 = M.with_window(lo, hi)
    return M2, N2


class HomSpace:
    """A basis of graded morphisms M -> N (on an aligned common window)."""

    def __init__(self, source, target, basis_blocks):
        self.source = source
        self.target = target
        self.basis_blocks = basis_blocks
        self._slots = None

    @property
    def dim(self):
        return len(self.basis_blocks)

    def morphism(self, k):
        return GradedMorphism(self.source, self.target, self.basis_blocks[k],
                              check=False)

    def morphisms(self):
        return [self.morphism(k) for k in range(self.dim)]

    def slots(self):
        """Flattening order: (i, x, rows, cols, offset) over shared support."""
        if self._slots is None:
            self._slots = _hom_slots(self.source, self.target)
        return self._slots

    def flatten(self, blocks):
        slots, size = self.slots()
        f = self.source.algebra.field
        vec = [f.zero()] * size
        for (i, x, rows, cols, off) in slots:
            blk = blocks.get((i, x))
            if blk is None:
                continue
            for r in range(rows):
                for c in range(cols):
                    vec[off + r * cols + c] = blk.data[r][c]
        return vec

    def basis_matrix(self):
        f = self.source.algebra.field
        _, size = self.slots()
        return Matrix._make_cols(f, size, [self.flatten(b) for b in self.basis_blocks])

    def coordinates(self, morphism_or_blocks):
        blocks = getattr(morphism_or_blocks, "blocks", morphism_or_blocks)
        f = self.source.algebra.field
        _, size = self.slots()
        rhs = Matrix.from_cols(f, size, [self.flatten(blocks)])
        sol = self.basis_matrix().solve(rhs)
        if sol is None:
            raise MathRefusal("morphism not in the hom space")
        return sol.col(0)

    def from_coordinates(self, coords):
        f = self.source.algebra.field
        blocks = {}
        for c, basis in zip(coords, self.basis_blocks):
            if not c:
                continue
            for key, mat in basis.items():
                blocks[key] = blocks.get(key) + mat.scale(c) if key in blocks \
                    else mat.scale(c)
        return GradedMorphism(self.source, self.target, blocks, check=False)


def _hom_slots(M, N):
    """(slots, size): the blocks of a morphism M -> N flattened row-major,
    one (i, x, rows, cols, offset) per piece of M's support that N shares."""
    slots = []
    off = 0
    for (i, x) in M.support():
        rows = N.dims.get((i, x), 0)
        cols = M.dims[(i, x)]
        if rows:
            slots.append((i, x, rows, cols, off))
            off += rows * cols
    return slots, off


def ghom(M, N):
    """All graded morphisms M -> N via the naturality linear system."""
    M2, N2 = _align_for_hom(M, N)
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
        sys = Matrix._make(f, len(eq_rows), size, tuple(map(tuple, eq_rows)))
        ker = sys.kernel_basis()
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


def ghom_dim(M, N):
    return ghom(M, N).dim


# -- homs out of formal projectives ------------------------------------------


def check_psum_window(psum, N):
    """Silently OK when every generator degree -s is visible in N's window."""
    for b, s in psum.summands:
        d = -s
        if d < N.lo and not N.exact_below:
            raise WindowError(f"target window misses degree {d} (truncated below)")
        if d > N.hi and not N.exact_above:
            raise WindowError(f"target window misses degree {d} (truncated above)")


def hom_psum_slots(psum, N):
    """Coordinate slots of Hom(psum, N): one block of N_{-s}(b) per summand."""
    check_psum_window(psum, N)
    slots = []
    off = 0
    for (b, s) in psum.summands:
        d = -s
        n = N.dims.get((d, b), 0) if N.lo <= d <= N.hi else 0
        slots.append((b, d, n, off))
        off += n
    return slots, off


def hom_psum_dim(psum, N):
    _slots, size = hom_psum_slots(psum, N)
    return size


def psum_pullback_matrix(pmap, N):
    """Matrix of Hom(pmap, N): Hom(dst, N) -> Hom(src, N) in slot coordinates."""
    src_slots, src_size = hom_psum_slots(pmap.src, N)
    dst_slots, dst_size = hom_psum_slots(pmap.dst, N)
    f = N.algebra.field
    entries = [[f.zero()] * dst_size for _ in range(src_size)]
    for i, (a, di, ni, offi) in enumerate(dst_slots):
        if ni == 0:
            continue
        for j, (b, dj, nj, offj) in enumerate(src_slots):
            if nj == 0:
                continue
            e = pmap.entries[i][j]
            if e is None:
                continue
            act = N.element_action(e, di)  # N_{di}(a) -> N_{dj}(b)
            for r in range(nj):
                for c in range(ni):
                    entries[offj + r][offi + c] = f.add(entries[offj + r][offi + c],
                                                        act.data[r][c])
    return Matrix._make(f, src_size, dst_size, tuple(map(tuple, entries)))


def psum_hom_to_morphism(psum, N, coords, window):
    """Realize a Hom(psum, N) coordinate tuple as a concrete morphism."""
    from .gmodule import ModuleElement
    slots, size = hom_psum_slots(psum, N)
    gens = []
    for (b, d, n, off) in slots:
        gens.append(ModuleElement(N, d, b, [coords[off + k] for k in range(n)]))
    return Cover(psum, gens).realize(N, window)


# -- homs into injectives ------------------------------------------------------


def ghom_to_injective(M, vertex, s):
    """Basis of GHom(M, I_vertex<s>) realized on M's window; dim = dim M_{-s}(vertex).

    I_vertex<s> = D(P°_vertex<-s>), so the k-th basis morphism is the dual of
    the map P°_vertex<-s> -> D M over the opposite algebra that sends the
    generator to the k-th basis vector of (D M)_s(vertex): the k-th
    dual-basis functional on M_{-s}(vertex).  The one sending a chosen
    element m to the socle generator is a scaled basis combination (see
    `extend_to_injective`).
    """
    alg = M.algebra
    f = alg.field
    psum = ProjSum(alg.opposite(), [(vertex, -s)])
    DM = M.dual_windowed()
    n = hom_psum_dim(psum, DM)  # raises when -s falls on a truncated side
    basis = []
    for k in range(n):
        coords = [f.one() if t == k else f.zero() for t in range(n)]
        mor = psum_hom_to_morphism(psum, DM, coords, (DM.lo, DM.hi)).dual()
        basis.append({key: m for key, m in mor.blocks.items() if not m.is_zero()})
    return HomSpace(M, standard_module(alg, "I", vertex, s, window=(M.lo, M.hi)), basis)


def extend_to_injective(m, s=None):
    """A morphism f: M -> I_a<s> with f(m) the socle generator of I_a<s>."""
    M = m.module
    if s is None:
        s = -m.degree
    H = ghom_to_injective(M, m.vertex, s)
    f = M.algebra.field
    for t, c in enumerate(m.coords):
        if c:
            return H.morphism(t).scale(f.inv(c))
    raise InputError("cannot extend the zero element")


# -- endomorphism algebras -------------------------------------------------------


class EndAlgebra:
    """GEnd(M) with structure constants, identity, and Jacobson radical."""

    def __init__(self, homspace):
        self.hom = homspace
        self.field = homspace.source.algebra.field
        n = homspace.dim
        self.dim = n
        B = homspace.basis_matrix()
        self._B = B
        morphs = homspace.morphisms()
        self.struct = [[None] * n for _ in range(n)]
        flats = []
        for i in range(n):
            for j in range(n):
                comp = morphs[i].compose(morphs[j])
                flats.append(homspace.flatten(comp.blocks))
        if n:
            rhs = Matrix.from_cols(self.field, len(flats[0]), flats)
            sol = B.solve(rhs)
            if sol is None:
                raise MathRefusal("endomorphism composition left the hom space")
            for i in range(n):
                for j in range(n):
                    self.struct[i][j] = sol.col(i * n + j)
        ident = GradedMorphism.identity(homspace.source)
        self.identity_coords = homspace.coordinates(ident) if n else []
        self._radical = None

    def multiply_coords(self, u, v):
        f = self.field
        out = [f.zero()] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                contrib = self.struct[i][j]
                for k in range(self.dim):
                    if contrib[k]:
                        out[k] = f.add(out[k], f.mul(f.mul(ui, vj), contrib[k]))
        return out

    def radical_basis(self):
        """Columns spanning rad End(M), by the trace form of the regular
        representation (valid in characteristic 0 or p > dim)."""
        if self._radical is not None:
            return self._radical
        f = self.field
        n = self.dim
        if not f.is_rationals and f.p <= n:
            raise UnsupportedRadical(
                f"radical via the trace form needs characteristic 0 or p > {n}")
        traces = [sum((self.struct[m][k][k] for k in range(n)), f.zero())
                  for m in range(n)]
        gram = [[f.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                prod = self.struct[i][j]
                acc = f.zero()
                for m in range(n):
                    if prod[m]:
                        acc = f.add(acc, f.mul(prod[m], traces[m]))
                gram[i][j] = acc
        G = Matrix(f, n, n, gram)
        rad = G.kernel_basis()
        self._verify_nilpotent(rad)
        self._radical = rad
        return rad

    def _verify_nilpotent(self, rad):
        cols = [rad.col(k) for k in range(rad.cols)]
        layer = cols
        for _ in range(self.dim + 1):
            if not layer:
                return
            # the products that enlarge the span, taken greedily in order,
            # are the pivot columns
            products = [self.multiply_coords(u, v) for u in layer for v in cols]
            _, pivots = Matrix.from_cols(self.field, self.dim, products).rref()
            layer = [products[j] for j in pivots]
        raise MathRefusal("radical candidate failed the nilpotency check")

    def residue_dim(self):
        return self.dim - self.radical_basis().cols

    def is_local_with_trivial_residue(self):
        return self.dim > 0 and self.residue_dim() == 1


def end_algebra(M):
    """GEnd(M), computed once per module."""
    if not M.is_exact:
        raise WindowError("endomorphism algebra needs an exact window")
    return _memo(M._derived, "end", lambda: EndAlgebra(ghom(M, M)))


class IndecomposabilityVerdict:
    def __init__(self, status, idempotent=None, summand_dims=None, trials=0):
        self.status = status  # "yes" | "no" | "presumed"
        self.idempotent = idempotent
        self.summand_dims = summand_dims
        self.trials = trials

    def __repr__(self):
        return f"IndecomposabilityVerdict({self.status!r}, trials={self.trials})"


def is_strongly_indecomposable(M, budget=64, seed=0):
    """Certified "yes" when End/rad is one dimensional, "no" with a Fitting
    splitting when one is found, else "presumed" after the search budget."""
    if M.is_zero():
        return IndecomposabilityVerdict("no", summand_dims=(0, 0))
    end = end_algebra(M)
    if end.is_local_with_trivial_residue():
        return IndecomposabilityVerdict("yes")
    f = end.field
    n = end.dim
    candidates = []
    for i in range(n):
        candidates.append([f.one() if k == i else f.zero() for k in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append([f.add(a, b) for a, b in
                               zip(candidates[i], candidates[j])])
    rng = random.Random(seed)
    small = [-2, -1, 1, 2] if f.is_rationals else list(range(1, f.p))
    for _ in range(budget):
        candidates.append([f.of(rng.choice(small + [0])) for _ in range(n)])
    trials = 0
    for coords in candidates:
        trials += 1
        phi = end.hom.from_coordinates(coords)
        split = _fitting_split(M, phi)
        if split is not None:
            idem, dims = split
            return IndecomposabilityVerdict("no", idempotent=idem,
                                            summand_dims=dims, trials=trials)
    return IndecomposabilityVerdict("presumed", trials=trials)


def _fitting_split(M, phi):
    """Try to split M along an eigenvalue of the endomorphism phi."""
    f = M.algebra.field
    poly = [f.one()]
    for (i, x) in M.support():
        blk = phi.block(i, x)
        cp = charpoly(blk)
        poly = _poly_mul(f, poly, cp)
    total = sum(M.dims.values())
    for lam in roots_in_field(poly, f):
        psi = phi + GradedMorphism.identity(M).scale(f.neg(f.of(lam)))
        power = psi
        for _ in range(max(total.bit_length(), 1)):
            power = power.compose(power)
        K, _ = power.kernel()
        I, _ = power.image()
        kd = sum(K.dims.values())
        idd = sum(I.dims.values())
        if kd and idd:
            idem = _projection_onto_image(M, power)
            return idem, (kd, idd)
    return None


def _projection_onto_image(M, power):
    """The idempotent projecting onto im(power) along ker(power)."""
    f = M.algebra.field
    K, kincl = power.kernel()
    I, iincl = power.image()
    blocks = {}
    for (i, x), n in M.dims.items():
        kb = kincl.block(i, x)
        ib = iincl.block(i, x)
        S = kb.hstack(ib)
        inv = S.solve(Matrix.identity(f, n))
        if inv is None:
            raise MathRefusal("Fitting decomposition is not piecewise split")
        lower = Matrix._make(f, ib.cols, n, inv.data[kb.cols:])
        blocks[(i, x)] = ib @ lower
    return GradedMorphism(M, M, blocks, check=False)


def _poly_mul(f, p, q):
    out = [f.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = f.add(out[i + j], f.mul(a, b))
    return out


# -- stable homs -----------------------------------------------------------------


def underline_hom_dim(M, N):
    """dim of Hom(M, N) modulo maps factoring through projectives.

    A map factors through some projective iff it lifts along the projective
    cover of N, so the quotient is the cokernel of composition with the cover.
    """
    H = ghom(M, N)
    if H.dim == 0:
        return 0
    W = (H.source.lo, H.source.hi)
    cover = projective_cover(N)
    cov = cover.realize(N, W)
    HP = ghom(H.source, cov.source)
    if HP.dim == 0:
        return H.dim
    cols = []
    for g in HP.morphisms():
        comp = cov.compose(g)
        cols.append(H.flatten(comp.blocks))
    f = M.algebra.field
    img = Matrix.from_cols(f, len(cols[0]), cols)
    return H.dim - img.rank()


def overline_hom_dim(M, N):
    """dim Hom(M, N) modulo maps factoring through injectives, by duality."""
    return underline_hom_dim(N.dual(), M.dual())


# -- Ext^1 --------------------------------------------------------------------------


class ExtSpace:
    """Ext^1 of a presented module against N, as cocycle tuples on P1.

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
            gen_lo = min(-s for _a, s in (self.p1.summands + self.p0.summands))
            gen_hi = max(-s for _a, s in (self.p1.summands + self.p0.summands))
            window = (min(gen_lo, N.lo), max(gen_hi, N.hi))
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


def ext1(M, N, pres=None):
    """Ext^1(M, N) from the given presentation of M, else from its minimal
    presentation, which `minimal_presentation` keeps on M."""
    from .presentations import minimal_presentation
    if pres is None:
        pres = minimal_presentation(M)
    window = (min(M.lo, N.lo), max(M.hi + 1, N.hi))
    return ExtSpace(pres.d1, N, window)


class EndActionOnExt:
    """The right End(M)-action on Ext^1(M, N) by lifting endomorphisms.

    Lifts along `pres`, else along the minimal presentation of M, which
    `minimal_presentation` keeps on M; `ext` must be built from the same one.
    """

    def __init__(self, ext, end, pres=None):
        from .presentations import minimal_presentation
        self.ext = ext
        self.end = end
        M = end.hom.source
        if pres is None:
            pres = minimal_presentation(M)
        self.pres = pres
        window = pres.window
        self.p0 = pres.p0
        self.p1 = pres.p1
        self.gens0 = pres.cover0.generators
        self.aug0 = pres.cover0.realize(pres.module, window)

    def action_matrix(self, f_coords):
        """Matrix of xi -> xi . f on Ext-class coordinates."""
        ext = self.ext
        if ext.dim == 0:
            return Matrix.zeros(ext.field, 0, 0)
        fmor = self.end.hom.from_coordinates(f_coords)
        f1 = self._lift(fmor)
        pull = psum_pullback_matrix(f1, ext.N)
        cols = []
        for k in range(ext.dim):
            vec = Matrix.from_cols(ext.field, ext.size, [ext.tuple_of_class(k)])
            moved = pull @ vec
            cols.append(ext.class_coordinates(moved.col(0)))
        return Matrix.from_cols(ext.field, ext.dim, cols)

    def socle_subspace(self):
        """Coordinates of the classes killed by every radical endomorphism."""
        ext = self.ext
        f = ext.field
        if ext.dim == 0:
            return Matrix.zeros(f, 0, 0)
        rad = self.end.radical_basis()
        current = Matrix.identity(f, ext.dim)
        for k in range(rad.cols):
            act = self.action_matrix(rad.col(k))
            combined = act @ current
            inner = combined.kernel_basis()
            current = current @ inner
        return current

    def _lift(self, fmor):
        """Lift f: M -> M to f1: P1 -> P1 over the fixed presentation.

        f0 sends each generator of P0 to a preimage under the cover of its
        image under f; f1 sends each generator of P1 to a preimage under the
        realized d1 of its image under f0 d1.  Lifts differ only by maps into
        ker d1, on which every cocycle vanishes.
        """
        alg = self.pres.module.algebra
        window = self.pres.window
        lifted0 = []
        for g in self.gens0:
            img = fmor.block(g.degree, g.vertex) @ Matrix.from_cols(
                alg.field, len(g.coords), [list(g.coords)])
            pre = self.aug0.block(g.degree, g.vertex).solve(img)
            if pre is None:
                raise MathRefusal("endomorphism failed to lift through the cover")
            lifted0.append((g.degree, g.vertex, pre.col(0)))
        f0 = _pmap_from_generators(self.p0, window, lifted0)
        g_map = f0.compose(self.pres.d1)  # P1 -> P0
        d1 = self.pres.d1.realize(window)
        lifted1 = []
        for j, (b, t) in enumerate(self.p1.summands):
            d = -t
            pre = d1.block(d, b).solve(_pmap_generator_image(g_map, j, d, b, window))
            if pre is None:
                raise MathRefusal("lift left the syzygy")
            lifted1.append((d, b, pre.col(0)))
        return _pmap_from_generators(self.p1, window, lifted1)
