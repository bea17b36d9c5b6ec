"""Graded hom spaces, endomorphism algebras, stable homs, and Ext^1.

Homs out of formal projective sums are piece lookups, and every other Hom
is read off the source's minimal presentation P1 --d1--> P0: Hom(M, Y) is
the kernel of the pullback Hom(P0, Y) -> Hom(P1, Y).  Hom bases between
concrete windowed modules (End algebras, the `hom` command, isomorphisms
between modules that differ, Hom(C, E) in verification) realize each
kernel tuple and compose it with a section of M's cover (`ghom`).  End
algebras skip that where End is known: a simple's End is formal, the
identity at its one piece with no Hom system, and a one-dimensional End is
k, read off its basis element with no composition table or solve; stable
hom dimensions take the kernel for Y the target and for its realized
projective cover.  Coordinates in a Hom basis are read at its pivots
(`HomSpace`), with no solve.  Homs into injectives are obtained by
dualizing: GHom(M, I_a<s>) is the dual of GHom(P°_a<-s>, D M) over the
opposite algebra; stable homs modulo injectives are stable homs modulo
projectives between the duals.  Ext^1 against a presented module
P1 --d1--> P0 is H^1 of Hom(P., N): the Hom(P1, N) tuples killed by the pullback along the next
differential P2 -> P1, which maps onto the generators of ker d1
(`next_differential`), modulo pullbacks from P0.
"""

import itertools
import random

from .errors import WindowError, UnsupportedRadical, MathRefusal
from .linalg import Matrix, roots_in_field
from .gmodule import GradedMorphism, standard_module, _memo
from .presentations import (ProjSum, projective_cover, minimal_presentation, Cover, Generator,
                            next_differential, _simple_piece)


def _hom_window(M, N):
    """The window of Hom(M, N): the hull of N's window and of M's support.
    Refuses where N is truncated inside the degrees M's minimal presentation
    reads, M's support and the degree above it, where P1's generators reach."""
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
    return min(dmin, N.lo), max(dmax, N.hi)


class HomSpace:
    """A basis of graded morphisms M -> N (on an aligned common window).

    Every basis the package builds is in pivot form on the `_hom_slots`
    flattening: each basis vector's last nonzero coordinate, its pivot, is
    zero in the others.  So coordinates are read at the pivots, and
    recombining them checks that the morphism lies in the span."""

    def __init__(self, source, target, basis_blocks):
        self.source = source
        self.target = target
        self.basis_blocks = basis_blocks
        self._slots = None
        self._flat = None

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
        return _flatten(self.source.algebra.field, *self.slots(), blocks)

    def _pivot_basis(self):
        """(flat basis, pivots), built once; refuses a basis not in pivot form."""
        if self._flat is None:
            flat = [self.flatten(b) for b in self.basis_blocks]
            pivots = [max((j for j, v in enumerate(vec) if v), default=None) for vec in flat]
            if any(p is None or sum(bool(vec[p]) for vec in flat) > 1 for p in pivots):
                raise MathRefusal("hom basis is not in pivot form")
            self._flat = flat, pivots
        return self._flat

    def _combine(self, coords):
        f = self.source.algebra.field
        vec = [f.zero()] * self.slots()[1]
        for c, basis in zip(coords, self._pivot_basis()[0]):
            if c:
                for j, v in enumerate(basis):
                    if v:
                        vec[j] = f.add(vec[j], f.mul(c, v))
        return vec

    def coordinates(self, morphism_or_blocks):
        blocks = getattr(morphism_or_blocks, "blocks", morphism_or_blocks)
        f = self.source.algebra.field
        vec = self.flatten(blocks)
        coords = [f.mul(vec[p], f.inv(basis[p])) for basis, p in zip(*self._pivot_basis())]
        if self._combine(coords) != vec:
            raise MathRefusal("morphism not in the hom space")
        return coords

    def from_coordinates(self, coords):
        blocks = _unflatten(self.source.algebra.field, self.slots()[0], self._combine(coords))
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


def _flatten(f, slots, size, blocks):
    """The blocks laid out on `_hom_slots`; a missing block is zero."""
    vec = [f.zero()] * size
    for (i, x, rows, cols, off) in slots:
        blk = blocks.get((i, x))
        if blk is not None:
            for r, row in enumerate(blk.data):
                vec[off + r * cols:off + (r + 1) * cols] = row
    return vec


def _unflatten(f, slots, vec):
    """The nonzero blocks of a vector laid out on `_hom_slots`."""
    blocks = {}
    for (i, x, rows, cols, off) in slots:
        blk = Matrix._make(f, rows, cols, tuple(tuple(vec[off + r * cols:off + (r + 1) * cols])
                                                for r in range(rows)))
        if not blk.is_zero():
            blocks[(i, x)] = blk
    return blocks


def ghom(M, N):
    """All graded morphisms M -> N, on `_hom_window`, read off M's minimal
    presentation P1 --d1--> P0.

    Hom(M, N) is the kernel of the pullback Hom(P0, N) -> Hom(P1, N); each
    kernel tuple, realized as a map P0 -> N, is composed piece by piece with
    a section of M's cover (the cover block at its pivot columns, inverted).
    The basis is the echelon form pivoting on the last nonzero coordinate of
    the `_hom_slots` flattening; it is fixed by the subspace and the order,
    so it is the standard kernel basis of the naturality system.
    """
    W = _hom_window(M, N)
    source, target = M.with_window(*W), N.with_window(*W)
    f = M.algebra.field
    slots, size = _hom_slots(source, target)
    if size == 0:
        return HomSpace(source, target, [])
    pres = minimal_presentation(M)
    aug = pres.cover0.realize(source)
    sections = {}
    for (i, x, _rows, cols, _off) in slots:
        blk = aug.block(i, x)
        pivots = blk.rref()[1]
        sections[(i, x)] = pivots, blk.select_cols(pivots).solve(Matrix.identity(f, cols))
    vecs = []
    for phi in psum_pullback_matrix(pres.d1, target).kernel_basis().transpose().data:
        mor = psum_hom_to_morphism(pres.p0, target, phi, W)
        blocks = {key: mor.block(*key).select_cols(pivots) @ inv
                  for key, (pivots, inv) in sections.items()}
        vecs.append(_flatten(f, slots, size, blocks)[::-1])
    # the rref of the reversed vectors pivots on their last nonzero coordinates
    R, pivots = Matrix._make(f, len(vecs), size, tuple(map(tuple, vecs))).rref()
    basis = [_unflatten(f, slots, vec[::-1]) for vec in reversed(R.data[:len(pivots)])]
    return HomSpace(source, target, basis)


# -- homs out of formal projectives ------------------------------------------


def hom_psum_slots(psum, N):
    """Coordinate slots of Hom(psum, N): one block of N_{-s}(b) per summand.
    Refuses where a generator degree -s falls on a truncated side of N."""
    slots = []
    off = 0
    for (b, s) in psum.summands:
        d = -s
        if d < N.lo and not N.exact_below:
            raise WindowError(f"target window misses degree {d} (truncated below)")
        if d > N.hi and not N.exact_above:
            raise WindowError(f"target window misses degree {d} (truncated above)")
        n = N.dims.get((d, b), 0) if N.lo <= d <= N.hi else 0
        slots.append((b, d, n, off))
        off += n
    return slots, off


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
            # the entry's block: the rows of src slot j, the columns of dst
            # slot i, disjoint from every other entry's
            act = N.element_action(e, di)  # N_{di}(a) -> N_{dj}(b)
            for r in range(nj):
                entries[offj + r][offi:offi + ni] = act.data[r]
    return Matrix._make(f, src_size, dst_size, tuple(map(tuple, entries)))


def psum_hom_to_morphism(psum, N, coords, window):
    """Realize a Hom(psum, N) coordinate tuple as a concrete morphism: the
    generator of each summand goes to its slot's slice of the tuple."""
    slots, _size = hom_psum_slots(psum, N)
    return Cover(psum, [Generator(d, b, coords[off:off + n])
                        for (b, d, n, off) in slots]).realize(N, window)


def psum_hom_basis(psum, N):
    """The basis of Hom(psum, N), its unit coordinate tuples, realized on
    N's window; refuses where `hom_psum_slots` does."""
    f = N.algebra.field
    n = hom_psum_slots(psum, N)[1]
    return [psum_hom_to_morphism(psum, N, [f.one() if t == k else f.zero() for t in range(n)],
                                 (N.lo, N.hi)) for k in range(n)]


# -- homs into injectives ------------------------------------------------------


def ghom_to_injective(M, vertex, s):
    """Basis of GHom(M, I_vertex<s>) realized on M's window; dim = dim M_{-s}(vertex).

    I_vertex<s> = D(P°_vertex<-s>), so the k-th basis morphism is the dual of
    the map P°_vertex<-s> -> D M over the opposite algebra that sends the
    generator to the k-th basis vector of (D M)_s(vertex): the k-th
    dual-basis functional on M_{-s}(vertex).  The one sending a chosen
    element m to the socle generator is a scaled basis combination.
    """
    alg = M.algebra
    psum = ProjSum(alg.opposite(), [(vertex, -s)])
    basis = [{key: m for key, m in mor.dual().blocks.items() if not m.is_zero()}
             for mor in psum_hom_basis(psum, M.dual_windowed())]
    return HomSpace(M, standard_module(alg, "I", vertex, s, window=(M.lo, M.hi)), basis)


# -- endomorphism algebras -------------------------------------------------------


class EndAlgebra:
    """GEnd(M) with structure constants, identity, and Jacobson radical.

    A one-dimensional End(M) is k, read off its basis element b = c*id
    (every brick, simples included): the structure constant is c, the
    identity is 1/c and the radical is zero, since the trace form gives
    c^2 != 0; nothing is composed or solved.  Otherwise the basis is
    composed pairwise and the products and the identity are read in the
    basis at its pivots (`HomSpace.coordinates`); nothing is solved.
    """

    def __init__(self, homspace):
        self.hom = homspace
        f = self.field = homspace.source.algebra.field
        n = homspace.dim
        self.dim = n
        if n == 1:
            # b = c*id is c at every piece of the support, so any block reads c
            c = next(iter(homspace.basis_blocks[0].values())).data[0][0]
            self.struct = [[[c]]]
            self.identity_coords = [f.inv(c)]
            self._radical = Matrix.zeros(f, 1, 0)
            return
        # the identity first: it builds the pivot basis, whose refusal is its own
        self.identity_coords = homspace.coordinates(GradedMorphism.identity(homspace.source))
        morphs = homspace.morphisms()
        try:
            self.struct = [[homspace.coordinates(u.compose(v)) for v in morphs] for u in morphs]
        except MathRefusal:
            raise MathRefusal("endomorphism composition left the hom space") from None
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
        # tr(b_i b_j) = sum_m struct[i][j][m] tr(b_m); Matrix reduces the sums
        traces = [sum(self.struct[m][k][k] for k in range(n)) for m in range(n)]
        gram = [[sum(map(f.mul, prod, traces)) for prod in row] for row in self.struct]
        rad = Matrix(f, n, n, gram).kernel_basis()
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
    """GEnd(M), computed once per module.  The End of a simple S_x<-i> is
    formal: its Hom basis is the identity at its one piece (i, x), which is
    `ghom(M, M)`'s basis too (the echelon form scales the last nonzero
    coordinate to 1), so no Hom system is built."""
    if not M.is_exact:
        raise WindowError("endomorphism algebra needs an exact window")
    return _memo(M._derived, "end", lambda: EndAlgebra(_end_hom(M)))


def _end_hom(M):
    piece = _simple_piece(M)
    if piece is None:
        return ghom(M, M)
    return HomSpace(M, M, [{piece: Matrix.identity(M.algebra.field, 1)}])


class IndecomposabilityVerdict:
    def __init__(self, status, idempotent=None, summand_dims=None, trials=0):
        self.status = status  # "yes" | "no" | "presumed"
        self.idempotent = idempotent
        self.summand_dims = summand_dims
        self.trials = trials

    def __repr__(self):
        return f"IndecomposabilityVerdict({self.status!r}, trials={self.trials})"


def is_strongly_indecomposable(M):
    """Certified "yes" when End/rad is one dimensional, "no" with a Fitting
    splitting when one is found, else "presumed".  The endomorphisms tried
    are fixed: the basis of End(M), the pairwise sums of its elements, then
    64 coordinate vectors drawn from a fresh `random.Random(0)`, so each
    verdict, idempotent and trial count is the same on every call."""
    if M.is_zero():
        return IndecomposabilityVerdict("no", summand_dims=(0, 0))
    end = end_algebra(M)
    if end.is_local_with_trivial_residue():
        return IndecomposabilityVerdict("yes")
    f = end.field
    n = end.dim
    units = [[f.one() if k == i else f.zero() for k in range(n)] for i in range(n)]
    sums = [[f.add(a, b) for a, b in zip(u, v)] for u, v in itertools.combinations(units, 2)]
    rng = random.Random(0)
    small = [-2, -1, 1, 2] if f.is_rationals else list(range(1, f.p))
    candidates = units + sums + [[f.of(rng.choice(small + [0])) for _ in range(n)]
                                 for _ in range(64)]
    for trials, coords in enumerate(candidates, 1):
        phi = end.hom.from_coordinates(coords)
        split = _fitting_split(M, phi)
        if split is not None:
            idem, dims = split
            return IndecomposabilityVerdict("no", idempotent=idem,
                                            summand_dims=dims, trials=trials)
    return IndecomposabilityVerdict("presumed", trials=len(candidates))


def _fitting_split(M, phi):
    """Try to split M along an eigenvalue of the endomorphism phi."""
    f = M.algebra.field
    total = sum(M.dims.values())
    for lam in roots_in_field(_minimal_polynomial(M, phi), f):
        psi = phi + GradedMorphism.identity(M).scale(f.neg(f.of(lam)))
        power = psi
        for _ in range(max(total.bit_length(), 1)):
            power = power.compose(power)
        kd = sum(basis.cols for basis, _free in power.kernel_bases().values())
        if kd and total - kd:
            return _projection_onto_image(M, power), (kd, total - kd)
    return None


def _minimal_polynomial(M, phi):
    """The minimal polynomial of phi in End(M), monic and low-degree first.

    The powers id, phi, phi^2, ... are flattened on `_hom_slots` of
    phi.source (which may be M re-windowed) until one lies in the span of
    the lower ones; their one kernel vector is then the relation, with the
    free coordinate, that of the top power, set to 1 by `kernel_basis`."""
    f = M.algebra.field
    source = phi.source
    slots, size = _hom_slots(source, source)
    power = GradedMorphism.identity(source)
    powers = []
    while True:
        powers.append(_flatten(f, slots, size, power.blocks))
        relation = Matrix._make_cols(f, size, powers).kernel_basis()
        if relation.cols:
            return relation.col(0)
        power = phi.compose(power)


def _projection_onto_image(M, power):
    """The idempotent projecting onto im(power) along ker(power), piece by
    piece from the kernel bases and the blocks' image bases."""
    f = M.algebra.field
    kers = power.kernel_bases()
    blocks = {}
    for (i, x), n in M.dims.items():
        kb = kers[(i, x)][0] if (i, x) in kers else Matrix.zeros(f, n, 0)
        ib = power.block(i, x).image_basis()
        S = kb.hstack(ib)
        inv = S.solve(Matrix.identity(f, n))
        if inv is None:
            raise MathRefusal("Fitting decomposition is not piecewise split")
        lower = Matrix._make(f, ib.cols, n, inv.data[kb.cols:])
        blocks[(i, x)] = ib @ lower
    return GradedMorphism(M, M, blocks, check=False)


# -- stable homs -----------------------------------------------------------------


def underline_hom_dim(M, N):
    """dim of Hom(M, N) modulo maps factoring through projectives, read off
    M's minimal presentation P1 --d1--> P0; no naturality system is solved.

    Hom(M, Y) is the kernel of the pullback Hom(P0, Y) -> Hom(P1, Y).  A map
    factors through some projective iff it lifts along the projective cover
    Q -> N, so the quotient is Hom(M, N) modulo Hom(M, Q) pushed through the
    cover's blocks at P0's generator slots, with Q realized on the hull of
    the presentation's window and N's.  N must be known where `ghom` reads
    it (`_hom_window`).  Hom(M, N) embeds in Hom(P0, N), so it is zero when
    that has no coordinates.
    """
    _hom_window(M, N)
    pres = minimal_presentation(M)
    # P1 before P0: the refusals of psum_pullback_matrix, in its order
    hom_psum_slots(pres.p1, N)
    if not hom_psum_slots(pres.p0, N)[1]:
        return 0
    hom = psum_pullback_matrix(pres.d1, N).kernel_basis()
    if hom.cols == 0:
        return 0
    lo, hi = pres.window
    cov = projective_cover(N).realize(N, (min(lo, N.lo), max(hi, N.hi)))
    lifts = psum_pullback_matrix(pres.d1, cov.source).kernel_basis()
    f = M.algebra.field
    pushed = Matrix.zeros(f, 0, lifts.cols)
    for b, d, n, off in hom_psum_slots(pres.p0, cov.source)[0]:
        lift = Matrix._make(f, n, lifts.cols, lifts.data[off:off + n])
        pushed = pushed.vstack(cov.block(d, b) @ lift)
    return hom.cols - pushed.rank()


# -- Ext^1 --------------------------------------------------------------------------


class ExtSpace:
    """Ext^1 of a presented module against N, as cocycle tuples on P1.

    Input is any presentation P1 --d1--> P0 with exact image (the cokernel is
    the module in question).  Ext^1 is the first cohomology of Hom(P., N): a
    class is a Hom(P1, N) tuple killed by the pullback along the next
    differential P2 -> P1 (`next_differential`), modulo tuples pulled back
    from P0; representatives are deterministic echelon choices.  The tuple
    only sees ker d1 up to the top of N's support, so P2 is taken on the hull
    of N's window and the generator degrees of P1 and P0.
    """

    def __init__(self, d1, N):
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
            return
        degrees = [-s for _a, s in self.p1.summands + self.p0.summands] + [N.lo, N.hi]
        d2 = next_differential(d1, (min(degrees), max(degrees)))
        self.B = psum_pullback_matrix(d1, N).image_basis()
        self.Z = psum_pullback_matrix(d2, N).kernel_basis()
        # the cocycles outside the span of B and the earlier ones
        _, pivots = self.B.hstack(self.Z).rref()
        self.reps = [self.Z.col(c - self.B.cols) for c in pivots if c >= self.B.cols]
        self.dim = len(self.reps)


def ext1(M, N):
    """Ext^1(M, N) from the minimal presentation of M, which
    `minimal_presentation` keeps on M."""
    return ExtSpace(minimal_presentation(M).d1, N)
