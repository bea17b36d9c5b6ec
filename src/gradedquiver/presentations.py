"""Covers, envelopes, minimal presentations, resolutions, graded dimensions.

Finitely generated projectives are handled formally: a ProjSum is a list of
(vertex, shift) summands and a PMap is a matrix of algebra elements acting by
right multiplication.  Formal data is exact in every degree; realizations on
a window are produced on demand and memoized per object and window, and so
is the kernel of a realized PMap, piece by piece.  Every generator, of a
cover, a kernel or a lift, is one `Generator` (degree, vertex, coords).  The
minimal presentation of a module is computed once and kept on the module.
It is formal too: the first syzygy im d1 is never built as a module, and
whoever needs it reads it off the realized d1, whose columns at the
generators of P1 generate it.  A simple S_v<s>, that is, any exact
one-dimensional module, is presented formally from its arrows: relations lie
in degree >= 2, so rad P_v is minimally generated by the arrows out of v,
and d1 has one summand P_x<s-1> per arrow v -> x, its entry the arrow, with
no realization, kernel or generator search (`_arrows_key`).  D S_v is
one-dimensional over the opposite algebra, so the injective side gets the
same route.

A resolution is seeded from that presentation and walked down in one pass,
on step keys: a differential up to grading shift is its summands (shifts
relative to the first source summand's) and its entries' coefficients
(`_up_to_shift`).  A step read formally is a key and a shift, and
`_differential_onto` is the one place a key becomes a PMap, where a
realization needs one or a caller reads the resolution's maps.
Each syzygy ker d_n is counted on the working window from the one before,
dim ker d_n = dim P_n - dim ker d_{n-1} piece by piece, off the projectives'
dimensions, with no realization (`_kernel_dims`); a syzygy that is not zero
is taken as the per-piece kernel bases of the realized differential d_n,
never as a module, and searched for generators (see `resolution`).  When
d_n's source is exact above the window, the whole syzygy lies inside it and
the next differential depends only on d_n up to grading shift, so the
algebra keeps its key once, under d_n's; it is read formally when the count
shows the syzygy to be all of P_n in one degree (`_top_slice_step`).  An entry also holds the shift step and the
window top the step needs, and a zero syzygy has a terminal entry, so a
resolution meeting a key again walks to it, within its cap and window.

There is no separate injective layer.  I_a<s> = D(P°_a<-s>), so a sum of
injectives (+) I_a<s> is the ProjSum (+) P°_a<-s> over the opposite algebra,
and a map of such sums is a PMap over the opposite, realized on (lo, hi) as
`.realize((-hi, -lo)).dual()`.  The injective envelope of M is the dualized
cover of D M, and the minimal copresentation of M is the minimal
presentation of D M, read through D.
"""

import math
from collections import namedtuple

from .errors import InputError, WindowError, MathRefusal
from .algebra import AlgElement
from .gmodule import GradedMorphism, zero_module, _complement_indices, _memo, _sum_with_offsets
from .linalg import Matrix


class ProjSum:
    """A formal finite direct sum of shifted projectives + P_{a}<s>."""

    def __init__(self, algebra, summands):
        self.algebra = algebra
        self.summands = tuple((str(a), int(s)) for a, s in summands)
        for a, _s in self.summands:
            algebra.quiver.check_vertex(a)
        self._realized = {}

    def __len__(self):
        return len(self.summands)

    def is_zero(self):
        return not self.summands

    def shift(self, s):
        return ProjSum(self.algebra, [(a, t + s) for a, t in self.summands])

    def realize(self, window):
        """(module, per-summand offset maps) on the given window; memoized."""
        window = tuple(window)
        got = self._realized.get(window)
        if got is not None:
            return got
        from .gmodule import standard_module
        if not self.summands:
            result = zero_module(self.algebra, *window), []
        else:
            result = _sum_with_offsets([standard_module(self.algebra, "P", a, s, window=window)
                                        for a, s in self.summands])
        self._realized[window] = result
        return result

    def support(self, cap):
        """The degree hull (lo, hi) of the sum: P_a<s> lives in [-s, -s + h(a)],
        h(a) = `GradedAlgebra.height(a, cap)`.  hi is None where a height is
        unknown; the zero sum has the empty hull (inf, -inf)."""
        heights = [self.algebra.height(a, cap) for a, _s in self.summands]
        lo = min((-s for _a, s in self.summands), default=math.inf)
        if None in heights:
            return lo, None
        return lo, max((h - s for h, (_a, s) in zip(heights, self.summands)),
                       default=-math.inf)

    def opposite(self):
        """The transpose sum over the opposite algebra: P_a<s> -> P°_a<-s>."""
        return ProjSum(self.algebra.opposite(), [(a, -s) for a, s in self.summands])

    def to_json(self):
        return [[a, s] for a, s in self.summands]

    def __repr__(self):
        return "(+)".join(f"P_{a}<{s}>" for a, s in self.summands) or "0"


class PMap:
    """A morphism of formal projective sums, one algebra element per entry.

    The entry from source summand j = P_{b}<t> into target summand i =
    P_{a}<s> lies in e_b A_{s-t} e_a and acts by right multiplication.  Maps
    are used through their realizations, which read the products off the
    piece layer (see `realize`); nothing multiplies two algebra elements.
    """

    def __init__(self, src, dst, entries):
        if src.algebra is not dst.algebra:
            raise InputError("projective map across different algebras")
        self.algebra = src.algebra
        self.src = src
        self.dst = dst
        self.entries = [[None] * len(src) for _ in range(len(dst))]
        for i in range(len(dst)):
            for j in range(len(src)):
                e = entries[i][j] if entries else None
                if e is None or e.is_zero():
                    continue
                a, s = dst.summands[i]
                b, t = src.summands[j]
                if (e.source, e.target, e.degree) != (a, b, s - t):
                    raise InputError(f"entry ({i},{j}) lies in the wrong piece")
                self.entries[i][j] = e
        self._realized = {}

    def shift(self, s):
        """The grading shift: same entries between shifted sums."""
        return PMap(self.src.shift(s), self.dst.shift(s),
                    [row[:] for row in self.entries])

    def kernel_bases(self, window):
        """The kernel of the realization on the window, piece by piece (see
        `GradedMorphism.kernel_bases`); memoized with the realization."""
        return self.realize(window).kernel_bases()

    def is_zero(self):
        return all(e is None for row in self.entries for e in row)

    def realize(self, window):
        """The induced morphism between realizations on the window; memoized.

        A representative a*rep' of the source piece maps entry e to
        a*(rep'*e): the normal form of its tail's image pushed along a
        (`_Piece.times_arrow`).  Standard paths are closed under subwords, so
        each tail is itself a representative, the one its link names, and
        its image is kept for the whole realization, as integers over one
        denominator; the blocks get canonical scalars.  This reads the
        algebra, not the realized source, so generators outside the window
        are handled as inside.
        """
        window = tuple(window)
        got = self._realized.get(window)
        if got is not None:
            return got
        src_mod, src_off = self.src.realize(window)
        dst_mod, dst_off = self.dst.realize(window)
        alg = self.algebra
        f = alg.field
        images = {}

        def image(i, j, piece, r, m):
            """Normal form of rep*e, for entry e = (i, j) and the r-th
            representative rep of `piece`, of degree m, as (denominator,
            integer numerators)."""
            key = (i, j, piece, r)
            got = images.get(key)
            if got is None:
                e = self.entries[i][j]
                link = piece.links[r]
                if link is None:
                    got = f.integers(e.coeffs)
                else:
                    a, below, k = link
                    den, vec = image(i, j, below, k, m - 1)
                    got = alg.piece(e.degree + m, e.source, a.target).times_arrow(
                        f, a.name, den, enumerate(vec))
                images[key] = got
            return got

        blocks = {}
        for (d, x), ncols in src_mod.dims.items():
            nrows = dst_mod.dims.get((d, x), 0)
            if nrows == 0:
                continue
            entries = [[f.zero()] * ncols for _ in range(nrows)]
            # entry (i, j) owns the rows of target summand i and the columns
            # of source summand j, where both are nonzero at (d, x)
            for j, (b, t) in enumerate(self.src.summands):
                c0 = src_off[j].get((d, x))
                if c0 is None:
                    continue
                piece = alg.piece(d + t, b, x)
                for i, offsets in enumerate(dst_off):
                    r0 = offsets.get((d, x))
                    if r0 is None or self.entries[i][j] is None:
                        continue
                    for c in range(piece.dim):
                        for r, v in enumerate(f.scalars(*image(i, j, piece, c, d + t))):
                            entries[r0 + r][c0 + c] = v
            blocks[(d, x)] = Matrix._make(f, nrows, ncols, tuple(map(tuple, entries)))
        result = GradedMorphism(src_mod, dst_mod, blocks, check=False)
        self._realized[window] = result
        return result

    def transpose_to_opposite(self):
        """Entrywise opposite-translation with source and target roles swapped."""
        alg = self.algebra
        src_t = self.dst.opposite()
        dst_t = self.src.opposite()
        entries = [[None] * len(src_t) for _ in range(len(dst_t))]
        for i in range(len(self.dst)):
            for j in range(len(self.src)):
                e = self.entries[i][j]
                if e is not None:
                    entries[j][i] = alg.element_opposite(e)
        return PMap(src_t, dst_t, entries)

    def to_json(self):
        return [[None if e is None else e.to_json_dict() for e in row]
                for row in self.entries]

    def __repr__(self):
        return f"PMap({self.src!r} -> {self.dst!r})"


# -- generators --------------------------------------------------------------


# a pure element of a module: its coordinate vector in the piece (degree, vertex)
Generator = namedtuple("Generator", "degree vertex coords")


def top_basis(M):
    """Generators lifting a basis of top M, lowest degrees first.

    Needs M exact on both sides, so that no generator can hide beyond the
    window.  M is read as the submodule of itself with the identity basis in
    every piece, so the generators are those of `_kernel_generators`.
    """
    if not M.exact_below:
        raise WindowError("top-basis needs the module exact below")
    if not M.exact_above:
        raise WindowError("top-basis needs the module exact above")
    f = M.algebra.field
    whole = {(i, x): (Matrix.identity(f, M.dims[(i, x)]), range(M.dims[(i, x)]))
             for (i, x) in M.support()}
    return _kernel_generators(M, whole, M.hi)


class Cover:
    """A projective cover: a formal sum and the images of its generators, one
    `Generator` triple (degree, vertex, coords) per summand."""

    def __init__(self, psum, generators):
        self.psum = psum
        self.generators = generators

    def realize(self, module, window=None):
        """The cover morphism onto `module` (re-windowed to `window`)."""
        window = window or (module.lo, module.hi)
        target = module.with_window(*window)
        src, offsets = self.psum.realize(window)
        f = src.algebra.field
        images = {}

        def image(j, piece, r, m):
            """The image of the j-th generator under the r-th representative
            of `piece`, of degree m, as a column.

            A representative a*rep' maps to a acting on the image of rep',
            which is itself a representative (standard paths are closed under
            subwords), the one its link names, so each image is one product.
            """
            key = (j, piece, r)
            got = images.get(key)
            if got is None:
                gen = self.generators[j]
                link = piece.links[r]
                if link is None:
                    got = Matrix.from_cols(f, len(gen.coords), [gen.coords])
                else:
                    a, below, k = link
                    got = target.map(a.name, gen.degree + m - 1) @ image(j, below, k, m - 1)
                images[key] = got
            return got

        blocks = {}
        for (i, x), ncols in src.dims.items():
            nrows = target.dims.get((i, x), 0)
            entries = [[f.zero()] * ncols for _ in range(nrows)]
            if nrows:
                for j, (b, s) in enumerate(self.psum.summands):
                    piece = src.algebra.piece(i + s, b, x)
                    if piece.dim == 0:
                        continue
                    c0 = offsets[j][(i, x)]
                    for c in range(piece.dim):
                        col = image(j, piece, c, i + s)
                        for r in range(nrows):
                            entries[r][c0 + c] = col.data[r][0]
            blocks[(i, x)] = Matrix._make(f, nrows, ncols, tuple(map(tuple, entries)))
        return GradedMorphism(src, target, blocks, check=False)


def projective_cover(M):
    """Cover built on one shifted projective per top-basis element; computed
    once per module, so M's presentation, the stable homs into M and M's
    translates share one top basis and the cover's realizations."""
    return _memo(M._derived, "cover", lambda: _projective_cover(M))


def _projective_cover(M):
    # S_v<s> is generated by its one vector, whatever its window
    piece = _simple_piece(M)
    gens = top_basis(M) if piece is None else [Generator(*piece, (M.algebra.field.one(),))]
    return Cover(ProjSum(M.algebra, [(g.vertex, -g.degree) for g in gens]), gens)


def _simple_piece(M):
    """The one piece (i, x) of M when M is exact and one-dimensional, that
    is, the simple S_x<-i> on some window; None otherwise."""
    if M.is_exact and len(M.dims) == 1:
        ((piece, n),) = M.dims.items()
        if n == 1:
            return piece
    return None


class ProjPresentation:
    """A minimal projective presentation P1 --d1--> P0 --aug--> M -> 0.

    Formal: the cover P0 -> M, the PMap d1 and the window [lo(M), hi(M)+1]
    that holds the generators of P1.  The first syzygy is im d1; it is read
    off the realized d1, whose column at the j-th generator of P1 is that
    generator's image in P0.  The cover is the module's own
    (`projective_cover`).  Immutable, like the module it presents;
    `_derived` keeps data computed from it once (the transpose, filled by
    artheory).  A copy of the module on a wider window may share it (see
    `artheory._pushout_sequence`), so users read the module as `module`.
    """

    def __init__(self, module, cover0, d1, window):
        self.module = module
        self.p0 = cover0.psum
        self.cover0 = cover0
        self.p1 = d1.src
        self.d1 = d1
        self.window = window
        self._derived = {}

    def module_is_projective(self):
        return self.p1.is_zero()

    def to_json_dict(self):
        return {"p0": self.p0.to_json(), "p1": self.p1.to_json(),
                "d1": self.d1.to_json(), "window": list(self.window)}


def minimal_presentation(M):
    """Minimal presentation of a finite-dimensional exact-window module.

    The first syzygy K agrees with P0 above the support of M, so all its
    generators live in degrees <= hi(M) + 1 and the fixed working window
    [lo, hi+1] is provably sufficient.  Computed once per module: equal
    calls return the same presentation.
    """
    if not M.is_exact:
        raise WindowError("minimal presentation needs an exact window")
    return _memo(M._derived, "presentation", lambda: _minimal_presentation(M))


def _minimal_presentation(M):
    window = (M.lo, M.hi + 1)
    cover0 = projective_cover(M)
    piece = _simple_piece(M)
    if piece is not None:
        d1 = _differential_onto(cover0.psum, *_arrows_key(M.algebra, *piece))
        return ProjPresentation(M, cover0, d1, window)
    aug = cover0.realize(M, window)
    found = _kernel_generators(aug.source, aug.kernel_bases(), M.hi + 1)
    return ProjPresentation(M, cover0, _pmap_from_generators(cover0.psum, window, found),
                            window)


def _arrows_key(alg, i, v):
    """d1 of the simple at (i, v), onto its cover P_v<-i>, as a step key
    (`_up_to_shift`) and its shift.

    Relations lie in degree >= 2, so A_1 = kQ_1 and rad P_v is minimally
    generated by the arrows out of v: one summand P_x<-i-1> per arrow
    v -> x, its entry the arrow.  They come in the order `_kernel_generators`
    finds them on the augmentation: by head x in vertex order (the column
    A_1 e_v), then by the piece's representatives.
    """
    col = alg.column(v, 1)
    row = tuple(u for _x, n in col for u in _units(alg.field, n))
    return (tuple((x, 0) for x, n in col for _k in range(n)), ((v, 1),), (row,)), -i - 1


def _units(f, n):
    """The unit vectors of k^n, as coefficient tuples."""
    return [tuple(f.one() if c == k else f.zero() for c in range(n)) for k in range(n)]


def _kernel_generators(P, kers, bound):
    """Generators in degrees <= bound of the submodule K of P given piece by
    piece by `kers` (see `GradedMorphism.kernel_bases`), in support order.

    At (i, x) they are the basis vectors of K_i(x) completing the radical
    sum over arrows a: y -> x of a*K_{i-1}(y), whose coordinates are read at
    the free rows: each arrow block's free rows alone are multiplied by the
    kernel basis.  Returns a list of `Generator`s, their coordinates in P.
    """
    if not P.exact_below:
        raise WindowError("top-basis needs the module exact below")
    alg = P.algebra
    f = alg.field
    out = []
    for (i, x), (basis, free) in kers.items():
        if i > bound:
            continue
        rad = [P.map(a.name, i - 1).select_rows(free) @ kers[(i - 1, a.source)][0]
               for a in alg.quiver.arrows_into[x] if (i - 1, a.source) in kers]
        coords = Matrix._make(f, len(free), sum(m.cols for m in rad),
                              tuple(sum((m.data[r] for m in rad), ()) for r in range(len(free))))
        for k in _complement_indices(f, coords, basis.cols):
            out.append(Generator(i, x, tuple(basis.col(k))))
    return out


def _pmap_from_generators(dst, window, gens):
    """The map onto the generators: one summand P_x<-i> per `Generator`
    (i, x, vec) in `gens`, its generator sent to the vector `vec` of the
    realized `dst`, split into per-summand algebra-element entries."""
    alg = dst.algebra
    _total, offsets = dst.realize(window)
    src = ProjSum(alg, [(x, -i) for i, x, _vec in gens])
    entries = [[None] * len(gens) for _ in range(len(dst))]
    for j, (deg, vertex, vec) in enumerate(gens):
        for i, (a, s) in enumerate(dst.summands):
            piece = alg.piece(deg + s, a, vertex)
            if piece.dim == 0:
                continue
            c0 = offsets[i][(deg, vertex)]
            coeffs = vec[c0:c0 + piece.dim]
            if any(coeffs):
                entries[i][j] = AlgElement(alg, deg + s, a, vertex, coeffs)
    return PMap(src, dst, entries)


def next_differential(d, window):
    """The differential after d: P -> Q in a minimal resolution, the map
    P' -> P onto the generators of ker d in degrees up to the window's top,
    read off d realized on the window; P' has one summand P_x<-i> per
    generator of degree i at x."""
    P, _offsets = d.src.realize(window)
    return _pmap_from_generators(d.src, window,
                                 _kernel_generators(P, d.kernel_bases(window), window[1]))


def _top_slice_step(alg, summands, kernel):
    """The next step's key and shift, formally, when the count `kernel` of
    ker d (see `_kernel_dims`) is all of d's source P, with these summands,
    at its pieces, all in one degree i0; None otherwise.

    Such a syzygy has no radical, so its generators are a basis of each
    piece (i0, x), and d's block there is zero, whose kernel basis is the
    identity: `next_differential` takes the unit vectors of the realized
    pieces, in support order.  So P' has one P_x<-i0> per unit vector, in
    vertex order and then in P's summand order, each sent to its unit vector
    in the piece e_x A_(i0+t) e_b of its summand P_b<t>.
    """
    degrees = {i for i, _x in kernel}
    if len(degrees) != 1:
        return None
    (i0,) = degrees
    columns = [dict(alg.column(b, i0 + t)) for b, t in summands]
    cols = []
    for x in alg.quiver.vertices:
        if (i0, x) not in kernel:
            continue
        if sum(col.get(x, 0) for col in columns) != kernel[(i0, x)]:
            return None
        cols += [(x, j, u) for j, col in enumerate(columns) for u in _units(alg.field, col.get(x, 0))]
    return ((tuple((x, 0) for x, _j, _u in cols), tuple((b, t + i0) for b, t in summands),
             tuple(tuple(u if j == i else None for _x, j, u in cols) for i in range(len(summands)))),
            -i0)


def injective_envelope(M):
    """The injective envelope of M, read off the cover of D M: (P, env).

    P = (+) P°_a<s> is the projective cover's sum of D M over the opposite
    algebra and stands for the envelope (+) I_a<-s> = D P; env: M -> D P is
    the dualized cover, a realized essential monomorphism.
    """
    if not M.is_exact:
        raise WindowError("injective envelope needs an exact window")
    D = M.dual()
    cover = projective_cover(D)
    return cover.psum, cover.realize(D, (D.lo, D.hi + 1)).dual()


class Resolution:
    """A chain of minimal covers P_m -> ... -> P_1 -> P_0 -> M.

    m is the length: pd when finite, else the lower bound, which is the cap
    when the resolution stopped there.  The walk keeps each differential as
    its step key and shift (`_up_to_shift`), and each later one is read off
    the algebra's step memo entry for the one before, as the walk read the
    tail.  `psums` [P_0, ..., P_m] are built off the keys alone, and only
    `pmaps` [d_1: P_1 -> P_0, ...] builds PMaps (`_differential_onto`), so a
    caller that reads only the report builds neither.
    """

    def __init__(self, module, p0, walked, status, length, window):
        self.module = module
        self.status = status  # "finite" | "at-least"
        self.length = length  # pd when finite, else a lower bound for it
        self.window = window
        self._p0 = p0          # P_0's summands
        self._walked = walked  # (key, shift) of each differential walked, d_1 first
        self._psums = self._pmaps = None

    def _keys(self):
        """(key, shift) of d_1, ..., d_m: those walked, then the memo's."""
        keys = list(self._walked)
        memo = self.module.algebra._resolution_steps
        while len(keys) < self.length:
            key, t0 = keys[-1]
            nxt, dt, _need = memo[key]
            keys.append((nxt, t0 + dt))
        return keys

    @property
    def psums(self):
        if self._psums is None:
            alg = self.module.algebra
            self._psums = [ProjSum(alg, self._p0)] + [
                ProjSum(alg, _shifted(key[0], t0)) for key, t0 in self._keys()]
        return self._psums

    @property
    def pmaps(self):
        if self._pmaps is None:
            self._pmaps = [_differential_onto(dst, key, t0)
                           for dst, (key, t0) in zip(self.psums, self._keys())]
        return self._pmaps

    def report(self):
        return {"kind": "exact" if self.status == "finite" else "at-least",
                "value": self.length, "window": list(self.window)}


def resolution(M, cap, pad=5, window_hi=None):
    """Iterated minimal covers up to homological degree `cap`.

    P_1 -> P_0 is the minimal presentation of M, which M keeps, or for a
    simple the key of d1 read off its arrows; from there the resolution is
    walked down once, one step key and shift per differential, building a
    PMap (`_differential_onto`) only for a realization: for
    `next_differential`, or for `_generated_in_window` on a source not
    exact above.  It is exact on the working window,
    so each syzygy's dimensions are its projective's less those of the
    syzygy before, starting from M's (`_kernel_dims`), and a zero syzygy
    ends it with no realization or kernel.  Otherwise the syzygy is taken
    piece by piece, as the kernel bases of the realized differential d_n;
    its generators at (i, x) are the basis vectors completing the image of
    the arrows into x from degree i-1, read in kernel coordinates at the
    free rows of the piece's rref, and they define P_{n+1} and d_{n+1}
    (`next_differential`).  No syzygy module is built.  Where d_n's source
    is exact above the window (`_exact_top`, once per sum), d_{n+1} is
    read off the algebra's step memo when d_n was met before up to shift,
    with no realization, kernel or generator search; when the count shows
    ker d_n to be all of P_n in one degree, the step is read formally
    (`_top_slice_step`).  And where the step memo's entries lead from such a
    d_n up to shift to a zero syzygy within the cap, every later step's
    window top inside the window, the walk stops (`_tail_length`).  The
    summands are built only if `psums` is read, off the keys walked and
    then the memo's, and the maps only if `pmaps` is read.

    Generator searches beyond the first syzygy have no a-priori degree bound;
    the working window is grown once by `pad` when a generator shows up at
    the very top of the window, and the run errors out if that happens again.
    A syzygy that is zero on the window certifies a finite pd only when every
    syzygy so far, this one included, has all its generators inside the
    window: it does when its differential's source is exact above, or when
    `_generated_in_window` proves it.  If not, the window is grown once by
    `pad`, and if that does not settle it the result is "at-least" the
    current length.
    Results are exact under the declared contract that every syzygy is
    finitely generated inside the working window.
    """
    if cap < 0:
        raise InputError(f"cap {cap} is negative; expected an integer >= 0")
    if not M.is_exact:
        raise WindowError("resolution needs an exact window")
    hi = window_hi if window_hi is not None else M.hi + 1 + cap + pad
    if hi <= M.hi:
        raise WindowError(f"resolution window [{M.lo},{hi}] must reach degree "
                          f"{M.hi + 1}, where the first syzygy's generators end")
    for attempt in range(2):
        try:
            return _resolution_attempt(M, cap, (M.lo, hi), final=attempt == 1)
        except _NeedsWiderWindow as e:
            if attempt == 1:
                raise WindowError(f"syzygy generator at the window top "
                                  f"(degree {e.degree}); widen the window") from None
            hi += pad
    raise AssertionError("unreachable")


class _NeedsWiderWindow(Exception):
    def __init__(self, degree):
        self.degree = degree


def _generated_in_window(d, hi):
    """Whether every generator of the syzygy ker d lies in degrees <= hi, for
    a differential d whose realized source is not exact above.

    Over a monomial algebra it does when every entry of d is one path and,
    within each row, no entry's path is where another's begins (in the order
    arrows apply): then products w*u from different columns are different
    paths, so ker d is spanned by paths, and a path w with w*u = 0 meets a
    relation across the junction with u inside its first (max relation
    degree - 1) arrows.  So ker d is generated in degrees <= max(-t) + max
    relation degree - 1 over the source summands P_b<t>.
    """
    alg = d.algebra
    if any(len(r.terms) != 1 for r in alg.relations):
        return False
    for row in d.entries:
        paths = []
        for e in row:
            if e is None:
                continue
            support = [k for k, c in enumerate(e.coeffs) if c]
            if len(support) != 1:
                return False
            paths.append(alg.piece(e.degree, e.source, e.target).rep_paths[support[0]].names())
        # names are last-applied first, so a path begins another one when
        # it is a suffix of it
        if any(i != j and len(p) <= len(q) and q[len(q) - len(p):] == p
               for i, p in enumerate(paths) for j, q in enumerate(paths)):
            return False
    rel_degree = max((r.degree for r in alg.relations), default=1)
    return max(-t for _b, t in d.src.summands) + rel_degree - 1 <= hi


def _exact_top(alg, summands, hi):
    """The top degree of the sum of these summands when its realization up
    to degree hi is exact above, that is, when for every summand P_a<t> the
    column A e_a vanishes in degree hi + 1 + t; None when it is not.  P_a<t>
    ends in degree h(a) - t (see `ProjSum.support`)."""
    if any(alg.column(a, hi + 1 + t) for a, t in summands):
        return None
    return max((alg.height(a, hi + 1 + t) - t for a, t in summands), default=-math.inf)


def _kernel_dims(alg, summands, image, hi):
    """dim ker at every piece up to degree hi where it is not 0, for a map
    from the sum of these summands onto a module whose dimensions there are
    `image`: by rank-nullity, dim P - dim image piece by piece, each
    dim (P_a<t>)_(i, x) read off the column A e_a in degree i + t."""
    column = alg.column
    dims = {piece: -n for piece, n in image.items()}
    for a, t in summands:
        for i in range(-t, hi + 1):
            col = column(a, i + t)
            if not col:
                break
            for x, n in col:
                dims[(i, x)] = dims.get((i, x), 0) + n
    return {piece: n for piece, n in dims.items() if n}


def _is_radical(key):
    """Whether every nonzero entry of a step key has degree s - t >= 1."""
    src, dst, coeffs = key
    return all(c is None or s - t >= 1
               for row, (_a, s) in zip(coeffs, dst) for c, (_x, t) in zip(row, src))


def _up_to_shift(d):
    """d's step key and shift t0, its first source summand's (0 for none):
    the formal data of d with every shift less t0, that is, its source and
    target summands and its entries' coefficients."""
    t0 = d.src.summands[0][1] if d.src.summands else 0
    return (tuple((a, t - t0) for a, t in d.src.summands),
            tuple((a, s - t0) for a, s in d.dst.summands),
            tuple(tuple(None if e is None else e.coeffs for e in row) for row in d.entries)), t0


def _shifted(summands, t0):
    return [(a, t + t0) for a, t in summands]


def _differential_onto(dst, key, t0):
    """The map onto `dst` whose data up to shift t0 is `key` (`_up_to_shift`):
    the one place a step key becomes a PMap."""
    alg = dst.algebra
    src_summands, _dst_summands, coeffs = key
    src = ProjSum(alg, _shifted(src_summands, t0))
    return PMap(src, dst, [[None if c is None else AlgElement(alg, s - t, a, x, c)
                            for c, (x, t) in zip(row, src.summands)]
                           for row, (a, s) in zip(coeffs, dst.summands)])


def _resolution_attempt(M, cap, window, final):
    hi = window[1]
    alg = M.algebra
    steps = alg._resolution_steps
    piece = _simple_piece(M)
    if piece is None:
        pres = minimal_presentation(M)
        p0, d = pres.p0.summands, pres.d1
        key, t0 = _up_to_shift(d)
    else:
        # a simple's d1 is read off its arrows, as a key
        p0, d = ((piece[1], -piece[0]),), None
        key, t0 = _arrows_key(alg, *piece)

    def built():  # the differential the walk is at, as a PMap
        return d if d is not None else _differential_onto(
            ProjSum(alg, _shifted(key[1], t0)), key, t0)

    # every P_n is generated in degrees >= lo: in M's support, then inside
    # the syzygy before.  ker(P_0 -> M) is generated in degrees <= M.hi + 1
    # <= hi, which `resolution` checks, so its count is zero exactly when P_1 is
    kernel = _kernel_dims(alg, p0, M.dims, hi)
    # the differentials taken, as (key, shift); `d` is the last one's PMap
    # where one was built, else None
    walked = []
    # whether every syzygy so far had all its generators inside the window
    complete = True
    # while the last differential's source is exact above: the least window
    # top its step needs, plus its shift t0
    need = None
    while kernel and len(walked) < cap:
        if walked:
            # the differential onto the syzygy `kernel` counts; after a source
            # exact above, that syzygy lies inside the window, so the step
            # depends only on the last differential up to shift
            entry = None if need is None else steps.get(key)
            if entry is None:
                step = None if need is None else _top_slice_step(alg, src, kernel)
                if step is None:
                    d = next_differential(built(), window)
                    step = _up_to_shift(d)
                else:
                    d = None
                if need is not None:
                    steps.setdefault(key, (step[0], step[1] - t0, need))
                key, t0 = step
            else:
                key, t0, d = entry[0], t0 + entry[1], None
        if not key[0]:
            raise MathRefusal("nonzero syzygy without generators in the window")
        src = _shifted(key[0], t0)
        top = max(-t for _b, t in src)
        if walked and top >= hi:
            raise _NeedsWiderWindow(top)
        if not _is_radical(key):
            raise MathRefusal("cover produced a non-radical differential")
        src_top = _exact_top(alg, src, hi)
        if src_top is None:
            need = None
            d = built()
            complete = complete and _generated_in_window(d, hi)
        else:
            # the source exact above, and the generators below the top
            need = max(src_top, top + 1) + t0
            tail = _tail_length(steps, key, t0, hi, cap - len(walked))
            if tail is not None:
                # the walk from here was taken before, on a window this high
                length = len(walked) + tail
                walked.append((key, t0))
                break
        walked.append((key, t0))
        kernel = _kernel_dims(alg, src, kernel, hi)
    else:
        if kernel:
            return Resolution(M, p0, walked, "at-least", cap, window)
        if need is not None:
            steps.setdefault(key, (None, 0, need))
        length = len(walked)
    if length > cap:
        return Resolution(M, p0, walked, "at-least", cap, window)
    if complete:
        return Resolution(M, p0, walked, "finite", length, window)
    if not final:
        raise _NeedsWiderWindow(hi)
    return Resolution(M, p0, walked, "at-least", length, window)


def _tail_length(steps, key, t0, hi, bound):
    """The number of differentials from `key` at shift t0 to a zero syzygy,
    read off the step memo: bound + 1 past `bound` of them, since the graph
    has cycles (k[x]/(x^2) is a self-loop), and None at a missing entry or
    where a later step needs a window above hi."""
    for length in range(1, bound + 1):
        entry = steps.get(key)
        if entry is None or length > 1 and hi + t0 < entry[2]:
            return None
        key, dt, _need = entry
        if key is None:
            return length
        t0 += dt
    return bound + 1


def graded_dimension(M, kind, cap):
    """Graded projective or injective dimension, certified only by vanishing.

    Returns {"kind": "exact"|"at-least", "value": d}.  The injective side is
    the projective dimension of the dual over the opposite algebra.
    """
    if kind == "proj":
        return resolution(M, cap).report()
    if kind == "inj":
        return resolution(M.dual(), cap).report()
    raise InputError(f"unknown dimension kind {kind!r}")
