"""Covers, envelopes, minimal presentations, resolutions, graded dimensions.

Finitely generated projectives are handled formally: a ProjSum is a list of
(vertex, shift) summands and a PMap is a matrix of algebra elements acting by
right multiplication.  Formal data is exact in every degree; realizations on
a window are produced on demand and memoized per object and window, and so
is the kernel of a realized PMap, piece by piece.  The minimal presentation
of a module is computed once and kept on the module (a shift N<s> shifts
N's cover and presentation).  It is formal too: the first syzygy im d1 is
never built as a module, and whoever needs it reads it off the realized d1,
whose columns at the generators of P1 generate it.

A resolution is seeded from that presentation; each later syzygy ker d_n is
kept as the per-piece kernel bases of the realized differential d_n, never
as a module (see `resolution`).  A step whose differential has both sums
realized exactly on the working window depends only on the differential up
to grading shift, so the algebra keeps it once, keyed by the summands
(shifts relative to the first source summand's) and the entries'
coefficients: whether the syzygy is zero and the next differential, as
formal data only.

There is no separate injective layer.  I_a<s> = D(P°_a<-s>), so a sum of
injectives (+) I_a<s> is the ProjSum (+) P°_a<-s> over the opposite algebra,
and a map of such sums is a PMap over the opposite, realized on (lo, hi) as
`.realize((-hi, -lo)).dual()`.  The injective envelope of M is the dualized
cover of D M, and the minimal copresentation of M is the minimal
presentation of D M, read through D.
"""

import math

from .errors import InputError, WindowError, MathRefusal
from .algebra import AlgElement
from .gmodule import (GradedMorphism, ModuleElement, zero_module,
                      _complement_indices, _memo, _sum_with_offsets)
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

    @classmethod
    def zero(cls, src, dst):
        return cls(src, dst, None)

    def is_zero(self):
        return all(e is None for row in self.entries for e in row)

    def is_radical(self):
        """True when every nonzero entry has degree >= 1."""
        return all(e is None or e.degree >= 1 for row in self.entries for e in row)

    def realize(self, window):
        """The induced morphism between realizations on the window; memoized.

        A representative path a*rep' of the source piece maps entry e to
        a*(rep'*e): the normal form of its tail's image pushed along a
        (`_Piece.times_arrow`).  Standard paths are closed under subwords, so
        each tail is itself a representative and its image is kept for the
        whole realization.  This reads the algebra, not the realized source,
        so generators outside the window are handled as inside.
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

        def image(i, j, arrows):
            """Normal form of path*e, for entry e = (i, j) and the path with
            these arrows."""
            got = images.get((i, j, arrows))
            if got is None:
                e = self.entries[i][j]
                if arrows:
                    a = arrows[0]
                    got = alg.piece(e.degree + len(arrows), e.source, a.target).times_arrow(
                        f, a.name, enumerate(image(i, j, arrows[1:])))
                else:
                    got = e.coeffs
                images[(i, j, arrows)] = got
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
                reps = alg.piece(d + t, b, x).rep_paths
                for i, offsets in enumerate(dst_off):
                    r0 = offsets.get((d, x))
                    if r0 is None or self.entries[i][j] is None:
                        continue
                    for c, rep in enumerate(reps):
                        for r, v in enumerate(image(i, j, rep.arrows)):
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


def top_basis(M):
    """Pure elements lifting a basis of top M, lowest degrees first.

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
    return [ModuleElement(M, i, x, vec) for i, x, vec in _kernel_generators(M, whole, M.hi)]


class Cover:
    """A projective cover: formal sum, generator images, realized epimorphism."""

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

        def image(j, arrows):
            """The image of the j-th generator under the path, as a column.

            A representative a*rep' maps to a acting on the image of rep',
            which is itself a representative (standard paths are closed under
            subwords), so each image is one product.
            """
            got = images.get((j, arrows))
            if got is None:
                gen = self.generators[j]
                if arrows:
                    got = (target.map(arrows[0].name, gen.degree + len(arrows) - 1)
                           @ image(j, arrows[1:]))
                else:
                    got = Matrix.from_cols(f, len(gen.coords), [gen.coords])
                images[(j, arrows)] = got
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
                    for c, rep in enumerate(piece.rep_paths):
                        col = image(j, rep.arrows)
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
    if M.shifted_from is not None:
        # the cover of N<s> is N's, shifted: summands P_a<t+s>, generators s lower
        N, s = M.shifted_from
        cover = projective_cover(N)
        return Cover(cover.psum.shift(s), [ModuleElement(M, g.degree - s, g.vertex, g.coords)
                                           for g in cover.generators])
    gens = top_basis(M)
    psum = ProjSum(M.algebra, [(g.vertex, -g.degree) for g in gens])
    return Cover(psum, gens)


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
    calls return the same presentation.  A shift's is derived from its source's.
    """
    if not M.is_exact:
        raise WindowError("minimal presentation needs an exact window")
    return _memo(M._derived, "presentation", lambda: _minimal_presentation(M))


def _minimal_presentation(M):
    if M.shifted_from is not None:
        # the presentation of N<s> is N's, shifted: d1's entries between shifted sums
        N, s = M.shifted_from
        pres = minimal_presentation(N)
        cover0 = projective_cover(M)
        return ProjPresentation(M, cover0, PMap(pres.p1.shift(s), cover0.psum, pres.d1.entries),
                                (pres.window[0] - s, pres.window[1] - s))
    window = (M.lo, M.hi + 1)
    cover0 = projective_cover(M)
    aug = cover0.realize(M, window)
    found = _kernel_generators(aug.source, aug.kernel_bases(), M.hi + 1)
    return ProjPresentation(M, cover0, _pmap_from_generators(cover0.psum, window, found),
                            window)


def _kernel_generators(P, kers, bound):
    """Generators in degrees <= bound of the submodule K of P given piece by
    piece by `kers` (see `GradedMorphism.kernel_bases`), in support order.

    At (i, x) they are the basis vectors of K_i(x) completing the radical
    sum over arrows a: y -> x of a*K_{i-1}(y), whose coordinates are read at
    the free rows: each arrow block's free rows alone are multiplied by the
    kernel basis.  Returns a list of (degree, vertex, vector in P).
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
            out.append((i, x, basis.col(k)))
    return out


def _pmap_from_generators(dst, window, gens):
    """The map onto the generators: one summand P_x<-i> per (i, x, vec) in
    `gens`, its generator sent to the vector `vec` of the realized `dst`,
    split into per-summand algebra-element entries."""
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


def _pmap_generator_image(pmap, j, degree, vertex, window):
    """The image of the j-th source generator inside the realized target."""
    alg = pmap.algebra
    total, offsets = pmap.dst.realize(window)
    f = alg.field
    vec = [f.zero()] * total.dims.get((degree, vertex), 0)
    for i, (a, s) in enumerate(pmap.dst.summands):
        e = pmap.entries[i][j]
        if e is None:
            continue
        c0 = offsets[i][(degree, vertex)]
        for k, c in enumerate(e.coeffs):
            vec[c0 + k] = f.add(vec[c0 + k], c)
    return Matrix.from_cols(f, len(vec), [vec])


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
    """A chain of minimal covers P_m -> ... -> P_1 -> P_0 -> M."""

    def __init__(self, module, psums, pmaps, status, length, window):
        self.module = module
        self.psums = psums    # [P_0, ..., P_m]
        self.pmaps = pmaps    # [d_1: P_1 -> P_0, ...]
        self.status = status  # "finite" | "at-least"
        self.length = length  # pd when finite, else a lower bound for it
        self.window = window

    def report(self):
        if self.status == "finite":
            return {"kind": "exact", "value": self.length,
                    "window": list(self.window)}
        return {"kind": "at-least", "value": self.length,
                "window": list(self.window)}


def resolution(M, cap, pad=5, window_hi=None):
    """Iterated minimal covers up to homological degree `cap`.

    P_1 -> P_0 is the minimal presentation of M, which M keeps.  From there
    the syzygy ker d_n is taken piece by piece on the working window, as the
    kernel bases of the realized differential d_n; its generators at (i, x)
    are the basis vectors completing the image of the arrows into x from
    degree i-1, read in kernel coordinates at the free rows of the piece's
    rref, and they define P_{n+1} and d_{n+1} (`next_differential`).  No
    syzygy module is built.  Where both sums of d_n are exact on the window
    (`_inside`), the step is read off the algebra's step memo when d_n was
    met before up to shift, with no realization, kernel or generator search.

    Generator searches beyond the first syzygy have no a-priori degree bound;
    the working window is grown once by `pad` when a generator shows up at
    the very top of the window, and the run errors out if that happens again.
    A syzygy that is zero on the window certifies a finite pd only when every
    syzygy so far, this one included, has all its generators inside the
    window (see `_generated_in_window`): otherwise a generator above the
    window was missed.  If not, the window is grown once by `pad`, and if
    that does not settle it the result is "at-least" the current length.
    Results are exact under the declared contract that every syzygy is
    finitely generated inside the working window.
    """
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


def _generated_in_window(exact_above, d, hi):
    """Whether every generator of the syzygy ker d lies in degrees <= hi,
    where `exact_above` says whether d's realized source is exact above.

    It does when the syzygy is exact above.  Over a monomial algebra it also
    does when every entry of d is one path and, within each row, no entry's
    path is where another's begins (in the order arrows apply): then
    products w*u from different columns are different paths, so ker d is
    spanned by paths, and a path w with w*u = 0 meets a relation across the
    junction with u inside its first (max relation degree - 1) arrows.  So
    ker d is generated in degrees <= max(-t) + max relation degree - 1 over
    the source summands P_b<t>.
    """
    if exact_above:
        return True
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


def _inside(psum, window):
    """Whether every summand P_a<t> of the sum has its realization on the
    window exact on both sides: -t >= lo, and the column A e_a vanishes in
    degree hi + 1 + t."""
    lo, hi = window
    column = psum.algebra.column
    return all(-t >= lo and not column(a, hi + 1 + t) for a, t in psum.summands)


def _up_to_shift(d, t0):
    """The formal data of d with every shift less t0: its source and target
    summands and its entries' coefficients."""
    return (tuple((a, t - t0) for a, t in d.src.summands),
            tuple((a, s - t0) for a, s in d.dst.summands),
            tuple(tuple(None if e is None else e.coeffs for e in row) for row in d.entries))


def _differential_onto(dst, data):
    """The map onto `dst` whose data up to shift is `data`, taken relative
    to dst's first summand (see `_up_to_shift`)."""
    alg = dst.algebra
    t0 = dst.summands[0][1]
    src_summands, _dst_summands, coeffs = data
    src = ProjSum(alg, [(x, t + t0) for x, t in src_summands])
    return PMap(src, dst, [[None if c is None else AlgElement(alg, s - t, a, x, c)
                            for c, (x, t) in zip(row, src.summands)]
                           for row, (a, s) in zip(coeffs, dst.summands)])


def _resolution_attempt(M, cap, window, final):
    lo, hi = window
    pres = minimal_presentation(M)
    steps = M.algebra._resolution_steps
    psums = [pres.p0]
    pmaps = []
    step = 0
    # whether every syzygy so far had all its generators inside the window;
    # the first one is generated in degrees <= M.hi + 1 <= hi, which
    # `resolution` checks
    complete = True
    while True:
        if step == 0:
            zero = pres.p1.is_zero()
        else:
            # syzygy `step + 1` = ker d_step, piece by piece
            d = pmaps[-1]
            key = None
            if _inside(d.src, window) and _inside(d.dst, window):
                # d's realizations are exact, so the step is d's up to shift,
                # and the syzygy, exact above, is generated inside the window
                key = _up_to_shift(d, d.src.summands[0][1])
                zero = _memo(steps, key, lambda: not d.kernel_bases(window))
            else:
                P, _offsets = d.src.realize(window)
                zero = not d.kernel_bases(window)
                complete = complete and _generated_in_window(P.exact_above, d, hi)
        if zero:
            if complete:
                return Resolution(M, psums, pmaps, "finite", step, window)
            if not final:
                raise _NeedsWiderWindow(hi)
            return Resolution(M, psums, pmaps, "at-least", step, window)
        if step + 1 > cap:
            return Resolution(M, psums, pmaps, "at-least", cap, window)
        if step == 0:
            d = pres.d1
        else:
            if key is None:
                d = next_differential(d, window)
            else:
                d = _differential_onto(d.src, _memo(
                    steps, (key, "next"),
                    lambda: _up_to_shift(next_differential(d, window), d.src.summands[0][1])))
            top = max((-t for _b, t in d.src.summands), default=None)
            if top is None:
                raise MathRefusal("nonzero syzygy without generators in the window")
            if top >= hi:
                raise _NeedsWiderWindow(top)
        if not d.is_radical():
            raise MathRefusal("cover produced a non-radical differential")
        psums.append(d.src)
        pmaps.append(d)
        step += 1


def graded_dimension(M, kind, cap, pad=5):
    """Graded projective or injective dimension, certified only by vanishing.

    Returns {"kind": "exact"|"at-least", "value": d}.  The injective side is
    the projective dimension of the dual over the opposite algebra.
    """
    if kind == "proj":
        return resolution(M, cap, pad=pad).report()
    if kind == "inj":
        return resolution(M.dual(), cap, pad=pad).report()
    raise InputError(f"unknown dimension kind {kind!r}")
