"""Minimal projective resolutions by the earlier module route, kept only as a
test oracle.

Each step realizes a cover onto the previous syzygy, built as a
`GradedModule`, takes its kernel as the next syzygy module, and finds that
module's generators as a complement of its radical (`top_basis` with a
generator-degree bound).  The program instead takes each syzygy piece by
piece as the kernel bases of the realized differential, seeded from the
minimal presentation, and never builds the syzygy module.  Both must give the
same summands, differentials, statuses, lengths, windows and refusals.
"""

from gradedquiver.errors import MathRefusal, WindowError
from gradedquiver.gmodule import _complement_indices
from gradedquiver.algebra import AlgElement
from gradedquiver.linalg import Matrix
from gradedquiver.presentations import (Cover, Generator, PMap, ProjSum, Resolution,
                                        _NeedsWiderWindow, _generated_in_window)

from conftest import kernel


def top_basis(M, gen_degree_bound=None):
    """Generators lifting a basis of top M, lowest degrees first.

    Needs M exact below.  Generators are enumerated up to `gen_degree_bound`;
    without a bound the module must be exact above.
    """
    if not M.exact_below:
        raise WindowError("top-basis needs the module exact below")
    if gen_degree_bound is None:
        if not M.exact_above:
            raise WindowError("top-basis of a module truncated above needs a "
                              "generator-degree bound")
        bound = M.hi
    else:
        bound = min(gen_degree_bound, M.hi)
    if M.is_zero():
        return []
    _rad, incl = M.radical()
    out = []
    for (i, x) in M.support():
        if i > bound:
            continue
        n = M.dims[(i, x)]
        comp = Matrix.identity(M.algebra.field, n).select_cols(
            _complement_indices(M.algebra.field, incl.block(i, x), n))
        for c in range(comp.cols):
            out.append(Generator(i, x, tuple(comp.col(c))))
    return out


def projective_cover(M, gen_degree_bound=None):
    gens = top_basis(M, gen_degree_bound)
    return Cover(ProjSum(M.algebra, [(g.vertex, -g.degree) for g in gens]), gens)


def pmap_from_kernel_generators(src, p0, window, gens, K_incl):
    alg = p0.algebra
    _total, offsets = p0.realize(window)
    entries = [[None] * len(gens) for _ in range(len(p0))]
    for j, g in enumerate(gens):
        vec = K_incl.block(g.degree, g.vertex) @ Matrix.from_cols(
            alg.field, len(g.coords), [g.coords])
        for i, (a, s) in enumerate(p0.summands):
            piece = alg.piece(g.degree + s, a, g.vertex)
            if piece.dim == 0:
                continue
            c0 = offsets[i][(g.degree, g.vertex)]
            coeffs = [vec.data[c0 + k][0] for k in range(piece.dim)]
            if any(coeffs):
                entries[i][j] = AlgElement(alg, g.degree + s, a, g.vertex, coeffs)
    return PMap(src, p0, entries)


def resolution(M, cap, pad=5, window_hi=None):
    if not M.is_exact:
        raise WindowError("resolution needs an exact window")
    hi = window_hi if window_hi is not None else M.hi + 1 + cap + pad
    for attempt in range(2):
        try:
            return _resolution_attempt(M, cap, (M.lo, hi), final=attempt == 1)
        except _NeedsWiderWindow as e:
            if attempt == 1:
                raise WindowError(f"syzygy generator at the window top "
                                  f"(degree {e.degree}); widen the window") from None
            hi += pad
    raise AssertionError("unreachable")


def _resolution_attempt(M, cap, window, final):
    lo, hi = window
    cover = projective_cover(M)
    psums = [cover.psum]
    pmaps = []
    aug = cover.realize(M, window)
    current, current_incl = kernel(aug)
    step = 0
    complete = hi > M.hi
    while True:
        if step > 0:
            complete = complete and (current.exact_above
                                     or _generated_in_window(pmaps[-1], hi))
        if current.is_zero():
            if complete:
                return Resolution(M, psums, pmaps, "finite", step, window)
            if not final:
                raise _NeedsWiderWindow(hi)
            return Resolution(M, psums, pmaps, "at-least", step, window)
        if step + 1 > cap:
            return Resolution(M, psums, pmaps, "at-least", cap, window)
        bound = M.hi + 1 if step == 0 else hi
        gens = top_basis(current, gen_degree_bound=bound)
        if step > 0 and any(g.degree >= hi for g in gens):
            raise _NeedsWiderWindow(max(g.degree for g in gens))
        if not gens:
            raise MathRefusal("nonzero syzygy without generators in the window")
        prev = psums[-1]
        pnext = ProjSum(M.algebra, [(g.vertex, -g.degree) for g in gens])
        d = pmap_from_kernel_generators(pnext, prev, window, gens, current_incl)
        if not d.is_radical():
            raise MathRefusal("cover produced a non-radical differential")
        psums.append(pnext)
        pmaps.append(d)
        aug = Cover(pnext, gens).realize(current, window)
        current, current_incl = kernel(aug)
        step += 1
