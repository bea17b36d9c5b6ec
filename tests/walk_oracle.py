"""The resolution walk on PMaps, kept only as a test oracle.

This is the walk the program took before it walked on step keys: every
differential it reads is a `PMap`, a simple's d1 is built from its arrows as
algebra elements (`arrows_out`), the formal top-slice step builds a `PMap`
of unit vectors (`top_slice_step`), each step read off the memo is rebuilt
onto the last source (`differential_onto`) and keyed again (`up_to_shift`),
and the returned `Resolution` builds the differentials it skipped by
following the memo from the last `PMap`.  It keeps its memo in the same
format as the program (`GradedAlgebra._resolution_steps`: the next key up to
its own shift, the shift step and the window top the key's step needs plus
its shift, or (None, 0, need) at a zero syzygy), so run it on an algebra of
its own.  Both must give the same reports, summands and differentials.
"""

import math

from gradedquiver.algebra import AlgElement
from gradedquiver.errors import InputError, MathRefusal, WindowError
from gradedquiver.presentations import (PMap, ProjSum, _NeedsWiderWindow, _generated_in_window,
                                        _simple_piece, minimal_presentation, next_differential)

from conftest import is_radical


def arrows_out(p0, i, v):
    """d1 of the simple at (i, v) onto its cover p0 = P_v<-i>: one summand
    P_x<-i-1> per arrow v -> x, its entry the arrow, in the order of the
    column A_1 e_v and then of the piece's representatives."""
    alg = p0.algebra
    f = alg.field
    summands, entries = [], []
    for x, n in alg.column(v, 1):
        for k in range(n):
            summands.append((x, -i - 1))
            entries.append(AlgElement(alg, 1, v, x, [f.one() if c == k else f.zero()
                                                     for c in range(n)]))
    return PMap(ProjSum(alg, summands), p0, [entries])


def top_slice_step(d, kernel):
    """The next differential as a PMap of unit vectors when the count
    `kernel` of ker d is all of d's source in one degree; None otherwise."""
    degrees = {i for i, _x in kernel}
    if len(degrees) != 1:
        return None
    (i0,) = degrees
    alg = d.algebra
    f = alg.field
    columns = [dict(alg.column(b, i0 + t)) for b, t in d.src.summands]
    summands, cols = [], []
    for x in alg.quiver.vertices:
        if (i0, x) not in kernel:
            continue
        if sum(col.get(x, 0) for col in columns) != kernel[(i0, x)]:
            return None
        for j, ((b, t), col) in enumerate(zip(d.src.summands, columns)):
            n = col.get(x, 0)
            for k in range(n):
                summands.append((x, -i0))
                cols.append((j, AlgElement(alg, i0 + t, b, x,
                                           [f.one() if c == k else f.zero() for c in range(n)])))
    entries = [[e if j == i else None for j, e in cols] for i in range(len(d.src))]
    return PMap(ProjSum(alg, summands), d.src, entries)


def exact_top(psum, hi):
    """The sum's top degree when its realization up to hi is exact above."""
    alg = psum.algebra
    if any(alg.column(a, hi + 1 + t) for a, t in psum.summands):
        return None
    return max((alg.height(a, hi + 1 + t) - t for a, t in psum.summands), default=-math.inf)


def kernel_dims(psum, image, hi):
    """dim P - dim image piece by piece up to hi, where not 0."""
    column = psum.algebra.column
    dims = {piece: -n for piece, n in image.items()}
    for a, t in psum.summands:
        for i in range(-t, hi + 1):
            col = column(a, i + t)
            if not col:
                break
            for x, n in col:
                dims[(i, x)] = dims.get((i, x), 0) + n
    return {piece: n for piece, n in dims.items() if n}


def up_to_shift(d, t0):
    return (tuple((a, t - t0) for a, t in d.src.summands),
            tuple((a, s - t0) for a, s in d.dst.summands),
            tuple(tuple(None if e is None else e.coeffs for e in row) for row in d.entries))


def differential_onto(dst, key, t0):
    alg = dst.algebra
    src_summands, _dst_summands, coeffs = key
    src = ProjSum(alg, [(x, t + t0) for x, t in src_summands])
    return PMap(src, dst, [[None if c is None else AlgElement(alg, s - t, a, x, c)
                            for c, (x, t) in zip(row, src.summands)]
                           for row, (a, s) in zip(coeffs, dst.summands)])


def tail_length(steps, key, t0, hi, bound):
    for length in range(1, bound + 1):
        entry = steps.get(key)
        if entry is None or length > 1 and hi + t0 < entry[2]:
            return None
        key, dt, _need = entry
        if key is None:
            return length
        t0 += dt
    return bound + 1


class Resolution:
    """The walked PMaps, then the memo's, built on first read."""

    def __init__(self, module, p0, pmaps, status, length, window):
        self.module = module
        self.status = status
        self.length = length
        self.window = window
        self._p0 = p0
        self._pmaps = pmaps
        self._built = None

    @property
    def psums(self):
        return self._build()[0]

    @property
    def pmaps(self):
        return self._build()[1]

    def _build(self):
        if self._built is None:
            pmaps = list(self._pmaps)
            while len(pmaps) < self.length:
                d = pmaps[-1]
                t0 = d.src.summands[0][1]
                key, dt, _need = d.algebra._resolution_steps[up_to_shift(d, t0)]
                pmaps.append(differential_onto(d.src, key, t0 + dt))
            self._built = [self._p0] + [d.src for d in pmaps], pmaps
        return self._built

    def report(self):
        return {"kind": "exact" if self.status == "finite" else "at-least",
                "value": self.length, "window": list(self.window)}


def resolution(M, cap, pad=5, window_hi=None):
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


def _resolution_attempt(M, cap, window, final):
    hi = window[1]
    steps = M.algebra._resolution_steps
    piece = _simple_piece(M)
    if piece is None:
        pres = minimal_presentation(M)
        p0, d = pres.p0, pres.d1
    else:
        p0 = ProjSum(M.algebra, [(piece[1], -piece[0])])
        d = arrows_out(p0, *piece)
    kernel = kernel_dims(p0, M.dims, hi)
    pmaps = []
    complete = True
    exact = None
    while kernel and len(pmaps) < cap:
        if pmaps:
            prev = pmaps[-1]
            if exact:
                key, t0, need = exact
                entry = steps.get(key)
                if entry is None:
                    d = top_slice_step(prev, kernel) or next_differential(prev, window)
                    t1 = d.src.summands[0][1]
                    entry = steps.setdefault(key, (up_to_shift(d, t1), t1 - t0, need))
                d = differential_onto(prev.src, entry[0], t0 + entry[1])
            else:
                d = next_differential(prev, window)
        top = max((-t for _b, t in d.src.summands), default=None)
        if top is None:
            raise MathRefusal("nonzero syzygy without generators in the window")
        if pmaps and top >= hi:
            raise _NeedsWiderWindow(top)
        if not is_radical(d):
            raise MathRefusal("cover produced a non-radical differential")
        src_top = exact_top(d.src, hi)
        if src_top is None:
            exact = None
            complete = complete and _generated_in_window(d, hi)
        else:
            t0 = d.src.summands[0][1]
            key = up_to_shift(d, t0)
            exact = key, t0, max(src_top, top + 1) + t0
            tail = tail_length(steps, key, t0, hi, cap - len(pmaps))
            if tail is not None:
                length = len(pmaps) + tail
                pmaps.append(d)
                break
        pmaps.append(d)
        kernel = kernel_dims(d.src, kernel, hi)
    else:
        if kernel:
            return Resolution(M, p0, pmaps, "at-least", cap, window)
        if exact:
            steps.setdefault(exact[0], (None, 0, exact[2]))
        length = len(pmaps)
    if length > cap:
        return Resolution(M, p0, pmaps, "at-least", cap, window)
    if complete:
        return Resolution(M, p0, pmaps, "finite", length, window)
    if not final:
        raise _NeedsWiderWindow(hi)
    return Resolution(M, p0, pmaps, "at-least", length, window)
