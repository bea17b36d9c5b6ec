"""Transpose, Nakayama functor, translates, and almost split sequences.

The transpose of a presented module is the cokernel of the entrywise-opposite
transposed presentation matrix, so a quotient of its cover; the translates are
its windowed duals, realized on the hull of the requested window and the
cover's formal support (`ProjSum.support`): exact where the column heights
are known up to the cap (the cokernel is then taken once, on that support),
flagged truncated where not.  The Nakayama functor sends a projective map to
its transpose over the opposite algebra, which stands for a map of injectives
through duality.  The AR formulas realize no translate: Ext^1(X, tau M) is
Ext^1(Tr M, D X) over the opposite algebra, read off the transpose's
presentation, and the formula for tau^- is the one for tau on (D M, D X).  An
almost split sequence ending at C is assembled from a nonzero extension class
annihilated by the radical of End(C), realized as an explicit pushout; one
starting at N is the dual of the one ending at D N, and is verified on it.
The right End(C)-action on Ext^1(C, tau C) is realized by lifting
endomorphisms along C's minimal presentation, and the socle is the joint
kernel of the radical basis's action matrices.  Every constructed sequence
carries a certificate.  Verification checks the definition on the sequence's
own maps: g: E -> C is right almost split, that is g o Hom(C, E) =
rad End(C), with no Ext^1 class rebuilt and Hom(C, E) read off C's
presentation; the left term is tau C, and so indecomposable with C, without
an End algebra of its own, where C is certified.
"""

from functools import reduce

from .errors import InputError, WindowError, MathRefusal, UnsupportedRadical
from .linalg import Matrix
from .gmodule import GradedMorphism, direct_sum, zero_module, _memo
from .presentations import Generator, ProjSum, minimal_presentation, _pmap_from_generators
from .homs import (ghom, end_algebra, is_strongly_indecomposable, ExtSpace,
                   underline_hom_dim, psum_hom_to_morphism, psum_pullback_matrix)


class TransposeData:
    """Tr M over the opposite algebra with its projective presentation.

    One per presentation (see `transpose`); its realizations are memoized
    per window.
    """

    def __init__(self, pres):
        self.source_pres = pres
        self._realized = {}
        self.algebra = pres.module.algebra.opposite()
        if pres.module_is_projective():
            self.d = None
            self.cover_psum = ProjSum(self.algebra, [])
        else:
            self.d = pres.d1.transpose_to_opposite()  # p0^t -> p1^t
            self.cover_psum = self.d.dst

    def is_zero(self):
        return self.d is None

    def realize(self, window, cap=None):
        """Tr M on the window, or given a cap on its hull with the cover's
        support (`ProjSum.support`): cut at the window's top, and flagged
        truncated, only where a height is unknown.  On a known support Tr M is
        exact, so its cokernel is taken once, there, and re-windowed."""
        if self.is_zero():
            return zero_module(self.algebra, *window)
        lo, hi = (window[0], None) if cap is None else self.cover_psum.support(cap)
        window = (min(window[0], lo), window[1] if hi is None else max(window[1], hi))
        if hi is None or window == (lo, hi):
            return _memo(self._realized, window, lambda: self.d.realize(window).cokernel()[0])
        return _memo(self._realized, window, lambda: self.realize((lo, hi), cap).with_window(*window))


def transpose(M):
    """The graded transpose as presented data over the opposite algebra,
    built once on M's minimal presentation."""
    pres = minimal_presentation(M)
    return _memo(pres._derived, "transpose", lambda: TransposeData(pres))


class TauResult:
    """A realized translate plus the transpose data behind it."""

    def __init__(self, module, warning, trdata):
        self.module = module
        self.warning = warning
        self.transpose = trdata
        self.presentation = trdata.source_pres

    def is_zero(self):
        return self.module.is_zero()


def tau(M, window=None, cap=10, check_verdict=True):
    """The right translate D Tr M, on the hull of the window (by default M's)
    and its support; Tr is realized by `TransposeData.realize` with the cap.

    Refuses unless the input is certified strongly indecomposable (pass
    check_verdict=False for bulk dimension checks, where the translate is
    defined for any finitely presented module).
    """
    return _translate(M, transpose(M), False, window, cap, check_verdict)


def tau_inverse(N, window=None, cap=10, check_verdict=True):
    """The left translate Tr D N, likewise."""
    # the transpose of D N lives over the double opposite = base algebra
    return _translate(N, transpose(N.dual()), True, window, cap, check_verdict)


def _translate(M, trdata, inverse, window, cap, check_verdict):
    lo, hi = window or (M.lo, M.hi)
    if trdata.is_zero():
        return TauResult(zero_module(M.algebra, lo, hi),
                         f"input is graded {'injective' if inverse else 'projective'}; "
                         f"the translate is zero", trdata)
    if check_verdict:
        verdict = is_strongly_indecomposable(M)
        if verdict.status != "yes":
            raise MathRefusal(f"translate needs a certified indecomposable "
                              f"input; verdict was {verdict.status!r}")
    if inverse:
        return TauResult(trdata.realize((lo, hi), cap), None, trdata)
    return TauResult(trdata.realize((-hi, -lo), cap).dual_windowed(), None, trdata)


# -- Nakayama functor ---------------------------------------------------------


def nakayama(pmap):
    """The Nakayama image nu(pmap): nu src -> nu dst, as a PMap over the
    opposite algebra.

    nu P_a<s> = I_a<s> = D(P°_a<-s>), so nu(pmap) is the dual of pmap's
    transpose over the opposite algebra: it realizes on (lo, hi) as
    `nakayama(pmap).realize((-hi, -lo)).dual()`.  The transpose is an
    involution, so applying `nakayama` twice gives pmap's entries and
    summands back.
    """
    return pmap.transpose_to_opposite()


# -- AR formula ----------------------------------------------------------------


def ar_formula_check(M, X):
    """The two dimension identities relating stable homs and Ext against the
    translates, the second being the first on (D M, D X); returns all four
    numbers and the two verdicts."""
    lhs1, rhs1 = _ar_formula(M, X)
    lhs2, rhs2 = _ar_formula(M.dual(), X.dual())
    return {"underline_hom": lhs1, "ext_against_tau": rhs1, "formula1_holds": lhs1 == rhs1,
            "overline_hom": lhs2, "ext_of_tau_inverse": rhs2, "formula2_holds": lhs2 == rhs2}


def _ar_formula(M, X):
    """dim underline Hom(M, X) and dim Ext^1(X, tau M), the latter as
    Ext^1(Tr M, D X) over the opposite algebra, from the presentation of
    Tr M: no translate is realized."""
    hom = underline_hom_dim(M, X)
    tr = transpose(M)
    return hom, 0 if tr.is_zero() else ExtSpace(tr.d, X.dual()).dim


# -- almost split sequences ------------------------------------------------------


class AlmostSplitSequence:
    """0 -> A -> E -> C -> 0 with its construction certificate."""

    def __init__(self, A, E, C, f, g, certificate, direction):
        self.A = A
        self.E = E
        self.C = C
        self.f = f
        self.g = g
        self.certificate = certificate
        self.direction = direction

    def to_json_dict(self):
        return {
            "direction": self.direction,
            "left": self.A.to_json_dict(),
            "middle": self.E.to_json_dict(),
            "right": self.C.to_json_dict(),
            "left_map": self.f.to_json_dict(),
            "right_map": self.g.to_json_dict(),
            "certificate": self.certificate,
        }


def almost_split_sequence(C, direction="ending", window=None, cap=10):
    """The almost split sequence ending or starting at C; `window` and `cap`
    are those of the translate term, as for `tau` and `tau_inverse`."""
    if direction not in ("ending", "starting"):
        raise InputError(f"unknown direction {direction!r}")
    if not C.is_exact:
        raise WindowError("almost split construction needs a finite-dimensional "
                          f"exact-window {direction} term")
    if direction == "ending":
        return _ass_ending(C, window, cap)
    return _ass_starting(C, window, cap)


def _ass_ending(C, window, cap, starting=False):
    """The almost split sequence ending at C: the pushout along the class of
    Ext^1(C, tau C) given by the first column of the standard kernel basis
    of the stacked radical actions (`_actions_on_ext`), that is the socle
    class whose last nonzero coordinate sits lowest and is 1.  The
    certificate records that class and whether each radical basis
    endomorphism kills it, read off the same action matrices."""
    # refusals name the direction asked for; starting runs this on D N
    term, kind, verb = ("starting", "injective", "starts") if starting else (
        "ending", "projective", "ends")
    verdict = is_strongly_indecomposable(C)
    if verdict.status != "yes":
        raise MathRefusal(f"{term} term not certified indecomposable: "
                          f"verdict {verdict.status!r}")
    pres = minimal_presentation(C)
    if pres.module_is_projective():
        raise MathRefusal(f"{term} term is graded {kind} (Ext-{kind}): "
                          f"no almost split sequence {verb} there")
    taures = tau(C, window=window, cap=cap, check_verdict=False)
    A = taures.module
    if not A.is_exact:
        cover = taures.transpose.cover_psum
        a = next(a for a, _s in cover.summands if cover.algebra.height(a, cap) is None)
        bound = max(cap, len(C.algebra.quiver.vertices))
        raise MathRefusal(f"the {'inverse translate' if starting else 'translate'} is "
                          f"truncated: the column of vertex {a} does not vanish up to "
                          f"degree {bound}; infinite terms are out of scope")
    ext = ExtSpace(pres.d1, A)
    if ext.dim == 0:
        raise MathRefusal("Ext^1(C, tau C) vanished for a valid input: "
                          "this indicates an internal inconsistency (bug)")
    f_ = ext.field
    actions = _actions_on_ext(pres, ext, end_algebra(C).radical_basis())
    # the classes every radical endomorphism kills: one joint kernel
    soc = reduce(Matrix.vstack, actions, Matrix.zeros(f_, 0, ext.dim)).kernel_basis()
    if soc.cols == 0:
        raise MathRefusal("socle of Ext^1(C, tau C) vanished: internal bug")
    xi_class = Matrix._make_cols(f_, ext.dim, [soc.col(0)])
    xi_tuple = (Matrix._make_cols(f_, ext.size, ext.reps) @ xi_class).col(0)
    seq = _pushout_sequence(C, A, pres, ext, xi_tuple)
    certificate = {
        "nonsplit_witness": [f_.fmt(c) for c in xi_class.col(0)],
        "socle_annihilation": [not any((act @ xi_class).col(0)) for act in actions],
        "left_is_tau": "by construction",
        "indecomposable_ends": {"right": verdict.status, "left": "translate of "
                                "a certified indecomposable"},
    }
    return AlmostSplitSequence(*seq, certificate, "ending")


def _actions_on_ext(pres, ext, coords):
    """The matrices of xi -> xi . r on the class coordinates of
    ext = Ext^1(C, N), built from `pres`, C's minimal presentation: one per
    column r of `coords`, in the coordinates of End(C).

    Each r lifts once along the presentation: r0: P0 -> P0 sends each
    generator of P0 to a preimage under the cover of its image under r, and
    r1: P1 -> P1 each generator of P1 to a preimage under the realized d1 of
    its image under r0 d1.  Lifts differ only by maps into ker d1, on which
    every cocycle vanishes.  The representatives pulled back along every r1
    are read in one solve against [B | reps].
    """
    if not coords.cols:
        return []
    f = ext.field
    window = pres.window
    hom = end_algebra(pres.module).hom
    aug0 = pres.cover0.realize(pres.module, window)
    d1 = pres.d1.realize(window)
    # the image of P1's j-th generator in P0 is d1's column at that generator
    p1_offsets = pres.p1.realize(window)[1]
    reps = Matrix._make_cols(f, ext.size, ext.reps)
    moved = Matrix.zeros(f, ext.size, 0)
    for k in range(coords.cols):
        r = hom.from_coordinates(coords.col(k))
        lifted0 = []
        for g in pres.cover0.generators:
            img = r.block(g.degree, g.vertex) @ Matrix.from_cols(f, len(g.coords), [g.coords])
            pre = aug0.block(g.degree, g.vertex).solve(img)
            if pre is None:
                raise MathRefusal("endomorphism failed to lift through the cover")
            lifted0.append(Generator(g.degree, g.vertex, pre.col(0)))
        r0 = _pmap_from_generators(pres.p0, window, lifted0).realize(window)
        lifted1 = []
        for j, (b, t) in enumerate(pres.p1.summands):
            blk = d1.block(-t, b)
            img = r0.block(-t, b) @ blk.select_cols([p1_offsets[j][(-t, b)]])
            pre = blk.solve(img)
            if pre is None:
                raise MathRefusal("lift left the syzygy")
            lifted1.append(Generator(-t, b, pre.col(0)))
        r1 = _pmap_from_generators(pres.p1, window, lifted1)
        moved = moved.hstack(psum_pullback_matrix(r1, ext.N) @ reps)
    sol = ext.B.hstack(reps).solve(moved)
    if sol is None:
        raise MathRefusal("tuple is not a cocycle representative")
    n = ext.dim
    rows = sol.data[ext.B.cols:]
    return [Matrix._make(f, n, n, tuple(row[k * n:(k + 1) * n] for row in rows))
            for k in range(coords.cols)]


def _pushout_sequence(C, A, pres, ext, xi_tuple):
    """Realize 0 -> A -> E -> C -> 0 from a cocycle tuple on P1.

    E = coker((h, -d1): P1 -> A (+) P0), with h the cocycle realized as a
    morphism P1 -> A; h vanishes on ker d1, so this is the pushout of
    0 -> im d1 -> P0 -> C -> 0 along the map im d1 -> A that h induces.
    """
    lo, hi = W = (min(A.lo, C.lo), max(A.hi, C.hi))
    aug = pres.cover0.realize(C, W)
    d1 = pres.d1.realize(W)
    h = psum_hom_to_morphism(pres.p1, A, xi_tuple, W)
    A_W = h.target
    C_W = C.with_window(lo, hi)
    if C_W is not C:
        # the same pieces on a wider window: C_W shares C's derived data but
        # the dual; users read C through pres.module and end.hom.source
        C_W._derived.update((k, v) for k, v in C._derived.items() if k != "dual")
    _total, injs, prjs = direct_sum([A_W, d1.target])
    into = injs[0].compose(h) + injs[1].compose(d1.scale(A.algebra.field.of(-1)))
    E, proj = into.cokernel()
    # E's support lies in A's and C's, inside W: it is exact where both are,
    # even where the realized P0 is cut (E is new; nothing is derived from it)
    E.exact_below = A_W.exact_below and C_W.exact_below
    E.exact_above = A_W.exact_above and C_W.exact_above
    f = proj.compose(injs[0])
    # g factors the augmentation through the quotient: on representatives,
    # kill the A part and apply aug on the P0 part
    g_blocks = {}
    for (d, x) in E.dims:
        g_blocks[(d, x)] = (aug.block(d, x) @ prjs[1].block(d, x)).select_cols(
            _pivot_columns(proj.block(d, x)))
    g = GradedMorphism(E, C_W, g_blocks, check=False)
    return A_W, E, C_W, f, g


def _pivot_columns(blk):
    """The pivot columns of a matrix in rref without zero rows, such as a
    cokernel-projection block (see `GradedMorphism.cokernel`): the unit
    vectors there are a right inverse of it."""
    return [next(c for c, v in enumerate(row) if v) for row in blk.data]


def _ass_starting(N, window, cap):
    seq = _ass_ending(N.dual(), window and (-window[1], -window[0]), cap, True)
    f_new, g_new = seq.g.dual(), seq.f.dual()
    ends = seq.certificate["indecomposable_ends"]
    certificate = dict(seq.certificate,
                       left_is_tau="dualized from the opposite-side construction",
                       indecomposable_ends={"left": ends["right"], "right": ends["left"]})
    return AlmostSplitSequence(f_new.source, f_new.target, g_new.target,
                               f_new, g_new, certificate, "starting")


def find_isomorphism(M, N):
    """An explicit graded isomorphism M -> N, or None: the identity between
    exact modules with equal windows, pieces and arrow maps, else the first
    isomorphism in `ghom`'s basis of Hom(M, N).  That decides when End(N) is
    local: given an isomorphism phi, the basis maps are psi_k o phi for a
    basis psi_k of End(N), some psi_k lies outside its radical, so is a unit.
    Verification asks about N = tau C for a certified C, and End(tau C) is
    local as costable End(tau C) = stable End(C) (Auslander-Reiten-Smalo IV)."""
    if M.dims != N.dims:
        return None
    if M.is_exact and N.is_exact and (M.lo, M.hi) == (N.lo, N.hi) and all(
            M.map(*key) == N.map(*key) for key in M.maps.keys() | N.maps.keys()):
        return GradedMorphism(M, N, GradedMorphism.identity(M).blocks, check=False)
    H = ghom(M, N)
    for k in range(H.dim):
        cand = H.morphism(k)
        if cand.is_isomorphism():
            return cand
    return None


def verify_almost_split(seq):
    """Recheck every certificate item; returns (passed, failures).

    Maps, exactness and ranks are checked as given; the rest on an ending
    sequence, for a starting one with exact left term A its dual, whose right
    term D A keeps its derived data.  The class items read the composites of
    g with a basis of Hom(C, E), off C's presentation, in End(C): the class
    is zero iff they reach the identity, and killed by the radical iff they
    span rad End(C).  Both ends must be certified indecomposable: a term
    that decomposes or whose verdict is only "presumed" is a failure.  A is
    checked against tau C by dimensions, and for C certified "yes" by an
    isomorphism, which a basis of Hom(A, tau C) decides since End(tau C) is
    then local (`find_isomorphism`); A is checked to be indecomposable only
    when that does not follow: tau sends an indecomposable non-projective to
    an indecomposable, so a nonzero A isomorphic to tau C builds no End(A).
    Failures name the given terms and the first bad degree in sorted order,
    the same on every run, with the indecomposability items last; a radical
    the field cannot compute (End of dimension >= p over F_p) is a failure
    too, not a raise."""
    failures = []
    A, E, C, f, g = seq.A, seq.E, seq.C, seq.f, seq.g
    if not g.compose(f).is_zero():
        failures.append("complex: g o f != 0")
    for key in sorted(A.dims.keys() | C.dims.keys() | E.dims.keys()):
        if E.dims.get(key, 0) != A.dims.get(key, 0) + C.dims.get(key, 0):
            failures.append(f"exactness: dims fail to add at {key}")
            break
    if not f.is_injective():
        failures.append("exactness: left map not injective")
    if not g.is_surjective():
        failures.append("exactness: right map not surjective")
    for key in E.dims:
        if f.block(*key).rank() + g.block(*key).rank() != E.dims[key]:
            failures.append(f"exactness: rank defect at {key}")
            break
    left, right, end_c, translate = "left", "right", "End(C)", "translate"
    if seq.direction == "starting" and A.is_exact:
        f, g = g.dual(), f.dual()
        seq = AlmostSplitSequence(f.source, f.target, g.target, f, g, {}, "ending")
        A, E, C = seq.A, seq.E, seq.C
        left, right, end_c, translate = "right", "left", "End(A)", "inverse translate"
    # an endomorphism r of C kills the class iff r factors through g
    try:
        end = end_algebra(C)
        through_g = [end.hom.coordinates({k: g.block(*k) @ m for k, m in blocks.items()})
                     for blocks in ghom(C, E).basis_blocks]
        span = Matrix.from_cols(end.field, end.dim, through_g)
        if span.solve(Matrix.from_cols(end.field, end.dim, [end.identity_coords])) is not None:
            failures.append("nonsplit: extension class is zero")
        elif span.solve(end.radical_basis()) is None:
            failures.append(f"socle: class not annihilated by the radical of {end_c}")
    except MathRefusal as e:
        failures.append(f"class check failed: {e}")
    ends = []  # the indecomposability failures, reported last

    def indecomposable(term, M):
        try:
            status = is_strongly_indecomposable(M).status
        except UnsupportedRadical as e:
            ends.append(f"{term} term indecomposability check failed: {e}")
            return None
        if status == "no":
            ends.append(f"{term} term decomposes")
        elif status == "presumed":
            ends.append(f"{term} term not certified indecomposable: verdict 'presumed'")
        return status

    certified = indecomposable(right, C) == "yes"
    # the left term is the translate of the right term; the Hom basis
    # decides that isomorphism only where End(tau C) is local
    taures = tau(C, window=(A.lo, A.hi), check_verdict=False)
    is_tau = False
    if taures.module.dims != A.dims:
        failures.append(f"{left} term does not match the {translate} (dimensions)")
    elif certified and A.is_exact and taures.module.is_exact:
        is_tau = find_isomorphism(A, taures.module) is not None
        if not is_tau:
            failures.append(f"{left} term not isomorphic to the {translate}")
    # tau sends a certified indecomposable C to an indecomposable, so a
    # nonzero A found isomorphic to tau C needs no End algebra of its own
    if not is_tau or A.is_zero():
        if A.is_exact:
            indecomposable(left, A)
    failures += ends
    return (not failures), failures
