"""Transpose, Nakayama functor, translates, and almost split sequences.

The transpose of a presented module is the cokernel of the entrywise-opposite
transposed presentation matrix; the translates are its windowed duals.  The
Nakayama functor sends a projective map to its transpose over the opposite
algebra, which stands for a map of injectives through duality.  An
almost split sequence ending at C is assembled from a nonzero extension class
annihilated by the radical of End(C), realized as an explicit pushout, and
every constructed sequence carries a verification certificate.
"""

import random

from .errors import InputError, WindowError, MathRefusal
from .linalg import Matrix
from .gmodule import GradedMorphism, direct_sum, zero_module, _memo
from .presentations import ProjSum, minimal_presentation, _pmap_generator_image
from .homs import (ghom, end_algebra, is_strongly_indecomposable,
                   ext1, ExtSpace, EndActionOnExt, underline_hom_dim,
                   overline_hom_dim, psum_hom_to_morphism)


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
            self.p1 = ProjSum(self.algebra, [])
        else:
            self.d = pres.d1.transpose_to_opposite()  # p0^t -> p1^t
            self.cover_psum = self.d.dst
            self.p1 = self.d.src

    def is_zero(self):
        return self.d is None

    def realize(self, window):
        """(Tr M on the window, projection from the realized cover)."""
        if self.is_zero():
            zm = zero_module(self.algebra, *window)
            return zm, GradedMorphism.zero(zm, zm)
        return _memo(self._realized, tuple(window), lambda: self.d.realize(window).cokernel())

    def transpose_back(self):
        """The double-transpose differential (equals the original for
        minimal presentations of indecomposable non-projectives)."""
        if self.is_zero():
            return None
        return self.d.transpose_to_opposite()


def transpose(M, pres=None):
    """The graded transpose as presented data over the opposite algebra,
    built once per presentation (by default the minimal one of M)."""
    if pres is None:
        pres = minimal_presentation(M)
    return _memo(pres._derived, "transpose", lambda: TransposeData(pres))


class TauResult:
    """A realized translate plus the transpose data behind it."""

    def __init__(self, module, warning, trdata, pres):
        self.module = module
        self.warning = warning
        self.transpose = trdata
        self.presentation = pres

    def is_zero(self):
        return self.module.is_zero()


def tau(M, window=None, pad=4, check_verdict=True, budget=64, seed=0):
    """The right translate: the windowed dual of the transpose.

    Refuses unless the input is certified strongly indecomposable (pass
    check_verdict=False for bulk dimension checks, where the translate is
    defined for any finitely presented module).
    """
    trdata = transpose(M)
    pres = trdata.source_pres
    if window is None:
        window = (M.lo - pad, M.hi + 2 + pad)
    if trdata.is_zero():
        return TauResult(zero_module(M.algebra, *window),
                         "input is graded projective; the translate is zero",
                         trdata, pres)
    if check_verdict:
        verdict = is_strongly_indecomposable(M, budget=budget, seed=seed)
        if verdict.status != "yes":
            raise MathRefusal(f"translate needs a certified indecomposable "
                              f"input; verdict was {verdict.status!r}")
    lo, hi = window
    trmod, _proj = trdata.realize((-hi, -lo))
    return TauResult(trmod.dual_windowed(), None, trdata, pres)


def tau_inverse(N, window=None, pad=4, check_verdict=True, budget=64, seed=0):
    """The left translate: the transpose of the dual."""
    trdata = transpose(N.dual())  # over the double opposite = base algebra
    pres = trdata.source_pres
    if window is None:
        window = (N.lo - 1, N.hi + 1 + pad)
    if trdata.is_zero():
        return TauResult(zero_module(N.algebra, *window),
                         "input is graded injective; the translate is zero",
                         trdata, pres)
    if check_verdict:
        verdict = is_strongly_indecomposable(N, budget=budget, seed=seed)
        if verdict.status != "yes":
            raise MathRefusal(f"translate needs a certified indecomposable "
                              f"input; verdict was {verdict.status!r}")
    trmod, _proj = trdata.realize(window)
    return TauResult(trmod, None, trdata, pres)


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


def ar_formula_check(M, X, pad=4):
    """The two dimension identities relating stable homs and Ext against the
    translates; returns all four numbers and the two verdicts."""
    report = {}
    lhs1 = underline_hom_dim(M, X)
    t = tau(M, window=(min(M.lo, X.lo) - pad, max(M.hi, X.hi) + 2 + pad),
            check_verdict=False)
    if t.is_zero():
        rhs1 = 0
    else:
        rhs1 = ext1(X, t.module).dim
    report["underline_hom"] = lhs1
    report["ext_against_tau"] = rhs1
    report["formula1_holds"] = lhs1 == rhs1
    lhs2 = overline_hom_dim(X, M)
    ti = tau_inverse(M, check_verdict=False)
    if ti.is_zero():
        rhs2 = 0
    else:
        rhs2 = ExtSpace(ti.transpose.d, X).dim
    report["overline_hom"] = lhs2
    report["ext_of_tau_inverse"] = rhs2
    report["formula2_holds"] = lhs2 == rhs2
    return report


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


def almost_split_sequence(C, direction="ending", pad=4, budget=64, seed=0):
    if direction == "ending":
        return _ass_ending(C, pad, budget, seed)
    if direction == "starting":
        return _ass_starting(C, pad, budget, seed)
    raise InputError(f"unknown direction {direction!r}")


def _ass_ending(C, pad, budget, seed):
    if not C.is_exact:
        raise WindowError("almost split construction needs a finite-dimensional "
                          "exact-window ending term")
    verdict = is_strongly_indecomposable(C, budget=budget, seed=seed)
    if verdict.status != "yes":
        raise MathRefusal(f"ending term not certified indecomposable: "
                          f"verdict {verdict.status!r}")
    pres = minimal_presentation(C)
    if pres.module_is_projective():
        raise MathRefusal("ending term is graded projective (Ext-projective): "
                          "no almost split sequence ends there")
    taures = tau(C, window=(C.lo - pad, C.hi + 2 + pad), check_verdict=False)
    A = taures.module
    if not A.is_exact:
        # grow once; an honestly infinite translate is out of scope
        taures = tau(C, window=(C.lo - 4 * pad, C.hi + 2 + 4 * pad),
                     check_verdict=False)
        A = taures.module
        if not A.is_exact:
            raise MathRefusal("the translate is not finite dimensional on a "
                              "grown window; sequences with infinite terms "
                              "are out of scope")
    ext = ext1(C, A, pres=pres)
    if ext.dim == 0:
        raise MathRefusal("Ext^1(C, tau C) vanished for a valid input: "
                          "this indicates an internal inconsistency (bug)")
    end = end_algebra(C)
    action = EndActionOnExt(ext, end, pres=pres)
    soc = action.socle_subspace()
    if soc.cols == 0:
        raise MathRefusal("socle of Ext^1(C, tau C) vanished: internal bug")
    xi_class = soc.col(0)
    f_ = ext.field
    xi_tuple = [f_.zero()] * ext.size
    for k, c in enumerate(xi_class):
        if c:
            rep = ext.tuple_of_class(k)
            xi_tuple = [f_.add(a, f_.mul(c, b)) for a, b in zip(xi_tuple, rep)]
    seq = _pushout_sequence(C, A, pres, ext, xi_tuple)
    rad_checks = []
    for k in range(end.radical_basis().cols):
        moved = action.action_matrix(end.radical_basis().col(k))
        col = moved @ Matrix.from_cols(f_, len(xi_class), [list(xi_class)])
        rad_checks.append(all(not v for v in col.col(0)))
    certificate = {
        "nonsplit_witness": [f_.fmt(c) for c in xi_class],
        "socle_annihilation": rad_checks,
        "left_is_tau": "by construction",
        "indecomposable_ends": {"right": verdict.status, "left": "translate of "
                                "a certified indecomposable"},
    }
    return AlmostSplitSequence(seq[0], seq[1], seq[2], seq[3], seq[4],
                               certificate, "ending")


def _pushout_sequence(C, A, pres, ext, xi_tuple):
    """Realize 0 -> A -> E -> C -> 0 from a cocycle tuple on P1.

    E = coker((h, -d1): P1 -> A (+) P0), with h the cocycle realized as a
    morphism P1 -> A; h vanishes on ker d1, so this is the pushout of
    0 -> im d1 -> P0 -> C -> 0 along the map im d1 -> A that h induces.
    """
    W = (A.lo, max(C.hi + 1, A.hi))
    lo, hi = W
    aug = pres.cover0.realize(C, W)
    d1 = pres.d1.realize(W)
    h = psum_hom_to_morphism(pres.p1, A, xi_tuple, W)
    A_W = h.target
    C_W = C.with_window(lo, hi)
    _total, injs, prjs = direct_sum([A_W, d1.target])
    into = injs[0].compose(h) + injs[1].compose(d1.scale(A.algebra.field.of(-1)))
    E, proj = into.cokernel()
    f = proj.compose(injs[0])
    # g factors the augmentation through the quotient: on representatives,
    # kill the A part and apply aug on the P0 part
    g_blocks = {}
    for (d, x), edim in E.dims.items():
        sect = _section_of_projection(proj, (d, x))
        g_blocks[(d, x)] = aug.block(d, x) @ prjs[1].block(d, x) @ sect
    g = GradedMorphism(E, C_W, g_blocks, check=False)
    return A_W, E, C_W, f, g


def _section_of_projection(proj, key):
    """A right inverse of one cokernel-projection block."""
    blk = proj.block(*key)
    f = proj.source.algebra.field
    sol = blk.solve(Matrix.identity(f, blk.rows))
    if sol is None:
        raise MathRefusal("projection block is not surjective")
    return sol


def _ass_starting(N, pad, budget, seed):
    if not N.is_exact:
        raise WindowError("almost split construction needs a finite-dimensional "
                          "exact-window starting term")
    Cop = N.dual()
    seq = _ass_ending(Cop, pad, budget, seed)
    f_new = seq.g.dual()
    g_new = seq.f.dual()
    certificate = dict(seq.certificate)
    certificate["left_is_tau"] = "dualized from the opposite-side construction"
    certificate["indecomposable_ends"] = {
        "left": seq.certificate["indecomposable_ends"]["right"],
        "right": seq.certificate["indecomposable_ends"]["left"],
    }
    return AlmostSplitSequence(f_new.source, f_new.target, g_new.target,
                               f_new, g_new, certificate, "starting")


def find_isomorphism(M, N, budget=16, seed=0):
    """An explicit graded isomorphism, or None when none is found."""
    if M.dims != N.dims:
        return None
    H = ghom(M, N)
    for k in range(H.dim):
        cand = H.morphism(k)
        if cand.is_isomorphism():
            return cand
    f = M.algebra.field
    rng = random.Random(seed)
    small = [-2, -1, 1, 2] if f.is_rationals else list(range(1, f.p))
    for _ in range(budget):
        coords = [f.of(rng.choice(small + [0])) for _ in range(H.dim)]
        cand = H.from_coordinates(coords)
        if cand.is_isomorphism():
            return cand
    return None


def verify_almost_split(seq, budget=64, seed=0):
    """Recheck every certificate item; returns (passed, failures)."""
    failures = []
    A, E, C, f, g = seq.A, seq.E, seq.C, seq.f, seq.g
    if not g.compose(f).is_zero():
        failures.append("complex: g o f != 0")
    for key in set(A.dims) | set(C.dims) | set(E.dims):
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
    # non-splitness and socle membership of the class of this very sequence
    try:
        cls, ext, action, end = _class_of_sequence(seq)
        if all(not c for c in cls):
            failures.append("nonsplit: extension class is zero")
        else:
            rad = end.radical_basis()
            fld = ext.field
            for k in range(rad.cols):
                moved = action.action_matrix(rad.col(k)) @ Matrix.from_cols(
                    fld, len(cls), [list(cls)])
                if any(moved.col(0)):
                    failures.append("socle: class not annihilated by the "
                                    "radical of End(C)")
                    break
    except MathRefusal as e:
        failures.append(f"class check failed: {e}")
    # the left term is the translate of the right term
    taures = tau(C, window=(A.lo, A.hi), check_verdict=False)
    if taures.module.dims != A.dims:
        failures.append("left term does not match the translate (dimensions)")
    elif A.is_exact and taures.module.is_exact:
        if find_isomorphism(A, taures.module, seed=seed) is None:
            failures.append("left term not isomorphic to the translate")
    # end terms indecomposable
    vC = is_strongly_indecomposable(C, budget=budget, seed=seed)
    if vC.status == "no":
        failures.append("right term decomposes")
    if A.is_exact:
        vA = is_strongly_indecomposable(A, budget=budget, seed=seed)
        if vA.status == "no":
            failures.append("left term decomposes")
    return (not failures), failures


def _class_of_sequence(seq):
    """The Ext-class coordinates of the given short exact sequence."""
    A, E, C, f, g = seq.A, seq.E, seq.C, seq.f, seq.g
    pres = minimal_presentation(C)
    ext = ext1(pres.module, A, pres=pres)
    end = end_algebra(pres.module)
    action = EndActionOnExt(ext, end, pres=pres)
    # the cover only needs one degree above the support of C
    supp = C.support_degrees()
    need_hi = (supp[-1] + 1) if supp else C.hi
    W = (E.lo, max(E.hi, need_hi))
    fld = A.algebra.field
    E_W = E.with_window(*W)
    g_W = GradedMorphism(E_W, C.with_window(*W),
                         {k: m for k, m in g.blocks.items()}, check=False)
    f_W = GradedMorphism(A.with_window(*W), E_W,
                         {k: m for k, m in f.blocks.items()}, check=False)
    # lift the cover through g at the generators, then extend module-linearly
    from .gmodule import ModuleElement
    from .presentations import Cover
    lifted = []
    for gen in pres.cover0.generators:
        rhs = Matrix.from_cols(fld, len(gen.coords), [list(gen.coords)])
        sol = g_W.block(gen.degree, gen.vertex).solve(rhs)
        if sol is None:
            raise MathRefusal("cover does not lift through the right-hand map")
        lifted.append(ModuleElement(E_W, gen.degree, gen.vertex, sol.col(0)))
    lam = Cover(pres.p0, lifted).realize(E_W, W)
    # restrict to the syzygy, land in im(f) = ker(g), pull back through f:
    # the syzygy is generated by the images in P0 of P1's generators, the
    # columns of the realized d1 at them, read off d1's entries
    if A.algebra is not C.algebra:
        raise MathRefusal("mixed algebras in the sequence")
    tuple_vec = []
    for j, (b, t) in enumerate(pres.p1.summands):
        d = -t
        in_E = lam.block(d, b) @ _pmap_generator_image(pres.d1, j, d, b, W)
        back = f_W.block(d, b).solve(in_E)
        if back is None:
            raise MathRefusal("syzygy image is not inside the left-hand term")
        tuple_vec.extend(back.col(0))
    return ext.class_coordinates(tuple_vec), ext, action, end
