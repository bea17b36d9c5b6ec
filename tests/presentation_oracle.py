"""The AR-layer consumers of a presentation by the earlier syzygy-module
route, kept only as a test oracle.

The first syzygy K = ker(P0 -> M) is built as a module on each window, with
its inclusion into P0 and a cover P1 -> K whose generators are found by the
radical route of `resolution_oracle.top_basis`.  The pushout factors the
cocycle through K, the class of a sequence restricts to K's generators, and
an endomorphism lifts to P1 in two stages, into K and then through the cover.
The program reads K off the realized d1 instead; both must give the same
sequences, action matrices and class coordinates.  The class of an almost
split sequence is taken by the earlier construction route too: one solve per
class and action for the End(C)-action on Ext^1, and the socle by
intersecting the radical actions' kernels one at a time, where the program
takes one joint kernel of the stacked actions.
"""

from gradedquiver.algebra import AlgElement
from gradedquiver.artheory import AlmostSplitSequence, tau
from gradedquiver.errors import MathRefusal
from gradedquiver.gmodule import GradedMorphism, direct_sum
from gradedquiver.homs import (ExtSpace, end_algebra, ext1, is_strongly_indecomposable,
                               psum_hom_to_morphism, psum_pullback_matrix)
from gradedquiver.linalg import Matrix
from gradedquiver.presentations import (Cover, Generator, PMap, ProjSum,
                                        minimal_presentation)

import resolution_oracle
from product_oracle import compose
from conftest import kernel
from ext_window_oracle import WindowedExtSpace


def syzygy_cover(pres):
    """The cover P1 -> K of the first syzygy, generators in K's coordinates.

    Checks that the d1 they define is the presentation's.
    """
    M = pres.module
    K, K_incl = kernel(pres.cover0.realize(M, pres.window))
    gens = resolution_oracle.top_basis(K, gen_degree_bound=M.hi + 1)
    p1 = ProjSum(M.algebra, [(g.vertex, -g.degree) for g in gens])
    d1 = resolution_oracle.pmap_from_kernel_generators(p1, pres.p0, pres.window, gens, K_incl)
    assert p1.summands == pres.p1.summands and d1.to_json() == pres.d1.to_json()
    return Cover(pres.p1, gens)


def pushout_sequence(C, A, pres, xi_tuple):
    """0 -> A -> E -> C -> 0 as coker((h, -incl): K -> A (+) P0), with h
    the cocycle factored through the syzygy cover."""
    lo, hi = W = (min(A.lo, C.lo), max(A.hi, C.hi))
    aug = pres.cover0.realize(C, W)
    P0 = aug.source
    K, K_incl = kernel(aug)
    htilde = psum_hom_to_morphism(pres.p1, A, xi_tuple, W)
    aug1 = syzygy_cover(pres).realize(K, W)
    h_blocks = {}
    for (d, x), kdim in K.dims.items():
        pre = aug1.block(d, x).solve(Matrix.identity(A.algebra.field, kdim))
        if pre is None:
            raise MathRefusal("syzygy cover stopped being surjective")
        h_blocks[(d, x)] = htilde.block(d, x) @ pre
    h = GradedMorphism(K, A.with_window(lo, hi), h_blocks, check=False)
    A_W = h.target
    C_W = C.with_window(lo, hi)
    total, injs, prjs = direct_sum([A_W, P0])
    minus_incl = K_incl.scale(A.algebra.field.of(-1))
    into = injs[0].compose(h) + injs[1].compose(minus_incl)
    E, proj = into.cokernel()
    # an extension of C_W by A_W, whatever the cut P0
    E.exact_below = A_W.exact_below and C_W.exact_below
    E.exact_above = A_W.exact_above and C_W.exact_above
    f = proj.compose(injs[0])
    g_blocks = {}
    for (d, x) in E.dims:
        blk = proj.block(d, x)
        sect = blk.solve(Matrix.identity(blk.field, blk.rows))
        g_blocks[(d, x)] = aug.block(d, x) @ prjs[1].block(d, x) @ sect
    g = GradedMorphism(E, C_W, g_blocks, check=False)
    return A_W, E, C_W, f, g


def _elements_to_pmap(src_psum, dst_psum, elements, window):
    """Formal map sending the j-th generator of src to the given element of
    the realized dst sum."""
    alg = src_psum.algebra
    _total, offsets = dst_psum.realize(window)
    entries = [[None] * len(src_psum) for _ in range(len(dst_psum))]
    for j, el in enumerate(elements):
        for i, (a, s) in enumerate(dst_psum.summands):
            piece = alg.piece(el.degree + s, a, el.vertex)
            if piece.dim == 0:
                continue
            c0 = offsets[i][(el.degree, el.vertex)]
            coeffs = [el.coords[c0 + k] for k in range(piece.dim)]
            if any(coeffs):
                entries[i][j] = AlgElement(alg, el.degree + s, a, el.vertex, coeffs)
    return PMap(src_psum, dst_psum, entries)


def generator_image(pmap, j, degree, vertex, window):
    """The image of the j-th source generator inside the realized target,
    summed entry by entry (the program reads it off the realized map)."""
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


def lift(pres, fmor):
    """f: M -> M lifted to P1 -> P1: into K through its inclusion, then
    through the syzygy cover."""
    alg = pres.module.algebra
    window = pres.window
    aug0 = pres.cover0.realize(pres.module, window)
    K, K_incl = kernel(aug0)
    aug1 = syzygy_cover(pres).realize(K, window)
    lifted0 = []
    for g in pres.cover0.generators:
        img = fmor.block(g.degree, g.vertex) @ Matrix.from_cols(
            alg.field, len(g.coords), [list(g.coords)])
        pre = aug0.block(g.degree, g.vertex).solve(img)
        lifted0.append(Generator(g.degree, g.vertex, pre.col(0)))
    f0 = _elements_to_pmap(pres.p0, pres.p0, lifted0, window)
    g_map = compose(f0, pres.d1)
    lifted1 = []
    for j, (b, t) in enumerate(pres.p1.summands):
        d = -t
        col = generator_image(g_map, j, d, b, window)
        into_K = K_incl.block(d, b).solve(col)
        pre = aug1.block(d, b).solve(into_K)
        lifted1.append(Generator(d, b, pre.col(0)))
    return _elements_to_pmap(pres.p1, pres.p1, lifted1, window)


def action_matrix(ext, end, pres, f_coords):
    """Matrix of xi -> xi . f on Ext-class coordinates, lifting by `lift`
    and solving for one class at a time."""
    f1 = lift(pres, end.hom.from_coordinates(f_coords))
    pull = psum_pullback_matrix(f1, ext.N)
    cols = []
    for rep in ext.reps:
        vec = Matrix.from_cols(ext.field, ext.size, [rep])
        cols.append(WindowedExtSpace.class_coordinates(ext, (pull @ vec).col(0)))
    return Matrix.from_cols(ext.field, ext.dim, cols)


def radical_actions(ext, end, pres):
    """`action_matrix` of each radical basis endomorphism of End(C)."""
    rad = end.radical_basis()
    return [action_matrix(ext, end, pres, rad.col(k)) for k in range(rad.cols)]


def iterated_socle(ext, actions):
    """Columns spanning the classes every action kills, intersecting the
    kernels one action at a time; the first column is the socle class
    whose last nonzero coordinate sits lowest and is 1."""
    current = Matrix.identity(ext.field, ext.dim)
    for act in actions:
        current = current @ (act @ current).kernel_basis()
    return current


def almost_split_sequence(C, direction="ending"):
    """The almost split sequence at C, for C certified indecomposable, not
    projective (injective when starting) and with an exact translate: the
    pushout by `pushout_sequence` along the first `iterated_socle` column
    of the `radical_actions`; a starting one dualizes the sequence ending
    at D C."""
    if direction == "starting":
        seq = almost_split_sequence(C.dual())
        f, g = seq.g.dual(), seq.f.dual()
        ends = seq.certificate["indecomposable_ends"]
        certificate = dict(seq.certificate,
                           left_is_tau="dualized from the opposite-side construction",
                           indecomposable_ends={"left": ends["right"], "right": ends["left"]})
        return AlmostSplitSequence(f.source, f.target, g.target, f, g, certificate, "starting")
    pres = minimal_presentation(C)
    A = tau(C, check_verdict=False).module
    ext = ExtSpace(pres.d1, A)
    actions = radical_actions(ext, end_algebra(C), pres)
    fld = ext.field
    xi = Matrix.from_cols(fld, ext.dim, [iterated_socle(ext, actions).col(0)])
    xi_tuple = (Matrix.from_cols(fld, ext.size, ext.reps) @ xi).col(0)
    certificate = {
        "nonsplit_witness": [fld.fmt(c) for c in xi.col(0)],
        "socle_annihilation": [not any((act @ xi).col(0)) for act in actions],
        "left_is_tau": "by construction",
        "indecomposable_ends": {"right": is_strongly_indecomposable(C).status,
                                "left": "translate of a certified indecomposable"},
    }
    return AlmostSplitSequence(*pushout_sequence(C, A, pres, xi_tuple), certificate, "ending")


def class_of_sequence(seq):
    """The Ext-class coordinates of the sequence, restricting a lift of the
    cover through g to the syzygy's generators in K."""
    A, E, C, f, g = seq.A, seq.E, seq.C, seq.f, seq.g
    pres = minimal_presentation(C)
    ext = ext1(C, A)
    supp = C.support_degrees()
    need_hi = (supp[-1] + 1) if supp else C.hi
    W = (E.lo, max(E.hi, need_hi))
    aug = pres.cover0.realize(pres.module, W)
    K, K_incl = kernel(aug)
    fld = A.algebra.field
    E_W = E.with_window(*W)
    g_W = GradedMorphism(E_W, C.with_window(*W), dict(g.blocks), check=False)
    f_W = GradedMorphism(A.with_window(*W), E_W, dict(f.blocks), check=False)
    lifted = []
    for gen in pres.cover0.generators:
        rhs = Matrix.from_cols(fld, len(gen.coords), [list(gen.coords)])
        sol = g_W.block(gen.degree, gen.vertex).solve(rhs)
        lifted.append(Generator(gen.degree, gen.vertex, sol.col(0)))
    lam = Cover(pres.p0, lifted).realize(E_W, W)
    tuple_vec = []
    for gen in syzygy_cover(pres).generators:
        d, b = gen.degree, gen.vertex
        gcol = Matrix.from_cols(fld, len(gen.coords), [list(gen.coords)])
        back = f_W.block(d, b).solve(lam.block(d, b) @ (K_incl.block(d, b) @ gcol))
        tuple_vec.extend(back.col(0))
    return WindowedExtSpace.class_coordinates(ext, tuple_vec)
