"""Products of algebra elements by normal forms, with the multiplication
matrices, realized projective maps and formal compositions built on them,
kept only as test oracles.

`multiply` takes each product as the normal form of the concatenated path,
reduced from scratch.  The program reads the same products off the piece
layer instead: an arrow's action from the column normal forms of the piece
above (`column_maps`), and an entry of a projective map pushed along each
representative from the image of its tail (`PMap.realize`); a composite of
projective maps is applied to generators through the realization of its
first factor.  Normal forms are unique, so both must give the same matrices.
"""

from gradedquiver.algebra import AlgElement
from gradedquiver.errors import InputError
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.linalg import Matrix
from gradedquiver.presentations import PMap


def arrow_element(alg, name):
    """The element of the arrow `name`: its path's normal form."""
    return alg.element_from_path(alg.quiver.path_from_names((name,)))


def multiply(alg, u, v):
    """u*v, meaning v acts first: source(u) must equal target(v)."""
    if u.algebra is not alg or v.algebra is not alg:
        raise InputError("elements of a different algebra")
    if u.source != v.target:
        raise InputError(f"endpoint mismatch: source {u.source!r} vs target {v.target!r}")
    degree = u.degree + v.degree
    u_reps = alg.piece(u.degree, u.source, u.target).rep_paths
    v_reps = alg.piece(v.degree, v.source, v.target).rep_paths
    products = ((cu * cv, alg._normal_form(pu.names() + pv.names()))
                for cu, pu in zip(u.coeffs, u_reps) if cu
                for cv, pv in zip(v.coeffs, v_reps) if cv)
    coeffs = alg._lincomb(alg.piece(degree, v.source, u.target).dim, products)
    return AlgElement(alg, degree, v.source, u.target, coeffs)


def compose(f, g):
    """The formal composite of projective maps f after g, entry by entry."""
    if g.dst.summands != f.src.summands:
        raise InputError("formal composition endpoint mismatch")
    entries = [[None] * len(g.src) for _ in range(len(f.dst))]
    for i in range(len(f.dst)):
        for j in range(len(g.src)):
            acc = None
            for m in range(len(f.src)):
                if g.entries[m][j] is None or f.entries[i][m] is None:
                    continue
                prod = multiply(f.algebra, g.entries[m][j], f.entries[i][m])
                acc = prod if acc is None else acc + prod
            entries[i][j] = acc
    return PMap(g.src, f.dst, entries)


def left_mult_matrix(alg, u, degree, gen_vertex):
    """Matrix of w -> u*w on e_{u.source}A_degree e_gen -> e_{u.target}A_{degree+deg u} e_gen."""
    src_piece = alg.piece(degree, gen_vertex, u.source)
    tgt_dim = alg.dim_piece(degree + u.degree, gen_vertex, u.target)
    cols = [multiply(alg, u, alg.element_from_path(p)).coeffs for p in src_piece.rep_paths]
    return Matrix._make_cols(alg.field, tgt_dim, cols)


def right_mult_matrix(alg, u, degree, top_vertex):
    """Matrix of w -> w*u on e_top A_degree e_{u.target} -> e_top A_{degree+deg u} e_{u.source}."""
    src_piece = alg.piece(degree, u.target, top_vertex)
    tgt_dim = alg.dim_piece(degree + u.degree, u.source, top_vertex)
    cols = [multiply(alg, alg.element_from_path(p), u).coeffs for p in src_piece.rep_paths]
    return Matrix._make_cols(alg.field, tgt_dim, cols)


def column_maps(alg, gen_vertex, degree):
    """The arrow actions of `GradedAlgebra.column_maps`, by left multiplication."""
    here = dict(alg.column(gen_vertex, degree))
    above = dict(alg.column(gen_vertex, degree + 1))
    return {a.name: left_mult_matrix(alg, arrow_element(alg, a.name), degree, gen_vertex)
            for a in alg.quiver.arrows if a.source in here and a.target in above}


def pmap_realize(pmap, window):
    """`PMap.realize`, one right-multiplication block per entry and piece."""
    src_mod, src_off = pmap.src.realize(window)
    dst_mod, dst_off = pmap.dst.realize(window)
    alg = pmap.algebra
    f = alg.field
    blocks = {}
    for (d, x), ncols in src_mod.dims.items():
        nrows = dst_mod.dims.get((d, x), 0)
        if nrows == 0:
            continue
        entries = [[f.zero()] * ncols for _ in range(nrows)]
        for i in range(len(pmap.dst)):
            for j, (_b, t) in enumerate(pmap.src.summands):
                e = pmap.entries[i][j]
                if e is None:
                    continue
                blk = right_mult_matrix(alg, e, d + t, x)
                if blk.rows == 0 or blk.cols == 0:
                    continue
                r0 = dst_off[i][(d, x)]
                c0 = src_off[j][(d, x)]
                for r in range(blk.rows):
                    for c in range(blk.cols):
                        entries[r0 + r][c0 + c] = f.add(entries[r0 + r][c0 + c], blk.data[r][c])
        blocks[(d, x)] = Matrix._make(f, nrows, ncols, tuple(map(tuple, entries)))
    return GradedMorphism(src_mod, dst_mod, blocks, check=False)
