"""Multiplication matrices and realized projective maps by normal-form
products, kept only as test oracles.

Each column is a product taken through `GradedAlgebra.multiply`: the normal
form of the concatenated path, reduced from scratch.  The program reads the
same products off the piece layer instead: an arrow's action from the column
normal forms of the piece above (`column_maps`), and an entry of a projective
map pushed along each representative from the image of its tail
(`PMap.realize`).  Normal forms are unique, so both must give the same
matrices.
"""

from gradedquiver.gmodule import GradedMorphism
from gradedquiver.linalg import Matrix


def left_mult_matrix(alg, u, degree, gen_vertex):
    """Matrix of w -> u*w on e_{u.source}A_degree e_gen -> e_{u.target}A_{degree+deg u} e_gen."""
    src_piece = alg.piece(degree, gen_vertex, u.source)
    tgt_dim = alg.dim_piece(degree + u.degree, gen_vertex, u.target)
    cols = [alg.multiply(u, alg.element_from_path(p)).coeffs for p in src_piece.rep_paths]
    return Matrix._make_cols(alg.field, tgt_dim, cols)


def right_mult_matrix(alg, u, degree, top_vertex):
    """Matrix of w -> w*u on e_top A_degree e_{u.target} -> e_top A_{degree+deg u} e_{u.source}."""
    src_piece = alg.piece(degree, u.target, top_vertex)
    tgt_dim = alg.dim_piece(degree + u.degree, u.source, top_vertex)
    cols = [alg.multiply(alg.element_from_path(p), u).coeffs for p in src_piece.rep_paths]
    return Matrix._make_cols(alg.field, tgt_dim, cols)


def column_maps(alg, gen_vertex, degree):
    """The arrow actions of `GradedAlgebra.column_maps`, by left multiplication."""
    here = dict(alg.column(gen_vertex, degree))
    above = dict(alg.column(gen_vertex, degree + 1))
    return {a.name: left_mult_matrix(alg, alg.arrow_element(a.name), degree, gen_vertex)
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
