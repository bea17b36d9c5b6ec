"""Standard modules and cover morphisms by the earlier direct method, kept
only as test oracles.

`standard_module` builds P_a<s> and I_a<s> from piece dimensions and
left-multiplication matrices (`product_oracle`) on every call, scanning the
window degree by degree; I_a<s> is built as the mirror image of the opposite
projective, block by block.  The program re-indexes per-vertex column data instead, and takes
I_a<s> as the dual of P°_a<-s>.  `cover_realize` maps each representative
path by `path_action`, where the program builds each image from the image of
its tail.  These oracles check that both give the same modules and maps.
"""

from gradedquiver.errors import InputError, WindowError
from gradedquiver.gmodule import GradedModule, GradedMorphism
from gradedquiver.linalg import Matrix

from product_oracle import arrow_element, left_mult_matrix


def _column_dim(algebra, degree, vertex):
    return sum(algebra.dim_piece(degree, vertex, y) for y in algebra.quiver.vertices)


def _support_scan(algebra, degrees, dim_at):
    """Nonzero dims dim_at(i, x) over the degrees in scan order, stopping at
    the first degree where every vertex gives 0; also whether it stopped."""
    dims = {}
    for i in degrees:
        row = [(x, dim_at(i, x)) for x in algebra.quiver.vertices]
        if not any(n for _x, n in row):
            return dims, True
        dims.update(((i, x), n) for x, n in row if n)
    return dims, False


def standard_module(algebra, kind, vertex, shift=0, window=None):
    """The standard projective P_a<s>, injective I_a<s>, or simple S_a<s>."""
    algebra.quiver.check_vertex(vertex)
    s = shift
    if kind == "S":
        lo, hi = window if window else (-s, -s)
        if not lo <= -s <= hi:
            raise WindowError(f"window [{lo},{hi}] misses the simple at degree {-s}")
        return GradedModule(algebra, lo, hi, {(-s, vertex): 1}, {}, check=False)
    if kind == "P":
        if window is None:
            raise WindowError("projective realization needs a window")
        lo, hi = window
        dims, vanished = _support_scan(algebra, range(max(lo, -s), hi + 1),
                                       lambda i, x: algebra.dim_piece(i + s, vertex, x))
        maps = {}
        for i in range(max(lo, -s), hi):
            for a in algebra.quiver.arrows:
                if dims.get((i, a.source), 0) and dims.get((i + 1, a.target), 0):
                    u = arrow_element(algebra, a.name)
                    maps[(a.name, i)] = left_mult_matrix(algebra, u, i + s, vertex)
        exact_below = lo <= -s
        exact_above = vanished or _column_dim(algebra, hi + 1 + s, vertex) == 0
        return GradedModule(algebra, lo, hi, dims, maps,
                            exact_below=exact_below, exact_above=exact_above, check=False)
    if kind == "I":
        if window is None:
            raise WindowError("injective realization needs a window")
        lo, hi = window
        opp = algebra.opposite()
        dims, vanished = _support_scan(algebra, range(min(hi, -s), lo - 1, -1),
                                       lambda i, x: opp.dim_piece(-i - s, vertex, x))
        dims = dict(sorted(dims.items(), key=lambda kv: kv[0][0]))
        maps = {}
        for i in range(lo, min(hi, -s)):
            for a in algebra.quiver.arrows:
                if dims.get((i, a.source), 0) and dims.get((i + 1, a.target), 0):
                    ao = arrow_element(opp, a.name)
                    maps[(a.name, i)] = left_mult_matrix(opp, ao, -i - 1 - s, vertex).transpose()
        exact_above = hi >= -s
        exact_below = vanished or _column_dim(opp, -lo + 1 - s, vertex) == 0
        return GradedModule(algebra, lo, hi, dims, maps,
                            exact_below=exact_below, exact_above=exact_above, check=False)
    raise InputError(f"unknown standard module kind {kind!r}")


def cover_realize(cover, module, window=None):
    """The cover morphism onto `module`, each representative by path_action."""
    window = window or (module.lo, module.hi)
    target = module.with_window(*window)
    src, offsets = cover.psum.realize(window)
    f = src.algebra.field
    blocks = {}
    for (i, x), ncols in src.dims.items():
        nrows = target.dims.get((i, x), 0)
        entries = [[f.zero()] * ncols for _ in range(nrows)]
        if nrows:
            for j, ((b, s), gen) in enumerate(zip(cover.psum.summands, cover.generators)):
                piece = src.algebra.piece(i + s, b, x)
                c0 = offsets[j].get((i, x))
                gcol = Matrix.from_cols(f, len(gen.coords), [gen.coords])
                for c, rep in enumerate(piece.rep_paths):
                    col = target.path_action(rep, gen.degree) @ gcol
                    for r in range(nrows):
                        entries[r][c0 + c] = col.data[r][0]
        blocks[(i, x)] = Matrix(f, nrows, ncols, entries)
    return GradedMorphism(src, target, blocks, check=False)
