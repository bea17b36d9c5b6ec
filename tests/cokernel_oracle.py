"""The cokernel by three reductions a piece, kept only as a test oracle.

At each target piece the image basis of the block, the complement indices
of [image | I] and the projection (a solve against [image | complement]) each
came from a reduction of their own, and a section of a projection block from
one more solve.  The program reads all of them off one reduction of
[block | I]; both must give the same dims, maps, projection blocks and
sections.
"""

from gradedquiver.gmodule import GradedModule, GradedMorphism, _complement_indices
from gradedquiver.linalg import Matrix


def cokernel(mor):
    """(C = target/Im f, projection target -> C)."""
    f = mor.source.algebra.field
    proj_blocks = {}
    sect_blocks = {}
    dims = {}
    for (i, x), n in mor.target.dims.items():
        img = mor.block(i, x).image_basis()
        reps = Matrix.identity(f, n).select_cols(_complement_indices(f, img, n))
        if reps.cols == 0:
            continue
        dims[(i, x)] = reps.cols
        full = img.hstack(reps) if img.cols else reps
        inv = full.solve(Matrix.identity(f, n))
        proj_blocks[(i, x)] = Matrix._make(f, reps.cols, n, inv.data[img.cols:])
        sect_blocks[(i, x)] = reps
    maps = {}
    for (i, x) in sorted(dims):
        for a in mor.target.algebra.quiver.arrows_from[x]:
            if dims.get((i + 1, a.target), 0) == 0 or i + 1 > mor.target.hi:
                continue
            maps[(a.name, i)] = (proj_blocks[(i + 1, a.target)]
                                 @ mor.target.map(a.name, i) @ sect_blocks[(i, x)])
    C = GradedModule(mor.target.algebra, mor.target.lo, mor.target.hi, dims, maps,
                     exact_below=mor.target.exact_below,
                     exact_above=mor.target.exact_above, check=False)
    return C, GradedMorphism(mor.target, C, proj_blocks, check=False)


def section_of_projection(proj, key):
    """A right inverse of one cokernel-projection block, by a solve."""
    blk = proj.block(*key)
    return blk.solve(Matrix.identity(blk.field, blk.rows))
