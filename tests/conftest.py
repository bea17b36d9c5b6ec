import pytest

from gradedquiver import (Quiver, GradedAlgebra, GradedModule, GradedMorphism, Relation, QQ,
                          WindowError, InputError)
from gradedquiver.gmodule import _induced_sub_maps
from gradedquiver.homs import ghom, ghom_to_injective, underline_hom_dim
from gradedquiver.linalg import Matrix
from gradedquiver.presentations import Generator, projective_cover

import hom_oracle


def rel(quiver, terms):
    return Relation((c, quiver.path_from_names(names)) for c, names in terms)


def make_fix_a(field=QQ):
    """Loop a at vertex 1 plus an arrow b: 1 -> 2, with b*a dead."""
    q = Quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("b", "a"))])])


def make_fix_b(field=QQ):
    """The A_2 quiver 1 -> 2 with no relations."""
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return GradedAlgebra(q, field, [])


def make_fix_c(field=QQ, ray_end=13):
    """Commuting square 1 => {2,3} => 4 followed by a ray 4 -> 5 -> ... -> ray_end."""
    vertices = [str(i) for i in range(1, ray_end + 1)]
    arrows = [("a", "1", "2"), ("b", "1", "3"), ("g", "2", "4"), ("d", "3", "4")]
    arrows += [(f"e{k}", str(k - 1), str(k)) for k in range(5, ray_end + 1)]
    q = Quiver(vertices, arrows)
    return GradedAlgebra(q, field, [rel(q, [(1, ("g", "a")), (-1, ("d", "b"))])])


def make_fix_d(field=QQ, top=5):
    """Linear quiver top -> ... -> 1 -> 0 with all length-two paths dead."""
    vertices = [str(i) for i in range(top + 1)]
    arrows = [(f"a{i}", str(i), str(i - 1)) for i in range(1, top + 1)]
    q = Quiver(vertices, arrows)
    relations = [rel(q, [(1, (f"a{i}", f"a{i + 1}"))]) for i in range(1, top)]
    return GradedAlgebra(q, field, relations)


def make_polynomial(field=QQ, skew=None):
    """k[x,y,z] as one vertex with three loops, or k_q[x,y,z] with skew coefficients.

    For i < j the relation is x_j*x_i = q_ij*x_i*x_j, with q_ij = skew[(i, j)]
    (1 when skew is None).  The piece of degree d has dimension C(d+2, 2)
    whenever every q_ij is a unit.
    """
    names = ("x", "y", "z")
    q = Quiver(["v"], [(n, "v", "v") for n in names])
    relations = []
    for i in range(3):
        for j in range(i + 1, 3):
            c = 1 if skew is None else skew[(i, j)]
            relations.append(rel(q, [(1, (names[j], names[i])), (-c, (names[i], names[j]))]))
    return GradedAlgebra(q, field, relations)


# -- readings of library data that only the tests use ---------------------------


def kernel(mor):
    """(K, inclusion K -> source) of a morphism, on the bases of its
    `kernel_bases`, as a module (the program keeps only the bases)."""
    blocks = {ix: basis for ix, (basis, _free) in mor.kernel_bases().items()}
    dims = {ix: basis.cols for ix, basis in blocks.items()}
    src = mor.source
    K = GradedModule(src.algebra, src.lo, src.hi, dims, _induced_sub_maps(src, dims, blocks),
                     exact_below=src.exact_below, exact_above=src.exact_above, check=False)
    return K, GradedMorphism(K, src, blocks, check=False)


def ghom_dim(M, N):
    return ghom(M, N).dim


def classify(M):
    """Semisimplicity report: semisimple iff every arrow acts by zero."""
    if not M.is_exact:
        raise WindowError("classification needs an exact window")
    semisimple = all(m.is_zero() for m in M.maps.values()) and not M.is_zero()
    which = [(x, -i, n) for (i, x), n in sorted(M.dims.items())] if semisimple else []
    return {"simple": semisimple and M.total_dim() == 1,
            "semisimple": semisimple,
            "which": which}


def soc_basis(M):
    """A basis of soc M as `Generator`s of M."""
    soc, incl = M.socle()
    out = []
    for (i, x) in soc.support():
        blk = incl.block(i, x)
        out.extend(Generator(i, x, tuple(blk.col(c))) for c in range(blk.cols))
    return out


def naturality_underline_hom_dim(M, N):
    """dim underline Hom(M, N) by naturality systems: Hom(M, N) by the
    oracle's `ghom`, modulo the composites with the projective cover of N of
    the maps from M into the cover's source, also by the oracle (the route
    `underline_hom_dim` replaced)."""
    H = hom_oracle.ghom(M, N)
    if H.dim == 0:
        return 0
    W = (H.source.lo, H.source.hi)
    cov = projective_cover(N).realize(N, W)
    HP = hom_oracle.ghom(H.source, cov.source)
    if HP.dim == 0:
        return H.dim
    cols = [H.flatten(cov.compose(g).blocks) for g in HP.morphisms()]
    return H.dim - Matrix.from_cols(M.algebra.field, len(cols[0]), cols).rank()


def overline_hom_dim(M, N):
    """dim Hom(M, N) modulo maps factoring through injectives, by duality."""
    return underline_hom_dim(N.dual(), M.dual())


def extend_to_injective(M, m, s=None):
    """A morphism f: M -> I_a<s> with f(m) the socle generator of I_a<s>,
    for a `Generator` m of M."""
    if s is None:
        s = -m.degree
    H = ghom_to_injective(M, m.vertex, s)
    f = M.algebra.field
    for t, c in enumerate(m.coords):
        if c:
            return H.morphism(t).scale(f.inv(c))
    raise InputError("cannot extend the zero element")


def transpose_back(trdata):
    """The double-transpose differential of transpose data (equal to the
    original for minimal presentations of indecomposable non-projectives)."""
    if trdata.is_zero():
        return None
    return trdata.d.transpose_to_opposite()


@pytest.fixture(scope="session")
def fix_a():
    return make_fix_a()


@pytest.fixture(scope="session")
def fix_b():
    return make_fix_b()


@pytest.fixture(scope="session")
def fix_c():
    return make_fix_c()


@pytest.fixture(scope="session")
def fix_d():
    return make_fix_d()
