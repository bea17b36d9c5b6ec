"""Representatives kept as links, columns recorded by the fill.

Each representative a*rep of a piece is kept as the column it came from,
(a, the piece of rep, the index of rep there), and its `Path` is built only
when `rep_paths` is read; the fill records each degree's column as it
computes it, and `column` reads that record.  The realizations of maps of
projectives and of covers walk the links from a representative to its tail.

These tests check that none of that changes a result, on the fixtures, the
seeded algebras, their opposites, commutative and skew k[x,y,z] and the
commuting square with a ray: every `rep_paths` against the eager
construction from the lower pieces, every link against its column, every
column against the scan over the pieces (cold and warm, with the quiver's
vertices declared in both orders), and every realized block against the path-walking route, which is
kept here.
"""

import os

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Path, Quiver, standard_module
from gradedquiver.errors import GradedQuiverError
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.linalg import Matrix
from gradedquiver.presentations import minimal_presentation, projective_cover, resolution
from gradedquiver.problem import parse_problem

from conftest import make_fix_c, make_polynomial
from test_standard_columns import seeded_algebras

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
SKEW = {(0, 1): -1, (0, 2): 2, (1, 2): 5}
CYCLIC_DEGREE = 5


def _cases():
    """(id, builder of a fresh algebra), each case and then its opposite."""
    cases = []
    for name in ("fix_a", "fix_b", "fix_c", "fix_d"):
        path = os.path.join(FIXTURES, f"{name}.json")
        cases.append((name, lambda path=path: parse_problem(path).algebra))
    for tag, field in FIELDS.items():
        for (cyclic, binomial, degree), alg in seeded_algebras(field):
            cases.append((f"seeded-{tag}-{'cyc' if cyclic else 'acyc'}-"
                          f"{'bin' if binomial else 'mono'}-{degree}",
                          lambda alg=alg: GradedAlgebra(alg.quiver, alg.field, alg.relations)))
    for tag in ("Q", "F3"):
        for skew in (None, SKEW):
            cases.append((f"{'skew' if skew else 'commutative'}-{tag}",
                          lambda f=FIELDS[tag], skew=skew: make_polynomial(f, skew)))
        cases.append((f"square-ray-{tag}", lambda f=FIELDS[tag]: make_fix_c(f, ray_end=15)))
    out = []
    for name, make in cases:
        out.append((name, make))
        out.append((f"{name}-opposite", lambda make=make: make().opposite()))
    return out


CASES = dict(_cases())


def degree_bound(alg):
    """A degree at or past every column's vanishing degree when the quiver
    is acyclic, and a fixed degree otherwise (k[x,y,z] to degree 4)."""
    q = alg.quiver
    if q.has_cycle():
        return 4 if len(q.vertices) == 1 else CYCLIC_DEGREE
    return len(q.vertices)


# -- links and paths -------------------------------------------------------------


def assert_links_match_columns(alg, top):
    """Every representative up to degree `top`, read cold from the top
    degree down, against the eager construction from the lower pieces; each
    link names an arrow into the piece's target, the piece of the degree
    below at its source, and a column whose normal form is that
    representative, in increasing column order."""
    q = alg.quiver
    for d in range(top, -1, -1):
        for s in q.vertices:
            for t in q.vertices:
                alg.piece(d, s, t).rep_paths
    eager = {}
    for d in range(top + 1):
        for s in q.vertices:
            for t in q.vertices:
                piece = alg.piece(d, s, t)
                if d == 0:
                    want = [Path.trivial(s)] if s == t and piece.dim else []
                    assert piece.links == ((None,) if want else ())
                else:
                    want, last = [], -1
                    for r, (a, below, i) in enumerate(piece.links):
                        assert a.target == t and a in q.arrows_into[t], (d, s, t, r)
                        assert below is alg.piece(d - 1, s, a.source), (d, s, t, r)
                        j = piece.offsets[a.name] + i
                        assert j > last and piece.col_nf[j] == ((r, piece.den),), (d, s, t, r)
                        last = j
                        want.append(Path((a,) + eager[(d - 1, s, a.source)][i].arrows))
                assert list(piece.rep_paths) == want, (d, s, t)
                assert alg.piece_basis(d, s, t) == want
                eager[(d, s, t)] = want


@pytest.mark.parametrize("case", CASES)
def test_rep_paths_match_the_eager_construction(case):
    alg = CASES[case]()
    assert_links_match_columns(alg, degree_bound(alg))


# -- the column record ------------------------------------------------------------


def scan(alg, v, d):
    """Degree d of the column A e_v, by scanning every vertex's piece."""
    return tuple((x, alg.piece(d, v, x).dim) for x in alg.quiver.vertices
                 if alg.piece(d, v, x).dim)


def column_degrees(alg, v):
    """Every degree up to the column's vanishing degree + 1, or to the
    degree bound + 1 for a column that does not vanish by then."""
    top = degree_bound(alg)
    for d in range(top + 1):
        if not scan(alg, v, d):
            return range(-1, d + 2)
    return range(-1, top + 2)


def in_vertex_order(make, order):
    """A builder of the algebra over its quiver with the vertices declared
    in the given order, which orders every column."""
    if order == "declared":
        return make

    def reordered():
        alg = make()
        q = alg.quiver
        return GradedAlgebra(Quiver(q.vertices[::-1], [tuple(a) for a in q.arrows]),
                             alg.field, alg.relations)

    return reordered


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("order", ["declared", "reversed"])
def test_column_record_matches_the_scan(case, order):
    make = in_vertex_order(CASES[case], order)
    probe = make()
    vertices = probe.quiver.vertices
    degrees = {v: column_degrees(probe, v) for v in vertices}
    # cold: the first lookup of each column fills it, highest degree first
    # for one algebra and lowest first for the other; warm: after every
    # piece is read, the vertices visited the other way round
    high_first, low_first, warm = make(), make(), make()
    for v in vertices[::-1]:
        for d in degrees[v]:
            scan(warm, v, d)
    for v in vertices:
        want = {d: scan(probe, v, d) for d in degrees[v]}
        assert {d: high_first.column(v, d) for d in reversed(degrees[v])} == want, v
        assert {d: low_first.column(v, d) for d in degrees[v]} == want, v
        assert {d: warm.column(v, d) for d in degrees[v]} == want, v


# -- realizations against the path-walking route ----------------------------------


def pmap_realize_by_paths(pmap, window):
    """`PMap.realize`, each representative's image walked along its path."""
    src_mod, src_off = pmap.src.realize(window)
    dst_mod, dst_off = pmap.dst.realize(window)
    alg = pmap.algebra
    f = alg.field
    images = {}

    def image(i, j, arrows):
        got = images.get((i, j, arrows))
        if got is None:
            e = pmap.entries[i][j]
            if arrows:
                a = arrows[0]
                den, vec = image(i, j, arrows[1:])
                got = alg.piece(e.degree + len(arrows), e.source, a.target).times_arrow(
                    f, a.name, den, enumerate(vec))
            else:
                got = f.integers(e.coeffs)
            images[(i, j, arrows)] = got
        return got

    blocks = {}
    for (d, x), ncols in src_mod.dims.items():
        nrows = dst_mod.dims.get((d, x), 0)
        if nrows == 0:
            continue
        entries = [[f.zero()] * ncols for _ in range(nrows)]
        for j, (b, t) in enumerate(pmap.src.summands):
            c0 = src_off[j].get((d, x))
            if c0 is None:
                continue
            for i, offsets in enumerate(dst_off):
                r0 = offsets.get((d, x))
                if r0 is None or pmap.entries[i][j] is None:
                    continue
                for c, rep in enumerate(alg.piece(d + t, b, x).rep_paths):
                    for r, v in enumerate(f.scalars(*image(i, j, rep.arrows))):
                        entries[r0 + r][c0 + c] = v
        blocks[(d, x)] = Matrix(f, nrows, ncols, entries)
    return GradedMorphism(src_mod, dst_mod, blocks, check=False)


def cover_realize_by_paths(cover, module, window=None):
    """`Cover.realize`, each representative's image walked along its path."""
    window = window or (module.lo, module.hi)
    target = module.with_window(*window)
    src, offsets = cover.psum.realize(window)
    f = src.algebra.field
    images = {}

    def image(j, arrows):
        got = images.get((j, arrows))
        if got is None:
            gen = cover.generators[j]
            if arrows:
                got = (target.map(arrows[0].name, gen.degree + len(arrows) - 1)
                       @ image(j, arrows[1:]))
            else:
                got = Matrix.from_cols(f, len(gen.coords), [gen.coords])
            images[(j, arrows)] = got
        return got

    blocks = {}
    for (i, x), ncols in src.dims.items():
        nrows = target.dims.get((i, x), 0)
        entries = [[f.zero()] * ncols for _ in range(nrows)]
        if nrows:
            for j, (b, s) in enumerate(cover.psum.summands):
                piece = src.algebra.piece(i + s, b, x)
                for c, rep in enumerate(piece.rep_paths):
                    col = image(j, rep.arrows)
                    for r in range(nrows):
                        entries[r][offsets[j][(i, x)] + c] = col.data[r][0]
        blocks[(i, x)] = Matrix(f, nrows, ncols, entries)
    return GradedMorphism(src, target, blocks, check=False)


def assert_same_morphism(got, want):
    assert (got.source.dims, got.target.dims) == (want.source.dims, want.target.dims)
    assert got.blocks == want.blocks


def exact_modules(alg):
    for v in alg.quiver.vertices:
        for M in (standard_module(alg, "S", v, 0),
                  standard_module(alg, "P", v, 1, (-1, 3)),
                  standard_module(alg, "I", v, 0, (-5, 0))):
            if M.is_exact and not M.is_zero():
                yield M


@pytest.mark.parametrize("case", CASES)
def test_realizations_match_the_path_walk(case):
    alg = CASES[case]()
    pmaps = covers = 0
    for M in exact_modules(alg):
        cover = projective_cover(M)
        for window in (None, (M.lo, M.hi + 2)):
            assert_same_morphism(cover.realize(M, window), cover_realize_by_paths(cover, M, window))
            covers += 1
        pres = minimal_presentation(M)
        lo, hi = pres.window
        for window in ((lo, hi), (lo - 1, hi + 2)):
            assert_same_morphism(pres.d1.realize(window), pmap_realize_by_paths(pres.d1, window))
            pmaps += 1
        try:
            res = resolution(M, 2)
        except GradedQuiverError:
            continue
        for d in res.pmaps:
            assert_same_morphism(d.realize(res.window), pmap_realize_by_paths(d, res.window))
            pmaps += 1
    assert covers and pmaps
