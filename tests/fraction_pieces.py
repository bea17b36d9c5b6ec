"""The piece layer on canonical scalars, kept only as a test oracle.

This is the inductive piece layer with every scalar canonical, `Fraction`
over Q and an int in [0, p) over F_p: the relation rows r*v are built from
the relations' coefficients as given, reduced by `sparse_rref`, and each
column normal form and each product a*w is a tuple of canonical scalars.
The program runs the same steps in integers over one denominator and makes
canonical scalars only where it builds a `Matrix` or an `AlgElement`; the
tests check that both routes give the same representatives, normal forms,
arrow matrices and realized blocks.
"""

from gradedquiver.linalg import Matrix, sparse_rref


class FractionPieces:
    """Pieces of one GradedAlgebra: (representatives as arrow-name tuples,
    last-applied first; the first column of each arrow's block; the column
    normal forms as (representative index, scalar) pairs)."""

    def __init__(self, algebra):
        self.field = f = algebra.field
        q = algebra.quiver
        self._arrows_into = {v: sorted(q.arrows_into[v], key=lambda a: a.name)
                             for v in q.vertices}
        self._rels_into = {v: [] for v in q.vertices}
        for r in algebra.relations:
            terms = tuple((f.of(c), p.arrows[0].name, p.arrows[-1], p.arrows[-2:0:-1])
                          for c, p in r.terms)
            self._rels_into[r.target].append((r.degree, r.source, terms))
        self._pieces = {}

    def piece(self, degree, source, target):
        key = (degree, source, target)
        got = self._pieces.get(key)
        if got is None:
            got = self._pieces[key] = self._compute(degree, source, target)
        return got

    def _compute(self, degree, source, target):
        f = self.field
        if degree <= 0:
            return ([()] if degree == 0 and source == target else []), {}, []
        blocks, offsets, ncols = [], {}, 0
        for a in self._arrows_into[target]:
            below = self.piece(degree - 1, source, a.source)[0]
            offsets[a.name] = ncols
            blocks.append((a, below))
            ncols += len(below)
        rows = []
        for rel_degree, rel_source, terms in self._rels_into[target]:
            if rel_degree > degree:
                continue
            low = degree - rel_degree
            for k in range(len(self.piece(low, source, rel_source)[0])):
                row = {}
                for c, name, first, between in terms:
                    reps, up_offsets, up_nf = self.piece(low + 1, source, first.target)
                    if not reps:
                        continue
                    vec = [f.zero()] * len(reps)
                    for r, x in up_nf[up_offsets[first.name] + k]:
                        vec[r] = x
                    for e, a in enumerate(between, low + 2):
                        vec = self.times_arrow(e, source, a.target, a.name, vec)
                    off = offsets[name]
                    for j, x in enumerate(vec):
                        if x:
                            row[off + j] = f.add(row.get(off + j, f.zero()), f.mul(c, x))
                rows.append(row)
        pivots = sparse_rref(f, map(dict.items, rows))
        reps, col_rep = [], {}
        j = 0
        for a, below in blocks:
            for rep in below:
                if j not in pivots:
                    col_rep[j] = len(reps)
                    reps.append((a.name,) + rep)
                j += 1
        if not reps:
            return [], {}, []
        col_nf = [None] * ncols
        for j, r in col_rep.items():
            col_nf[j] = ((r, f.one()),)
        for k, row in pivots.items():
            col_nf[k] = tuple((col_rep[m], f.neg(row[m])) for m in sorted(row) if m != k)
        return reps, offsets, col_nf

    def times_arrow(self, degree, source, target, name, vec):
        """a*w in the piece (degree, source, target), for the arrow `name` and
        w given by its coordinates `vec`."""
        f = self.field
        reps, offsets, col_nf = self.piece(degree, source, target)
        acc = [f.zero()] * len(reps)
        if reps:
            off = offsets[name]
            for i, x in enumerate(vec):
                if x:
                    for r, c in col_nf[off + i]:
                        acc[r] = f.add(acc[r], f.mul(x, c))
        return tuple(acc)

    def normal_form(self, path):
        """Coordinates of a path over the representatives of its piece."""
        vec = (self.field.one(),)
        for d, a in enumerate(reversed(path.arrows), 1):
            vec = self.times_arrow(d, path.source, a.target, a.name, vec)
        return vec

    def arrow_matrix(self, source, degree, arrow):
        """Left multiplication by `arrow` from the piece (degree, source,
        arrow.source) to the one above it at arrow.target."""
        f = self.field
        below = self.piece(degree, source, arrow.source)[0]
        reps, offsets, col_nf = self.piece(degree + 1, source, arrow.target)
        rows = [[f.zero()] * len(below) for _ in reps]
        for i in range(len(below)):
            for r, c in col_nf[offsets[arrow.name] + i]:
                rows[r][i] = c
        return Matrix(f, len(reps), len(below), rows)

    def realize_blocks(self, pmap, window):
        """The blocks of `PMap.realize` on the window: the image of each source
        representative rep under entry e is the normal form of rep*e, e's
        coordinates pushed along rep's arrows."""
        f = self.field
        src_mod, src_off = pmap.src.realize(window)
        dst_mod, dst_off = pmap.dst.realize(window)
        by_name = pmap.algebra.quiver.arrow_by_name
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
                    r0, e = offsets.get((d, x)), pmap.entries[i][j]
                    if r0 is None or e is None:
                        continue
                    for c, rep in enumerate(self.piece(d + t, b, x)[0]):
                        vec = e.coeffs
                        for m, name in enumerate(reversed(rep), e.degree + 1):
                            vec = self.times_arrow(m, e.source, by_name[name].target, name, vec)
                        for r, v in enumerate(vec):
                            entries[r0 + r][c0 + c] = v
            blocks[(d, x)] = Matrix(f, nrows, ncols, entries)
        return blocks
