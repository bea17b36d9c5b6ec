"""Piece bases by the padding method, kept only as a test oracle.

A piece e_y*A_d*e_x is the span of every length-d path x -> y modulo the
degree-d slice of the relation ideal, and the slice is spanned by u*r*v over
every relation r and every pair of path paddings u, v.  The non-pivot columns
of the row-reduced slice (columns in name-tuple order) are the coset
representatives.  The work is exponential in d, so the program builds pieces
inductively instead; this oracle checks that both give the same
representatives and the same normal forms.
"""

from gradedquiver.linalg import Matrix

from quiver_paths import list_paths


class PaddingPieces:
    """Padding-method pieces and path normal forms of one GradedAlgebra."""

    def __init__(self, algebra):
        self.quiver = algebra.quiver
        self.field = algebra.field
        self.relations = algebra.relations
        self._pieces = {}

    def piece(self, degree, source, target):
        """(paths, name-tuple index, relation rref, pivots) of the piece."""
        key = (degree, source, target)
        if key not in self._pieces:
            self._pieces[key] = self._compute(degree, source, target)
        return self._pieces[key]

    def _compute(self, degree, source, target):
        f = self.field
        paths = list_paths(self.quiver, degree, source, target)
        index = {p.names(): i for i, p in enumerate(paths)}
        rows = []
        for rel in self.relations:
            pad = degree - rel.degree
            if pad < 0:
                continue
            for a in range(pad + 1):
                for v in list_paths(self.quiver, a, source, rel.source):
                    for u in list_paths(self.quiver, pad - a, rel.target, target):
                        row = [f.zero()] * len(paths)
                        for coeff, p in rel.terms:
                            i = index[u.compose(p).compose(v).names()]
                            row[i] = f.add(row[i], f.of(coeff))
                        rows.append(row)
        if not rows:
            return paths, index, None, ()
        rref, pivots = Matrix(f, len(rows), len(paths), rows).rref()
        return paths, index, rref, pivots

    def basis(self, degree, source, target):
        """Coset-representative paths, in column order."""
        paths, _, _, pivots = self.piece(degree, source, target)
        pivset = set(pivots)
        return [p for i, p in enumerate(paths) if i not in pivset]

    def normal_form(self, path):
        """Coordinates of a path over the representatives of its piece."""
        f = self.field
        paths, index, rref, pivots = self.piece(path.length, path.source, path.target)
        w = [f.zero()] * len(paths)
        w[index[path.names()]] = f.one()
        for r, c in enumerate(pivots):
            if w[c]:
                factor = w[c]
                row = rref.data[r]
                for j in range(c, len(w)):
                    if row[j]:
                        w[j] = f.sub(w[j], f.mul(factor, row[j]))
        pivset = set(pivots)
        return [w[i] for i in range(len(paths)) if i not in pivset]
