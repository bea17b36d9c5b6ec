"""The graded algebra of a quiver modulo homogeneous relations.

Pieces are built degree by degree from one source vertex s.  The piece
e_t*A_d*e_s is spanned by the columns a*rep, for each arrow a: y -> t and each
coset representative rep of A_{d-1}(s -> y), modulo the rows r*v, for each
relation r ending at t and each representative v of A_{d-deg r}(s -> source r).
A term p*v of r*v is a*(tail) for the last arrow a of p, and the tail's
coordinates are read off the stored column normal forms: the first arrow
applied to v is a column of the piece one degree above v, pushed along the
rest of the tail, so the work is polynomial in d.  No noncommutative Groebner
machinery is needed beyond this one reduction.

Columns are ordered by name tuple and the coset representatives are the
non-pivot columns of the row-reduced rows: the paths that are not the
lex-smallest term of any element of the degree-d relation slice.  These are
the representatives that reducing every length-d path modulo all paddings
u*r*v would give.  Lex order on name tuples of equal length is compatible
with multiplication on both sides, so these standard paths are closed under
subwords and each one is some a*rep; every row is an element of the slice, so
no standard path is a pivot; and the non-pivot count is dim A_d.  The rows
are reduced sparsely (`integer_rref`); the RREF is unique, so the
representatives are those a dense reduction gives.

The layer works in integers.  Over Q each relation is cleared of its
denominators once, which scales it and leaves its span as it was; a row r*v
is an integer row, reduced to primitive integer pivot rows, and a piece keeps
its column normal forms as integer numerators over one positive denominator,
the least common one (`_Piece.den`).  Products a*w map (denominator, integer
vector) to (denominator, integer vector).  Canonical scalars, `Fraction`s over
Q, are made only at the exits that build canonical data: the arrow matrices of
`column_maps`, the blocks of `PMap.realize` and the coordinates of
`_normal_form` (`element_from_path`).  Over F_p the denominator is always 1
and the numerators are residues, so both fields run the same code.

Degree d is built only at the heads of arrows out of the nonzero pieces of
degree d-1 (A_d = A_1 * A_{d-1}), and the fill records each degree's column
as it goes.  Each piece keeps the normal forms of its columns a*rep; arrow
actions (`column_maps`) and maps of projectives (`PMap.realize`, through
`_Piece.times_arrow`) read their products there.  A representative a*rep is
kept as a link to its column, (a, the piece of rep, the index of rep there),
so no per-piece work depends on path length; its `Path` is built on demand.
"""

import math

from .errors import InputError
from .linalg import Matrix, integer_rref
from .quiver import Path


class Relation:
    """A homogeneous k-combination of parallel paths of equal length >= 2."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise InputError("empty relation")
        lengths = {p.length for _, p in terms}
        if len(lengths) != 1:
            raise InputError("relation not homogeneous: mixed path lengths")
        self.degree = lengths.pop()
        if self.degree < 2:
            raise InputError("relation not in (kQ+)^2: path length < 2")
        sources = {p.source for _, p in terms}
        targets = {p.target for _, p in terms}
        if len(sources) != 1 or len(targets) != 1:
            raise InputError("relation paths must be parallel (same source and target)")
        self.source = sources.pop()
        self.target = targets.pop()
        self.terms = tuple(terms)

    def opposite_terms(self, opp_quiver):
        return [(c, opp_quiver.path_from_names(tuple(reversed(p.names()))))
                for c, p in self.terms]


class AlgElement:
    """A pure element of one piece, as coordinates over its echelon basis."""

    __slots__ = ("algebra", "degree", "source", "target", "coeffs")

    def __init__(self, algebra, degree, source, target, coeffs):
        self.algebra = algebra
        self.degree = degree
        self.source = source
        self.target = target
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != algebra.piece(degree, source, target).dim:
            raise InputError("coefficient length does not match piece dimension")

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __add__(self, other):
        if (self.degree, self.source, self.target) != (other.degree, other.source, other.target):
            raise InputError("cannot add elements of different pieces")
        f = self.algebra.field
        return AlgElement(self.algebra, self.degree, self.source, self.target,
                          [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        f = self.algebra.field
        return AlgElement(self.algebra, self.degree, self.source, self.target,
                          [f.mul(c, v) for v in self.coeffs])

    def to_json_dict(self):
        f = self.algebra.field
        return {"degree": self.degree, "source": self.source, "target": self.target,
                "coeffs": [f.fmt(c) for c in self.coeffs]}

    def __eq__(self, other):
        return (isinstance(other, AlgElement) and self.algebra is other.algebra
                and (self.degree, self.source, self.target) == (other.degree, other.source, other.target)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        basis = self.algebra.piece(self.degree, self.source, self.target).rep_paths
        parts = [f"{self.algebra.field.fmt(c)}*{p!r}" for c, p in zip(self.coeffs, basis) if c]
        return " + ".join(parts) if parts else "0"


class _Piece:
    """One piece e_t*A_d*e_s: coset representatives and column normal forms.

    The spanning columns are a*rep for each arrow a into t, in name order, and
    each representative rep of A_{d-1}(s -> source a).  `offsets[a.name]` is
    the first column of a's block and `col_nf[j]` lists the (representative
    index, numerator) pairs of the normal form of column j, whose
    coefficients are those integers over the piece's one positive
    denominator `den`: 1 over F_p, where the numerators are in [0, p).

    Each representative is kept as the column it came from: `links[r]` is
    (a, lower piece, index of rep there) for the representative a*rep, and
    None for the trivial path of degree 0.  `rep_paths`, the representatives
    as `Path`s, is built from the links on first read.
    """

    __slots__ = ("links", "dim", "offsets", "col_nf", "den", "_paths")

    def __init__(self, links, offsets=None, col_nf=(), den=1, paths=None):
        self.links = tuple(links)
        self.dim = len(self.links)
        self.offsets = offsets
        self.col_nf = col_nf
        self.den = den
        self._paths = paths

    @property
    def rep_paths(self):
        """The representatives as paths, last-applied arrow first."""
        paths = self._paths
        if paths is None:
            paths, below, lower = [], None, None
            for a, prev, i in self.links:
                if prev is not below:
                    below, lower = prev, prev.rep_paths
                # a*rep is a path: a's source is rep's target
                paths.append(Path._make((a,) + lower[i].arrows))
            paths = self._paths = tuple(paths)
        return paths

    def times_arrow(self, field, name, den, pairs):
        """Normal form of a*w in this piece, from that of w, both as integers
        over one positive denominator: w's as `den` and (index, numerator)
        pairs, a*w's as (denominator, tuple of numerators), in lowest terms."""
        if not self.dim:
            return 1, ()
        acc = [0] * self.dim
        off = self.offsets[name]
        col_nf = self.col_nf
        for i, x in pairs:
            if x:
                for r, c in col_nf[off + i]:
                    acc[r] += x * c
        p = field.p
        if p is not None:
            return 1, tuple(v % p for v in acc)
        den *= self.den
        if den != 1:
            g = math.gcd(den, *acc)
            if g != 1:
                return den // g, tuple(v // g for v in acc)
        return den, tuple(acc)


# the one object shared by every zero piece
_EMPTY = _Piece((), paths=())


class GradedAlgebra:
    """kQ/R with an exact field, homogeneous relations, memoized piece bases."""

    def __init__(self, quiver, field, relations):
        self.quiver = quiver
        self.field = field
        self.relations = tuple(relations)
        self._arrows_into = {v: sorted(quiver.arrows_into[v], key=lambda a: a.name)
                             for v in quiver.vertices}
        self._vertex_index = {v: i for i, v in enumerate(quiver.vertices)}
        # per target: (degree, source, ((integer coeff, last arrow name, first
        # arrow, the arrows between them first-applied first), ...))
        self._rels_into = {v: [] for v in quiver.vertices}
        for r in self.relations:
            quiver.check_vertex(r.source)
            quiver.check_vertex(r.target)
            # integer coefficients: over Q the relation times the lcm of its
            # denominators, which spans the same rows
            _den, coeffs = field.integers([field.of(c) for c, _p in r.terms])
            terms = tuple((c, p.arrows[0].name, p.arrows[-1], p.arrows[-2:0:-1])
                          for c, (_c, p) in zip(coeffs, r.terms))
            self._rels_into[r.target].append((r.degree, r.source, terms))
        self._pieces = {}
        # source -> (first degree not yet filled, inf once all vanish; the
        # vertices of the nonzero pieces one degree below it)
        self._reach = {}
        self._vanish = {}   # source -> first degree where every piece from it is zero
        self._columns = {}  # (source, degree) -> column dims, recorded by _fill
        self._column_maps = {}  # (source, degree) -> arrow actions, see column_maps()
        self._opp = None
        self._standard_modules = {}  # (kind, vertex, shift, window) -> module, by gmodule
        # resolution steps, by presentations, for differentials d whose
        # source is exact above the window: d up to shift (summands relative
        # to its first source summand, entry coefficients) -> (the next
        # differential's key up to its own shift, or None where ker d is
        # zero; the shift step; the least window top d's step needs, plus
        # d's shift).  A functional graph of formal data, no realization
        self._resolution_steps = {}

    # -- piece bases ---------------------------------------------------

    def piece(self, degree, source, target):
        """Echelon basis data of e_target * A_degree * e_source."""
        got = self._pieces.get((degree, source, target))
        if got is not None:
            return got
        if degree >= 0:
            self.quiver.check_vertex(source)
            self.quiver.check_vertex(target)
        return self._piece(degree, source, target)

    def _piece(self, degree, source, target):
        """piece() for known vertices."""
        key = (degree, source, target)
        got = self._pieces.get(key)
        if got is None:
            if degree >= 0:
                self._fill(source, degree)
            # still absent: a negative degree, or above the degree where
            # every piece from source vanishes
            got = self._pieces.setdefault(key, _EMPTY)
        return got

    def _fill(self, source, degree):
        """Compute the pieces from `source` up to `degree`, lowest degree first.

        A_d = A_1 * A_{d-1}, so degree e is computed only at the heads of
        arrows out of the nonzero pieces of degree e-1, put in vertex order
        through the vertex index; every other piece of degree e is zero and
        stays absent (`_piece` reads it as `_EMPTY`).  Each degree's column,
        the nonzero (x, dim) pairs in vertex order, is recorded for
        `column()` as it is computed.  Stops at the first degree where every
        piece is zero: every higher piece is zero as well.
        """
        # concurrent fills may repeat work; setdefault keeps one of the
        # identical results
        e, live = self._reach.get(source, (0, (source,)))
        pieces = self._pieces
        arrows_from = self.quiver.arrows_from
        while e <= degree:
            if e:
                heads = {a.target for x in live for a in arrows_from[x]}
                live = sorted(heads, key=self._vertex_index.__getitem__)
            col = []
            for t in live:
                n = pieces.setdefault((e, source, t), self._compute_piece(e, source, t)).dim
                if n:
                    col.append((t, n))
            live = [t for t, _n in col]
            if live:
                self._columns.setdefault((source, e), tuple(col))
            else:
                self._vanish[source] = e
            e = e + 1 if live else math.inf
            self._reach[source] = (e, live)

    def _compute_piece(self, degree, source, target):
        """e_target*A_degree*e_source from the filled pieces of lower degree."""
        if degree == 0:
            return _Piece((None,), paths=(Path.trivial(source),)) if source == target else _EMPTY
        f = self.field
        p = f.p
        pieces = self._pieces
        blocks, offsets, ncols = [], {}, 0
        for a in self._arrows_into[target]:
            prev = pieces.get((degree - 1, source, a.source), _EMPTY)
            offsets[a.name] = ncols
            blocks.append((a, prev))
            ncols += prev.dim
        if not ncols:
            return _EMPTY
        rows = []   # sparse integer rows: column -> coefficient
        for rel_degree, rel_source, terms in self._rels_into[target]:
            if rel_degree > degree:
                continue
            low = degree - rel_degree
            for k in range(pieces.get((low, source, rel_source), _EMPTY).dim):
                # the row times `den`, the lcm of its terms' denominators
                row, den = {}, 1
                for c, name, first, between in terms:
                    # first*v, for v the k-th representative, is a column of
                    # the piece above v; a zero piece contributes nothing
                    up = pieces.get((low + 1, source, first.target), _EMPTY)
                    if not up.dim:
                        continue
                    d, pairs = up.den, up.col_nf[up.offsets[first.name] + k]
                    for e, a in enumerate(between, low + 2):
                        d, vec = pieces.get((e, source, a.target), _EMPTY).times_arrow(
                            f, a.name, d, pairs)
                        pairs = enumerate(vec)
                    if d != den:
                        g = math.gcd(d, den)
                        if d != g:
                            row = {j: v * (d // g) for j, v in row.items()}
                        c *= den // g
                        den = den // g * d
                    off = offsets[name]
                    for j, x in pairs:
                        if x:
                            row[off + j] = row.get(off + j, 0) + c * x
                rows.append(row.items() if p is None
                            else [(j, v % p) for j, v in row.items()])
        # reduced as sparse integer rows; the RREF is unique, so the
        # representatives do not depend on how the rows are reduced
        pivots = integer_rref(p, rows)
        links, col_rep = [], {}
        j = 0
        for a, prev in blocks:
            for i in range(prev.dim):
                if j not in pivots:
                    col_rep[j] = len(links)
                    links.append((a, prev, i))
                j += 1
        if not links:
            return _EMPTY
        # the normal forms over one denominator: 1 over F_p, where pivot
        # rows are monic, and the lcm of the pivot rows' leads over Q
        den = math.lcm(*[row[k] for k, row in pivots.items()])
        col_nf = [None] * ncols
        for j, r in col_rep.items():
            col_nf[j] = ((r, den),)
        for k, row in pivots.items():
            # a reduced row is zero at every other pivot column
            scale = -(den // row[k])
            nf = [(col_rep[m], scale * x) for m, x in sorted(row.items()) if m != k]
            col_nf[k] = tuple(nf) if p is None else tuple((r, v % p) for r, v in nf)
        return _Piece(links, offsets, col_nf, den)

    def _normal_form(self, names):
        """Coordinates of a path, given by its arrow names (last-applied first),
        over the representatives of its piece.

        NF(a*w) = a*NF(w), read off the column normal forms by
        `_Piece.times_arrow`, one arrow per step, first-applied arrow first,
        in integers; the coordinates are made canonical scalars at the end.
        """
        f = self.field
        arrows = self.quiver.arrow_by_name
        den, vec = 1, (1,)
        for d, name in enumerate(reversed(names), 1):
            a = arrows[name]
            den, vec = self._piece(d, arrows[names[-1]].source, a.target).times_arrow(
                f, name, den, enumerate(vec))
        return f.scalars(den, vec)

    def _lincomb(self, dim, terms):
        """Coordinates of the sum of c*vec over (c, normal form vec) terms of one piece."""
        f = self.field
        acc = [f.zero()] * dim
        for c, vec in terms:
            for i, x in enumerate(vec):
                if x:
                    acc[i] += c * x
        return acc if f.p is None else [v % f.p for v in acc]

    def dim_piece(self, degree, source, target):
        return self.piece(degree, source, target).dim

    def piece_basis(self, degree, source, target):
        """Ordered coset-representative paths of the piece."""
        return list(self.piece(degree, source, target).rep_paths)

    # -- elements ------------------------------------------------------

    def zero_element(self, degree, source, target):
        dim = self.dim_piece(degree, source, target)
        return AlgElement(self, degree, source, target, [self.field.zero()] * dim)

    def unit(self, vertex):
        self.quiver.check_vertex(vertex)
        return AlgElement(self, 0, vertex, vertex, [self.field.one()])

    def element_from_path(self, path):
        return AlgElement(self, path.length, path.source, path.target,
                          self._normal_form(path.names()))

    def element_from_terms(self, terms):
        """Element from (coeff, Path) terms, all in one piece."""
        terms = list(terms)
        degree = terms[0][1].length
        source = terms[0][1].source
        target = terms[0][1].target
        for _, p in terms:
            if (p.length, p.source, p.target) != (degree, source, target):
                raise InputError("terms of an element must lie in one piece")
        f = self.field
        coeffs = self._lincomb(self.piece(degree, source, target).dim,
                               ((f.of(c), self._normal_form(p.names()))
                                for c, p in terms))
        return AlgElement(self, degree, source, target, coeffs)

    # -- opposite algebra ------------------------------------------------

    def opposite(self):
        if self._opp is None:
            oq = self.quiver.opposite()
            opp = GradedAlgebra(oq, self.field,
                                [Relation(r.opposite_terms(oq)) for r in self.relations])
            opp._opp = self
            self._opp = opp
        return self._opp

    def element_opposite(self, u):
        """Translate u in this algebra to u-degree-preserving image in the opposite."""
        if u.algebra is not self:
            raise InputError("element of a different algebra")
        opp = self.opposite()
        piece = self.piece(u.degree, u.source, u.target)
        terms = []
        for c, p in zip(u.coeffs, piece.rep_paths):
            if c:
                terms.append((c, opp.quiver.path_from_names(tuple(reversed(p.names())),
                                                            vertex=p.vertex)))
        if not terms:
            return opp.zero_element(u.degree, u.target, u.source)
        return opp.element_from_terms(terms)

    # -- columns ---------------------------------------------------------

    def column(self, gen_vertex, degree):
        """Degree `degree` of the column A e_gen: the nonzero (x, dim e_x A_degree
        e_gen), in vertex order.

        Read off the record `_fill` keeps of each degree it computes.  Empty
        from the first degree where the column vanishes, which _fill records,
        with no fill or piece lookup past it.
        """
        got = self._columns.get((gen_vertex, degree))
        if got is not None:
            return got
        if degree < 0 or degree >= self._vanish.get(gen_vertex, math.inf):
            return ()
        self.quiver.check_vertex(gen_vertex)
        self._fill(gen_vertex, degree)
        return self._columns.get((gen_vertex, degree), ())

    def height(self, vertex, cap):
        """The last nonzero degree of the column A e_vertex; None unless it
        vanishes up to degree max(cap, number of vertices), as acyclic ones do."""
        bound = max(cap, len(self.quiver.vertices))
        self.column(vertex, bound)
        vanish = self._vanish.get(vertex, math.inf)
        return vanish - 1 if vanish <= bound else None

    def column_maps(self, gen_vertex, degree):
        """{arrow name: left multiplication by the arrow from degree `degree` of
        A e_gen}, for the arrows, in quiver order, between nonzero pieces of the
        column; memoized.

        The matrix of a: x -> y has the columns `col_nf` of the piece of
        degree `degree`+1 at y, in a's block: the normal forms of a*rep.
        """
        got = self._column_maps.get((gen_vertex, degree))
        if got is not None:
            return got
        here = dict(self.column(gen_vertex, degree))
        above = dict(self.column(gen_vertex, degree + 1))
        f = self.field
        maps = {}
        for a in self.quiver.arrows:
            if a.source in here and a.target in above:
                piece = self._pieces[(degree + 1, gen_vertex, a.target)]
                off, n = piece.offsets[a.name], here[a.source]
                rows = [[0] * n for _ in range(piece.dim)]
                for i in range(n):
                    for r, c in piece.col_nf[off + i]:
                        rows[r][i] = c
                maps[a.name] = Matrix._make(f, piece.dim, n, tuple(
                    f.scalars(piece.den, row) for row in rows))
        return self._column_maps.setdefault((gen_vertex, degree), maps)

    # -- boundedness -----------------------------------------------------

    def column_dim(self, degree, gen_vertex):
        """dim of (A e_gen)_degree: all pieces with source gen_vertex."""
        return sum(n for _x, n in self.column(gen_vertex, degree))

    def _side_boundedness(self, cap):
        per_vertex = {}
        all_finite = True
        for v in self.quiver.vertices:
            profile = []
            vanish = None
            for d in range(1, cap + 1):
                n = self.column_dim(d, v)
                profile.append(n)
                if n == 0:
                    # A_{i+1} = A_1 * A_i for a quiver algebra, so one empty
                    # degree kills all higher ones
                    vanish = d
                    break
            if vanish is None:
                all_finite = False
                per_vertex[v] = {"status": "unbounded-at-cap", "profile": profile}
            else:
                total = 1 + sum(profile)
                per_vertex[v] = {"status": "finite", "total_dim": total,
                                 "vanishes_at": vanish}
        status = "finite" if all_finite else "unbounded-at-cap"
        result = {"status": status, "per_vertex": per_vertex}
        if all_finite:
            result["total_dim"] = sum(pv["total_dim"] for pv in per_vertex.values())
        return result

    def boundedness(self, degree_cap):
        """Left/right boundedness certified up to a degree cap.

        Finiteness of A e_x (resp. e_x A, the column A° e_x of the opposite)
        is certified exactly when some degree piece vanishes at degree <= cap;
        otherwise the side is reported unbounded-at-cap with the witness
        dimension profile.
        """
        if degree_cap < 1:
            raise InputError("degree cap must be >= 1")
        return {
            "left": self._side_boundedness(degree_cap),
            "right": self.opposite()._side_boundedness(degree_cap),
        }

    def __repr__(self):
        return (f"GradedAlgebra({self.quiver!r}, {self.field.tag}, "
                f"{len(self.relations)} relations)")
