"""Windowed graded modules: piecewise data, duality, radical/socle/top.

A module is stored on a finite degree window [lo, hi] with per-side exactness
flags.  "Exact" on a side promises that every piece beyond the window on that
side is zero; "truncated" means unknown support was cut off.  Every operation
declares which degrees it reads and refuses (WindowError) when a truncation
flag intersects them, rather than silently approximating.

Modules are immutable: their dims and maps are fixed in `__init__` and never
written afterwards.  Data derived from a module is therefore computed once
and kept on it (see `_memo`): its dual, which links back so that
`M.dual().dual() is M`, its projective cover, its minimal presentation and
its endomorphism algebra; a morphism of exact modules dualizes between the
linked duals.  A shift M<s> is a plain re-indexing with derived data of its
own.  Standard modules are kept once per algebra, by kind, vertex, shift and
window.  Callers must not mutate a module, a morphism or a matrix they are
handed, since the same object may be handed to every later caller.

A standard projective P_a<s> is a re-indexed view of the column A e_a, whose
per-degree dims and arrow actions the algebra computes once (`column`,
`column_maps`, which reads each action off the column normal forms its pieces
already hold): degree i of P_a<s> is degree i+s of the column, clipped to the
window, so shifts and windows cost no algebra work after the first use.  The
injective I_a<s> is the dual of the projective P°_a<-s> over the opposite
algebra.
"""

from .errors import InputError, WindowError, MathRefusal
from .linalg import Matrix, linear_combination

EXACT = "exact"
TRUNCATED = "truncated"


class GradedModule:

    def __init__(self, algebra, lo, hi, dims, maps, exact_below=True, exact_above=True,
                 check=True):
        if lo > hi:
            raise InputError(f"bad window [{lo}, {hi}]")
        self.algebra = algebra
        self.lo = lo
        self.hi = hi
        self.exact_below = exact_below
        self.exact_above = exact_above
        self.dims = {k: n for k, n in dims.items() if n}
        for (i, x) in self.dims:
            algebra.quiver.check_vertex(x)
            if not lo <= i <= hi:
                raise InputError(f"piece ({i},{x}) outside window [{lo},{hi}]")
        self.maps = {}
        for (name, i), mat in maps.items():
            a = algebra.quiver.arrow_by_name[name]
            rows = self.dims.get((i + 1, a.target), 0)
            cols = self.dims.get((i, a.source), 0)
            if rows == 0 or cols == 0:
                if check and not mat.is_zero():
                    raise InputError(f"map {name}@{i} hits a zero piece but is nonzero")
                continue
            if (mat.rows, mat.cols) != (rows, cols):
                raise InputError(f"map {name}@{i} has shape {mat.rows}x{mat.cols}, "
                                 f"expected {rows}x{cols}")
            self.maps[(name, i)] = mat
        # dual, cover, presentation, End: computed once, see _memo; a copy on
        # a wider window may share all but the dual (_pushout_sequence)
        self._derived = {}
        if check:
            bad = self.validate()
            if bad is not None:
                raise InputError(f"relation not annihilated: {bad}")

    # -- basic access ----------------------------------------------------

    def dim(self, i, x):
        if i < self.lo:
            if self.exact_below:
                return 0
            raise WindowError(f"degree {i} below truncated window [{self.lo},{self.hi}]")
        if i > self.hi:
            if self.exact_above:
                return 0
            raise WindowError(f"degree {i} above truncated window [{self.lo},{self.hi}]")
        return self.dims.get((i, x), 0)

    def map(self, name, i):
        """Action matrix of the named arrow from degree i (zeros if absent)."""
        a = self.algebra.quiver.arrow_by_name[name]
        got = self.maps.get((name, i))
        if got is not None:
            return got
        return Matrix.zeros(self.algebra.field, self.dim(i + 1, a.target), self.dim(i, a.source))

    def support(self):
        order = {v: k for k, v in enumerate(self.algebra.quiver.vertices)}
        return sorted(self.dims, key=lambda k: (k[0], order[k[1]]))

    def support_degrees(self):
        return sorted({i for (i, _x) in self.dims})

    def is_zero(self):
        return not self.dims

    @property
    def is_exact(self):
        return self.exact_below and self.exact_above

    def total_dim(self):
        if not self.is_exact:
            raise WindowError("total dimension of a truncated module is unknown")
        return sum(self.dims.values())

    # -- actions -----------------------------------------------------------

    def path_action(self, path, i):
        """Matrix of the path acting from degree i (arrows applied right to left)."""
        if path.length == 0:
            return Matrix.identity(self.algebra.field, self.dim(i, path.vertex))
        mat = None
        d = i
        for a in reversed(path.arrows):
            step = self.map(a.name, d)
            mat = step if mat is None else step @ mat
            d += 1
        return mat

    def element_action(self, u, i):
        """Matrix of left multiplication by the algebra element u from degree i."""
        piece = self.algebra.piece(u.degree, u.source, u.target)
        return linear_combination(self.algebra.field,
                                  self.dim(i + u.degree, u.target), self.dim(i, u.source),
                                  ((c, self.path_action(p, i))
                                   for c, p in zip(u.coeffs, piece.rep_paths) if c))

    # -- validation ---------------------------------------------------------

    def validate(self):
        """None if every relation composite vanishes inside the window,
        else the first violating (relation index, degree) pair."""
        f = self.algebra.field
        for ridx, rel in enumerate(self.algebra.relations):
            for i in range(self.lo, self.hi - rel.degree + 1):
                cols = self.dims.get((i, rel.source), 0)
                rows = self.dims.get((i + rel.degree, rel.target), 0)
                if cols == 0 or rows == 0:
                    continue
                acc = linear_combination(f, rows, cols,
                                         ((f.of(c), self.path_action(p, i))
                                          for c, p in rel.terms))
                if not acc.is_zero():
                    return (ridx, i)
        return None

    # -- window surgery -------------------------------------------------------

    def with_window(self, lo, hi):
        """Re-window: grows only across exact sides, cuts set truncation flags.

        The same window gives back this module, so its memos keep hitting.
        """
        if (lo, hi) == (self.lo, self.hi):
            return self
        if lo > hi:
            raise InputError("bad window")
        if lo < self.lo and not self.exact_below:
            raise WindowError("cannot extend below a truncated window")
        if hi > self.hi and not self.exact_above:
            raise WindowError("cannot extend above a truncated window")
        below = self.exact_below if lo <= self.lo else (
            self.exact_below and not any(i < lo for (i, _x) in self.dims))
        above = self.exact_above if hi >= self.hi else (
            self.exact_above and not any(i > hi for (i, _x) in self.dims))
        dims = {(i, x): n for (i, x), n in self.dims.items() if lo <= i <= hi}
        maps = {(nm, i): m for (nm, i), m in self.maps.items() if lo <= i and i + 1 <= hi}
        return GradedModule(self.algebra, lo, hi, dims, maps,
                            exact_below=below, exact_above=above, check=False)

    def shift(self, s):
        """Grading shift: shift(M, s)_i = M_{i+s}."""
        dims = {(i - s, x): n for (i, x), n in self.dims.items()}
        maps = {(nm, i - s): m for (nm, i), m in self.maps.items()}
        return GradedModule(self.algebra, self.lo - s, self.hi - s, dims, maps,
                            exact_below=self.exact_below, exact_above=self.exact_above,
                            check=False)

    # -- duality ---------------------------------------------------------------

    def dual(self):
        """The piecewise dual, a module over the opposite algebra.

        Requires an exact window: the dual of a truncation is not the
        truncation of the dual.
        """
        if not self.is_exact:
            raise WindowError("duality needs an exact window (truncation flags off)")
        return _memo(self._derived, "dual", self._linked_dual)

    def _linked_dual(self):
        D = self.dual_windowed()
        D._derived["dual"] = self
        return D

    def dual_windowed(self):
        """Window-level dual with mirrored truncation flags (internal uses)."""
        opp = self.algebra.opposite()
        dims = {(-i, x): n for (i, x), n in self.dims.items()}
        maps = {}
        for (name, i), mat in self.maps.items():
            # arrow action at degree -i-1 of the dual is this block transposed
            maps[(name, -i - 1)] = mat.transpose()
        return GradedModule(opp, -self.hi, -self.lo, dims, maps,
                            exact_below=self.exact_above, exact_above=self.exact_below,
                            check=False)

    # -- radical / socle / top ---------------------------------------------------

    def radical(self):
        """(rad M, inclusion into a matching restriction of M).

        The radical piece at degree i is the sum of the arrow images of the
        pieces at i-1.  When M is truncated below, the piece at lo cannot be
        seen, so the result lives on the shrunken window [lo+1, hi] and is
        itself flagged truncated below.
        """
        lo = self.lo if self.exact_below else self.lo + 1
        if lo > self.hi:
            raise WindowError("window too small to see any radical degree")
        incl_blocks = {}
        dims = {}
        for (i, x) in self.support():
            if i < lo:
                continue
            mats = []
            for a in self.algebra.quiver.arrows_into[x]:
                if self.dims.get((i - 1, a.source), 0):
                    mats.append(self.map(a.name, i - 1))
            if not mats:
                continue
            stacked = mats[0]
            for m in mats[1:]:
                stacked = stacked.hstack(m)
            basis = stacked.image_basis()
            if basis.cols:
                dims[(i, x)] = basis.cols
                incl_blocks[(i, x)] = basis
        ambient = self.with_window(lo, self.hi)
        rad = GradedModule(self.algebra, lo, self.hi, dims,
                           _induced_sub_maps(ambient, dims, incl_blocks),
                           exact_below=self.exact_below, exact_above=self.exact_above,
                           check=False)
        incl = GradedMorphism(rad, ambient, incl_blocks)
        return rad, incl

    def socle(self):
        """(soc M, inclusion into a matching restriction of M).

        The socle piece at (i,x) is the joint kernel of the outgoing arrow
        actions, which read degree i+1; when M is truncated above the result
        therefore lives on [lo, hi-1] and is flagged truncated above.
        """
        hi = self.hi if self.exact_above else self.hi - 1
        if hi < self.lo:
            raise WindowError("window too small to see any socle degree")
        incl_blocks = {}
        dims = {}
        for (i, x) in self.support():
            if i > hi:
                continue
            mats = [self.map(a.name, i) for a in self.algebra.quiver.arrows_from[x]]
            mats = [m for m in mats if m.rows]
            if mats:
                stacked = mats[0]
                for m in mats[1:]:
                    stacked = stacked.vstack(m)
                basis = stacked.kernel_basis()
            else:
                basis = Matrix.identity(self.algebra.field, self.dims[(i, x)])
            if basis.cols:
                dims[(i, x)] = basis.cols
                incl_blocks[(i, x)] = basis
        ambient = self.with_window(self.lo, hi)
        soc = GradedModule(self.algebra, self.lo, hi, dims, {},
                           exact_below=self.exact_below, exact_above=self.exact_above,
                           check=False)
        incl = GradedMorphism(soc, ambient, incl_blocks)
        return soc, incl

    def top(self):
        """(top M, projection): the cokernel of the radical inclusion."""
        rad, incl = self.radical()
        return incl.cokernel()

    # -- serialization --------------------------------------------------------

    def to_json_dict(self):
        return {
            "window": [self.lo, self.hi],
            "flags": {"below": EXACT if self.exact_below else TRUNCATED,
                      "above": EXACT if self.exact_above else TRUNCATED},
            "dims": {f"({i},{x})": n for (i, x), n in sorted(self.dims.items())},
            "maps": {f"{name}@{i}": mat.fmt()
                     for (name, i), mat in sorted(self.maps.items())},
        }

    @classmethod
    def from_json_dict(cls, algebra, d, where="module"):
        try:
            lo, hi = d["window"]
            if not (_is_int(lo) and _is_int(hi)):
                raise InputError(f"{where}.window: expected two integers, got {d['window']!r}")
            if lo > hi:
                raise InputError(f"{where}.window: expected lo <= hi, got {d['window']!r}")
            flags = d.get("flags", {})
            for side in ("below", "above"):
                if flags.get(side, EXACT) not in (EXACT, TRUNCATED):
                    raise InputError(f"{where}.flags.{side}: expected 'exact' or "
                                     f"'truncated', got {flags[side]!r}")
            exact_below = flags.get("below", EXACT) == EXACT
            exact_above = flags.get("above", EXACT) == EXACT
            dims = {}
            for key, n in d.get("dims", {}).items():
                i, x = (part.strip() for part in key.strip("()").split(",", 1))
                at = f'{where}.dims["{key}"]'
                if x not in algebra.quiver.vertex_set:
                    raise InputError(f"{at}: unknown vertex {x!r}")
                if not (_is_int(n) and n >= 0):
                    raise InputError(f"{at}: expected a non-negative integer, got {n!r}")
                i = int(i)
                if (i, x) in dims:
                    raise InputError(f"{at}: duplicate piece {(i, x)}")
                if n and not lo <= i <= hi:
                    raise InputError(f"{at}: degree {i} outside window [{lo}, {hi}]")
                dims[(i, x)] = n
            maps = {}
            for key, rows in d.get("maps", {}).items():
                name, deg = key.rsplit("@", 1)
                a = algebra.quiver.arrow_by_name.get(name)
                if a is None:
                    raise InputError(f"{where}.maps: unknown arrow {name!r}")
                i = int(deg)
                rcount = dims.get((i + 1, a.target), 0)
                ccount = dims.get((i, a.source), 0)
                if not (isinstance(rows, list) and len(rows) == rcount
                        and all(isinstance(r, list) and len(r) == ccount for r in rows)):
                    raise InputError(f'{where}.maps["{key}"]: expected a {rcount}x{ccount} matrix')
                maps[(name, i)] = Matrix(algebra.field, rcount, ccount,
                                         parse_rows(algebra.field, rows, f'{where}.maps["{key}"]'))
        except (KeyError, ValueError, TypeError, AttributeError) as e:
            raise InputError(f"{where}: malformed module block ({e})") from e
        M = cls(algebra, lo, hi, dims, maps,
                exact_below=exact_below, exact_above=exact_above, check=False)
        bad = M.validate()
        if bad is not None:
            raise InputError(f"{where}.maps: relation not annihilated: {bad}")
        return M

    def __repr__(self):
        flags = ("" if self.exact_below else "<trunc") + ("" if self.exact_above else ">trunc")
        return f"GradedModule(dim {sum(self.dims.values())} on [{self.lo},{self.hi}]{flags})"


def _induced_sub_maps(parent, dims, incl_blocks):
    """Arrow maps a submodule inherits from its parent via inclusion bases."""
    maps = {}
    for (i, x), basis in incl_blocks.items():
        for a in parent.algebra.quiver.arrows_from[x]:
            if i + 1 > parent.hi:
                continue
            img = parent.map(a.name, i) @ basis
            if dims.get((i + 1, a.target), 0) == 0:
                if not img.is_zero():
                    raise MathRefusal("submodule data is not closed under the action")
                continue
            lifted = incl_blocks[(i + 1, a.target)].solve(img)
            if lifted is None:
                raise MathRefusal("submodule data is not closed under the action")
            maps[(a.name, i)] = lifted
    return maps


class GradedMorphism:
    """A degree-0 morphism given by one block per piece; windows must agree."""

    def __init__(self, source, target, blocks, check=True):
        if source.algebra is not target.algebra:
            raise InputError("morphism across different algebras")
        if (source.lo, source.hi) != (target.lo, target.hi):
            raise InputError("morphism endpoints must share a window")
        self.source = source
        self.target = target
        self.blocks = {}
        for (i, x), mat in blocks.items():
            rows = target.dims.get((i, x), 0)
            cols = source.dims.get((i, x), 0)
            if rows == 0 or cols == 0:
                continue
            if (mat.rows, mat.cols) != (rows, cols):
                raise InputError(f"block ({i},{x}) has shape {mat.rows}x{mat.cols}, "
                                 f"expected {rows}x{cols}")
            self.blocks[(i, x)] = mat
        self._kernel_bases = None
        if check:
            self._check_naturality()

    def _check_naturality(self):
        M, N = self.source, self.target
        for (i, x) in M.support():
            for a in M.algebra.quiver.arrows_from[x]:
                if i + 1 > M.hi:
                    continue
                lhs = N.map(a.name, i) @ self.block(i, x)
                rhs = self.block(i + 1, a.target) @ M.map(a.name, i)
                if lhs != rhs:
                    raise InputError(f"naturality fails at arrow {a.name} degree {i}")

    def block(self, i, x):
        got = self.blocks.get((i, x))
        if got is not None:
            return got
        return Matrix.zeros(self.source.algebra.field,
                            self.target.dims.get((i, x), 0), self.source.dims.get((i, x), 0))

    @classmethod
    def identity(cls, M):
        return cls(M, M, {(i, x): Matrix.identity(M.algebra.field, n)
                          for (i, x), n in M.dims.items()}, check=False)

    @classmethod
    def zero(cls, M, N):
        return cls(M, N, {}, check=False)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise InputError("composition endpoint mismatch")
        blocks = {}
        for (i, x) in other.source.support():
            blocks[(i, x)] = self.block(i, x) @ other.block(i, x)
        return GradedMorphism(other.source, self.target, blocks, check=False)

    def __add__(self, other):
        blocks = {}
        keys = set(self.blocks) | set(other.blocks)
        for k in keys:
            blocks[k] = self.block(*k) + other.block(*k)
        return GradedMorphism(self.source, self.target, blocks, check=False)

    def scale(self, c):
        return GradedMorphism(self.source, self.target,
                              {k: m.scale(c) for k, m in self.blocks.items()}, check=False)

    def is_zero(self):
        return all(m.is_zero() for m in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, GradedMorphism):
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(*k) == other.block(*k) for k in keys)

    def is_injective(self):
        return all(self.block(i, x).rank() == n for (i, x), n in self.source.dims.items())

    def is_surjective(self):
        return all(self.block(i, x).rank() == n for (i, x), n in self.target.dims.items())

    def is_isomorphism(self):
        if self.source.dims != self.target.dims:
            return False
        return self.is_injective()

    def rank(self, i, x):
        return self.block(i, x).rank()

    def kernel_bases(self):
        """The kernel piece by piece: {(i, x): (basis, free)} over its nonzero
        pieces, in support order; computed once.

        `basis` is the rref kernel basis of the block at (i, x), which depends
        only on the kernel, and `free` its free coordinates: the basis is the
        identity there, so a kernel vector's coordinates over the basis are
        its entries at `free`.
        """
        if self._kernel_bases is None:
            out = {}
            for (i, x) in self.source.support():
                blk = self.block(i, x)
                basis = blk.kernel_basis()
                if basis.cols:
                    pivots = set(blk.rref()[1])
                    out[(i, x)] = (basis, [r for r in range(blk.cols) if r not in pivots])
            self._kernel_bases = out
        return self._kernel_bases

    def cokernel(self):
        """(C = target/Im f, projection target -> C), one reduction a piece.

        The rref of [B | I_n], for f's n x m block B at a piece, holds it all:
        its pivots from column m on, less m, are the k whose unit vectors e_k
        extend the image (see `_complement_indices`), and its rows below the
        rank of B, in the I_n part, are the projection block, which kills the
        image and has unit columns at those k.  So the e_k are a section, and
        C's maps are the target's at those columns, projected.  Where f has
        no block, the rref of [0 | I_n] is I_n: the projection is the
        identity and every k is taken, with no reduction.
        """
        f = self.source.algebra.field
        proj_blocks = {}
        complements = {}
        for (i, x), n in self.target.dims.items():
            blk = self.blocks.get((i, x))
            if blk is None:
                proj_blocks[(i, x)] = Matrix.identity(f, n)
                complements[(i, x)] = range(n)
                continue
            m = blk.cols
            R, pivots = blk.hstack(Matrix.identity(f, n)).rref()
            rank = sum(1 for c in pivots if c < m)
            if rank == n:
                continue
            proj_blocks[(i, x)] = Matrix._make(f, n - rank, n,
                                               tuple(row[m:] for row in R.data[rank:]))
            complements[(i, x)] = [c - m for c in pivots[rank:]]
        dims = {ix: proj.rows for ix, proj in proj_blocks.items()}
        maps = {}
        for (i, x) in sorted(dims):
            for a in self.target.algebra.quiver.arrows_from[x]:
                if dims.get((i + 1, a.target), 0) == 0 or i + 1 > self.target.hi:
                    continue
                maps[(a.name, i)] = (proj_blocks[(i + 1, a.target)]
                                     @ self.target.map(a.name, i).select_cols(complements[(i, x)]))
        C = GradedModule(self.target.algebra, self.target.lo, self.target.hi, dims, maps,
                         exact_below=self.target.exact_below,
                         exact_above=self.target.exact_above, check=False)
        return C, GradedMorphism(self.target, C, proj_blocks, check=False)

    def dual(self):
        """The contravariant dual morphism, between the linked duals of exact
        endpoints (`GradedModule.dual`), else between the windowed duals."""
        src, tgt = (M.dual() if M.is_exact else M.dual_windowed()
                    for M in (self.target, self.source))
        blocks = {(-i, x): mat.transpose() for (i, x), mat in self.blocks.items()}
        return GradedMorphism(src, tgt, blocks, check=False)

    def to_json_dict(self):
        return {"blocks": {f"({i},{x})": mat.fmt()
                           for (i, x), mat in sorted(self.blocks.items())}}

    def __repr__(self):
        return f"GradedMorphism({self.source!r} -> {self.target!r})"


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def parse_rows(field, rows, where):
    """The rows of a matrix in a file, each entry read by `Field.parse`; a
    malformed entry or row is an input error addressed to `where`."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise InputError(f"{where}: expected a list of rows, got {rows!r}")
    try:
        return [[field.parse(v) for v in row] for row in rows]
    except InputError as e:
        raise InputError(f"{where}: {e}") from None


def _memo(table, key, make):
    """table[key], made by make() on first use.

    Insert-once: concurrent first uses may each run make(), but all of them
    get the one value setdefault keeps.  The value must not be None.
    """
    got = table.get(key)
    if got is None:
        got = table.setdefault(key, make())
    return got


def zero_module(algebra, lo=0, hi=0):
    return GradedModule(algebra, lo, hi, {}, {}, check=False)


def direct_sum(modules):
    """(sum, injections, projections); windows must agree."""
    total, offsets = _sum_with_offsets(modules)
    f = total.algebra.field
    zero = f.zero()
    injections = []
    projections = []
    for m, off in zip(modules, offsets):
        inj = {}
        prj = {}
        for (i, x), n in m.dims.items():
            big = total.dims[(i, x)]
            r0 = off[(i, x)]
            # the identity on rows r0 .. r0+n-1, zero elsewhere
            zero_row = (zero,) * n
            inj[(i, x)] = Matrix._make(f, big, n, (zero_row,) * r0
                                       + Matrix.identity(f, n).data
                                       + (zero_row,) * (big - r0 - n))
            prj[(i, x)] = inj[(i, x)].transpose()
        injections.append(GradedMorphism(m, total, inj, check=False))
        projections.append(GradedMorphism(total, m, prj, check=False))
    return total, injections, projections


def _sum_with_offsets(modules):
    """(sum, offsets): offsets[k][(i, x)] is the first coordinate of the k-th
    module's piece (i, x) inside the sum's piece; windows must agree.  The
    sum of one module is that module (modules are immutable)."""
    if not modules:
        raise InputError("empty direct sum")
    if len(modules) == 1:
        return modules[0], [dict.fromkeys(modules[0].dims, 0)]
    algebra = modules[0].algebra
    lo, hi = modules[0].lo, modules[0].hi
    f = algebra.field
    for m in modules:
        if m.algebra is not algebra:
            raise InputError("direct sum across different algebras")
        if (m.lo, m.hi) != (lo, hi):
            raise InputError("direct sum needs a common window")
    dims = {}
    offsets = []
    for m in modules:
        off = {}
        for (i, x), n in m.dims.items():
            off[(i, x)] = dims.get((i, x), 0)
            dims[(i, x)] = dims.get((i, x), 0) + n
        offsets.append(off)
    maps = {}
    keys = {k for m in modules for k in m.maps}
    for (name, i) in keys:
        a = algebra.quiver.arrow_by_name[name]
        rows = dims.get((i + 1, a.target), 0)
        cols = dims.get((i, a.source), 0)
        entries = [[f.zero()] * cols for _ in range(rows)]
        for m, off in zip(modules, offsets):
            blk = m.maps.get((name, i))
            if blk is None:
                continue
            r0 = off[(i + 1, a.target)]
            c0 = off[(i, a.source)]
            for r, row in enumerate(blk.data):
                entries[r0 + r][c0:c0 + blk.cols] = row
        maps[(name, i)] = Matrix._make(f, rows, cols, tuple(map(tuple, entries)))
    total = GradedModule(algebra, lo, hi, dims, maps,
                         exact_below=all(m.exact_below for m in modules),
                         exact_above=all(m.exact_above for m in modules), check=False)
    return total, offsets


def _complement_indices(field, basis, ambient_dim):
    """The k whose unit vectors e_k extend the column space of `basis` to the
    full space, ascending.

    e_k is taken when it is not in the span of `basis` and the earlier unit
    vectors: these are the pivot columns of [basis | I] past `basis`, so they
    depend only on the span.
    """
    _, pivots = basis.hstack(Matrix.identity(field, ambient_dim)).rref()
    return [c - basis.cols for c in pivots if c >= basis.cols]


def standard_module(algebra, kind, vertex, shift=0, window=None):
    """The standard projective P_a<s>, injective I_a<s>, or simple S_a<s>.

    `shift` is the signed grading shift s, so P_a<-2> has its generator in
    degree 2.  The window defaults to the natural support when finite.  Each
    is built once per algebra and key, so equal calls return the same object.
    """
    key = (kind, vertex, shift, None if window is None else tuple(window))
    return _memo(algebra._standard_modules, key,
                 lambda: _standard_module(algebra, kind, vertex, shift, window))


def _standard_module(algebra, kind, vertex, shift, window):
    algebra.quiver.check_vertex(vertex)
    s = shift
    if kind == "S":
        lo, hi = window if window else (-s, -s)
        if not lo <= -s <= hi:
            raise WindowError(f"window [{lo},{hi}] misses the simple at degree {-s}")
        return GradedModule(algebra, lo, hi, {(-s, vertex): 1}, {}, check=False)
    if kind not in ("P", "I"):
        raise InputError(f"unknown standard module kind {kind!r}")
    if window is None:
        raise WindowError(("projective" if kind == "P" else "injective")
                          + " realization needs a window")
    lo, hi = window
    if kind == "I":
        # I_a<s> = D(P°_a<-s>), the dual of the projective over the opposite
        return standard_module(algebra.opposite(), "P", vertex, -s, (-hi, -lo)).dual_windowed()
    # P_a<s> in degree i is degree i+s of the column A e_a, which is nonzero
    # from degree 0 up to the first degree where it vanishes
    dims, maps = {}, {}
    vanished = False
    for i in range(max(lo, -s), hi + 1):
        col = algebra.column(vertex, i + s)
        if not col:
            vanished = True
            break
        dims.update(((i, x), n) for x, n in col)
        if i < hi:
            maps.update(((name, i), m) for name, m in algebra.column_maps(vertex, i + s).items())
    exact_below = lo <= -s
    exact_above = vanished or not algebra.column(vertex, hi + 1 + s)
    return GradedModule(algebra, lo, hi, dims, maps,
                        exact_below=exact_below, exact_above=exact_above, check=False)
