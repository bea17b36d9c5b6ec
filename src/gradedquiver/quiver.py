"""Finite quivers, paths, the opposite quiver, and path-structure analysis."""

from collections import namedtuple

from .errors import InputError

Arrow = namedtuple("Arrow", ["name", "source", "target"])


class Path:
    """A path in a quiver, stored with the last-applied arrow first.

    `arrows` is a tuple of Arrow objects (a_n, ..., a_1) meaning "apply a_1,
    then a_2, ...": the same left-to-right order used in relation JSON.  A
    trivial path has no arrows and remembers its vertex.
    """

    __slots__ = ("arrows", "vertex")

    def __init__(self, arrows, vertex=None):
        arrows = tuple(arrows)
        if not arrows and vertex is None:
            raise InputError("trivial path needs a vertex")
        for a, b in zip(arrows, arrows[1:]):
            if a.source != b.target:
                raise InputError(f"arrows {b.name} then {a.name} are not composable")
        self.arrows = arrows
        self.vertex = vertex if not arrows else None

    @classmethod
    def trivial(cls, vertex):
        return cls((), vertex)

    @classmethod
    def _make(cls, arrows):
        """Trusted constructor: `arrows` is a nonempty tuple of arrows known
        to be composable; nothing is checked."""
        self = object.__new__(cls)
        self.arrows = arrows
        self.vertex = None
        return self

    @property
    def length(self):
        return len(self.arrows)

    @property
    def source(self):
        return self.vertex if not self.arrows else self.arrows[-1].source

    @property
    def target(self):
        return self.vertex if not self.arrows else self.arrows[0].target

    def names(self):
        return tuple(a.name for a in self.arrows)

    def compose(self, other):
        """self after other; requires other.target == self.source."""
        if other.target != self.source:
            raise InputError("paths not composable")
        if not self.arrows and not other.arrows:
            return Path.trivial(self.vertex)
        return Path(self.arrows + other.arrows)

    def __eq__(self, other):
        return (isinstance(other, Path) and self.arrows == other.arrows
                and self.vertex == other.vertex)

    def __hash__(self):
        return hash((self.arrows, self.vertex))

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.vertex}"
        return "*".join(a.name for a in self.arrows)


class Quiver:
    """A finite quiver: unique vertex labels, uniquely named arrows."""

    def __init__(self, vertices, arrows):
        vertices = [str(v) for v in vertices]
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex labels")
        self.vertices = tuple(vertices)
        vset = set(vertices)
        seen = set()
        arrs = []
        for a in arrows:
            a = Arrow(str(a[0]), str(a[1]), str(a[2]))
            if a.name in seen:
                raise InputError(f"duplicate arrow name {a.name!r}")
            if a.source not in vset or a.target not in vset:
                raise InputError(f"arrow {a.name!r} has an undeclared endpoint")
            seen.add(a.name)
            arrs.append(a)
        self.arrows = tuple(arrs)
        self.vertex_set = frozenset(self.vertices)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrows_from = {v: tuple(a for a in self.arrows if a.source == v) for v in self.vertices}
        self.arrows_into = {v: tuple(a for a in self.arrows if a.target == v) for v in self.vertices}

    def check_vertex(self, v):
        if v not in self.vertex_set:
            raise InputError(f"unknown vertex {v!r}")
        return v

    def opposite(self):
        """Same vertices; every arrow reversed (names are kept)."""
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def path_from_names(self, names, vertex=None):
        if not names:
            return Path.trivial(self.check_vertex(vertex))
        return Path(tuple(self.arrow_by_name[n] if n in self.arrow_by_name
                          else self._missing_arrow(n) for n in names))

    def _missing_arrow(self, n):
        raise InputError(f"unknown arrow {n!r}")

    def has_cycle(self):
        """Depth-first search in declaration order."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self.vertices}

        def visit(v):
            color[v] = GRAY
            for a in self.arrows_from[v]:
                w = a.target
                if color[w] == GRAY:
                    return True
                if color[w] == WHITE and visit(w):
                    return True
            color[v] = BLACK
            return False

        return any(color[v] == WHITE and visit(v) for v in self.vertices)

    def analyze(self):
        """Path-structure flags for this finite quiver.

        On finite data an infinite forward (or backward) path exists exactly
        when there is an oriented cycle, and strong local finiteness reduces
        to acyclicity; the report says so rather than pretending the three
        conditions stay independent.
        """
        cyc = self.has_cycle()
        return {
            "acyclic": not cyc,
            "infinite_forward_path": cyc,
            "infinite_backward_path": cyc,
            "strongly_locally_finite": not cyc,
            "note": "finite quiver: infinite-path conditions collapse to cycle existence",
        }

    def to_json_dict(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in self.arrows],
        }

    @classmethod
    def from_json_dict(cls, d, where="quiver"):
        if not isinstance(d, dict) or "vertices" not in d or "arrows" not in d:
            raise InputError(f"{where}: expected an object with 'vertices' and 'arrows'")
        arrows = []
        for i, a in enumerate(d["arrows"]):
            for key in ("name", "from", "to"):
                if key not in a:
                    raise InputError(f"{where}.arrows[{i}]: missing {key!r}")
            arrows.append((a["name"], a["from"], a["to"]))
        return cls(d["vertices"], arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"
