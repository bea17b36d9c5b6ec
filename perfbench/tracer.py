"""Per-layer tracing installed from outside the program.

`Tracer.install` wraps the public functions and methods of every module in
`src/gradedquiver/` (a module is a layer) and rebinds every name other
modules imported them under.  Each wrapper keeps a call count and self time:
its duration minus the time covered by wrapped calls inside it.  Calls in the
coarse layers are also kept as spans (name, start, end, parent span, task);
calls in the hot leaf layers (quiver, algebra, linalg) are only aggregated,
because one resolve task makes tens of thousands of piece lookups.

Scalar field operations, `Path`, `Arrow` and `AlgElement` are not wrapped:
they are too small for a wrapper, and their time counts for the layer that
called them.
"""

import inspect
import json
import time

LAYERS = ("quiver", "algebra", "linalg", "gmodule", "presentations", "homs",
          "artheory", "criteria", "problem", "cli")
# aggregated only; no span per call
HOT_LAYERS = {"quiver", "algebra", "linalg"}
SKIP_CLASSES = {"Field", "Path", "Arrow", "AlgElement"}
# private names the issue's metrics need
EXTRA_FUNCTIONS = {"cli": {"_emit"}}
DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__"}

# metric prefix -> wrapped names whose calls and self time it sums
GROUPS = {
    "quiver.paths": ["quiver.Quiver.paths"],
    "algebra.piece": ["algebra.GradedAlgebra.piece"],
    "algebra.multiply": ["algebra.GradedAlgebra.multiply"],
    "algebra.mult_matrix": ["algebra.GradedAlgebra.left_mult_matrix",
                            "algebra.GradedAlgebra.right_mult_matrix"],
    "linalg.matmul": ["linalg.Matrix.__matmul__"],
    "linalg.solve": ["linalg.Matrix.solve"],
    "gmodule.standard_module": ["gmodule.standard_module"],
    "gmodule.kernel": ["gmodule.GradedMorphism.kernel"],
    "gmodule.cokernel": ["gmodule.GradedMorphism.cokernel"],
    "gmodule.direct_sum": ["gmodule.direct_sum"],
    "gmodule.radical": ["gmodule.GradedModule.radical", "gmodule.GradedModule.socle",
                        "gmodule.GradedModule.top"],
    "presentations.realize": ["presentations.ProjSum.realize", "presentations.PMap.realize",
                              "presentations.InjSum.realize", "presentations.IMap.realize",
                              "presentations.Cover.realize"],
    "presentations.minimal_presentation": ["presentations.minimal_presentation"],
    "presentations.resolution": ["presentations.resolution"],
    "homs.ghom": ["homs.ghom"],
    "homs.end_algebra": ["homs.end_algebra"],
    "homs.indecomposable": ["homs.is_strongly_indecomposable"],
    "homs.ext": ["homs.ExtSpace.__init__"],
    "artheory.tau": ["artheory.tau", "artheory.tau_inverse"],
    "artheory.ass": ["artheory.almost_split_sequence"],
    "artheory.verify": ["artheory.verify_almost_split"],
    "artheory.ar_formula": ["artheory.ar_formula_check"],
    "criteria.report": ["criteria.existence_report"],
    "problem.parse": ["problem.parse_problem", "problem.parse_problem_dict"],
    "cli.main": ["cli.main"],
    "cli.emit": ["cli._emit"],
}
_FAILED = object()


class Tracer:
    """Counters, self times and spans of one traced pass over some tasks."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.stack = [0.0]          # child-time accumulators of open calls
        self.span_stack = [None]    # ids of open recorded spans
        self.spans = []             # (name index, start, end, parent id, task id)
        self.task = None
        self.wall = 0.0             # summed duration of traced tasks
        self.t0 = time.perf_counter()
        self.count = {}             # extra counters, by metric name
        self._task_refs = []        # keeps objects alive while ids key them
        self._seen_pieces = {}
        self._seen_realize = set()
        self._in_sequence = 0
        self._root = self._register("bench.task")

    # -- wrapping ------------------------------------------------------------

    def _register(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name, record):
        idx = self._register(name)
        before, after = _HOOKS.get(name, (None, None))
        calls, self_s, stack = self.calls, self.self_s, self.stack
        span_stack, spans = self.span_stack, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(tracer, args, kwargs) if before else None
            if record:
                sid = len(spans)
                spans.append(None)
                parent = span_stack[-1]
                span_stack.append(sid)
            result = _FAILED
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                own = dt - stack.pop()
                self_s[idx] += own
                calls[idx] += 1
                stack[-1] += dt
                if record:
                    span_stack.pop()
                    spans[sid] = (idx, t0, t1, parent, tracer.task)
                if after:
                    after(tracer, token, args, result, own)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, modules):
        """Wrap every layer of `modules` (layer name -> module object)."""
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            record = layer not in HOT_LAYERS
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in EXTRA_FUNCTIONS.get(layer, ())):
                    replaced[obj] = self._wrap(obj, f"{layer}.{attr}", record)
                    setattr(mod, attr, replaced[obj])
                elif (inspect.isclass(obj) and not attr.startswith("_")
                      and attr not in SKIP_CLASSES):
                    self._wrap_class(obj, f"{layer}.{attr}", record)
        # names imported into other modules with `from .x import f`
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, cls, prefix, record):
        for mname, member in list(vars(cls).items()):
            if mname.startswith("_") and mname not in DUNDERS:
                continue
            name = f"{prefix}.{mname}"
            if isinstance(member, classmethod):
                setattr(cls, mname, classmethod(self._wrap(member.__func__, name, record)))
            elif isinstance(member, staticmethod):
                setattr(cls, mname, staticmethod(self._wrap(member.__func__, name, record)))
            elif inspect.isfunction(member):
                setattr(cls, mname, self._wrap(member, name, record))

    # -- tasks ---------------------------------------------------------------

    def run_task(self, task_id, fn):
        """Run fn() as the root span `bench.task` of one task."""
        self.task = task_id
        self._task_refs.clear()
        self._seen_pieces.clear()
        self._seen_realize.clear()
        root = self._root
        sid = len(self.spans)
        self.spans.append(None)
        self.span_stack.append(sid)
        self.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.self_s[root] += (t1 - t0) - self.stack.pop()
            self.calls[root] += 1
            self.span_stack.pop()
            self.spans[sid] = (root, t0, t1, None, task_id)
            self.task = None
            self.wall += t1 - t0

    def bump(self, key, by=1):
        self.count[key] = self.count.get(key, 0) + by

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: group counters, layer self-time shares, ratios."""
        calls = dict(zip(self.names, self.calls))
        own = dict(zip(self.names, self.self_s))
        c = self.count
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for prefix, members in GROUPS.items():
            put(f"{prefix}.calls", sum(calls.get(m, 0) for m in members), "count")
            put(f"{prefix}.self_s", sum(own.get(m, 0.0) for m in members), "s")
        for field in ("Q", "Fp"):
            put(f"linalg.rref.calls.{field}", c.get(f"rref.calls.{field}", 0), "count")
            put(f"linalg.rref.self_s.{field}", c.get(f"rref.self_s.{field}", 0.0), "s")
            put(f"linalg.rref.cells.{field}", c.get(f"rref.cells.{field}", 0), "count")
        put("linalg.rref.max_cells", c.get("rref.max_cells", 0), "count")
        put("linalg.matrix.constructed", calls.get("linalg.Matrix.__init__", 0), "count")
        put("quiver.paths.returned", c.get("paths.returned", 0), "count")
        lookups = calls.get("algebra.GradedAlgebra.piece", 0)
        misses = c.get("piece.misses", 0)
        put("algebra.piece.misses", misses, "count")
        put("algebra.piece.zero_misses", c.get("piece.zero_misses", 0), "count")
        put("algebra.piece.hit_ratio", _ratio(lookups - misses, lookups), "ratio")
        realizes = out["presentations.realize.calls"]["value"]
        put("presentations.realize.hit_ratio",
            _ratio(c.get("realize.repeats", 0), realizes), "ratio")
        put("presentations.resolution.steps", c.get("resolution.steps", 0), "count")
        put("homs.ghom.unknowns", c.get("ghom.unknowns", 0), "count")
        put("homs.indecomposable.trials", c.get("indecomposable.trials", 0), "count")
        sequences = calls.get("artheory.almost_split_sequence", 0) - c.get("ass.refused", 0)
        put("artheory.sequences", sequences, "count")
        put("artheory.presentations_per_sequence",
            _ratio(c.get("seq.presentations", 0), sequences), "ratio")
        put("artheory.end_algebras_per_sequence",
            _ratio(c.get("seq.end_algebras", 0), sequences), "ratio")
        shares = self.layer_self_s()
        wall = self.wall
        for layer, s in shares.items():
            put(f"{layer}.self_share", _ratio(s, wall), "ratio")
        put("trace.accounted_ratio", _ratio(sum(shares.values()), wall), "ratio")
        put("trace.wall_s", wall, "s")
        return out

    def layer_self_s(self):
        """Self time by layer; `bench` is task time outside every wrapper."""
        by = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, s in zip(self.names, self.self_s):
            by[name.split(".", 1)[0]] += s
        return by

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "span_fields": ["name", "start_s", "end_s", "parent", "task"],
                       "spans": [(i, round(a - self.t0, 9), round(b - self.t0, 9), p, t)
                                 for i, a, b, p, t in self.spans],
                       "calls": dict(zip(self.names, self.calls)),
                       "self_s": dict(zip(self.names, self.self_s)),
                       "counters": self.count, **extra}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


# -- hooks: before(tracer, args, kwargs) -> token;
#           after(tracer, token, args, result, own_seconds) ----------------------

def _piece_after(tr, _tok, args, result, _own):
    alg, key = args[0], args[1:]
    seen = tr._seen_pieces.get(id(alg))
    if seen is None:
        seen = tr._seen_pieces[id(alg)] = set()
        tr._task_refs.append(alg)
    if key not in seen:
        seen.add(key)
        tr.bump("piece.misses")
        if result is not _FAILED and result.dim == 0:
            tr.bump("piece.zero_misses")


def _paths_after(tr, _tok, _args, result, _own):
    if result is not _FAILED:
        tr.bump("paths.returned", len(result))


def _rref_before(tr, args, _kwargs):
    return args[0]._rref is None      # False when the memoized form is returned


def _rref_after(tr, fresh, args, _result, own):
    m = args[0]
    field = "Q" if m.field.is_rationals else "Fp"
    tr.bump(f"rref.self_s.{field}", own)
    if fresh:
        cells = m.rows * m.cols
        tr.bump(f"rref.calls.{field}")
        tr.bump(f"rref.cells.{field}", cells)
        tr.count["rref.max_cells"] = max(tr.count.get("rref.max_cells", 0), cells)


def _realize_after(tr, _tok, args, _result, _own):
    # the same object realized again on the same window (and module)
    key = (id(args[0]),) + tuple(tuple(a) if isinstance(a, (tuple, list)) else id(a)
                                 for a in args[1:])
    if key in tr._seen_realize:
        tr.bump("realize.repeats")
    else:
        tr._seen_realize.add(key)
        tr._task_refs.append(args)


def _resolution_after(tr, _tok, _args, result, _own):
    if result is not _FAILED:
        tr.bump("resolution.steps", len(result.psums))


def _ghom_after(tr, _tok, _args, result, _own):
    if result is not _FAILED:
        M, N = result.source, result.target
        tr.bump("ghom.unknowns", sum(n * N.dims.get(k, 0) for k, n in M.dims.items()))


def _indecomposable_after(tr, _tok, _args, result, _own):
    if result is not _FAILED:
        tr.bump("indecomposable.trials", result.trials)


def _sequence_before(tr, _args, _kwargs):
    tr._in_sequence += 1


def _sequence_after(tr, _tok, _args, result, _own):
    tr._in_sequence -= 1


def _ass_after(tr, tok, args, result, own):
    _sequence_after(tr, tok, args, result, own)
    if result is _FAILED:
        tr.bump("ass.refused")


def _in_sequence_counter(key):
    def after(tr, _tok, _args, _result, _own):
        if tr._in_sequence:
            tr.bump(key)
    return after


_HOOKS = {
    "algebra.GradedAlgebra.piece": (None, _piece_after),
    "quiver.Quiver.paths": (None, _paths_after),
    "linalg.Matrix.rref": (_rref_before, _rref_after),
    "presentations.ProjSum.realize": (None, _realize_after),
    "presentations.PMap.realize": (None, _realize_after),
    "presentations.InjSum.realize": (None, _realize_after),
    "presentations.IMap.realize": (None, _realize_after),
    "presentations.Cover.realize": (None, _realize_after),
    "presentations.resolution": (None, _resolution_after),
    "homs.ghom": (None, _ghom_after),
    "homs.is_strongly_indecomposable": (None, _indecomposable_after),
    "artheory.almost_split_sequence": (_sequence_before, _ass_after),
    "artheory.verify_almost_split": (_sequence_before, _sequence_after),
    "presentations.minimal_presentation": (None, _in_sequence_counter("seq.presentations")),
    "homs.end_algebra": (None, _in_sequence_counter("seq.end_algebras")),
}
