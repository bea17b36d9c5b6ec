"""Problem-file parsing and canonical serialization.

A problem file is a JSON object with a field tag, a quiver block, a relations
block, named module blocks, and an optional named task list.  Diagnostics are
field-addressed ("relations[0].paths[1]: ...").  Canonical serialization
sorts keys and normalizes rationals so files round-trip byte-exactly.
"""

import json

from .errors import InputError
from .linalg import Field
from .quiver import Quiver
from .algebra import GradedAlgebra, Relation
from .gmodule import GradedModule, standard_module, _is_int


# every command of the command line, in the order its help lists them; a
# task may name any of them but run-tasks
COMMANDS = ("validate", "dims", "hom", "ext1", "rad", "top", "soc", "cover", "envelope",
            "present", "copresent", "transpose", "nakayama", "tau", "tau-inv", "ars",
            "verify-ars", "ar-formula", "pd", "criteria", "analyze-quiver", "run-tasks")
# the task keys `run-tasks` forwards as `--key value`; a task may also carry
# its name, command and window, and nothing else
TASK_FLAGS = ("module", "source", "target", "other", "simple", "direction",
              "sequence", "kind", "cap")
TASK_KEYS = frozenset(TASK_FLAGS + ("name", "command", "window"))


class ProblemFile:

    def __init__(self, field, quiver, algebra, relations_json, modules, tasks):
        self.field = field
        self.quiver = quiver
        self.algebra = algebra
        self.relations_json = relations_json
        self.modules = modules  # name -> raw json spec
        self.tasks = tasks

    def module_names(self):
        return sorted(self.modules)

    def module(self, name, window=None):
        """Resolve a named module, realizing standard ones on the window."""
        if name not in self.modules:
            raise InputError(f"unknown module {name!r}; have {self.module_names()}")
        spec = self.modules[name]
        if "standard" in spec:
            std = spec["standard"]
            kind = std.get("kind")
            vertex = std.get("vertex")
            shift = std.get("shift", 0)
            if kind == "S" and window is None:
                return standard_module(self.algebra, "S", vertex, shift)
            if window is None:
                window = (-10, 10)
            return standard_module(self.algebra, kind, vertex, shift,
                                   window=window)
        return GradedModule.from_json_dict(self.algebra, spec,
                                           where=f"modules.{name}")

    def to_json_dict(self):
        relations = []
        for rel in self.algebra.relations:
            paths = []
            coeffs = []
            for c, p in rel.terms:
                paths.append(list(p.names()))
                coeffs.append(self.field.fmt(self.field.of(c)))
            relations.append({"paths": paths, "coeffs": coeffs})
        out = {
            "field": self.field.tag,
            "quiver": self.quiver.to_json_dict(),
            "relations": relations,
            "modules": self.modules,
        }
        if self.tasks:
            out["tasks"] = self.tasks
        return out


def parse_cap(value):
    """A degree/dimension cap: the integer int(str(value)) when that is >= 0.

    The one cap rule, for the `--cap` flag and for a task's `cap`, which
    `run-tasks` forwards to that flag as text.  Raises ValueError with the
    flag's message otherwise.
    """
    try:
        cap = int(str(value))
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}") from None
    if cap < 0:
        raise ValueError(f"cap {cap} is negative; expected an integer >= 0")
    return cap


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def parse_problem_dict(data):
    if not isinstance(data, dict):
        raise InputError("problem file must be a JSON object")
    if "field" not in data:
        raise InputError("field: missing ('Q' or 'Fp:<p>')")
    try:
        field = Field(str(data["field"]))
    except InputError as e:
        raise InputError(f"field: {e}") from None
    if "quiver" not in data:
        raise InputError("quiver: missing block")
    quiver = Quiver.from_json_dict(data["quiver"], where="quiver")
    relations = []
    for i, r in enumerate(data.get("relations", [])):
        where = f"relations[{i}]"
        if not isinstance(r, dict) or "paths" not in r or "coeffs" not in r:
            raise InputError(f"{where}: expected an object with 'paths' and 'coeffs'")
        if len(r["paths"]) != len(r["coeffs"]):
            raise InputError(f"{where}: paths/coeffs length mismatch")
        terms = []
        for j, (names, coeff) in enumerate(zip(r["paths"], r["coeffs"])):
            try:
                path = quiver.path_from_names(tuple(names))
            except InputError as e:
                raise InputError(f"{where}.paths[{j}]: {e}") from None
            try:
                terms.append((field.parse(coeff), path))
            except InputError as e:
                raise InputError(f"{where}.coeffs[{j}]: {e}") from None
        lengths = {p.length for _c, p in terms}
        if len(lengths) > 1:
            raise InputError(f"{where}: relation not homogeneous")
        if lengths and min(lengths) < 2:
            raise InputError(f"{where}: relation not in (kQ+)^2")
        try:
            relations.append(Relation(terms))
        except InputError as e:
            raise InputError(f"{where}: {e}") from None
    algebra = GradedAlgebra(quiver, field, relations)
    modules = {}
    for name, spec in data.get("modules", {}).items():
        where = f"modules.{name}"
        if not isinstance(spec, dict):
            raise InputError(f"{where}: expected an object")
        if "standard" in spec:
            std = spec["standard"]
            if not isinstance(std, dict):
                raise InputError(f"{where}.standard: expected an object")
            if std.get("kind") not in ("P", "I", "S"):
                raise InputError(f"{where}.standard.kind: expected P, I or S")
            quiver.check_vertex(str(std.get("vertex")))
            if not _is_int(std.get("shift", 0)):
                raise InputError(f"{where}.standard.shift: expected an integer, "
                                 f"got {std['shift']!r}")
        else:
            for key in ("window", "dims"):
                if key not in spec:
                    raise InputError(f"{where}: missing {key!r}")
        modules[name] = spec
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise InputError("tasks: expected a list")
    for i, task in enumerate(tasks):
        where = f"tasks[{i}]"
        if not isinstance(task, dict) or "command" not in task:
            raise InputError(f"{where}: expected an object with 'command'")
        unknown = next((key for key in task if key not in TASK_KEYS), None)
        if unknown is not None:
            raise InputError(f"{where}: unknown key {unknown!r}")
        command = task["command"]
        if command == "run-tasks":
            raise InputError(f"{where}.command: run-tasks cannot run as a task")
        if command not in COMMANDS:
            raise InputError(f"{where}.command: unknown command {command!r}")
        window = task.get("window", [0, 0])
        if not (isinstance(window, list) and len(window) == 2 and all(map(_is_int, window))):
            raise InputError(f"{where}.window: expected two integers [lo, hi], got {window!r}")
        if window[0] > window[1]:
            raise InputError(f"{where}.window: expected lo <= hi, got {window!r}")
        # `run-tasks` forwards the cap to the `--cap` flag, which reads it the same way
        if "cap" in task:
            try:
                parse_cap(task["cap"])
            except ValueError:
                raise InputError(f"{where}.cap: expected an integer >= 0, "
                                 f"got {task['cap']!r}") from None
        # the name becomes the output file <name>.json in the working directory
        out_name = str(task.get("name", "task"))
        if out_name in ("", ".", "..") or "/" in out_name or "\\" in out_name:
            raise InputError(f"{where}.name: {out_name!r} is not a plain file name")
        for key in ("module", "source", "target", "other"):
            name = task.get(key)
            if name is not None and name not in modules:
                raise InputError(f"{where}.{key}: unknown module {name!r}")
    return ProblemFile(field, quiver, algebra, relations, modules, tasks)


def parse_problem(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read problem file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON at line {e.lineno}, column {e.colno}: "
                         f"{e.msg}") from None
    return parse_problem_dict(data)
