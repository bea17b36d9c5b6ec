"""Command-line surface.

Exit codes: 0 = success, 1 = mathematical refusal (an operation precondition
is not met), 2 = input error (bad file, bad reference, bad flags).
"""

import argparse
import functools
import json
import os
import sys
import tempfile

from .errors import MathRefusal, InputError, GradedQuiverError
from .problem import parse_problem, parse_cap, canonical_dumps, COMMANDS, TASK_FLAGS
from .linalg import Matrix
from .gmodule import GradedModule, GradedMorphism, parse_rows, standard_module
from .presentations import (ProjSum, minimal_presentation, projective_cover,
                            injective_envelope, graded_dimension)
from .homs import ghom, ext1, ghom_to_injective, psum_hom_basis
from .artheory import (AlmostSplitSequence, transpose, tau, tau_inverse, nakayama,
                       ar_formula_check, almost_split_sequence, verify_almost_split)
from .criteria import existence_report, human_table


def _window(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("window must look like lo:hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window {lo}:{hi} is reversed; expected lo <= hi")
    return lo, hi


def _cap(text):
    try:
        return parse_cap(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# The requested windows of the translate views, from the module's window
# (lo, hi) when --window is absent (ars always uses them).  Each result is
# realized on the hull of the requested window and the translate's support.
REQUESTED_WINDOWS = {"transpose": lambda lo, hi: (-8, 8),
                     "tau": lambda lo, hi: (lo - 4, hi + 6),
                     "tau-inv": lambda lo, hi: (lo - 1, hi + 5),
                     "ending": lambda lo, hi: (lo - 4, hi + 6),
                     "starting": lambda lo, hi: (lo - 6, hi + 4)}


class _Refused(Exception):
    """argparse's refusal of a command line, as (parser, message)."""


class _Parser(argparse.ArgumentParser):
    """Raises its refusals, so that a task's can be addressed to the task."""

    def error(self, message):
        raise _Refused(self, message)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process: parsing does not
    change it, so every `main` call shares it, those of run-tasks included."""
    common = _Parser(add_help=False)
    common.add_argument("--window", type=_window, default=None,
                        help="degree window lo:hi for realizations")
    common.add_argument("--cap", type=_cap, default=10,
                        help="degree/dimension cap; translates seek column heights up to it")
    common.add_argument("--assert-noetherian", choices=("left", "right", "both"),
                        default=None,
                        help="record a user assertion of local noetherianness "
                             "(it is never decided algorithmically)")
    common.add_argument("--json", dest="as_json", action="store_true",
                        help="emit canonical JSON instead of a table")
    common.add_argument("--table", dest="as_json", action="store_false")
    common.add_argument("--out", default=None,
                        help="write output to a file (atomic)")
    ap = _Parser(prog="gradedquiver",
                 description="exact computations for graded quiver algebras")
    ap.add_argument("problem", help="problem file (JSON)")
    sub = ap.add_subparsers(dest="command", required=True)

    cmd = {name: sub.add_parser(name, parents=[common]) for name in COMMANDS}
    for name in ("dims", "ext1", "rad", "top", "soc", "cover", "envelope", "present",
                 "copresent", "transpose", "nakayama", "tau", "tau-inv", "ars", "ar-formula"):
        cmd[name].add_argument("--module", required=True)
    cmd["hom"].add_argument("--source", required=True)
    for name in ("hom", "ext1"):
        cmd[name].add_argument("--target", required=True)
    cmd["ars"].add_argument("--direction", choices=("ending", "starting"), default="ending")
    cmd["verify-ars"].add_argument("--sequence", required=True,
                                   help="JSON file produced by the ars command")
    cmd["ar-formula"].add_argument("--other", required=True)
    cmd["pd"].add_argument("--simple", required=True, help="a vertex label, or 'all'")
    cmd["pd"].add_argument("--kind", choices=("proj", "inj", "both"), default="both")
    return ap


def _emit(args, payload, table_text=None):
    if args.as_json or table_text is None:
        text = canonical_dumps(payload)
    else:
        text = table_text if table_text.endswith("\n") else table_text + "\n"
    if args.out:
        out = args.out
        # the only honored environment variable: an output-directory override
        # for relative paths
        base = os.environ.get("GRADEDQUIVER_OUT_DIR")
        if base and not os.path.isabs(out):
            out = os.path.join(base, out)
        directory = os.path.dirname(os.path.abspath(out)) or "."
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gradedquiver-")
        except OSError as e:
            raise InputError(f"--out: cannot write into {directory}: {e.strerror}") from None
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException as e:
            # a failed write or replace leaves no temporary file behind
            os.unlink(tmp)
            if isinstance(e, OSError):
                raise InputError(f"--out: cannot write {out}: {e.strerror}") from None
            raise
    else:
        sys.stdout.write(text)


def _injectives(psum):
    """An opposite projective sum (+) P°_a<s> read as the injective sum
    (+) I_a<-s> = D((+) P°_a<s>): (JSON summands, label)."""
    summands = [[a, -s] for a, s in psum.summands]
    return summands, "(+)".join(f"I_{a}<{s}>" for a, s in summands) or "0"


def _dims_table(module):
    lines = [f"window [{module.lo}, {module.hi}]  "
             f"below={'exact' if module.exact_below else 'truncated'} "
             f"above={'exact' if module.exact_above else 'truncated'}"]
    for (i, x) in module.support():
        lines.append(f"({i},{x})  {module.dims[(i, x)]}")
    return "\n".join(lines)


def _task_args(problem, path):
    """Each task's (name, arguments), its command line parsed by
    `build_parser`; a refusal is an input error addressed to the task."""
    out = []
    for idx, task in enumerate(problem.tasks):
        name = str(task.get("name", f"task{idx}"))
        argv = [path, task["command"]]
        # one `--key=value` token each, so a value such as -3:2 is no option
        argv += [f"--{key}={task[key]}" for key in TASK_FLAGS if key in task]
        if "window" in task:
            argv.append("--window={}:{}".format(*task["window"]))
        argv += ["--json", "--out", f"{name}.json"]
        try:
            out.append((name, build_parser().parse_args(argv)))
        except _Refused as e:
            raise InputError(f"tasks[{idx}]: {e.args[1]}") from None
    return out


def run(args, problem=None):
    """Run one parsed command line on the problem, parsed from its file
    unless given: the tasks of `run-tasks` share one problem, so one
    algebra and its memos."""
    problem = problem or parse_problem(args.problem)
    alg = problem.algebra
    window = args.window

    def module(name):
        return problem.module(name, window=window)

    if args.command == "validate":
        _task_args(problem, args.problem)  # refuses a task the parser refuses
        issues = {}
        for name in problem.module_names():
            bad = module(name).validate()
            if bad is not None:
                issues[name] = {"relation": bad[0], "degree": bad[1]}
        payload = {"ok": not issues, "violations": issues,
                   "modules": problem.module_names()}
        _emit(args, payload, "ok" if not issues else f"violations: {issues}")
        return 0

    if args.command == "dims":
        M = module(args.module)
        _emit(args, M.to_json_dict(), _dims_table(M))
        return 0

    def standard_spec(name, kind):
        spec = problem.modules.get(name, {})
        std = spec.get("standard")
        if std and std.get("kind") == kind:
            return std
        return None

    if args.command == "hom":
        src_std = standard_spec(args.source, "P")
        tgt_std = standard_spec(args.target, "I")
        if src_std is not None:
            # homs out of a projective are piece lookups, exact even when
            # the realized projective would be truncated
            psum = ProjSum(alg, [(src_std["vertex"], int(src_std.get("shift", 0)))])
            N = module(args.target)
            basis = [{f"({i},{x})": m.fmt() for (i, x), m in mor.blocks.items()}
                     for mor in psum_hom_basis(psum, N)]
            _emit(args, {"dim": len(basis), "basis": basis}, f"dim {len(basis)}")
            return 0
        if tgt_std is not None:
            H = ghom_to_injective(module(args.source), tgt_std["vertex"],
                                  int(tgt_std.get("shift", 0)))
        else:
            H = ghom(module(args.source), module(args.target))
        payload = {"dim": H.dim,
                   "basis": [{f"({i},{x})": m.fmt() for (i, x), m in b.items()}
                             for b in H.basis_blocks]}
        _emit(args, payload, f"dim {H.dim}")
        return 0

    if args.command == "ext1":
        if standard_spec(args.module, "P") is not None:
            _emit(args, {"dim": 0, "note": "projective source"}, "dim 0")
            return 0
        ext = ext1(module(args.module), module(args.target))
        _emit(args, {"dim": ext.dim}, f"dim {ext.dim}")
        return 0

    if args.command in ("rad", "top", "soc"):
        M = module(args.module)
        if args.command == "rad":
            sub, _ = M.radical()
        elif args.command == "soc":
            sub, _ = M.socle()
        else:
            sub, _ = M.top()
        _emit(args, sub.to_json_dict(), _dims_table(sub))
        return 0

    if args.command == "cover":
        M = module(args.module)
        cov = projective_cover(M)
        payload = {"summands": cov.psum.to_json()}
        _emit(args, payload, repr(cov.psum))
        return 0

    if args.command == "envelope":
        M = module(args.module)
        summands, label = _injectives(injective_envelope(M)[0])
        _emit(args, {"summands": summands}, label)
        return 0

    if args.command == "present":
        pres = minimal_presentation(module(args.module))
        _emit(args, pres.to_json_dict(), repr(pres.p1) + " -> " + repr(pres.p0))
        return 0

    if args.command == "copresent":
        # the minimal presentation P1 -> P0 of D M over the opposite algebra
        # is, through D, the copresentation M -> I0 -> I1; d1 is shown as the
        # data of the projective map whose Nakayama image it is
        pres = minimal_presentation(module(args.module).dual())
        (i0, label0), (i1, label1) = _injectives(pres.p0), _injectives(pres.p1)
        lo, hi = pres.window
        payload = {"i0": i0, "i1": i1, "d1": nakayama(pres.d1).to_json(),
                   "window": [-hi, -lo]}
        _emit(args, payload, label0 + " -> " + label1)
        return 0

    if args.command == "transpose":
        M = module(args.module)
        tr = transpose(M)
        mod = tr.realize(window or REQUESTED_WINDOWS["transpose"](M.lo, M.hi), args.cap)
        payload = {"zero": tr.is_zero(),
                   "cover": tr.cover_psum.to_json(),
                   "module": mod.to_json_dict()}
        _emit(args, payload, "zero (projective input)" if tr.is_zero()
              else _dims_table(mod))
        return 0

    if args.command == "nakayama":
        pres = minimal_presentation(module(args.module))
        # nu d1 is a map over the opposite algebra; as a map of injectives it
        # carries d1's own data, which its transpose gives back
        back = nakayama(nakayama(pres.d1)).to_json()
        payload = {"p_map": pres.d1.to_json(), "i_map": back,
                   "round_trip_identical": back == pres.d1.to_json()}
        _emit(args, payload, f"round trip identical: "
                             f"{payload['round_trip_identical']}")
        return 0

    if args.command in ("tau", "tau-inv"):
        M = module(args.module)
        fn = tau if args.command == "tau" else tau_inverse
        t = fn(M, window=window or REQUESTED_WINDOWS[args.command](M.lo, M.hi),
               cap=args.cap)
        payload = {"module": t.module.to_json_dict(), "warning": t.warning}
        text = _dims_table(t.module) + (f"\nwarning: {t.warning}" if t.warning else "")
        _emit(args, payload, text)
        return 0

    if args.command == "ars":
        M = module(args.module)
        seq = almost_split_sequence(M, args.direction,
                                    REQUESTED_WINDOWS[args.direction](M.lo, M.hi), args.cap)
        ok, failures = verify_almost_split(seq)
        payload = seq.to_json_dict()
        payload["verified"] = ok
        payload["failures"] = failures
        _emit(args, payload, f"verify: {'pass' if ok else failures}")
        return 0 if ok else 1

    if args.command == "verify-ars":
        seq = _sequence_from_file(alg, args.sequence)
        ok, failures = verify_almost_split(seq)
        _emit(args, {"verified": ok, "failures": failures},
              "pass" if ok else f"fail: {failures}")
        return 0 if ok else 1

    if args.command == "ar-formula":
        rep = ar_formula_check(module(args.module), module(args.other))
        both = rep["formula1_holds"] and rep["formula2_holds"]
        _emit(args, rep, f"formula1 {rep['formula1_holds']}  "
                         f"formula2 {rep['formula2_holds']}")
        return 0 if both else 1

    if args.command == "pd":
        vertices = (alg.quiver.vertices if args.simple == "all"
                    else [args.simple])
        table = {}
        for v in vertices:
            alg.quiver.check_vertex(v)
            S = standard_module(alg, "S", v, 0)
            entry = {}
            if args.kind in ("proj", "both"):
                entry["proj"] = graded_dimension(S, "proj", args.cap)
            if args.kind in ("inj", "both"):
                entry["inj"] = graded_dimension(S, "inj", args.cap)
            table[v] = entry
        lines = []
        for v, entry in table.items():
            parts = []
            for kind, rep in entry.items():
                mark = "" if rep["kind"] == "exact" else ">="
                parts.append(f"{kind[0]}d(S_{v}) {mark}{rep['value']}")
            lines.append("  ".join(parts))
        _emit(args, table, "\n".join(lines))
        return 0

    if args.command == "criteria":
        rep = existence_report(alg, cap=args.cap, assert_noetherian=args.assert_noetherian)
        _emit(args, rep, human_table(rep))
        return 0

    if args.command == "analyze-quiver":
        rep = alg.quiver.analyze()
        text = "\n".join(f"{k}: {v}" for k, v in rep.items())
        _emit(args, rep, text)
        return 0

    if args.command == "run-tasks":
        tasks = _task_args(problem, args.problem)
        if not tasks:
            _emit(args, {"tasks": {}}, "no tasks")
            return 0
        results = {name: {"exit": _report(task, problem), "out": task.out}
                   for name, task in tasks}
        payload = {"tasks": results}
        text = "\n".join(f"{n}  exit {r['exit']}  -> {r['out']}"
                         for n, r in results.items())
        _emit(args, payload, text)
        return 0 if all(r["exit"] == 0 for r in results.values()) else 1

    raise InputError(f"unknown command {args.command!r}")


def _sequence_from_file(alg, path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read sequence file: {e}") from None
    if not isinstance(data, dict):
        raise InputError("sequence file must hold a JSON object")
    try:
        A = GradedModule.from_json_dict(alg, data["left"], "left")
        E = GradedModule.from_json_dict(alg, data["middle"], "middle")
        C = GradedModule.from_json_dict(alg, data["right"], "right")
        f = _morphism_from_json(A, E, data["left_map"], "left_map")
        g = _morphism_from_json(E, C, data["right_map"], "right_map")
    except KeyError as e:
        raise InputError(f"sequence file missing block {e}") from None
    direction = data.get("direction", "ending")
    if direction not in ("ending", "starting"):
        raise InputError(f"direction: expected 'ending' or 'starting', got {direction!r}")
    return AlmostSplitSequence(A, E, C, f, g, data.get("certificate", {}), direction)


def _morphism_from_json(source, target, data, where):
    blocks = {}
    try:
        for key, rows in data.get("blocks", {}).items():
            i, x = key.strip("()").split(",", 1)
            i, x = int(i), x.strip()
            blocks[(i, x)] = Matrix(source.algebra.field,
                                    target.dims.get((i, x), 0), source.dims.get((i, x), 0),
                                    parse_rows(source.algebra.field, rows,
                                               f'{where}.blocks["{key}"]'))
    except (ValueError, TypeError, AttributeError) as e:
        raise InputError(f"{where}: malformed map block ({e})") from None
    return GradedMorphism(source, target, blocks)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _Refused as e:
        argparse.ArgumentParser.error(*e.args)  # usage, message, exit 2
    return _report(args)


def _report(args, problem=None):
    """Run parsed arguments: 0, or 1 or 2 with the reason on stderr."""
    try:
        return run(args, problem)
    except MathRefusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except GradedQuiverError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
