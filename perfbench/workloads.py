"""Seeded inputs, task bodies and oracles for the three benchmark workloads.

Generators produce plain problem dictionaries (the JSON problem-file schema)
from a `random.Random`; the program sees only those.  Every task builds its
algebra from scratch, as one CLI invocation does, so piece computation is
paid on every task.  Oracles are independent of the program: closed-form
dimension counts, homological dimensions known for the input shape, verdicts
known for the input shape, and output digests frozen from a known-good run.

Each workload exposes `make_pool(rng)`, which returns blocks of tasks (each
block holds the workload's input mix once, in seeded order), `prepare(pool,
workdir, gq)`, `run(task, ctx, gq)` (the timed region) and `check(task,
output, ctx)`, which returns a list of failure strings.  `gq` is a namespace of the program's
modules; every program call goes through a module attribute so that the
tracer's wrappers see it.
"""

import hashlib
import json
import os
import random
from math import comb

# -- pieces -----------------------------------------------------------------

# Three variables, the Q tasks to degree 4 and the F_3 tasks to degree 5:
# about 0.09 s and 0.14 s on a 2-core x86 VM (Python 3.11).  Two Q tasks
# per F_3 task give each field about half the run and put the median inside
# the Q cost mode and the p90 inside the F_3 one; with equal counts the median
# sits on the gap between the modes and jumps from run to run.
PIECES_VARS = 3
PIECES_DEGREE = {"Q": 4, "Fp:3": 5}
PIECES_COPIES = {"Q": 2, "Fp:3": 1}
# skew coefficients are units mod 3, so the F_3 twin is a skew polynomial
# ring too and the closed-form dimension count holds over both fields
SKEW_COEFFS = (-1, 2, -2, 4, 5, -4)


def _polynomial_problem(field, names, coeffs):
    """x_j x_i = q_ij x_i x_j for i < j in `names` order (q = 1: commutative).

    Paths list the last-applied arrow first, so the path (x_j, x_i) is the
    product x_j x_i.
    """
    relations = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            q = coeffs[(i, j)]
            relations.append({"paths": [[names[j], names[i]], [names[i], names[j]]],
                              "coeffs": ["1", str(-q)]})
    return {"field": field,
            "quiver": {"vertices": ["v"],
                       "arrows": [{"name": a, "from": "v", "to": "v"}
                                  for a in sorted(names)]},
            "relations": relations, "modules": {}}


def pieces_pool(rng, blocks=48):
    """Blocks of {commutative, skew} x {Q, Q, F_3}, each shuffled.

    A block's Q and F_3 tasks of one family share the variable order and
    coefficients, so their dimensions can be compared with each other.
    """
    pool = []
    for b in range(blocks):
        block = []
        for family in ("commutative", "skew"):
            names = [f"x{k}" for k in range(PIECES_VARS)]
            rng.shuffle(names)
            coeffs = {(i, j): 1 if family == "commutative" else rng.choice(SKEW_COEFFS)
                      for i in range(PIECES_VARS) for j in range(i + 1, PIECES_VARS)}
            for field, degree in PIECES_DEGREE.items():
                task = {"label": f"{family}-{field}-n{PIECES_VARS}-d{degree}",
                        "field": field, "pair": (b, family),
                        "vars": PIECES_VARS, "degree": degree,
                        "problem": _polynomial_problem(field, names, coeffs)}
                block += [task] * PIECES_COPIES[field]
        rng.shuffle(block)
        pool.append(block)
    return pool


def pieces_prepare(pool, workdir, gq):
    return {"dims_by_pair": {}}


def pieces_run(task, ctx, gq):
    alg = gq.problem.parse_problem_dict(task["problem"]).algebra
    return [len(alg.piece_basis(d, "v", "v")) for d in range(task["degree"] + 1)]


def pieces_check(task, dims, ctx):
    n = task["vars"]
    want = [comb(d + n - 1, n - 1) for d in range(task["degree"] + 1)]
    failures = []
    if dims != want:
        failures.append(f"dimensions {dims} != closed form {want}")
    seen = ctx["dims_by_pair"].setdefault(task["pair"], {})
    seen[task["field"]] = dims
    if len(seen) == 2:
        common = min(len(d) for d in seen.values())
        q, p = (seen[f][:common] for f in sorted(seen))
        if q != p:
            failures.append(f"fields disagree: {sorted(seen)} give {q} vs {p}")
    return failures


# -- resolve ----------------------------------------------------------------

# Input sizes with task costs within about 20% of each other (0.15 to 0.25 s),
# so the latency distribution has one mode.
LINEAR_TOPS = (11, 12, 13)
RAY_ENDS = (13, 14, 15)
RESOLVE_FIELDS = ("Q", "Fp:3")


def linear_problem(field, top):
    """top -> ... -> 1 -> 0 with every length-two path dead."""
    return {"field": field,
            "quiver": {"vertices": [str(i) for i in range(top + 1)],
                       "arrows": [{"name": f"a{i}", "from": str(i), "to": str(i - 1)}
                                  for i in range(1, top + 1)]},
            "relations": [{"paths": [[f"a{i}", f"a{i + 1}"]], "coeffs": ["1"]}
                          for i in range(1, top)],
            "modules": {}}


def square_ray_problem(field, ray_end):
    """Commuting square 1 => {2,3} => 4, then the ray 4 -> 5 -> ... -> ray_end."""
    arrows = [("a", "1", "2"), ("b", "1", "3"), ("g", "2", "4"), ("d", "3", "4")]
    arrows += [(f"e{k}", str(k - 1), str(k)) for k in range(5, ray_end + 1)]
    return {"field": field,
            "quiver": {"vertices": [str(i) for i in range(1, ray_end + 1)],
                       "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows]},
            "relations": [{"paths": [["g", "a"], ["d", "b"]], "coeffs": ["1", "-1"]}],
            "modules": {}}


def resolve_variants():
    """Every resolve input, by name: (command, size, field, problem dict)."""
    out = {}
    for field in RESOLVE_FIELDS:
        for top in LINEAR_TOPS:
            out[f"pd-{field.replace(':', '')}-{top}"] = ("pd", top, field,
                                                         linear_problem(field, top))
        for end in RAY_ENDS:
            out[f"criteria-{field.replace(':', '')}-{end}"] = (
                "criteria", end, field, square_ray_problem(field, end))
    return out


def resolve_argv(command, size, problem_path, out_path):
    # the caps cover the longest path, so every value is certifiable
    if command == "pd":
        argv = [problem_path, "pd", "--simple", "all", "--cap", str(size + 1)]
    else:
        argv = [problem_path, "criteria", "--cap", str(size + 1)]
    return argv + ["--json", "--out", out_path]


def resolve_pool(rng, blocks=32):
    fields = {name: v[2] for name, v in resolve_variants().items()}
    pool = []
    for _ in range(blocks):
        block = sorted(fields)
        rng.shuffle(block)
        pool.append([{"label": name, "field": fields[name]} for name in block])
    return pool


def resolve_prepare(pool, workdir, gq):
    """Write the problem files and parse each once, as input validation."""
    os.makedirs(workdir, exist_ok=True)
    ctx = {"argv": {}, "size": {}, "command": {}, "out": {},
           "digests": load_digests()}
    for name, (command, size, _field, problem) in resolve_variants().items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        gq.problem.parse_problem(path)
        out = os.path.join(workdir, f"{name}.out.json")
        ctx["argv"][name] = resolve_argv(command, size, path, out)
        ctx["size"][name] = size
        ctx["command"][name] = command
        ctx["out"][name] = out
    return ctx


def resolve_run(task, ctx, gq):
    return gq.cli.main(ctx["argv"][task["label"]])


def load_digests():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def resolve_check(task, exit_code, ctx):
    name = task["label"]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    with open(ctx["out"][name], "rb") as fh:
        raw = fh.read()
    failures = []
    out = json.loads(raw)
    size = ctx["size"][name]
    if ctx["command"][name] == "pd":
        # on the radical-square-zero line, pd(S_i) = i and id(S_i) = top - i
        want = {str(i): {"proj": i, "inj": size - i} for i in range(size + 1)}
        got = {v: {k: (r["value"] if r["kind"] == "exact" else ("at-least", r["value"]))
                   for k, r in entry.items()} for v, entry in out.items()}
        if got != want:
            failures.append(f"pd/id table {got} != {want}")
    else:
        # bounded, and every simple has finite pd and id: every verdict is yes
        verdicts = {}
        for section in ("finitely_presented_category", "finitely_copresented_category",
                        "finite_dimensional_category", "derived_finite_dimensional"):
            for key, v in out.get(section, {}).items():
                verdicts[f"{section}.{key}"] = v.get("verdict")
        if len(verdicts) != 8 or set(verdicts.values()) != {"yes"}:
            failures.append(f"criteria verdicts {verdicts}")
        b = out.get("boundedness", {})
        if [b.get(s, {}).get("status") for s in ("left", "right")] != ["finite", "finite"]:
            failures.append("boundedness not certified finite")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != ctx["digests"].get(name):
        failures.append(f"output digest {digest[:12]} differs from the frozen one")
    return failures


# -- arseq ------------------------------------------------------------------

ARSEQ_VERTICES = (3, 4, 5)
# tasks per block and vertex count: a Q task costs about twice an F_3 task
# of the same shape, so twice as many F_3 tasks give each field half the run
ARSEQ_FIELDS = {"Q": 1, "Fp:3": 2}
# total path count (all lengths, trivial paths included); the same kind of
# filter the acceptance tests apply, which keeps End and Ext systems small
ARSEQ_PATH_CAP = 24
# at most this many parallel arrows: with three, the translates of simples
# grow so large that one task costs 20 times the median, and a run's
# figures would depend on whether its seed drew such a quiver
ARSEQ_MAX_PARALLEL = 2
ARSEQ_CORPUS_SEED = 20240930
# binomial relations p + c*q; units over Q and over F_3 alike
BINOMIAL_COEFFS = (1, -1, 2, -2)
# 8 blocks of 9 tasks: about two passes in a 40 s run (2-core x86 VM)
ARSEQ_BLOCKS = 8
# relative shifts of the simples the AR formulas are checked against
AR_SHIFTS = (-1, 0, 1)


def _path_count(nv, arrows):
    """Number of paths of every length in an acyclic quiver on 0..nv-1."""
    # arrows go from a lower to a higher vertex, so ascending order is a
    # topological order: paths ending at t = e_t + paths ending at each s
    # followed by an arrow s -> t
    ending = [1] * nv
    for t in range(nv):
        ending[t] += sum(ending[s] for s, tt in arrows if tt == t)
    return sum(ending)


def acyclic_shape(rng, nv):
    """nv arrows of an acyclic quiver on 0..nv-1 and a pattern of degree-2 relations.

    The arrow count is fixed because it predicts task cost best (correlation
    about 0.9); a varying count made some corpus blocks cost twice as much as
    others.

    Length-two paths between the same endpoints are dealt out as binomial
    relations p + c*q, monomial relations p, or left free.
    """
    while True:
        arrows = []
        for _ in range(nv):
            s = rng.randrange(nv - 1)
            arrows.append((s, rng.randrange(s + 1, nv)))
        if (_path_count(nv, arrows) <= ARSEQ_PATH_CAP
                and max(arrows.count(a) for a in arrows) <= ARSEQ_MAX_PARALLEL):
            break
    arrows.sort()
    named = [(f"a{k}", s, t) for k, (s, t) in enumerate(arrows)]
    by_ends = {}
    for a, s, m in named:
        for b, m2, t in named:
            if m2 == m:
                by_ends.setdefault((s, t), []).append([b, a])
    relations = []
    for key in sorted(by_ends):
        paths = by_ends[key]
        rng.shuffle(paths)
        while paths:
            r = rng.random()
            if len(paths) >= 2 and r < 0.35:
                relations.append(([paths.pop(), paths.pop()],
                                  ["1", str(rng.choice(BINOMIAL_COEFFS))]))
            elif r < 0.7:
                relations.append(([paths.pop()], ["1"]))
            else:
                paths.pop()
    return nv, named, relations


def arseq_corpus():
    """The fixed shapes, in blocks of one task per (vertex count, field copy).

    Shapes and coefficients come from a constant seed; the run's seed only
    renames vertices and arrows and orders each block, which yields isomorphic
    algebras.  Task cost depends on the shape and, through the coefficients,
    on the isomorphism class: block costs differ by up to 1.7x, and drawing
    coefficients from the run's seed moved a run's median task by 10%.
    """
    rng = random.Random(ARSEQ_CORPUS_SEED)
    return [[(field, acyclic_shape(rng, nv)) for nv in ARSEQ_VERTICES
             for field, copies in ARSEQ_FIELDS.items() for _ in range(copies)]
            for _ in range(ARSEQ_BLOCKS)]


def relabelled_task(field, shape, rng):
    """The shape's algebra with seeded vertex labels and arrow names."""
    nv, named, relations = shape
    label = [str(v) for v in range(nv)]
    rng.shuffle(label)
    new_names = [a for a, _s, _t in named]
    rng.shuffle(new_names)
    rename = dict(zip((a for a, _s, _t in named), new_names))
    arrows = sorted((rename[a], label[s], label[t]) for a, s, t in named)
    return {"label": f"acyclic-{field}-v{nv}", "field": field,
            "problem": {"field": field,
                        "quiver": {"vertices": sorted(label),
                                   "arrows": [{"name": a, "from": s, "to": t}
                                              for a, s, t in arrows]},
                        "relations": [{"paths": [[rename[a] for a in p] for p in paths],
                                       "coeffs": coeffs} for paths, coeffs in relations],
                        "modules": {}},
            "sinks": sorted(v for v in label if not any(s == v for _a, s, _t in arrows)),
            "sources": sorted(v for v in label if not any(t == v for _a, _s, t in arrows))}


def arseq_pool(rng):
    """The corpus, relabelled by the seed and shuffled within blocks."""
    pool = []
    for shapes in arseq_corpus():
        rng.shuffle(shapes)
        pool.append([relabelled_task(field, shape, rng) for field, shape in shapes])
    return pool


def arseq_prepare(pool, workdir, gq):
    return {}


def arseq_run(task, ctx, gq):
    """Both almost split sequences at every simple, verified, plus the AR
    formulas against every shifted simple.  Refusals are recorded, not raised."""
    alg = gq.problem.parse_problem_dict(task["problem"]).algebra
    simple = gq.gmodule.standard_module
    vertices = alg.quiver.vertices
    out = {"refused": [], "verified": [], "formulas": []}
    for v in vertices:
        S = simple(alg, "S", v, 0)
        for direction in ("ending", "starting"):
            try:
                seq = gq.artheory.almost_split_sequence(S, direction)
            except gq.errors.MathRefusal as e:
                out["refused"].append((v, direction, str(e)))
                continue
            ok, failures = gq.artheory.verify_almost_split(seq)
            out["verified"].append((v, direction, ok, failures))
        for w in vertices:
            for s in AR_SHIFTS:
                rep = gq.artheory.ar_formula_check(S, simple(alg, "S", w, s))
                out["formulas"].append((v, w, s, rep["formula1_holds"],
                                        rep["formula2_holds"]))
    return out


def arseq_check(task, out, ctx):
    # S_v is projective exactly at sinks and injective exactly at sources
    # (relations lie in degree >= 2, so every arrow survives)
    expected = ({(v, "ending") for v in task["sinks"]}
                | {(v, "starting") for v in task["sources"]})
    refused = {(v, d) for v, d, _msg in out["refused"]}
    failures = [f"unexpected refusal at {v} ({d}): {msg}"
                for v, d, msg in out["refused"] if (v, d) not in expected]
    failures += [f"no refusal at {v} ({d})" for v, d in sorted(expected - refused)]
    failures += [f"sequence at {v} ({d}) failed verification: {f}"
                 for v, d, ok, f in out["verified"] if not ok]
    failures += [f"AR formula fails for S_{v} against S_{w}<{s}>"
                 for v, w, s, f1, f2 in out["formulas"] if not (f1 and f2)]
    return failures


WORKLOADS = {
    "pieces": (pieces_pool, pieces_prepare, pieces_run, pieces_check),
    "resolve": (resolve_pool, resolve_prepare, resolve_run, resolve_check),
    "arseq": (arseq_pool, arseq_prepare, arseq_run, arseq_check),
}
