import contextlib
import io
import json

import pytest

from gradedquiver.cli import main

from test_cli import base_problem, fix


def test_cli_hom_from_truncated_projective(capsys):
    # over the loop fixture P1 is infinite dimensional; the formal route
    # still answers exactly: dim Hom(P_1, S_1) = dim (S_1)_0(1) = 1
    code = main([fix("fix_a"), "hom", "--source", "P1", "--target", "S1",
                 "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1


def test_cli_hom_into_injective(capsys):
    code = main([fix("fix_b"), "hom", "--source", "S2", "--target", "I2",
                 "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1


def test_cli_ext1_projective_source(capsys):
    code = main([fix("fix_a"), "ext1", "--module", "P1", "--target", "S1",
                 "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 0


def test_cli_envelope_and_copresent(capsys):
    code = main([fix("fix_d"), "envelope", "--module", "S3", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["summands"] == [["3", 0]]
    code = main([fix("fix_d"), "copresent", "--module", "S3", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["i0"] == [["3", 0]] and out["i1"] == [["4", 1]]


def test_cli_transpose_and_nakayama(capsys):
    code = main([fix("fix_b"), "transpose", "--module", "S1", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zero"] is False
    assert out["module"]["dims"] == {"(-1,2)": 1}
    code = main([fix("fix_b"), "nakayama", "--module", "S1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["round_trip_identical"] is True


def test_cli_tau_projective_warning(capsys):
    code = main([fix("fix_b"), "tau", "--module", "P1", "--window", "0:2",
                 "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["warning"] and out["module"]["dims"] == {}


def test_cli_validate(capsys):
    code = main([fix("fix_c"), "validate", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_run_tasks(tmp_path, capsys, monkeypatch):
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["tasks"] = [
        {"name": "dims_p1", "command": "dims", "module": "P1", "window": [0, 3]},
        {"name": "seq", "command": "ars", "module": "S1", "direction": "ending"},
        {"name": "pdtable", "command": "pd", "simple": "all", "cap": 6},
    ]
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem))
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(tmp_path))
    code = main([str(pfile), "run-tasks", "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary["tasks"]) == {"dims_p1", "seq", "pdtable"}
    seq = json.loads((tmp_path / "seq.json").read_text())
    assert seq["verified"] is True
    dims = json.loads((tmp_path / "dims_p1.json").read_text())
    assert dims["dims"] == {"(0,1)": 1, "(1,2)": 1}


def test_cli_tasks_validate_references(tmp_path):
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["tasks"] = [{"command": "dims", "module": "missing"}]
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(problem))
    assert main([str(pfile), "validate"]) == 2


def test_cli_tasks_reject_unknown_keys(tmp_path, capsys, monkeypatch):
    # a misspelt flag is an input error, not a task run on the defaults
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["tasks"] = [{"command": "dims", "module": "P1", "windw": [0, 3]}]
    pfile = tmp_path / "typo.json"
    pfile.write_text(json.dumps(problem))
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(tmp_path))
    for command in ("run-tasks", "validate"):
        assert main([str(pfile), command]) == 2
        assert capsys.readouterr().err == "error: tasks[0]: unknown key 'windw'\n"
    assert not list(tmp_path.glob("task*.json"))


def test_task_values_starting_with_a_dash_are_values(tmp_path, capsys, monkeypatch):
    # each task flag goes to the parser as one --key=value token, so a
    # negative window or a module named -P is read as a value, not an option
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["modules"]["-P"] = problem["modules"]["P1"]
    problem["tasks"] = [
        {"name": "window", "command": "dims", "module": "P1", "window": [-3, 2]},
        {"name": "dash", "command": "dims", "module": "-P"},
    ]
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem))
    batch, flags = tmp_path / "batch", tmp_path / "flags"
    batch.mkdir()
    flags.mkdir()
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(batch))
    for command in ("validate", "run-tasks"):
        assert main([str(pfile), command, "--json"]) == 0
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(flags))
    assert main([str(pfile), "dims", "--module", "P1", "--window=-3:2",
                 "--json", "--out", "window.json"]) == 0
    assert main([str(pfile), "dims", "--module=-P", "--json", "--out", "dash.json"]) == 0
    capsys.readouterr()
    for name in ("window.json", "dash.json"):
        assert (batch / name).read_bytes() == (flags / name).read_bytes()


def test_cli_rad_top(capsys):
    code = main([fix("fix_a"), "rad", "--module", "P1", "--window", "0:4",
                 "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"]["(1,1)"] == 1 and out["dims"]["(1,2)"] == 1
    code = main([fix("fix_a"), "top", "--module", "P1", "--window", "0:4",
                 "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dims"] == {"(0,1)": 1}


def test_run_tasks_with_shared_parser_matches_sequential_main(tmp_path, capsys,
                                                             monkeypatch):
    # run-tasks runs its tasks in order through the one parser the process
    # keeps; the same commands run one by one through `main` must give the
    # same exit codes and byte-identical output files
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["tasks"] = [
        {"name": "dims_p1", "command": "dims", "module": "P1", "window": [0, 3]},
        {"name": "cover_s1", "command": "cover", "module": "S1"},
        {"name": "present_s1", "command": "present", "module": "S1"},
        {"name": "tau_s1", "command": "tau", "module": "S1"},
        {"name": "hom", "command": "hom", "source": "P1", "target": "S1"},
        {"name": "ext", "command": "ext1", "module": "S1", "target": "S2"},
        {"name": "seq", "command": "ars", "module": "S1", "direction": "ending"},
        {"name": "refused", "command": "ars", "module": "P2"},
        {"name": "pd_all", "command": "pd", "simple": "all", "cap": 4},
        {"name": "pd_one", "command": "pd", "simple": "1", "kind": "inj", "cap": 2},
        {"name": "criteria", "command": "criteria", "cap": 3},
        {"name": "arf", "command": "ar-formula", "module": "S1", "other": "S2"},
    ]
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem))
    batch, sequential = tmp_path / "batch", tmp_path / "sequential"
    batch.mkdir()
    sequential.mkdir()
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(batch))
    assert main([str(pfile), "run-tasks", "--json"]) == 1  # one task is refused
    summary = json.loads(capsys.readouterr().out)["tasks"]
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(sequential))
    for task in problem["tasks"]:
        argv = [str(pfile), task["command"]]
        for key in ("module", "source", "target", "other", "simple", "direction",
                    "kind", "cap"):
            if key in task:
                argv += [f"--{key}", str(task[key])]
        if "window" in task:
            argv += ["--window", "{}:{}".format(*task["window"])]
        out = f"{task['name']}.json"
        assert main(argv + ["--json", "--out", out]) == summary[task["name"]]["exit"]
        files = [sequential / out, batch / summary[task["name"]]["out"]]
        if files[0].exists() or files[1].exists():
            assert files[0].read_bytes() == files[1].read_bytes(), task
    assert [r["exit"] for r in summary.values()].count(1) == 1
    assert not (batch / "refused.json").exists()
    # a bad argument still exits 2, and the parser still works afterwards
    for bad in (["pd", "--simple", "1", "--kind", "both-ways"], ["pd"], ["no-such-command"]):
        with pytest.raises(SystemExit) as e:
            main([str(pfile)] + bad)
        assert e.value.code == 2
    capsys.readouterr()
    assert main([str(pfile), "pd", "--simple", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["1"]["proj"]["kind"] == "exact"


def test_run_tasks_parses_the_problem_once(tmp_path, capsys, monkeypatch):
    # every task runs on the one parsed problem, so on one algebra and its
    # memos; each task's file and exit code are those of the same command run
    # on its own, which parses the file afresh
    import gradedquiver.cli as cli
    from gradedquiver.problem import COMMANDS

    seq_file = tmp_path / "given_seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(seq_file)]) == 0
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    flags = {"validate": {}, "dims": {"module": "P1", "window": [0, 3]},
             "hom": {"source": "P1", "target": "S1"}, "ext1": {"module": "S1", "target": "S2"},
             "rad": {"module": "P1"}, "top": {"module": "P2"}, "soc": {"module": "I1"},
             "cover": {"module": "S2m1"}, "envelope": {"module": "S1"},
             "present": {"module": "S2"}, "copresent": {"module": "S1"},
             "transpose": {"module": "S1"}, "nakayama": {"module": "P2"},
             "tau": {"module": "S2"}, "tau-inv": {"module": "S1"},
             "ars": {"module": "S2", "direction": "starting"},
             "verify-ars": {"sequence": str(seq_file)},
             "ar-formula": {"module": "S1", "other": "S2"},
             "pd": {"simple": "all", "cap": 5}, "criteria": {"cap": 4},
             "analyze-quiver": {}}
    assert set(flags) == set(COMMANDS) - {"run-tasks"}
    problem["tasks"] = [dict(flags[c], name=f"t_{c}", command=c) for c in flags]
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem))
    batch, alone = tmp_path / "batch", tmp_path / "alone"
    batch.mkdir()
    alone.mkdir()
    parses = [0]
    parse_problem = cli.parse_problem

    def counted(path):
        parses[0] += 1
        return parse_problem(path)

    monkeypatch.setattr(cli, "parse_problem", counted)
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(batch))
    main([str(pfile), "run-tasks", "--json"])
    assert parses[0] == 1
    summary = json.loads(capsys.readouterr().out)["tasks"]
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(alone))
    for task in problem["tasks"]:
        argv = [str(pfile), task["command"]]
        for key, value in task.items():
            if key == "window":
                argv += ["--window", "{}:{}".format(*value)]
            elif key not in ("name", "command"):
                argv += [f"--{key}", str(value)]
        out = f"{task['name']}.json"
        assert main(argv + ["--json", "--out", out]) == summary[task["name"]]["exit"], task
        assert (alone / out).read_bytes() == (batch / out).read_bytes(), task
    assert parses[0] == 1 + len(problem["tasks"])


def test_verify_ars_rejects_malformed_sequence_files(tmp_path, capsys):
    # a malformed sequence file is an input error (exit 2), never a crash
    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(out)]) == 0
    good = json.loads(out.read_text())
    bad_key, bad_window, bad_rows, bad_flags = (json.loads(out.read_text()) for _ in range(4))
    bad_key["left_map"]["blocks"] = {"(0": [["1"]]}
    bad_window["left"]["window"] = 5
    bad_rows["right_map"]["blocks"] = {"(0,1)": 5}
    bad_flags["middle"]["flags"] = "exact"
    for k, data in enumerate([[1, 2], bad_key, bad_window, bad_rows, bad_flags,
                              dict(good, left=5), dict(good, right_map=[])]):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([fix("fix_b"), "verify-ars", "--sequence", str(path)]) == 2, data
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("direction", ["sideways", 7, None])
def test_verify_ars_refuses_a_direction_other_than_ending_or_starting(direction, tmp_path,
                                                                     capsys):
    # the direction decides which sequence is checked, so any other value is
    # an input error, never read as "ending"
    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(out)]) == 0
    seq = json.loads(out.read_text())
    assert seq["direction"] == "ending"
    seq["direction"] = direction
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(seq))
    capsys.readouterr()
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad)]) == 2
    assert capsys.readouterr().err == ("error: direction: expected 'ending' or 'starting', "
                                       f"got {direction!r}\n")
    del seq["direction"]  # an absent direction is an ending sequence's
    bad.write_text(json.dumps(seq))
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad)]) == 0


def test_module_flags_other_than_exact_or_truncated_are_input_errors(tmp_path, capsys):
    # a misspelt flag is named (exit 2), never read as "truncated"
    problem = base_problem()
    problem["modules"]["M"] = {"window": [0, 0], "dims": {"(0,1)": 1},
                               "flags": {"below": "exakt"}}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    capsys.readouterr()
    assert main([str(pfile), "dims", "--module", "M", "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: modules.M.flags.below") and "'exakt'" in err, err
    problem["modules"]["M"]["flags"] = {"below": "truncated", "above": "exact"}
    pfile.write_text(json.dumps(problem))
    assert main([str(pfile), "dims", "--module", "M", "--json"]) == 0

    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(out)]) == 0
    seq = json.loads(out.read_text())
    seq["right"]["flags"]["above"] = "truncatd"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(seq))
    capsys.readouterr()
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: right.flags.above") and "'truncatd'" in err, err


def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    # exit 2 with the path named, never an OSError traceback
    assert main([fix("fix_b"), "validate", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: cannot write into ") and "missing" in err, err
    assert not list(tmp_path.iterdir())


def test_a_failed_replace_leaves_no_temporary_file(tmp_path, capsys):
    # the output path is a directory: the temporary file is written, the
    # replace fails, and the temporary file goes
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main([fix("fix_b"), "validate", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out: cannot write {taken}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not list(taken.iterdir())


def malformed(mutate):
    with open(fix("fix_b"), encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["tasks"] = [{"name": "dims_p1", "command": "dims", "module": "P1"}]
    mutate(problem)
    return problem


def flag_refusal(argv):
    """What argparse prints after "error: " when the command line refuses
    these flags; its wording varies across Python versions."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        main([fix("fix_b")] + argv)
    return err.getvalue().rstrip("\n").split(": error: ", 1)[1]


BAD_PROBLEMS = {
    "standard-not-an-object": (
        lambda p: p["modules"].update(bad={"standard": ["S", "1"]}),
        "modules.bad.standard: expected an object"),
    "non-integer-shift": (
        lambda p: p["modules"].update(bad={"standard": {"kind": "S", "vertex": "1",
                                                        "shift": "one"}}),
        "modules.bad.standard.shift: expected an integer, got 'one'"),
    "fractional-shift": (
        lambda p: p["modules"].update(bad={"standard": {"kind": "S", "vertex": "1",
                                                        "shift": 1.5}}),
        "modules.bad.standard.shift: expected an integer, got 1.5"),
    "run-tasks-as-a-task": (
        lambda p: p["tasks"].append({"command": "run-tasks"}),
        "tasks[1].command: run-tasks cannot run as a task"),
    "unknown-command": (
        lambda p: p["tasks"].append({"command": "no-such-command"}),
        "tasks[1].command: unknown command 'no-such-command'"),
    "window-not-two-integers": (
        lambda p: p["tasks"].append({"command": "dims", "module": "P1", "window": [0, "3"]}),
        "tasks[1].window: expected two integers [lo, hi], got [0, '3']"),
    "window-of-three": (
        lambda p: p["tasks"].append({"command": "dims", "module": "P1", "window": [0, 1, 2]}),
        "tasks[1].window: expected two integers [lo, hi], got [0, 1, 2]"),
    "reversed-window": (
        lambda p: p["tasks"].append({"command": "dims", "module": "P1", "window": [3, 0]}),
        "tasks[1].window: expected lo <= hi, got [3, 0]"),
    "negative-cap": (
        lambda p: p["tasks"].append({"command": "pd", "simple": "all", "cap": -1}),
        "tasks[1].cap: expected an integer >= 0, got -1"),
    "non-integer-cap": (
        lambda p: p["tasks"].append({"command": "pd", "simple": "all", "cap": "ten"}),
        "tasks[1].cap: expected an integer >= 0, got 'ten'"),
    "task-flag-out-of-choices": (
        lambda p: p["tasks"].append({"command": "pd", "simple": "all", "kind": "sideways"}),
        "tasks[1]: " + flag_refusal(["pd", "--simple", "all", "--kind", "sideways"])),
    "task-missing-a-required-flag": (
        lambda p: p["tasks"].append({"command": "dims"}),
        "tasks[1]: the following arguments are required: --module"),
    "empty-name": (
        lambda p: p["tasks"].append({"name": "", "command": "validate"}),
        "tasks[1].name: '' is not a plain file name"),
    "dot-name": (
        lambda p: p["tasks"].append({"name": ".", "command": "validate"}),
        "tasks[1].name: '.' is not a plain file name"),
    "dot-dot-name": (
        lambda p: p["tasks"].append({"name": "..", "command": "validate"}),
        "tasks[1].name: '..' is not a plain file name"),
    "escaping-name": (
        lambda p: p["tasks"].append({"name": "../../escape", "command": "validate"}),
        "tasks[1].name: '../../escape' is not a plain file name"),
    "backslash-name": (
        lambda p: p["tasks"].append({"name": "a\\b", "command": "validate"}),
        "tasks[1].name: 'a\\\\b' is not a plain file name"),
}


@pytest.mark.parametrize("case", BAD_PROBLEMS)
def test_malformed_problem_files_are_refused_before_any_task_runs(case, tmp_path, capsys,
                                                                  monkeypatch):
    mutate, message = BAD_PROBLEMS[case]
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    pfile = work / "problem.json"
    pfile.write_text(json.dumps(malformed(mutate)))
    monkeypatch.chdir(work)
    capsys.readouterr()
    for command in ("validate", "run-tasks"):
        assert main([str(pfile), command]) == 2, command
        assert capsys.readouterr().err == f"error: {message}\n"
    # nothing ran: no task wrote its output anywhere
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "problem.json"]


# a bad module block, mutated in place, and the field-addressed message that
# refuses it (after the block's own address)
BAD_MODULE_BLOCKS = {
    "negative-dim": (lambda m: m["dims"].update({"(0,1)": -1}),
                     'dims["(0,1)"]: expected a non-negative integer, got -1'),
    "fractional-dim": (lambda m: m["dims"].update({"(0,1)": 1.5}),
                       'dims["(0,1)"]: expected a non-negative integer, got 1.5'),
    "string-dim": (lambda m: m["dims"].update({"(0,1)": "2"}),
                   'dims["(0,1)"]: expected a non-negative integer, got \'2\''),
    "unknown-vertex": (lambda m: m["dims"].update({"(0,9)": 1}),
                       'dims["(0,9)"]: unknown vertex \'9\''),
    "boolean-window-bound": (lambda m: m.update(window=[0, True]),
                             "window: expected two integers, got [0, True]"),
    "reversed-window": (lambda m: m.update(window=[3, 1]),
                        "window: expected lo <= hi, got [3, 1]"),
    "duplicate-piece": (lambda m: m["dims"].update({"(0,1)": 1, "(0, 1)": 2}),
                        'dims["(0, 1)"]: duplicate piece (0, \'1\')'),
    "piece-outside-window": (lambda m: m.update(window=[0, 0], dims={"(0,1)": 1, "(9,1)": 1}),
                             'dims["(9,1)"]: degree 9 outside window [0, 0]'),
    "map-into-a-zero-piece": (lambda m: m.update(window=[0, 0], dims={"(0,1)": 1},
                                                 maps={"a@0": [["1"]]}),
                              'maps["a@0"]: expected a 0x1 matrix'),
    "string-row": (lambda m: m.update(window=[0, 1], dims={"(0,1)": 1, "(1,1)": 1, "(1,2)": 1},
                                      maps={"a@0": ["1"]}),
                   'maps["a@0"]: expected a 1x1 matrix'),
}


@pytest.mark.parametrize("case", BAD_MODULE_BLOCKS)
def test_bad_module_blocks_are_field_addressed_input_errors(case, tmp_path, capsys):
    mutate, message = BAD_MODULE_BLOCKS[case]
    problem = base_problem()
    problem["modules"]["M"] = {"window": [0, 0], "dims": {"(0,1)": 1}}
    mutate(problem["modules"]["M"])
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    capsys.readouterr()
    for command in (["validate"], ["dims", "--module", "M", "--json"],
                    ["present", "--module", "M"]):
        assert main([str(pfile)] + command) == 2, command
        assert capsys.readouterr().err == f"error: modules.M.{message}\n", command
    # the same block as a term of a sequence file
    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(out)]) == 0
    seq = json.loads(out.read_text())
    mutate(seq["left"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(seq))
    capsys.readouterr()
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: left.{message}\n"


def test_a_module_block_breaking_a_relation_is_field_addressed(tmp_path, capsys):
    # b*a = 0 in the algebra, but this block sends the generator along a, then b
    problem = base_problem()
    problem["modules"]["M"] = {"window": [0, 2], "dims": {"(0,1)": 1, "(1,1)": 1, "(2,2)": 1},
                               "maps": {"a@0": [["1"]], "b@1": [["1"]]}}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    capsys.readouterr()
    for command in (["validate"], ["dims", "--module", "M", "--json"]):
        assert main([str(pfile)] + command) == 2, command
        assert (capsys.readouterr().err
                == "error: modules.M.maps: relation not annihilated: (0, 0)\n")


@pytest.mark.parametrize("command", ["dims", "tau", "hom", "ar-formula"])
@pytest.mark.parametrize("module", ["S1", "P1"])
def test_a_reversed_window_is_refused_at_the_flag(command, module, capsys):
    # the same exit 2 and message whatever the module: the flag is refused
    # before any module is realized
    names = {"hom": ["--source", module, "--target", module],
             "ar-formula": ["--module", module, "--other", module]}
    argv = [fix("fix_b"), command, *names.get(command, ["--module", module])]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--window", "5:3"])
    assert e.value.code == 2
    assert "argument --window: window 5:3 is reversed" in capsys.readouterr().err
    assert main(argv + ["--window", "3:3", "--json"]) in (0, 1)


@pytest.mark.parametrize("command", [["pd", "--simple", "all"], ["tau", "--module", "S1"],
                                     ["ars", "--module", "S1"], ["criteria"]])
def test_a_negative_cap_is_refused_at_the_flag(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([fix("fix_b"), *command, "--cap", "-1"])
    assert e.value.code == 2
    assert "argument --cap: cap -1 is negative" in capsys.readouterr().err


def test_cap_zero_stays_valid_for_pd_but_not_for_criteria(capsys):
    assert main([fix("fix_b"), "pd", "--simple", "all", "--cap", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["1"]["proj"]["value"] == 0
    assert main([fix("fix_b"), "criteria", "--cap", "0"]) == 2
    assert capsys.readouterr().err == "error: caps must be positive\n"


# (cap, accepted): one rule for the `--cap` flag and for a task's cap, which
# `run-tasks` forwards to the flag as str(cap)
CAPS = [(0, True), (3, True), ("03", True), (-1, False), ("x", False), (2.5, False),
        (True, False)]


@pytest.mark.parametrize("cap, accepted", CAPS, ids=[repr(c) for c, _ in CAPS])
def test_a_cap_is_accepted_or_refused_alike_as_flag_and_as_task(cap, accepted, tmp_path,
                                                                capsys, monkeypatch):
    code = None
    with contextlib.suppress(SystemExit):
        code = main([fix("fix_b"), "pd", "--simple", "all", "--cap", str(cap), "--json"])
    flag_out, flag_err = capsys.readouterr()
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(malformed(
        lambda p: p["tasks"].append({"name": "pd", "command": "pd", "simple": "all",
                                     "cap": cap}))))
    monkeypatch.chdir(tmp_path)
    task_code = main([str(pfile), "run-tasks"])
    task_err = capsys.readouterr().err
    if accepted:
        assert (code, flag_err) == (0, "")
        assert (task_code, task_err) == (0, "")
        assert json.loads((tmp_path / "pd.json").read_text()) == json.loads(flag_out)
    else:
        assert code is None
        want = (f"cap {cap} is negative; expected an integer >= 0" if cap == -1
                else f"invalid int value: {str(cap)!r}")
        assert f"argument --cap: {want}" in flag_err
        assert task_code == 2
        assert task_err == f"error: tasks[1].cap: expected an integer >= 0, got {cap!r}\n"
        assert not (tmp_path / "pd.json").exists()


def with_map_module(problem):
    """The problem with a module M whose one map a@0 has the entry "2"."""
    problem["modules"]["M"] = {"window": [0, 1], "dims": {"(0,1)": 1, "(1,1)": 1},
                               "maps": {"a@0": [["2"]]}}
    return problem


def set_map_entry(value):
    return lambda p: p["modules"]["M"]["maps"].update({"a@0": [[value]]})


def set_coeff(value, field="Q"):
    return lambda p: p.update(field=field) or p["relations"][0].update(coeffs=[value])


# every scalar of a problem file is read by one rule, `Field.parse` on its
# text; a malformed one is an input error addressed to where it stands
NOT_A_SCALAR = "expected an integer or a string, got"
BAD_SCALARS = {
    "letters-as-coefficient": (set_coeff("abc"),
                               "relations[0].coeffs[0]: 'abc' is not a scalar of Q"),
    "float-coefficient-mod-3": (set_coeff(0.5, "Fp:3"),
                                f"relations[0].coeffs[0]: {NOT_A_SCALAR} 0.5"),
    "decimal-coefficient-mod-3": (set_coeff("0.5", "Fp:3"),
                                  "relations[0].coeffs[0]: '0.5' is not a scalar of Fp:3"),
    "float-coefficient": (set_coeff(0.1), f"relations[0].coeffs[0]: {NOT_A_SCALAR} 0.1"),
    "boolean-coefficient": (set_coeff(True), f"relations[0].coeffs[0]: {NOT_A_SCALAR} True"),
    "zero-denominator-coefficient": (set_coeff("1/0"),
                                     "relations[0].coeffs[0]: '1/0' is not a scalar of Q"),
    "modulus-not-a-number": (lambda p: p.update(field="Fp:x"),
                             "field: unknown field tag 'Fp:x'"),
    "zero-denominator-map-entry": (set_map_entry("1/0"),
                                   'modules.M.maps["a@0"]: \'1/0\' is not a scalar of Q'),
    "float-map-entry": (set_map_entry(0.1), f'modules.M.maps["a@0"]: {NOT_A_SCALAR} 0.1'),
    "float-map-entry-mod-3": (lambda p: set_map_entry(0.1)(p) or p.update(field="Fp:3"),
                              f'modules.M.maps["a@0"]: {NOT_A_SCALAR} 0.1'),
    "boolean-map-entry": (set_map_entry(True), f'modules.M.maps["a@0"]: {NOT_A_SCALAR} True'),
    "letters-as-map-entry": (set_map_entry("x"),
                             'modules.M.maps["a@0"]: \'x\' is not a scalar of Q'),
    # no exponent (the text below alone took seconds to read), underscore or
    # digit outside ASCII, on every Python version and field
    "exponent-coefficient": (set_coeff("1e10000000"),
                             "relations[0].coeffs[0]: '1e10000000' is not a scalar of Q"),
    "exponent-map-entry": (set_map_entry("1e10000000"),
                           'modules.M.maps["a@0"]: \'1e10000000\' is not a scalar of Q'),
    "underscore-coefficient": (set_coeff("1_000"),
                               "relations[0].coeffs[0]: '1_000' is not a scalar of Q"),
    "underscore-coefficient-mod-3": (set_coeff("1_000", "Fp:3"),
                                     "relations[0].coeffs[0]: '1_000' is not a scalar of Fp:3"),
    "underscore-map-entry-mod-3": (lambda p: set_map_entry("1_000")(p) or p.update(field="Fp:3"),
                                   'modules.M.maps["a@0"]: \'1_000\' is not a scalar of Fp:3'),
    "arabic-digits-coefficient": (set_coeff("\u0661\u0662"),
                                  "relations[0].coeffs[0]: '\u0661\u0662' is not a scalar of Q"),
    "arabic-digits-map-entry-mod-3": (
        lambda p: set_map_entry("\u0661\u0662")(p) or p.update(field="Fp:3"),
        'modules.M.maps["a@0"]: \'\u0661\u0662\' is not a scalar of Fp:3'),
}


@pytest.mark.parametrize("case", BAD_SCALARS)
def test_malformed_scalars_are_field_addressed_input_errors(case, tmp_path, capsys):
    mutate, message = BAD_SCALARS[case]
    problem = with_map_module(base_problem())
    mutate(problem)
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    capsys.readouterr()
    for command in (["validate"], ["dims", "--module", "M", "--json"]):
        assert main([str(pfile)] + command) == 2, command
        assert capsys.readouterr().err == f"error: {message}\n", command


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_integer_and_text_scalars_read_alike(field, tmp_path, capsys):
    # 2, "2" and " 5 " mod 3 are one scalar; a decimal text over Q is exact
    dims = []
    for coeff, entry in ((2, 2), ("2", "2"), (" 2 ", "5" if field == "Fp:3" else "4/2")):
        problem = with_map_module(base_problem())
        set_coeff(coeff, field)(problem)
        set_map_entry(entry)(problem)
        pfile = tmp_path / "problem.json"
        pfile.write_text(json.dumps(problem))
        assert main([str(pfile), "dims", "--module", "M", "--json"]) == 0
        dims.append(json.loads(capsys.readouterr().out))
    assert dims[0] == dims[1] == dims[2] and dims[0]["maps"] == {"a@0": [["2"]]}


@pytest.mark.parametrize("entry", ["1/0", 0.1, True, "abc", "row", "1e10000000", "1_000",
                                   "\u0661\u0662"])
def test_malformed_sequence_block_entries_are_field_addressed(entry, tmp_path, capsys):
    # "row" puts the text "1" where the row ["1"] stands, which would
    # otherwise be read character by character
    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(out)]) == 0
    seq = json.loads(out.read_text())
    key = sorted(seq["left_map"]["blocks"])[0]
    if entry == "row":
        seq["left_map"]["blocks"][key] = ["1"]
    else:
        seq["left_map"]["blocks"][key][0][0] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(seq))
    capsys.readouterr()
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad)]) == 2
    why = ("expected a list of rows, got ['1']" if entry == "row"
           else f"{entry!r} is not a scalar of Q" if isinstance(entry, str)
           else f"{NOT_A_SCALAR} {entry!r}")
    assert capsys.readouterr().err == f'error: left_map.blocks["{key}"]: {why}\n'
