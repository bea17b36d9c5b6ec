import json

import pytest

from gradedquiver.cli import main

from test_cli import fix


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
    # run-tasks parses its tasks on 4 threads through the one parser the
    # process keeps; the same commands run one by one must give the same
    # exit codes and byte-identical output files
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
    threaded, sequential = tmp_path / "threaded", tmp_path / "sequential"
    threaded.mkdir()
    sequential.mkdir()
    monkeypatch.setenv("GRADEDQUIVER_OUT_DIR", str(threaded))
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
        files = [sequential / out, threaded / summary[task["name"]]["out"]]
        if files[0].exists() or files[1].exists():
            assert files[0].read_bytes() == files[1].read_bytes(), task
    assert [r["exit"] for r in summary.values()].count(1) == 1
    assert not (threaded / "refused.json").exists()
    # a bad argument still exits 2, and the parser still works afterwards
    for bad in (["pd", "--simple", "1", "--kind", "both-ways"], ["pd"], ["no-such-command"]):
        with pytest.raises(SystemExit) as e:
            main([str(pfile)] + bad)
        assert e.value.code == 2
    capsys.readouterr()
    assert main([str(pfile), "pd", "--simple", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["1"]["proj"]["kind"] == "exact"


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
