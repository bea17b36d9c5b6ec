import json
import os

import pytest

from gradedquiver.cli import main
from gradedquiver.problem import parse_problem, parse_problem_dict, canonical_dumps
from gradedquiver.errors import InputError

HERE = os.path.dirname(__file__)
FIX = os.path.join(HERE, os.pardir, "fixtures")


def fix(name):
    return os.path.join(FIX, f"{name}.json")


def base_problem():
    return {
        "field": "Q",
        "quiver": {"vertices": ["1", "2"],
                   "arrows": [{"name": "a", "from": "1", "to": "1"},
                              {"name": "b", "from": "1", "to": "2"}]},
        "relations": [{"paths": [["b", "a"]], "coeffs": ["1"]}],
        "modules": {"S1": {"standard": {"kind": "S", "vertex": "1", "shift": 0}}},
    }


def test_parse_fixture_files():
    for name in ("fix_a", "fix_b", "fix_c", "fix_d"):
        p = parse_problem(fix(name))
        assert p.module_names()


def test_parse_accepts_loop_relation():
    p = parse_problem_dict(base_problem())
    assert p.algebra.dim_piece(2, "1", "2") == 0


def test_parse_rejects_inhomogeneous():
    data = base_problem()
    data["relations"] = [{"paths": [["b", "a"], ["b", "a", "a"]],
                          "coeffs": ["1", "1"]}]
    with pytest.raises(InputError, match="not homogeneous"):
        parse_problem_dict(data)


def test_parse_rejects_short_relation():
    data = base_problem()
    data["relations"] = [{"paths": [["b"]], "coeffs": ["1"]}]
    with pytest.raises(InputError, match=r"\(kQ\+\)\^2"):
        parse_problem_dict(data)


def test_parse_rejects_dangling_arrow():
    data = base_problem()
    data["relations"] = [{"paths": [["z", "a"]], "coeffs": ["1"]}]
    with pytest.raises(InputError, match="relations\\[0\\]"):
        parse_problem_dict(data)


def test_canonical_round_trip():
    p = parse_problem(fix("fix_c"))
    text = canonical_dumps(p.to_json_dict())
    p2 = parse_problem_dict(json.loads(text))
    assert canonical_dumps(p2.to_json_dict()) == text


def test_cli_analyze_quiver(capsys):
    code = main([fix("fix_b"), "analyze-quiver", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["acyclic"] is True


def test_cli_dims(capsys):
    code = main([fix("fix_b"), "dims", "--module", "P1", "--window", "0:3",
                 "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == {"(0,1)": 1, "(1,2)": 1}


def test_cli_ars_fix_b(tmp_path, capsys):
    out_file = tmp_path / "seq.json"
    code = main([fix("fix_b"), "ars", "--module", "S1", "--direction", "ending",
                 "--json", "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["verified"] is True
    assert data["left"]["dims"] == {"(1,2)": 1}
    # round-trip the saved sequence through the verifier command
    code = main([fix("fix_b"), "verify-ars", "--sequence", str(out_file),
                 "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is True


def test_cli_ars_exits_1_when_verification_fails(tmp_path, monkeypatch, capsys):
    from gradedquiver import cli

    good = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json", "--out", str(good)]) == 0
    data = json.loads(good.read_text())
    data["left_map"]["blocks"]["(1,2)"] = [["0"]]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad)]) == 1
    # hand `ars` the tampered sequence in place of the one it constructs
    monkeypatch.setattr(cli, "almost_split_sequence",
                        lambda M, direction, window, cap, seed=None:
                        cli._sequence_from_file(M.algebra, str(bad)))
    capsys.readouterr()
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is False and out["failures"]


def test_cli_has_no_seed_option(capsys):
    # every search is deterministic, so there is no seed to pass
    with pytest.raises(SystemExit) as exc:
        main([fix("fix_b"), "ars", "--module", "S1", "--seed", "0"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_ars_starting_matches_ending(tmp_path):
    end_f = tmp_path / "end.json"
    start_f = tmp_path / "start.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json",
                 "--out", str(end_f)]) == 0
    assert main([fix("fix_b"), "ars", "--module", "S2m1", "--direction",
                 "starting", "--json", "--out", str(start_f)]) == 0
    end = json.loads(end_f.read_text())
    start = json.loads(start_f.read_text())
    assert end["left"]["dims"] == start["left"]["dims"]
    assert end["middle"]["dims"] == start["middle"]["dims"]
    assert end["right"]["dims"] == start["right"]["dims"]


def test_cli_ars_refuses_projective(capsys):
    code = main([fix("fix_b"), "ars", "--module", "P1", "--window", "0:3"])
    assert code == 1


def test_cli_pd_fix_d(capsys):
    code = main([fix("fix_d"), "pd", "--simple", "all", "--cap", "10",
                 "--json"])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    for n in range(6):
        assert table[str(n)]["proj"] == {"kind": "exact", "value": n,
                                         "window": table[str(n)]["proj"]["window"]}


def test_cli_criteria(capsys):
    code = main([fix("fix_d"), "criteria", "--cap", "10", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["boundedness"]["left"]["status"] == "finite"


def test_cli_unknown_module(capsys):
    code = main([fix("fix_b"), "dims", "--module", "nope"])
    assert code == 2


def test_cli_tau(capsys):
    code = main([fix("fix_b"), "tau", "--module", "S1", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["module"]["dims"] == {"(1,2)": 1}


def test_cli_ext1(capsys):
    code = main([fix("fix_b"), "ext1", "--module", "S1", "--target", "S2m1",
                 "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1


def test_cli_ar_formula(capsys):
    code = main([fix("fix_b"), "ar-formula", "--module", "S1", "--other", "S1",
                 "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["formula1_holds"] and rep["formula2_holds"]


def test_cli_present_and_cover(capsys):
    code = main([fix("fix_c"), "present", "--module", "S1", "--json"])
    assert code == 0
    pres = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, pres["p1"])) == [("2", -1), ("3", -1)]
    code = main([fix("fix_c"), "cover", "--module", "S1", "--json"])
    assert code == 0
    cov = json.loads(capsys.readouterr().out)
    assert cov["summands"] == [["1", 0]]


def test_cli_soc_fix_a(capsys):
    code = main([fix("fix_a"), "soc", "--module", "P1", "--window", "0:6",
                 "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == {"(1,2)": 1}
