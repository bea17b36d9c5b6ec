"""Edge paths: presumed verdicts, unsupported radicals, tampered sequences."""

import json

import pytest

from gradedquiver import (QQ, GF, Quiver, GradedAlgebra, GradedModule, Matrix,
                          standard_module)
from gradedquiver.errors import MathRefusal, UnsupportedRadical
from gradedquiver.homs import end_algebra, is_strongly_indecomposable
from gradedquiver.artheory import tau, almost_split_sequence
from gradedquiver.cli import main

from test_cli import fix


def gaussian_kronecker(field=QQ):
    """A Kronecker module whose endomorphism ring is a quadratic field."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = GradedAlgebra(q, field, [])
    rot = Matrix(field, 2, 2, [[0, field.of(-1)], [1, 0]])
    C = GradedModule(alg, 0, 1, {(0, "1"): 2, (1, "2"): 2},
                     {("a", 0): Matrix.identity(field, 2), ("b", 0): rot})
    return alg, C


def test_presumed_verdict_for_field_extension_end():
    # End(C) is a quadratic field over Q: local but with residue dimension 2,
    # so the verdict is honest "presumed" (no lying "yes", no fake split)
    _alg, C = gaussian_kronecker()
    end = end_algebra(C)
    assert end.dim == 2 and end.radical_basis().cols == 0
    v = is_strongly_indecomposable(C, budget=16)
    assert v.status == "presumed"
    with pytest.raises(MathRefusal, match="verdict"):
        tau(C)
    with pytest.raises(MathRefusal, match="verdict"):
        almost_split_sequence(C, "ending")


def test_presumed_becomes_split_over_f5():
    # over F_5 the rotation has eigenvalues (2 and 3), so the same shape
    # decomposes and the search finds the split
    _alg, C = gaussian_kronecker(GF(5))
    v = is_strongly_indecomposable(C)
    assert v.status == "no"
    assert sorted(v.summand_dims) == [2, 2]


def test_unsupported_radical_propagates():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = GradedAlgebra(q, GF(2), [])
    C = GradedModule(alg, 0, 1, {(0, "1"): 2, (1, "2"): 2},
                     {("a", 0): Matrix(GF(2), 2, 2, [[0, 1], [0, 0]]),
                      ("b", 0): Matrix.identity(GF(2), 2)})
    with pytest.raises(UnsupportedRadical):
        end_algebra(C).radical_basis()
    with pytest.raises(MathRefusal):
        almost_split_sequence(C, "ending")


def test_cli_verify_tampered_sequence(tmp_path, capsys):
    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    # tamper: zero out the right-hand map, breaking surjectivity
    data["right_map"]["blocks"] = {}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main([fix("fix_b"), "verify-ars", "--sequence", str(bad), "--json"])
    # a failed certificate exits 1, as it does for `ars`
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verified"] is False
    assert any("surjective" in m or "rank" in m for m in rep["failures"])
