"""Edge paths: presumed verdicts, unsupported radicals, tampered sequences."""

import json
import os
import subprocess
import sys

import pytest

from gradedquiver import (QQ, GF, Quiver, GradedAlgebra, GradedModule, GradedMorphism, Matrix,
                          standard_module)
from gradedquiver.errors import MathRefusal, UnsupportedRadical
from gradedquiver.homs import ExtSpace, end_algebra, is_strongly_indecomposable
from gradedquiver.artheory import (AlmostSplitSequence, _pushout_sequence, tau,
                                   almost_split_sequence, verify_almost_split)
from gradedquiver.gmodule import direct_sum
from gradedquiver.presentations import minimal_presentation
from gradedquiver.problem import parse_problem
from gradedquiver.cli import main

from test_cli import fix
from test_stable_homs import change_basis


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
    v = is_strongly_indecomposable(C)
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


def widened_tampered_sequence(tmp_path):
    """fix_b's sequence ending at S1 with all three windows set to [-4, 8]
    and middle pieces added at (5, 1), (6, 2) and (7, 1), where the
    dimensions then fail to add."""
    out = tmp_path / "seq.json"
    assert main([fix("fix_b"), "ars", "--module", "S1", "--json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    for term in ("left", "middle", "right"):
        data[term]["window"] = [-4, 8]
    for key in ("(5,1)", "(6,2)", "(7,1)"):
        data["middle"]["dims"][key] = 1
    bad = tmp_path / "widened.json"
    bad.write_text(json.dumps(data))
    return bad


def test_verify_reports_the_first_dimension_mismatch_in_sorted_order(tmp_path, capsys):
    bad = widened_tampered_sequence(tmp_path)
    capsys.readouterr()
    assert main([fix("fix_b"), "verify-ars", "--sequence", str(bad), "--json"]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert "exactness: dims fail to add at (5, '1')" in failures
    assert not any("(6, '2')" in m or "(7, '1')" in m for m in failures), failures


def test_verify_failures_do_not_depend_on_string_hashing(tmp_path):
    bad = widened_tampered_sequence(tmp_path)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    reports = set()
    for hash_seed in ("3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "gradedquiver.cli", fix("fix_b"),
                              "verify-ars", "--sequence", str(bad), "--json"],
                             capture_output=True, text=True, env=env, check=False)
        assert run.returncode == 1, run.stderr
        reports.add(run.stdout)
    assert len(reports) == 1


def test_sum_of_two_sequences_fails_at_its_decomposable_ends():
    # no almost split sequence ends at C + C; here g o Hom(C + C, E + E) is
    # rad End(C + C) = 0, so the indecomposability checks are what fail
    for name, v in (("fix_b", "1"), ("fix_d", "2"), ("fix_d", "4")):
        alg = parse_problem(fix(name)).algebra
        seq = almost_split_sequence(standard_module(alg, "S", v, 0), "ending")
        A2, _ia, pa = direct_sum([seq.A, seq.A])
        E2, ie, pe = direct_sum([seq.E, seq.E])
        C2, ic, _pc = direct_sum([seq.C, seq.C])
        f2 = ie[0].compose(seq.f).compose(pa[0]) + ie[1].compose(seq.f).compose(pa[1])
        g2 = ic[0].compose(seq.g).compose(pe[0]) + ic[1].compose(seq.g).compose(pe[1])
        ok, failures = verify_almost_split(AlmostSplitSequence(A2, E2, C2, f2, g2, {}, "ending"))
        assert not ok
        assert failures == ["right term decomposes", "left term decomposes"], (name, v)


def test_rebased_sum_fails_only_at_its_decomposable_ends():
    # the left term A + A of the doubled sequence, re-based piece by piece,
    # is isomorphic to tau(C + C), but End(A + A) is not local, so no basis
    # map of Hom need be invertible: the isomorphism is not asked for when
    # C + C is not certified, and the ends' own failures fail the sequence
    for v in ("1", "2"):
        alg = parse_problem(fix("fix_c")).algebra
        seq = almost_split_sequence(standard_module(alg, "S", v, 0), "ending")
        assert not all(m.is_zero() for m in seq.A.maps.values())
        A2, _ia, pa = direct_sum([seq.A, seq.A])
        E2, ie, pe = direct_sum([seq.E, seq.E])
        C2, ic, _pc = direct_sum([seq.C, seq.C])
        f2 = ie[0].compose(seq.f).compose(pa[0]) + ie[1].compose(seq.f).compose(pa[1])
        g2 = ic[0].compose(seq.g).compose(pe[0]) + ic[1].compose(seq.g).compose(pe[1])
        B = change_basis(A2, 2)
        fld = alg.field
        blocks = {}
        for (i, x), n in A2.dims.items():
            # change_basis's base of the piece (i, x), inverted
            base = Matrix(fld, n, n, [[2 ** (i - A2.lo) if r <= k else 0 for k in range(n)]
                                      for r in range(n)])
            blocks[(i, x)] = f2.block(i, x) @ base.solve(Matrix.identity(fld, n))
        fB = GradedMorphism(B, E2, blocks)
        assert B.maps != A2.maps
        ok, failures = verify_almost_split(AlmostSplitSequence(B, E2, C2, fB, g2, {}, "ending"))
        assert not ok
        assert failures == ["right term decomposes", "left term decomposes"], v


@pytest.mark.parametrize("k", [0, 1])
def test_pushout_with_presumed_ends_fails_verification(k):
    # End(G) is Q(i): local, but not certified, so a sequence ending at G
    # rests on no certified end and must not verify
    _alg, G = gaussian_kronecker()
    pres = minimal_presentation(G)
    A = tau(G, window=(G.lo - 4, G.hi + 6), check_verdict=False).module
    ext = ExtSpace(pres.d1, A)
    assert ext.dim == 2
    seq = AlmostSplitSequence(*_pushout_sequence(G, A, pres, ext, ext.reps[k]), {}, "ending")
    ok, failures = verify_almost_split(seq)
    assert not ok
    assert failures == ["right term not certified indecomposable: verdict 'presumed'",
                        "left term not certified indecomposable: verdict 'presumed'"]
