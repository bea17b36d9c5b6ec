"""Bit-reproducibility: the shipped golden sequence file regenerates exactly."""

import os
import random

from gradedquiver.cli import main
from gradedquiver.artheory import ar_formula_check

from conftest import make_fix_b, make_fix_c, make_fix_d
from test_cli import fix
from test_acceptance import sample_fd_modules, seeded_random_algebras

HERE = os.path.dirname(__file__)


def test_fix_b_sequence_matches_golden(tmp_path):
    out = tmp_path / "seq.json"
    code = main([fix("fix_b"), "ars", "--module", "S1", "--direction", "ending",
                 "--seed", "0", "--json", "--out", str(out)])
    assert code == 0
    with open(os.path.join(HERE, "golden", "fix_b_ars.json"), encoding="utf-8") as fh:
        golden = fh.read()
    assert out.read_text() == golden


def test_ar_formula_on_general_modules():
    # the dimension identities hold for every finitely presented module, not
    # just simples: sweep sampled layers, sums and duals
    rng = random.Random(41)
    algebras = [make_fix_b(), make_fix_d(), make_fix_c()]
    algebras += seeded_random_algebras(6, start_seed=300)
    for alg in algebras:
        mods = sample_fd_modules(alg, rng, 6)
        for M in mods:
            for X in mods[:4]:
                r = ar_formula_check(M, X)
                assert r["formula1_holds"], (M.dims, X.dims, r)
                assert r["formula2_holds"], (M.dims, X.dims, r)
