"""Translate windows come from the formal support of the transpose's cover.

Over k[x]/(x^n) the simple's translates are one-dimensional, at degree 1
(tau) and -1 (tau^-), while the cover of Tr S reaches n - 1 degrees: they
are exact once the cap covers the height of the column, and refused by the
almost split construction, naming the vertex and the degree, below it.
"""

import json

import pytest

from gradedquiver import Quiver, GradedAlgebra, QQ, GF, standard_module
from gradedquiver.cli import main
from gradedquiver.artheory import (tau, tau_inverse, almost_split_sequence,
                                   verify_almost_split, ar_formula_check, transpose)
from gradedquiver.errors import MathRefusal
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.presentations import ProjSum
from gradedquiver.problem import parse_problem_dict

from conftest import make_fix_a, make_fix_c, make_fix_d, rel
from test_derived_memo import random_problem


def truncated_polynomial(n, field=QQ):
    q = Quiver(["1"], [("x", "1", "1")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("x",) * n)])])


def linear_quiver(n, field=QQ):
    vertices = [str(i) for i in range(1, n + 1)]
    q = Quiver(vertices, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])
    return GradedAlgebra(q, field, [])


def test_projective_sum_support():
    alg = truncated_polynomial(7)
    assert alg.height("1", 10) == 6
    assert alg.height("1", 5) is None
    assert ProjSum(alg, [("1", 0), ("1", -2)]).support(10) == (0, 8)
    assert ProjSum(alg, [("1", 1)]).support(5) == (-1, None)
    lo, hi = ProjSum(alg, []).support(10)
    assert lo > hi


@pytest.mark.parametrize("n", [4, 7, 8, 20, 30])
def test_truncated_polynomial_translates_at_cap_n(n):
    alg = truncated_polynomial(n)
    S = standard_module(alg, "S", "1", 0)
    t = tau(S, cap=n)
    assert t.module.is_exact and t.module.dims == {(1, "1"): 1}
    ti = tau_inverse(S, cap=n)
    assert ti.module.is_exact and ti.module.dims == {(-1, "1"): 1}
    for direction in ("ending", "starting"):
        seq = almost_split_sequence(S, direction, cap=n)
        ok, failures = verify_almost_split(seq)
        assert ok, (n, direction, failures)
    for shift in (-1, 0, 1):
        rep = ar_formula_check(S, standard_module(alg, "S", "1", shift))
        assert rep["formula1_holds"] and rep["formula2_holds"], (n, shift, rep)


def test_truncated_polynomial_tau_exact_at_default_cap():
    # the column of k[x]/(x^8) vanishes at degree 8, below the default cap
    S = standard_module(truncated_polynomial(8), "S", "1", 0)
    t = tau(S)
    assert t.module.is_exact and t.module.dims == {(1, "1"): 1}


def test_truncated_polynomial_refuses_below_its_height():
    S = standard_module(truncated_polynomial(20, GF(3)), "S", "1", 0)
    # the translate is still right where it is computed, but flagged
    assert tau(S).module.dims == {(1, "1"): 1}
    assert not tau(S).module.exact_below
    for direction in ("ending", "starting"):
        with pytest.raises(MathRefusal, match=r"vertex 1 does not vanish up to degree 10\b"):
            almost_split_sequence(S, direction)


def test_long_linear_quiver_translates_at_default_cap():
    # 15 vertices: the longest column has height 14, past the default cap but
    # inside the number of vertices, where every column of an acyclic quiver
    # has vanished
    alg = linear_quiver(15)
    verified = 0
    for v in alg.quiver.vertices:
        S = standard_module(alg, "S", v, 0)
        t, ti = tau(S), tau_inverse(S)
        assert t.module.is_exact and ti.module.is_exact, v
        assert t.is_zero() == (v == "15") and ti.is_zero() == (v == "1")
        for direction, skip in (("ending", "15"), ("starting", "1")):
            if v == skip:
                continue
            ok, failures = verify_almost_split(almost_split_sequence(S, direction))
            assert ok, (v, direction, failures)
            verified += 1
    assert verified == 28


def test_requested_window_is_widened_to_the_support():
    S = standard_module(truncated_polynomial(8), "S", "1", 0)
    t = tau(S, window=(0, 0))
    assert (t.module.lo, t.module.hi) == (-6, 1) and t.module.is_exact
    wide = tau(S, window=(-9, 9))
    assert (wide.module.lo, wide.module.hi) == (-9, 9) and wide.module.dims == t.module.dims


@pytest.mark.parametrize("n", [20, 30])
def test_cli_ars_at_cap_n(tmp_path, capsys, n):
    problem = {"field": "Q",
               "quiver": {"vertices": ["1"], "arrows": [{"name": "x", "from": "1", "to": "1"}]},
               "relations": [{"paths": [["x"] * n], "coeffs": ["1"]}],
               "modules": {"S": {"standard": {"kind": "S", "vertex": "1", "shift": 0}}}}
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(problem))
    for direction in ("ending", "starting"):
        assert main([str(path), "ars", "--module", "S", "--direction", direction,
                     "--cap", str(n), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] and out["left"]["flags"] == {"below": "exact", "above": "exact"}
    # at the default cap the refusal names the vertex and the degree
    assert main([str(path), "ars", "--module", "S", "--json"]) == 1
    assert "vertex 1 does not vanish up to degree 10" in capsys.readouterr().err
    assert main([str(path), "tau", "--module", "S", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["module"]["flags"] == {"below": "truncated", "above": "exact"}


# -- realized transposes against the cokernel on the hull ------------------------


def transpose_oracle_algebras():
    """Columns of known height at the larger cap only (k[x]/(x^7)), unknown
    at every cap (the loop of fix_a), acyclic fixtures over Q and F_3, and the
    seeded binomial algebras of degree 2 and 3 over Q, F_2 and F_3."""
    return ([truncated_polynomial(7), make_fix_a(), linear_quiver(6, GF(3)),
             make_fix_c(ray_end=6), make_fix_d(GF(3))]
            + [parse_problem_dict(random_problem(seed)).algebra for seed in range(6)])


@pytest.mark.parametrize("index", range(11))
def test_realized_transpose_is_the_cokernel_on_its_hull(index, monkeypatch):
    # the old path, one cokernel per requested hull, is the oracle; the new one
    # takes at most one cokernel per transpose and cap where the heights are known
    alg = transpose_oracle_algebras()[index]
    made = []
    cokernel = GradedMorphism.cokernel

    def counted(self):
        made.append(self)
        return cokernel(self)

    simples = [standard_module(alg, "S", v, 0) for v in alg.quiver.vertices]
    for M in simples + [S.dual() for S in simples]:
        trdata = transpose(M)
        if trdata.is_zero():
            continue
        for cap in (5, 10):
            lo, hi = trdata.cover_psum.support(cap)
            windows = [(0, 0), (-3, 2), (-9, 9), (2, 5)]
            with monkeypatch.context() as m:
                m.setattr(GradedMorphism, "cokernel", counted)
                made.clear()
                got = [trdata.realize(w, cap) for w in windows]
                assert [trdata.realize(w, cap) for w in windows] == got
            if hi is not None:
                assert len(made) <= 1, (M.dims, cap)
            for w, mod in zip(windows, got):
                hull = (min(w[0], lo), w[1] if hi is None else max(w[1], hi))
                want, _proj = trdata.d.realize(hull).cokernel()
                assert ((mod.lo, mod.hi, mod.exact_below, mod.exact_above)
                        == (want.lo, want.hi, want.exact_below, want.exact_above)), (w, cap)
                assert (mod.algebra, mod.dims, mod.maps) == (want.algebra, want.dims, want.maps)
