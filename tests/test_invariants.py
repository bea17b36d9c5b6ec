"""Cross-module invariants tied together in one place."""

from gradedquiver import standard_module, direct_sum
from gradedquiver.presentations import minimal_presentation
from gradedquiver.artheory import transpose, tau, TransposeData

from test_cli import fix
from gradedquiver.cli import main


def test_duality_exchanges_top_and_socle(fix_c, fix_d):
    for alg, v in ((fix_c, "1"), (fix_d, "2")):
        M = standard_module(alg, "P", v, 0, window=(0, 12))
        if not M.is_exact:
            M = standard_module(alg, "P", v, 0, window=(0, 12))
        top, _ = M.top()
        soc_dual, _ = M.dual().socle()
        assert soc_dual.dims == {(-i, x): n for (i, x), n in top.dims.items()}
        soc, _ = M.socle()
        top_dual, _ = M.dual().top()
        assert top_dual.dims == {(-i, x): n for (i, x), n in soc.dims.items()}


def test_transpose_additive_on_sums(fix_d):
    S2 = standard_module(fix_d, "S", "2", 0, window=(0, 1))
    S4 = standard_module(fix_d, "S", "4", 0, window=(0, 1))
    both, _, _ = direct_sum([S2, S4])
    tr_both = transpose(both)
    tr_2 = transpose(S2)
    tr_4 = transpose(S4)
    assert sorted(tr_both.cover_psum.summands) == sorted(
        tr_2.cover_psum.summands + tr_4.cover_psum.summands)
    assert sorted(tr_both.d.src.summands) == sorted(
        tr_2.d.src.summands + tr_4.d.src.summands)
    m_both = tr_both.realize((-3, 3))
    m_2 = tr_2.realize((-3, 3))
    m_4 = tr_4.realize((-3, 3))
    expect = {}
    for part in (m_2, m_4):
        for k, n in part.dims.items():
            expect[k] = expect.get(k, 0) + n
    assert m_both.dims == expect


def test_tau_is_mirrored_transpose(fix_d):
    M = standard_module(fix_d, "S", "3", 0)
    pres = minimal_presentation(M)
    trd = TransposeData(pres)
    trmod = trd.realize((-6, 6))
    t = tau(M, window=(-6, 6), check_verdict=False)
    assert t.module.dims == {(-i, x): n for (i, x), n in trmod.dims.items()}


def test_cli_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main([fix("fix_b"), "ars", "--module", "S1",
                     "--json", "--out", str(out)])
        assert code == 0
    assert out1.read_text() == out2.read_text()
    crit1 = tmp_path / "c1.json"
    crit2 = tmp_path / "c2.json"
    for out in (crit1, crit2):
        assert main([fix("fix_d"), "criteria", "--cap", "8", "--json",
                     "--out", str(out)]) == 0
    assert crit1.read_text() == crit2.read_text()
