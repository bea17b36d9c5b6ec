"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 1's injective-dimension clause is recorded as a
strict xfail: on the shipped 6-vertex truncation every simple has certified
finite injective dimension, so the clause cannot hold as stated (see the
README fixture notes).
"""

import itertools
import random
import time

import pytest

from gradedquiver import (QQ, GF, Quiver, GradedAlgebra,
                          GradedModule, standard_module, direct_sum)
from gradedquiver.presentations import (ProjSum, minimal_presentation,
                                        injective_envelope,
                                        graded_dimension, resolution)
from gradedquiver.homs import ext1, ExtSpace, underline_hom_dim, is_strongly_indecomposable
from gradedquiver.artheory import (TransposeData, transpose, tau, tau_inverse,
                                   nakayama, almost_split_sequence,
                                   verify_almost_split, find_isomorphism)

from conftest import (make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel, transpose_back,
                      overline_hom_dim, is_radical, kernel)
from ext_oracle import ext1_dim_oracle, ext1_dim_oracle_exhaustive
from ext_window_oracle import WindowedExtSpace
from injective_oracle import nakayama_pairing_dims
from quiver_paths import count_paths


def S(alg, v, s=0, window=None):
    return standard_module(alg, "S", v, s, window=window)


def _report(name, started, budget=None):
    elapsed = time.monotonic() - started
    line = f"[acceptance] {name}: PASS ({elapsed:.2f}s)"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget"


# -- samplers -------------------------------------------------------------------


def layer_module(alg, kind, v, s, lo_off, hi_off):
    """A slice of a standard module between two radical/socle layers."""
    big = standard_module(alg, kind, v, s,
                          window=(lo_off - 1, hi_off + 1)
                          if kind == "P" else (lo_off - 1, hi_off + 1))
    dims = {(d, x): n for (d, x), n in big.dims.items() if lo_off <= d <= hi_off}
    maps = {(nm, d): m for (nm, d), m in big.maps.items()
            if lo_off <= d and d + 1 <= hi_off}
    if not dims:
        return None
    return GradedModule(alg, lo_off, hi_off, dims, maps)


def hull_sum(parts):
    lo = min(p.lo for p in parts)
    hi = max(p.hi for p in parts)
    total, _, _ = direct_sum([p.with_window(lo, hi) for p in parts])
    return total


def as_exact(m, lo, hi):
    """Re-declare a realization exact on [lo, hi] (callers justify this)."""
    dims = {k: v for k, v in m.dims.items() if lo <= k[0] <= hi}
    maps = {k: v for k, v in m.maps.items() if lo <= k[1] and k[1] + 1 <= hi}
    return GradedModule(m.algebra, lo, hi, dims, maps)


def sample_fd_modules(alg, rng, count):
    out = []
    verts = alg.quiver.vertices
    guard = 0
    while len(out) < count and guard < count * 20:
        guard += 1
        choice = rng.random()
        v = rng.choice(verts)
        s = rng.randint(-2, 2)
        if choice < 0.35:
            out.append(S(alg, v, s))
            continue
        if choice < 0.65:
            i = rng.randint(0, 1)
            k = i + rng.randint(1, 2)
            m = layer_module(alg, "P", v, s, -s + i, -s + k)
        elif choice < 0.85:
            i = rng.randint(0, 1)
            k = i + rng.randint(1, 2)
            m = layer_module(alg, "I", v, s, -s - k, -s - i)
        else:
            if len(out) < 2:
                continue
            m = hull_sum([rng.choice(out), rng.choice(out)])
        if m is not None and not m.is_zero() and sum(m.dims.values()) <= 12:
            out.append(m)
    return out


def random_monomial_algebra(seed, field=QQ, max_vertices=4):
    """A seeded monomial algebra with tame piece growth.

    Candidates whose raw path counts explode are rejected before any piece
    is computed (path counts bound piece dimensions and computation cost).
    """
    rng = random.Random(seed)
    nv = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    arrows = []
    for k in range(rng.randint(1, nv + 1)):
        arrows.append((f"a{k}", rng.choice(vertices), rng.choice(vertices)))
    q = Quiver(vertices, arrows)
    paths_total = sum(count_paths(q, d, x, y)
                      for d in range(10) for x in vertices for y in vertices)
    if paths_total > 220:
        return None
    relations = []
    seen = set()
    for a in q.arrows:
        for b in q.arrows_from[a.target]:
            if rng.random() < 0.7:
                names = (b.name, a.name)
                if names not in seen:
                    seen.add(names)
                    relations.append(rel(q, [(1, names)]))
    return GradedAlgebra(q, field, relations)


def seeded_random_algebras(count, start_seed=0, field=QQ):
    out = []
    seed = start_seed
    while len(out) < count:
        alg = random_monomial_algebra(seed, field=field)
        seed += 1
        if alg is not None:
            out.append(alg)
    return out


# -- criterion 1: FIX-D dimension tables ------------------------------------------


def test_criterion_1_pd_table():
    started = time.monotonic()
    fix_d = make_fix_d()
    for n in range(6):
        rep = graded_dimension(S(fix_d, str(n)), "proj", 10)
        assert rep["kind"] == "exact" and rep["value"] == n, (n, rep)
    _report("criterion 1 (pd table of the linear fixture = 0..5)", started,
            budget=5.0)


def test_criterion_1_id_certification_convention():
    # finiteness is certified only where a cosyzygy vanishes; on the finite
    # truncation the chains do vanish, at the boundary vertex, so the honest
    # table is id(S_n) = 5 - n.
    started = time.monotonic()
    fix_d = make_fix_d()
    for n in range(6):
        rep = graded_dimension(S(fix_d, str(n)), "inj", 10)
        assert rep["kind"] == "exact" and rep["value"] == 5 - n, (n, rep)
    # at caps below the true value the verdict stays at-least, never "no"
    rep = graded_dimension(S(fix_d, "0"), "inj", 3)
    assert rep == {"kind": "at-least", "value": 3, "window": rep["window"]}
    _report("criterion 1 (id certified only by vanishing cosyzygies)", started,
            budget=5.0)


@pytest.mark.xfail(strict=True,
                   reason="unattainable on the 6-vertex truncation: the "
                          "boundary simple is injective, so every cosyzygy "
                          "chain terminates and all injective dimensions are "
                          "certified finite; see the README fixture notes")
def test_criterion_1_id_clause_as_stated():
    fix_d = make_fix_d()
    table = {n: graded_dimension(S(fix_d, str(n)), "inj", 10) for n in range(6)}
    assert all(table[n]["kind"] == "at-least" for n in range(1, 6))
    assert table[0]["kind"] == "exact"


# -- criterion 2: FIX-A socle and radical ------------------------------------------


def test_criterion_2_fix_a_socle():
    started = time.monotonic()
    fix_a = make_fix_a()
    P1 = standard_module(fix_a, "P", "1", 0, window=(0, 6))
    soc, _ = P1.socle()
    assert soc.dims == {(1, "2"): 1}
    rad, _ = P1.radical()
    top, _ = P1.top()
    assert top.dims == {(0, "1"): 1}
    for key in P1.dims:
        assert P1.dims[key] == rad.dims.get(key, 0) + top.dims.get(key, 0)
    _report("criterion 2 (loop-fixture socle and radical)", started, budget=1.0)


# -- criterion 3: FIX-B golden almost split sequence --------------------------------


def test_criterion_3_fix_b_sequence():
    started = time.monotonic()
    fix_b = make_fix_b()
    seq = almost_split_sequence(S(fix_b, "1"), "ending")
    assert seq.A.dims == {(1, "2"): 1}
    assert seq.E.dims == {(0, "1"): 1, (1, "2"): 1}
    assert seq.C.dims == {(0, "1"): 1}
    ok, failures = verify_almost_split(seq)
    assert ok, failures
    seq2 = almost_split_sequence(S(fix_b, "2", -1), "starting")
    assert seq2.A.dims == seq.A.dims
    assert seq2.E.dims == seq.E.dims
    assert seq2.C.dims == seq.C.dims
    ok2, failures2 = verify_almost_split(seq2)
    assert ok2, failures2
    _report("criterion 3 (golden almost split sequence, both directions)",
            started, budget=1.0)


# -- criterion 4: AR-formula property suite ------------------------------------------


WIDE = 9


def _formula_sweep(alg, shifts=range(-3, 4)):
    """Check both formulas for all pairs of shifted simples.

    Both sides of each identity commute with simultaneous shifts, so pairs
    collapse to the relative shift; the full pair grid is covered by sweeping
    relative shifts over the difference set.
    """
    verts = alg.quiver.vertices
    pres = {v: minimal_presentation(S(alg, v)) for v in verts}
    tau_real = {}
    ti_data = {}
    for v in verts:
        trd = TransposeData(pres[v])
        if trd.is_zero():
            tau_real[v] = None
        else:
            trmod = trd.realize((-WIDE, WIDE))
            tau_real[v] = trmod.dual_windowed()
        presD = minimal_presentation(S(alg, v).dual())
        trD = TransposeData(presD)
        ti_data[v] = None if trD.is_zero() else trD.d
    rel_shifts = sorted({sx - sm for sx in shifts for sm in shifts})
    shifted_d1 = {(v, r): pres[v].d1.shift(r)
                  for v in verts for r in rel_shifts}
    bad = []
    for vM in verts:
        for vX in verts:
            for r in rel_shifts:
                M = S(alg, vM)
                X = S(alg, vX, r)
                lhs1 = underline_hom_dim(M, X)
                if tau_real[vM] is None:
                    rhs1 = 0
                else:
                    rhs1 = WindowedExtSpace(shifted_d1[(vX, r)], tau_real[vM],
                                            window=(-WIDE, WIDE)).dim
                if lhs1 != rhs1:
                    bad.append(("formula1", vM, vX, r, lhs1, rhs1))
                lhs2 = overline_hom_dim(X, M)
                if ti_data[vM] is None:
                    rhs2 = 0
                else:
                    rhs2 = ExtSpace(ti_data[vM], X).dim
                if lhs2 != rhs2:
                    bad.append(("formula2", vM, vX, r, lhs2, rhs2))
    return bad


def test_criterion_4_ar_formula_suite():
    started = time.monotonic()
    algebras = [make_fix_b(), make_fix_c(), make_fix_d()]
    algebras += seeded_random_algebras(20, start_seed=0)
    failures = []
    for i, alg in enumerate(algebras):
        failures.extend((i, *item) for item in _formula_sweep(alg))
    assert not failures, failures[:10]
    # spot-check that the relative-shift collapse matches absolute pairs
    from gradedquiver.artheory import ar_formula_check
    fix_b = algebras[0]
    r = ar_formula_check(S(fix_b, "1", -2), S(fix_b, "2", -3))
    assert r["formula1_holds"] and r["formula2_holds"]
    _report("criterion 4 (AR-formula suite over fixtures and 20 random "
            "monomial algebras)", started, budget=60.0)


# -- criterion 5: functor round trips --------------------------------------------------


def test_criterion_5_round_trips():
    started = time.monotonic()
    rng = random.Random(5)
    fixtures = [make_fix_b(), make_fix_c(), make_fix_d(), make_fix_a()]
    samples = []
    for alg in fixtures:
        samples.extend(sample_fd_modules(alg, rng, 13))
    samples = samples[:50]
    assert len(samples) == 50
    # double dual
    for M in samples:
        DD = M.dual().dual()
        assert DD.dims == M.dims
        iso = find_isomorphism(DD, M)
        assert iso is not None and iso.is_isomorphism()
    # double transpose on certified indecomposable non-projectives
    checked = 0
    for M in samples:
        pres = minimal_presentation(M)
        if pres.module_is_projective():
            continue
        if is_strongly_indecomposable(M).status != "yes":
            continue
        tr = transpose(M)
        back = transpose_back(tr)
        lo, hi = M.lo - 1, M.hi + 1
        cok, _proj = back.realize((lo, hi)).cokernel()
        assert not any(d < M.lo or d > M.hi for (d, _x) in cok.dims), \
            "double transpose left the original support"
        cok = as_exact(cok, M.lo, M.hi)
        assert cok.dims == M.dims, (M.dims, cok.dims)
        assert find_isomorphism(cok, M) is not None
        checked += 1
    assert checked >= 8
    # translate round trips
    checked_tau = 0
    for M in samples:
        if is_strongly_indecomposable(M).status != "yes":
            continue
        t = tau(M, check_verdict=False)
        if not t.is_zero() and t.module.is_exact:
            back = tau_inverse(t.module, check_verdict=False)
            assert back.module.dims == M.dims
            assert find_isomorphism(back.module, M) is not None
            checked_tau += 1
        ti = tau_inverse(M, check_verdict=False)
        if not ti.is_zero() and ti.module.is_exact:
            back2 = tau(ti.module, check_verdict=False)
            if back2.module.is_exact:
                assert back2.module.dims == M.dims
                assert find_isomorphism(back2.module, M) is not None
    assert checked_tau >= 8
    # Nakayama round trip on serialized presentation differentials
    for alg in fixtures[:3]:
        for v in alg.quiver.vertices[:4]:
            pres = minimal_presentation(S(alg, v))
            if pres.p1.is_zero():
                continue
            back = nakayama(nakayama(pres.d1))
            assert back.to_json() == pres.d1.to_json()
            assert back.src.summands == pres.d1.src.summands
            assert back.dst.summands == pres.d1.dst.summands
    _report("criterion 5 (double dual, double transpose, translate and "
            "Nakayama round trips on 50 samples)", started)


# -- criterion 6: Nakayama pairing ------------------------------------------------------


def test_criterion_6_nakayama_pairing():
    started = time.monotonic()
    rng = random.Random(6)
    for alg in (make_fix_b(), make_fix_c(), make_fix_d()):
        mods = sample_fd_modules(alg, rng, 20)
        verts = alg.quiver.vertices
        probe = verts if len(verts) <= 6 else [verts[i] for i in
                                               sorted(rng.sample(range(len(verts)), 6))]
        for a in probe:
            for s in range(-2, 3):
                psum = ProjSum(alg, [(a, s)])
                for M in mods:
                    lhs, rhs = nakayama_pairing_dims(psum, M)
                    assert lhs == rhs, (a, s, M.dims, lhs, rhs)
    _report("criterion 6 (Nakayama pairing dims across fixtures)", started)


# -- criterion 7: Ext oracle equivalence ---------------------------------------------------


def test_criterion_7_ext_oracle():
    started = time.monotonic()
    from ext_oracle import _hull, _theta_slots
    checked = 0
    nonzero_theta = 0
    nonzero_ext = 0
    for p in (2, 3):
        field = GF(p)
        algebras = seeded_random_algebras(6, start_seed=100 + p, field=field)
        algebras.append(make_fix_b(field=field))
        algebras.append(make_fix_d(field=field, top=3))
        rng = random.Random(70 + p)
        for alg in algebras:
            mods = sample_fd_modules(alg, rng, 8)
            for M, N in itertools.combinations(mods, 2):
                total = sum(M.dims.values()) + sum(N.dims.values())
                if total > 6:
                    continue
                fast = ext1(M, N).dim
                linear = ext1_dim_oracle(M, N)
                assert fast == linear, (M.dims, N.dims, fast, linear)
                Mh, Nh = _hull(M, N)
                _slots, size = _theta_slots(Mh, Nh)
                limit = 12 if p == 2 else 8
                if size > limit:
                    continue
                exhaustive, _count = ext1_dim_oracle_exhaustive(M, N)
                assert fast == exhaustive, (M.dims, N.dims, fast, exhaustive)
                checked += 1
                if size:
                    nonzero_theta += 1
                if fast:
                    nonzero_ext += 1
    assert checked >= 40, f"only {checked} exhaustive instances"
    assert nonzero_theta >= 12, f"only {nonzero_theta} with nontrivial theta"
    assert nonzero_ext >= 6, f"only {nonzero_ext} with nonzero Ext"
    _report(f"criterion 7 (Ext oracle equivalence: {checked} exhaustive "
            f"instances, {nonzero_ext} with nonzero Ext, over F2/F3)",
            started, budget=120.0)


# -- criterion 8: minimality certificates ----------------------------------------------------


def test_criterion_8_minimality_certificates():
    started = time.monotonic()
    rng = random.Random(8)
    for alg in (make_fix_a(), make_fix_b(), make_fix_c(), make_fix_d()):
        mods = [S(alg, v) for v in alg.quiver.vertices[:6]]
        mods += [m for m in sample_fd_modules(alg, rng, 6)]
        for M in mods:
            pres = minimal_presentation(M)
            assert is_radical(pres.d1)
            # Ker(cover) inside rad P: no kernel component in generator degrees
            aug = pres.cover0.realize(M, pres.window)
            K, _ = kernel(aug)
            radP, _ = aug.source.radical()
            for key, n in K.dims.items():
                assert n <= radP.dims.get(key, 0), (M.dims, key)
            # soc(I) inside the image of the envelope
            isum, env = injective_envelope(M)
            soc, soc_incl = env.target.socle()
            for (i, x), n in soc.dims.items():
                img = env.block(i, x).image_basis()
                joint = img.hstack(soc_incl.block(i, x))
                assert joint.rank() == img.rank(), (M.dims, (i, x))
    _report("criterion 8 (minimality certificates across the corpus)", started)


# -- criterion 9: second-syzygy golden file ---------------------------------------------------


def test_criterion_9_second_syzygy_golden():
    started = time.monotonic()
    fix_c = make_fix_c()
    # frozen from the Euler-characteristic oracle over the exact sequence
    # 0 -> K -> P_2<-1> (+) P_3<-1> -> P_1 -> S_1 -> 0
    expected = {}
    for i in range(0, 11):
        for x in fix_c.quiver.vertices:
            n = (fix_c.dim_piece(i - 1, "2", x) + fix_c.dim_piece(i - 1, "3", x)
                 - fix_c.dim_piece(i, "1", x) + (1 if (i, x) == (0, "1") else 0))
            if n:
                expected[(i, x)] = n
    P4m2 = standard_module(fix_c, "P", "4", -2, window=(0, 10))
    assert P4m2.dims == expected
    res = resolution(S(fix_c, "1"), 5, window_hi=10)
    assert res.status == "finite" and res.length == 2
    # a single shifted copy at vertex 4, not two
    assert res.psums[2].summands == (("4", -2),)
    syz = kernel(res.pmaps[1].realize((0, 10)))[0]
    assert syz.is_zero()
    _report("criterion 9 (second syzygy is a single P_4<-2>, frozen from the "
            "dimension-count oracle)", started)
