"""Resolution tails read off the step memo up to grading shift.

Each differential whose source is exact above the window has an entry in
the algebra's step memo (`GradedAlgebra._resolution_steps`): the next
differential's key up to its own shift, the shift step and the least window
top its own step needs, plus its shift, or a terminal entry where its
syzygy is zero.  A later walk that meets such a differential follows the
entries to a terminal one, within the cap and on a window high enough for
every step, and stops there.  A step whose syzygy is all of its source in
one degree is read formally (`_top_slice_step`).  And a `Resolution` builds
the differentials it skipped only when they are read.

These tests check that none of that changes a result: every resolution on
an algebra whose memo earlier resolutions filled, under one vertex order
and then the other, against a fresh algebra, with psums and pmaps read after
the report; four regression cases, one per way a tail memo was seen to go
wrong; the formal step against `next_differential` wherever it applies; and
no terminal entry for walks that end at the cap, where the step graph has
cycles.
"""

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver, standard_module
from gradedquiver.errors import GradedQuiverError
from gradedquiver.presentations import (_exact_top, _kernel_dims, _top_slice_step,
                                        _up_to_shift, next_differential, resolution)

from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel
from test_resolution_oracle import many_arrow_algebra
from test_resolution_steps import fresh, runs, side
from test_resolution_windows import seeded_algebras_with_long_relations
from test_simple_presentations import dual_numbers
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def outcome(M, cap, **kwargs):
    """The report, then the summands and differentials, built on that read."""
    try:
        res = resolution(M, cap, **kwargs)
    except GradedQuiverError as e:
        return ("raised", type(e).__name__)
    report = res.report()
    return (res.status, res.length, report["window"],
            [p.summands for p in res.psums], [d.to_json() for d in res.pmaps])


def terminals(alg):
    """The step memo's terminal entries: differentials with a zero syzygy."""
    return [key for key, (nxt, _dt, _need) in alg._resolution_steps.items() if nxt is None]


def assert_warm_matches_cold(alg, all_runs=runs):
    """Resolve every simple, both sides, on one warm algebra, the vertices
    forward and then in reverse, so the second pass meets the tails the
    first walked; each outcome against a cold algebra's.  Returns the
    statuses seen and the number of terminal entries kept."""
    warm, cold, seen = fresh(alg), {}, []
    for order in (alg.quiver.vertices, alg.quiver.vertices[::-1]):
        for v in order:
            for kind in ("proj", "inj"):
                for cap, kwargs in all_runs(side(warm, v, kind)):
                    key = (v, kind, cap, tuple(sorted(kwargs.items())))
                    if key not in cold:
                        cold[key] = outcome(side(fresh(alg), v, kind), cap, **kwargs)
                    got = outcome(side(warm, v, kind), cap, **kwargs)
                    assert got == cold[key], (alg.quiver.to_json_dict(), order, key)
                    seen.append(got[0])
    return seen, len(terminals(warm)) + len(terminals(warm.opposite()))


@pytest.mark.parametrize("make", [make_fix_a, make_fix_b, make_fix_c, make_fix_d])
def test_fixture_tails_warm_match_cold(make):
    assert_warm_matches_cold(make())


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_tails_warm_match_cold(field):
    seen, kept = [], 0
    for _kind, alg in seeded_algebras(FIELDS[field]):
        got, k = assert_warm_matches_cold(alg)
        seen += got
        kept += k
    assert {"at-least", "finite", "raised"} <= set(seen) and kept


def test_long_relation_tails_warm_match_cold():
    seen, kept = [], 0
    for alg in seeded_algebras_with_long_relations(6, start_seed=0):
        got, k = assert_warm_matches_cold(alg)
        seen += got
        kept += k
    assert {"at-least", "finite", "raised"} <= set(seen) and kept


def test_many_arrow_tails_warm_match_cold():
    # infinite projectives: small caps and pad keep the windows short
    def small_runs(M):
        return ([(cap, {"pad": 1}) for cap in (1, 2, 3)]
                + [(cap, {"window_hi": M.hi + k, "pad": 1}) for cap in (2, 3) for k in (1, 2)])

    seen = []
    for seed in range(80):
        alg = many_arrow_algebra(seed)
        if alg is not None:
            seen += assert_warm_matches_cold(alg, small_runs)[0]
    assert {"at-least", "finite"} <= set(seen)


# -- one regression case per way a tail memo went wrong ------------------------


def test_tail_window_is_shift_invariant_as_hi_plus_t0():
    # the one step of S_1 on fix_d, from its first source P_0<-1>, ends at a
    # zero syzygy and needs the window to reach degree 2, one past its
    # generator; met again shifted as the second step of S_2's resolution,
    # from P_0<-2>, it needs degree 3.  A window kept as hi - t0 would
    # misjudge every shift but 0
    alg = make_fix_d()
    assert outcome(standard_module(alg, "S", "1", 0), 6)[:3] == ("finite", 1, [0, 12])
    (key, entry), = alg._resolution_steps.items()
    assert key[0] == (("0", 0),) and entry == (None, 0, 1)
    for v in ("2", "3", "4", "5"):
        for cap, kwargs in runs(standard_module(alg, "S", v, 0)):
            S = standard_module(alg, "S", v, 0)
            assert outcome(S, cap, **kwargs) == outcome(
                standard_module(make_fix_d(), "S", v, 0), cap, **kwargs), (v, cap, kwargs)


def test_tail_met_past_the_first_step_needs_that_steps_generators_in_the_window():
    # fix_d, S_2, cap 2, window top 1, pad 1: the second differential has its
    # generator at degree 2, past the top of both windows, so the run fails.
    # A warm memo holds the tail from the shifted first step of S_1; the
    # walk meets it as its second step, where its generators must still be
    # checked against the window
    cold = outcome(standard_module(make_fix_d(), "S", "2", 0), 2, window_hi=1, pad=1)
    assert cold == ("raised", "WindowError")
    alg = make_fix_d()
    outcome(standard_module(alg, "S", "1", 0), 6)
    outcome(standard_module(alg, "S", "2", 0), 6)
    assert terminals(alg)
    assert outcome(standard_module(alg, "S", "2", 0), 2, window_hi=1, pad=1) == cold


def test_cap_is_checked_before_the_next_differential():
    # k[x]/(x^2), cap 2, window top 2, pad 1: d_2's generator at the top
    # grows the window to 3, where the walk stops at the cap; d_3, with its
    # generator at 3, must never be computed
    for alg in (dual_numbers(QQ), dual_numbers(GF(3))):
        S = standard_module(alg, "S", "0", 0)
        got = outcome(S, 2, window_hi=2, pad=1)
        assert got[:3] == ("at-least", 2, [0, 3]) and len(got[3]) == 3


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_at_least_answers_from_a_tail_build_their_differentials(field):
    # on the rad^2 = 0 line every simple's resolution past the first step is
    # a tail the simple below kept; stopping at a cap below pd, or below a
    # window that cannot certify it, still gives every differential up to
    # the length
    top = 8
    warm = make_fix_d(field, top=top)
    for v in warm.quiver.vertices:
        outcome(standard_module(warm, "S", v, 0), top)
    for v in warm.quiver.vertices[2:]:
        for cap in range(int(v) + 1):
            for kwargs in ({}, {"window_hi": 1, "pad": 1}, {"window_hi": 2, "pad": 3}):
                got = outcome(standard_module(warm, "S", v, 0), cap, **kwargs)
                want = outcome(standard_module(make_fix_d(field, top=top), "S", v, 0),
                               cap, **kwargs)
                assert got == want, (v, cap, kwargs)
                if got[0] == "at-least":
                    assert len(got[3]) == got[1] + 1 and len(got[4]) == got[1]


# -- the formal step ---------------------------------------------------------


def formal_steps(M, cap):
    """Along M's resolution, for every step whose source is exact above the
    window: the formal next differential (None where it does not apply) and
    `next_differential`'s."""
    try:
        res = resolution(M, cap)
    except GradedQuiverError:
        return []
    hi = res.window[1]
    alg = M.algebra
    kernel = _kernel_dims(alg, res.psums[0].summands, M.dims, hi)
    out = []
    for d in res.pmaps:
        kernel = _kernel_dims(alg, d.src.summands, kernel, hi)
        if kernel and _exact_top(alg, d.src.summands, hi) is not None:
            out.append((_top_slice_step(alg, d.src.summands, kernel),
                        next_differential(d, res.window)))
    return out


def test_top_slice_step_matches_next_differential():
    algebras = [make() for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)]
    algebras += [make_fix_d(GF(3), top=7)]
    algebras += [alg for field in FIELDS.values() for _kind, alg in seeded_algebras(field)]
    algebras += seeded_algebras_with_long_relations(6, start_seed=0)
    algebras += [alg for alg in map(many_arrow_algebra, range(40)) if alg is not None]
    applied = skipped = 0
    for alg in algebras:
        for v in alg.quiver.vertices:
            for kind in ("proj", "inj"):
                for formal, walked in formal_steps(side(alg, v, kind), 4):
                    if formal is None:
                        skipped += 1
                        continue
                    applied += 1
                    # the same key, shift and canonical scalars
                    assert repr(formal) == repr(_up_to_shift(walked))
    assert applied and skipped


def test_every_line_step_is_a_top_slice():
    alg = make_fix_d(top=6)
    steps = [s for v in alg.quiver.vertices for kind in ("proj", "inj")
             for s in formal_steps(side(alg, v, kind), 7)]
    assert steps and all(formal is not None for formal, _walked in steps)


def truncated_polynomials(field, n):
    """k[x]/(x^n)."""
    q = Quiver(["0"], [("x", "0", "0")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("x",) * n)])])


def test_no_tail_is_kept_for_a_walk_that_ends_at_the_cap():
    # k[x]/(x^n): the syzygies of the simple alternate between k[x]/(x^(n-1))
    # and the simple up to shift (the simple again for n = 2), so no walk
    # ends at a zero syzygy and the step graph is a cycle of period 1 or 2;
    # walks around it must stop at the cap.  Pad 1 leaves some windows too
    # short, which raise or answer below the cap, as a cold algebra does
    for field in FIELDS.values():
        for n in (2, 3, 4):
            alg = truncated_polynomials(field, n)
            for pad in (1, 5, 8):
                for cap in range(10):
                    for kind in ("proj", "inj"):
                        got = outcome(side(alg, "0", kind), cap, pad=pad)
                        want = outcome(side(fresh(alg), "0", kind), cap, pad=pad)
                        assert got == want, (field, n, pad, cap, kind)
                        if pad > 1:
                            assert got[:2] == ("at-least", cap)
                        assert got[0] in ("at-least", "raised")
            for side_alg in (alg, alg.opposite()):
                assert side_alg._resolution_steps and not terminals(side_alg)
                assert len(side_alg._resolution_steps) <= 2
