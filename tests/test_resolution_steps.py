"""Resolution steps computed once per algebra up to grading shift.

A resolution step whose differential d has its source realized exactly above
the working window depends only on d up to shift, whatever d's target, so the
algebra keeps the next differential as formal data, and a zero syzygy as a
terminal entry (`presentations._resolution_attempt`).  These tests check that
keeping it changes no result: every resolution gives the same outcome on an
algebra whose step memo earlier resolutions filled ("warm") as on a fresh
algebra with the same quiver, field and relations ("cold"), with the
vertices taken forward and in reverse, and with narrow windows that force or
exhaust the retry run after wide windows met the same differentials.
"""

import sys
import threading

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver, standard_module
from gradedquiver.presentations import _exact_top, _up_to_shift, resolution

from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel
from test_resolution_oracle import CAPS, outcome
from test_resolution_windows import seeded_algebras_with_long_relations
from test_standard_columns import seeded_algebras


def fresh(alg):
    return GradedAlgebra(alg.quiver, alg.field, alg.relations)


def side(alg, v, kind):
    S = standard_module(alg, "S", v, 0)
    return S if kind == "proj" else S.dual()


def runs(M):
    """Every cap on its default window, then the windows that force the
    retry, or exhaust it, for the same module."""
    return ([(cap, {}) for cap in CAPS]
            + [(cap, {"window_hi": M.hi + k, "pad": pad})
               for cap in (2, 6) for k in (1, 2) for pad in (1, 3)])


def assert_warm_matches_cold(alg):
    """Resolve every simple, both sides, on one warm algebra per vertex order;
    each outcome against the outcome on a cold algebra.  Returns the
    outcomes' statuses and the number of steps the warm algebras kept."""
    cold = {}
    seen, kept = [], 0
    for order in (alg.quiver.vertices, alg.quiver.vertices[::-1]):
        warm = fresh(alg)
        for v in order:
            for kind in ("proj", "inj"):
                M = side(warm, v, kind)
                for cap, kwargs in runs(M):
                    key = (v, kind, cap, tuple(sorted(kwargs.items())))
                    if key not in cold:
                        cold[key] = outcome(resolution, side(fresh(alg), v, kind), cap, **kwargs)
                    got = outcome(resolution, M, cap, **kwargs)
                    assert got == cold[key], (alg.quiver.to_json_dict(), order, key)
                    seen.append(got[0])
        kept += len(warm._resolution_steps) + len(warm.opposite()._resolution_steps)
    return seen, kept


@pytest.mark.parametrize("make", [make_fix_a, make_fix_b, make_fix_c, make_fix_d])
def test_fixture_resolutions_warm_match_cold(make):
    # fix_a's loop never vanishes, so no step there is kept
    assert_warm_matches_cold(make())


def loop_then_path():
    """A loop x at a and a path a -> b -> c -> e, with zy = wz = 0, over Q."""
    q = Quiver(["a", "b", "c", "e"], [("x", "a", "a"), ("y", "a", "b"),
                                      ("z", "b", "c"), ("w", "c", "e")])
    return GradedAlgebra(q, QQ, [rel(q, [(1, ("z", "y"))]), rel(q, [(1, ("w", "z"))])])


def test_step_with_an_infinite_target_is_kept():
    # S_a = P_a / rad: d_2 = P_c<-2> -> P_a<-1> (+) P_b<-1> has a finite
    # source and an infinite target, and its next differential is kept
    alg = loop_then_path()
    assert_warm_matches_cold(alg)
    warm = fresh(alg)
    res = resolution(standard_module(warm, "S", "a", 0), 6)
    assert res.report() == {"kind": "exact", "value": 3, "window": [0, 12]}
    d2 = res.pmaps[1]
    hi = res.window[1]
    assert _exact_top(d2.src, hi) is not None and _exact_top(d2.dst, hi) is None
    d3 = res.pmaps[2]
    t2, t3 = d2.src.summands[0][1], d3.src.summands[0][1]

    def need(d, t):
        # the source's top and one past its generators, plus the shift
        return max(_exact_top(d.src, hi), max(-s for _b, s in d.src.summands) + 1) + t

    # d_2 -> d_3 up to d_3's own shift, then d_3's zero syzygy
    assert warm._resolution_steps == {
        _up_to_shift(d2, t2): (_up_to_shift(d3, t3), t3 - t2, need(d2, t2)),
        _up_to_shift(d3, t3): (None, 0, need(d3, t3))}


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_seeded_resolutions_warm_match_cold(field):
    seen, kept = [], 0
    for _kind, alg in seeded_algebras({"Q": QQ, "F2": GF(2), "F3": GF(3)}[field]):
        got, k = assert_warm_matches_cold(alg)
        seen += got
        kept += k
    assert {"at-least", "finite", "raised"} <= set(seen) and kept


def test_long_relation_resolutions_warm_match_cold():
    seen = []
    for alg in seeded_algebras_with_long_relations(6, start_seed=0):
        seen += assert_warm_matches_cold(alg)[0]
    assert {"at-least", "finite", "raised"} <= set(seen)


def test_concurrent_resolutions_on_one_algebra_match_cold():
    # insert-once: threads racing on one algebra's step memo may each compute
    # a step, but every resolution must come out as on a cold algebra
    _kind, alg = seeded_algebras(GF(3))[0]
    jobs = [(v, kind, cap) for v in alg.quiver.vertices for kind in ("proj", "inj")
            for cap in CAPS]
    cold = [outcome(resolution, side(fresh(alg), v, kind), cap) for v, kind, cap in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        warm = fresh(alg)
        got = [None] * 8

        def work(k):
            order = jobs if k % 2 else jobs[::-1]
            got[k] = {job: outcome(resolution, side(warm, job[0], job[1]), job[2])
                      for job in order}

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for k in range(8):
            assert [got[k][job] for job in jobs] == cold, k
    finally:
        sys.setswitchinterval(old)
