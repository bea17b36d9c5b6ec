"""Resolutions walked on step keys, against the walk on PMaps.

The program's resolution walk carries each differential it reads formally
as its step-memo key and shift (`presentations._up_to_shift`) and builds a
`PMap` only where one is needed: for `next_differential`, for
`_generated_in_window` on a source not exact above, and when a caller reads
`Resolution.pmaps`; `_differential_onto` is the one place a key becomes a
`PMap`.  `walk_oracle` keeps the earlier walk, which built a `PMap` for
every step.  These tests check:

- the same reports, summands and differentials, entry by entry, as the
  oracle's, warm against cold and under both vertex orders, over Q, F_2 and
  F_3, on the rad^2 = 0 line, the commuting square with a ray, k[x]/(x^n)
  (whose step graph has a cycle), the fixtures and the seeded algebras of
  `test_resolution_oracle.py` (with long relations, and with several arrows
  into one vertex);
- that resolving every simple of the T = 13 line on both sides builds no
  `ProjPresentation`, `Cover` or `PMap`, and reading `psums` builds no
  `PMap` either;
- that every route to a key gives the same key in the same canonical
  scalars, and the memo entry format;
- the T = 30 line's 0 kernels and 122 syzygy counts.
"""

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Quiver, standard_module
from gradedquiver import presentations
from gradedquiver.errors import GradedQuiverError
from gradedquiver.gmodule import GradedMorphism
from gradedquiver.presentations import (Cover, PMap, ProjPresentation, ProjSum, _arrows_key,
                                        _differential_onto, _exact_top, _kernel_dims,
                                        _top_slice_step, _up_to_shift, resolution)

import walk_oracle
from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel
from test_resolution_oracle import many_arrow_algebra
from test_resolution_steps import fresh, runs, side
from test_resolution_tails import truncated_polynomials
from test_resolution_windows import seeded_algebras_with_long_relations
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def entries(d):
    """d's entries with their coefficient tuples as written, so that a
    Fraction and an int of equal value differ."""
    return [[None if e is None else (e.degree, e.source, e.target, repr(e.coeffs))
             for e in row] for row in d.entries]


def outcome(resolve, M, cap, **kwargs):
    """The report, then the summands and the differentials, entry by entry."""
    try:
        res = resolve(M, cap, **kwargs)
    except GradedQuiverError as e:
        return ("raised", type(e).__name__)
    return (res.report(), [p.summands for p in res.psums],
            [(d.src.summands, d.dst.summands, entries(d)) for d in res.pmaps])


def square_with_a_ray(field, end):
    """The commuting square 1 => {2,3} => 4, then the ray 4 -> 5 -> ... -> end."""
    arrows = [("a", "1", "2"), ("b", "1", "3"), ("g", "2", "4"), ("d", "3", "4")]
    arrows += [(f"e{k}", str(k - 1), str(k)) for k in range(5, end + 1)]
    q = Quiver([str(i) for i in range(1, end + 1)], arrows)
    return GradedAlgebra(q, field, [rel(q, [(1, ("g", "a")), (-1, ("d", "b"))])])


def assert_keys_match_pmaps(alg, all_runs=runs):
    """Every simple, both sides, vertices forward and then in reverse: the
    program on one warm algebra per order, against the oracle on a warm
    algebra of its own and the program on a cold one.  Returns the report
    kinds seen."""
    cold, seen = {}, []
    for order in (alg.quiver.vertices, alg.quiver.vertices[::-1]):
        warm, oracle = fresh(alg), fresh(alg)
        for v in order:
            for kind in ("proj", "inj"):
                for cap, kwargs in all_runs(side(warm, v, kind)):
                    key = (v, kind, cap, tuple(sorted(kwargs.items())))
                    if key not in cold:
                        cold[key] = outcome(resolution, side(fresh(alg), v, kind), cap, **kwargs)
                    got = outcome(resolution, side(warm, v, kind), cap, **kwargs)
                    want = outcome(walk_oracle.resolution, side(oracle, v, kind), cap, **kwargs)
                    assert got == want == cold[key], (alg.quiver.to_json_dict(), order, key)
                    seen.append(got[0] if got[0] == "raised" else got[0]["kind"])
    return seen


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_line_walks_match_the_pmap_walk(field):
    seen = []
    for top in range(2, 9):
        seen += assert_keys_match_pmaps(make_fix_d(FIELDS[field], top=top),
                                        lambda M: runs(M) + [(9, {})])
    assert {"exact", "at-least", "raised"} <= set(seen)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_square_with_a_ray_walks_match_the_pmap_walk(field):
    seen = []
    for end in range(5, 10):
        seen += assert_keys_match_pmaps(square_with_a_ray(FIELDS[field], end),
                                        lambda M: runs(M) + [(10, {})])
    assert {"exact", "at-least"} <= set(seen)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cyclic_step_graph_walks_match_the_pmap_walk(field):
    # k[x]/(x^n): the step graph is a cycle, so every walk ends at the cap
    for n in (2, 3, 4):
        seen = assert_keys_match_pmaps(
            truncated_polynomials(FIELDS[field], n),
            lambda M: [(cap, {"pad": pad}) for cap in range(8) for pad in (1, 5)])
        assert "exact" not in seen


@pytest.mark.parametrize("make", [make_fix_a, make_fix_b, make_fix_c, make_fix_d])
def test_fixture_walks_match_the_pmap_walk(make):
    assert_keys_match_pmaps(make())


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_seeded_walks_match_the_pmap_walk(field):
    seen = []
    for _kind, alg in seeded_algebras(FIELDS[field]):
        seen += assert_keys_match_pmaps(alg)
    assert {"exact", "at-least", "raised"} <= set(seen)


def test_long_relation_walks_match_the_pmap_walk():
    seen = []
    for alg in seeded_algebras_with_long_relations(6, start_seed=0):
        seen += assert_keys_match_pmaps(alg)
    assert {"exact", "at-least", "raised"} <= set(seen)


def test_many_arrow_walks_match_the_pmap_walk():
    # infinite projectives: small caps and pad keep the windows short, and
    # sources not exact above build their PMaps
    def small_runs(M):
        return ([(cap, {"pad": 1}) for cap in (1, 2, 3)]
                + [(cap, {"window_hi": M.hi + k, "pad": 1}) for cap in (2, 3) for k in (1, 2)])

    seen = []
    for alg in filter(None, map(many_arrow_algebra, range(40))):
        seen += assert_keys_match_pmaps(alg, small_runs)
    assert {"exact", "at-least"} <= set(seen)


# -- what the walk builds ----------------------------------------------------


def count_inits(monkeypatch, *classes):
    """Counters of the objects built of each class, by wrapping __init__."""
    counts = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_line_walk_builds_no_presentation_cover_or_pmap(field, monkeypatch):
    top = 13
    alg = make_fix_d(FIELDS[field], top=top)
    counts = count_inits(monkeypatch, ProjPresentation, Cover, PMap)
    results = []
    for i, v in enumerate(alg.quiver.vertices):
        S = standard_module(alg, "S", v, 0)
        results.append((resolution(S, top + 1), i))
        results.append((resolution(S.dual(), top + 1), top - i))
    assert all(res.report()["value"] == value for res, value in results)
    assert counts == {"ProjPresentation": 0, "Cover": 0, "PMap": 0}
    psums = [res.psums for res, _value in results]
    assert counts == {"ProjPresentation": 0, "Cover": 0, "PMap": 0}
    assert [len(p) for p in psums] == [value + 1 for _res, value in results]
    # the PMaps are built when read, one per differential
    assert sum(len(res.pmaps) for res, _value in results) == counts["PMap"] > 0
    assert counts["ProjPresentation"] == counts["Cover"] == 0


# -- one key from every route ------------------------------------------------


def simples(alg):
    """Every simple of the algebra and of its opposite, at shifts 0 and 2."""
    return [M for v in alg.quiver.vertices for s in (0, 2)
            for M in (standard_module(alg, "S", v, s), standard_module(alg, "S", v, s).dual())]


def key_algebras():
    algs = [make() for make in (make_fix_a, make_fix_b, make_fix_c, make_fix_d)]
    algs += [make_fix_d(GF(3), top=7), square_with_a_ray(GF(2), 7)]
    algs += [truncated_polynomials(f, 3) for f in FIELDS.values()]
    return algs + [alg for f in FIELDS.values() for _kind, alg in seeded_algebras(f)]


def test_simple_keys_are_the_arrows_pmap():
    for alg in key_algebras():
        for M in simples(alg):
            (i, v), = M.dims
            p0 = ProjSum(M.algebra, [(v, -i)])
            key, t0 = _arrows_key(M.algebra, i, v)
            want = walk_oracle.arrows_out(p0, i, v)
            got = _differential_onto(p0, key, t0)
            assert (got.src.summands, entries(got)) == (want.src.summands, entries(want))
            if want.src.summands:
                assert repr((key, t0)) == repr(_up_to_shift(want))
            assert repr(_up_to_shift(got)) == repr(_up_to_shift(want))


def test_top_slice_keys_are_the_pmaps_they_stand_for():
    applied = 0
    for alg in key_algebras():
        for M in simples(alg):
            try:
                res = walk_oracle.resolution(M, 4)
            except GradedQuiverError:
                continue
            hi = res.window[1]
            A = M.algebra
            kernel = _kernel_dims(A, res.psums[0].summands, M.dims, hi)
            for d in res.pmaps:
                kernel = _kernel_dims(A, d.src.summands, kernel, hi)
                if not kernel or _exact_top(A, d.src.summands, hi) is None:
                    continue
                want = walk_oracle.top_slice_step(d, kernel)
                got = _top_slice_step(A, d.src.summands, kernel)
                assert (got is None) == (want is None)
                if want is not None:
                    applied += 1
                    # the same key, shift and canonical scalars
                    assert repr(got) == repr(_up_to_shift(want))
    assert applied


def test_memo_entries_keep_their_format():
    # (next key up to its own shift, shift step, needed window top plus the
    # shift), or (None, 0, need) at a zero syzygy, as test_resolution_tails reads
    for alg in (make_fix_d(QQ, top=6), square_with_a_ray(GF(3), 8), make_fix_b()):
        for M in simples(alg):
            resolution(M, 8)
        for side_alg in (alg, alg.opposite()):
            assert side_alg._resolution_steps
            for key, (nxt, dt, need) in side_alg._resolution_steps.items():
                assert len(key) == 3 and type(dt) is int and type(need) is int
                assert nxt is None and dt == 0 or len(nxt) == 3


# -- the T = 30 line -------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_the_30_arrow_line_takes_no_kernel_and_counts_122_syzygies(field, monkeypatch):
    top = 30
    alg = make_fix_d(field, top=top)
    kernels, counts = [0], [0]
    kernel_bases, kernel_dims = GradedMorphism.kernel_bases, presentations._kernel_dims

    def counted_kernel(self):
        kernels[0] += self._kernel_bases is None
        return kernel_bases(self)

    def counted_dims(*args):
        counts[0] += 1
        return kernel_dims(*args)

    monkeypatch.setattr(GradedMorphism, "kernel_bases", counted_kernel)
    monkeypatch.setattr(presentations, "_kernel_dims", counted_dims)
    for i, v in enumerate(alg.quiver.vertices):
        S = standard_module(alg, "S", v, 0)
        assert resolution(S, top + 1).report()["value"] == i
        assert resolution(S.dual(), top + 1).report()["value"] == top - i
    assert (kernels[0], counts[0]) == (0, 122)
