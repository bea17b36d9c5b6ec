"""Certified projective and injective dimensions do not depend on the cap.

A resolution is computed on a finite degree window.  A syzygy that is zero on
the window certifies a finite dimension only when it is zero in every degree,
and only when no earlier syzygy had a generator above the window; raising the
cap may turn an "at-least" into an exact value, but never change an exact
value.
"""

import random

import pytest

from gradedquiver import GF, QQ, Quiver, GradedAlgebra, standard_module
from gradedquiver.errors import WindowError
from gradedquiver.presentations import graded_dimension

from conftest import rel
from quiver_paths import count_paths, list_paths


def S(alg, v, s=0):
    return standard_module(alg, "S", v, s)


def line_with_long_relation(length=10):
    """0 -> 1 -> ... -> length with the full path as the only relation."""
    q = Quiver([str(i) for i in range(length + 1)],
               [(f"a{i}", str(i), str(i + 1)) for i in range(length)])
    full = tuple(f"a{i}" for i in reversed(range(length)))
    return GradedAlgebra(q, QQ, [rel(q, [(1, full)])])


def test_zero_syzygy_above_the_window_is_not_certified():
    # 0 -> P_10<-10> -> P_1<-1> -> P_0 -> S_0 -> 0: the second syzygy lives in
    # degree 10 only, above the window of the small caps
    alg = line_with_long_relation()
    for cap in range(1, 8):
        rep = graded_dimension(S(alg, "0"), "proj", cap)
        if cap == 1:
            assert (rep["kind"], rep["value"]) == ("at-least", 1), rep
        else:
            assert (rep["kind"], rep["value"]) == ("exact", 2), (cap, rep)


def test_zero_syzygy_injective_side_mirrors():
    alg = line_with_long_relation()
    for cap in range(1, 8):
        rep = graded_dimension(S(alg, "10"), "inj", cap)
        assert rep["kind"] != "exact" or rep["value"] == 2, (cap, rep)
    assert graded_dimension(S(alg, "10"), "inj", 4)["kind"] == "exact"


def test_syzygy_generator_above_the_window_is_not_missed():
    # the second syzygy of S_0 has generators in degrees 2 (from d*c) and
    # 10 (from the long path); the one in degree 10 leads on to P_11<-11>, so
    # pd = 3, and a window that misses it must not certify pd = 2
    q = Quiver([str(i) for i in range(12)] + ["x", "y"],
               [(f"a{i}", str(i), str(i + 1)) for i in range(11)]
               + [("c", "0", "x"), ("d", "x", "y")])
    alg = GradedAlgebra(q, QQ, [
        rel(q, [(1, tuple(f"a{i}" for i in reversed(range(10))))]),
        rel(q, [(1, tuple(f"a{i}" for i in reversed(range(1, 11))))]),
        rel(q, [(1, ("d", "c"))])])
    for cap in range(1, 8):
        rep = graded_dimension(S(alg, "0"), "proj", cap)
        assert rep["kind"] != "exact" or rep["value"] == 3, (cap, rep)
    assert graded_dimension(S(alg, "0"), "proj", 3)["kind"] == "exact"


def random_algebra_with_long_relations(seed):
    """A seeded algebra whose relations have degree 3 or 4: monomial, or a
    binomial of two parallel paths; the quiver may have cycles."""
    rng = random.Random(seed)
    field = rng.choice([QQ, QQ, GF(2), GF(3)])
    nv = rng.randint(2, 4)
    vertices = [str(i) for i in range(nv)]
    arrows = [(f"a{k}", rng.choice(vertices), rng.choice(vertices))
              for k in range(rng.randint(nv - 1, nv + 1))]
    q = Quiver(vertices, arrows)
    if sum(count_paths(q, d, x, y)
           for d in range(10) for x in vertices for y in vertices) > 200:
        return None
    relations = []
    for _ in range(rng.randint(1, 3)):
        length = rng.choice([3, 4])
        x, y = rng.choice(vertices), rng.choice(vertices)
        paths = list_paths(q, length, x, y)
        if not paths:
            continue
        first = rng.choice(paths)
        terms = [(1, first.names())]
        others = [p for p in paths if p != first]
        if others and rng.random() < 0.5:
            c = rng.choice([1, 2, -1]) if field is QQ else rng.randrange(1, field.p)
            terms.append((c, rng.choice(others).names()))
        relations.append(rel(q, terms))
    if not relations:
        return None
    alg = GradedAlgebra(q, field, relations)
    # keep the windows of the caps below cheap: tame growth on both sides
    if sum(alg.column_dim(d, v) + alg.opposite().column_dim(d, v)
           for d in range(18) for v in vertices) > 150:
        return None
    return alg


def seeded_algebras_with_long_relations(count, start_seed):
    out, seed = [], start_seed
    while len(out) < count:
        alg = random_algebra_with_long_relations(seed)
        seed += 1
        if alg is not None:
            out.append(alg)
    return out


@pytest.mark.parametrize("start_seed", [0, 100])
def test_certified_dimensions_stable_as_the_cap_rises(start_seed):
    checked = 0
    for alg in seeded_algebras_with_long_relations(12, start_seed):
        for v in alg.quiver.vertices:
            for kind in ("proj", "inj"):
                exact, lower = set(), 0
                for cap in range(1, 7):
                    try:
                        rep = graded_dimension(S(alg, v), kind, cap)
                    except WindowError:
                        continue  # a refusal claims nothing
                    if rep["kind"] == "exact":
                        exact.add(rep["value"])
                    else:
                        lower = max(lower, rep["value"])
                assert len(exact) <= 1, (alg.quiver.to_json_dict(), v, kind, exact)
                if exact:
                    assert lower <= min(exact), (alg.quiver.to_json_dict(), v, kind)
                    checked += 1
    assert checked >= 20, checked
