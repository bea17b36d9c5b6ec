"""Ext^1 as H^1 of Hom(P., N) against the windowed route it replaced.

`ExtSpace` takes the cocycles as the tuples killed by the pullback along the
next differential P2 -> P1 (`next_differential`); the oracle
(`ext_window_oracle.WindowedExtSpace`) cuts them out with one row per kernel
basis vector of the realized d1.  On seeded binomial algebras with relations
of degree 3 (acyclic and cyclic) over Q, F_2 and F_3, for presented modules
M and targets N at shifts -1, 0 and 1, both must give the same dimension,
coboundaries, cocycle basis, representatives and class coordinates, and
refuse the same targets truncated below.
"""

import itertools
import random

import pytest

from gradedquiver import GF, QQ, standard_module
from gradedquiver.errors import WindowError
from gradedquiver.homs import ExtSpace
from gradedquiver.presentations import minimal_presentation

from ext_window_oracle import WindowedExtSpace
from test_acceptance import sample_fd_modules
from test_standard_columns import seeded_algebras

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
SHIFTS = (-1, 0, 1)


def degree_three_binomial(field):
    return [alg for (_cyclic, binomial, degree), alg in seeded_algebras(field)
            if binomial and degree == 3]


def modules(alg, rng):
    return [standard_module(alg, "S", v, 0) for v in alg.quiver.vertices] + \
        sample_fd_modules(alg, rng, 10)


def cut_below(N):
    """N re-windowed to start one degree above each of its lower degrees;
    the ones that drop a piece are truncated below."""
    return [N.with_window(lo, N.hi) for lo in range(N.lo + 1, N.hi + 1)]


def both(d1, N):
    """(ExtSpace, WindowedExtSpace), or the refusal each raised."""
    out = []
    for make in (ExtSpace, WindowedExtSpace):
        try:
            out.append(make(d1, N))
        except WindowError as e:
            out.append(e)
    return out


def assert_same(new, old, where):
    assert (new.dim, new.size) == (old.dim, old.size), where
    assert new.B == old.B, where
    # the same cocycle space, so the same echelon basis of it
    assert new.Z == old.Z, where
    assert [tuple(r) for r in new.reps] == [tuple(r) for r in old.reps], where
    if new.dim == 0:
        return
    f = new.field
    # each rep, and a combination of the reps plus a coboundary
    tuples = [list(r) for r in new.reps]
    combo = [f.zero()] * new.size
    for k, r in enumerate(new.reps):
        combo = [f.add(c, f.mul(f.of(k + 2), v)) for c, v in zip(combo, r)]
    if new.B.cols:
        combo = [f.add(c, v) for c, v in zip(combo, new.B.col(0))]
    tuples.append(combo)
    for t in tuples:
        assert WindowedExtSpace.class_coordinates(new, t) == old.class_coordinates(t), where


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_next_differential_route_matches_windowed_route(field):
    rng = random.Random(11)
    counts = {"nonzero": 0, "refused": 0, "cut": 0}
    for alg in degree_three_binomial(FIELDS[field]):
        mods = modules(alg, rng)
        for M, N in itertools.product(mods, repeat=2):
            d1 = minimal_presentation(M).d1
            if d1.src.is_zero():
                continue
            for s in SHIFTS:
                for target in [N.shift(s)] + cut_below(N.shift(s)):
                    where = (M.dims, target.dims, target.lo, target.exact_below)
                    new, old = both(d1, target)
                    if isinstance(old, WindowError):
                        assert isinstance(new, WindowError), where
                        counts["refused"] += 1
                        continue
                    assert not isinstance(new, WindowError), (where, new)
                    assert_same(new, old, where)
                    counts["nonzero"] += new.dim > 0
                    counts["cut"] += not target.exact_below
    assert all(counts.values()), counts
