"""Differential test: the simples' formal presentations against the generic route.

An exact one-dimensional module is a simple S_v<s> on some window.  Its cover
is its one vector and its d1 is read off the arrows out of v, with no
realization, kernel or generator search (`presentations._arrows_out`).  The
generic route, called here step by step, takes the top basis, realizes the
cover on [lo, hi + 1], takes the augmentation's kernel and searches it for
generators.  Both must give the same cover generators and the same
presentation JSON at every vertex, for shifts -1, 0 and 2, on the simple's own
window and on a wider one, and for the duals over the opposite algebra: over
Q, F_2 and F_3, on the fixtures and on algebras with loops, commutative,
binomial and degree-3 relations.
"""

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, GradedModule, Quiver, WindowError, standard_module
from gradedquiver import presentations
from gradedquiver.presentations import (Cover, ProjPresentation, ProjSum, _kernel_generators,
                                        _pmap_from_generators, minimal_presentation,
                                        projective_cover, top_basis)

from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d, rel

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
SHIFTS = (-1, 0, 2)


def dual_numbers(field):
    """k[x]/(x^2)."""
    q = Quiver(["0"], [("x", "0", "0")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("x", "x"))])])


def commutative_plane(field):
    """k[x,y] as one vertex with two commuting loops."""
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("y", "x")), (-1, ("x", "y"))])])


def binomial(field):
    """A Kronecker pair 1 => 2 followed by c: 2 -> 3, with c*a = c*b."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("c", "a")), (-1, ("c", "b"))])])


def cubic(field):
    """A 2-cycle a: 1 -> 2, b: 2 -> 1 with the degree-3 relations aba = bab = 0."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return GradedAlgebra(q, field, [rel(q, [(1, ("a", "b", "a"))]),
                                    rel(q, [(1, ("b", "a", "b"))])])


MAKERS = [make_fix_a, make_fix_b, make_fix_c, make_fix_d, dual_numbers, commutative_plane,
          binomial, cubic]


def generic_route(M):
    """(cover generators, presentation JSON) by the generic steps."""
    gens = top_basis(M)
    cover0 = Cover(ProjSum(M.algebra, [(g.vertex, -g.degree) for g in gens]), gens)
    window = (M.lo, M.hi + 1)
    aug = cover0.realize(M, window)
    found = _kernel_generators(aug.source, aug.kernel_bases(), M.hi + 1)
    pres = ProjPresentation(M, cover0, _pmap_from_generators(cover0.psum, window, found), window)
    return generators(cover0), pres.to_json_dict()


def generators(cover):
    return cover.psum.summands, [(g.degree, g.vertex, g.coords) for g in cover.generators]


def formal_route(M, monkeypatch):
    """(cover generators, presentation JSON) by the program, which must
    neither search the top nor realize a cover."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(presentations, "top_basis", lambda M: calls.append("top_basis"))
        m.setattr(Cover, "realize", lambda *args: calls.append("realize"))
        pres = minimal_presentation(M)
        cover = projective_cover(M)
    assert calls == []
    return generators(cover), pres.to_json_dict()


def simples(alg):
    """Every simple with shift in SHIFTS on its own window and on a wider
    one, and their duals over the opposite algebra."""
    for v in alg.quiver.vertices:
        for s in SHIFTS:
            for S in (standard_module(alg, "S", v, s),
                      standard_module(alg, "S", v, s, window=(-s - 2, -s + 3))):
                yield S
                yield S.dual()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make", MAKERS, ids=lambda make: make.__name__)
def test_simple_presentations_match_the_generic_route(make, field, monkeypatch):
    alg = make(FIELDS[field])
    count = 0
    for M in simples(alg):
        assert formal_route(M, monkeypatch) == generic_route(M), (make.__name__, M)
        count += 1
    assert count == 4 * len(SHIFTS) * len(alg.quiver.vertices)


@pytest.mark.parametrize("field", FIELDS)
def test_a_one_dimensional_module_read_from_json_takes_the_formal_route(field, monkeypatch):
    alg = binomial(FIELDS[field])
    for d in ({"window": [1, 1], "dims": {"(1,1)": 1}},
              {"window": [-2, 4], "dims": {"(0,2)": 1, "(3,1)": 0}},
              {"window": [0, 0], "dims": {"(0,3)": 1}, "flags": {"below": "exact"}}):
        M = GradedModule.from_json_dict(alg, d)
        assert formal_route(M, monkeypatch) == generic_route(M), d


@pytest.mark.parametrize("side", ["below", "above"])
def test_a_truncated_one_dimensional_module_is_refused(side):
    alg = binomial(QQ)
    M = GradedModule.from_json_dict(alg, {"window": [0, 0], "dims": {"(0,2)": 1},
                                          "flags": {side: "truncated"}})
    with pytest.raises(WindowError):
        projective_cover(M)
    with pytest.raises(WindowError):
        minimal_presentation(M)
