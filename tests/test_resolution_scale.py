"""Scale guards for the resolution loop: long resolutions through the CLI,
the number of kernels, cover realizations and syzygy counts the resolutions
of long lines compute, and the kernels and map realizations `criteria`
spends on the commuting square with a ray.

No timing is asserted; each command runs in well under a second.
"""

import collections
import json

import pytest

from gradedquiver import GF, QQ, GradedAlgebra, Path, Quiver, standard_module
from gradedquiver.cli import main
from gradedquiver.gmodule import GradedMorphism
from gradedquiver import presentations
from gradedquiver.presentations import Cover, PMap, resolution

from conftest import make_fix_d, rel


def run_json(tmp_path, problem, argv, capsys):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main([str(pfile)] + argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_pd_all_on_a_30_arrow_radical_square_zero_line(tmp_path, capsys):
    # 30 -> ... -> 1 -> 0, every length-two path dead: the resolution of S_i
    # walks down the line, pd(S_i) = i and id(S_i) = 30 - i
    top = 30
    problem = {"field": "Q",
               "quiver": {"vertices": [str(i) for i in range(top + 1)],
                          "arrows": [{"name": f"a{i}", "from": str(i), "to": str(i - 1)}
                                     for i in range(1, top + 1)]},
               "relations": [{"paths": [[f"a{i}", f"a{i + 1}"]], "coeffs": ["1"]}
                             for i in range(1, top)],
               "modules": {}}
    table = run_json(tmp_path, problem, ["pd", "--simple", "all", "--cap", str(top + 1)],
                     capsys)
    assert len(table) == top + 1
    for i in range(top + 1):
        entry = table[str(i)]
        assert (entry["proj"]["kind"], entry["proj"]["value"]) == ("exact", i)
        assert (entry["inj"]["kind"], entry["inj"]["value"]) == ("exact", top - i)


def square_with_a_ray(end, field="Q"):
    """The commuting square 1 => {2,3} => 4 followed by a ray 4 -> 5 -> ... -> end."""
    arrows = [("a", "1", "2"), ("b", "1", "3"), ("g", "2", "4"), ("d", "3", "4")]
    arrows += [(f"e{k}", str(k - 1), str(k)) for k in range(5, end + 1)]
    return {"field": field,
            "quiver": {"vertices": [str(i) for i in range(1, end + 1)],
                       "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows]},
            "relations": [{"paths": [["g", "a"], ["d", "b"]], "coeffs": ["1", "-1"]}],
            "modules": {}}


def test_criteria_on_the_commuting_square_with_a_ray_to_25(tmp_path, capsys):
    end = 25
    rep = run_json(tmp_path, square_with_a_ray(end), ["criteria", "--cap", str(end + 1)], capsys)
    # bounded, and every simple has finite pd and id: every verdict is yes
    assert [rep["boundedness"][s]["status"] for s in ("left", "right")] == ["finite"] * 2
    verdicts = {f"{section}.{key}": v["verdict"]
                for section in ("finitely_presented_category", "finitely_copresented_category",
                                "finite_dimensional_category", "derived_finite_dimensional")
                for key, v in rep[section].items()}
    assert len(verdicts) == 8 and set(verdicts.values()) == {"yes"}, verdicts


def count_kernels(monkeypatch):
    """A counter of fresh `GradedMorphism.kernel_bases` computations."""
    fresh = [0]
    kernel_bases = GradedMorphism.kernel_bases

    def counted(self):
        if self._kernel_bases is None:
            fresh[0] += 1
        return kernel_bases(self)

    monkeypatch.setattr(GradedMorphism, "kernel_bases", counted)
    return fresh


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_line_resolutions_compute_linearly_many_kernels(field, monkeypatch):
    # the differentials of the simples' resolutions are the arrows, each met
    # by every simple above (or below) it; computed once per algebra up to
    # shift, the kernels grow linearly with the line, not quadratically
    top = 30
    q = Quiver([str(i) for i in range(top + 1)],
               [(f"a{i}", str(i), str(i - 1)) for i in range(1, top + 1)])
    alg = GradedAlgebra(q, field, [rel(q, [(1, (f"a{i}", f"a{i + 1}"))]) for i in range(1, top)])
    fresh = count_kernels(monkeypatch)
    for i, v in enumerate(q.vertices):
        S = standard_module(alg, "S", v, 0)
        assert resolution(S, top + 1).report()["value"] == i
        assert resolution(S.dual(), top + 1).report()["value"] == top - i
    assert fresh[0] <= 6 * (top + 1)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_line_simples_are_presented_off_their_arrows(field, monkeypatch):
    # each simple's presentation is read off the arrows out of its vertex,
    # with no cover realized and no kernel taken, so the kernels left are
    # those of the later steps: about two per arrow, one per side
    top = 30
    q = Quiver([str(i) for i in range(top + 1)],
               [(f"a{i}", str(i), str(i - 1)) for i in range(1, top + 1)])
    alg = GradedAlgebra(q, field, [rel(q, [(1, (f"a{i}", f"a{i + 1}"))]) for i in range(1, top)])
    fresh = count_kernels(monkeypatch)
    realized = [0]
    realize = Cover.realize

    def counted(self, module, window=None):
        realized[0] += 1
        return realize(self, module, window)

    monkeypatch.setattr(Cover, "realize", counted)
    for i, v in enumerate(q.vertices):
        S = standard_module(alg, "S", v, 0)
        assert resolution(S, top + 1).report()["value"] == i
        assert resolution(S.dual(), top + 1).report()["value"] == top - i
    assert realized[0] == 0
    assert fresh[0] <= 2 * (top + 1)


@pytest.mark.parametrize("top", [30, 60])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_line_resolutions_walk_each_tail_once(field, top, monkeypatch):
    # past its first step, the resolution of S_i is that of S_(i-1) shifted
    # by one (or S_(i+1) on the injective side), whose tail the algebra keeps:
    # each resolution counts two syzygies at most, and every step it takes
    # is read formally, so no kernel is taken at all
    alg = make_fix_d(field, top=top)
    fresh = count_kernels(monkeypatch)
    counted = [0]
    kernel_dims = presentations._kernel_dims

    def counting(*args):
        counted[0] += 1
        return kernel_dims(*args)

    monkeypatch.setattr(presentations, "_kernel_dims", counting)
    for i, v in enumerate(alg.quiver.vertices):
        S = standard_module(alg, "S", v, 0)
        assert resolution(S, top + 1).report()["value"] == i
        assert resolution(S.dual(), top + 1).report()["value"] == top - i
    assert fresh[0] == 0
    assert counted[0] <= 5 * (top + 1)


def test_periodic_resolution_computes_one_step(monkeypatch):
    # k[x]/(x^2): every differential is x, so one kernel serves every step
    q = Quiver(["0"], [("x", "0", "0")])
    alg = GradedAlgebra(q, QQ, [rel(q, [(1, ("x", "x"))])])
    fresh = count_kernels(monkeypatch)
    report = resolution(standard_module(alg, "S", "0", 0), 30).report()
    assert report == {"kind": "at-least", "value": 30, "window": [0, 36]}
    assert fresh[0] <= 4


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_criteria_counts_the_syzygies_that_end_its_resolutions(field, tmp_path, capsys,
                                                                monkeypatch):
    # every simple's resolution, on both sides, ends where a syzygy vanishes;
    # that is counted along the exact resolution, so only the steps that go
    # on realize their differential and take its kernel
    fresh = count_kernels(monkeypatch)
    realized = [0]
    realize = PMap.realize

    def counted(self, window):
        if tuple(window) not in self._realized:
            realized[0] += 1
        return realize(self, window)

    monkeypatch.setattr(PMap, "realize", counted)
    rep = run_json(tmp_path, square_with_a_ray(15, field), ["criteria", "--cap", "16"], capsys)
    assert {v["verdict"] for v in rep["derived_finite_dimensional"].values()} == {"yes"}
    assert fresh[0] <= 2
    assert realized[0] <= 2


def ray_boundedness(end):
    """The boundedness block of the square with a ray to `end`, in closed form.

    Left, A e_x: from 1 the paths a, b, then g*a = d*b, then one path to each
    vertex of the ray; from 2 or 3 one path to 4 and on; from k >= 4 one path
    to each later vertex.  Right, e_x A: into 2 or 3 one arrow from 1; into 4
    two arrows and g*a; into k >= 5 one path from each earlier vertex of the
    ray, two from 2 and 3 and one from 1.
    """
    left = {"1": (end, end - 1), "2": (end - 2, end - 2), "3": (end - 2, end - 2)}
    left.update({str(k): (end - k + 1, end - k + 1) for k in range(4, end + 1)})
    right = {"1": (1, 1), "2": (2, 2), "3": (2, 2), "4": (4, 3)}
    right.update({str(k): (k, k - 1) for k in range(5, end + 1)})

    def side(per_vertex):
        return {"status": "finite", "total_dim": sum(n for n, _ in per_vertex.values()),
                "per_vertex": {v: {"status": "finite", "total_dim": n, "vanishes_at": vanish}
                               for v, (n, vanish) in per_vertex.items()}}

    return {"left": side(left), "right": side(right)}


@pytest.mark.parametrize("end", [60, 120])
@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_criteria_boundedness_is_linear_in_the_pieces_it_fills(field, end, tmp_path, capsys,
                                                                monkeypatch):
    # the fill keeps each representative as a link to its column and records
    # each column as it goes: boundedness builds the paths of degree 0 and
    # the opposite relations' and no other, and computes each piece once
    built, inside = [0], [False]
    path_init = Path.__init__

    def counted_path(self, *args, **kwargs):
        built[0] += inside[0]
        path_init(self, *args, **kwargs)

    boundedness = GradedAlgebra.boundedness

    def counted_boundedness(self, cap):
        inside[0] = True
        try:
            return boundedness(self, cap)
        finally:
            inside[0] = False

    computed = collections.Counter()
    compute_piece = GradedAlgebra._compute_piece

    def counted_piece(self, *key):
        computed[(id(self), key)] += 1
        return compute_piece(self, *key)

    monkeypatch.setattr(Path, "__init__", counted_path)
    monkeypatch.setattr(GradedAlgebra, "boundedness", counted_boundedness)
    monkeypatch.setattr(GradedAlgebra, "_compute_piece", counted_piece)
    rep = run_json(tmp_path, square_with_a_ray(end, field), ["criteria", "--cap", str(end + 1)],
                   capsys)
    assert rep["boundedness"] == ray_boundedness(end)
    verdicts = {v["verdict"] for section in ("finitely_presented_category",
                                             "finitely_copresented_category",
                                             "finite_dimensional_category",
                                             "derived_finite_dimensional")
                for v in rep[section].values()}
    assert verdicts == {"yes"}
    # one trivial path per vertex and side, one path per opposite relation term
    assert built[0] <= 2 * end + 2
    assert set(computed.values()) == {1}
