"""The injective side by its direct routes, kept only as a test oracle.

Homs M -> I_a<s> are read off M itself: the opposite piece e_a A°_{-i-s} e_x
spans I_a<s> at (i, x), and its representatives, reversed into paths of A,
act from M_i(x) into M_{-s}(a), where the k-th basis morphism reads the k-th
coordinate.  A sum of injectives is the direct sum of the standard I
modules.  The program reads both off the projective side over the opposite
algebra instead, as duals of a cover and of a projective sum; this oracle
checks that both routes agree.
"""

from gradedquiver import Matrix, WindowError, standard_module
from gradedquiver.gmodule import _sum_with_offsets, zero_module
from gradedquiver.homs import HomSpace, hom_psum_slots

from conftest import ghom_dim


def ghom_to_injective(M, vertex, s):
    """Basis of GHom(M, I_vertex<s>) on M's window, by path reversal."""
    alg = M.algebra
    opp = alg.opposite()
    target = standard_module(alg, "I", vertex, s, window=(M.lo, M.hi))
    n = M.dim(-s, vertex)  # raises when -s falls on a truncated side
    basis = []
    for t in range(n):
        blocks = {}
        for (i, x), m_dim in M.dims.items():
            piece = opp.piece(-i - s, vertex, x)
            if piece.dim == 0:
                continue
            rows = []
            for rep in piece.rep_paths:
                back = alg.quiver.path_from_names(tuple(reversed(rep.names())),
                                                  vertex=rep.vertex)
                act = M.element_action(alg.element_from_path(back), i)
                rows.append(list(act.data[t]))
            blk = Matrix(alg.field, piece.dim, m_dim, rows)
            if not blk.is_zero():
                blocks[(i, x)] = blk
        basis.append(blocks)
    return HomSpace(M, target, basis)


def injective_sum(algebra, summands, window):
    """(+) I_a<s> over the (a, s) in `summands`, realized on the window as
    the direct sum of the standard injectives."""
    if not summands:
        return zero_module(algebra, *window)
    total, _ = _sum_with_offsets([standard_module(algebra, "I", a, s, window=window)
                                  for a, s in summands])
    return total


def nakayama_pairing_dims(psum, M):
    """(dim Hom(P, M), dim Hom(M, nu P)) by two unrelated routes: slot
    counting out of P, and the naturality system into the realized direct
    sum of the standard injectives nu P_a<s> = I_a<s>."""
    lhs = hom_psum_slots(psum, M)[1]
    if not M.is_exact:
        raise WindowError("pairing check needs a finite-dimensional module")
    tops = [-s for _a, s in psum.summands] or [M.hi]
    window = (min(M.lo, min(tops) - 1), max(M.hi + 1, max(tops)))
    return lhs, ghom_dim(M, injective_sum(psum.algebra, psum.summands, window))
