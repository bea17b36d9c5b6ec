"""Path enumeration and path counts of a quiver, for tests and oracles.

The program never lists paths: piece bases are built inductively from the
arrows.  Tests use these to size seeded algebras, to pick relations and to
check piece dimensions against raw path counts.
"""

from gradedquiver import InputError, Path


def list_paths(quiver, length, source, target):
    """All paths of the given length, lexicographic in their name tuples."""
    if length < 0:
        raise InputError("path length must be >= 0")
    quiver.check_vertex(source)
    quiver.check_vertex(target)
    if length == 0:
        return [Path.trivial(source)] if source == target else []
    out = []

    def extend(partial, at):
        # partial holds arrows applied so far, most recent first
        if len(partial) == length:
            if at == target:
                out.append(Path(tuple(partial)))
            return
        for a in quiver.arrows_from[at]:
            extend([a] + partial, a.target)

    extend([], source)
    out.sort(key=lambda p: p.names())
    return out


def count_paths(quiver, n, source, target):
    """Number of length-n paths source -> target, via adjacency powers."""
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    size = len(quiver.vertices)
    adj = [[0] * size for _ in range(size)]
    for a in quiver.arrows:
        adj[idx[a.target]][idx[a.source]] += 1
    acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(n):
        acc = [[sum(adj[i][k] * acc[k][j] for k in range(size)) for j in range(size)]
               for i in range(size)]
    return acc[idx[target]][idx[source]]
