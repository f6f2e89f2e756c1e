"""The recursive depth-first path enumeration that the array enumerator in
`padspan.cp` replaced, kept as the reference its tests compare against, and
the tuple route to a CpInstance that hand-made test instances take. Not
collected by pytest."""

import numpy as np

from padspan.cp import DEFAULT_PATH_CAP, CpInstance, InstanceError


def out_lists(g) -> list[list[int]]:
    """Every row of arc_csr("out") as a list of ints: the DFS's adjacency."""
    indptr, heads, _ = g.arc_csr("out")
    flat, bounds = heads.tolist(), indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def dfs_paths(g, u: int, v: int, max_len: int, cap: int = DEFAULT_PATH_CAP):
    """All simple directed u->v paths with at most `max_len` edges, by a DFS
    over ascending adjacency; InstanceError once more than `cap` are found."""
    out = out_lists(g)
    paths: list[tuple[int, ...]] = []
    prefix = [u]
    on_path = {u}

    def dfs(node: int) -> None:
        if node == v and len(prefix) > 1:
            paths.append(tuple(prefix))
            if len(paths) > cap:
                raise InstanceError(f"path family for ({u},{v}) exceeds cap {cap}")
            return
        if len(prefix) > max_len:
            return
        for w in out[node]:
            if w in on_path:
                continue
            prefix.append(w)
            on_path.add(w)
            dfs(w)
            prefix.pop()
            on_path.remove(w)

    dfs(u)
    return paths


def dfs_family(g, demands, cap: int = DEFAULT_PATH_CAP):
    """Every (u, v, bound) demand's DFS family, in input order: the first
    family over `cap` raises."""
    return tuple(tuple(dfs_paths(g, u, v, bound, cap)) for u, v, bound in demands)


def instance_from_families(graph, demands, families, objective) -> CpInstance:
    """The CpInstance whose demand i may use the node tuples families[i]:
    each path must start at its demand's u and step along graph edges, and
    the constructor checks the rest."""
    paths = [p for fam in families for p in fam]
    for d, fam in zip(demands, families):
        for p in fam:
            if p[0] != d.u:
                raise InstanceError(f"path {p} does not join ({d.u},{d.v})")
    tails = [a for p in paths for a in p[:-1]]
    heads = [b for p in paths for b in p[1:]]
    ids = graph.edge_ids(tails, heads)
    if (ids < 0).any():
        i = int(np.argmax(ids < 0))
        raise InstanceError(f"path hop ({tails[i]},{heads[i]}) is not a graph edge")
    path_ptr = np.cumsum([0, *(len(fam) for fam in families)])
    hop_ptr = np.cumsum([0, *(len(p) - 1 for p in paths)])
    return CpInstance(graph, tuple(demands), objective, path_ptr, hop_ptr,
                      np.array(heads, dtype=np.int64), ids)
