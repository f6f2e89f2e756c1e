"""Distance-bounded network-design program instances.

An instance couples demand pairs with explicit families of allowed directed
paths (length-bounded, simple) and a partition-friendly objective over edge
vectors. Objectives decompose across any node partition through a combiner
whenever the vector is zero on cross-cluster edges.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .graphs import (UNREACHABLE, Graph, _hop_table, as_edge_vector, as_index, read_graph,
                     run_slots, write_graph)

DEFAULT_PATH_CAP = 100_000

#: Node cells (extended prefixes x their length) one step of the path
#: enumeration may build, per path the cap allows.
_CELLS_PER_CAP = 8


class InstanceError(ValueError):
    """Malformed demand, path family, or objective."""


class InfeasibleDemandError(InstanceError):
    """A demand's length bound is below the directed distance."""


# -- path enumeration ----------------------------------------------------


def enumerate_paths(
    g: Graph, u: int, v: int, max_len: int, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[int, ...]]:
    """All simple directed u->v paths with at most `max_len` edges.

    Output is in lexicographic node-sequence order (the order of a DFS over
    ascending adjacency). Returns [] when no path exists; raises
    InstanceError when the family would exceed `cap` paths.
    """
    u, v = g.check_node(u), g.check_node(v)
    if max_len < 1:
        raise InstanceError(f"max_len must be >= 1, got {max_len}")
    target, bound = np.array([v]), _simple_bound(g, max_len)
    _, hop_ptr, hop_node, _ = _path_family(g, np.array([u]), target, np.array([bound]),
                                           cap, _target_hops(g, target, bound - 1))
    nodes, ptr = hop_node.tolist(), hop_ptr.tolist()
    return [(u, *nodes[a:b]) for a, b in zip(ptr, ptr[1:])]


def _simple_bound(g: Graph, bound: int) -> int:
    """The bound as an int, cut to n - 1: no simple path is longer."""
    return min(int(bound), g.n - 1)


def _target_hops(g: Graph, v: np.ndarray, depth: int):
    """The target table: hops(i, w) is the directed hop distance from w[j]
    to v[i[j]], for every j, or UNREACHABLE past `depth` hops. It is the
    `_hop_table` of the distinct targets over arc_csr("in")."""
    indptr, tails, _ = g.arc_csr("in")
    return _hop_table(indptr, tails, v, depth)


def _path_family(g: Graph, u: np.ndarray, v: np.ndarray, bound: np.ndarray,
                 cap: int, hops) -> tuple[np.ndarray, ...]:
    """Every demand's family: the simple directed u[i] -> v[i] paths of at
    most bound[i] edges, as the flat arrays (path_ptr, hop_ptr, hop_node,
    hop_edge) that CpInstance holds.

    Prefixes grow a hop at a time over arc_csr("out"), which carries edge
    ids. An extension stays if its node is new to the prefix and reaches
    v[i] within the hops the bound leaves, as the target table `hops` says
    (so the table needs depth max(bound) - 1, and its UNREACHABLE past that
    depth fails every bound); it is a path once it reaches v[i]. The
    prefixes wait in a stack of blocks, each of one length and in demand
    order. A step extends the leading rows of the top block whose
    extensions fit in _CELLS_PER_CAP * cap node cells (at least one row)
    and pushes the survivors as a new block, so the search runs depth first
    in demand order and holds at most one block per length. No path to v[i]
    is a prefix of another, so one lexsort by (demand, node sequence) puts
    each family in DFS order.

    Raises InstanceError for the first demand, in input order, whose family
    exceeds `cap` paths. The cap is checked every step, and once a family
    is over it the prefixes of later demands are dropped.
    """
    indptr, heads, ids = g.arc_csr("out")
    nd, depth = len(u), min(int(bound.max(initial=0)), g.n - 1)
    budget = _CELLS_PER_CAP * max(cap, 1)
    # a block of prefixes of h hops: row r is demand dem[r], with its node
    # after h hops nodes[r, h] and the edge into it edges[r, h - 1]; -1 past
    # its length
    nodes = np.full((nd, depth + 1), -1)
    nodes[:, 0] = u
    blocks = [(0, np.arange(nd), nodes, np.full((nd, depth), -1))] if depth > 0 else []
    found, over, done = 0, nd, [(nodes[:0, 0], nodes[:0], nodes[:0, 1:])]
    per_demand, counted = np.zeros(nd, dtype=np.int64), 0
    while blocks:
        h, dem, nodes, edges = blocks.pop()
        rows = len(dem) if over == nd else int(np.searchsorted(dem, over))
        last = nodes[:rows, h]
        start = indptr[last]
        count = indptr[last + 1] - start
        take = rows
        # a row has at most n extensions of depth + 1 cells each
        if rows * g.n * (depth + 1) > budget and count.sum() * (depth + 1) > budget:
            take = max(1, int(np.searchsorted(np.cumsum(count) * (depth + 1), budget, "right")))
            blocks.append((h, dem[take:rows], nodes[take:rows], edges[take:rows]))
            start, count = start[:take], count[:take]
        src = np.repeat(np.arange(take), count)
        slot = run_slots(start, count)
        w, d = heads[slot], dem[src]
        keep = np.flatnonzero((hops(d, w) <= bound[d] - h - 1)
                              & (nodes[src, :h + 1] != w[:, None]).all(axis=1))
        d, src, slot = d[keep], src[keep], slot[keep]
        nodes, edges = nodes[src], edges[src]
        nodes[:, h + 1], edges[:, h] = heads[slot], ids[slot]
        end = nodes[:, h + 1] == v[d]
        done.append((d[end], nodes[end], edges[end]))
        found += len(done[-1][0])
        if found > cap:  # some family may be over: count each
            per_demand += np.bincount(np.concatenate([p[0] for p in done[counted:]]),
                                      minlength=nd)
            counted = len(done)
            if per_demand.max() > cap:
                over = min(over, int(np.argmax(per_demand > cap)))
        live = ~end & (d < over)
        if h + 1 < depth and len(d := d[live]):
            blocks.append((h + 1, d, nodes[live], edges[live]))
    if over < nd:
        raise InstanceError(f"path family for ({u[over]},{v[over]}) exceeds cap {cap}")
    dem, nodes, edges = map(np.concatenate, zip(*done))
    order = np.lexsort(np.vstack((nodes[:, :0:-1].T, dem)))
    hop = nodes[order, 1:] >= 0
    return (_offsets(np.bincount(dem, minlength=nd)), _offsets(hop.sum(axis=1)),
            nodes[order, 1:][hop], edges[order][hop])


def _offsets(count) -> np.ndarray:
    """The CSR pointer of rows of the given sizes: 0, then their running sum."""
    return np.concatenate(([0], np.cumsum(count, dtype=np.int64)))


# -- objectives ----------------------------------------------------------


def fractional_degrees(g: Graph, x: np.ndarray, mode: str = "inout") -> np.ndarray:
    """Per-node fractional degree under an edge vector."""
    deg = np.zeros(g.n)
    if mode in ("out", "inout"):
        np.add.at(deg, g.tail, x)
    if mode in ("in", "inout"):
        np.add.at(deg, g.head, x)
    return deg


@dataclass(frozen=True)
class Objective:
    """Nondecreasing convex objective with a per-partition combiner.

    Kinds: "linear-sum" (combiner: sum), "max-degree" over fractional node
    degrees (combiner: max; degree_mode picks out/in/in+out), and "p-norm"
    with p >= 1 or inf (combiner: the same norm).
    """

    kind: str
    p: float = 0.0
    degree_mode: str = "inout"

    def __post_init__(self):
        if self.kind not in ("linear-sum", "max-degree", "p-norm"):
            raise InstanceError(f"unknown objective kind {self.kind!r}")
        if self.kind == "p-norm" and not (self.p >= 1):
            raise InstanceError(f"p-norm needs p >= 1, got {self.p}")
        if self.degree_mode not in ("out", "in", "inout"):
            raise InstanceError(f"unknown degree mode {self.degree_mode!r}")

    def label(self) -> str:
        if self.kind == "max-degree":
            return f"max-degree:{self.degree_mode}"
        if self.kind == "p-norm":
            p_str = "inf" if math.isinf(self.p) else f"{self.p:g}"
            return f"p-norm:{p_str}"
        return self.kind


def linear_sum() -> Objective:
    return Objective("linear-sum")


def max_degree(mode: str = "inout") -> Objective:
    return Objective("max-degree", degree_mode=mode)


def p_norm(p: float) -> Objective:
    return Objective("p-norm", p=float(p))


def objective_from_label(label: str) -> Objective:
    """Inverse of Objective.label()."""
    if label == "linear-sum":
        return linear_sum()
    if label.startswith("max-degree"):
        _, _, mode = label.partition(":")
        return max_degree(mode or "inout")
    if label.startswith("p-norm"):
        _, _, p = label.partition(":")
        return p_norm(float(p))
    raise InstanceError(f"unknown objective label {label!r}")


def evaluate_objective(obj: Objective, x, g: Graph) -> float:
    """Objective value of a nonnegative edge vector."""
    x = as_edge_vector(g, x)
    if obj.kind == "linear-sum":
        return float(np.sum(x))
    if obj.kind == "max-degree":
        deg = fractional_degrees(g, x, obj.degree_mode)
        return float(deg.max()) if g.n else 0.0
    if math.isinf(obj.p):
        return float(x.max()) if x.size else 0.0
    return float(np.sum(x**obj.p) ** (1.0 / obj.p))


def combiner_value(obj: Objective, cluster_values) -> float:
    """Combine per-cluster objective values into the global value."""
    vals = np.asarray(list(cluster_values), dtype=float)
    if np.any(vals < 0):
        raise InstanceError("combiner values must be nonnegative")
    if vals.size == 0:
        return 0.0
    if obj.kind == "linear-sum":
        return float(vals.sum())
    if obj.kind == "max-degree":
        return float(vals.max())
    if math.isinf(obj.p):
        return float(vals.max())
    return float(np.sum(vals**obj.p) ** (1.0 / obj.p))


# -- instances -----------------------------------------------------------


@dataclass(frozen=True)
class Demand:
    """Ordered pair with a per-pair path length bound."""

    u: int
    v: int
    bound: int


@dataclass(frozen=True, eq=False)
class CpInstance:
    """Graph, demands, allowed-path families, and objective.

    The families are flat arrays. Demand i's allowed paths are
    path_ptr[i]:path_ptr[i + 1], and path j's hops are hop_ptr[j]:hop_ptr[j + 1]:
    hop s enters node hop_node[s] along edge hop_edge[s], so path j runs
    from its demand's u through hop_node[hop_ptr[j]:hop_ptr[j + 1]].
    `families` and `family_edges` show the same paths as node and edge-id
    tuples, built on first use. D is the length of the longest allowed path
    across all demands; `spanning` says whether every node is some demand's
    endpoint.
    """

    graph: Graph
    demands: tuple[Demand, ...]
    objective: Objective
    path_ptr: np.ndarray
    hop_ptr: np.ndarray
    hop_node: np.ndarray
    hop_edge: np.ndarray

    def __post_init__(self):
        for a in (self.path_ptr, self.hop_ptr, self.hop_node, self.hop_edge):
            a.flags.writeable = False
        self._validate()

    def _validate(self) -> None:
        """Raise InstanceError for the first demand, in input order, with a
        bad node, no allowed path, or a path that does not end at its v, is
        not simple or is longer than the bound."""
        g, demands = self.graph, self.demands
        if len(self.path_ptr) != len(demands) + 1:
            raise InstanceError("one path family required per demand")
        # the nodes in one array pass; the node checks and their messages
        # run from the first faulty demand on, or on every demand when some
        # node is no integer
        ends = np.array([(d.u, d.v) for d in demands]).reshape(-1, 2)
        suspects = demands
        if ends.dtype.kind in "biu":
            ends = ends.astype(np.int64)
            faulty = ((ends < 0) | (ends >= g.n)).any(axis=1) | (ends[:, 0] == ends[:, 1])
            suspects = demands[int(np.argmax(faulty)):] if faulty.any() else ()
        for d in suspects:
            g.check_node(d.u)
            g.check_node(d.v)
            if d.u == d.v:
                raise InstanceError(f"degenerate demand ({d.u},{d.v})")
        ends = ends.astype(np.int64, copy=False)
        count, length = np.diff(self.path_ptr), np.diff(self.hop_ptr)
        owner = self.path_owner
        start, end = ends[owner].T
        last = start.copy()
        last[length > 0] = self.hop_node[self.hop_ptr[1:][length > 0] - 1]
        astray = last != end
        # a node twice on one path shows as a repeated path * n + node key
        key = np.sort(np.concatenate((self.hop_path * g.n + self.hop_node,
                                      np.arange(len(length)) * g.n + start)))
        repeat = np.zeros(len(length), dtype=bool)
        repeat[key[1:][key[1:] == key[:-1]] // g.n] = True
        bound = np.array([d.bound for d in demands], dtype=float)
        bad = np.flatnonzero(astray | repeat | (length > bound[owner]))
        empty = np.flatnonzero(count == 0)
        if len(empty) and not (len(bad) and owner[bad[0]] < empty[0]):
            d = demands[empty[0]]
            raise InfeasibleDemandError(
                f"demand ({d.u},{d.v}) has no allowed path within bound {d.bound}")
        if len(bad):
            j = int(bad[0])
            d, p = demands[owner[j]], (int(start[j]), *self.hop_node[
                self.hop_ptr[j]:self.hop_ptr[j + 1]].tolist())
            if astray[j]:
                raise InstanceError(f"path {p} does not join ({d.u},{d.v})")
            if repeat[j]:
                raise InstanceError(f"path {p} is not simple")
            raise InstanceError(f"path {p} longer than bound {d.bound} for ({d.u},{d.v})")

    @functools.cached_property
    def path_owner(self) -> np.ndarray:
        """The demand of every path."""
        return np.repeat(np.arange(len(self.demands)), self.path_ptr[1:] - self.path_ptr[:-1])

    @functools.cached_property
    def hop_path(self) -> np.ndarray:
        """The path of every hop."""
        return np.repeat(np.arange(len(self.hop_ptr) - 1), self.hop_ptr[1:] - self.hop_ptr[:-1])

    @functools.cached_property
    def shares_edges(self) -> np.ndarray:
        """Per demand, whether some edge lies on two of its allowed paths.

        A simple path crosses an edge once, so a repeated (demand, edge) key
        among the hops is an edge on two of the demand's paths."""
        m = self.graph.m
        key = np.sort(self.path_owner[self.hop_path] * m + self.hop_edge)
        shared = np.zeros(len(self.demands), dtype=bool)
        shared[key[1:][key[1:] == key[:-1]] // m] = True
        return shared

    @functools.cached_property
    def D(self) -> int:
        """Longest allowed path length over every demand (0 if no demands)."""
        return int(np.diff(self.hop_ptr).max(initial=0))

    @functools.cached_property
    def families(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every demand's allowed paths as node tuples, in family order."""
        return self._per_path(self.hop_node, start=True)

    @functools.cached_property
    def family_edges(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every demand's allowed paths as edge-index tuples."""
        return self._per_path(self.hop_edge, start=False)

    def _per_path(self, hop_values: np.ndarray, start: bool) -> tuple:
        """Each demand's paths as tuples of their hops' values, led by the
        demand's u when `start` is set."""
        flat, hop_ptr = hop_values.tolist(), self.hop_ptr.tolist()
        path_ptr = self.path_ptr.tolist()
        return tuple(
            tuple(((d.u,) if start else ()) + tuple(flat[hop_ptr[j]:hop_ptr[j + 1]])
                  for j in range(a, b))
            for d, a, b in zip(self.demands, path_ptr, path_ptr[1:]))

    @property
    def spanning(self) -> bool:
        touched = {d.u for d in self.demands} | {d.v for d in self.demands}
        return len(touched) == self.graph.n


def build_spanner_instance(
    g: Graph,
    k: int,
    objective: Objective | None = None,
) -> CpInstance:
    """Stretch-k spanner relaxation: one demand per edge, detours up to k hops."""
    if as_index(k, "stretch", InstanceError) < 1:
        raise InstanceError(f"stretch must be >= 1, got {k}")
    if objective is None:
        objective = linear_sum()
    demands = tuple(Demand(u, v, k) for u, v in g.edges)
    bound = _simple_bound(g, k)
    family = _path_family(g, g.tail, g.head, np.full(g.m, bound), DEFAULT_PATH_CAP,
                          _target_hops(g, g.head, bound - 1))
    return CpInstance(g, demands, objective, *family)


def build_dsn_instance(
    g: Graph,
    demands: list[tuple[int, int, int]],
    objective: Objective | None = None,
) -> CpInstance:
    """Steiner-network instance with per-demand distance bounds.

    Each demand (u, v, L) requires a directed u->v path of at most L edges.
    Once every demand's nodes pass, a bound below the directed distance
    raises InfeasibleDemandError; demand distances come from the target
    table the enumeration prunes with, and the message's distance from an
    uncut table of the first infeasible demand's target.
    """
    if objective is None:
        objective = linear_sum()
    rows = []
    for u, v, bound in demands:
        u, v = g.check_node(u), g.check_node(v)
        if u == v:
            raise InstanceError(f"degenerate demand ({u},{v})")
        rows.append((u, v, as_index(bound, "bound", InstanceError)))
    u, v, bound = np.array([(a, b, _simple_bound(g, c)) for a, b, c in rows],
                           dtype=np.int64).reshape(-1, 3).T
    hops = _target_hops(g, v, int(bound.max(initial=0)))
    far = np.flatnonzero(hops(np.arange(len(u)), u) > bound)
    stop = int(far[0]) if len(far) else len(u)
    # a cap error of an earlier demand comes before this one's
    family = _path_family(g, u[:stop], v[:stop], bound[:stop], DEFAULT_PATH_CAP, hops)
    if stop < len(u):
        a, b, raw = demands[stop]
        dist = int(_target_hops(g, v[stop:stop + 1], g.n)(0, u[stop]))
        raise InfeasibleDemandError(
            f"demand ({a},{b}) unreachable within bound {raw} "
            f"(directed distance {'inf' if dist >= UNREACHABLE else dist})"
        )
    dms = tuple(Demand(a, b, c) for a, b, c in rows)
    return CpInstance(g, dms, objective, *family)


# -- instance files ------------------------------------------------------


def write_instance(instance: CpInstance, path: str, graph_filename: str | None = None) -> None:
    """Write the instance as structured text plus a graph file next to it.

    The serialization is canonical: reading it back re-enumerates the same
    path families in the same order.
    """
    base = os.path.dirname(os.path.abspath(path))
    if graph_filename is None:
        graph_filename = os.path.basename(path) + ".graph"
    write_graph(instance.graph, os.path.join(base, graph_filename))
    lines = [
        "padspan-instance v1",
        f"graph {graph_filename}",
        f"objective {instance.objective.label()}",
        f"spanning {int(instance.spanning)}",
        f"demands {len(instance.demands)}",
    ]
    lines.extend(f"{d.u} {d.v} {d.bound}" for d in instance.demands)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


#: The header lines of an instance file, each with the parser of its value.
_HEADER = {"graph": str, "objective": objective_from_label, "spanning": int, "demands": int}


def read_instance(path: str) -> CpInstance:
    """Parse an instance file written by :func:`write_instance`. A malformed
    file raises InstanceError naming it and the line at fault."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="ascii") as fh:
        rows = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not rows or rows[0][1] != "padspan-instance v1":
        raise InstanceError(f"{path}: not a padspan instance file")
    head, triples = {}, []
    for no, text in rows[1:]:
        in_head = len(head) < len(_HEADER)
        try:
            if in_head:
                key, value = text.split(None, 1)
                if key in head:
                    raise ValueError
                head[key] = _HEADER[key](value)
            elif len(triples) < head["demands"]:
                u, v, bound = map(int, text.split())
                triples.append((u, v, bound))
            else:
                raise ValueError
        except (KeyError, ValueError):
            want = (f"one header line each of {', '.join(_HEADER)}" if in_head
                    else "a demand row '<u> <v> <bound>'" if len(triples) < head["demands"]
                    else f"the end of the file after {head['demands']} demand rows")
            raise InstanceError(
                f"{path}: line {no}: expected {want}, found {text!r}") from None
    missing = [key for key in _HEADER if key not in head]
    if missing:
        raise InstanceError(f"{path}: missing the {missing[0]!r} header line")
    if len(triples) != head["demands"]:
        raise InstanceError(f"{path}: expected {head['demands']} demand rows")
    g = read_graph(os.path.join(base, head["graph"]))
    inst = build_dsn_instance(g, triples, head["objective"])
    if inst.spanning != bool(head["spanning"]):
        raise InstanceError(f"{path}: spanning flag mismatch")
    return inst
