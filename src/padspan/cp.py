"""Distance-bounded network-design program instances.

An instance couples demand pairs with explicit families of allowed directed
paths (length-bounded, simple) and a partition-friendly objective over edge
vectors. Objectives decompose across any node partition through a combiner
whenever the vector is zero on cross-cluster edges.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graphs import UNREACHABLE, Graph, _pair_hops, as_edge_vector, read_graph, write_graph

DEFAULT_PATH_CAP = 100_000


class InstanceError(ValueError):
    """Malformed demand, path family, or objective."""


class InfeasibleDemandError(InstanceError):
    """A demand's length bound is below the directed distance."""


# -- path enumeration ----------------------------------------------------


def enumerate_paths(
    g: Graph, u: int, v: int, max_len: int, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[int, ...]]:
    """All simple directed u->v paths with at most `max_len` edges.

    Output is in lexicographic node-sequence order (DFS over ascending
    adjacency). Returns [] when no path exists; raises InstanceError when the
    family would exceed `cap` paths.
    """
    g.check_node(u)
    g.check_node(v)
    if max_len < 1:
        raise InstanceError(f"max_len must be >= 1, got {max_len}")
    return _paths(_out_lists(g), u, v, max_len, cap)


def _out_lists(g: Graph) -> list[list[int]]:
    """Every row of arc_csr("out") as a list of ints: the DFS's adjacency."""
    indptr, heads, _ = g.arc_csr("out")
    flat, bounds = heads.tolist(), indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _paths(
    out: list[list[int]], u: int, v: int, max_len: int, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[int, ...]]:
    """enumerate_paths over the adjacency lists `out`, arguments unchecked."""
    paths: list[tuple[int, ...]] = []
    prefix = [u]
    on_path = {u}

    def dfs(node: int) -> None:
        if node == v and len(prefix) > 1:
            paths.append(tuple(prefix))
            if len(paths) > cap:
                raise InstanceError(
                    f"path family for ({u},{v}) exceeds cap {cap}"
                )
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


@dataclass
class CpInstance:
    """Graph, demands, allowed-path families, and objective.

    `families[i]` lists the allowed paths of demand i as node tuples, and
    `family_edges[i]` the matching edge-index tuples. D is the length of the
    longest allowed path across all demands; `spanning` says whether every
    node is some demand's endpoint.
    """

    graph: Graph
    demands: tuple[Demand, ...]
    families: tuple[tuple[tuple[int, ...], ...], ...]
    objective: Objective
    family_edges: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False, default=())

    def __post_init__(self):
        if not self.family_edges:
            # every hop of every family in one edge_ids lookup
            paths = [p for fam in self.families for p in fam]
            tails = [a for p in paths for a in p[:-1]]
            heads = [b for p in paths for b in p[1:]]
            ids = self.graph.edge_ids(tails, heads)
            if (ids < 0).any():
                i = int(np.argmax(ids < 0))
                raise InstanceError(f"path hop ({tails[i]},{heads[i]}) is not a graph edge")
            ids, ends = ids.tolist(), list(itertools.accumulate(len(p) - 1 for p in paths))
            hops = iter([tuple(ids[a:b]) for a, b in zip([0, *ends], ends)])
            self.family_edges = tuple(
                tuple(itertools.islice(hops, len(fam))) for fam in self.families)
        self._validate()

    def _validate(self) -> None:
        g = self.graph
        if len(self.families) != len(self.demands):
            raise InstanceError("one path family required per demand")
        for d, fam in zip(self.demands, self.families):
            g.check_node(d.u)
            g.check_node(d.v)
            if d.u == d.v:
                raise InstanceError(f"degenerate demand ({d.u},{d.v})")
            if not fam:
                raise InfeasibleDemandError(
                    f"demand ({d.u},{d.v}) has no allowed path within bound {d.bound}"
                )
            for p in fam:
                if p[0] != d.u or p[-1] != d.v:
                    raise InstanceError(f"path {p} does not join ({d.u},{d.v})")
                if len(set(p)) != len(p):
                    raise InstanceError(f"path {p} is not simple")
                if len(p) - 1 > d.bound:
                    raise InstanceError(
                        f"path {p} longer than bound {d.bound} for ({d.u},{d.v})"
                    )

    @property
    def D(self) -> int:
        """Longest allowed path length over every demand (0 if no demands)."""
        return max(
            (len(p) - 1 for fam in self.families for p in fam), default=0
        )

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
    if k < 1:
        raise InstanceError(f"stretch must be >= 1, got {k}")
    if objective is None:
        objective = linear_sum()
    demands = tuple(Demand(u, v, k) for u, v in g.edges)
    out = _out_lists(g)
    families = tuple(tuple(_paths(out, u, v, k)) for u, v in g.edges)
    return CpInstance(g, demands, families, objective)


def build_dsn_instance(
    g: Graph,
    demands: list[tuple[int, int, int]],
    objective: Objective | None = None,
) -> CpInstance:
    """Steiner-network instance with per-demand distance bounds.

    Each demand (u, v, L) requires a directed u->v path of at most L edges.
    Once every demand's nodes pass, a bound below the directed distance
    raises InfeasibleDemandError.
    """
    if objective is None:
        objective = linear_sum()
    for u, v, _ in demands:
        g.check_node(u)
        g.check_node(v)
        if u == v:
            raise InstanceError(f"degenerate demand ({u},{v})")
    indptr, heads, _ = g.arc_csr("out")
    dist = _pair_hops(indptr, heads, [d[0] for d in demands], [d[1] for d in demands], g.n)
    out = _out_lists(g)
    dms = []
    fams = []
    for (u, v, bound), hops in zip(demands, dist.tolist()):
        if hops > bound:
            raise InfeasibleDemandError(
                f"demand ({u},{v}) unreachable within bound {bound} "
                f"(directed distance {'inf' if hops >= UNREACHABLE else hops})"
            )
        dms.append(Demand(u, v, int(bound)))
        fams.append(tuple(_paths(out, u, v, int(bound))))
    return CpInstance(g, tuple(dms), tuple(fams), objective)


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
        except (KeyError, ValueError):
            want = (f"one header line each of {', '.join(_HEADER)}" if in_head
                    else "a demand row '<u> <v> <bound>'")
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
