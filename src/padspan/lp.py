"""LP solving for network-design programs.

Every solve goes to HiGHS (Huangfu & Hall 2018) through scipy's compiled
binding, loaded from its file on the first solve so that `scipy` itself is
never imported. On top of the solver sit the builders that turn an instance
(optionally restricted to a cluster) into the path-flow LP, the global
oracle, and the feasibility certificate: closed forms for the demands
whose path families settle them, and one block max-flow LP over the rest.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cp import CpInstance, evaluate_objective
from .decomposition import padded_mask
from .graphs import as_edge_vector, induced_edges, run_starts, write_text


class LpError(RuntimeError):
    """Solver failure that valid instances should never trigger."""


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


class SimplexStall(LpError):
    """The solver stopped without an optimum, or its answer lost accuracy."""


@dataclass
class LpProblem:
    """min c.y over y >= 0 subject to row_lower <= A y <= row_upper.

    A is row-wise CSR: row i holds value[k] at column index[k] for k in
    start[i]:start[i + 1]. A '<=' row has lower bound -inf, a '>=' row upper
    bound +inf. `rows` shows the same rows as (coefficients by variable
    index, '<=' or '>=', rhs) triples.
    """

    var_names: list[str]
    objective: dict[int, float]
    start: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int32))
    index: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    value: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_upper: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_lower)

    def add_rows(self, count, index, value, lower, upper) -> None:
        """Append a block of rows: row i of the block has count[i] entries,
        taken in turn from index and value, and bounds lower[i], upper[i].
        Each call copies the whole matrix, so add rows in blocks."""
        ends = self.start[-1] + np.cumsum(count, dtype=np.int64)
        self.start = np.concatenate((self.start, ends)).astype(np.int32)
        self.index = np.concatenate((self.index, index)).astype(np.int32)
        self.value = np.concatenate((self.value, value)).astype(float)
        self.row_lower = np.concatenate((self.row_lower, lower)).astype(float)
        self.row_upper = np.concatenate((self.row_upper, upper)).astype(float)

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        """Append the row sum coeffs[j] y_j (sense) rhs, sense '<=' or '>='."""
        if sense not in ("<=", ">="):
            raise LpError(f"unsupported row sense {sense!r}")
        lower, upper = (-np.inf, rhs) if sense == "<=" else (rhs, np.inf)
        self.add_rows([len(coeffs)], list(coeffs), list(coeffs.values()), [lower], [upper])

    @property
    def rows(self) -> tuple[tuple[dict[int, float], str, float], ...]:
        """The rows as (coefficients by variable index, sense, rhs), built
        from the CSR on every access: a row with a finite upper bound reads
        '<=' it, any other '>=' its lower bound."""
        index, value, start = self.index.tolist(), self.value.tolist(), self.start.tolist()
        return tuple(
            (dict(zip(index[a:b], value[a:b])), *(("<=", up) if up < np.inf else (">=", lo)))
            for a, b, lo, up in zip(start, start[1:], self.row_lower.tolist(),
                                    self.row_upper.tolist()))


@dataclass
class LpSolution:
    values: np.ndarray
    objective: float
    iterations: int
    residual: float


# -- HiGHS ------------------------------------------------------------------


def _highs_path() -> str:
    """File of scipy's compiled HiGHS binding, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise LpError("scipy is not installed; its HiGHS binding is the LP solver")
    base = os.path.join(os.path.dirname(spec.origin), "optimize", "_highspy", "_core")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    return next((p for p in paths if os.path.isfile(p)), paths[0])


@functools.cache
def _highs():
    """The binding module, loaded from its file on the first float solve."""
    path = _highs_path()
    if not os.path.isfile(path):
        raise LpError(f"no HiGHS binding at {path}")
    spec = importlib.util.spec_from_file_location("_core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# one thread, a fixed seed, no presolve: the vertex depends on the model alone
_HIGHS_OPTIONS = (("output_flag", False), ("solver", "simplex"),
                  ("presolve", "off"), ("random_seed", 0), ("threads", 1))


def _cost(problem: LpProblem, ncols: int) -> np.ndarray:
    c = np.zeros(ncols)
    c[list(problem.objective)] = list(problem.objective.values())
    return c


def _residual(problem: LpProblem, x: np.ndarray) -> float:
    """Worst violation of a row or of x >= 0 (0 when x is feasible)."""
    nr = problem.num_rows
    rows = np.repeat(np.arange(nr), np.diff(problem.start))
    lhs = np.bincount(rows, weights=problem.value * x[problem.index], minlength=nr)
    gaps = np.maximum(lhs - problem.row_upper, problem.row_lower - lhs)
    return float(max(gaps.max(initial=0.0), -x.min(initial=0.0)))


def _solve_highs(problem: LpProblem) -> LpSolution:
    h = _highs()
    nv, nr = problem.num_vars, problem.num_rows
    cost = _cost(problem, nv)
    solver = h._Highs()
    for name, setting in _HIGHS_OPTIONS:
        if solver.setOptionValue(name, setting) == h.HighsStatus.kError:
            raise LpError(f"HiGHS rejected option {name}={setting!r}")
    # the array overload: (num_col, num_row, num_nz, a_format, sense, offset,
    # col cost/lower/upper, row lower/upper, a_start/index/value, integrality);
    # an empty integrality array makes it fail, so every column says 0
    if solver.passModel(
            nv, nr, len(problem.index), h.MatrixFormat.kRowwise, h.ObjSense.kMinimize, 0.0,
            cost, np.zeros(nv), np.full(nv, np.inf), problem.row_lower, problem.row_upper,
            problem.start, problem.index, problem.value,
            np.zeros(nv, dtype=np.int32)) == h.HighsStatus.kError:
        raise LpError("HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    message = f"HiGHS: {solver.modelStatusToString(status)}"
    if status == h.HighsModelStatus.kInfeasible:
        raise LpInfeasible(message)
    if status in (h.HighsModelStatus.kUnbounded,
                  h.HighsModelStatus.kUnboundedOrInfeasible):
        raise LpUnbounded(message)
    if status != h.HighsModelStatus.kOptimal:
        raise SimplexStall(message)
    x = np.array(solver.getSolution().col_value)
    x[np.abs(x) < 1e-9] = 0.0  # zeros come back as about -1e-14
    res = _residual(problem, x)
    if res > 1e-6:
        raise SimplexStall(f"float residual {res} too large")
    iters = solver.getInfo().simplex_iteration_count
    return LpSolution(x, float(cost @ x), iters, res)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve min c.y, y >= 0 over the problem's rows with HiGHS' simplex.

    Valid network-design programs are always feasible and bounded, so
    LpInfeasible here signals an internal error upstream.
    """
    if problem.num_vars == 0:
        # HiGHS answers "Empty" on a model without columns
        res = _residual(problem, np.zeros(0))
        if res > 0:
            raise LpInfeasible(f"row violated by {res} at the empty point")
        return LpSolution(np.zeros(0), 0.0, 0, 0.0)
    return _solve_highs(problem)


# -- CP -> LP construction ------------------------------------------------


@dataclass
class CpSolution:
    """Edge vector plus optional path flows for a (cluster) program."""

    x: np.ndarray
    flows: dict[int, np.ndarray]
    value: float
    residual: float
    demand_indices: tuple[int, ...] = ()
    lp_iterations: int = 0


def cluster_demands(instance: CpInstance, cluster: frozenset[int] | set[int]) -> list[int]:
    """Demands whose radius-D ball around the source lies inside the cluster.

    Exactly these demands have all allowed paths inside the induced subgraph.
    """
    inside = np.zeros(instance.graph.n, dtype=bool)
    inside[list(cluster)] = True
    padded = padded_mask(instance.graph, inside[None], instance.D)[0] & inside
    return [i for i, d in enumerate(instance.demands) if padded[d.u]]


def _family_rows(instance: CpInstance, chosen: np.ndarray, base: int,
                 x_col: np.ndarray | None = None):
    """The capacity and demand rows of the demands where the mask `chosen`
    is set, as row-wise CSR.

    Columns base, base + 1, ... are the chosen demands' paths, by demand,
    each family in order. For each chosen demand in turn come one capacity
    row per edge its paths use, by ascending edge, with +1 at each path
    through the edge (and -1 at column x_col[edge], last, when x_col is
    given), then its demand row with +1 at each of its paths. One pass over
    the hop arrays builds them: the path entries, listed by column, then the
    x entries go into rows by one stable sort of their row keys, which keeps
    each row's entries in that order.

    Returns (start, index, value, row edge): the row edge of a demand row
    is m.
    """
    m = instance.graph.m
    owner, hop_path = instance.path_owner, instance.hop_path
    path_in = chosen[owner]
    col = base - 1 + np.cumsum(path_in)  # each chosen path's column
    hop_in = path_in[hop_path]
    path, edge = hop_path[hop_in], instance.hop_edge[hop_in]
    cap_key = owner[path] * (m + 1) + edge  # demand rows sort after the edges
    if x_col is not None and (x_col[edge] < 0).any():
        k = int(cap_key[x_col[edge] < 0].min())
        raise LpError(f"demand {k // (m + 1)} path leaves the cluster scope "
                      f"(edge {k % (m + 1)})")
    row_key = [cap_key, owner[path_in] * (m + 1) + m]
    cols = [col[path], col[path_in]]
    if x_col is not None:
        row_key.append(np.unique(cap_key))
        cols.append(x_col[row_key[-1] % (m + 1)])
    key = np.concatenate(row_key)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = run_starts(key)
    start = np.append(np.flatnonzero(first), len(key)).astype(np.int32)
    value = np.where(order < len(path) + len(cols[1]), 1.0, -1.0)  # -1 on x entries
    return start, np.concatenate(cols)[order].astype(np.int32), value, key[first] % (m + 1)


def _family_names(instance: CpInstance, dids: list[int]) -> list[str]:
    """f_<demand>_<path> for the paths of the demands `dids`, in column order."""
    ptr = instance.path_ptr.tolist()
    return [f"f_{di}_{j}" for di in dids for j in range(ptr[di + 1] - ptr[di])]


def build_cluster_cp(
    instance: CpInstance,
    cluster,
    demand_indices: list[int] | None = None,
) -> tuple[LpProblem, list[int], list[int]]:
    """Path-flow LP of the program restricted to a cluster.

    Variables are x_e for e in the induced edge set and f_<demand>_<path> for
    each included demand; capacity rows are emitted only for (demand, edge)
    pairs where some allowed path uses the edge (the remaining rows reduce to
    x_e >= 0, already implied). A max-degree or inf-norm objective adds the
    column lam and its rows, a finite p-norm with p > 1 Kelley's epigraph
    column t, whose cuts `solve_cluster_cp` adds. Returns the LP, the scope
    edge indices, and the included demand indices, ascending: the LP takes
    them in that order.
    """
    g = instance.graph
    members = set(int(u) for u in cluster)
    if demand_indices is None:
        demand_indices = cluster_demands(instance, members)
    chosen = np.zeros(len(instance.demands), dtype=bool)
    chosen[demand_indices] = True
    dids = np.flatnonzero(chosen).tolist()
    in_scope = np.flatnonzero(induced_edges(g, members))
    x_col = np.full(g.m, -1)
    x_col[in_scope] = np.arange(len(in_scope))
    start, index, value, row_edge = _family_rows(instance, chosen, len(in_scope), x_col)
    demand_row = row_edge == g.m
    scope, ns = in_scope.tolist(), len(in_scope)
    problem = LpProblem(
        [f"x_{e}" for e in scope] + _family_names(instance, dids),
        dict.fromkeys(range(ns), 1.0), start, index, value,
        np.where(demand_row, 1.0, -np.inf), np.where(demand_row, np.inf, 0.0))

    obj = instance.objective
    if obj.kind == "max-degree" or (obj.kind == "p-norm" and math.isinf(obj.p)):
        lam = len(problem.var_names)
        problem.var_names.append("lam")
        problem.objective = {lam: 1.0}
        if obj.kind == "max-degree":
            # sum of x over the edges counted in w's degree - lam <= 0, for
            # every member node w, by node
            nodes = np.array(sorted(members), dtype=np.int64)
            ends = {"out": [g.tail], "in": [g.head], "inout": [g.tail, g.head]}[obj.degree_mode]
            rows = [np.searchsorted(nodes, end[in_scope]) for end in ends]
            cols = [np.arange(ns)] * len(ends)
            nr = len(nodes)
        else:  # x_j - lam <= 0 for every scope column j
            rows, cols, nr = [np.arange(ns)], [np.arange(ns)], ns
        # each row's entries by column, so lam last
        row = np.concatenate(rows + [np.arange(nr)])
        col = np.concatenate(cols + [np.full(nr, lam)])
        col = col[np.argsort(row * (lam + 1) + col)]
        problem.add_rows(np.bincount(row, minlength=nr), col, np.where(col == lam, -1.0, 1.0),
                         np.full(nr, -np.inf), np.zeros(nr))
    elif obj.kind == "p-norm" and obj.p > 1:
        problem.var_names.append("t")
        problem.objective = {len(problem.var_names) - 1: 1.0}
    return problem, scope, dids


def solve_cluster_cp(
    instance: CpInstance,
    cluster,
    demand_indices: list[int] | None = None,
) -> CpSolution:
    """Optimal solution of the cluster-restricted program.

    The returned x lives on the full edge index set (zero outside scope);
    flows map demand index -> per-path values. Finite p-norm objectives with
    p > 1 are minimized by Kelley's cutting planes, added to the LP that
    `build_cluster_cp` builds for them. A cluster without demands builds no
    LP: its optimum is zero.
    """
    if demand_indices is None:
        cluster = set(int(u) for u in cluster)
        demand_indices = cluster_demands(instance, cluster)
    if not len(demand_indices):
        return CpSolution(np.zeros(instance.graph.m), {}, 0.0, 0.0, ())
    problem, scope, dids = build_cluster_cp(instance, cluster, demand_indices)
    obj = instance.objective
    if obj.kind == "p-norm" and 1 < obj.p < math.inf:
        return _solve_pnorm(instance, problem, scope, dids)
    return _unpack(instance, scope, dids, solve_lp(problem))


def _unpack(instance, scope, dids, sol: LpSolution) -> CpSolution:
    x = np.zeros(instance.graph.m)
    x[scope] = sol.values[:len(scope)]
    ptr, flows, at = instance.path_ptr.tolist(), {}, len(scope)
    for di in dids:
        k = ptr[di + 1] - ptr[di]
        flows[di] = sol.values[at:at + k]
        at += k
    value = evaluate_objective(instance.objective, x, instance.graph)
    return CpSolution(
        x=x, flows=flows, value=value, residual=sol.residual,
        demand_indices=tuple(dids), lp_iterations=sol.iterations,
    )


def _solve_pnorm(instance: CpInstance, base: LpProblem, scope, dids) -> CpSolution:
    """Kelley cutting planes on `build_cluster_cp`'s LP, whose last column
    is t: minimize t, adding after each solve the cut t >= the tangent of
    ||x||_p at its x, until t meets the norm."""
    p = instance.objective.p
    tcol = base.num_vars - 1
    best: CpSolution | None = None
    for _ in range(200):
        sol = solve_lp(base)
        cps = _unpack(instance, scope, dids, sol)
        t_val = sol.values[tcol]
        g_val = float(np.sum(cps.x**p) ** (1.0 / p))
        if best is None or g_val < best.value:
            best = cps
            best.value = g_val
        if g_val - t_val <= 1e-9:
            break
        xs = cps.x[scope]
        norm = max(g_val, 1e-12)
        grad = (np.maximum(xs, 0.0) / norm) ** (p - 1.0)
        coeffs = {j: float(grad[j]) for j in range(len(scope)) if grad[j] > 0}
        coeffs[tcol] = -1.0
        rhs = float(np.dot(grad, xs) - g_val)
        base.add_row(coeffs, "<=", rhs)
    assert best is not None
    return best


def solve_global_oracle(instance: CpInstance) -> CpSolution:
    """Optimum of the whole-graph program (the comparison baseline).

    Every node of the whole graph is padded, so every demand is included.
    """
    return solve_cluster_cp(instance, range(instance.graph.n),
                            demand_indices=list(range(len(instance.demands))))


# -- feasibility ----------------------------------------------------------


@dataclass
class FeasibilityReport:
    feasible: bool
    demand_flow: np.ndarray


def check_feasibility(instance: CpInstance, x, tol: float = 1e-9) -> FeasibilityReport:
    """Max-flow certificate: does x admit one unit of allowed-path flow per demand?

    Demand i's max flow is capped at 1 by its row sum f <= 1, next to the
    capacity rows sum_{p: e in p} f_p <= x_e. The path families settle most
    demands in closed form, from the bottleneck min_{e in p} x_e of each
    path: a demand with a saturated path (bottleneck >= 1) has flow exactly
    1, and one whose paths share no edge has min(1, sum of bottlenecks).
    One block LP maximizes the total flow of the other demands, if any. Each
    has its own block of path-flow columns and rows; the blocks share no
    rows or columns, so an optimum of the sum is optimal in every block, and
    a demand's max flow is the sum of its block. The instance is feasible
    iff every demand reaches flow >= 1 - tol.
    """
    x = as_edge_vector(instance.graph, x)
    nd, owner = len(instance.demands), instance.path_owner
    # every path has a hop, so no reduceat slice is empty
    bottleneck = np.minimum.reduceat(x[instance.hop_edge], instance.hop_ptr[:-1])
    saturated = np.zeros(nd, dtype=bool)
    saturated[owner[bottleneck >= 1]] = True
    flows = np.minimum(1.0, np.bincount(owner, weights=bottleneck, minlength=nd))
    flows[saturated] = 1.0
    left = ~saturated & instance.shares_edges
    if left.any():
        start, index, value, row_edge = _family_rows(instance, left, 0)
        names = _family_names(instance, np.flatnonzero(left).tolist())
        problem = LpProblem(names, dict.fromkeys(range(len(names)), -1.0), start, index,
                            value, np.full(len(row_edge), -np.inf), np.append(x, 1.0)[row_edge])
        sol = solve_lp(problem)
        flows[left] = np.bincount(owner[left[owner]], weights=sol.values, minlength=nd)[left]
    return FeasibilityReport(bool(np.all(flows >= 1 - tol)), flows)


# -- LP text dump ----------------------------------------------------------


def dump_lp(problem: LpProblem, path: str) -> None:
    """Write the problem in CPLEX LP text format for external cross-checks."""

    def term(v: float, name: str) -> str:
        return f"{'+' if v >= 0 else '-'} {abs(v):.12g} {name}"

    lines = ["\\ padspan LP dump", "Minimize"]
    obj_terms = " ".join(
        term(v, problem.var_names[j]) for j, v in sorted(problem.objective.items())
    )
    # an empty objective names a variable at 0, if there is one
    lines.append(f" obj: {obj_terms or ' '.join(['0', *problem.var_names[:1]])}")
    lines.append("Subject To")
    for i, (coeffs, sense, rhs) in enumerate(problem.rows):
        body = " ".join(term(v, problem.var_names[j]) for j, v in sorted(coeffs.items()))
        lines.append(f" c{i}: {body} {'<=' if sense == '<=' else '>='} {rhs:.12g}")
    lines.append("Bounds")
    for name in problem.var_names:
        lines.append(f" 0 <= {name}")
    lines.append("End")
    write_text(path, "\n".join(lines))
