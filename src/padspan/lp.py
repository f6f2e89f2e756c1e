"""LP solving for network-design programs.

Every solve goes to HiGHS (Huangfu & Hall 2018) through scipy's compiled
binding, loaded from its file on the first solve so that `scipy` itself is
never imported. On top of the solver sit the builders that turn an instance
(optionally restricted to a cluster) into the path-flow LP, the global
oracle, and the feasibility certificate: one block max-flow LP over all
demands.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cp import CpInstance, Objective, evaluate_objective
from .decomposition import padded_mask
from .graphs import as_edge_vector, induced_edges


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
    """min c.y over y >= 0 subject to sparse sense rows.

    Rows are (coefficients by variable index, '<=' or '>=', rhs).
    """

    var_names: list[str]
    objective: dict[int, float]
    rows: list[tuple[dict[int, float], str, float]] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        if sense not in ("<=", ">="):
            raise LpError(f"unsupported row sense {sense!r}")
        self.rows.append((coeffs, sense, rhs))


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


def _csr(problem: LpProblem):
    """Row-wise CSR (start, index, value) of the rows, and the row bounds
    (lower, upper) their senses give."""
    nr = len(problem.rows)
    start = np.zeros(nr + 1, dtype=np.int32)
    lower, upper = np.full(nr, -np.inf), np.full(nr, np.inf)
    index: list[int] = []
    value: list[float] = []
    for i, (coeffs, sense, rhs) in enumerate(problem.rows):
        index.extend(coeffs)
        value.extend(coeffs.values())
        start[i + 1] = len(index)
        (upper if sense == "<=" else lower)[i] = rhs
    return start, np.asarray(index, dtype=np.int32), np.asarray(value), lower, upper


def _cost(problem: LpProblem, ncols: int) -> np.ndarray:
    c = np.zeros(ncols)
    c[list(problem.objective)] = list(problem.objective.values())
    return c


def _residual(csr, x: np.ndarray) -> float:
    """Worst violation of a row or of x >= 0 (0 when x is feasible)."""
    start, index, value, lower, upper = csr
    rows = np.repeat(np.arange(len(lower)), np.diff(start))
    lhs = np.bincount(rows, weights=value * x[index], minlength=len(lower))
    gaps = np.maximum(lhs - upper, lower - lhs)
    return float(max(gaps.max(initial=0.0), -x.min(initial=0.0)))


def _solve_highs(problem: LpProblem) -> LpSolution:
    h = _highs()
    nv, nr = problem.num_vars, len(problem.rows)
    csr = _csr(problem)
    cost = _cost(problem, nv)
    lp = h.HighsLp()
    lp.num_col_, lp.num_row_ = nv, nr
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, np.zeros(nv), np.full(nv, np.inf)
    a = lp.a_matrix_
    a.format_, a.num_col_, a.num_row_ = h.MatrixFormat.kRowwise, nv, nr
    a.start_, a.index_, a.value_, lp.row_lower_, lp.row_upper_ = csr
    solver = h._Highs()
    for name, setting in _HIGHS_OPTIONS:
        if solver.setOptionValue(name, setting) == h.HighsStatus.kError:
            raise LpError(f"HiGHS rejected option {name}={setting!r}")
    if solver.passModel(lp) == h.HighsStatus.kError:
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
    res = _residual(csr, x)
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
        res = _residual(_csr(problem), np.zeros(0))
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


def _paths_by_edge(fam_edges) -> list[tuple[int, list[int]]]:
    """(edge, indices of the family's paths that use it), by ascending edge."""
    by_edge: dict[int, list[int]] = {}
    for j, edges in enumerate(fam_edges):
        for e in edges:
            by_edge.setdefault(e, []).append(j)
    return sorted(by_edge.items())


def build_cluster_cp(
    instance: CpInstance,
    cluster,
    demand_indices: list[int] | None = None,
) -> tuple[LpProblem, list[int], list[int]]:
    """Path-flow LP of the program restricted to a cluster.

    Variables are x_e for e in the induced edge set and f_<demand>_<path> for
    each included demand; capacity rows are emitted only for (demand, edge)
    pairs where some allowed path uses the edge (the remaining rows reduce to
    x_e >= 0, already implied). Returns the LP, the scope edge indices, and
    the included demand indices.
    """
    g = instance.graph
    members = set(int(u) for u in cluster)
    if demand_indices is None:
        demand_indices = cluster_demands(instance, members)
    scope = np.flatnonzero(induced_edges(g, members)).tolist()
    x_col = {e: j for j, e in enumerate(scope)}
    names = [f"x_{e}" for e in scope]
    problem = LpProblem(var_names=names, objective={})
    f_cols: list[list[int]] = []
    for di in demand_indices:
        cols = []
        for pj, _ in enumerate(instance.families[di]):
            cols.append(len(problem.var_names))
            problem.var_names.append(f"f_{di}_{pj}")
        f_cols.append(cols)

    for slot, di in enumerate(demand_indices):
        for e, pjs in _paths_by_edge(instance.family_edges[di]):
            if e not in x_col:
                raise LpError(
                    f"demand {di} path leaves the cluster scope (edge {e})"
                )
            coeffs = {f_cols[slot][pj]: 1.0 for pj in pjs}
            coeffs[x_col[e]] = -1.0
            problem.add_row(coeffs, "<=", 0.0)
        problem.add_row({col: 1.0 for col in f_cols[slot]}, ">=", 1.0)

    obj = instance.objective
    if obj.kind == "linear-sum" or (obj.kind == "p-norm" and obj.p == 1):
        problem.objective = {x_col[e]: 1.0 for e in scope}
    elif obj.kind == "max-degree":
        lam = len(problem.var_names)
        problem.var_names.append("lam")
        problem.objective = {lam: 1.0}
        incident: dict[int, list[int]] = {w: [] for w in sorted(members)}
        for e in scope:
            u, v = g.edges[e]
            if obj.degree_mode in ("out", "inout"):
                incident[u].append(e)
            if obj.degree_mode in ("in", "inout"):
                incident[v].append(e)
        for w in sorted(incident):
            coeffs = {x_col[e]: 1.0 for e in incident[w]}
            coeffs[lam] = coeffs.get(lam, 0.0) - 1.0
            problem.add_row(coeffs, "<=", 0.0)
    elif obj.kind == "p-norm" and math.isinf(obj.p):
        lam = len(problem.var_names)
        problem.var_names.append("lam")
        problem.objective = {lam: 1.0}
        for e in scope:
            problem.add_row({x_col[e]: 1.0, lam: -1.0}, "<=", 0.0)
    else:
        raise LpError(
            f"objective {obj.label()} has no direct LP form; "
            "use solve_cluster_cp which handles it by cutting planes"
        )
    return problem, scope, list(demand_indices)


def solve_cluster_cp(
    instance: CpInstance,
    cluster,
    demand_indices: list[int] | None = None,
) -> CpSolution:
    """Optimal solution of the cluster-restricted program.

    The returned x lives on the full edge index set (zero outside scope);
    flows map demand index -> per-path values. Finite p-norm objectives with
    p > 1 are minimized by cutting planes over the same LP feasible set.
    """
    obj = instance.objective
    if obj.kind == "p-norm" and 1 < obj.p < math.inf:
        return _solve_pnorm(instance, cluster, demand_indices)
    problem, scope, dids = build_cluster_cp(instance, cluster, demand_indices)
    if not dids:
        x = np.zeros(instance.graph.m)
        return CpSolution(x, {}, 0.0, 0.0, tuple())
    sol = solve_lp(problem)
    return _unpack(instance, problem, scope, dids, sol)


def _unpack(instance, problem, scope, dids, sol: LpSolution) -> CpSolution:
    x = np.zeros(instance.graph.m)
    for j, e in enumerate(scope):
        x[e] = sol.values[j]
    flows = {}
    pos = len(scope)
    for di in dids:
        k = len(instance.families[di])
        flows[di] = np.asarray(sol.values[pos : pos + k], dtype=float)
        pos += k
    value = evaluate_objective(instance.objective, x, instance.graph)
    return CpSolution(
        x=x, flows=flows, value=value, residual=sol.residual,
        demand_indices=tuple(dids), lp_iterations=sol.iterations,
    )


def _solve_pnorm(instance: CpInstance, cluster,
                 demand_indices: list[int] | None = None) -> CpSolution:
    """Kelley cutting planes: minimize t with t >= tangent of ||x||_p at iterates."""
    base, scope, dids = build_cluster_cp(
        _with_objective(instance, Objective("linear-sum")), cluster, demand_indices
    )
    if not dids:
        return CpSolution(np.zeros(instance.graph.m), {}, 0.0, 0.0, ())
    p = instance.objective.p
    tcol = len(base.var_names)
    base.var_names.append("t")
    base.objective = {tcol: 1.0}
    best: CpSolution | None = None
    for _ in range(200):
        sol = solve_lp(base)
        cps = _unpack(instance, base, scope, dids, sol)
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


def _with_objective(instance: CpInstance, objective: Objective) -> CpInstance:
    return CpInstance(
        graph=instance.graph, demands=instance.demands,
        families=instance.families, objective=objective,
        family_edges=instance.family_edges,
    )


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

    One block LP maximizes the total flow. Each demand has its own block of
    path-flow columns, with capacity rows sum_{p: e in p} f_p <= x_e and a row
    sum f <= 1 that keeps it bounded. The blocks share no rows or columns, so
    an optimum of the sum is optimal in every block, and demand i's max flow
    is the sum of its block. The instance is feasible iff every demand
    reaches flow >= 1 - tol.
    """
    x = as_edge_vector(instance.graph, x)
    problem = LpProblem(var_names=[], objective={})
    sizes = []
    for di, fam_edges in enumerate(instance.family_edges):
        base, k = problem.num_vars, len(fam_edges)
        problem.var_names.extend(f"f_{di}_{j}" for j in range(k))
        for e, js in _paths_by_edge(fam_edges):
            problem.add_row({base + j: 1.0 for j in js}, "<=", float(x[e]))
        problem.add_row({base + j: 1.0 for j in range(k)}, "<=", 1.0)
        sizes.append(k)
    problem.objective = dict.fromkeys(range(problem.num_vars), -1.0)
    sol = solve_lp(problem)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    flows = np.bincount(owner, weights=sol.values, minlength=len(sizes)).astype(float)
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
    lines.append(f" obj: {obj_terms or '0 ' + problem.var_names[0]}")
    lines.append("Subject To")
    for i, (coeffs, sense, rhs) in enumerate(problem.rows):
        body = " ".join(term(v, problem.var_names[j]) for j, v in sorted(coeffs.items()))
        lines.append(f" c{i}: {body} {'<=' if sense == '<=' else '>='} {rhs:.12g}")
    lines.append("Bounds")
    for name in problem.var_names:
        lines.append(f" 0 <= {name}")
    lines.append("End")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
