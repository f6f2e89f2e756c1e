"""Exact small-scale LP solving for network-design programs.

One self-contained two-phase tableau simplex does all the work. It runs over
float arrays with deterministic pivoting for speed, or over object arrays of
Fractions for an exact rational solve, which is also the fallback when the
float path stalls on a small enough problem. On top of the kernel sit the
builders that turn an instance (optionally restricted to a cluster) into the
path-flow LP, the global oracle, and a per-demand max-flow feasibility check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cp import CpInstance, Objective, evaluate_objective
from .decomposition import padded_mask
from .graphs import as_edge_vector

EXACT_VAR_LIMIT = 200


class LpError(RuntimeError):
    """Solver failure that valid instances should never trigger."""


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


class SimplexStall(LpError):
    """Simplex exceeded its iteration budget, or a float solve lost accuracy."""


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
    status: str
    iterations: int
    mode: str
    residual: float


# -- simplex kernel -------------------------------------------------------


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0
    T -= np.outer(colvals, T[row])
    T[row, col] = 1  # fight roundoff on the pivot column
    basis[row] = col


def _simplex(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    art_cols: list[int],
    basis0: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, int]:
    """Two-phase simplex on a prepared standard-form system.

    Float arrays pivot by Dantzig's rule (deterministic tie-breaks) and
    switch permanently to Bland's rule after a stall. Object arrays of
    Fractions (with tol = 0) are exact: they pivot by Bland's rule from the
    start, which always terminates, so no stall is counted. Both keep an
    iteration budget. Returns the full variable vector and the iteration
    count.
    """
    nr, nc = A.shape
    exact = A.dtype == object
    iterations = 0

    def run(costs: np.ndarray, T: np.ndarray, basis: np.ndarray,
            allowed: np.ndarray):
        nonlocal iterations
        # reduced-cost row: c - c_B B^-1 A, tracked incrementally; an int
        # start keeps Fractions exact (Fraction - float gives a float)
        obj = costs.copy()
        rhs_obj = 0
        for i in range(nr):
            cb = costs[basis[i]]
            if cb != 0:
                obj -= cb * T[i, :-1]
                rhs_obj -= cb * T[i, -1]
        bland = exact
        stall = 0
        # exact pivoting by Bland's rule terminates, so it counts no stall
        stall_limit = math.inf if exact else 4 * (nr + nc) + 100
        best = math.inf
        max_iter = 200 * (nr + nc) + 2000
        while True:
            cand = np.where(allowed & (obj < -tol))[0]
            if cand.size == 0:
                return -rhs_obj
            if bland:
                col = int(cand[0])
            else:
                col = int(cand[np.argmin(obj[cand])])
            colvec = T[:, col]
            pos = np.where(colvec > tol)[0]
            if pos.size == 0:
                raise LpUnbounded("unbounded entering column")
            ratios = T[pos, -1] / colvec[pos]
            rmin = ratios.min()
            tie = pos[ratios <= rmin + tol]
            row = int(tie[np.argmin(basis[tie])])
            piv = T[row, col]
            # update objective row as part of the pivot
            factor = obj[col] / piv
            obj -= factor * T[row, :-1]
            rhs_obj -= factor * T[row, -1]
            obj[col] = 0
            _pivot(T, basis, row, col)
            iterations += 1
            val = -rhs_obj
            if val < best - tol:
                best = val
                stall = 0
            else:
                stall += 1
                if stall > stall_limit:
                    if bland:
                        raise SimplexStall("no progress under Bland's rule")
                    bland = True
                    stall = 0
            if iterations > max_iter:
                raise SimplexStall(f"iteration budget {max_iter} exceeded")

    T = np.empty((nr, nc + 1), dtype=A.dtype)
    T[:, :-1] = A
    T[:, -1] = b
    basis = basis0.copy()

    if art_cols:
        c1 = np.zeros(nc, dtype=A.dtype)
        c1[art_cols] = 1
        allowed = np.ones(nc, dtype=bool)
        val1 = run(c1, T, basis, allowed)
        if val1 > (0 if exact else max(1e-7, 1000 * tol)):
            raise LpInfeasible(f"phase-1 optimum {val1} > 0")
        art_set = set(art_cols)
        # drive leftover artificials out of the basis where possible
        for i in range(nr):
            if basis[i] in art_set:
                nonz = np.where(np.abs(T[i, :-1]) > tol)[0]
                nonz = [j for j in nonz if j not in art_set]
                if nonz:
                    _pivot(T, basis, i, int(nonz[0]))
        allowed = np.ones(nc, dtype=bool)
        allowed[art_cols] = False
        keep = np.array([basis[i] not in art_set for i in range(nr)])
        if not keep.all():
            T = T[keep]
            basis = basis[keep]
            nr = T.shape[0]
    else:
        allowed = np.ones(nc, dtype=bool)

    run(c, T, basis, allowed)
    values = np.zeros(nc, dtype=A.dtype)
    values[basis] = T[:, -1]
    return values, iterations


def _standard_form(problem: LpProblem):
    """Expand sense rows into equality standard form with slack/artificials."""
    nv = problem.num_vars
    nr = len(problem.rows)
    rows = []
    senses = []
    rhs = []
    for coeffs, sense, b in problem.rows:
        if b < 0:
            flip = -1.0
            senses.append(">=" if sense == "<=" else "<=")
        else:
            flip = 1.0
            senses.append(sense)
        rows.append({j: flip * v for j, v in coeffs.items()})
        rhs.append(flip * b)
    # after normalization every rhs >= 0; '>=' rows need artificials
    n_art = sum(1 for s in senses if s == ">=")
    nc = nv + nr + n_art
    art_cols: list[int] = []
    basis = []
    A = np.zeros((nr, nc))
    bb = np.asarray(rhs, dtype=float)
    a_next = nv + nr
    for i, row in enumerate(rows):
        for j, v in row.items():
            A[i, j] = v
        if senses[i] == "<=":
            A[i, nv + i] = 1.0
            basis.append(nv + i)
        else:
            A[i, nv + i] = -1.0
            A[i, a_next] = 1.0
            art_cols.append(a_next)
            basis.append(a_next)
            a_next += 1
    c = np.zeros(nc)
    for j, v in problem.objective.items():
        c[j] = v
    return A, bb, c, art_cols, np.asarray(basis, dtype=np.int64)


# float -> nearby rational, elementwise into an object array
_rational = np.frompyfunc(lambda v: Fraction(v).limit_denominator(10**12), 1, 1)


def solve_lp(problem: LpProblem, tol: float = 1e-9, exact: bool = False) -> LpSolution:
    """Solve min c.y, y >= 0 over the problem's rows.

    The float path falls back to exact rationals when it stalls and the
    problem has at most EXACT_VAR_LIMIT variables. Exact mode keeps the
    iteration budget, so it raises SimplexStall rather than run on. Valid
    network-design programs are always feasible and bounded, so LpInfeasible
    here signals an internal error upstream.
    """
    nv = problem.num_vars
    if nv == 0:
        return LpSolution(np.zeros(0), 0.0, "optimal", 0, "trivial", 0.0)
    A, b, c, art, basis = _standard_form(problem)
    if exact:
        c = _rational(c)
        vals, iters = _simplex(_rational(A), _rational(b), c, art, basis, 0)
        x = vals[:nv].astype(float)
        obj = float(np.dot(c[:nv], vals[:nv]))
        return LpSolution(x, obj, "optimal", iters, "exact",
                          _residual(problem, x))
    try:
        vals, iters = _simplex(A, b, c, art, basis, tol)
        x = vals[:nv]
        x[np.abs(x) < tol] = 0.0
        obj = float(np.dot(c[:nv], x))
        res = _residual(problem, x)
        if res > max(1e-6, 1000 * tol):
            raise SimplexStall(f"float residual {res} too large")
        return LpSolution(x, obj, "optimal", iters, "float", res)
    except SimplexStall:
        if nv > EXACT_VAR_LIMIT:
            raise
        return solve_lp(problem, tol, exact=True)


def _residual(problem: LpProblem, x: np.ndarray) -> float:
    worst = 0.0
    for coeffs, sense, rhs in problem.rows:
        lhs = sum(v * x[j] for j, v in coeffs.items())
        gap = lhs - rhs if sense == "<=" else rhs - lhs
        worst = max(worst, gap)
    worst = max(worst, float(-(x.min(initial=0.0))))
    return worst


# -- CP -> LP construction ------------------------------------------------


@dataclass
class CpSolution:
    """Edge vector plus optional path flows for a (cluster) program."""

    x: np.ndarray
    flows: dict[int, np.ndarray]
    value: float
    status: str
    residual: float
    demand_indices: tuple[int, ...] = ()
    lp_iterations: int = 0
    mode: str = "float"


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
    scope = [i for i, (u, v) in enumerate(g.edges) if u in members and v in members]
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
        return CpSolution(x, {}, 0.0, "optimal", 0.0, tuple())
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
        x=x, flows=flows, value=value, status=sol.status,
        residual=sol.residual, demand_indices=tuple(dids),
        lp_iterations=sol.iterations, mode=sol.mode,
    )


def _solve_pnorm(instance: CpInstance, cluster,
                 demand_indices: list[int] | None = None) -> CpSolution:
    """Kelley cutting planes: minimize t with t >= tangent of ||x||_p at iterates."""
    base, scope, dids = build_cluster_cp(
        _with_objective(instance, Objective("linear-sum")), cluster, demand_indices
    )
    if not dids:
        return CpSolution(np.zeros(instance.graph.m), {}, 0.0, "optimal", 0.0, ())
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
    """Exact optimum of the whole-graph program (the comparison baseline)."""
    return solve_cluster_cp(instance, range(instance.graph.n))


# -- feasibility ----------------------------------------------------------


@dataclass
class FeasibilityReport:
    feasible: bool
    demand_flow: np.ndarray

    def witness(self) -> dict[int, float]:
        return {i: float(v) for i, v in enumerate(self.demand_flow)}


def check_feasibility(instance: CpInstance, x, tol: float = 1e-9) -> FeasibilityReport:
    """Max-flow certificate: does x admit one unit of allowed-path flow per demand?

    For each demand a small LP maximizes total flow over its path family with
    x as edge capacities; the instance is feasible iff every demand reaches
    flow >= 1 - tol.
    """
    g = instance.graph
    x = as_edge_vector(g, x)
    flows = np.zeros(len(instance.demands))
    for i in range(len(instance.demands)):
        flows[i] = _max_demand_flow(instance, i, x, tol)
    return FeasibilityReport(bool(np.all(flows >= 1 - tol)), flows)


def _max_demand_flow(instance: CpInstance, di: int, x: np.ndarray,
                     tol: float) -> float:
    fam_edges = instance.family_edges[di]
    k = len(fam_edges)
    names = [f"f_{di}_{j}" for j in range(k)]
    problem = LpProblem(var_names=names, objective={j: -1.0 for j in range(k)})
    for e, js in _paths_by_edge(fam_edges):
        problem.add_row({j: 1.0 for j in js}, "<=", float(x[e]))
    # flow never needs to exceed one unit; keeps the LP bounded and small
    problem.add_row({j: 1.0 for j in range(k)}, "<=", 1.0)
    sol = solve_lp(problem, tol=tol)
    return -sol.objective


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
