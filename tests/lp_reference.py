"""Exhaustive vertex enumeration, the reference optimum the LP tests
compare HiGHS against, and the conversions between an LpProblem and dense
'<=' arrays (c, A, b) that feed it; also the row-by-row, dict-built
cluster and feasibility LPs that the array builders in `padspan.lp`
replaced. Not collected by pytest."""

import itertools
import math
from fractions import Fraction

import numpy as np

from padspan.graphs import induced_edges
from padspan.lp import LpError, LpProblem, cluster_demands


def vertex_enum_min(c, A, b):
    """Exhaustive vertex oracle for min c.x over {A x <= b, x >= 0}.

    Enumerates every choice of n active constraints with batched linear
    algebra, then re-solves the near-optimal bases in exact rational
    arithmetic so the reference value carries no conditioning error.
    Returns None when no vertex is feasible (or the polytope is empty).
    """
    nr, nv = A.shape
    ext = np.vstack([A, -np.eye(nv)])
    rhs = np.concatenate([b, np.zeros(nv)])
    combos = np.array(list(itertools.combinations(range(nr + nv), nv)))
    M = ext[combos]
    good = np.abs(np.linalg.det(M)) > 1e-8
    if not good.any():
        return None
    combos = combos[good]
    X = np.linalg.solve(ext[combos], rhs[combos][..., None])[..., 0]
    feas = np.all(X @ ext.T <= rhs[None, :] + 1e-8, axis=1)
    if not feas.any():
        return None
    vals = X[feas] @ c
    float_best = float(vals.min())
    near = combos[feas][vals <= float_best + 1e-6]

    ext_q = [[Fraction(float(v)) for v in row] for row in ext]
    rhs_q = [Fraction(float(v)) for v in rhs]
    c_q = [Fraction(float(v)) for v in c]
    best = None
    for idx in near:
        rows = [ext_q[i][:] + [rhs_q[i]] for i in idx]
        x = _exact_solve(rows, nv)
        if x is None:
            continue
        if any(
            sum(ext_q[i][j] * x[j] for j in range(nv)) > rhs_q[i]
            for i in range(nr + nv)
        ):
            continue
        val = sum(c_q[j] * x[j] for j in range(nv))
        if best is None or val < best:
            best = val
    return None if best is None else float(best)


def _exact_solve(rows, nv):
    """Gaussian elimination over Fractions; None when singular."""
    for col in range(nv):
        piv = next((r for r in range(col, nv) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [v / inv for v in rows[col]]
        for r in range(nv):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * p for a, p in zip(rows[r], rows[col])]
    return [rows[r][nv] for r in range(nv)]


def le_problem(c, A, b):
    """The LpProblem min c.x over {A x <= b, x >= 0}."""
    nv = len(c)
    problem = LpProblem([f"v{i}" for i in range(nv)],
                        {i: float(c[i]) for i in range(nv)})
    for i in range(A.shape[0]):
        problem.add_row({j: float(A[i, j]) for j in range(nv)}, "<=", float(b[i]))
    return problem


def dense_le(problem):
    """(c, A, b) of an LpProblem with every row as '<='; a '>=' row enters
    negated."""
    nv = problem.num_vars
    c = np.zeros(nv)
    c[list(problem.objective)] = list(problem.objective.values())
    A = np.zeros((len(problem.rows), nv))
    b = np.zeros(len(problem.rows))
    for i, (coeffs, sense, rhs) in enumerate(problem.rows):
        sign = 1.0 if sense == "<=" else -1.0
        A[i, list(coeffs)] = [sign * v for v in coeffs.values()]
        b[i] = sign * rhs
    return c, A, b


def _paths_by_edge(fam_edges) -> list[tuple[int, list[int]]]:
    """(edge, indices of the family's paths that use it), by ascending edge."""
    by_edge: dict[int, list[int]] = {}
    for j, edges in enumerate(fam_edges):
        for e in edges:
            by_edge.setdefault(e, []).append(j)
    return sorted(by_edge.items())


def dict_cluster_cp(instance, cluster, demand_indices=None):
    """build_cluster_cp row by row: the same LP, columns, rows and entry
    order, from the tuple families."""
    g = instance.graph
    members = set(int(u) for u in cluster)
    if demand_indices is None:
        demand_indices = cluster_demands(instance, members)
    scope = np.flatnonzero(induced_edges(g, members)).tolist()
    x_col = {e: j for j, e in enumerate(scope)}
    problem = LpProblem(var_names=[f"x_{e}" for e in scope], objective={})
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
                raise LpError(f"demand {di} path leaves the cluster scope (edge {e})")
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
    elif math.isinf(obj.p):
        lam = len(problem.var_names)
        problem.var_names.append("lam")
        problem.objective = {lam: 1.0}
        for e in scope:
            problem.add_row({x_col[e]: 1.0, lam: -1.0}, "<=", 0.0)
    else:  # a finite p-norm, p > 1: Kelley's epigraph column, no rows yet
        t = len(problem.var_names)
        problem.var_names.append("t")
        problem.objective = {t: 1.0}
    return problem, scope, list(demand_indices)


def dict_feasibility_lp(instance, x, demands=None):
    """The block max-flow LP of check_feasibility over the demands
    `demands` (all by default), ascending, row by row."""
    problem = LpProblem(var_names=[], objective={})
    for di, fam_edges in enumerate(instance.family_edges):
        if demands is not None and di not in demands:
            continue
        base, k = problem.num_vars, len(fam_edges)
        problem.var_names.extend(f"f_{di}_{j}" for j in range(k))
        for e, js in _paths_by_edge(fam_edges):
            problem.add_row({base + j: 1.0 for j in js}, "<=", float(x[e]))
        problem.add_row({base + j: 1.0 for j in range(k)}, "<=", 1.0)
    problem.objective = dict.fromkeys(range(problem.num_vars), -1.0)
    return problem
