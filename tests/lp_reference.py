"""Exhaustive vertex enumeration, the reference optimum the LP tests
compare HiGHS against, and the conversions between an LpProblem and dense
'<=' arrays (c, A, b) that feed it. Not collected by pytest."""

import itertools
from fractions import Fraction

import numpy as np

from padspan.lp import LpProblem


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
