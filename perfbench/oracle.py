"""Correctness oracle, run outside the timed region.

Linear systems are classified by sympy's exact `rref` of the field matrix
that `refalg` assembles from the structure constants, never by ncalg's own
elimination.  Returned solutions are checked by substitution, again with
`refalg`.  Each check returns one of:

* OK     -- the answer is right;
* FAILED -- no answer (an exception, or Newton stopping without
  converging): the op counts as failed;
* WRONG  -- an answer the oracle refutes: the op counts as failed and the
  run reports `correct: false`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from refalg import parse_coords, rank_exact, solve_exact

OK, FAILED, WRONG = "ok", "failed", "wrong"
NEWTON_TOL = 1e-9  # NewtonConfig's and the CLI's default tolerance
UNIQUE, PARAMETRIC, INCONSISTENT = "unique", "parametric", "inconsistent"
UNVERIFIED = "unverified_enlarged"
# where solve_richardson may not raise PivotNotInvertible
DIVISION_ALGEBRAS = {"H", "complex"}


# -- polynomials (Newton inputs) --------------------------------------------------


def poly_eval(alg, monos, x):
    total = alg.zero()
    for mono in monos:
        acc = mono[0]
        for c in mono[1:]:
            acc = alg.mul(alg.mul(acc, x), c)
        total = alg.add(total, acc)
    return total


def poly_derivative_rank(alg, monos, x):
    """Rank of h -> sum over monomials and positions of left(x) h right(x)."""
    pairs = []
    for mono in monos:
        for t in range(1, len(mono)):
            left = mono[0]
            for c in mono[1:t]:
                left = alg.mul(alg.mul(left, x), c)
            right = mono[t]
            for c in mono[t + 1:]:
                right = alg.mul(alg.mul(right, x), c)
            pairs.append((left, right, 0))
    columns = [alg.apply_terms(pairs, [alg.unit(q)]) for q in range(alg.dim)]
    return rank_exact([list(r) for r in zip(*columns)])


# -- linear systems ------------------------------------------------------------------


def classify(alg, equations, m_unk):
    """(kind, nullity) of the system, from sympy's exact rref."""
    import sympy

    matrix = alg.field_matrix(equations, m_unk)
    flat = [c for _terms, b in equations for c in b]
    aug = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                        + [sympy.Rational(b.numerator, b.denominator)]
                        for row, b in zip(matrix, flat)])
    _, pivots = aug.rref()
    cols = alg.dim * m_unk
    if cols in pivots:
        return INCONSISTENT, None
    nullity = cols - len(pivots)
    return (UNIQUE if nullity == 0 else PARAMETRIC), nullity


def solve_unique(alg, equations, m_unk):
    """The solution of a nonsingular system, one coordinate tuple per unknown."""
    flat = [c for _terms, b in equations for c in b]
    sol = solve_exact(alg.field_matrix(equations, m_unk), flat)
    n = alg.dim
    return [tuple(sol[j * n:(j + 1) * n]) for j in range(m_unk)]


def satisfies(alg, equations, xs):
    return all(alg.apply_terms(terms, xs) == tuple(b) for terms, b in equations)


def directions_ok(alg, equations, dirs, nullity, complete):
    """Directions lie in the kernel, are independent and, for a complete
    family, span it."""
    for d in dirs:
        if any(any(alg.apply_terms(terms, d)) for terms, _b in equations):
            return False
    if dirs and rank_exact([[c for x in d for c in x] for d in dirs]) != len(dirs):
        return False
    return len(dirs) == nullity if complete else len(dirs) <= (nullity or 0)


def check_solution(alg, op, truth, kind, xs, dirs, complete=True):
    """One route's answer (kind, xs, dirs) against the oracle's (kind, nullity)."""
    want, nullity = truth
    eqs = op["equations"]
    if kind == UNVERIFIED:
        # honest only on a singular system, and only if x really fails
        return OK if want != UNIQUE and xs and not satisfies(alg, eqs, xs) else WRONG
    if kind != want:
        return WRONG
    if kind == INCONSISTENT:
        return OK if xs is None else WRONG
    if not satisfies(alg, eqs, xs):
        return WRONG
    return OK if directions_ok(alg, eqs, dirs, nullity, complete) else WRONG


def worst(*verdicts):
    for v in (WRONG, FAILED):
        if v in verdicts:
            return v
    return OK


def check_library_solve(op, result, alg):
    if isinstance(result, Exception):
        return FAILED
    field, richardson = result
    truth = classify(alg, op["equations"], op["m_unk"])

    def coords(elems):
        return [tuple(e.coords) for e in elems] if elems is not None else None

    verdict = check_solution(alg, op, truth, field.kind, coords(field.x),
                             [coords(d) for d in field.nullspace])
    if field.kind == UNVERIFIED:
        verdict = WRONG  # the field route never returns an enlarged candidate
    if richardson is not None:
        verdict = worst(verdict, check_solution(
            alg, op, truth, richardson.kind, coords(richardson.x),
            [coords(d) for d in richardson.nullspace], complete=False))
    elif alg.name in DIVISION_ALGEBRAS:
        verdict = worst(verdict, FAILED)  # every nonzero pivot is invertible
    return verdict


def check_newton(op, trace, alg):
    if isinstance(trace, Exception) or trace.status != "converged":
        return FAILED
    x = tuple(trace.solution.coords)
    return OK if _newton_residual(alg, op, x) < NEWTON_TOL else WRONG


def _newton_residual(alg, op, x):
    value = poly_eval(alg, op["monos"], x)
    return alg.norm(alg.sub(value, tuple(float(c) for c in op["target"])))


# -- CLI ------------------------------------------------------------------------------


def _cli_solution(alg, op, truth, part):
    def parse(texts):
        return [parse_coords(t, alg.basis_names) for t in texts]
    xs = parse(part["solution"]) if part["solution"] is not None else None
    dirs = [parse(f["direction"]) for f in part["free"]]
    return check_solution(alg, op, truth, part["status"], xs, dirs)


def check_cli(op, result, alg):
    if isinstance(result, Exception):
        return FAILED
    code, out = result
    if code == 2 or not out.strip():
        return FAILED
    try:
        payload = json.loads(out)
        return _CLI_CHECKS[op["kind"]](op, code, payload, alg)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return WRONG  # output that does not follow the documented format


def _check_cli_solve(op, code, payload, alg):
    truth = classify(alg, op["equations"], op["m_unk"])
    if payload["status"] == "disagreement":
        # acceptable only as a correct field answer beside an honestly
        # reported unverified enlarged candidate
        if payload["richardson"]["status"] != UNVERIFIED or code != 1:
            return WRONG
        return worst(_cli_solution(alg, op, truth, payload["field"]),
                     _cli_solution(alg, op, truth, payload["richardson"]))
    verdict = _cli_solution(alg, op, truth, payload)
    expected_code = 0 if payload["status"] in (UNIQUE, PARAMETRIC) else 1
    return verdict if code == expected_code else WRONG


def _check_cli_check(op, code, payload, alg):
    (terms, rhs), = op["equations"]
    residual = alg.sub(alg.apply_terms(terms, [op["x"]]), rhs)
    got = [parse_coords(t, alg.basis_names) for t in payload["residuals"]]
    status = "ok" if not any(residual) else "nonzero"
    good = got == [residual] and payload["status"] == status
    return OK if good and code == (0 if status == "ok" else 1) else WRONG


def _operator_columns(alg, coeff):
    """Columns of x -> sum_ij coeff[i][j] e_i x e_j on the basis units."""
    terms = [(tuple(v if t == i else 0 for t in range(alg.dim)), alg.unit(j), 0)
             for i, row in enumerate(coeff) for j, v in enumerate(row) if v != 0]
    return [alg.apply_terms(terms, [alg.unit(q)]) for q in range(alg.dim)]


def _check_cli_invert(op, code, payload, alg):
    columns = [alg.apply_terms(op["terms"], [alg.unit(q)]) for q in range(alg.dim)]
    singular = rank_exact([list(r) for r in zip(*columns)]) < alg.dim
    if payload["status"] == "singular":
        return OK if singular and code == 1 else WRONG
    if payload["status"] != "ok" or singular:
        return WRONG
    coeff = [[Fraction(v) for v in row] for row in payload["tensor"]["coeff"]]
    g_columns = _operator_columns(alg, coeff)
    # G(F(e_q)) must be e_q for every basis unit: G o F is the identity
    for q, f_col in enumerate(columns):
        image = alg.zero()
        for p, c in enumerate(f_col):
            if c != 0:
                image = alg.add(image, tuple(c * v for v in g_columns[p]))
        if image != alg.unit(q):
            return WRONG
    return OK if code == 0 else WRONG


def _check_cli_newton(op, code, payload, alg):
    if payload["status"] != "converged":
        return FAILED
    x = tuple(payload["iterations"][-1]["x"])
    return OK if _newton_residual(alg, op, x) < NEWTON_TOL and code == 0 else WRONG


_CLI_CHECKS = {"solve": _check_cli_solve, "check": _check_cli_check,
               "invert": _check_cli_invert, "newton": _check_cli_newton}
