"""Command-line front end.

Exit codes: 0 = solved/converged, 1 = inconsistent / singular / diverged /
max iterations / bit budget / method disagreement (the result is still
printed), 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import (
    FLOAT,
    RATIONAL,
    Algebra,
    algebra_from_json,
    quaternion_algebra,
)
from .errors import (
    AlgebraError,
    NonlinearTerm,
    NotInvertible,
    PivotNotInvertible,
    SingularTensor,
    UnknownSymbol,
)
from .linalg import (
    INCONSISTENT,
    PARAMETRIC,
    UNIQUE,
    UNVERIFIED_ENLARGED,
    FieldMatrix,
    rank,
)
from .newton import CONVERGED, NewtonConfig, newton_solve
from .parser import (
    collect_unknowns,
    evaluate_constant,
    format_element,
    normalize_linear,
    normalize_poly,
    parse_equation,
    parse_expression,
    require_finite,
    require_finite_system,
)
from .solvers import SylvesterSystem, residuals_vanish, solve_field, solve_richardson
from .tensor import TensorOp

def _load_algebra(source: str, scalar_mode: str) -> Algebra:
    if source == "quaternion":
        return quaternion_algebra(scalar_mode)
    with open(source, "r", encoding="utf-8") as handle:
        return algebra_from_json(json.load(handle), scalar_mode=scalar_mode)


def _sort_unknowns(names) -> list:
    def key(name: str):
        # the name itself breaks ties such as x / x0 and x1 / x01, which
        # would otherwise follow set order, that is the hash seed
        suffix = name[1:] if name.startswith("x") else name
        # isdecimal, not isdigit: "²" is a digit that int() rejects
        if suffix.isdecimal() or suffix == "":
            return 0, int(suffix or 0), name
        return 1, 0, name

    return sorted(names, key=key)


def _parse_system(args, algebra: Algebra):
    if args.system_json:
        with open(args.system_json, "r", encoding="utf-8") as handle:
            system = SylvesterSystem.from_json(algebra, json.load(handle))
        unknowns = [f"x{j + 1}" for j in range(system.m_unk)] \
            if system.m_unk > 1 else ["x"]
        return require_finite_system(system, unknowns), unknowns
    pairs = [parse_equation(text, algebra) for text in args.equation]
    names = set()
    for lhs, rhs in pairs:
        names |= collect_unknowns(lhs) | collect_unknowns(rhs)
    if not names:
        raise UnknownSymbol("no unknown appears in the equations")
    unknowns = _sort_unknowns(names)
    return normalize_linear(algebra, pairs, unknowns), unknowns


def _solution_json(sol, unknowns) -> dict:
    residual_norm = (
        max((r.norm() for r in sol.residuals), default=0.0)
        if sol.residuals is not None else None
    )
    return {
        "status": sol.kind,
        "unknowns": unknowns,
        "solution": [format_element(x) for x in sol.x] if sol.x else None,
        "free": [
            {"name": name, "direction": [format_element(d) for d in direction]}
            for name, direction in zip(sol.free_names, sol.nullspace)
        ],
        "residual_norm": residual_norm,
    }


def _solution_lines(sol, unknowns) -> list:
    if sol.kind == INCONSISTENT:
        return ["inconsistent"]
    lines = []
    if sol.kind == UNVERIFIED_ENLARGED:
        lines.append("unverified-enlarged: the enlarged-system candidate does "
                     "not satisfy the original system")
    for idx, name in enumerate(unknowns):
        text = format_element(sol.x[idx])
        extras = [
            f" + {free}*({format_element(direction[idx])})"
            for free, direction in zip(sol.free_names, sol.nullspace)
        ]
        lines.append(f"{name} = {text}{''.join(extras)}")
    if sol.free_names:
        lines.append("free: " + ", ".join(sol.free_names))
    elif sol.kind == PARAMETRIC:
        # the method could not prove the answer unique (an empty family)
        lines.append("parametric: no free direction was verified")
    if sol.kind == UNVERIFIED_ENLARGED:
        for idx, r in enumerate(sol.residuals):
            lines.append(f"residual[{idx}] = {format_element(r)}")
    return lines


def _emit(args, payload: dict, lines: list):
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _solutions_compatible(field_sol, richardson_sol) -> bool:
    """Whether the verified Richardson family lies in the field solution set:
    x_richardson - x_field and every Richardson direction must lie in the span
    of the field nullspace (exact mode only, as is the cross-check)."""
    if richardson_sol.kind == UNVERIFIED_ENLARGED:
        return False
    if INCONSISTENT in (field_sol.kind, richardson_sol.kind):
        return field_sol.kind == richardson_sol.kind

    def flat(xs):
        return [c for x in xs for c in x.coords]

    # the field nullspace basis is independent, so the extra columns lie in
    # its span exactly when they leave the rank unchanged
    span = [flat(d) for d in field_sol.nullspace]
    extra = [flat(r - f for r, f in zip(richardson_sol.x, field_sol.x))]
    extra += [flat(d) for d in richardson_sol.nullspace]
    return rank(FieldMatrix(list(zip(*span, *extra)))) == len(span)


def _cmd_solve(args) -> int:
    algebra = _load_algebra(args.algebra, args.scalar)
    system, unknowns = _parse_system(args, algebra)

    def report(sol, method):
        _emit(args, {**_solution_json(sol, unknowns), "method": method},
              _solution_lines(sol, unknowns))
        return 0 if sol.kind in (UNIQUE, PARAMETRIC) else 1

    if args.method == "richardson":
        return report(solve_richardson(system), "richardson")
    # auto: field first, enlarged-system route as a cross-check in exact mode
    field_sol = solve_field(system)
    if args.method == "field" or algebra.scalar_mode != RATIONAL:
        return report(field_sol, "field")
    try:
        richardson_sol = solve_richardson(system)
    except PivotNotInvertible:
        # not a division algebra: the cross-check does not apply
        return report(field_sol, "field")
    if _solutions_compatible(field_sol, richardson_sol):
        return report(field_sol, "auto")

    payload = {
        "status": "disagreement",
        "unknowns": unknowns,
        "solution": None,
        "free": [],
        "residual_norm": None,
        "method": "auto",
        "field": _solution_json(field_sol, unknowns),
        "richardson": _solution_json(richardson_sol, unknowns),
    }
    lines = ["methods disagree", "field:"]
    lines += ["  " + line for line in _solution_lines(field_sol, unknowns)]
    lines.append("richardson:")
    lines += ["  " + line for line in _solution_lines(richardson_sol, unknowns)]
    _emit(args, payload, lines)
    return 1


def _the_unknown(what: str, names: set) -> str:
    """The one unknown that `what` names; else an error that lists them."""
    if len(names) != 1:
        raise UnknownSymbol(f"{what} needs exactly one unknown, found: "
                            + (", ".join(sorted(names)) or "none"))
    return names.pop()


def _cmd_newton(args) -> int:
    algebra = _load_algebra(args.algebra, args.scalar)
    lhs, rhs = parse_equation(args.equation, algebra)
    unknown = _the_unknown("newton", collect_unknowns(lhs) | collect_unknowns(rhs))
    poly, target = normalize_poly(algebra, (lhs, rhs), unknown)
    x0 = evaluate_constant(parse_expression(args.x0, algebra), algebra)
    cfg = NewtonConfig(tol=args.tol, max_iter=args.max_iter)
    trace = newton_solve(poly, target, x0, cfg)

    # a start already over the bit budget leaves no iterate to report
    final_x = trace.solution
    solution = None if final_x is None else format_element(final_x)
    payload = {
        "status": trace.status,
        "solution": solution,
        "residual_norm": trace.final_residual_norm,
        "iterations": trace.rows(),
    }
    lines = [
        f"k={k}  x = {format_element(x)}  |f(x)-a| = {norm:.6g}"
        for k, (x, _r, norm) in enumerate(trace.iterates)
    ]
    lines.append(f"status: {trace.status}")
    lines.append(f"{unknown} = {solution}")
    _emit(args, payload, lines)
    return 0 if trace.status == CONVERGED else 1


def _cmd_invert_tensor(args) -> int:
    algebra = _load_algebra(args.algebra, args.scalar)
    if args.tensor_json:
        with open(args.tensor_json, "r", encoding="utf-8") as handle:
            op = TensorOp.from_json(algebra, json.load(handle))
        require_finite(algebra, [(op, "the tensor's terms")], "sum to")
    else:
        pair = parse_equation(args.expression + " = 0", algebra)
        unknown = _the_unknown("the operator expression", collect_unknowns(pair[0]))
        system = normalize_linear(algebra, [pair], [unknown])
        if not system.rhs[0].is_zero():
            raise NonlinearTerm(
                "the operator expression must have no constant term"
            )
        op = system.ops[0][0]
    try:
        inverse = op.invert()
    except SingularTensor:
        lines = ["tensor is singular"]
        reason = "singular_operator"
        if rank(op.operator_matrix()) == algebra.dim:
            # possible only outside central simple algebras
            reason = "zero_divisor"
            lines.append("the operator is invertible, but its tensor is a "
                         "zero divisor in A⊗A^op")
        _emit(args, {"status": "singular", "tensor": None, "text": None,
                     "reason": reason}, lines)
        return 1
    _emit(
        args,
        {"status": "ok", "tensor": inverse.to_json(), "text": inverse.to_text()},
        [inverse.to_text()],
    )
    return 0


def _cmd_check(args) -> int:
    algebra = _load_algebra(args.algebra, args.scalar)
    system, unknowns = _parse_system(args, algebra)
    if len(args.x) != len(unknowns):
        raise UnknownSymbol(
            f"need {len(unknowns)} --x values (one per unknown "
            f"{', '.join(unknowns)}), got {len(args.x)}"
        )
    xs = [
        evaluate_constant(parse_expression(text, algebra), algebra)
        for text in args.x
    ]
    residuals = system.residuals(xs)
    worst = max((r.norm() for r in residuals), default=0.0)
    ok = residuals_vanish(residuals)
    payload = {
        "status": "ok" if ok else "nonzero",
        "residuals": [format_element(r) for r in residuals],
        "residual_norm": worst,
    }
    lines = [
        f"residual[{idx}] = {format_element(r)}  |.| = {r.norm():.6g}"
        for idx, r in enumerate(residuals)
    ]
    lines.append("ok" if ok else "residual is nonzero")
    _emit(args, payload, lines)
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `run` call of a process and
    reused: parsing leaves it unchanged, and `--x` appends to a copy of its
    default."""
    top = argparse.ArgumentParser(
        prog="ncalg",
        description="Solve linear and polynomial equations over a "
                    "finite-dimensional associative algebra.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, default_scalar):
        p.add_argument("--algebra", default="quaternion",
                       help="'quaternion' or a path to an algebra JSON file")
        p.add_argument("--scalar", choices=[RATIONAL, FLOAT],
                       default=default_scalar)
        p.add_argument("--output", choices=["text", "json"], default="text")

    # each command reads its input from the command line or from a JSON
    # file: exactly one of the two, so both or neither is a usage error
    p = sub.add_parser("solve", help="solve a linear system for its unknowns")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("equation", nargs="*", default=[], help="equations like "
                        "'(i+j)*x*k + k*x*(j+k) = 1+k'")
    source.add_argument("--system-json", help="read the system from a JSON file")
    p.add_argument("--method", choices=["auto", "field", "richardson"],
                   default="auto")
    common(p, RATIONAL)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("newton", help="iterate Newton's method on f(x) = a")
    p.add_argument("equation")
    p.add_argument("--x0", required=True, help="starting point, e.g. '1+j'")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=50)
    common(p, FLOAT)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("invert-tensor",
                       help="invert the operator written as a linear "
                            "expression in x")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("expression", nargs="?",
                        help="e.g. '(i+j)*x*k + k*x*(j+k)'")
    source.add_argument("--tensor-json", help="read the tensor from a JSON file")
    common(p, RATIONAL)
    p.set_defaults(func=_cmd_invert_tensor)

    p = sub.add_parser("check", help="substitute values and print residuals")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("equation", nargs="*", default=[])
    source.add_argument("--system-json")
    p.add_argument("--x", action="append", default=[],
                   help="value for an unknown, repeat in unknown order")
    common(p, RATIONAL)
    p.set_defaults(func=_cmd_check)

    return top


def _attach_values(argv) -> list:
    """argv with each `--x V` and `--x0 V` written as `--x=V` and `--x0=V`
    when V starts with one "-": argparse takes such a V without a space,
    like "-j" or "-1/2i", for an option, so a printed answer could not be
    passed back.  The value itself is unchanged."""
    out = list(argv)
    for k in range(len(out) - 2, -1, -1):
        value = out[k + 1]
        if out[k] in ("--x", "--x0") and value[:1] == "-" and value[:2] != "--":
            out[k:k + 2] = [f"{out[k]}={value}"]
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PivotNotInvertible, NotInvertible, SingularTensor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AlgebraError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The process entry point.  Exact answers may run to any number of
    digits, so it lifts Python's limit on int-str conversion (4300 digits by
    default); `run`, also called in-process, sets nothing process-wide."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run())


if __name__ == "__main__":
    main()
