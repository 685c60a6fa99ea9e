import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncalg as nc
from ncalg import cli
from ncalg.cli import _sort_unknowns, run
from helpers import clifford_algebra, matrix_algebra

DATA = Path(__file__).parent / "data"

EXAMPLE_UNIQUE = "(i+j)*x*k + k*x*(j+k) = 1+k"
EXAMPLE_INCONSISTENT = "(i+j)*x*k + k*x*(j+1) = 1+k"
EXAMPLE_SPURIOUS = "(i+j)*x*k + k*x*(j+1) = j-k"
EXAMPLE_NEWTON = "x^2 - i*x - x*j + k = 0"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_unique_text(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--algebra", "quaternion",
                              EXAMPLE_UNIQUE)
        assert code == 0
        assert out.strip() == "x = -1/2 - 1/2j"

    def test_unique_json_golden(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--output", "json",
                              EXAMPLE_UNIQUE)
        assert code == 0
        golden = json.loads((DATA / "solve_example21.json").read_text())
        assert json.loads(out) == golden

    def test_inconsistent(self, capsys):
        code, out, _ = invoke(capsys, "solve", EXAMPLE_INCONSISTENT)
        assert code == 1
        assert out.strip() == "inconsistent"

    def test_method_disagreement_is_reported(self, capsys):
        code, out, _ = invoke(capsys, "solve", EXAMPLE_SPURIOUS)
        assert code == 1
        assert "methods disagree" in out
        assert "field:" in out and "richardson:" in out
        assert "unverified-enlarged" in out

    def test_method_field_alone_solves_spurious_case(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--method", "field",
                              EXAMPLE_SPURIOUS)
        assert code == 0
        assert "free: C0" in out

    def test_explicit_methods_match(self, capsys):
        code_f, out_f, _ = invoke(capsys, "solve", "--method", "field",
                                  EXAMPLE_UNIQUE)
        code_r, out_r, _ = invoke(capsys, "solve", "--method", "richardson",
                                  EXAMPLE_UNIQUE)
        assert code_f == code_r == 0
        assert out_f == out_r

    def test_text_and_json_same_content(self, capsys):
        # the whole worked-example suite must say the same thing both ways
        for equation, expect_code in [
            (EXAMPLE_UNIQUE, 0),
            (EXAMPLE_INCONSISTENT, 1),
            (EXAMPLE_SPURIOUS, 1),
        ]:
            code_t, out_t, _ = invoke(capsys, "solve", equation)
            code_j, out_j, _ = invoke(capsys, "solve", "--output", "json",
                                      equation)
            assert code_t == code_j == expect_code
            payload = json.loads(out_j)
            if payload["status"] == "disagreement":
                assert "methods disagree" in out_t
                for value in payload["richardson"]["solution"]:
                    assert value in out_t
                for value in payload["field"]["solution"]:
                    assert value in out_t
            elif payload["solution"]:
                for name, value in zip(payload["unknowns"],
                                       payload["solution"]):
                    assert f"{name} = {value}" in out_t
            else:
                assert payload["status"] == "inconsistent"
                assert "inconsistent" in out_t

    def test_text_and_json_same_content_newton_and_invert(self, capsys):
        _, out_t, _ = invoke(capsys, "newton", "--x0", "1+j", EXAMPLE_NEWTON)
        _, out_j, _ = invoke(capsys, "newton", "--output", "json",
                             "--x0", "1+j", EXAMPLE_NEWTON)
        payload = json.loads(out_j)
        assert payload["status"] in out_t
        assert f"x = {payload['solution']}" in out_t

        _, out_t, _ = invoke(capsys, "invert-tensor", "(i+j)*x*k + k*x*(j+k)")
        _, out_j, _ = invoke(capsys, "invert-tensor", "--output", "json",
                             "(i+j)*x*k + k*x*(j+k)")
        payload = json.loads(out_j)
        assert payload["text"] == out_t.strip()

    def test_system_json_input(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--system-json",
                              str(DATA / "system_example21.json"))
        assert code == 0
        assert out.strip() == "x = -1/2 - 1/2j"

    def test_two_unknown_equations(self, capsys):
        code, out, _ = invoke(capsys, "solve", "i*x1 + x2*j = k", "x1 = 1")
        assert code == 0
        assert "x1 = 1" in out
        assert "x2 = " in out

    def test_unknown_order_breaks_ties_by_name(self):
        assert _sort_unknowns(["x0", "x"]) == _sort_unknowns(["x", "x0"])
        assert _sort_unknowns(["x01", "x1"]) == _sort_unknowns(["x1", "x01"])
        assert _sort_unknowns(["y", "x10", "x2", "x", "x1"]) == \
            ["x", "x1", "x2", "x10", "y"]

    def test_unknown_with_non_ascii_digit_suffix(self, capsys):
        # "²".isdigit() is true, but int("²") raises
        code, out, err = invoke(capsys, "solve", "x² = 1")
        assert (code, out, err) == (0, "x² = 1\n", "")
        assert _sort_unknowns(["x²", "x2", "x", "x1"]) == ["x", "x1", "x2", "x²"]

    def test_unknown_order_independent_of_hash_seed(self):
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(__file__).parent.parent / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "ncalg", "solve", "x + 2*x0 = 1", "x - x0 = i"],
                env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert outputs == {"x = 1/3 + 2/3i\nx0 = 1/3 - 1/3i\n"}

    def test_custom_algebra_file(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--algebra",
                              str(DATA / "complex_algebra.json"),
                              "u*x = 1")
        assert code == 0
        assert out.strip() == "x = -u"

    def test_auto_skips_cross_check_outside_division_algebras(self, capsys):
        # eps*x = eps over the dual numbers: solvable (parametrically) by the
        # field route; the enlarged-system cross-check cannot run because eps
        # is not invertible, and auto must still report the field result
        code, out, _ = invoke(capsys, "solve", "--algebra",
                              str(DATA / "dual_algebra.json"),
                              "eps*x = eps")
        assert code == 0
        assert "x = 1" in out
        assert "free: C0" in out

    def test_richardson_requires_division_algebra(self, capsys):
        code, _, err = invoke(capsys, "solve", "--method", "richardson",
                              "--algebra", str(DATA / "dual_algebra.json"),
                              "eps*x = eps")
        assert code == 1
        assert "invertible" in err

    def test_float_scalar_mode(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--scalar", "float",
                              "2*x = 1+i")
        assert code == 0
        assert out.strip() == "x = 0.5 + 0.5i"
        # a Richardson family, whose directions are pruned by the pivot
        # columns of their scalar coordinates, the same in both modes
        for mode in ("float", "rational"):
            assert invoke(capsys, "solve", "--method", "richardson", "--scalar", mode,
                          "i*x - x*i = 0") == (0, "x = 0 + C0*(-i)\nfree: C0\n", ""), mode

    def test_parse_error_exit_2(self, capsys):
        code, _, err = invoke(capsys, "solve", "x +* 1 = 0")
        assert code == 2
        assert "error:" in err
        # nesting beyond the parser's limit is a parse error, not a
        # RecursionError traceback
        for text in ("(" * 200 + "x" + ")" * 200 + " = 1", "-" * 990 + "x = 1"):
            assert invoke(capsys, "solve", text) == (
                2, "", "error: more than 100 nested parentheses and unary minuses "
                "(column 102)\n")

    def test_fraction_exponent_exit_2(self, capsys):
        for argv in (["solve", "x = i^4/2"], ["solve", "--scalar", "float", "x = i^4/2"]):
            code, out, err = invoke(capsys, *argv)
            assert (code, out, err) == (
                2, "", "error: exponent must be a positive integer (column 7)\n"), argv

    def test_nonlinear_exit_2(self, capsys):
        code, _, err = invoke(capsys, "solve", "x*x = 1")
        assert code == 2
        assert "product of unknowns" in err

    def test_no_unknown_exit_2(self, capsys):
        code, _, err = invoke(capsys, "solve", "1 = 1")
        assert code == 2

    def test_decimal_needs_float_mode(self, capsys):
        code, _, err = invoke(capsys, "solve", "0.5*x = 1")
        assert code == 2
        assert "float" in err

    def test_auto_accepts_parametric_family(self, capsys):
        # Richardson finds the direction -i, which lies in the field kernel
        # span{1, i}; the cross-check compares the two sets and agrees
        code, out, _ = invoke(capsys, "solve", "--output", "json",
                              "x + i*x*i = 0")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "auto"
        assert payload["status"] == "parametric"
        assert len(payload["free"]) == 2

    def test_auto_rejects_shifted_richardson_solution(self, capsys, monkeypatch):
        import ncalg.cli as cli

        real = cli.solve_richardson

        def shifted(system, **kwargs):
            sol = real(system, **kwargs)
            j = system.algebra.basis(2)
            return nc.AlgebraSolution(sol.kind, [x + j for x in sol.x],
                                      sol.nullspace, sol.free_names,
                                      sol.residuals)

        monkeypatch.setattr(cli, "solve_richardson", shifted)
        code, out, _ = invoke(capsys, "solve", "--output", "json",
                              "x + i*x*i = 0")
        assert code == 1
        assert json.loads(out)["status"] == "disagreement"

    def test_auto_rejects_direction_outside_field_kernel(self, capsys,
                                                          monkeypatch):
        import ncalg.cli as cli

        real = cli.solve_richardson

        def extra_direction(system, **kwargs):
            sol = real(system, **kwargs)
            k = system.algebra.basis(3)
            return nc.AlgebraSolution(sol.kind, sol.x,
                                      list(sol.nullspace) + [(k,)],
                                      sol.free_names + ["C9"], sol.residuals)

        monkeypatch.setattr(cli, "solve_richardson", extra_direction)
        code, out, _ = invoke(capsys, "solve", "x + i*x*i = 0")
        assert code == 1
        assert out.startswith("methods disagree")


class TestNewton:
    def test_flagship_run(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--x0", "1+j",
                              EXAMPLE_NEWTON)
        assert code == 0
        assert "status: converged" in out
        final = out.strip().splitlines()[-1]
        assert final.startswith("x = ")
        assert "+ j" in final or "1.0j" in final or " j" in final

    def test_json_trace_rows(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--output", "json",
                              "--x0", "1+j", "--tol", "1e-6", EXAMPLE_NEWTON)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "converged"
        rows = payload["iterations"]
        assert [row["k"] for row in rows] == list(range(len(rows)))
        assert set(rows[0]) == {"k", "x", "residual", "norm"}
        assert rows[-1]["norm"] < 1e-6

    @pytest.mark.parametrize("scalar", ["float", "rational"])
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exit_2(self, capsys, scalar, tol):
        # inf used to report x = 5 converged, nan to run out its steps, and
        # in rational mode both died converting tol to a Fraction
        code, out, err = invoke(capsys, "newton", "--scalar", scalar, "--tol", tol,
                                "--x0", "5", "x^2 = 1")
        assert (code, out) == (2, "")
        assert err == f"error: tol must be positive and finite, not {float(tol)!r}\n"
        assert invoke(capsys, "newton", "--scalar", scalar, "--max-iter", "0",
                      "--x0", "5", "x^2 = 1") == (
            2, "", "error: max_iter must be a positive integer, not 0\n")

    def test_start_with_leading_minus(self, capsys):
        # as --x0=-i; argparse used to read "-i" as an option and exit 2
        for argv in (["--x0", "-i"], ["--x0=-i"]):
            assert invoke(capsys, "newton", *argv, "x^2 = -1") == (
                0, "k=0  x = -i  |f(x)-a| = 0\nstatus: converged\nx = -i\n", "")

    def test_singular_derivative_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--x0", "0",
                              "(i+j)*x*k + k*x*(j+1) = 1+k")
        assert code == 1
        assert "singular_derivative" in out

    def test_rational_mode_allowed(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--scalar", "rational",
                              "--x0", "j", EXAMPLE_NEWTON)
        assert code == 0
        assert "k=0" in out

    def test_complex_algebra_converges_to_u(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--algebra",
                              str(DATA / "complex_algebra.json"),
                              "--x0", "2u", "x^2 = -1")
        assert code == 0
        assert "status: converged" in out
        final = out.strip().splitlines()[-1]
        assert abs(float(final.removeprefix("x = ").removesuffix("u")) - 1) < 1e-9

    def test_exact_runaway_stops_at_bit_budget(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--scalar", "rational",
                              "--output", "json", "--x0", "2", "x^2 = -1")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "bit_budget"
        rows = payload["iterations"]
        assert len(rows) > 5
        hq = nc.quaternion_algebra()
        for row in rows:  # every row parses back
            hq.element(row["x"]), hq.element(row["residual"])
        assert payload["solution"] == nc.format_element(hq.element(rows[-1]["x"]))

    def test_rational_coefficient_beyond_float_range(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--scalar", "rational",
                              "--x0", "1", "2^1100*x^2 = 1")
        assert code == 1
        assert out.strip().splitlines()[-2].startswith("status: ")

    def test_start_over_bit_budget_records_nothing(self, capsys):
        code, out, _ = invoke(capsys, "newton", "--scalar", "rational",
                              "--output", "json", "--x0", "2^9000", "x^2 = -1")
        assert code == 1
        assert json.loads(out) == {"status": "bit_budget", "solution": None,
                                   "residual_norm": None, "iterations": []}

    @pytest.mark.parametrize("equation, found", [("1 = 1", "none"), ("x*y = 1", "x, y")])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_unknown_count_named(self, capsys, equation, found, output):
        # an equation without an unknown used to print "found: " and nothing
        assert invoke(capsys, "newton", "--output", output, "--x0", "1", equation) == (
            2, "", f"error: newton needs exactly one unknown, found: {found}\n")


class TestInvertTensor:
    @pytest.mark.parametrize("expression, found", [("i", "none"), ("y*x", "x, y")])
    def test_unknown_count_named(self, capsys, expression, found):
        assert invoke(capsys, "invert-tensor", expression) == (
            2, "", "error: the operator expression needs exactly one unknown, "
            f"found: {found}\n")

    def test_golden_inverse(self, capsys):
        code, out, _ = invoke(capsys, "invert-tensor",
                              "(i+j)*x*k + k*x*(j+k)")
        assert code == 0
        assert out.strip() == \
            "1/4(i⊗j) + 1/4(i⊗k) + 1/4(j⊗j) + 1/4(j⊗k) + 1/2(k⊗k)"

    def test_singular_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "invert-tensor",
                              "(i+j)*x*k + k*x*(j+1)")
        assert code == 1
        assert "singular" in out
        assert "zero divisor" not in out
        _, out, _ = invoke(capsys, "invert-tensor", "--output", "json",
                           "(i+j)*x*k + k*x*(j+1)")
        assert json.loads(out)["reason"] == "singular_operator"
        # the reason comes from the operator matrix's rank, in both modes
        for mode in ("rational", "float"):
            code, out, _ = invoke(capsys, "invert-tensor", "--scalar", mode,
                                  "--output", "json", "i*x - x*i")
            assert code == 1 and json.loads(out)["reason"] == "singular_operator", mode

    def test_zero_divisor_named(self, capsys):
        # x -> u x + x u = 2 u x is invertible on the complex numbers, but
        # u(x)1 + 1(x)u is a zero divisor in A(x)A^op, so no inverse tensor
        for mode in ("rational", "float"):
            argv = ["--algebra", str(DATA / "complex_algebra.json"), "--scalar", mode,
                    "u*x + x*u"]
            code, out, _ = invoke(capsys, "invert-tensor", *argv)
            assert code == 1
            lines = out.strip().splitlines()
            assert lines[0] == "tensor is singular"
            assert lines[1] == ("the operator is invertible, but its tensor is a "
                                "zero divisor in A⊗A^op")
            code, out, _ = invoke(capsys, "invert-tensor", "--output", "json", *argv)
            assert code == 1
            assert json.loads(out) == {"status": "singular", "tensor": None,
                                       "text": None, "reason": "zero_divisor"}

    def test_json_output(self, capsys):
        code, out, _ = invoke(capsys, "invert-tensor", "--output", "json",
                              "i*x*1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["tensor"]["coeff"][1][0] == "-1"


class TestCheck:
    def test_root_accepted(self, capsys):
        code, out, _ = invoke(capsys, "check", "--x", "-1/2 - 1/2j",
                              EXAMPLE_UNIQUE)
        assert code == 0
        assert "ok" in out

    def test_non_root_rejected(self, capsys):
        code, out, _ = invoke(capsys, "check", "--x", "i",
                              EXAMPLE_UNIQUE)
        assert code == 1
        assert "nonzero" in out

    def test_spurious_candidate_detected(self, capsys):
        # the enlarged-system candidate for the range example is not a root
        code, out, _ = invoke(capsys, "check", "--x", "-1 + i",
                              EXAMPLE_SPURIOUS)
        assert code == 1

    def test_wrong_value_count(self, capsys):
        code, _, err = invoke(capsys, "check", EXAMPLE_UNIQUE)
        assert code == 2

    @pytest.mark.parametrize("value, equation", [
        ("-j", "x*i = k"), ("-1/2i", "2*x = -i"), ("- j", "x*i = k")])
    def test_value_with_leading_minus(self, capsys, value, equation):
        # a printed answer such as -j goes back as --x -j, as it does as
        # --x=-j; argparse used to read it as an option and exit 2
        for argv in (["--x", value], [f"--x={value}"]):
            code, out, err = invoke(capsys, "check", *argv, equation)
            assert (code, err) == (0, ""), argv
            assert out.splitlines()[-1] == "ok"
        assert invoke(capsys, "check", "--x", "-k", "x*i = k")[0] == 1


class TestUsage:
    def test_unknown_flag_exit_2(self, capsys):
        assert run(["solve", "--nope", "x = 1"]) == 2

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("argv, message", [
        # these printed "residual_norm": NaN, and x = 0, with exit 0
        (["solve", "x = 1e+300*1e+300"],
         "the constant term folds to -inf, which is not finite"),
        (["solve", "1e+300*1e+300*x = 1"],
         "a coefficient of x folds to inf, which is not finite"),
        (["solve", "x = (1e+300*1e+300 - 1e+300*1e+300)*i"],
         "the constant term folds to nani, which is not finite"),
        (["check", "--x", "-2e+200*1e+200", "x = 1"],
         "the constant term folds to -inf, which is not finite"),
        (["newton", "--x0", "1e+400*j", "x^2 = -1"],
         "the constant term folds to nan + nani + infj + nank, which is not finite"),
        (["newton", "--x0", "1", "x^2 = 1e+300*1e+300"],
         "the constant term folds to inf, which is not finite"),
        (["invert-tensor", "x*1e+300*1e+300"],
         "a coefficient of x folds to inf, which is not finite"),
    ])
    def test_non_finite_float_constant_exit_2(self, capsys, argv, message, output):
        code, out, err = invoke(capsys, *argv, "--scalar", "float", "--output", output)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("argv, message", [
        # finite terms that overflow only when like terms merge: these
        # printed "unique" with x = 0, "diverged", and "tensor is singular"
        (["solve", "1e+308*x + 1e+308*x = 1"],
         "the terms in x sum to inf(1⊗1), which is not finite"),
        (["newton", "--x0", "1", "1e+308*x^2 + 1e+308*x^2 = 1"],
         "a coefficient of x sums to inf, which is not finite"),
        (["invert-tensor", "1e+308*x + 1e+308*x"],
         "the terms in x sum to inf(1⊗1), which is not finite"),
        # both sides' terms merge, and a product of finite factors overflows
        (["solve", "x1 + 1e+308*x2*i = -1e+308*x2*i"],
         "the terms in x2 sum to inf(1⊗i), which is not finite"),
        (["newton", "--x0", "1", "-1e+308*x*x = 1e+308*x^2"],
         "a coefficient of x sums to -inf, which is not finite"),
        (["invert-tensor", "1e+200*x*1e+200"],
         "the terms in x sum to inf(1⊗1), which is not finite"),
    ])
    def test_float_terms_that_overflow_when_merged_exit_2(self, capsys, argv, message,
                                                          output):
        code, out, err = invoke(capsys, *argv, "--scalar", "float", "--output", output)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_float_json_terms_that_overflow_when_merged_exit_2(self, capsys, tmp_path,
                                                               output):
        # the system and tensor JSON readers merge like pairs as the parser
        # does: these printed "unique" with x = 0 and "tensor is singular"
        big, one = [1e308, 0, 0, 0], [1, 0, 0, 0]
        term = {"left": big, "right": one, "var": 0}
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"unknowns": 1, "equations": [
            {"terms": [term, term], "rhs": one}]}))
        rhs = tmp_path / "rhs.json"
        rhs.write_text(json.dumps({"unknowns": 1, "equations": [
            {"terms": [{"left": one, "right": one, "var": 0}], "rhs": [math.inf, 0, 0, 0]}]}))
        pairs, coeff = tmp_path / "pairs.json", tmp_path / "coeff.json"
        pairs.write_text(json.dumps({"pairs": [[big, one], [big, one]]}))
        coeff.write_text(json.dumps({"coeff": [[-math.inf, 0, 0, 0]] + [[0] * 4] * 3}))
        merged = "the terms in x sum to inf(1⊗1), which is not finite"
        tensor = "the tensor's terms sum to {}(1⊗1), which is not finite"
        for argv, message in (
                (["solve", "--system-json", str(system)], merged),
                (["solve", "--method", "richardson", "--system-json", str(system)], merged),
                (["check", "--system-json", str(system), "--x", "1"], merged),
                (["solve", "--system-json", str(rhs)],
                 "the right-hand side of equation 1 is inf, which is not finite"),
                (["invert-tensor", "--tensor-json", str(pairs)], tensor.format("inf")),
                (["invert-tensor", "--tensor-json", str(coeff)], tensor.format("-inf"))):
            code, out, err = invoke(capsys, *argv, "--scalar", "float", "--output", output)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv

    def test_finite_float_json_still_solves(self, capsys, tmp_path):
        one = [1, 0, 0, 0]
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"unknowns": 1, "equations": [
            {"terms": [{"left": [1e308, 0, 0, 0], "right": one, "var": 0},
                       {"left": [-1e308, 0, 0, 0], "right": one, "var": 0},
                       {"left": one, "right": one, "var": 0}], "rhs": one}]}))
        tensor = tmp_path / "tensor.json"
        tensor.write_text(json.dumps({"pairs": [[[2.0, 0, 0, 0], one]]}))
        code, out, err = invoke(capsys, "solve", "--system-json", str(system),
                                "--scalar", "float")
        assert (code, err, out.splitlines()[-1]) == (0, "", "x = 1.0")
        code, out, err = invoke(capsys, "invert-tensor", "--tensor-json", str(tensor),
                                "--scalar", "float")
        assert (code, err, out) == (0, "", "0.5(1⊗1)\n")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_float_algebra_constants_beyond_the_float_range_exit_2(self, capsys, tmp_path,
                                                                   output):
        # u^2 = inf passed the unit-law and associativity checks, which find
        # inf equal to inf: "u*x=1" printed x = 0 and "x+u*x=1" a unique
        # solution ["nan"], both with exit 0; a string that overflows a
        # float raised OverflowError
        for u_squared, message in ((math.inf, "structure constant inf is not finite"),
                                   (-math.inf, "structure constant -inf is not finite"),
                                   ("1e400", "scalar '1e400' is beyond the float range")):
            table = tmp_path / "algebra.json"
            table.write_text(json.dumps({"dim": 2, "basis": ["1", "u"], "constants": [
                [[1, 0], [0, 1]], [[0, 1], [u_squared, 0]]]}))
            for equation in ("u*x=1", "x+u*x=1"):
                code, out, err = invoke(capsys, "solve", "--scalar", "float", "--algebra",
                                        str(table), "--output", output, equation)
                assert (code, out, err) == (2, "", f"error: {message}\n"), equation

    def test_finite_float_algebra_constants_still_solve(self, capsys, tmp_path):
        table = tmp_path / "algebra.json"
        table.write_text(json.dumps({"dim": 2, "basis": ["1", "u"], "constants": [
            [[1, 0], [0, 1]], [[0, 1], ["1e300", 0]]]}))
        code, out, err = invoke(capsys, "solve", "--scalar", "float", "--algebra",
                                str(table), "u*x=1")
        assert (code, err, out.splitlines()[-1]) == (0, "", "x = 1e-300u")

    @pytest.mark.parametrize("argv, last", [
        (["solve", "1e+308*x - 1e+308*x + x = 1"], "x = 1.0"),
        (["newton", "--x0", "1", "1e+308*x^2 - 1e+308*x^2 + x = 1"], "x = 1.0"),
        (["invert-tensor", "1e+308*x - 1e+308*x + x"], "(1⊗1)"),
    ])
    def test_float_terms_that_cancel_when_merged_still_solve(self, capsys, argv, last):
        code, out, err = invoke(capsys, *argv, "--scalar", "float")
        assert (code, err, out.splitlines()[-1]) == (0, "", last)

    def test_missing_command_exit_2(self, capsys):
        assert run([]) == 2

    def test_missing_algebra_file(self, capsys):
        code, _, err = invoke(capsys, "solve", "--algebra", "/nope/missing.json",
                              "x = 1")
        assert code == 2

    def test_zero_denominators_exit_2(self, capsys, tmp_path):
        table = json.loads((DATA / "complex_algebra.json").read_text())
        table["constants"][1][1][0] = "-1/0"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(table))
        for argv in (["solve", "x = 1/0"],
                     ["check", "--x", "1/0", "x = 1"],
                     ["newton", "--x0", "1/0", "x^2 = 2"],
                     ["solve", "--scalar", "float", "x = 3/0"],
                     ["solve", "--algebra", str(broken), "u*x = 1"]):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: zero denominator in "), argv
            assert err.count("\n") == 1, argv

    def test_float_in_json_exit_2_in_rational_mode(self, capsys, tmp_path):
        table = json.loads((DATA / "complex_algebra.json").read_text())
        table["constants"][1][1][0] = -1.0
        algebra = tmp_path / "algebra.json"
        algebra.write_text(json.dumps(table))
        system = json.loads((DATA / "system_example21.json").read_text())
        system["equations"][0]["terms"][0]["left"] = [0.5, 0, 0, 0]
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(system))
        tensor = tmp_path / "tensor.json"
        tensor.write_text(json.dumps({"coeff": [[0.5, 0, 0, 0]] + [[0] * 4] * 3}))
        for argv, value in (
                (["check", "--algebra", str(algebra), "--x", "1", "x = 1"], "-1.0"),
                (["solve", "--system-json", str(system_path)], "0.5"),
                (["invert-tensor", "--tensor-json", str(tensor)], "0.5")):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: float scalar {value} in rational mode"), argv
            assert err.count("\n") == 1, argv
            # the same files are valid input in float mode
            code, _, err = invoke(capsys, *argv, "--scalar", "float")
            assert code in (0, 1) and err == "", argv

    def test_json_null_and_booleans_exit_2(self, capsys, tmp_path):
        # neither numbers nor strings, in either scalar mode: `true` is not 1
        for scalar in (None, True, False):
            table = json.loads((DATA / "complex_algebra.json").read_text())
            table["constants"][1][1][0] = scalar
            algebra = tmp_path / "algebra.json"
            algebra.write_text(json.dumps(table))
            system = json.loads((DATA / "system_example21.json").read_text())
            system["equations"][0]["terms"][0]["left"] = [scalar, 0, 0, 0]
            system_path = tmp_path / "system.json"
            system_path.write_text(json.dumps(system))
            tensor = tmp_path / "tensor.json"
            tensor.write_text(json.dumps({"coeff": [[scalar, 1, 0, 0]] + [[0] * 4] * 3}))
            message = f"error: JSON scalar {json.dumps(scalar)} is neither a number " \
                "nor a string\n"
            for mode in ("rational", "float"):
                for argv in (["check", "--algebra", str(algebra), "--x", "1", "x = 1"],
                             ["solve", "--system-json", str(system_path)],
                             ["invert-tensor", "--tensor-json", str(tensor)]):
                    code, out, err = invoke(capsys, *argv, "--scalar", mode)
                    assert (code, out, err) == (2, "", message), (scalar, argv, mode)

    def test_malformed_system_and_tensor_json_exits_2(self, capsys, tmp_path):
        # a wrong JSON type where the layout expects an array, a pair or an
        # integer index is named, not a TypeError traceback; `true` is no
        # unknown index, though Python would read it as 1
        def system(edit):
            data = json.loads((DATA / "system_example21.json").read_text())
            edit(data)
            return data
        term = lambda data: data["equations"][0]["terms"][0]  # noqa: E731
        path = tmp_path / "input.json"
        for kind, data, message in (
                ("tensor", {"pairs": None}, "JSON 'pairs' must be an array, not null"),
                ("tensor", {"pairs": 5}, "JSON 'pairs' must be an array, not 5"),
                ("tensor", {"pairs": [5]},
                 "tensor JSON 'pairs' holds 5, not a pair [element, element]"),
                ("tensor", {"pairs": [[[1, 0, 0, 0]]]},
                 "tensor JSON 'pairs' holds [[1, 0, 0, 0]], not a pair [element, element]"),
                ("tensor", [], "tensor JSON needs a 'coeff' or 'pairs' key"),
                ("system", system(lambda d: d.update(equations=None)),
                 "JSON 'equations' must be an array, not null"),
                ("system", system(lambda d: d["equations"][0].update(terms=None)),
                 "JSON 'terms' must be an array, not null"),
                ("system", system(lambda d: d.update(unknowns="1")),
                 'JSON \'unknowns\' must be an integer, not "1"'),
                ("system", system(lambda d: d.update(unknowns=1.5)),
                 "JSON 'unknowns' must be an integer, not 1.5"),
                ("system", system(lambda d: term(d).update(var="0")),
                 'JSON \'var\' must be an integer, not "0"'),
                ("system",
                 system(lambda d: (d.update(unknowns=2), term(d).update(var=True))),
                 "JSON 'var' must be an integer, not true"),
                ("system", system(lambda d: d["equations"].append(7)),
                 "JSON 7 where an object with 'terms' belongs")):
            path.write_text(json.dumps(data))
            argv = (["invert-tensor", "--tensor-json", str(path)] if kind == "tensor"
                    else ["solve", "--system-json", str(path)])
            for mode in ("rational", "float"):
                code, out, err = invoke(capsys, *argv, "--scalar", mode)
                assert (code, out, err) == (2, "", f"error: {message}\n"), (data, mode)
        # a valid file and a positional input together, or neither: the
        # positional one used to be dropped, and no input at all crashed
        # invert-tensor with a TypeError
        system_path, tensor_path = tmp_path / "system.json", tmp_path / "tensor.json"
        system_path.write_text(json.dumps(
            {"unknowns": 1, "equations": [{"terms": [
                {"left": [1, 0, 0, 0], "right": [1, 0, 0, 0], "var": 0}],
                "rhs": [0, 1, 0, 0]}]}))  # x = i
        tensor_path.write_text(json.dumps({"coeff": [[1, 0, 0, 0]] + [[0] * 4] * 3}))
        for argv, names in (
                (["solve", "x = k", "--system-json", str(system_path)],
                 ("equation", "--system-json", "not allowed")),
                (["check", "--system-json", str(system_path), "--x", "i", "x = k"],
                 ("equation", "--system-json", "not allowed")),
                (["invert-tensor", "2*x", "--tensor-json", str(tensor_path)],
                 ("expression", "--tensor-json", "not allowed")),
                (["invert-tensor"], ("expression", "--tensor-json", "required")),
                (["solve"], ("equation", "--system-json", "required"))):
            for mode in ("rational", "float"):
                code, out, err = invoke(capsys, *argv, "--scalar", mode)
                line = err.splitlines()[-1]
                assert (code, out) == (2, "") and "error:" in line, (argv, mode, err)
                assert all(name in line for name in names), (argv, mode, line)
        # each file alone is read as before
        assert invoke(capsys, "solve", "--system-json", str(system_path)) == (0, "x = i\n", "")
        assert invoke(capsys, "invert-tensor", "--tensor-json", str(tensor_path)) == \
            (0, "(1⊗1)\n", "")

    def test_malformed_algebra_json_exits_2(self, capsys, tmp_path):
        # a wrong JSON type for the object, `dim` or `basis` is named, not a
        # TypeError traceback, and a basis name is never a non-string
        # turned into text such as 'None'
        table = json.loads((DATA / "complex_algebra.json").read_text())
        path = tmp_path / "algebra.json"
        for data, message in (
                ([table], "JSON [{...}] where an object with 'dim' belongs"),
                (dict(table, dim="2"), 'JSON \'dim\' must be an integer, not "2"'),
                (dict(table, basis=5), "JSON 'basis' must be an array, not 5"),
                (dict(table, basis=[None, "u"]),
                 'JSON \'basis\' must be an array of strings, not [null, "u"]'),
                (dict(table, basis=[["a"], "u"]),
                 'JSON \'basis\' must be an array of strings, not [["a"], "u"]')):
            path.write_text(json.dumps(data))
            if isinstance(data, list):
                message = message.replace("{...}", json.dumps(table))
            for mode in ("rational", "float"):
                code, out, err = invoke(capsys, "solve", "--algebra", str(path),
                                        "--scalar", mode, "x = 1")
                assert (code, out, err) == (2, "", f"error: {message}\n"), (data, mode)
        # an absent or null basis still means the default names
        for data in ({k: v for k, v in table.items() if k != "basis"},
                     dict(table, basis=None)):
            path.write_text(json.dumps(data))
            code, out, err = invoke(capsys, "solve", "--algebra", str(path),
                                    "e1*x = 1")
            assert (code, out, err) == (0, "x = -e1\n", ""), data

    def test_json_scalar_where_an_array_belongs_exits_2(self, capsys, tmp_path):
        # a number or null in place of the constants, a plane, a row, an
        # element or a coefficient row is named, not a TypeError traceback
        c = json.loads((DATA / "complex_algebra.json").read_text())["constants"]
        path = tmp_path / "algebra.json"
        system = json.loads((DATA / "system_example21.json").read_text())
        system["equations"][0]["terms"][0]["left"] = 5
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(system))
        tensor = tmp_path / "tensor.json"
        tensor.write_text(json.dumps({"coeff": [[1, 0, 0, 0], 0, [0] * 4, [0] * 4]}))
        for mode in ("rational", "float"):
            for constants, message in (
                    (None, "JSON null where an array belongs"),
                    (7, "JSON 7 where an array belongs"),
                    ([c[0], None], "JSON null where an array belongs"),
                    ([c[0], [c[1][0], 3]], "JSON 3 where an array belongs"),
                    ([c[0], [c[1][0], [c[1][1][0], [1]]]],
                     "JSON scalar [1] is neither a number nor a string")):
                path.write_text(json.dumps({"dim": 2, "constants": constants}))
                code, out, err = invoke(capsys, "solve", "--algebra", str(path),
                                        "--scalar", mode, "x = 1")
                assert (code, out, err) == (2, "", f"error: {message}\n"), constants
            for argv, value in ((["solve", "--system-json", str(system_path)], "5"),
                                (["invert-tensor", "--tensor-json", str(tensor)], "0")):
                code, out, err = invoke(capsys, *argv, "--scalar", mode)
                assert (code, out, err) == (
                    2, "", f"error: JSON {value} where an array belongs\n"), argv

    def test_exact_answer_beyond_4300_digits(self):
        # the entry point lifts Python's int-to-str limit, so the answer
        # prints, and reads back in to check
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        equation = "(2/3 + 5/7*i - 3/11*j)^1024*x = 1"

        def ncalg(*argv):
            return subprocess.run([sys.executable, "-m", "ncalg", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
        done = ncalg("solve", equation)
        assert done.returncode == 0, done.stderr
        answer = done.stdout.strip().removeprefix("x = ")
        assert len(answer) > 4300
        done = ncalg("check", "--x", answer, equation)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok"

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "ncalg", "newton", "--x0", "1+j",
             EXAMPLE_NEWTON],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "status: converged" in done.stdout


class TestParserReuse:
    SEQUENCE = [
        ("check", EXAMPLE_UNIQUE, "--x", "-1/2 - 1/2j"),
        ("check", EXAMPLE_UNIQUE, "--x", "1"),
        ("check", EXAMPLE_UNIQUE),
        ("solve", EXAMPLE_UNIQUE),
        ("newton", EXAMPLE_NEWTON, "--x0", "1+j"),
        ("solve", "--output", "json", EXAMPLE_SPURIOUS),
        ("newton", "--bogus", "x = 1"),
    ]

    def outputs(self, capsys):
        return [invoke(capsys, *argv) for argv in self.SEQUENCE]

    def test_consecutive_runs_match_fresh_parsers(self, capsys, monkeypatch):
        reused = self.outputs(capsys)
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert self.outputs(capsys) == reused
        # the --x values of one call never reach the next
        assert [code for code, _, _ in reused] == [0, 1, 2, 0, 0, 1, 2]
        assert "got 0" in reused[2][2]


class TestSolveCheckRoundTrip:
    """Every exact `solve --output json` that exits 0 prints values that
    `check --x` accepts with exit 0 (`--x=V`, so a value may start with
    "-"), on seeded random equations over H, M2 and Cl(1,1): 1 or 2
    unknowns, 1 to 3 terms a*x*b per equation, coordinates from COORDINATES.
    The generator bounds the cost: 100 systems per algebra, three methods."""

    COORDINATES = (0, 1, -1, 2, Fraction(1, 2), -3)
    ALGEBRAS = {"H": nc.quaternion_algebra, "M2": lambda: matrix_algebra(2),
                "Cl11": lambda: clifford_algebra(1, 1)}

    def equations(self, alg, rng):
        def element():
            coords = [rng.choice(self.COORDINATES) for _ in range(alg.dim)]
            return nc.format_element(alg.element(coords))
        names = rng.choice((["x"], ["x1", "x2"]))
        return [" + ".join(f"({element()})*{rng.choice(names)}*({element()})"
                           for _ in range(rng.randint(1, 3))) + f" = {element()}"
                for _ in range(rng.randint(1, len(names)))]

    @pytest.mark.parametrize("name", list(ALGEBRAS))
    def test_solutions_pass_check(self, capsys, tmp_path, name):
        alg, rng = self.ALGEBRAS[name](), random.Random(f"round-trip-{name}")
        algebra = tmp_path / f"{name}.json"
        algebra.write_text(json.dumps({
            "dim": alg.dim, "basis": list(alg.basis_names),
            "constants": [[[str(c) for c in row] for row in plane]
                          for plane in alg.constants]}))
        solved = set()
        for _ in range(100):
            equations = self.equations(alg, rng)
            for method in ("auto", "field", "richardson"):
                code, out, err = invoke(capsys, "solve", "--algebra", str(algebra),
                                        "--method", method, "--output", "json",
                                        *equations)
                assert code in (0, 1), err
                if code == 0:
                    payload = json.loads(out)
                    xs = [f"--x={value}" for value in payload["solution"]]
                    assert invoke(capsys, "check", "--algebra", str(algebra), *xs,
                                  *equations)[0] == 0, (method, equations, payload)
                    solved.add((method, payload["status"]))
        assert solved == {(method, status) for method in ("auto", "field", "richardson")
                          for status in ("unique", "parametric")}
