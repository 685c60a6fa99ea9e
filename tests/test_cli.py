import json
import os
import subprocess
import sys
from pathlib import Path

import ncalg as nc
from ncalg import cli
from ncalg.cli import _sort_unknowns, run

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

    def test_parse_error_exit_2(self, capsys):
        code, _, err = invoke(capsys, "solve", "x +* 1 = 0")
        assert code == 2
        assert "error:" in err

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


class TestInvertTensor:
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

    def test_zero_divisor_named(self, capsys):
        # x -> u x + x u = 2 u x is invertible on the complex numbers, but
        # u(x)1 + 1(x)u is a zero divisor in A(x)A^op, so no inverse tensor
        argv = ["--algebra", str(DATA / "complex_algebra.json"), "u*x + x*u"]
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


class TestUsage:
    def test_unknown_flag_exit_2(self, capsys):
        assert run(["solve", "--nope", "x = 1"]) == 2

    def test_missing_command_exit_2(self, capsys):
        assert run([]) == 2

    def test_missing_algebra_file(self, capsys):
        code, _, err = invoke(capsys, "solve", "--algebra", "/nope/missing.json",
                              "x = 1")
        assert code == 2

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
