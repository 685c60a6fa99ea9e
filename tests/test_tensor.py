from fractions import Fraction

import pytest

import ncalg as nc
from ncalg.cli import run
from ncalg.linalg import rank
from helpers import (
    algebra_from_data,
    compose_pairs_oracle,
    matrix_algebra,
    rand_element,
    rand_nonzero,
    rand_tensor,
)


def coeff_value(t, i, j):
    return t.coeff[i][j]


class TestStandardForm:
    def test_from_pairs_collects_coefficients(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i + j, k), (k, j + k)])
        expected = nc.tensor_from_pairs([(i, k), (j, k), (k, j), (k, k)])
        assert f == expected

    def test_singular_example_form(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i + j, k), (k, j + one)])
        expected = nc.tensor_from_pairs([(i, k), (j, k), (k, one), (k, j)])
        assert f == expected

    def test_unit_pair_is_identity(self, hq):
        t = nc.tensor_from_pairs([(hq.one(), hq.one())])
        assert t == nc.TensorOp.identity(hq)
        assert t.is_identity()

    def test_display_pairs_agree_with_coeff(self, hq, rng):
        pairs = [(rand_element(hq, rng), rand_element(hq, rng)) for _ in range(3)]
        t = nc.tensor_from_pairs(pairs)
        for b in range(4):
            x = hq.basis(b)
            direct = hq.zero()
            for a, c in t.display_pairs:
                direct = direct + a * x * c
            assert t.apply(x) == direct


class TestApply:
    def test_golden_action(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i + j, k), (k, j + one)])
        assert f.apply(i) == j - k

    def test_identity_action(self, hq, rng):
        ident = nc.TensorOp.identity(hq)
        for _ in range(10):
            x = rand_element(hq, rng)
            assert ident.apply(x) == x

    def test_inverse_tensor_action(self, hq, units):
        one, i, j, k = units
        g = nc.TensorOp(hq, [
            [0, 0, 0, 0],
            [0, 0, Fraction(1, 4), Fraction(1, 4)],
            [0, 0, Fraction(1, 4), Fraction(1, 4)],
            [0, 0, 0, Fraction(1, 2)],
        ])
        assert g.apply(one + k) == hq.element(["-1/2", 0, "-1/2", 0])


class TestCompose:
    def test_simple_tensor_contraction(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i, one)])
        g = nc.tensor_from_pairs([(j, one)])
        assert f.compose(g) == nc.tensor_from_pairs([(k, one)])

    def test_against_pairwise_oracle(self, hq, rng):
        for _ in range(20):
            fp = [(rand_element(hq, rng), rand_element(hq, rng)) for _ in range(2)]
            gp = [(rand_element(hq, rng), rand_element(hq, rng)) for _ in range(2)]
            f, g = nc.tensor_from_pairs(fp), nc.tensor_from_pairs(gp)
            assert f.compose(g) == compose_pairs_oracle(fp, gp)

    def test_golden_pair_composes_to_identity(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i, k), (j, k), (k, j), (k, k)])
        g = f.invert()
        assert g.compose(f) == nc.TensorOp.identity(hq)
        assert f.compose(g) == nc.TensorOp.identity(hq)

    def test_identity_is_neutral(self, hq, rng):
        ident = nc.TensorOp.identity(hq)
        for _ in range(10):
            f = rand_tensor(hq, rng)
            assert ident.compose(f) == f
            assert f.compose(ident) == f

    def test_homomorphism(self, hq, rng):
        for _ in range(20):
            f, g = rand_tensor(hq, rng), rand_tensor(hq, rng)
            x = rand_element(hq, rng)
            assert f.compose(g).apply(x) == f.apply(g.apply(x))


class TestOperatorMatrix:
    def test_identity(self, hq):
        assert nc.TensorOp.identity(hq).operator_matrix() == nc.FieldMatrix.identity(4)

    def test_left_factor_only(self, hq, rng):
        a = rand_element(hq, rng)
        t = nc.tensor_from_pairs([(a, hq.one())])
        assert t.operator_matrix() == a.left_matrix()

    def test_matches_apply_on_basis(self, hq, rng):
        for _ in range(15):
            t = rand_tensor(hq, rng)
            M = t.operator_matrix()
            for b in range(4):
                x = hq.basis(b)
                assert M.matvec(list(x.coords)) == list(t.apply(x).coords)

    def test_multiplicative(self, hq, rng):
        for _ in range(15):
            f, g = rand_tensor(hq, rng), rand_tensor(hq, rng)
            assert f.compose(g).operator_matrix() == \
                f.operator_matrix() @ g.operator_matrix()


class TestInvert:
    def test_golden_inverse(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i, k), (j, k), (k, j), (k, k)])
        g = f.invert()
        q = Fraction(1, 4)
        expected = nc.TensorOp(hq, [
            [0, 0, 0, 0],
            [0, 0, q, q],
            [0, 0, q, q],
            [0, 0, 0, Fraction(1, 2)],
        ])
        assert g == expected
        assert g.apply(one + k) == hq.element(["-1/2", 0, "-1/2", 0])

    def test_golden_singular(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i, k), (j, k), (k, one), (k, j)])
        with pytest.raises(nc.SingularTensor):
            f.invert()

    def test_simple_tensor_inverse(self, hq, rng):
        for _ in range(15):
            a, b = rand_nonzero(hq, rng), rand_nonzero(hq, rng)
            t = nc.tensor_from_pairs([(a, b)])
            expected = nc.tensor_from_pairs([(a.inverse(), b.inverse())])
            assert t.invert() == expected

    def test_two_sided_identity(self, hq, rng):
        done = 0
        while done < 15:
            f = rand_tensor(hq, rng)
            try:
                g = f.invert()
            except nc.SingularTensor:
                continue
            ident = nc.TensorOp.identity(hq)
            assert f.compose(g) == ident and g.compose(f) == ident
            assert g.operator_matrix() @ f.operator_matrix() == \
                nc.FieldMatrix.identity(4)
            done += 1

    def test_invertible_iff_full_rank(self, hq, rng, units):
        one, i, j, k = units
        cases = [rand_tensor(hq, rng) for _ in range(10)]
        cases.append(nc.tensor_from_pairs([(i, k), (j, k), (k, one), (k, j)]))
        cases.append(nc.tensor_from_pairs([(one + i, j)]))
        for f in cases:
            full = rank(f.operator_matrix()) == 4
            try:
                f.invert()
                inverted = True
            except nc.SingularTensor:
                inverted = False
            assert inverted == full


class TestPresentation:
    def test_text_rendering(self, hq, units):
        one, i, j, k = units
        f = nc.tensor_from_pairs([(i, k), (j, k), (k, j), (k, k)])
        g = f.invert()
        assert g.to_text() == \
            "1/4(i⊗j) + 1/4(i⊗k) + 1/4(j⊗j) + 1/4(j⊗k) + 1/2(k⊗k)"
        assert nc.TensorOp.zero(hq).to_text() == "0"

    def test_json_round_trip_coeff(self, hq, rng):
        t = rand_tensor(hq, rng)
        assert nc.TensorOp.from_json(hq, t.to_json()) == t

    def test_json_pairs_form(self, hq, units):
        one, i, j, k = units
        data = {"pairs": [[nc.element_to_json(i + j), nc.element_to_json(k)],
                          [nc.element_to_json(k), nc.element_to_json(j + k)]]}
        t = nc.TensorOp.from_json(hq, data)
        assert t == nc.tensor_from_pairs([(i + j, k), (k, j + k)])

    def test_mismatch_rejected(self, hq):
        other = nc.quaternion_algebra(nc.FLOAT)
        with pytest.raises(nc.AlgebraMismatch):
            nc.tensor_from_pairs([(hq.one(), other.one())])
        with pytest.raises(nc.AlgebraMismatch):
            nc.TensorOp.identity(hq).apply(other.one())


def _not_central_simple():
    # complex and dual numbers are commutative, so A(x)A^op is not End(A);
    # M2 is central simple but has zero divisors and non-unit constants
    return {"complex": algebra_from_data("complex"),
            "dual": algebra_from_data("dual"),
            "M2": matrix_algebra(2)}


class TestEnvelopeAlgebras:
    @pytest.mark.parametrize("name", ["complex", "dual", "M2"])
    def test_compose_matches_pairwise_oracle(self, name, rng):
        alg = _not_central_simple()[name]
        for _ in range(10):
            fp = [(rand_element(alg, rng), rand_element(alg, rng)) for _ in range(2)]
            gp = [(rand_element(alg, rng), rand_element(alg, rng)) for _ in range(2)]
            f, g = nc.tensor_from_pairs(fp), nc.tensor_from_pairs(gp)
            assert f.compose(g) == compose_pairs_oracle(fp, gp)
            x = rand_element(alg, rng)
            assert f.compose(g).apply(x) == f.apply(g.apply(x))

    @pytest.mark.parametrize("name", ["complex", "dual", "M2"])
    def test_invert_is_two_sided_or_singular(self, name, rng):
        alg = _not_central_simple()[name]
        ident = nc.TensorOp.identity(alg)
        outcomes = set()
        for _ in range(15):
            f = rand_tensor(alg, rng)
            try:
                g = f.invert()
            except nc.SingularTensor:
                with pytest.raises(nc.NotInvertible):
                    f.element.inverse()
                outcomes.add("singular")
                continue
            assert f.compose(g) == ident and g.compose(f) == ident
            assert g.element == f.element.inverse()
            x = rand_element(alg, rng)
            assert g.apply(f.apply(x)) == x
            outcomes.add("inverted")
        assert outcomes == {"singular", "inverted"}

    def test_zero_divisor_with_invertible_operator(self):
        alg = algebra_from_data("complex")
        one, u = alg.one(), alg.basis(1)
        f = nc.tensor_from_pairs([(u, one), (one, u)])  # x -> 2 u x
        assert rank(f.operator_matrix()) == 2
        with pytest.raises(nc.SingularTensor):
            f.invert()

    def test_envelope_cached_and_sparse(self, monkeypatch):
        alg = matrix_algebra(2)
        builds = []
        original = nc.Algebra._set_table

        def counting(self, table):
            builds.append(self.dim)
            original(self, table)

        monkeypatch.setattr(nc.Algebra, "_set_table", counting)
        f = nc.tensor_from_pairs([(alg.basis(2) + alg.one(), alg.basis(3) + alg.one())])
        f.invert()
        f.invert()
        nc.tensor_from_pairs([(alg.basis(1), alg.one())]).invert()
        assert builds == [16]
        env = alg.envelope()
        assert f.element.algebra is env
        assert env.constants is None
        assert env.basis_names[:3] == ("1⊗1", "1⊗h", "1⊗e")

    def test_check_builds_no_envelope(self, table_builds, capsys):
        # `check` only applies the operators, so no dim-n^2 table is built;
        # the second system has an equation without x2, i.e. a zero tensor
        assert run(["check", "--x", "-1/2 - 1/2j", "(i+j)*x*k + k*x*(j+k) = 1+k"]) == 0
        assert run(["check", "--x", "1", "--x", "i + k",
                    "i*x1 + x2*j = k", "x1 = 1"]) == 0
        assert table_builds == [4, 4]
