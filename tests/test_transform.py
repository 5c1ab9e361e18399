import math

import numpy as np
import pytest

from cascade_stab.errors import ResidualNonzero
from cascade_stab.model import PlantSpec, ShapeFunction, validate_plant
from cascade_stab.transform import (
    RESIDUAL_TOL,
    TransformFamily,
    cancellation_residual,
    coupling_row,
    mode_transform,
    solve_transform_family,
    support_cols,
    support_rows,
    sylvester_residuals,
)

from conftest import random_plant

LAMBDAS = (0.25, 2.25, 6.25, 12.25)


# Closed-form recursion for the family coefficients, the test oracle of the
# structured elimination.

def in_support(m: int, i: int, j: int, k: int) -> bool:
    return j in support_rows(m, i) and k in support_cols(m, i, j)


def closed_form_coeff(plant, i: int, j: int, k: int,
                      Ti_partial: np.ndarray, prev: np.ndarray) -> float:
    """Coefficient (j, k) of Tbar_i by the explicit recursion.

    `Ti_partial` must already hold every entry of Tbar_i in rows > j, and
    `prev` is Tbar_{i-1} (the identity for i = 1).  Indices are 1-based.
    An oracle for the elimination in `solve_transform_family`: it sums only
    over the structural support ranges instead of forming residual matrices.
    """
    m = plant.m
    if not in_support(m, i, j, k):
        raise ValueError(f"({j},{k}) outside support of Tbar_{i}")
    Q = plant.Q
    D = plant.D
    half = math.ceil(i / 2)

    acc = 0.0
    # Row j+1 of Tbar_i against column k of Q, over that row's support.
    for l in range(j + 1 + half, m + 1):
        acc += Ti_partial[j, l - 1] * Q[l - 1, k - 1]
    # Row j+1 of Q against column k of Tbar_i, over the support rows below j.
    for r in range(j + 1, m - half + 1):
        acc -= Q[j, r - 1] * Ti_partial[r - 1, k - 1]
    # Forcing from the previous family member (Kronecker delta for i = 1).
    if i == 1:
        prev_entry = 1.0 if (j + 1) == k else 0.0
    else:
        prev_entry = prev[j, k - 1]
    acc += prev_entry * (D[-1] - D[k - 1])
    return acc / Q[j, j - 1]


def closed_form_family(plant) -> TransformFamily:
    """Build the whole family from the closed-form recursion alone."""
    m = plant.m
    sigma_bar = plant.indices.sigma_bar
    coeffs = []
    prev = np.eye(m)
    for i in range(1, sigma_bar + 1):
        Ti = np.zeros((m, m))
        for j in reversed(support_rows(m, i)):
            for k in reversed(support_cols(m, i, j)):
                Ti[j - 1, k - 1] = closed_form_coeff(plant, i, j, k, Ti, prev)
        coeffs.append(Ti)
        prev = Ti
    return TransformFamily(m=m, sigma_bar=sigma_bar, coeffs=tuple(coeffs))



def masked_residual(plant, Ti, prev):
    R = plant.Q @ Ti - Ti @ plant.Q + prev @ np.diag(plant.D - plant.D[-1])
    R[0, :] = 0.0
    return R


def simple_plant(D, Q, shapes=None):
    m = len(D)
    shapes = shapes or (ShapeFunction.indicator(0.1, 0.2),)
    return validate_plant(
        PlantSpec(m=m, D=np.asarray(D, float), Q=np.asarray(Q, float),
                  L=math.pi, gamma1=1.0, gamma2=0.0, shapes=shapes)
    )


class TestSolveFamily:
    def test_demo_plant_family(self, demo_plant):
        family = solve_transform_family(demo_plant)
        assert family.sigma_bar == 2
        T1, T2 = family.coeffs
        # First coefficient is the single entry (1,2) solving
        # q21 * kappa + (d2 - d3) = 0, i.e. kappa = (d3 - d2)/q21 = +1.
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(T1, expected, atol=1e-14)
        np.testing.assert_allclose(T2, np.zeros((3, 3)), atol=1e-14)
        assert max(sylvester_residuals(demo_plant, family)) <= RESIDUAL_TOL

    def test_flipped_sign_violates_equation(self, demo_plant):
        # The opposite sign convention for the first coefficient cannot solve
        # the masked equation: its residual is |q21*k + (d2-d3)| = 2, not 0.
        bad = np.zeros((3, 3))
        bad[0, 1] = -1.0
        R = masked_residual(demo_plant, bad, np.eye(3))
        assert abs(R[1, 1]) == pytest.approx(2.0)

    def test_equal_diffusions_empty_family(self):
        plant = simple_plant([2.0, 2.0, 2.0],
                             [[1.0, 0.5, 0.2], [1.0, -1.0, 0.3], [0.0, 0.7, 2.0]])
        family = solve_transform_family(plant)
        assert family.is_empty

    def test_two_equations_distinct_diffusions_empty_family(self):
        plant = simple_plant([2.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        assert plant.indices.sigma_bar == 0
        family = solve_transform_family(plant)
        assert family.is_empty

    def test_sigma_two_family_vanishes(self):
        # d1 != d2 = d3: the forcing is masked away, so Tbar_1 = 0.
        plant = simple_plant([3.0, 1.0, 1.0],
                             [[1.0, 0.5, 0.2], [1.0, -1.0, 0.3], [0.0, 0.7, 2.0]])
        assert plant.indices.sigma_bar == 1
        family = solve_transform_family(plant)
        np.testing.assert_allclose(family.coeffs[0], 0.0, atol=1e-14)

    def test_random_plants_residual_and_support(self, rng):
        for _ in range(100):
            plant = random_plant(rng)
            family = solve_transform_family(plant)
            res = sylvester_residuals(plant, family)
            assert all(r <= RESIDUAL_TOL for r in res)
            for i, Ti in enumerate(family.coeffs, start=1):
                for j in range(1, plant.m + 1):
                    for k in range(1, plant.m + 1):
                        if not in_support(plant.m, i, j, k):
                            assert Ti[j - 1, k - 1] == 0.0

    def test_residual_check_detects_corruption(self, demo_plant):
        Q = demo_plant.Q
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        bad[0, 2] = 0.5  # inconsistent with the equation
        forcing = np.diag(demo_plant.D - demo_plant.D[-1])
        from cascade_stab.transform import _verify_residual

        with pytest.raises(ResidualNonzero) as exc_info:
            _verify_residual(Q, bad, forcing, 1)
        assert exc_info.value.i == 1


class TestClosedForm:
    def test_demo_entry_matches_elimination(self, demo_plant):
        family = solve_transform_family(demo_plant)
        val = closed_form_coeff(demo_plant, 1, 1, 2, family.coeffs[0], np.eye(3))
        assert val == pytest.approx(family.coeffs[0][0, 1], rel=1e-12)
        assert val == pytest.approx(1.0)

    def test_equal_diffusions_zero(self):
        plant = simple_plant([2.0, 2.0, 2.0, 2.0],
                             [[0.1, 0.2, 0.3, 0.4],
                              [1.0, 0.1, 0.2, 0.3],
                              [0.0, 1.0, 0.1, 0.2],
                              [0.0, 0.0, 1.0, 0.1]])
        # sigma = 1 means no equations at all; force one row through the
        # recursion to confirm zero forcing yields zero coefficients.
        val = closed_form_coeff(plant, 1, 1, 2, np.zeros((4, 4)), np.eye(4))
        assert val == 0.0

    def test_out_of_support_raises(self, demo_plant):
        with pytest.raises(ValueError, match="outside support"):
            closed_form_coeff(demo_plant, 1, 3, 3, np.zeros((3, 3)), np.eye(3))
        with pytest.raises(ValueError, match="outside support"):
            closed_form_coeff(demo_plant, 2, 1, 1, np.zeros((3, 3)), np.eye(3))

    def test_random_m4_families_agree(self, rng):
        for _ in range(100):
            plant = random_plant(rng, m=4)
            fam_elim = solve_transform_family(plant)
            fam_cf = closed_form_family(plant)
            assert fam_elim.sigma_bar == fam_cf.sigma_bar
            for A, B in zip(fam_elim.coeffs, fam_cf.coeffs):
                scale = max(1.0, np.max(np.abs(A)), np.max(np.abs(B)))
                assert np.max(np.abs(A - B)) / scale <= 1e-10

    def test_all_sizes_agree(self, rng):
        for m in range(2, 7):
            for _ in range(10):
                plant = random_plant(rng, m=m)
                fam_elim = solve_transform_family(plant)
                fam_cf = closed_form_family(plant)
                for A, B in zip(fam_elim.coeffs, fam_cf.coeffs):
                    scale = max(1.0, np.max(np.abs(A)), np.max(np.abs(B)))
                    assert np.max(np.abs(A - B)) / scale <= 1e-10


class TestModeTransform:
    def test_demo_mode_one(self, demo_plant):
        family = solve_transform_family(demo_plant)
        T, T_inv = mode_transform(family, [0.25])
        expected = np.array([[1.0, 0.25, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert T.shape == T_inv.shape == (1, 3, 3)
        np.testing.assert_allclose(T[0], expected, atol=1e-14)
        np.testing.assert_allclose(T[0] @ T_inv[0], np.eye(3), atol=1e-14)

    def test_zero_eigenvalue_is_identity(self, demo_plant):
        family = solve_transform_family(demo_plant)
        T, T_inv = mode_transform(family, [0.0, 0.25])
        np.testing.assert_array_equal(T[0], np.eye(3))
        np.testing.assert_array_equal(T_inv[0], np.eye(3))

    def test_no_eigenvalues_empty_stack(self, demo_plant):
        family = solve_transform_family(demo_plant)
        T, T_inv = mode_transform(family, [])
        assert T.shape == T_inv.shape == (0, 3, 3)

    def test_determinant_and_inverse_random(self, rng):
        for _ in range(100):
            plant = random_plant(rng)
            family = solve_transform_family(plant)
            T, T_inv = mode_transform(family, LAMBDAS)
            assert np.max(np.abs(np.linalg.det(T) - 1.0)) <= 1e-10
            err = np.max(np.abs(T @ T_inv - np.eye(plant.m)), axis=(1, 2))
            scale = np.maximum(1.0, np.max(np.abs(T), axis=(1, 2)) ** 2)
            assert np.all(err <= 1e-12 * scale)


class TestCouplingRow:
    def test_sigma_two_reduces_to_linear_row(self):
        # d1 != d2 = ... = dm: G_n = lam (d_m - d1) e1^T
        plant = simple_plant([2.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        family = solve_transform_family(plant)
        G = coupling_row(plant, LAMBDAS, *mode_transform(family, LAMBDAS))
        expected = [[lam * (1.0 - 2.0), 0.0] for lam in LAMBDAS]
        np.testing.assert_allclose(G, expected, atol=1e-12)

    def test_sigma_two_three_equations(self):
        plant = simple_plant([3.0, 1.0, 1.0],
                             [[1.0, 0.5, 0.2], [1.0, -1.0, 0.3], [0.0, 0.7, 2.0]])
        family = solve_transform_family(plant)
        lams = LAMBDAS[:2]
        G = coupling_row(plant, lams, *mode_transform(family, lams))
        expected = [[lam * (1.0 - 3.0), 0.0, 0.0] for lam in lams]
        np.testing.assert_allclose(G, expected, atol=1e-12)

    def test_equal_diffusions_zero_row(self):
        plant = simple_plant([2.0, 2.0, 2.0],
                             [[1.0, 0.5, 0.2], [1.0, -1.0, 0.3], [0.0, 0.7, 2.0]])
        family = solve_transform_family(plant)
        G = coupling_row(plant, [6.25], *mode_transform(family, [6.25]))
        np.testing.assert_allclose(G, np.zeros((1, 3)), atol=1e-14)

    def test_demo_full_cancellation(self, demo_plant, demo_basis):
        family = solve_transform_family(demo_plant)
        lams = demo_basis.lam[:3]
        T, T_inv = mode_transform(family, lams)
        G = coupling_row(demo_plant, lams, T, T_inv)
        res = cancellation_residual(demo_plant, lams, T, G)
        assert res.shape == (3,)
        assert np.all(res <= 1e-9)

    def test_random_full_cancellation(self, rng):
        for _ in range(100):
            plant = random_plant(rng)
            family = solve_transform_family(plant)
            T, T_inv = mode_transform(family, LAMBDAS)
            G = coupling_row(plant, LAMBDAS, T, T_inv)
            res = cancellation_residual(plant, LAMBDAS, T, G)
            scale = np.maximum.reduce([np.ones(len(LAMBDAS)), np.max(np.abs(G), axis=1),
                                       np.max(np.abs(T), axis=(1, 2))])
            assert np.all(res / scale <= 1e-9)
