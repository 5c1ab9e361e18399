import json
import math

import numpy as np
import pytest

from cascade_stab.errors import (
    BadShape,
    CascadeViolation,
    ControllabilityViolation,
    DegenerateBoundary,
    NonPositiveDiffusion,
    PlantInputError,
)
from cascade_stab.model import (
    PlantSpec,
    atomic_write,
    ShapeFunction,
    diffusion_indices,
    example_plant_dict,
    load_plant,
    plant_from_dict,
    plant_to_dict,
    save_plant,
    validate_plant,
)

from conftest import random_plant


def make_spec(**overrides):
    base = dict(
        m=3,
        D=np.array([4.0, 5.0, 6.0]),
        Q=np.array([[10.0, 4.0, 8.0], [1.0, 10.0, 2.0], [0.0, 1.0, 20.0]]),
        L=math.pi,
        gamma1=1.0,
        gamma2=0.0,
        shapes=(ShapeFunction.indicator(0.1, 0.2),),
    )
    base.update(overrides)
    return PlantSpec(**base)


class TestValidation:
    def test_demo_plant_valid(self):
        plant = validate_plant(make_spec())
        assert plant.m == 3
        assert plant.indices.sigma == 3
        assert plant.indices.sigma_bar == 2

    def test_zero_subdiagonal_rejected(self):
        Q = np.array([[10.0, 4.0, 8.0], [0.0, 10.0, 2.0], [0.0, 1.0, 20.0]])
        with pytest.raises(ControllabilityViolation):
            validate_plant(make_spec(Q=Q))

    def test_scalar_plant_valid(self):
        plant = validate_plant(
            make_spec(m=1, D=np.array([1.0]), Q=np.array([[5.0]]))
        )
        assert plant.indices.sigma == 1
        assert plant.indices.sigma_bar == 0

    def test_entry_below_subdiagonal_rejected(self):
        Q = np.array([[10.0, 4.0, 8.0], [1.0, 10.0, 2.0], [0.5, 1.0, 20.0]])
        with pytest.raises(CascadeViolation):
            validate_plant(make_spec(Q=Q))

    def test_nonpositive_diffusion_rejected(self):
        with pytest.raises(NonPositiveDiffusion):
            validate_plant(make_spec(D=np.array([4.0, -5.0, 6.0])))
        with pytest.raises(NonPositiveDiffusion):
            validate_plant(make_spec(D=np.array([4.0, 0.0, 6.0])))

    def test_degenerate_boundary_rejected(self):
        with pytest.raises(DegenerateBoundary):
            validate_plant(make_spec(gamma1=0.0, gamma2=0.0))

    def test_opposite_sign_robin_rejected(self):
        # gamma1 * gamma2 < 0 adds a negative eigenvalue with a cosh
        # eigenfunction (lambda ~ -1.007 for L = pi, gamma = (1, -1)).
        for g1, g2 in ((1.0, -1.0), (-2.0, 0.5)):
            with pytest.raises(DegenerateBoundary):
                validate_plant(make_spec(gamma1=g1, gamma2=g2))
        validate_plant(make_spec(gamma1=-1.0, gamma2=-1.0))

    def test_bad_shapes_rejected(self):
        with pytest.raises(BadShape):
            validate_plant(make_spec(shapes=(ShapeFunction.indicator(0.5, 0.2),)))
        with pytest.raises(BadShape):
            validate_plant(make_spec(shapes=(ShapeFunction.indicator(-0.1, 0.2),)))
        with pytest.raises(BadShape):
            validate_plant(
                make_spec(shapes=(ShapeFunction.samples([0.0, 1.0], [1.0, 1.0]),))
            )
        with pytest.raises(BadShape):
            validate_plant(
                make_spec(shapes=(ShapeFunction("mystery", (1.0,)),))
            )

    def test_dimension_mismatches_rejected(self):
        with pytest.raises(PlantInputError):
            validate_plant(make_spec(D=np.array([4.0, 5.0])))
        with pytest.raises(PlantInputError):
            validate_plant(make_spec(L=-1.0))

    def test_generator_plants_always_accepted(self, rng):
        for _ in range(50):
            plant = random_plant(rng)
            assert plant.m >= 2

    def test_single_field_mutations_rejected(self, rng):
        plant = random_plant(rng, m=4)
        Q = np.array(plant.Q)
        D = np.array(plant.D)

        Q_bad = Q.copy()
        Q_bad[3, 0] = 0.123
        with pytest.raises(CascadeViolation):
            validate_plant(make_spec(m=4, D=D, Q=Q_bad, shapes=plant.shapes))

        Q_bad = Q.copy()
        Q_bad[2, 1] = 0.0
        with pytest.raises(ControllabilityViolation):
            validate_plant(make_spec(m=4, D=D, Q=Q_bad, shapes=plant.shapes))

        D_bad = D.copy()
        D_bad[1] = -D_bad[1]
        with pytest.raises(NonPositiveDiffusion):
            validate_plant(make_spec(m=4, D=D_bad, Q=Q, shapes=plant.shapes))


class TestDiffusionIndices:
    def test_all_distinct(self):
        idx = diffusion_indices([4.0, 5.0, 6.0], 3)
        assert (idx.sigma, idx.sigma_bar) == (3, 2)

    def test_all_equal(self):
        idx = diffusion_indices([1.0, 1.0, 1.0], 3)
        assert (idx.sigma, idx.sigma_bar) == (1, 0)

    def test_two_distinct(self):
        idx = diffusion_indices([2.0, 1.0], 2)
        assert (idx.sigma, idx.sigma_bar) == (2, 0)

    def test_idempotent_and_clamped(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 8))
            d = rng.choice([0.5, 1.0, 1.5, 2.0], size=m)
            a = diffusion_indices(d, m)
            b = diffusion_indices(d, m)
            assert a == b
            assert 0 <= a.sigma_bar <= max(0, 2 * m - 4)
            assert (a.sigma == 1) == bool(np.all(d == d[0]))

    def test_trailing_tail_permutation_is_noop(self):
        d = [3.0, 2.0, 1.5, 1.5, 1.5]
        idx = diffusion_indices(d, 5)
        permuted = [3.0, 2.0, 1.5, 1.5, 1.5]  # equal tail permutes to itself
        assert diffusion_indices(permuted, 5) == idx
        assert idx.sigma == 3

    def test_relative_tolerance_grouping(self):
        d = [4.0, 5.0, 5.0 * (1 + 1e-9)]
        assert diffusion_indices(d, 3).sigma == 3
        assert diffusion_indices(d, 3, tol=1e-6).sigma == 2


class TestShapeFunctions:
    def test_indicator_evaluation_and_norm(self):
        s = ShapeFunction.indicator(0.25, 0.75)
        assert s(0.5) == 1.0
        assert s(0.1) == 0.0
        assert s.l2_norm_sq(1.0) == pytest.approx(0.5)

    def test_polynomial_norm_matches_quadrature(self):
        s = ShapeFunction.polynomial(1.0, -2.0, 0.5)
        xs = np.linspace(0.0, 2.0, 20001)
        brute = np.trapezoid(s(xs) ** 2, xs)
        assert s.l2_norm_sq(2.0) == pytest.approx(brute, abs=1e-8)

    def test_samples_norm_matches_quadrature(self):
        grid = np.linspace(0.0, 1.0, 11)
        vals = np.sin(grid * 2.0) + 0.3
        s = ShapeFunction.samples(grid, vals)
        xs = np.linspace(0.0, 1.0, 200001)
        brute = np.trapezoid(s(xs) ** 2, xs)
        assert s.l2_norm_sq(1.0) == pytest.approx(brute, abs=1e-7)


class TestJsonRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        awkward = [math.pi, 0.1, 1.0 / 3.0, 1e-300, 123456.789012345678]
        spec = PlantSpec(
            m=3,
            D=np.array(awkward[:3]),
            Q=np.array(
                [[awkward[3], 0.1, 0.2], [awkward[4], 0.3, 0.4], [0.0, math.e, 0.5]]
            ),
            L=math.pi,
            gamma1=1.0 / 7.0,
            gamma2=math.sqrt(2),
            shapes=(
                ShapeFunction.indicator(0.1, math.pi / 3),
                ShapeFunction.polynomial(0.1, 1.0 / 3.0),
                ShapeFunction.samples([0.0, 1.0 / 3.0, math.pi], [0.5, 0.1, 0.7]),
            ),
        )
        path = tmp_path / "plant.json"
        save_plant(spec, str(path))
        loaded = load_plant(str(path))
        assert loaded.m == spec.m
        np.testing.assert_array_equal(loaded.D, spec.D)
        np.testing.assert_array_equal(loaded.Q, spec.Q)
        assert loaded.L == spec.L
        assert loaded.gamma1 == spec.gamma1
        assert loaded.gamma2 == spec.gamma2
        assert loaded.shapes == spec.shapes

    def test_example_dict_parses_and_validates(self):
        plant = validate_plant(plant_from_dict(example_plant_dict()))
        assert plant.indices.sigma_bar == 2
        round2 = plant_from_dict(json.loads(json.dumps(plant_to_dict(plant))))
        np.testing.assert_array_equal(round2.Q, plant.Q)

    def test_malformed_file_raises_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(PlantInputError):
            load_plant(str(path))
        path.write_text(json.dumps({"m": 2}))
        with pytest.raises(PlantInputError):
            load_plant(str(path))


class TestAtomicWrite:
    def test_failed_write_leaves_target_and_no_tmp(self, tmp_path):
        target = tmp_path / "gains.json"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write("new, partly written")
                fh.flush()
                raise RuntimeError("interrupted")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["gains.json"]

    def test_completed_write_replaces_target(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old\n")
        with atomic_write(str(target)) as fh:
            fh.write("new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
