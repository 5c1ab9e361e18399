import errno
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cascade_stab import model

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
    record_to_dict,
    save_plant,
    validate_plant,
    write_json,
)

from cascade_stab.spectral import build_basis
from cascade_stab.synthesis import Certificate, Controller, zero_controller
from cascade_stab.transform import TransformFamily

from conftest import failing_exchange, random_plant


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
        idx = diffusion_indices([4.0, 5.0, 6.0])
        assert (idx.sigma, idx.sigma_bar) == (3, 2)

    def test_all_equal(self):
        idx = diffusion_indices([1.0, 1.0, 1.0])
        assert (idx.sigma, idx.sigma_bar) == (1, 0)

    def test_two_distinct(self):
        idx = diffusion_indices([2.0, 1.0])
        assert (idx.sigma, idx.sigma_bar) == (2, 0)

    def test_idempotent_and_clamped(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 8))
            d = rng.choice([0.5, 1.0, 1.5, 2.0], size=m)
            a = diffusion_indices(d)
            b = diffusion_indices(d)
            assert a == b
            assert 0 <= a.sigma_bar <= max(0, 2 * m - 4)
            assert (a.sigma == 1) == bool(np.all(d == d[0]))

    def test_trailing_tail_permutation_is_noop(self):
        d = [3.0, 2.0, 1.5, 1.5, 1.5]
        idx = diffusion_indices(d)
        permuted = [3.0, 2.0, 1.5, 1.5, 1.5]  # equal tail permutes to itself
        assert diffusion_indices(permuted) == idx
        assert idx.sigma == 3


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

    @pytest.mark.parametrize("text", ["{ not json", "[1, 2", '{"m": NaN,}', "\ufeff{}"])
    def test_reader_raises_json_error(self, tmp_path, text):
        """A file that neither parser reads raises json's error, text and all."""
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as exc_info:
            model.read_json(str(path))
        assert str(exc_info.value) == str(expected.value)
        with pytest.raises(PlantInputError) as plant_info:
            load_plant(str(path))
        assert str(plant_info.value) == f"plant file is not valid JSON: {expected.value}"


class TestRecordToDict:
    """One key per record field, in field order; arrays and tuples as lists."""

    def test_zero_controller(self):
        assert record_to_dict(zero_controller(9.0, 0, 2)) == {
            "delta": 9.0, "N": 0, "N_min": 0, "K_Q": [0.0, 0.0],
            "P": [[1.0, 0.0], [0.0, 1.0]], "Kbar": [], "Bmat": [], "cond_B": 1.0,
            "K": []}

    def test_controller(self):
        ctl = Controller(delta=2.0, N=1, N_min=1, K_Q=np.array([1.5, -2.0]),
                         P=np.array([[2.0, 0.5], [0.5, 1.0]]),
                         Kbar=np.array([[3.0, -0.0]]), Bmat=np.array([[0.5]]),
                         cond_B=1.0, K=np.array([[6.0, -0.0]]))
        out = record_to_dict(ctl)
        assert list(out) == ["delta", "N", "N_min", "K_Q", "P", "Kbar", "Bmat",
                             "cond_B", "K"]
        assert out == {"delta": 2.0, "N": 1, "N_min": 1, "K_Q": [1.5, -2.0],
                       "P": [[2.0, 0.5], [0.5, 1.0]], "Kbar": [[3.0, -0.0]],
                       "Bmat": [[0.5]], "cond_B": 1.0, "K": [[6.0, -0.0]]}
        assert math.copysign(1.0, out["K"][0][1]) == -1.0

    def test_certificate(self):
        cert = Certificate(rho=0.5, rho_bar=4.0, beta=0.3, rho0=2.0, c_lower=0.25,
                           c_upper=3.0, M=1e14, gamma_margins=(-0.25, -0.5),
                           omega_margins=(-14.0,))
        out = record_to_dict(cert)
        assert list(out) == ["rho", "rho_bar", "beta", "rho0", "c_lower", "c_upper",
                             "M", "gamma_margins", "omega_margins"]
        assert out == {"rho": 0.5, "rho_bar": 4.0, "beta": 0.3, "rho0": 2.0,
                       "c_lower": 0.25, "c_upper": 3.0, "M": 1e14,
                       "gamma_margins": [-0.25, -0.5], "omega_margins": [-14.0]}
        assert type(out["gamma_margins"]) is list

    def test_transform_family(self):
        family = TransformFamily(m=2, sigma_bar=1,
                                 coeffs=(np.array([[0.0, 0.5], [0.0, 0.0]]),))
        assert record_to_dict(family) == {
            "m": 2, "sigma_bar": 1, "coeffs": [[[0.0, 0.5], [0.0, 0.0]]]}

    def test_validated_plant_with_samples_shape(self):
        spec = PlantSpec(m=2, D=np.array([1.0, 2.0]), Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         L=1.0, gamma1=1.0, gamma2=0.0,
                         shapes=(ShapeFunction.samples([0.0, 0.5, 1.0], [1.0, 2.0, 0.5]),
                                 ShapeFunction.polynomial(1.0, -0.5)))
        plant = validate_plant(spec)
        shapes = [{"kind": "samples", "params": [[0.0, 0.5, 1.0], [1.0, 2.0, 0.5]]},
                  {"kind": "polynomial", "params": [1.0, -0.5]}]
        fields = {"m": 2, "D": [1.0, 2.0], "Q": [[0.0, 1.0], [1.0, 0.0]], "L": 1.0,
                  "gamma1": 1.0, "gamma2": 0.0, "shapes": shapes}
        assert record_to_dict(plant) == {**fields,
                                         "indices": {"sigma": 2, "sigma_bar": 0}}
        # The plant file holds PlantSpec's fields alone, from either record.
        assert plant_to_dict(plant) == plant_to_dict(spec) == fields
        assert list(plant_to_dict(plant)) == list(fields)


class TestRecords:
    """The records are NamedTuples that keep the dataclasses' bytes and invariants."""

    def test_plant_file_writes_shapes_as_objects(self, tmp_path):
        """A ShapeFunction is a tuple too, but the plant file holds it as an object."""
        path = tmp_path / "plant.json"
        save_plant(plant_from_dict(example_plant_dict()), str(path))
        assert path.read_text() == json.dumps(example_plant_dict(), indent=2) + "\n"

    def test_plant_spec_coerces_its_fields(self):
        D, Q = [4, 5, 6], [[10, 4, 8], [1, 10, 2], [0, 1, 20]]
        shapes = [ShapeFunction.indicator(0.1, 0.2)]
        spec = make_spec(D=D, Q=Q, shapes=shapes)
        for built in (spec, spec._replace(D=D, Q=Q, shapes=shapes),
                      PlantSpec._make([3, D, Q, math.pi, 1.0, 0.0, shapes])):
            for arr, given in ((built.D, D), (built.Q, Q)):
                assert arr.dtype == np.float64 and not arr.flags.writeable
                np.testing.assert_array_equal(arr, given)
            assert built.shapes == tuple(shapes) and type(built.shapes) is tuple
        D_in = np.array([4.0, 5.0, 6.0])
        spec = make_spec(D=D_in)
        D_in[0] = -1.0
        assert spec.D[0] == 4.0  # a copy, so the caller's array stays writable
        assert D_in.flags.writeable

    def test_basis_arrays_are_read_only(self):
        basis = build_basis(math.pi, 1.0, 0.0, 4)
        for built in (basis, basis._replace(s=np.arange(4.0), lam=np.arange(4.0),
                                            c=np.ones(4))):
            for arr in (built.s, built.lam, built.c):
                assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.lam[0] = 0.0

    def test_family_coefficients_are_read_only(self):
        coeffs = (np.array([[0.0, 0.5], [0.0, 0.0]]),)
        family = TransformFamily(m=2, sigma_bar=1, coeffs=coeffs)
        replaced = family._replace(coeffs=(np.zeros((2, 2)),))
        assert not family.coeffs[0].flags.writeable
        assert not replaced.coeffs[0].flags.writeable

    def test_records_are_named_tuples(self):
        """A record compares equal to the plain tuple of its values."""
        shape = ShapeFunction.indicator(0.1, 0.2)
        assert shape == ("indicator", (0.1, 0.2))
        assert shape._fields == ("kind", "params")
        assert shape._replace(params=(0.2, 0.3)) == ShapeFunction.indicator(0.2, 0.3)


@pytest.fixture()
def exchanges(monkeypatch):
    """The paths of every exchange `atomic_write` asks libc for, in order."""
    calls = []
    real = model._RENAMEAT2

    def renameat2(olddirfd, old, newdirfd, new, flags):
        calls.append(os.fsdecode(new))
        return real(olddirfd, old, newdirfd, new, flags)
    if real is not None:
        monkeypatch.setattr(model, "_RENAMEAT2", renameat2)
    return calls


class TestAtomicWrite:
    def test_failed_write_leaves_target_and_no_tmp(self, tmp_path):
        target = tmp_path / "gains.json"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write(b"new, partly written")
                fh.flush()
                raise RuntimeError("interrupted")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["gains.json"]

    def test_completed_write_replaces_target(self, tmp_path, exchanges):
        target = tmp_path / "report.txt"
        target.write_text("old\n")
        with atomic_write(str(target)) as fh:
            fh.write(b"new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
        if model._RENAMEAT2 is not None:
            assert exchanges == [str(target)]

    def test_missing_target_falls_back_to_replace(self, tmp_path, monkeypatch,
                                                  exchanges):
        replaced = []
        real_replace = os.replace

        def replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "gains.json"
        with atomic_write(str(target)) as fh:
            fh.write(b"first\n")
        assert target.read_text() == "first\n"
        assert replaced == [str(target)] and exchanges == []
        assert [p.name for p in tmp_path.iterdir()] == ["gains.json"]

    def test_directory_target_raises_and_stays(self, tmp_path, exchanges):
        target = tmp_path / "field.csv"
        target.mkdir()
        (target / "inside").write_text("kept\n")
        with pytest.raises(IsADirectoryError):
            with atomic_write(str(target)) as fh:
                fh.write(b"new\n")
        assert (target / "inside").read_text() == "kept\n"
        assert [p.name for p in target.iterdir()] == ["inside"]
        assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]
        assert exchanges == []

    def test_symlink_target_is_replaced_not_followed(self, tmp_path):
        referent = tmp_path / "referent.csv"
        referent.write_text("old\n")
        target = tmp_path / "norms.csv"
        target.symlink_to(referent)
        with atomic_write(str(target)) as fh:
            fh.write(b"new\n")
        assert not target.is_symlink() and target.read_text() == "new\n"
        assert referent.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["norms.csv",
                                                               "referent.csv"]

    def test_second_hard_link_keeps_old_content(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old\n")
        other = tmp_path / "other.txt"
        os.link(target, other)
        with atomic_write(str(target)) as fh:
            fh.write(b"new\n")
        assert target.read_text() == "new\n" and other.read_text() == "old\n"
        assert os.stat(other).st_nlink == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt",
                                                               "report.txt"]

    def test_open_reader_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "modal.csv"
        target.write_bytes(b"t,z\n0,1\n1,2\n")
        with open(target, "rb") as reader:
            head = reader.read(4)
            with atomic_write(str(target)) as fh:
                fh.write(b"t,z\n0,5\n")
            assert head + reader.read() == b"t,z\n0,1\n1,2\n"
        assert target.read_bytes() == b"t,z\n0,5\n"

    @pytest.mark.parametrize("code", [errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP])
    def test_unavailable_exchange_gives_same_files(self, tmp_path, monkeypatch, code):
        def write_twice(directory):
            directory.mkdir()
            for text in (b"old\n", b"new\n"):
                with atomic_write(str(directory / "gains.json")) as fh:
                    fh.write(text)
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        with_exchange = write_twice(tmp_path / "on")
        monkeypatch.setattr(model, "_RENAMEAT2", failing_exchange(code))
        assert write_twice(tmp_path / "off") == with_exchange == {"gains.json": b"new\n"}
        monkeypatch.setattr(model, "_RENAMEAT2", None)
        assert write_twice(tmp_path / "none") == with_exchange

    def test_other_exchange_error_raises_and_leaves_target(self, tmp_path,
                                                           monkeypatch):
        target = tmp_path / "gains.json"
        target.write_text("old\n")
        monkeypatch.setattr(model, "_RENAMEAT2", failing_exchange(errno.EACCES))
        with pytest.raises(PermissionError):
            with atomic_write(str(target)) as fh:
                fh.write(b"new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["gains.json"]

    def test_overwrite_needs_no_replace(self, tmp_path, monkeypatch):
        """The fast path: an existing file is overwritten by the exchange alone."""
        probe, other = tmp_path / "probe", tmp_path / "other"
        probe.write_text("a")
        other.write_text("b")
        if model._RENAMEAT2 is None or model._RENAMEAT2(
                -1, bytes(probe), -1, bytes(other), model._RENAME_EXCHANGE) != 0:
            pytest.skip("no renameat2(RENAME_EXCHANGE) on this filesystem")
        assert probe.read_text() == "b" and other.read_text() == "a"

        def replace(src, dst):
            raise AssertionError("os.replace called")
        monkeypatch.setattr(os, "replace", replace)
        with atomic_write(str(other)) as fh:
            fh.write(b"new\n")
        assert other.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other", "probe"]


# Floats at every edge of the formatter's byte fix-up, and the non-finite
# values json writes as NaN and Infinity.
EDGE_FLOATS = [0.0, -0.0, 1e-05, 1.5e-05, -9.99e-05, 1e-04, 1e-06, 1e16, 5e-324,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]

_finite = st.one_of(st.sampled_from([x for x in EDGE_FLOATS if math.isfinite(x)]),
                    st.floats(allow_nan=False, allow_infinity=False))
_leaves = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(), st.integers(), st.booleans(),
    st.none(), st.text(), st.floats().map(np.float64),
    st.lists(_finite, max_size=8),
    # Float-only lists long enough for the formatter's orjson path.
    st.lists(_finite, min_size=4, max_size=8).map(lambda xs: xs * 32),
)
_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(_keys, inner, max_size=5)),
    max_leaves=12)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


class _Float(float):
    pass


def _tolist(obj):
    """obj with every ndarray replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _tolist(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tolist(item) for item in obj]
    return obj


# Each cut of the float fix-up, the doubles either side of it, a value inside
# each band it bounds, and the zeros.
_CUTS = (1e-9, 1e-5, 1e-4, 1e16, 1e100)
_BAND_FLOATS = [sign * float(v) for cut in _CUTS
                for v in (np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf), 2.5 * cut)
                for sign in (1.0, -1.0)] + [0.0, -0.0, 5e-324, 1.7976931348623157e308]
_array_floats = st.one_of(st.sampled_from(_BAND_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
# 1-D and 2-D, empty ones too, and some transposed (not C-contiguous).
_float_arrays = st.builds(
    lambda a, transpose: a.T if transpose else a,
    arrays(np.float64, st.one_of(st.tuples(st.integers(0, 6)),
                                 st.tuples(st.integers(0, 4), st.integers(0, 6))),
           elements=_array_floats),
    st.booleans())
_ascii_keys = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=6)
_array_documents = st.recursive(
    st.one_of(_float_arrays, _array_floats, _array_floats.map(np.float64), st.integers(),
              st.booleans(), st.none(), _ascii_keys, st.lists(_array_floats, max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_ascii_keys, inner, max_size=4)),
    max_leaves=10)


class TestWriteJson:
    """write_json writes json.dump(obj, fh, indent=2) plus a newline, byte for byte."""

    @settings(max_examples=80)
    @given(_documents)
    def test_matches_json_dump(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "doc.json"
        write_json(str(path), obj)
        assert path.read_bytes() == _json_bytes(obj)

    @pytest.mark.parametrize("obj", [
        {}, [], (), "", 0, None,
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        [1.0, 2, 3.0], [True, 1.0], [[1.0, 2.0], [3.0], []],
        EDGE_FLOATS, [x for x in EDGE_FLOATS if math.isfinite(x)] * 20,
        {1: 1.5, 2.5: "x", True: [np.float64(0.1)], None: -0.0, math.nan: "\x00\u00e9\U0001f600"},
    ])
    def test_edge_documents(self, tmp_path, obj):
        path = tmp_path / "doc.json"
        write_json(str(path), obj)
        assert path.read_bytes() == _json_bytes(obj)

    @settings(max_examples=120)
    @given(_array_documents)
    def test_array_leaves_match_json_dump_of_tolist(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "arrays.json"
        write_json(str(path), obj)
        assert path.read_bytes() == _json_bytes(_tolist(obj))

    @pytest.mark.parametrize("obj", [
        np.zeros(3), np.zeros((0, 3)), np.zeros((3, 0)), np.array(-0.0),
        np.arange(24.0).reshape(2, 3, 4) * 1.5e-5,
        {"K": np.array([[1.0, math.nan], [math.inf, -math.inf]]), "x": [np.float64(2.0)]},
        [np.array([1.5e-5, math.nan])], {"a": [np.zeros((2, 2)), {"b": np.ones(2) * -1e16}]},
        np.float64(1.5e-5), [np.float64(-2.5e-7), np.float64(1e16)], {"x": np.float64(0.1)},
        {"s\"q\\b": np.eye(2) * 1.5e-5}, {"\u00e9": np.ones(2)},
        {"del\x7f": 1.5e-5}, [1.5e-5, "\x7f", "\x1f\n"], {"q\"": 1.5e-5, "b\\": -2.5e-5},
        {"a": np.zeros((3, 0)), "b": np.zeros((0, 2)), "c": [np.zeros(0), 1.5e-5]},
        {"f": _Float(1.5e-5), "t": model.DiffusionIndices(2, 1), "g": 1e-7},
    ])
    def test_array_and_numpy_float_documents(self, tmp_path, obj):
        path = tmp_path / "doc.json"
        write_json(str(path), obj)
        assert path.read_bytes() == _json_bytes(_tolist(obj))

    @pytest.mark.parametrize("obj", [{"K": [1.0, object()]}, [{1, 2}],
                                     {(1, 2): 0.5}, np.arange(3), [np.zeros(2, np.float32)]])
    def test_unserializable_leaves_target_untouched(self, tmp_path, obj):
        target = tmp_path / "gains.json"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            write_json(str(target), obj)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["gains.json"]

    @pytest.mark.parametrize("arrays", [False, True])
    def test_one_formatter_call_and_one_write(self, tmp_path, monkeypatch, arrays):
        """One orjson dump lays out the whole document, and one write stores it."""
        dumps, writes = [], []
        real_orjson, real_write = model.orjson, model.atomic_write

        class CountedOrjson:
            def __getattr__(self, name):
                return getattr(real_orjson, name)

            def dumps(self, *args, **kwargs):
                dumps.append(args)
                return real_orjson.dumps(*args, **kwargs)

        class Counted:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(len(text))
                return self.fh.write(text)

        class counted_write:
            def __init__(self, path):
                self.inner = real_write(path)

            def __enter__(self):
                return Counted(self.inner.__enter__())

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        monkeypatch.setattr(model, "orjson", CountedOrjson())
        monkeypatch.setattr(model, "atomic_write", counted_write)
        K = [[float(i + j) for j in range(300)] for i in range(3)]
        obj = {"K": np.array(K) if arrays else K,
               "delta": 9.0, "N": 3, "cert": {"rho": 0.5, "margins": [-1.0, -2.0]}}
        write_json(str(tmp_path / "gains.json"), obj)
        assert len(dumps) == 1 and len(writes) == 1
        assert (tmp_path / "gains.json").read_bytes() == _json_bytes(_tolist(obj))
