import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import cascade_stab
from cascade_stab import cli, model, spectral, synthesis, transform
from cascade_stab.cli import main
from cascade_stab.errors import PlantInputError
from cascade_stab.model import example_plant_dict, save_plant, write_json

from conftest import corrupt_family, failing_exchange, helper_formats_first, random_plant


@pytest.fixture()
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(example_plant_dict(), indent=2))
    return str(path)


@pytest.fixture()
def initial_file(tmp_path):
    profiles = [
        {"kind": "cosine", "params": [1.0, 1.0, 1.0]},
        {"kind": "cosine", "params": [6.0, 0.5, 3.0]},
        {"kind": "cosine", "params": [-1.0, 0.5, -0.5]},
    ]
    path = tmp_path / "initial.json"
    path.write_text(json.dumps(profiles))
    return str(path)


class TestSynthesize:
    def test_demo_run(self, tmp_path, plant_file, capsys):
        out = tmp_path / "out"
        rc = main(["synthesize", "--plant", plant_file, "--delta", "9",
                   "--N", "3", "--out-dir", str(out),
                   "--dump-basis", "--dump-transform"])
        assert rc == 0
        report = capsys.readouterr().out
        assert "N_min                : 2" in report
        assert "sigma / sigma_bar    : 3 / 2" in report
        gains = json.loads((out / "gains.json").read_text())
        assert gains["N"] == 3
        assert len(gains["K"]) == 3 and len(gains["K"][0]) == 9
        assert (out / "report.txt").exists()
        assert (out / "basis.json").exists()
        assert (out / "transform.json").exists()
        # all retained blocks decay at least at the requested rate
        for line in report.splitlines():
            if "block abscissa" in line:
                assert float(line.split(":")[1]) <= -9.0

    def test_minimal_N_chosen(self, tmp_path, plant_file, capsys):
        out = tmp_path / "out"
        rc = main(["synthesize", "--plant", plant_file, "--delta", "9",
                   "--out-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "gains.json").read_text())["N"] == 2

    def test_byte_identical_reruns(self, tmp_path, plant_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["synthesize", "--plant", plant_file, "--delta", "9",
                       "--N", "3", "--out-dir", str(out)])
            assert rc == 0
        assert (out1 / "gains.json").read_bytes() == (out2 / "gains.json").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_controllability_violation_exit_code(self, tmp_path, capsys):
        obj = example_plant_dict()
        obj["Q"][1][0] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9"])
        assert rc == 1
        assert "subdiagonal" in capsys.readouterr().err

    def test_hypothesis_violation_exit_code(self, tmp_path, capsys):
        obj = example_plant_dict()
        obj["shapes"] = [obj["shapes"][0], obj["shapes"][0]]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9", "--N", "2"])
        assert rc == 2

    def test_rounding_level_certificate_exit_code(self, tmp_path, capsys):
        # m = 10 cascade whose Lyapunov matrix P has margins at its rounding
        # level: an internal error, and no gains file.
        path = tmp_path / "m10.json"
        save_plant(random_plant(np.random.default_rng(0), m=10), str(path))
        rc = main(["synthesize", "--plant", str(path), "--delta", "2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "rounding level" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("N", [None, 20])
    def test_json_files_match_json_dump(self, tmp_path, plant_file, N):
        # The demo plant and a wide-actuation style plant with N = 20
        # indicator shapes on L = 0.1 N + 0.5.
        args = ["--plant", plant_file, "--N", "3"]
        if N is not None:
            obj = example_plant_dict()
            obj["L"] = 0.1 * N + 0.5
            obj["shapes"] = [{"kind": "indicator", "params": [0.1 * j, 0.1 * j + 0.1]}
                             for j in range(1, N + 1)]
            (tmp_path / "wide.json").write_text(json.dumps(obj))
            args = ["--plant", str(tmp_path / "wide.json"), "--N", str(N),
                    "--M-modes", "40", "--pole-offsets", "4,6,9"]
        out = tmp_path / "out"
        rc = main(["synthesize", *args, "--delta", "9", "--dump-basis",
                   "--dump-transform", "--out-dir", str(out)])
        assert rc == 0
        for name in ("gains.json", "basis.json", "transform.json"):
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", name

    def test_missing_plant_file(self, tmp_path):
        rc = main(["synthesize", "--plant", str(tmp_path / "nope.json"),
                   "--delta", "9"])
        assert rc == 1

    def test_pole_offsets_flag(self, tmp_path, plant_file):
        out = tmp_path / "out"
        rc = main(["synthesize", "--plant", plant_file, "--delta", "9",
                   "--N", "3", "--pole-offsets", "4,6,9",
                   "--out-dir", str(out)])
        assert rc == 0
        gains = json.loads((out / "gains.json").read_text())
        K_Q = np.asarray(gains["K_Q"])
        Q = np.asarray(example_plant_dict()["Q"])
        closed = Q + np.outer([1.0, 0.0, 0.0], K_Q)
        expected = sorted([-11.5, -13.5, -16.5])
        np.testing.assert_allclose(sorted(np.linalg.eigvals(closed).real),
                                   expected, rtol=1e-7)

    @pytest.mark.parametrize("field, value", [
        ("gamma2", math.nan),
        ("gamma1", math.inf),
        ("L", math.inf),
        ("D", math.nan),
        ("Q", math.nan),
        ("shapes", math.nan),
        ("delta", math.nan),
        ("delta", math.inf),
    ])
    def test_non_finite_plant_input_exit_code(self, tmp_path, field, value,
                                              capsys):
        obj = example_plant_dict()
        delta = str(value) if field == "delta" else "9"
        if field == "D":
            obj["D"][1] = value
        elif field == "Q":
            obj["Q"][0][2] = value
        elif field == "shapes":
            obj["shapes"][0] = {"kind": "polynomial", "params": [1.0, value]}
        elif field != "delta":
            obj[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", delta,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("offsets", ["1,2,nan", "1,2,inf"])
    def test_non_finite_pole_offsets_exit_code(self, tmp_path, plant_file, capsys,
                                               offsets):
        rc = main(["synthesize", "--plant", plant_file, "--delta", "9",
                   "--pole-offsets", offsets, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "input error: pole offsets must be m distinct positive finite reals\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, item", [("4,x", "x"), ("", ""), ("4,,9", "")])
    def test_bad_pole_offset_item_is_named(self, tmp_path, plant_file, capsys,
                                           value, item):
        with pytest.raises(SystemExit) as exc_info:
            main(["synthesize", "--plant", plant_file, "--delta", "9",
                  "--pole-offsets", value, "--out-dir", str(tmp_path / "out")])
        assert exc_info.value.code == 1
        assert (f"argument --pole-offsets: must be a positive finite number, got {item!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_opposite_sign_robin_exit_code(self, tmp_path, capsys):
        obj = example_plant_dict()
        obj["gamma2"] = -1.0
        path = tmp_path / "robin.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "opposite signs" in capsys.readouterr().err
        assert not (tmp_path / "out" / "gains.json").exists()

    def test_overflowing_eigenvalues_exit_code(self, tmp_path, capsys):
        # At L = 1e-160, lambda_n = s_n**2 overflows: an input problem.
        obj = example_plant_dict()
        L = obj["L"] = 1e-160
        obj["shapes"] = [{"kind": "indicator", "params": [0.1 * j * L, 0.1 * (j + 1) * L]}
                         for j in (1, 2, 3)]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "input error: domain length L=1e-160 is too small for 30 modes: "
            "the eigenvalues lambda_n = s_n**2 overflow\n")
        assert not (tmp_path / "out" / "gains.json").exists()

    def test_domain_needing_too_many_modes_exit_code(self, tmp_path, capsys):
        # At L = 1e200 the residual-mode inequality first holds near mode
        # 3e200: an input problem, named by L, and no gains file.
        obj = example_plant_dict()
        obj["L"] = 1e200
        path = tmp_path / "long.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: domain length L=1e+200 needs more than")
        assert "delta=9.0" in err
        assert not (tmp_path / "out" / "gains.json").exists()

    def test_nearly_equal_diffusions_are_distinct(self, tmp_path, capsys):
        # Diffusions 1e-8 apart are distinct: sigma = 3, and the degree-2
        # transform cancels every mode.
        obj = example_plant_dict()
        obj["D"] = [5.0 + 1e-8, 5.0, 5.0 - 1e-8]
        path = tmp_path / "near.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "sigma / sigma_bar    : 3 / 2" in capsys.readouterr().out
        rc = main(["verify", "--plant", str(path), "--delta", "9"])
        assert rc == 0
        assert "verification PASSED" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_with_gains_file(self, tmp_path, plant_file, initial_file,
                                      capsys):
        out = tmp_path / "out"
        main(["synthesize", "--plant", plant_file, "--delta", "9", "--N", "3",
              "--pole-offsets", "4,6,9", "--out-dir", str(out)])
        capsys.readouterr()
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file,
                   "--gains", str(out / "gains.json"),
                   "--initial", initial_file, "--t-final", "1.0",
                   "--out-dir", str(sim)])
        assert rc == 0
        echoed = capsys.readouterr().out
        assert "fitted decay rate:" in echoed
        fitted = float(echoed.split("fitted decay rate:")[1].split()[0])
        assert fitted >= 8.5
        assert "certificate bound holds at every sample: True" in echoed
        for name in ("modal.csv", "field.csv", "norms.csv"):
            assert (sim / name).exists()
        norms = (sim / "norms.csv").read_text().splitlines()[1:]
        vals = [tuple(map(float, r.split(","))) for r in norms]
        assert all(v[1] <= v[2] * (1 + 1e-9) for v in vals)

    def test_open_loop_growth(self, tmp_path, plant_file, initial_file, capsys):
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", initial_file, "--t-final", "1.0",
                   "--open-loop", "--out-dir", str(sim)])
        assert rc == 0
        capsys.readouterr()
        norms = (sim / "norms.csv").read_text().splitlines()[1:]
        first = float(norms[0].split(",")[1])
        last = float(norms[-1].split(",")[1])
        assert last > first

    def test_zero_initial_data(self, tmp_path, plant_file, capsys):
        profiles = [{"kind": "polynomial", "params": [0.0]} for _ in range(3)]
        init = tmp_path / "zero.json"
        init.write_text(json.dumps(profiles))
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", str(init),
                   "--t-final", "0.2", "--out-dir", str(sim)])
        assert rc == 0
        capsys.readouterr()
        rows = (sim / "modal.csv").read_text().splitlines()[1:]
        for row in rows:
            assert all(float(v) == 0.0 for v in row.split(",")[1:])

    def test_requires_gains_or_delta(self, plant_file, initial_file, tmp_path,
                                     capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--plant", plant_file, "--initial", initial_file,
                  "--out-dir", str(tmp_path)])
        assert exc_info.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: one of the arguments --gains --delta is required\n")

    def test_gains_and_delta_together_are_a_usage_error(self, plant_file, initial_file,
                                                        demo_gains, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--plant", plant_file, "--gains", demo_gains,
                  "--delta", "9", "--initial", initial_file])
        assert exc_info.value.code == 1
        assert "argument --delta: not allowed with argument --gains" in capsys.readouterr().err

    def test_N_must_match_the_gains_file(self, tmp_path, plant_file, initial_file,
                                         demo_gains, capsys):
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--gains", demo_gains, "--N", "4",
                   "--initial", initial_file, "--out-dir", str(sim)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "input error: --N 4 differs from the gains file's N=3\n")
        assert not sim.exists()
        # The file's own N is accepted, as the benchmark passes it.
        rc = main(["simulate", "--plant", plant_file, "--gains", demo_gains, "--N", "3",
                   "--initial", initial_file, "--t-final", "0.2", "--out-dir", str(sim)])
        assert rc == 0

    def test_open_loop_skips_certificate_line(self, tmp_path, plant_file,
                                              initial_file, capsys):
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", initial_file, "--t-final", "0.3",
                   "--open-loop", "--out-dir", str(sim)])
        assert rc == 0
        assert "certificate bound" not in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [["--dt-out", "1"], ["--dt-out", "2"],
                                       ["--dt-out", "1", "--open-loop"]])
    def test_coarse_grid_is_an_input_error(self, tmp_path, plant_file, initial_file,
                                           capsys, extra):
        """Fewer than two samples in the fit window used to print decay inf."""
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", initial_file, "--t-final", "1", *extra,
                   "--out-dir", str(sim)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--t-final" in captured.err and "--dt-out" in captured.err
        assert "inf" not in captured.out
        assert not sim.exists()

    def test_grid_ends_at_or_before_t_final(self, tmp_path, plant_file, initial_file,
                                            capsys):
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", initial_file, "--t-final", "1", "--dt-out", "0.3",
                   "--out-dir", str(sim)])
        assert rc == 0
        capsys.readouterr()
        rows = (sim / "norms.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert len(times) == 4 and times[-1] <= 1.0

    @pytest.mark.parametrize("command, option, value", [
        ("simulate", "--t-final", "nan"), ("simulate", "--t-final", "inf"),
        ("simulate", "--dt-out", "nan"), ("simulate", "--dt-out", "0"),
        ("verify", "--t-final", "nan"), ("verify", "--t-final", "-1")])
    def test_bad_time_option_is_named(self, plant_file, initial_file, tmp_path,
                                      capsys, command, option, value):
        argv = [command, "--plant", plant_file, "--delta", "9", "--N", "3",
                option, value, "--out-dir", str(tmp_path)]
        if command == "simulate":
            argv += ["--initial", initial_file]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert f"argument {option}: must be a positive finite number" in capsys.readouterr().err

    def test_malformed_gains_file(self, tmp_path, plant_file, initial_file):
        bad = tmp_path / "gains.json"
        bad.write_text("{\"delta\": 9.0}")
        rc = main(["simulate", "--plant", plant_file, "--gains", str(bad),
                   "--initial", initial_file, "--out-dir", str(tmp_path)])
        assert rc == 1

    @pytest.fixture()
    def demo_gains(self, tmp_path, plant_file, capsys):
        out = tmp_path / "syn"
        assert main(["synthesize", "--plant", plant_file, "--delta", "9", "--N", "3",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        return str(out / "gains.json")

    @pytest.mark.parametrize("edit, message", [
        (dict(shapes=example_plant_dict()["shapes"][:2]),
         "gains file is for m=3 and N=3, but the plant has m=3 and 2 shape functions"),
        (dict(m=2, D=[4.0, 5.0], Q=[[10.0, 4.0], [1.0, 10.0]]),
         "gains file is for m=3 and N=3, but the plant has m=2 and 3 shape functions")])
    def test_gains_that_do_not_fit_the_plant(self, tmp_path, demo_gains, capsys,
                                             edit, message):
        plant = tmp_path / "other.json"
        plant.write_text(json.dumps({**example_plant_dict(), **edit}))
        init = tmp_path / "init.json"
        m = edit.get("m", 3)
        init.write_text(json.dumps([{"kind": "polynomial", "params": [1.0]}] * m))
        rc = main(["simulate", "--plant", str(plant), "--gains", demo_gains,
                   "--initial", str(init), "--out-dir", str(tmp_path / "sim")])
        assert rc == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("key, value, shape", [
        ("K_Q", [[1.0, 2.0, 3.0]], "(1, 3), expected (1,)"),
        ("Kbar", list(range(9)), "(9,), expected (3, 3)"),
        ("Bmat", [[1.0, 0.0], [0.0, 1.0]], "(2, 2), expected (3, 3)"),
        ("K", [[0.0] * 3] * 9, "(9, 3), expected (3, 9)")])
    def test_gains_of_the_wrong_shape(self, tmp_path, plant_file, initial_file,
                                      demo_gains, capsys, key, value, shape):
        with open(demo_gains) as fh:
            gains = json.load(fh)
        gains[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(gains))
        rc = main(["simulate", "--plant", plant_file, "--gains", str(bad),
                   "--initial", initial_file, "--out-dir", str(tmp_path / "sim")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: malformed gains file: {key} has shape {shape}")

    def test_gains_that_miss_the_factorization_bound(self, tmp_path, plant_file,
                                                     initial_file, demo_gains, capsys):
        """The retained modes take Kbar and the tail modes K, so the two must
        agree: one K entry scaled by 1.5 is refused before any CSV is written."""
        with open(demo_gains) as fh:
            gains = json.load(fh)
        gains["K"][0][0] *= 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(gains))
        rc = main(["simulate", "--plant", plant_file, "--gains", str(bad),
                   "--initial", initial_file, "--out-dir", str(tmp_path / "sim")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: gains file's K does not factor its Kbar: "
                              "residual ")
        assert err.endswith(" exceeds the bound 1e-09\n")
        with pytest.raises(PlantInputError, match="residual"):
            cli.load_gains(str(bad))
        assert not (tmp_path / "sim").exists()

    def test_gains_reader_gives_json_values(self, demo_gains):
        """orjson's parse gives the values json's does, floats bit for bit."""
        read = synthesis.gains_to_dict(*cli.load_gains(demo_gains))
        with open(demo_gains) as fh:
            assert json.dumps(read) == json.dumps(json.load(fh))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_certificate_constant_is_parsed(self, tmp_path, plant_file,
                                                        initial_file, demo_gains,
                                                        capsys, value):
        """write_json writes a non-finite M as Infinity or NaN, which orjson
        refuses; the reader parses it as json does, and simulate runs."""
        with open(demo_gains) as fh:
            gains = json.load(fh)
        gains["certificate"]["M"] = value
        path = tmp_path / "nonfinite.json"
        write_json(str(path), gains)
        assert ("Infinity" if value == math.inf else "NaN") in path.read_text()
        _, cert = cli.load_gains(str(path))
        assert repr(cert.M) == repr(value)
        rc = main(["simulate", "--plant", plant_file, "--gains", str(path),
                   "--initial", initial_file, "--t-final", "0.2",
                   "--out-dir", str(tmp_path / "sim")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("fitted decay rate: ")
        bound = (tmp_path / "sim" / "norms.csv").read_text().splitlines()[1].split(",")[2]
        assert bound == repr(value)

    def test_allocation_failure_is_an_input_error(self, tmp_path, plant_file,
                                                   initial_file, demo_gains, capsys):
        """A grid of 1e15 + 1 samples asks for more than any address space."""
        rc = main(["simulate", "--plant", plant_file, "--gains", demo_gains,
                   "--initial", initial_file, "--dt-out", "1e-15",
                   "--out-dir", str(tmp_path / "sim")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: out of memory for --M-modes 30, "
                              "--t-final 1.0, --dt-out 1e-15: ")
        assert "(1000000000000001, 30, 3)" in err

    def test_malformed_initial_file(self, tmp_path, plant_file):
        bad = tmp_path / "initial.json"
        bad.write_text("[{\"kind\": \"cosine\"}]")
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_truncation_below_N_rejected(self, tmp_path, plant_file, initial_file):
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--M-modes", "2", "--initial", initial_file,
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_non_finite_initial_profile_exit_code(self, tmp_path, plant_file,
                                                  capsys):
        init = tmp_path / "nan.json"
        init.write_text(json.dumps([{"kind": "cosine", "params": [math.nan, 1, 0]},
                                    {"kind": "cosine", "params": [1, 1, 0]},
                                    {"kind": "cosine", "params": [1, 1, 0]}]))
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", str(init), "--t-final", "0.2",
                   "--out-dir", str(tmp_path / "sim")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err


class TestManyRetainedModes:
    """N above --M-modes and the 8-mode default basis: the report and verify
    read lambda_1..lambda_N past the basis built for the truncation."""

    @pytest.fixture()
    def wide_plant(self, tmp_path):
        # Ten indicators side by side over [0, 3]: cond(Bmat) = 1.4.  Ten of
        # width 0.1 on [0.1, 1.1] give cond(Bmat) = 1.5e10, gains that miss
        # the factorization bound, and a refusal.
        obj = example_plant_dict()
        obj["shapes"] = [{"kind": "indicator", "params": [3 * (j - 1) / 10, 3 * j / 10]}
                         for j in range(1, 11)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_synthesize_reports_every_block(self, tmp_path, wide_plant, capsys):
        out = tmp_path / "syn"
        rc = main(["synthesize", "--plant", wide_plant, "--delta", "9", "--N", "10",
                   "--M-modes", "5", "--dump-transform", "--out-dir", str(out)])
        assert rc == 0
        report = capsys.readouterr().out
        assert report.count("block abscissa") == 10
        assert len(json.loads((out / "transform.json").read_text())["modes"]) == 10

    def test_verify_rejects_truncation_below_N(self, wide_plant, capsys):
        rc = main(["verify", "--plant", wide_plant, "--delta", "9", "--N", "10",
                   "--M-modes", "5"])
        assert rc == 1
        assert "must exceed N=10" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["synthesize", "--delta", "9"])
        assert exc_info.value.code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        ("verify", ["--out-dir", "out"]), ("bench", ["--N", "3"]),
        ("bench", ["--M-modes", "30"])])
    def test_option_the_command_does_not_read(self, plant_file, capsys, tmp_path,
                                              monkeypatch, command, option):
        monkeypatch.chdir(tmp_path)  # an accepted bench run writes bench.csv here
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--plant", plant_file, "--delta", "9", *option])
        assert exc_info.value.code == 1
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, value", [
        ("synthesize", "--M-modes", "-5"), ("synthesize", "--M-modes", "0"),
        ("verify", "--M-modes", "x"), ("simulate", "--M-modes", "-100"),
        ("simulate", "--grid-points", "-2"), ("bench", "--repeats", "0")])
    def test_bad_count_option_is_named(self, plant_file, initial_file, capsys,
                                       command, option, value):
        argv = [command, "--plant", plant_file, "--delta", "9", option, value]
        if command == "simulate":
            argv += ["--initial", initial_file]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert (f"argument {option}: must be a positive integer, got {value!r}"
                in capsys.readouterr().err)


class TestParserReuse:
    """main() builds its parser once; each call still behaves as on a fresh one."""

    @staticmethod
    def _run(argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_calls_in_a_row_match_fresh_parser(self, tmp_path, plant_file,
                                               initial_file, capsys):
        out = str(tmp_path / "out")
        calls = [
            ["synthesize", "--plant", plant_file, "--delta", "9", "--N", "3",
             "--out-dir", out],
            ["synthesize", "--delta", "9"],        # usage error: no --plant
            ["verify", "--plant", plant_file, "--N", "3"],   # no --delta
            ["simulate", "--plant", plant_file, "--gains", out + "/gains.json",
             "--initial", initial_file, "--t-final", "0.2", "--out-dir", out],
            ["verify", "--plant", plant_file, "--delta", "9", "--N", "3"],
        ]
        reused = [self._run(argv, capsys) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [0, "exit 1", "exit 1", 0, 0]
        assert reused[1][2].startswith("usage: cascade-stab synthesize")
        assert reused[2][2].startswith("usage: cascade-stab verify")
        assert reused[2][2].endswith("error: the following arguments are required: "
                                     "--delta\n")

    def test_handler_looked_up_per_call(self, plant_file, monkeypatch):
        main(["verify", "--plant", plant_file, "--N", "3", "--delta", "9"])
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert main(["verify", "--plant", plant_file, "--delta", "9"]) == 7
        assert cli._parser() is cli._parser()


class TestVerify:
    def test_demo_passes(self, plant_file, capsys):
        rc = main(["verify", "--plant", plant_file, "--delta", "9", "--N", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert "FAIL" not in out

    def test_corruption_detected(self, plant_file, capsys, monkeypatch):
        pipeline = cli._synthesize_pipeline

        def corrupted(plant, *args):
            basis, family, controller, cert = pipeline(plant, *args)
            return basis, corrupt_family(plant, family), controller, cert

        monkeypatch.setattr(cli, "_synthesize_pipeline", corrupted)
        rc = main(["verify", "--plant", plant_file, "--delta", "9", "--N", "3"])
        out = capsys.readouterr().out
        failed = [line.rsplit(None, 2)[0] for line in out.splitlines()
                  if line.endswith("FAIL")]
        assert failed == ["sylvester residual i=1",
                          "mode cancellation n=1", "gain route equality n=1",
                          "mode cancellation n=2", "gain route equality n=2",
                          "mode cancellation n=3", "gain route equality n=3",
                          "target-coordinate residual"]
        assert rc == 4
        # Byte for byte what the removed --inject-corrupt-transform printed.
        assert hashlib.md5(out.encode()).hexdigest() == "d52b61e0a4b49df90210e4de2b2936fd"

    def test_corruption_flag_is_gone(self, plant_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--plant", plant_file, "--delta", "9", "--N", "3",
                  "--inject-corrupt-transform"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --inject-corrupt-transform\n")

    def test_stable_plant_retains_no_modes(self, tmp_path, capsys):
        obj = example_plant_dict()
        obj["Q"] = [[-1.0, 0.5, 0.0], [1.0, -1.0, 0.5], [0.0, 1.0, -1.0]]
        path = tmp_path / "stable.json"
        path.write_text(json.dumps(obj))
        rc = main(["verify", "--plant", str(path), "--delta", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gain factorization" not in out  # N = 0: no gains to check
        assert "target-coordinate residual   0.000e+00  PASS" in out
        assert "verification PASSED" in out

    def test_sigma_one_plant_passes(self, tmp_path, capsys):
        obj = example_plant_dict()
        obj["D"] = [5.0, 5.0, 5.0]
        path = tmp_path / "equal.json"
        path.write_text(json.dumps(obj))
        rc = main(["verify", "--plant", str(path), "--delta", "9", "--N", "3"])
        assert rc == 0
        assert "verification PASSED" in capsys.readouterr().out


class TestBench:
    def test_small_bench(self, tmp_path, plant_file, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--plant", plant_file, "--delta", "9",
                   "--N-list", "2,3", "--repeats", "2", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "N,t_modal,t_direct,ratio"
        assert len(lines) == 3
        for line in lines[1:]:
            parts = line.split(",")
            assert int(parts[0]) in (2, 3)
            assert float(parts[1]) > 0.0
            assert float(parts[2]) > 0.0


    def test_default_N_list_synthesizes_on_the_demo_plant(self, demo_plant):
        """bench's own shapes on the demo plant at delta = 9 give gains that
        synthesize keeps at every N of the default list, so bench times no
        refused call by default."""
        args = cli.build_parser().parse_args(["bench", "--plant", "plant.json",
                                              "--delta", "9"])
        basis = spectral.build_basis(demo_plant.L, demo_plant.gamma1, demo_plant.gamma2,
                                     max(args.N_list) + 1)
        family = transform.solve_transform_family(demo_plant)
        for N in args.N_list:
            plant = dataclasses.replace(demo_plant, shapes=cli._bench_shapes(demo_plant.L, N))
            controller = synthesis.build_controller(plant, args.delta, N=N, basis=basis,
                                                    family=family)
            assert synthesis.factorization_residual(controller) <= synthesis.FACTORIZATION_TOL

    @pytest.mark.parametrize("value, item", [("2,x", "x"), ("", ""), ("3,0", "0"),
                                             ("2,,3", "")])
    def test_bad_N_list_item_is_named(self, plant_file, capsys, value, item):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--plant", plant_file, "--delta", "9", "--N-list", value])
        assert exc_info.value.code == 1
        assert (f"argument --N-list: must be a positive integer, got {item!r}"
                in capsys.readouterr().err)


class TestRobinBoundary:
    def test_high_modes_pass_boundary_check(self, tmp_path, capsys):
        obj = example_plant_dict()
        obj["gamma2"] = 1.0
        path = tmp_path / "robin.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9",
                   "--M-modes", "500", "--out-dir", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err


class TestStrayLinAlgError:
    def test_reported_as_internal_error(self, plant_file, capsys, monkeypatch):
        from cascade_stab import synthesis

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(synthesis, "build_controller", singular)
        rc = main(["synthesize", "--plant", plant_file, "--delta", "9"])
        assert rc == 3
        assert capsys.readouterr().err == "internal error: Singular matrix\n"


class TestCsvHelperProcess:
    """simulate shares CSV formatting with one forked helper by block
    claims; the helper is always reaped."""

    @staticmethod
    def _simulate(tmp_path, plant_file, initial_file):
        return main(["simulate", "--plant", plant_file, "--delta", "9",
                     "--initial", initial_file, "--t-final", "0.2",
                     "--out-dir", str(tmp_path / "out")])

    def test_leaves_no_child_process(self, tmp_path, plant_file, initial_file,
                                     monkeypatch, capsys):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        assert self._simulate(tmp_path, plant_file, initial_file) == 0
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_helper_is_an_internal_error(self, tmp_path, plant_file,
                                                initial_file, monkeypatch, capsys):
        """The helper exits at its first block, the last of modal.csv, which
        the parent waits for: no CSV is written."""
        wrapped = helper_formats_first(monkeypatch, str(tmp_path / "helper-started"),
                                       lambda: os._exit(7))
        assert self._simulate(tmp_path, plant_file, initial_file) == 3
        assert wrapped and (tmp_path / "helper-started").exists()
        err = capsys.readouterr().err
        assert err.startswith("internal error: the CSV helper process exited with status 7 "
                              "with 1 claimed block(s) of modal.csv unwritten")
        assert os.listdir(tmp_path / "out") == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_exited_before_the_signal(self, tmp_path, plant_file, initial_file,
                                             monkeypatch, capsys):
        """The helper exits at its first block, and the fill waits until it
        has: the byte that lets it on to field.csv meets a closed pipe, and
        the command still reports the helper's status, exit 3."""
        from cascade_stab import simulator

        wrapped = helper_formats_first(monkeypatch, str(tmp_path / "helper-started"),
                                       lambda: os._exit(7))
        real_expand, fills = simulator.expand, []

        def expand(*args, **kwargs):
            fills.append(os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT).si_status)
            return real_expand(*args, **kwargs)

        monkeypatch.setattr(simulator, "expand", expand)
        assert self._simulate(tmp_path, plant_file, initial_file) == 3
        assert fills == [7] and wrapped
        err = capsys.readouterr().err
        assert err.startswith("internal error: the CSV helper process exited with status 7 "
                              "with 1 claimed block(s) of modal.csv unwritten")
        assert os.listdir(tmp_path / "out") == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFieldFillOverlap:
    """simulate forks the CSV helper before it expands the field, and lets
    the helper on to field.csv with one byte once the field is filled.
    Small M and many grid points give modal.csv one block and field.csv
    51; the fill waits until the helper has formatted modal.csv and is
    waiting for the byte, so that the helper reaches field.csv first."""

    NAMES = ("modal.csv", "field.csv", "norms.csv")

    @staticmethod
    def _simulate(out, plant_file, initial_file):
        return main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                     "--M-modes", "4", "--grid-points", "200", "--initial", initial_file,
                     "--t-final", "0.2", "--out-dir", str(out)])

    @staticmethod
    def _late_fill(monkeypatch, marker, then=None):
        """The helper creates `marker` as it starts waiting for the byte; the
        fill waits for `marker` (at most 30 s), calls then() if given, and
        expands.  Returns the list of the fill's calls."""
        from cascade_stab import simulator

        parent, calls = os.getpid(), []
        real_read, real_expand = os.read, simulator.expand

        def read(fd, n):
            if os.getpid() != parent and n == 1:
                open(marker, "a").close()
            return real_read(fd, n)

        def expand(*args, **kwargs):
            calls.append(os.getpid())
            deadline = time.monotonic() + 30.0
            while not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.001)
            if then is not None:
                then()
            return real_expand(*args, **kwargs)

        monkeypatch.setattr(os, "read", read)
        monkeypatch.setattr(simulator, "expand", expand)
        return calls

    @staticmethod
    def _reaped(monkeypatch):
        """The exit statuses of the children the parent reaps."""
        statuses, real_waitpid = [], os.waitpid

        def waitpid(pid, options):
            done = real_waitpid(pid, options)
            statuses.append(done[1])
            return done

        monkeypatch.setattr(os, "waitpid", waitpid)
        return statuses

    def _single_process(self, tmp_path, plant_file, initial_file, monkeypatch):
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert self._simulate(tmp_path / "alone", plant_file, initial_file) == 0
        return {name: (tmp_path / "alone" / name).read_bytes() for name in self.NAMES}

    def test_helper_reaches_field_first(self, tmp_path, plant_file, initial_file,
                                        monkeypatch, capsys):
        from cascade_stab import simulator

        alone = self._single_process(tmp_path, plant_file, initial_file, monkeypatch)
        log = tmp_path / "blocks"
        real_lines = simulator.CsvTable.lines

        def lines(table, k):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {os.path.basename(table.path)} {k}\n")
            return real_lines(table, k)

        monkeypatch.setattr(simulator.CsvTable, "lines", lines)
        marker = tmp_path / "helper-waits"
        fills = self._late_fill(monkeypatch, str(marker))
        statuses = self._reaped(monkeypatch)
        out = tmp_path / "out"
        assert self._simulate(out, plant_file, initial_file) == 0
        assert fills == [os.getpid()] and marker.exists() and statuses == [0]
        for name in self.NAMES:
            assert (out / name).read_bytes() == alone[name]
        blocks = [line.split() for line in log.read_text().splitlines()]
        helper = {(name, int(k)) for pid, name, k in blocks if int(pid) != os.getpid()}
        assert ("modal.csv", 0) in helper  # formatted before the byte
        assert {name for name, _ in helper} >= {"modal.csv", "field.csv"}
        assert sorted(os.listdir(out)) == sorted(self.NAMES)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fill_kills_the_waiting_helper(self, tmp_path, plant_file,
                                                  initial_file, monkeypatch, capsys):
        import signal

        out = tmp_path / "out"
        out.mkdir()
        for name in self.NAMES:
            (out / name).write_text(f"old {name}\n")
        marker = tmp_path / "helper-waits"

        def fail():
            raise RuntimeError("the fill failed")

        fills = self._late_fill(monkeypatch, str(marker), fail)
        statuses = self._reaped(monkeypatch)
        with pytest.raises(RuntimeError, match="the fill failed"):
            self._simulate(out, plant_file, initial_file)
        assert fills and marker.exists()
        assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
        assert os.WTERMSIG(statuses[0]) == signal.SIGKILL
        assert sorted(os.listdir(out)) == sorted(self.NAMES)  # no *.tmp.* file
        for name in self.NAMES:
            assert (out / name).read_text() == f"old {name}\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("missing", ["fork", "memfd_create"])
    def test_without_a_helper_the_same_bytes(self, tmp_path, plant_file, initial_file,
                                             monkeypatch, capsys, missing):
        assert self._simulate(tmp_path / "shared", plant_file, initial_file) == 0
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.delattr(os, missing)
        assert self._simulate(tmp_path / "alone", plant_file, initial_file) == 0
        assert forks == []
        for name in self.NAMES:
            assert ((tmp_path / "alone" / name).read_bytes()
                    == (tmp_path / "shared" / name).read_bytes())


class TestUnwritableOutput:
    """An --out-dir beneath a regular file is an input error, exit 1."""

    def test_synthesize(self, tmp_path, plant_file, capsys):
        (tmp_path / "file").write_text("")
        rc = main(["synthesize", "--plant", plant_file, "--delta", "9",
                   "--out-dir", str(tmp_path / "file" / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_simulate(self, tmp_path, plant_file, initial_file, capsys):
        (tmp_path / "file").write_text("")
        rc = main(["simulate", "--plant", plant_file, "--delta", "9",
                   "--initial", initial_file, "--t-final", "0.2",
                   "--out-dir", str(tmp_path / "file" / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("input error:")


class TestRepeatedRuns:
    """A second synthesize and simulate into the same --out-dir replaces every
    file in place: the bytes equal a fresh directory's, and no temp file is
    left, whether or not the exchange of existing files is available."""

    @staticmethod
    def _pipeline(out, plant_file, initial_file):
        assert main(["synthesize", "--plant", plant_file, "--delta", "9", "--N", "3",
                     "--out-dir", str(out)]) == 0
        assert main(["simulate", "--plant", plant_file, "--gains", str(out / "gains.json"),
                     "--initial", initial_file, "--t-final", "0.2",
                     "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize("exchange", ["libc", "einval", "missing"])
    def test_second_run_matches_fresh_directory(self, tmp_path, plant_file,
                                                initial_file, monkeypatch, capsys,
                                                exchange):
        fresh = self._pipeline(tmp_path / "fresh", plant_file, initial_file)
        if exchange == "einval":
            monkeypatch.setattr(model, "_RENAMEAT2", failing_exchange(errno.EINVAL))
        elif exchange == "missing":
            monkeypatch.setattr(model, "_RENAMEAT2", None)
        out = tmp_path / "again"
        first = self._pipeline(out, plant_file, initial_file)
        second = self._pipeline(out, plant_file, initial_file)
        assert sorted(fresh) == ["field.csv", "gains.json", "modal.csv", "norms.csv",
                                 "report.txt"]
        assert first == second == fresh


class TestFactorizationRefusal:
    """On the benchmark's wide actuator family (N indicators of width 0.1,
    L = 0.1 N + 0.5), gains that miss verify's factorization bound are
    refused by name; cond(Bmat) is 4.4e8 at N = 100 and 1.4e9 at N = 120."""

    @staticmethod
    def _plant(tmp_path, N):
        obj = example_plant_dict()
        obj["L"] = 0.1 * N + 0.5
        obj["shapes"] = [{"kind": "indicator", "params": [0.1 * j, 0.1 * j + 0.1]}
                         for j in range(1, N + 1)]
        path = tmp_path / f"wide{N}.json"
        path.write_text(json.dumps(obj))
        return ["--plant", str(path), "--delta", "9", "--N", str(N),
                "--M-modes", str(2 * N)]

    def test_N100_verifies(self, tmp_path, capsys):
        args = self._plant(tmp_path, 100)
        assert main(["synthesize", *args, "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["verify", *args]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out and "gain factorization" in out

    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_N120_is_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        extra = ["--out-dir", str(out)] if command == "synthesize" else []
        assert main([command, *self._plant(tmp_path, 120), *extra]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: N=120: gain factorization "
                                       "residual ")
        assert "exceeds the bound 1e-09" in captured.err
        assert captured.out == ""
        assert not out.exists()


def _run_fresh(code: str, *args: str) -> str:
    """Run `code` in a fresh interpreter that imports this package; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cascade_stab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout


class TestColdImport:
    """Importing the CLI loads none of the modules that only some paths use."""

    DEFERRED = ("statistics", "numpy.polynomial", "scipy", "fcntl", "mmap", "signal")

    def test_import_defers_path_only_modules(self):
        out = _run_fresh(f"""
            import sys
            import cascade_stab.cli
            print(sorted(m for m in {self.DEFERRED!r} if m in sys.modules))
        """)
        assert out.splitlines()[-1] == "[]"


class TestNoScipyOnCommandPath:
    """synthesize, simulate and verify never load scipy; only bench does."""

    def test_pipeline_loads_no_scipy(self, tmp_path, plant_file, initial_file):
        out = _run_fresh("""
            import contextlib, io, sys
            import cascade_stab.cli
            plant, initial, out = sys.argv[1:]
            common = ["--plant", plant, "--N", "3"]
            runs = (["synthesize", *common, "--delta", "9", "--out-dir", out],
                    ["simulate", *common, "--gains", out + "/gains.json",
                     "--initial", initial, "--out-dir", out],
                    ["verify", *common, "--delta", "9"])
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cascade_stab.cli.main(argv) == 0, argv
            print(sorted(k for k in sys.modules
                         if k == "scipy" or k.startswith("scipy.")))
        """, plant_file, initial_file, str(tmp_path / "out"))
        assert out.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "modal.csv").exists()

    def test_bench_without_scipy_names_the_extra(self, tmp_path, plant_file):
        out = _run_fresh("""
            import contextlib, io, sys
            sys.modules["scipy"] = None  # import scipy raises ModuleNotFoundError
            from cascade_stab import cli
            argv = ["bench", "--plant", sys.argv[1], "--delta", "9",
                    "--N-list", "2", "--repeats", "1", "--out-dir", sys.argv[2]]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                print(cli.main(argv))
            print(repr(err.getvalue()))
        """, plant_file, str(tmp_path / "bench"))
        rc, err = out.splitlines()[-2:]
        assert rc == "1"
        assert "the 'bench' extra" in err and "cascade-stab[bench]" in err
        assert not (tmp_path / "bench" / "bench.csv").exists()

    def test_bench_imports_scipy_outside_its_timing(self, tmp_path, plant_file):
        out = _run_fresh("""
            import contextlib, io, sys, time
            from cascade_stab import cli, model, spectral, synthesis
            plant = model.validate_plant(model.load_plant(sys.argv[1]))
            basis = spectral.build_basis(plant.L, plant.gamma1, plant.gamma2, 4)
            assert "scipy" not in sys.modules
            start = time.perf_counter()
            _, timed = synthesis.direct_baseline(plant, basis, 9.0, 2)
            print(timed, time.perf_counter() - start, "scipy.linalg" in sys.modules)
            argv = ["bench", "--plant", sys.argv[1], "--delta", "9",
                    "--N-list", "2,3", "--repeats", "1", "--out-dir", sys.argv[2]]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            print(rc)
        """, plant_file, str(tmp_path / "bench"))
        first, rc = out.splitlines()[-2:]
        timed, whole, loaded = first.split()
        assert loaded == "True" and rc == "0"
        # The first call pays the scipy import (hundreds of ms); the time it
        # reports is the Riccati solve alone.
        assert float(timed) < 0.5 * float(whole)
        assert len((tmp_path / "bench" / "bench.csv").read_text().splitlines()) == 3
