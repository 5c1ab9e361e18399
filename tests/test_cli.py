import json
import math

import numpy as np
import pytest

from cascade_stab.cli import main
from cascade_stab.model import example_plant_dict


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
    ])
    def test_non_finite_plant_input_exit_code(self, tmp_path, field, value,
                                              capsys):
        obj = example_plant_dict()
        if field == "D":
            obj["D"][1] = value
        elif field == "Q":
            obj["Q"][0][2] = value
        elif field == "shapes":
            obj["shapes"][0] = {"kind": "polynomial", "params": [1.0, value]}
        else:
            obj[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(obj))
        rc = main(["synthesize", "--plant", str(path), "--delta", "9",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

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

    def test_requires_gains_or_delta(self, plant_file, initial_file, tmp_path):
        rc = main(["simulate", "--plant", plant_file, "--initial", initial_file,
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_open_loop_skips_certificate_line(self, tmp_path, plant_file,
                                              initial_file, capsys):
        sim = tmp_path / "sim"
        rc = main(["simulate", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--initial", initial_file, "--t-final", "0.3",
                   "--open-loop", "--out-dir", str(sim)])
        assert rc == 0
        assert "certificate bound" not in capsys.readouterr().out

    def test_malformed_gains_file(self, tmp_path, plant_file, initial_file):
        bad = tmp_path / "gains.json"
        bad.write_text("{\"delta\": 9.0}")
        rc = main(["simulate", "--plant", plant_file, "--gains", str(bad),
                   "--initial", initial_file, "--out-dir", str(tmp_path)])
        assert rc == 1

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


class TestUsageErrors:
    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["synthesize", "--delta", "9"])
        assert exc_info.value.code == 1
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_demo_passes(self, plant_file, capsys):
        rc = main(["verify", "--plant", plant_file, "--delta", "9", "--N", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert "FAIL" not in out

    def test_corruption_detected(self, plant_file, capsys):
        rc = main(["verify", "--plant", plant_file, "--delta", "9", "--N", "3",
                   "--inject-corrupt-transform"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "FAIL" in out

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
