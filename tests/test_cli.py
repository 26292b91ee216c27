import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from phasespec.cli import main
from phasespec.experiments import benchmark_superposition
from phasespec.observables import observable_from_label, weyl_expectation_gaussian


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestDensitySectionCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "section.csv"
        code = main(["density-section", "--h", "0.1", "--n-points", "50", "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["radius", "wigner", "husimi", "mu"]
        assert len(rows) == 50
        assert "config_json" in meta
        assert float(rows[0][1]) == pytest.approx(1 / (np.pi * 0.1), rel=1e-15)

    def test_oversized_section_exits_3_before_allocating(self, capsys):
        # 10^13 points would need 80 TB per column; the guard refuses first
        tracemalloc.start()
        try:
            code = main(["density-section", "--n-points", str(10**13)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "resource guard" in capsys.readouterr().err
        assert peak < 10**6

    def test_stdout_output(self, capsys):
        code = main(["density-section", "--n-points", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "radius,wigner,husimi,mu" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-radius", "-1"], "max_radius"),
            (["--max-radius", "0"], "max_radius"),
            (["--max-radius", "inf"], "max_radius"),
            (["--max-radius", "nan"], "max_radius"),
            (["--n-points", "0"], "n_points"),
            (["--n-points", "1"], "n_points"),
            (["--n-points", "-3"], "n_points"),
        ],
    )
    def test_nonsense_section_exits_2(self, flags, message, capsys):
        assert main(["density-section", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestExpectationCommand:
    def test_expectation_run(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        code = main(
            [
                "expectation",
                "--observable",
                "hh-total",
                "--d",
                "2",
                "--n",
                "20000",
                "--sampler",
                "halton",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "estimate:" in printed
        assert "reference:" in printed
        assert "generator:" in printed
        meta, header, rows = read_csv(out)
        assert rows[0][0] == "hh-total"

    def test_superposition_gets_moment_reference(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        argv = ["expectation", "--observable", "hh-total", "--state", "superposition-2d",
                "--h", "0.01", "--n", "20000", "--out", str(out)]
        assert main(argv) == 0
        assert "reference:" in capsys.readouterr().out
        meta, header, rows = read_csv(out)
        A = observable_from_label("hh-total", 2)
        exact = weyl_expectation_gaussian(A, benchmark_superposition(0.01))
        assert float(rows[0][header.index("reference")]) == exact

    def test_unknown_observable_exits_2(self, capsys):
        code = main(["expectation", "--observable", "nope", "--n", "100"])
        assert code == 2
        assert "torsional" in capsys.readouterr().err

    def test_missing_observable_exits_2(self, capsys):
        code = main(["expectation", "--n", "100"])
        assert code == 2

    def test_cross_term_refusal_exits_2_and_threshold_overrides(self, capsys):
        args = [
            "expectation",
            "--observable",
            "torsional",
            "--state",
            "superposition-2d",
            "--h",
            "0.1",
            "--n",
            "5000",
        ]
        assert main(args) == 2
        assert "cross terms non-negligible" in capsys.readouterr().err
        assert main(args + ["--threshold", "1e-3"]) == 0

    def test_resource_guard_exits_3(self, capsys):
        code = main(
            ["expectation", "--observable", "hh-total", "--d", "64", "--n", "1000000000"]
        )
        assert code == 3
        assert "resource guard" in capsys.readouterr().err

    def test_force_overrides_guard_semantics(self, capsys):
        # same projected cost, tiny actual cost: guard math is bypassed
        code = main(
            ["expectation", "--observable", "hh-total", "--d", "2", "--n", "4000", "--force"]
        )
        assert code == 0

    def test_nonfinite_result_exits_4(self, tmp_path, capsys):
        config = {
            "observable_polynomial": [[1e308, [0, 0]], [1e308, [0, 0]]],
            "d": 1,
            "n": 1000,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        with np.errstate(all="ignore"):
            code = main(["expectation", "--config", str(path)])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            # the exact moment of x^400 at h = 1, 399!! / 2^200 ~ 1e373,
            # overflows a float
            {"observable_polynomial": [[1.0, [400, 0]]], "d": 1, "h": 1.0, "n": 1000},
            # the marginal grid's margin is below an ulp of 1e300: the grid
            # collapses to one point and its normalization is 0
            {"observable": "torsional", "d": 2, "n": 1000, "branches": [{"q": [1e300, 0], "p": [0, 0]}]},
        ],
    )
    def test_arithmetic_failure_exits_4(self, config, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        with np.errstate(all="ignore"):
            assert main(["expectation", "--config", str(path)]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_high_moment_reference_is_exact(self, tmp_path, capsys):
        # E[x^400] = 399!! (h/2)^200 ~ 3.1e-27 at h = 0.01 is finite, although
        # the integer 399!! and the power (h/2)^200 both leave the float range
        path = tmp_path / "x400.json"
        path.write_text(json.dumps({"observable_polynomial": [[1.0, [400, 0]]], "d": 1, "n": 1000}))
        with np.errstate(all="ignore"):
            assert main(["expectation", "--config", str(path)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("reference:"))
        exact = Fraction(math.prod(range(1, 400, 2))) * (Fraction(0.01) / 2) ** 200
        assert float(line.split()[1]) == pytest.approx(float(exact), rel=1e-12)

    def test_collapsed_sweep_grid_exits_4(self, capsys):
        # at h = 1e-300 the marginal grid's margin is below an ulp of the
        # centres, so a collapsed axis gives a zero normalization
        argv = ["accuracy-sweep", "--h-list", "1e-300,1e-301", "--points-per-axis", "4",
                "--reference-resolution", "4"]
        with np.errstate(all="ignore"):
            assert main(argv) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = {"observable": "hh-kinetic", "d": 2, "n": 5000, "seed": 3, "sampler": "halton"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "a.csv"
        code = main(
            ["expectation", "--config", str(path), "--n", "2000", "--out", str(out)]
        )
        assert code == 0
        meta, _, rows = read_csv(out)
        emitted = json.loads(meta["config_json"])
        assert emitted["n"] == 2000  # flag wins
        assert emitted["observable"] == "hh-kinetic"  # file value survives
        assert int(rows[0][-1]) == 2000

    def test_config_reproduces_run_bit_exactly(self, tmp_path):
        out1 = tmp_path / "r1.csv"
        code = main(
            [
                "expectation",
                "--observable",
                "quartic-momentum",
                "--d",
                "2",
                "--n",
                "30000",
                "--seed",
                "17",
                "--out",
                str(out1),
            ]
        )
        assert code == 0
        meta1, header1, rows1 = read_csv(out1)
        cfg = json.loads(meta1["config_json"])
        out2 = tmp_path / "r2.csv"
        cfg["out"] = str(out2)
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(cfg))
        assert main(["expectation", "--config", str(path)]) == 0
        meta2, header2, rows2 = read_csv(out2)
        assert header1 == header2
        assert rows1 == rows2  # byte-identical numeric columns

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wat": 1}))
        assert main(["density-section", "--config", str(path)]) == 2

    def test_missing_config_file_exits_2(self):
        assert main(["density-section", "--config", "/no/such/file.json"]) == 2


class TestSweepCommands:
    def test_accuracy_sweep_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "accuracy-sweep",
                "--h-list",
                "0.1,0.01",
                "--points-per-axis",
                "50",
                "--reference-resolution",
                "512",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header[0] == "h"
        assert len(rows) == 8  # 2 h x 2 methods x 2 observables
        assert any(k.startswith("slope_mu_") for k in meta)

    def test_accuracy_sweep_sampling_mode(self, tmp_path):
        out = tmp_path / "sweep_mc.csv"
        code = main(
            [
                "accuracy-sweep",
                "--h-list",
                "0.1,0.05",
                "--sampler",
                "halton",
                "--n",
                "20000",
                "--reference-resolution",
                "512",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert len(rows) == 8
        assert all(int(r[7]) == 20000 for r in rows)

    def test_henon_heiles_small(self, tmp_path):
        out = tmp_path / "hh.csv"
        code = main(
            ["henon-heiles", "--d-list", "2", "--n", "8000", "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header[0] == "d"
        assert len(rows) == 3
        assert "halton" in meta["generator"]

    def test_henon_heiles_guard_exit_3(self):
        assert main(["henon-heiles", "--d-list", "128", "--n", "100000000"]) == 3


class TestInputBoundsCommand:
    def test_halton_index_bound_exits_2(self, capsys):
        code = main(
            ["expectation", "--observable", "hh-total", "--d", "2", "--n", "1000",
             "--sampler", "halton", "--skip", str(2**60)]
        )
        assert code == 2
        assert "Halton index bound" in capsys.readouterr().err

    def test_zero_workers_exits_2(self, capsys):
        code = main(
            ["expectation", "--observable", "hh-total", "--d", "2", "--n", "1000", "--workers", "0"]
        )
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err


class TestGridReferenceGuard:
    """The marginal-grid reference is projected before any work starts."""

    def test_expectation_d3_grid_reference_exits_3(self, capsys):
        code = main(["expectation", "--observable", "torsional", "--d", "3",
                     "--reference-resolution", "1000000000"])
        assert code == 3
        assert "resource guard" in capsys.readouterr().err

    def test_accuracy_sweep_oversized_reference_exits_3(self, capsys):
        code = main(["accuracy-sweep", "--reference-resolution", "1000000000"])
        assert code == 3
        assert "resource guard" in capsys.readouterr().err

    def test_accuracy_sweep_oversized_tensor_grid_exits_3(self, monkeypatch, capsys):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("work started before the guard refused the sweep")

        for name in ("reference_expectation_grid", "tensor_grid_expectation"):
            monkeypatch.setattr(experiments, name, fail)
        code = main(["accuracy-sweep", "--points-per-axis", "20000", "--h-list", "0.1,0.01"])
        assert code == 3
        assert "resource guard" in capsys.readouterr().err


    def test_expectation_d3_grid_reference_runs(self, capsys):
        code = main(["expectation", "--observable", "torsional", "--d", "3", "--n", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        reference = float(next(ln for ln in out.splitlines() if ln.startswith("reference:")).split()[1])
        # origin wavepacket, default h = 0.01: E[cos q_j] = e^{-h/4}
        assert reference == pytest.approx(2.0 - 2.0 * np.exp(-0.01 / 4.0), abs=1e-12)


class TestGridSizeRefusedFirst:
    """Grid sizes under 2 points per axis are refused before any estimate,
    reference or quadrature runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("work started before the grid sizes were checked")

        for name in ("estimate_expectation", "reference_expectation_grid", "tensor_grid_expectation"):
            monkeypatch.setattr(experiments, name, fail)

    @pytest.mark.parametrize(
        "argv",
        [
            ["accuracy-sweep", "--points-per-axis", "1"],
            ["accuracy-sweep", "--points-per-axis", "0"],
            ["accuracy-sweep", "--reference-resolution", "1"],
            ["accuracy-sweep", "--sampler", "mc", "--reference-resolution", "0"],
            ["expectation", "--observable", "torsional", "--d", "2", "--reference-resolution", "0"],
        ],
    )
    def test_exit_2_before_any_work(self, no_work, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unused_reference_resolution_not_checked(self, capsys):
        # hh-total on a single wavepacket has an exact moment reference
        code = main(["expectation", "--observable", "hh-total", "--n", "1000", "--reference-resolution", "0"])
        assert code == 0
        assert "reference:" in capsys.readouterr().out


class TestConfigValueTypes:
    def test_mistyped_values_exit_2(self, tmp_path, capsys):
        for i, cfg in enumerate(({"d": "3"}, {"split": "0.5"}, {"workers": 1.5})):
            path = tmp_path / f"typed{i}.json"
            path.write_text(json.dumps({"observable": "hh-total", "n": 1000, **cfg}))
            assert main(["expectation", "--config", str(path)]) == 2, cfg
            assert "is not of type" in capsys.readouterr().err


class TestConfigEntries:
    def test_malformed_nested_entries_exit_2(self, tmp_path, capsys):
        cases = [
            ("expectation", {"branches": [1], "observable": "torsional"}),
            ("expectation", {"branches": [{"q": [0.0, 0.0]}], "observable": "torsional"}),
            ("expectation", {"observable_polynomial": [1], "d": 1}),
            ("expectation", {"observable_polynomial": [[1.0, [1.5, 0]]], "d": 1}),
            ("henon-heiles", {"d_list": [2.5], "n": 100}),
        ]
        for i, (command, cfg) in enumerate(cases):
            path = tmp_path / f"entries{i}.json"
            path.write_text(json.dumps(cfg))
            assert main([command, "--config", str(path)]) == 2, cfg
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err, cfg

    def test_bad_grids_and_lists_exit_2(self, tmp_path, capsys):
        small = ["--h-list", "0.1", "--points-per-axis", "20", "--reference-resolution", "64"]
        cases = [
            ["accuracy-sweep", *small, "--points-per-axis", "1"],
            ["accuracy-sweep", *small, "--points-per-axis", "0"],
            ["accuracy-sweep", *small, "--reference-resolution", "1"],
            ["expectation", "--observable", "torsional", "--d", "2", "--n", "1000",
             "--reference-resolution", "0"],
            ["henon-heiles", "--d-list", ",", "--n", "100"],
        ]
        for i, cfg in enumerate(({"h_list": [0.1, None]}, {"h_list": [True]}, {"h_list": []})):
            path = tmp_path / f"lists{i}.json"
            path.write_text(json.dumps(cfg))
            cases.append(["accuracy-sweep", "--config", str(path), "--points-per-axis", "20",
                          "--reference-resolution", "64"])
        path = tmp_path / "empty_d.json"
        path.write_text(json.dumps({"d_list": [], "n": 100}))
        cases.append(["henon-heiles", "--config", str(path)])
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err, argv
