import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies

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
        # one wavepacket: the branch mixture, with no pair to damp
        assert meta["importance_weights"] == "False"
        assert meta["max_pair_damping"] == "0.0"
        assert "threshold" not in meta and "threshold" not in json.loads(meta["config_json"])

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
        # branches 7.25 apart in |z_k - z_l|^2: damping e^-90.6, mixture path
        assert meta["importance_weights"] == "False"
        assert float(meta["max_pair_damping"]) == pytest.approx(math.exp(-7.25 / 0.08), rel=1e-12)

    def test_unknown_observable_exits_2(self, capsys):
        code = main(["expectation", "--observable", "nope", "--n", "100"])
        assert code == 2
        assert "torsional" in capsys.readouterr().err

    def test_missing_observable_exits_2(self, capsys):
        code = main(["expectation", "--n", "100"])
        assert code == 2

    def test_interfering_superposition_runs_weighted(self, tmp_path):
        # pair damping e^(-7.25 / 0.8) = 1.2e-4 at h = 0.1: weighted, not refused
        out = tmp_path / "weighted.csv"
        args = ["expectation", "--observable", "torsional", "--state", "superposition-2d",
                "--h", "0.1", "--n", "5000", "--out", str(out)]
        assert main(args) == 0
        meta, _, _ = read_csv(out)
        assert meta["importance_weights"] == "True"
        assert float(meta["max_pair_damping"]) == pytest.approx(math.exp(-7.25 / 0.8), rel=1e-12)

    def test_interfering_branches_unbiased(self, tmp_path):
        # the Henon-Heiles wavepacket plus a branch 0.1 away in q_1 (pair
        # damping exp(-0.01 / (8 h)) = 0.71): the branch mixture is about 10
        # stderr off here, the importance-weighted estimate is not
        config = {
            "d": 2, "h": 0.0037, "observable": "hh-total", "n": 65536,
            "branches": [
                {"q": [0.3645, 0.3645], "p": [1.0, 0.0]},
                {"q": [0.4645, 0.3645], "p": [1.0, 0.0], "coeff": [0.0, 0.7]},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "two.csv"
        assert main(["expectation", "--config", str(path), "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta["importance_weights"] == "True"
        assert float(meta["max_pair_damping"]) == pytest.approx(math.exp(-0.1**2 / (8 * 0.0037)), rel=1e-12)
        estimate, stderr, reference = (float(rows[0][header.index(k)]) for k in ("estimate", "stderr", "reference"))
        assert abs(estimate - reference) < 5 * stderr

    def test_threshold_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["expectation", "--observable", "torsional", "--threshold", "1e-3"])
        assert exit_info.value.code == 2
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"observable": "torsional", "n": 1000, "threshold": 1e-14}))
        assert main(["expectation", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_leap_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["henon-heiles", "--d-list", "2", "--n", "1000", "--leap", "2"])
        assert exit_info.value.code == 2
        # an older run's config_json carries "leap": 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"observable": "torsional", "n": 1000, "sampler": "halton", "leap": 1}))
        assert main(["expectation", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

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
        # at h = 1e-300 the tensor grid's (2 pi h)^-d prefactor overflows
        argv = ["accuracy-sweep", "--h-list", "1e-300,1e-301", "--points-per-axis", "4"]
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

    def test_halton_range_below_the_bound_exits_0(self, tmp_path):
        # skip = (2**53 - 1) // 13 - 2000: every index read times 13 stays
        # below 2**53, though the last index of its 32768-point chunk does not
        code = main(
            ["expectation", "--observable", "hh-total", "--d", "2", "--n", "1000",
             "--sampler", "halton", "--skip", "692861481131922", "--out", str(tmp_path / "e.csv")]
        )
        assert code == 0

    def test_zero_workers_exits_2(self, capsys):
        code = main(
            ["expectation", "--observable", "hh-total", "--d", "2", "--n", "1000", "--workers", "0"]
        )
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err


class TestGuardBeforeWork:
    def test_accuracy_sweep_oversized_tensor_grid_exits_3(self, monkeypatch, capsys):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("work started before the guard refused the sweep")

        for name in ("weyl_expectation_gaussian", "tensor_grid_expectation"):
            monkeypatch.setattr(experiments, name, fail)
        # linear in points_per_axis: about 1500 s projected for two h values
        code = main(["accuracy-sweep", "--points-per-axis", "1000000000", "--h-list", "0.1,0.01"])
        assert code == 3
        assert "resource guard" in capsys.readouterr().err


    @staticmethod
    def quartic_momentum_config(tmp_path, n):
        """A config file with |p|^4 at d = 128 as an inline polynomial."""
        d, records = 128, []
        for j in range(d):
            for l in range(j, d):
                exps = [0] * (2 * d)
                exps[d + j] += 2
                exps[d + l] += 2
                records.append([1.0 if j == l else 2.0, exps])
        path = tmp_path / f"quartic{n}.json"
        path.write_text(json.dumps({"observable_polynomial": records, "d": d, "n": n}))
        return str(path)

    def test_inline_symbol_charged_its_evaluation(self, tmp_path, monkeypatch, capsys):
        # |p|^4 at d = 128 as an inline polynomial has 8,256 terms and 16,384
        # term factors: about 2.7e-5 s per sample for its evaluation on top of
        # the 1.3e-5 s of sampling, so n = 2e7 projects about 800 s and is
        # refused, while the label (its own evaluator) is charged no more
        import phasespec.experiments as experiments

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(experiments, "estimate_expectation", reached)
        assert main(["expectation", "--config", self.quartic_momentum_config(tmp_path, 20_000_000)]) == 3
        assert "resource guard" in capsys.readouterr().err
        with pytest.raises(Reached):
            main(["expectation", "--config", self.quartic_momentum_config(tmp_path, 100_000)])
        with pytest.raises(Reached):
            main(["expectation", "--observable", "quartic-momentum", "--d", "128", "--n", "20000000"])


class TestNonFiniteInputsRefused:
    """A NaN or infinite coefficient or alpha exits 2 before any sampling."""

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("sampling started before the input was refused")

        monkeypatch.setattr(experiments, "estimate_expectation", fail)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_coefficient(self, no_sampling, coeff, tmp_path, capsys):
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps({"observable_polynomial": [[coeff, [2, 0]], [1.0, [0, 2]]], "d": 1}))
        assert main(["expectation", "--config", str(path)]) == 2
        assert "coefficients must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["expectation", "--observable", "hh-total", "--d", "2", "--alpha", "nan"],
            ["expectation", "--observable", "hh-total", "--d", "2", "--alpha", "inf"],
            ["expectation", "--observable", "hh-potential", "--state", "origin", "--d", "2", "--alpha=-inf"],
            ["henon-heiles", "--d-list", "2", "--n", "1000", "--alpha", "nan"],
        ],
    )
    def test_alpha(self, no_sampling, argv, capsys):
        assert main(argv) == 2
        assert "alpha must be finite" in capsys.readouterr().err


class TestExactReferenceCommand:
    @pytest.mark.parametrize("d", [3, 8])
    def test_torsional_reference_at_any_d(self, d, capsys):
        code = main(["expectation", "--observable", "torsional", "--d", str(d), "--n", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        reference = float(next(ln for ln in out.splitlines() if ln.startswith("reference:")).split()[1])
        # origin wavepacket, default h = 0.01: E[cos q_j] = e^{-h/4}, so the
        # reference is 2 - 2 e^{-h/4}, here written without cancellation; the
        # closed form's own sum 2 - E[cos q_1] - E[cos q_2] cancels to 6.5e-15
        assert reference == pytest.approx(-2.0 * np.expm1(-0.01 / 4.0), rel=1e-14, abs=0)

    def test_dimension_above_128_exits_2_before_observable(self, monkeypatch, capsys):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("the observable was built before the dimension was refused")

        monkeypatch.setattr(experiments, "resolve_observable", fail)
        assert main(["expectation", "--observable", "quartic-momentum", "--d", "129"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1..128" in err


class TestGridSizeRefusedFirst:
    """Grid sizes under 2 points per axis are refused before any estimate,
    reference or quadrature runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("work started before the grid sizes were checked")

        for name in ("estimate_expectation", "weyl_expectation_gaussian", "tensor_grid_expectation"):
            monkeypatch.setattr(experiments, name, fail)

    @pytest.mark.parametrize(
        "argv",
        [
            ["accuracy-sweep", "--points-per-axis", "1"],
            ["accuracy-sweep", "--points-per-axis", "0"],
        ],
    )
    def test_exit_2_before_any_work(self, no_work, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestRemovedReferenceResolution:
    """The marginal-grid setting is gone: its flag and its config key exit 2."""

    @pytest.mark.parametrize("command", ["expectation", "accuracy-sweep"])
    def test_flag_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--observable", "torsional", "--reference-resolution", "512"])
        assert exit_info.value.code == 2
        assert "--reference-resolution" in capsys.readouterr().err

    def test_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"observable": "torsional", "n": 1000, "reference_resolution": 2048}))
        assert main(["expectation", "--config", str(path)]) == 2
        assert "reference_resolution" in capsys.readouterr().err


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
        small = ["--h-list", "0.1", "--points-per-axis", "20"]
        cases = [
            ["accuracy-sweep", *small, "--points-per-axis", "1"],
            ["accuracy-sweep", *small, "--points-per-axis", "0"],
            ["henon-heiles", "--d-list", ",", "--n", "100"],
        ]
        for i, cfg in enumerate(({"h_list": [0.1, None]}, {"h_list": [True]}, {"h_list": []})):
            path = tmp_path / f"lists{i}.json"
            path.write_text(json.dumps(cfg))
            cases.append(["accuracy-sweep", "--config", str(path), "--points-per-axis", "20"])
        path = tmp_path / "empty_d.json"
        path.write_text(json.dumps({"d_list": [], "n": 100}))
        cases.append(["henon-heiles", "--config", str(path)])
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err, argv


def _fuzz_float():
    return strategies.one_of(
        strategies.floats(-2.0, 2.0),
        strategies.sampled_from([0.0, 1e-300, 1e300, -1e-3, 1e-3, 0.5]),
        strategies.floats(allow_nan=True, allow_infinity=True),
    )


def _wrong_type():
    return strategies.one_of(
        strategies.none(), strategies.booleans(), strategies.text(max_size=3),
        strategies.lists(strategies.integers(0, 2), max_size=2), strategies.just({"x": 1}),
        strategies.floats(-3.0, 3.0), strategies.integers(-3, 3),
    )


@strategies.composite
def _fuzz_branch(draw):
    d = draw(strategies.integers(0, 4))
    coords = strategies.lists(_fuzz_float(), min_size=d, max_size=d)
    rec = {"q": draw(coords), "p": draw(coords)}
    if draw(strategies.booleans()):
        rec["coeff"] = draw(strategies.one_of(_fuzz_float(), strategies.lists(_fuzz_float(), min_size=2, max_size=2)))
    return rec


@strategies.composite
def _fuzz_record(draw):
    width = draw(strategies.integers(0, 8))
    return [draw(_fuzz_float()), draw(strategies.lists(strategies.integers(0, 6), min_size=width, max_size=width))]


# Right-typed values of every RunConfig field an ``expectation`` run reads,
# bounded so that no draw starts a large run or many threads.  ``out`` is
# never drawn: the run writes its CSV to stdout.
_FUZZ_FIELDS = {
    "h": _fuzz_float(),
    "d": strategies.integers(-1, 4),
    "n": strategies.integers(-2, 4096),
    "sampler": strategies.sampled_from(["mc", "halton", "sobol"]),
    "seed": strategies.one_of(strategies.integers(-2, 2**64 + 2), strategies.just(0)),
    "skip": strategies.one_of(strategies.integers(-2, 10**4), strategies.just(2**62)),
    "split": _fuzz_float(),
    "method": strategies.sampled_from(["mu", "husimi", "wigner"]),
    "observable": strategies.sampled_from(["torsional", "quartic-momentum", "hh-kinetic", "hh-total", "nope"]),
    "force": strategies.booleans(),
    "state": strategies.sampled_from(["origin", "superposition-2d", "henon-heiles", "squeezed"]),
    "branches": strategies.lists(_fuzz_branch(), max_size=3),
    "observable_polynomial": strategies.lists(_fuzz_record(), max_size=3),
    "alpha": _fuzz_float(),
    "workers": strategies.integers(-1, 4),
    "points_per_axis": strategies.integers(-1, 200),
    "n_points": strategies.integers(-1, 500),
    "h_list": strategies.lists(_fuzz_float(), max_size=3),
    "d_list": strategies.lists(strategies.integers(-1, 200), max_size=3),
    "max_radius": _fuzz_float(),
}


@strategies.composite
def _fuzz_config(draw):
    """An observable (label or inline polynomial) plus up to 8 other fields,
    each right-typed in 4 of 5 draws, and in 1 of 10 an unknown key."""
    config = {}
    first = draw(strategies.sampled_from(["observable", "observable_polynomial"]))
    others = strategies.sampled_from(sorted(set(_FUZZ_FIELDS) - {first}))
    for key in [first] + draw(strategies.lists(others, max_size=8, unique=True)):
        right = draw(strategies.sampled_from([True, True, True, True, False]))
        config[key] = draw(_FUZZ_FIELDS[key] if right or key in ("n", "d", "workers") else _wrong_type())
    if draw(strategies.sampled_from([False] * 9 + [True])):
        config[draw(strategies.sampled_from(["reference_resolution", "threshold", "leap", "resolution", "D"]))] = 2048
    return config


class TestFuzzedConfig:
    """Any JSON config file ends an ``expectation`` run with a documented
    exit code, never a traceback."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=_fuzz_config())
    def test_exit_code_is_documented(self, config, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with np.errstate(all="ignore"), redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["expectation", "--config", str(path)])
        assert code in (0, 2, 3, 4), config
        assert "Traceback" not in err.getvalue(), config
