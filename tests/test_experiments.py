import json

import numpy as np
import pytest

from phasespec.exceptions import ResourceGuardError
from phasespec.experiments import (
    DEFAULT_H_LIST,
    TENSOR_COST_PER_BRANCH_POINT_SECONDS,
    TENSOR_COST_PER_EVALUATION_POINT_SECONDS,
    TENSOR_COST_PER_FACTOR_POINT_SECONDS,
    TENSOR_COST_PER_GRAM_ENTRY_SECONDS,
    TIME_BUDGET_SECONDS,
    RunConfig,
    _projected_tensor_grid_seconds,
    base_metadata,
    benchmark_superposition,
    check_resource_budget,
    fit_loglog_slope,
    projected_seconds,
    resolve_observable,
    resolve_state,
    run_accuracy_sweep,
    run_density_section,
    run_expectation,
    run_henon_heiles,
    write_csv,
)
from phasespec.quadrature import _plane_rows, tensor_grid_expectation


class TestDensitySection:
    def test_center_row_and_ordering(self):
        h = 0.1
        res = run_density_section(h=h, n_points=200)
        radius, wig, hus, muv = res.rows[0]
        assert radius == 0.0
        assert wig == pytest.approx(1.0 / (np.pi * h), rel=1e-13)
        assert hus == pytest.approx(1.0 / (2 * np.pi * h), rel=1e-13)
        assert muv == pytest.approx(1.5 / (2 * np.pi * h), rel=1e-13)
        assert wig > muv > hus

    def test_mu_changes_sign_exactly_once(self):
        h = 0.1
        res = run_density_section(h=h, n_points=500)
        mu_col = np.array(res.column("mu"))
        signs = np.sign(mu_col[mu_col != 0.0])
        assert int(np.sum(np.diff(signs) != 0)) == 1
        # crossing sits at 2 sqrt(h (1 + d/2))
        radius = np.array(res.column("radius"))
        crossing = radius[np.flatnonzero(np.diff(signs) != 0)[0]]
        assert crossing == pytest.approx(2 * np.sqrt(1.5 * h), abs=radius[1] - radius[0])

    def test_husimi_nonnegative(self):
        res = run_density_section(h=0.05)
        assert np.all(np.array(res.column("husimi")) >= 0.0)


class TestAccuracySweep:
    def test_small_sweep_runs_and_orders(self):
        res = run_accuracy_sweep(
            h_list=(0.1, 0.01),
            points_per_axis=60,
        )
        hs = res.column("h")
        assert hs == sorted(hs, reverse=True)[: len(hs)]
        assert all(err >= 0 for err in res.column("abs_error"))
        assert set(res.column("method")) == {"mu", "husimi"}
        for key in (("mu", "torsional"), ("husimi", "quartic-momentum")):
            assert key in res.slopes

    def test_degree_three_control_row_error_vanishes(self):
        # a cubic polynomial inserted as a control row: mu-method error sits
        # at the quadrature floor, and the slope fit is suppressed for it
        from phasespec.observables import observable_from_polynomial_records

        def control(d):
            return observable_from_polynomial_records(
                [[1.0, [3, 0, 0, 0]], [0.7, [1, 0, 0, 0]]], d
            )

        res = run_accuracy_sweep(
            h_list=(0.1, 0.01),
            methods=("mu",),
            observable_labels=("torsional", control),
            points_per_axis=120,
        )
        for row in res.rows:
            if row[2] == "polynomial":
                assert row[5] < 1e-9
        assert res.slopes[("mu", "polynomial")] is None
        assert res.slopes[("mu", "torsional")] is not None

    def test_invalid_h_rejected(self):
        with pytest.raises(ValueError):
            run_accuracy_sweep(h_list=(0.1, -0.5))

    def test_mixed_observable_gets_closed_form_reference(self):
        # q_1 p_1 mixes position and momentum: its reference is the closed form
        from phasespec.observables import observable_from_polynomial_records, weyl_expectation_gaussian

        def mixed(d):
            return observable_from_polynomial_records([[1.0, [1, 0, 1, 0]]], d)

        res = run_accuracy_sweep(h_list=(0.1,), methods=("mu",), observable_labels=(mixed,), points_per_axis=40)
        (row,) = res.rows
        assert row[4] == weyl_expectation_gaussian(mixed(2), benchmark_superposition(0.1))
        # degree 2: the mu estimate is exact up to the quadrature floor
        assert row[5] < 1e-9

    def test_same_label_observables_keep_their_own_references(self):
        # two inline polynomials share the label "polynomial": each row reads
        # the reference of its own observable, not the last one of that label
        from phasespec.observables import observable_from_polynomial_records, weyl_expectation_gaussian

        factories = [
            lambda d, e=e: observable_from_polynomial_records([[1.0, e]], d) for e in ([2, 0, 0, 0], [0, 0, 0, 2])
        ]
        res = run_accuracy_sweep(h_list=(0.1,), methods=("mu",), observable_labels=factories, points_per_axis=40)
        state = benchmark_superposition(0.1)
        assert res.column("reference") == [weyl_expectation_gaussian(f(2), state) for f in factories]
        assert res.column("reference")[0] != res.column("reference")[1]

    @pytest.mark.parametrize("h_list", [(0.1,), (0.1, 0.1)])
    def test_single_h_reports_no_slope(self, h_list):
        res = run_accuracy_sweep(h_list=h_list, points_per_axis=40)
        assert len(res.rows) == 4
        assert res.slopes and all(slope is None for slope in res.slopes.values())

    @pytest.mark.parametrize("h_list", [[], [0.1, None], [True], ["0.1"]])
    def test_malformed_h_list_refused(self, h_list):
        with pytest.raises(ValueError, match="h_list"):
            run_accuracy_sweep(h_list=h_list)

    def test_empty_d_list_refused(self):
        with pytest.raises(ValueError, match="d_list"):
            run_henon_heiles(d_list=[], n=100)


class TestHenonHeiles:
    def test_small_run_sane(self):
        res = run_henon_heiles(d_list=(2,), n=20_000)
        labels = res.column("observable")
        assert labels == ["hh-kinetic", "hh-potential", "hh-total"]
        for rel in res.column("rel_error"):
            assert rel < 5e-2
        for est in res.column("estimate"):
            assert np.isfinite(est)

    def test_high_dimension_executes_at_small_n(self):
        # execution check only: 258-dim Halton needs far more than 4k points
        # before the high-base coordinates equidistribute
        res = run_henon_heiles(d_list=(128,), n=4096)
        assert all(np.isfinite(v) for v in res.column("estimate"))
        assert all(rel < 10.0 for rel in res.column("rel_error"))

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            run_henon_heiles(d_list=(128,), n=10**8, force=False)
        # the guard math, not the run: force admits the full-scale job
        assert check_resource_budget(10**8, [128], force=True) > 600
        assert projected_seconds(10**6, 32) < 600

    def test_d_range_validated(self):
        with pytest.raises(ValueError):
            run_henon_heiles(d_list=(1,), n=100)
        with pytest.raises(ValueError):
            run_henon_heiles(d_list=(256,), n=100)


class TestRunExpectation:
    def test_constant_is_one_with_reference(self):
        config = RunConfig(
            experiment="expectation",
            observable_polynomial=[[1.0, [0, 0, 0, 0]]],
            d=2,
            n=4000,
            seed=3,
        )
        result, reference, table = run_expectation(config)
        assert result.value == 1.0
        assert reference == pytest.approx(1.0, abs=0)

    def test_hh_total_matches_moment_oracle(self):
        config = RunConfig(
            experiment="expectation",
            observable="hh-total",
            d=2,
            n=200_000,
            seed=5,
            sampler="mc",
        )
        result, reference, table = run_expectation(config)
        assert reference is not None
        assert abs(result.value - reference) < 5 * result.stderr

    def test_husimi_error_exceeds_mu_error(self):
        # first-order versus second-order method on the benchmark state
        results = {}
        for method in ("mu", "husimi"):
            config = RunConfig(
                experiment="expectation",
                observable="torsional",
                state="superposition-2d",
                h=0.01,
                n=300_000,
                seed=8,
                method=method,
                sampler="halton",
            )
            result, reference, _ = run_expectation(config)
            results[method] = abs(result.value - reference)
        assert results["husimi"] > results["mu"]

    def test_unknown_label_lists_choices(self):
        config = RunConfig(experiment="expectation", observable="bogus", d=2, n=100)
        with pytest.raises(ValueError, match="quartic-momentum"):
            run_expectation(config)

    def test_resource_guard_applies(self):
        config = RunConfig(experiment="expectation", observable="hh-total", d=64, n=10**9)
        with pytest.raises(ResourceGuardError):
            run_expectation(config)

    def test_guard_charges_importance_weights(self, monkeypatch):
        # the d = 32 Henon-Heiles wavepacket plus a branch 0.1 away in q_1 is
        # importance weighted: n = 1.2e8 projects 792 s and is refused before
        # any sampling; the wavepacket alone projects 408 s and is admitted
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "estimate_expectation", fail)
        q, p = [0.3645] * 32, [1.0] + [0.0] * 31
        branches = [{"q": q, "p": p}, {"q": [0.4645] + q[1:], "p": p, "coeff": [0.0, 0.7]}]
        config = RunConfig(observable="hh-total", d=32, h=0.0037, n=120_000_000, branches=branches)
        with pytest.raises(ResourceGuardError, match="792s"):
            run_expectation(config)
        config.branches = branches[:1]
        with pytest.raises(AssertionError, match="sampling started"):
            run_expectation(config)

    @pytest.mark.parametrize(
        "config, unbuilt",
        [
            # a preset's d is refused before its state is built
            (RunConfig(observable="quartic-momentum", d=129), ("resolve_state", "resolve_observable")),
            (RunConfig(observable="quartic-momentum", d=0), ("resolve_state", "resolve_observable")),
            (
                RunConfig(observable="quartic-momentum", branches=[{"q": [0.0] * 129, "p": [0.0] * 129}]),
                ("resolve_observable",),
            ),
        ],
        ids=["d129", "d0", "branches129"],
    )
    def test_dimension_bound_before_observable(self, config, unbuilt, monkeypatch):
        import phasespec.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("work started before the dimension was refused")

        for name in unbuilt:
            monkeypatch.setattr(experiments, name, fail)
        with pytest.raises(ValueError, match="1..128"):
            run_expectation(config)

    def test_exact_reference_at_any_d(self):
        # the torsional potential has a closed-form reference at d = 8 too:
        # 2 - 2 e^{-h/4} at the origin, written here without cancellation
        config = RunConfig(observable="torsional", d=8, n=4000)
        _, reference, _ = run_expectation(config)
        assert reference == pytest.approx(-2.0 * np.expm1(-0.01 / 4.0), rel=1e-14, abs=0)


class TestStateResolution:
    def test_presets(self):
        assert resolve_state(RunConfig(experiment="accuracy-sweep", h=0.1)).n_branches == 2
        hh = resolve_state(RunConfig(experiment="expectation", observable="hh-kinetic", d=3))
        assert hh.dim == 3 and hh.h == 0.0037
        assert np.allclose(hh.centers_q[0], 0.3645)
        assert hh.centers_p[0, 0] == 1.0 and np.all(hh.centers_p[0, 1:] == 0.0)
        origin = resolve_state(RunConfig(experiment="expectation", observable="torsional", d=2))
        assert origin.n_branches == 1 and origin.h == 0.01

    def test_explicit_branches(self):
        config = RunConfig(
            h=0.05,
            branches=[
                {"coeff": [1.0, 0.0], "q": [0.0], "p": [0.0]},
                {"coeff": [0.0, 1.0], "q": [4.0], "p": [0.0]},
            ],
        )
        st = resolve_state(config)
        assert st.n_branches == 2
        assert st.coefficients[1] == 1j

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            resolve_state(RunConfig(state="squeezed"))


class TestCsvFormat:
    def test_metadata_and_full_precision(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [(0.1, "mu", 1.0 / 3.0), (0.2, "husimi", np.pi)]
        text = write_csv(path, ["h", "method", "value"], rows, {"seed": 7, "note": "x"})
        lines = text.splitlines()
        assert lines[0] == "# seed: 7"
        assert lines[1] == "# note: x"
        assert lines[2] == "h,method,value"
        # 17 significant digits round-trip doubles exactly
        val = float(lines[3].split(",")[2])
        assert val == 1.0 / 3.0
        assert path.read_text() == text

    def test_config_json_round_trip(self):
        config = RunConfig(experiment="expectation", observable="hh-total", n=1234, seed=9)
        meta = base_metadata(config)
        parsed = RunConfig.from_dict(json.loads(meta["config_json"]))
        assert parsed == config

    def test_rerun_reproduces_numeric_columns(self):
        config = RunConfig(
            experiment="expectation",
            observable="hh-total",
            d=2,
            n=50_000,
            seed=11,
            sampler="halton",
        )
        _, _, table1 = run_expectation(config)
        config2 = RunConfig.from_dict(json.loads(base_metadata(config)["config_json"]))
        _, _, table2 = run_expectation(config2)
        t1 = write_csv(None, table1.columns, table1.rows, {})
        t2 = write_csv(None, table2.columns, table2.rows, {})
        assert t1 == t2

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            RunConfig.from_dict({"not_a_field": 1})


class TestSlopeFit:
    def test_exact_power_law(self):
        hs = (0.1, 0.05, 0.025)
        errs = [3.0 * h**2 for h in hs]
        assert fit_loglog_slope(hs, errs) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("hs", [(0.1,), (0.1, 0.1)])
    def test_one_distinct_x_refused(self, hs):
        with pytest.raises(ValueError, match="2 distinct"):
            fit_loglog_slope(hs, [1e-3] * len(hs))


class TestSharedEstimates:
    def test_henon_heiles_reads_each_chunk_once(self, monkeypatch):
        # every stream index is read exactly once per d, in blocks
        from phasespec.sampling import PointSource

        calls = []
        original = PointSource.uniform_block

        def counting(self, start, count, out=None):
            calls.append((self.dimension, start, count))
            return original(self, start, count, out)

        monkeypatch.setattr(PointSource, "uniform_block", counting)
        n = 2**17
        res = run_henon_heiles(d_list=(2, 8), n=n)
        for d in (2, 8):
            ranges = sorted((start, start + count) for dim, start, count in calls if dim == 2 * d + 2)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            # sorted, touching end to start: disjoint, with union [0, n)
            assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
        walls = res.column("wall_time_s")
        assert walls[0] == walls[1] == walls[2] and walls[3] == walls[4] == walls[5]

    def test_sampled_sweep_shares_one_call_per_method(self):
        from phasespec.densities import CrossTermPolicy
        from phasespec.observables import observable_from_label
        from phasespec.sampling import estimate_expectation

        cfg = RunConfig(sampler="mc", n=4000, seed=3)
        res = run_accuracy_sweep(h_list=(0.1,), sampler_config=cfg)
        state = benchmark_superposition(0.1)
        for i, (method, label, estimate) in enumerate(
            zip(res.column("method"), res.column("observable"), res.column("estimate"))
        ):
            single = estimate_expectation(
                state, observable_from_label(label, 2), method=method, n=4000,
                source=cfg.point_source(6), policy=CrossTermPolicy(mode="exact"),
            )
            assert estimate == single.value
        walls = res.column("wall_time_s")
        assert walls[0] == walls[1] and walls[2] == walls[3]

    def test_grid_sweep_shares_one_tensor_grid_call_per_h(self, monkeypatch):
        import phasespec.quadrature as quadrature
        from phasespec.observables import observable_from_label

        calls = []
        original = quadrature.tensor_grid_integrals

        def counting(state, observable, method="mu", points_per_axis=160):
            calls.append(state.h)
            return original(state, observable, method, points_per_axis)

        monkeypatch.setattr(quadrature, "tensor_grid_integrals", counting)
        res = run_accuracy_sweep(h_list=(0.1, 0.01), points_per_axis=40)
        assert calls == [0.1, 0.01]
        monkeypatch.undo()
        for h, method, label, estimate in zip(
            res.column("h"), res.column("method"), res.column("observable"), res.column("estimate")
        ):
            state = benchmark_superposition(h)
            single = tensor_grid_expectation(state, observable_from_label(label, 2), method, points_per_axis=40)
            assert estimate == single
        # every row of one h carries the wall time of the shared call
        walls = res.column("wall_time_s")
        assert len(set(walls[:4])) == 1 and len(set(walls[4:])) == 1


class TestTensorGridCostModel:
    """The tensor-grid projection is linear in points_per_axis and charges
    each distinct 1-D factor once per axis."""

    @staticmethod
    def projected(points_per_axis, st, observables):
        """The projection of a call over the observables, from their plane rows."""
        return _projected_tensor_grid_seconds(points_per_axis, st, _plane_rows(observables, st.dim)[0])

    def test_charges_only_computed_rows(self):
        from phasespec.observables import observable_from_label, observable_from_polynomial_records

        st = benchmark_superposition(0.1)  # K = 2, d = 2
        constant = TENSOR_COST_PER_FACTOR_POINT_SECONDS + 4 * TENSOR_COST_PER_GRAM_ENTRY_SECONDS
        per_factor = constant + TENSOR_COST_PER_EVALUATION_POINT_SECONDS
        base = self.projected(100, st, [])
        # the K table columns and the constant factor on each of the 4 axes
        assert base == pytest.approx(100 * 4 * (2 * TENSOR_COST_PER_BRANCH_POINT_SECONDS + constant))
        torsional, quartic = (observable_from_label(lbl, 2) for lbl in ("torsional", "quartic-momentum"))
        # torsional: cos q_j on each q axis; quartic: p_j^4 and p_j^2 on each p axis
        assert self.projected(100, st, [torsional]) - base == pytest.approx(100 * 2 * per_factor)
        assert self.projected(100, st, [torsional, quartic]) - base == pytest.approx(
            100 * 6 * per_factor
        )
        # hh-kinetic's p_j^2 factors are quartic-momentum's already, so adding
        # it to quartic charges nothing
        kinetic = observable_from_label("hh-kinetic", 2)
        assert self.projected(100, st, [kinetic]) - base == pytest.approx(100 * 2 * per_factor)
        assert self.projected(100, st, [quartic, kinetic]) == self.projected(
            100, st, [quartic]
        )
        # q_1 p_1 and q_1 p_1^2 are two plane rows but three axis factors:
        # q_1 is summed once on the q_1 axis, p_1 and p_1^2 on the p_1 axis
        mixed = observable_from_polynomial_records([[1.0, [1, 0, 1, 0]], [1.0, [1, 0, 2, 0]]], 2)
        assert self.projected(100, st, [mixed]) - base == pytest.approx(100 * 3 * per_factor)

    def test_linear_in_points_per_axis(self):
        from phasespec.observables import observable_from_label

        st = benchmark_superposition(0.01)
        obs = [observable_from_label(lbl, 2) for lbl in ("torsional", "quartic-momentum")]
        assert self.projected(20000, st, obs) == pytest.approx(
            100 * self.projected(200, st, obs)
        )

    def test_default_sweep_far_below_budget(self):
        from phasespec.observables import observable_from_label

        obs = [observable_from_label(lbl, 2) for lbl in ("torsional", "quartic-momentum")]
        total = sum(self.projected(160, benchmark_superposition(h), obs) for h in DEFAULT_H_LIST)
        assert total < 1e-3 * TIME_BUDGET_SECONDS


class TestConfigEntries:
    @pytest.mark.parametrize(
        "branches",
        [
            [1],
            [{"q": [0.0]}],
            [{"q": [0.0], "p": [0.0, 1.0]}],
            [{"q": "0", "p": [0.0]}],
            [{"q": [0.0], "p": [0.0], "coeff": [1.0]}],
            [{"q": [0.0], "p": [0.0], "coeff": "1"}],
            [{"q": [0.0], "p": [0.0], "coef": 2.0}],
        ],
    )
    def test_malformed_branches_refused(self, branches):
        with pytest.raises(ValueError):
            resolve_state(RunConfig(branches=branches))

    @pytest.mark.parametrize(
        "records",
        [[1], [[1.0]], [[1.0, [1, 0], 3]], [["1", [1, 0]]], [[True, [1, 0]]], [[1.0, [1.5, 0]]], [[1.0, 1]]],
    )
    def test_malformed_polynomial_records_refused(self, records):
        with pytest.raises(ValueError):
            resolve_observable(RunConfig(observable_polynomial=records), 1)

    def test_well_formed_entries_accepted(self):
        st = resolve_state(RunConfig(branches=[
            {"q": [0, 1], "p": [0.5, 0]}, {"q": [3, 0], "p": [0, 3], "coeff": [0, 1]},
        ]))
        assert st.coefficients.tolist() == [1.0, 1j]
        A = resolve_observable(RunConfig(observable_polynomial=[[2, [1, 0, 0, 0]]]), 2)
        assert A.polynomial.terms == ((2.0, (1, 0, 0, 0), (0.0,) * 4),)

    def test_non_integer_d_list_refused(self):
        for d_list in ([2.5], [2.0], ["2"], [True]):
            with pytest.raises(ValueError, match="integers"):
                run_henon_heiles(d_list=d_list, n=100)
