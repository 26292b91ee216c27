"""The benchmark's workloads: set-up, one timed iteration, and its checks.

Each workload puts a different layer under load and leaves others idle:

* ``hh-halton`` -- the paper's Henon-Heiles experiment with Halton points.
  Stream generation and quantile transforms dominate; the stream is read
  three times per dimension.  Densities and quadrature are idle.
* ``expect-mc-w2`` -- one CLI ``expectation`` run with Philox points on two
  worker threads: the same sampling layer with cheap uniforms, plus the CLI,
  config, guard and CSV paths.
* ``accuracy-sweep`` -- the default grid-mode error sweep.  No sampling; the
  marginal-grid reference and the tensor-grid quadrature do the work.
* ``superposition-exact`` -- an exact-policy estimate on an overlapping
  four-branch d=3 superposition, then the pairwise density evaluators on one
  sample block.  The only workload where the densities layer dominates.

``--seed`` is the Philox seed of the mc workloads and the Halton skip offset
of ``hh-halton`` (skip = 1000 + seed mod 4096, so seed 0 is the paper's
skip and every seed reads the same number of Halton digits).  The accuracy
sweep has no random input and ignores the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from phasespec import cli, core, densities, experiments, observables, quadrature, sampling


@dataclass
class Outcome:
    """What one iteration produced.

    ``numbers`` holds every numeric output the checks read; its digest is the
    bit-identity fingerprint of the iteration.  ``points`` is the work done,
    counted as the runs' own ``n`` column counts it.
    """

    points: int
    numbers: dict
    rel_error_max: float
    facts: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Workload:
    """``setup`` builds the inputs, ``run`` is one timed iteration and
    ``check`` compares its outcome with the references built in set-up."""

    name: str

    def setup(self, seed: int, tiny: bool, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, ctx: dict) -> Outcome:
        raise NotImplementedError

    def check(self, ctx: dict, out: Outcome) -> list[Check]:
        raise NotImplementedError

    def teardown(self, ctx: dict) -> None:
        """Remove what set-up or the iterations left behind."""


class HenonHeilesHalton(Workload):
    name = "hh-halton"
    d_list = (2, 8, 32)

    def setup(self, seed: int, tiny: bool, workdir: Path) -> dict:
        # The paper uses n = 1e6 (about 30 s per run on 2 cores); the
        # benchmark uses 2^17 points so a run holds several iterations.
        n = 4096 if tiny else 131072
        refs = {}
        for d in self.d_list:
            spec = observables.HenonHeilesSpec(d=d)
            state = spec.benchmark_state()
            kinetic, potential = observables.henon_heiles_energy(spec)
            for A in (kinetic, potential, observables.henon_heiles_total(spec)):
                refs[(d, A.label)] = observables.weyl_expectation_gaussian(A, state)
        # The paper's 1e-3 at n = 1e6, scaled at the 1/n rate Halton
        # sampling targets; equal to 1e-3 at the paper's size.
        tolerance = 1e-3 * max(1.0, 1e6 / n)
        return {"n": n, "skip": 1000 + seed % 4096, "refs": refs, "tolerance": tolerance}

    def run(self, ctx: dict) -> Outcome:
        result = experiments.run_henon_heiles(
            d_list=self.d_list, n=ctx["n"], sampler="halton", skip=ctx["skip"], workers=1
        )
        cols = result.columns
        d_i, obs_i, est_i, n_i = (cols.index(c) for c in ("d", "observable", "estimate", "n"))
        numbers = {f"d{row[d_i]}.{row[obs_i]}": float(row[est_i]) for row in result.rows}
        rel = max(_rel(numbers[f"d{d}.{lbl}"], ref) for (d, lbl), ref in ctx["refs"].items())
        return Outcome(sum(int(row[n_i]) for row in result.rows), numbers, rel)

    def check(self, ctx: dict, out: Outcome) -> list[Check]:
        checks = []
        for d in self.d_list:
            total = out.numbers.get(f"d{d}.hh-total", float("nan"))
            err = _rel(total, ctx["refs"][(d, "hh-total")])
            checks.append(Check(
                f"d{d}.total_energy", err < ctx["tolerance"],
                f"rel error {err:.3e} < {ctx['tolerance']:.3e}",
            ))
            # Kinetic, potential and total read the same points, so the
            # estimator is linear in the observable up to rounding.
            parts = out.numbers.get(f"d{d}.hh-kinetic", np.nan) + out.numbers.get(f"d{d}.hh-potential", np.nan)
            gap = _rel(parts, total)
            checks.append(Check(f"d{d}.kinetic_plus_potential", gap <= 1e-12, f"rel gap {gap:.1e} <= 1e-12"))
        return checks


class ExpectationCli(Workload):
    name = "expect-mc-w2"
    columns = ("observable", "method", "estimate", "stderr", "reference", "abs_error", "rel_error", "n")

    def setup(self, seed: int, tiny: bool, workdir: Path) -> dict:
        n = 8192 if tiny else 500000
        out = workdir / f"expect-mc-w2-{os.getpid()}.csv"
        argv = [
            "expectation", "--observable", "hh-total", "--d", "32", "--sampler", "mc",
            "--workers", "2", "--n", str(n), "--seed", str(seed), "--out", str(out),
        ]
        spec = observables.HenonHeilesSpec(d=32)
        ref = observables.weyl_expectation_gaussian(
            observables.observable_from_label("hh-total", 32), spec.benchmark_state()
        )
        return {"n": n, "out": out, "argv": argv, "ref": ref}

    def run(self, ctx: dict) -> Outcome:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(ctx["argv"])
        numbers, parsed = {}, False
        with contextlib.suppress(OSError, ValueError, IndexError):
            with open(ctx["out"]) as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            header, values = rows[0], rows[1:]
            if tuple(header) == self.columns and len(values) == 1:
                row = dict(zip(header, values[0]))
                numbers = {k: float(row[k]) for k in self.columns[2:]}
                parsed = True
        est, ref = numbers.get("estimate", np.nan), ctx["ref"]
        return Outcome(ctx["n"], numbers, _rel(est, ref), {"exit_code": code, "csv_parsed": parsed})

    def check(self, ctx: dict, out: Outcome) -> list[Check]:
        est = out.numbers.get("estimate", np.nan)
        stderr = out.numbers.get("stderr", np.nan)
        csv_ref = out.numbers.get("reference", np.nan)
        z = abs(est - ctx["ref"]) / stderr
        return [
            Check("exit_code", out.facts["exit_code"] == 0, f"exit code {out.facts['exit_code']}"),
            Check("csv_parses", out.facts["csv_parsed"], "one row with the expectation columns"),
            Check("within_5_stderr", z <= 5.0, f"|estimate - reference| = {z:.2f} stderr"),
            Check("csv_reference", _rel(csv_ref, ctx["ref"]) <= 1e-12, "CSV reference is the moment formula"),
        ]

    def teardown(self, ctx: dict) -> None:
        with contextlib.suppress(FileNotFoundError):
            ctx["out"].unlink()


class AccuracySweep(Workload):
    name = "accuracy-sweep"
    expected_slopes = {"mu": (2.0, 0.3), "husimi": (1.0, 0.2)}
    observables = ("torsional", "quartic-momentum")

    def setup(self, seed: int, tiny: bool, workdir: Path) -> dict:
        # The sweep builds its states and references itself, so set-up is
        # only the import.
        kwargs = {}
        if tiny:
            kwargs = {"h_list": (1e-1, 10**-1.5, 1e-2), "points_per_axis": 80, "reference_resolution": 512}
        return {"kwargs": kwargs}

    def run(self, ctx: dict) -> Outcome:
        result = experiments.run_accuracy_sweep(**ctx["kwargs"])
        cols = result.columns
        h_i, m_i, o_i, est_i, rel_i, n_i = (
            cols.index(c) for c in ("h", "method", "observable", "estimate", "rel_error", "n")
        )
        numbers = {f"h{row[h_i]:.6g}.{row[m_i]}.{row[o_i]}": float(row[est_i]) for row in result.rows}
        for (method, label), slope in result.slopes.items():
            numbers[f"slope.{method}.{label}"] = np.nan if slope is None else float(slope)
        return Outcome(
            sum(int(row[n_i]) for row in result.rows),
            numbers,
            max(float(row[rel_i]) for row in result.rows),
        )

    def check(self, ctx: dict, out: Outcome) -> list[Check]:
        checks = []
        for (method, (target, width)), label in itertools.product(self.expected_slopes.items(), self.observables):
            slope = out.numbers.get(f"slope.{method}.{label}", np.nan)
            checks.append(Check(
                f"slope.{method}.{label}", abs(slope - target) <= width,
                f"slope {slope:.4f} within {target} +- {width}",
            ))
        return checks


class SuperpositionExact(Workload):
    name = "superposition-exact"
    h = 0.1
    # Branch centers are 0.6-1.1 apart in phase space, so every pair damping
    # exp(-|z_k - z_l|^2 / (8h)) lies between 0.2 and 0.7.
    branches = (
        (1.0, ([0.0, 0.2, -0.1], [0.3, 0.0, 0.1])),
        (0.8j, ([0.4, -0.1, 0.2], [0.0, 0.3, -0.2])),
        (-0.6 + 0.3j, ([-0.3, 0.3, 0.0], [-0.2, -0.2, 0.3])),
        (0.5, ([0.1, -0.3, -0.3], [0.2, 0.1, -0.1])),
    )
    # Degree 3 in (q1, q2, q3, p1, p2, p3), mixing q and p.
    polynomial = (
        (1.0, (3, 0, 0, 0, 0, 0)),
        (1.0, (1, 0, 0, 0, 2, 0)),
        (-0.5, (0, 1, 1, 1, 0, 0)),
        (0.7, (0, 0, 2, 0, 0, 1)),
        (1.0, (0, 0, 0, 0, 0, 1)),
        (2.0, (0, 0, 0, 0, 0, 0)),
    )

    def setup(self, seed: int, tiny: bool, workdir: Path) -> dict:
        n, block = (8192, 1024) if tiny else (131072, 32768)
        state = core.GaussianState.from_branches(
            self.h, [(c, core.PhasePoint(q, p)) for c, (q, p) in self.branches]
        )
        A = observables.observable_from_polynomial_records([[c, list(e)] for c, e in self.polynomial], 3)
        ref = quadrature.tensor_grid_expectation(state, A, method="mu", points_per_axis=80 if tiny else 160)
        source = sampling.PointSource(dimension=8, seed=seed)
        # Husimi-mixture draws from stream indices just past the estimate's.
        u = source.uniform_block(n, block)
        probs = np.abs(state.coefficients) ** 2 / np.sum(np.abs(state.coefficients) ** 2)
        branch = np.minimum(np.searchsorted(np.cumsum(probs), u[:, 0], side="right"), len(probs) - 1)
        g = np.sqrt(self.h) * ndtri(u[:, 2:])
        Q = state.centers_q[branch] + g[:, :3]
        P = state.centers_p[branch] + g[:, 3:]
        return {
            "n": n, "state": state, "A": A, "ref": ref, "source": source, "Q": Q, "P": P,
            "policy": densities.CrossTermPolicy(mode="exact"),
        }

    def run(self, ctx: dict) -> Outcome:
        state, Q, P = ctx["state"], ctx["Q"], ctx["P"]
        result = sampling.estimate_expectation(
            state, ctx["A"], method="mu", n=ctx["n"], source=ctx["source"],
            policy=ctx["policy"], workers=1,
        )
        mu = densities.mu_many(state, Q, P)
        combination = densities.mu_combination_many(state, Q, P)
        wigner = densities.wigner_many(state, Q, P)
        numbers = {
            "estimate": result.value,
            "stderr": result.stderr,
            "mu_sum": float(np.sum(mu)),
            "combination_sum": float(np.sum(combination)),
            "wigner_sum": float(np.sum(wigner)),
            "mu_gap": float(np.max(np.abs(mu - combination)) / np.max(np.abs(combination))),
        }
        return Outcome(ctx["n"] + len(Q), numbers, _rel(result.value, ctx["ref"]))

    def check(self, ctx: dict, out: Outcome) -> list[Check]:
        z = abs(out.numbers["estimate"] - ctx["ref"]) / out.numbers["stderr"]
        gap = out.numbers["mu_gap"]
        return [
            Check("within_5_stderr", z <= 5.0, f"|estimate - grid mu reference| = {z:.2f} stderr"),
            Check("mu_pairwise_vs_combination", gap <= 1e-10, f"max rel gap {gap:.1e} <= 1e-10"),
        ]


WORKLOADS = {w.name: w for w in (HenonHeilesHalton(), ExpectationCli(), AccuracySweep(), SuperpositionExact())}
