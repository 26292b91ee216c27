"""Golden values: the exact doubles of fixed runs, pinned as ``float.hex``.

The reproducibility contract promises byte-identical numeric output for a
fixed configuration, and performance work keeps every digit.  These values
were recorded before the Halton outer-sum construction, the sum-observable
pass and the memoised moment reference (the accuracy sweep's before the
shared-reference pass and the delete-free plane product), and any later change that moves one
of them must say so and record the new value.
"""

import pytest

from phasespec import PointSource, estimate_expectation
from phasespec.experiments import run_accuracy_sweep, run_henon_heiles
from phasespec.observables import HenonHeilesSpec, henon_heiles_total

# (d, observable) -> (estimate, reference) of run_henon_heiles(d_list=(2, 8),
# n=2**15, sampler="halton") with the default skip and split.
HENON_HEILES_HALTON = {
    (2, "hh-kinetic"): ("0x1.00ec696cf0eddp-1", "0x1.00f27bb2fec56p-1"),
    (2, "hh-potential"): ("0x1.8da1597915cc2p-3", "0x1.8dc8f4f7ae638p-3"),
    (2, "hh-total"): ("0x1.6454bfcb3660dp-1", "0x1.6464b8f0ea5e4p-1"),
    (8, "hh-kinetic"): ("0x1.03887992d26f4p-1", "0x1.03c9eecbfb15bp-1"),
    (8, "hh-potential"): ("0x1.e88cf0604c834p-1", "0x1.e93572ec53825p-1"),
    (8, "hh-total"): ("0x1.760ab4f98f794p+0", "0x1.767fb0dc274bdp+0"),
}

# observable -> (value, stderr, mean_husimi, mean_hermite) of the mu
# estimate of (kinetic, potential, total) on the d = 8 Henon-Heiles state,
# n = 100000 Philox points with seed 11.
PHILOX_D8 = {
    "hh-kinetic": ("0x1.040b0782b2298p-1", "0x1.d7d7999916078p-10", "0x1.07947de3715ffp-1", "0x1.0876db7ba12d9p-1"),
    "hh-potential": ("0x1.e9c8e28ebfad8p-1", "0x1.0ccb3292afc30p-8", "0x1.ed1993b1ce45ap-1", "0x1.ededbffa91ebap-1"),
    "hh-total": ("0x1.76e9f508b8ebcp+0", "0x1.25255920b4154p-8", "0x1.7a5708ca9fd2cp+0", "0x1.7b324dbb198c8p+0"),
}

# (h, method, observable) -> (estimate, reference) of the default
# run_accuracy_sweep(): tensor-grid estimates and exact references.
ACCURACY_SWEEP = {
    (0.1, "mu", "torsional"): ("0x1.71d0980960f67p-1", "0x1.719d1b7d2ad15p-1"),
    (0.1, "mu", "quartic-momentum"): ("0x1.b733338376b42p+1", "0x1.b9c28fac6c76cp+1"),
    (0.1, "husimi", "torsional"): ("0x1.81c543285e98fp-1", "0x1.719d1b7d2ad15p-1"),
    (0.1, "husimi", "quartic-momentum"): ("0x1.0a51ebb5a2542p+2", "0x1.b9c28fac6c76cp+1"),
    (10**-1.5, "mu", "torsional"): ("0x1.665a198e9fa1cp-1", "0x1.6654cd6e73bb7p-1"),
    (10**-1.5, "mu", "quartic-momentum"): ("0x1.7e4f65ffc45f1p+1", "0x1.7e90ef371025bp+1"),
    (10**-1.5, "husimi", "torsional"): ("0x1.6b92b5bdf989dp-1", "0x1.6654cd6e73bb7p-1"),
    (10**-1.5, "husimi", "quartic-momentum"): ("0x1.99a4f0dcb7d89p+1", "0x1.7e90ef371025bp+1"),
    (0.01, "mu", "torsional"): ("0x1.62b9a6dfce7cap-1", "0x1.62b91e08d9a2ap-1"),
    (0.01, "mu", "quartic-momentum"): ("0x1.6c51eb851eb8bp+1", "0x1.6c58793dd97f6p+1"),
    (0.01, "husimi", "torsional"): ("0x1.6464eb67ddeeap-1", "0x1.62b91e08d9a2ap-1"),
    (0.01, "husimi", "quartic-momentum"): ("0x1.74be0ded288d4p+1", "0x1.6c58793dd97f6p+1"),
    (10**-2.5, "mu", "torsional"): ("0x1.6194090d90ec2p-1", "0x1.6193fb5479ecfp-1"),
    (10**-2.5, "mu", "quartic-momentum"): ("0x1.66a18a332d3d0p+1", "0x1.66a231f8d983cp+1"),
    (10**-2.5, "husimi", "torsional"): ("0x1.621b9cac0a29fp-1", "0x1.6193fb5479ecfp-1"),
    (10**-2.5, "husimi", "quartic-momentum"): ("0x1.6945b37d0b960p+1", "0x1.66a231f8d983cp+1"),
    (0.001, "mu", "torsional"): ("0x1.61372f68492e4p-1", "0x1.61372e08a9053p-1"),
    (0.001, "mu", "quartic-momentum"): ("0x1.64d4fdf3b6459p+1", "0x1.64d50ebaade65p+1"),
    (0.001, "husimi", "torsional"): ("0x1.61621acaec528p-1", "0x1.61372e08a9053p-1"),
    (0.001, "husimi", "quartic-momentum"): ("0x1.65aa3f034b0e0p+1", "0x1.64d50ebaade65p+1"),
}
ACCURACY_SWEEP_SLOPES = {
    ("mu", "torsional"): "0x1.fde71525d93bfp+0",
    ("mu", "quartic-momentum"): "0x1.fffffffff164bp+0",
    ("husimi", "torsional"): "0x1.fc39cc035f507p-1",
    ("husimi", "quartic-momentum"): "0x1.0475e0ca8c82dp+0",
}


def test_accuracy_sweep_default_run():
    result = run_accuracy_sweep()
    cols = result.columns
    got = {
        (row[cols.index("h")], row[cols.index("method")], row[cols.index("observable")]): (
            float(row[cols.index("estimate")]).hex(),
            float(row[cols.index("reference")]).hex(),
        )
        for row in result.rows
    }
    assert got == ACCURACY_SWEEP
    assert {key: slope.hex() for key, slope in result.slopes.items()} == ACCURACY_SWEEP_SLOPES


def test_henon_heiles_halton_run():
    result = run_henon_heiles(d_list=(2, 8), n=2**15, sampler="halton")
    cols = result.columns
    got = {
        (row[cols.index("d")], row[cols.index("observable")]): (
            float(row[cols.index("estimate")]).hex(),
            float(row[cols.index("reference")]).hex(),
        )
        for row in result.rows
    }
    assert got == HENON_HEILES_HALTON


@pytest.mark.parametrize("workers", [1, 2])
def test_philox_estimate(workers):
    spec = HenonHeilesSpec(d=8)
    total = henon_heiles_total(spec)
    observables = (*total.parts, total)
    results = estimate_expectation(
        spec.benchmark_state(), observables, n=100_000,
        source=PointSource(dimension=18, seed=11), workers=workers,
    )
    got = {
        A.label: (r.value.hex(), r.stderr.hex(), r.mean_husimi.hex(), r.mean_hermite.hex())
        for A, r in zip(observables, results)
    }
    assert got == PHILOX_D8
