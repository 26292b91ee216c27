"""Golden values: the exact doubles of fixed runs, pinned as ``float.hex``.

The reproducibility contract promises byte-identical numeric output for a
fixed configuration, and performance work keeps every digit.  These values
were recorded before the Halton outer-sum construction, the sum-observable
pass and the memoised moment reference, and any later change that moves one
of them must say so and record the new value.
"""

import pytest

from phasespec import PointSource, estimate_expectation
from phasespec.experiments import run_henon_heiles
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
