"""Sharded studies merge to the unsharded answer.

Two layers of guarantee, each tested:

* **Bit-equality across shardings** — per-point MC seeds derive from
  point content, never the sharding, so any shard size merges to the
  *identical* rows and tallies.
* **Statistical equivalence to an independent run** — merged study
  tallies are estimates of the same transmission physics an
  independent-seed direct run estimates; a two-proportion z test
  (the cross-engine idiom from ``test_transport_equivalence``) must
  not reject at ``_Z_MAX`` sigma.
"""

import json
import math

import pytest

from repro.runtime.budget import RetryPolicy
from repro.service.protocol import SHIELDS
from repro.spectra.beamlines import rotax_spectrum
from repro.studies.scheduler import StudyScheduler
from repro.studies.spec import StudySpec
from repro.transport.api import TransportQuery, answer

#: Same gate as the engine cross-validation suite: fixed seeds make
#: this deterministic, so a trip is a real divergence.
_Z_MAX = 4.0

N_NEUTRONS = 2_000

_AXES = {
    "site": ("nyc", "leadville"),
    "shield": ("none", "water", "cadmium"),
}


def _no_sleep(_delay_s):
    pass


def _spec(shard_size):
    return StudySpec(
        name="equiv",
        axes=_AXES,
        seed=2020,
        n_neutrons=N_NEUTRONS,
        shard_size=shard_size,
    )


def _run(tmp_path, shard_size):
    return StudyScheduler(
        _spec(shard_size),
        ledger_path=tmp_path / f"s{shard_size}" / "ledger.jsonl",
        store_root=tmp_path / f"s{shard_size}" / "store",
        retry=RetryPolicy(),
        sleep=_no_sleep,
    ).run()


def _two_proportion_z(count_a, count_b, n):
    pooled = (count_a + count_b) / (2.0 * n)
    variance = max(pooled * (1.0 - pooled), 0.0) * 2.0 / n
    if variance == 0.0:
        return 0.0 if count_a == count_b else math.inf
    return abs(count_a - count_b) / (n * math.sqrt(variance))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("study-equiv")
    return {
        size: _run(root, size) for size in (1, 2, 6)
    }


class TestBitEquality:
    def test_all_shardings_complete(self, runs):
        for outcome in runs.values():
            assert outcome.status == "complete"

    def test_tallies_identical_across_shardings(self, runs):
        tallies = [
            outcome.report.tallies for outcome in runs.values()
        ]
        assert tallies[0]["mc_source"] > 0
        assert all(t == tallies[0] for t in tallies[1:])

    def test_rows_identical_across_shardings(self, runs):
        canons = [
            json.dumps(
                [dict(r) for r in outcome.report.rows],
                sort_keys=True,
            )
            for outcome in runs.values()
        ]
        assert all(c == canons[0] for c in canons[1:])

    def test_merged_tallies_equal_row_sums(self, runs):
        report = runs[2].report
        assert report.tallies["mc_source"] == sum(
            r["mc_source"] for r in report.rows
        )
        assert report.tallies["mc_transmitted_thermal"] == sum(
            r["mc_transmitted_thermal"] for r in report.rows
        )


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("shield", ["water", "cadmium"])
    def test_merged_transmission_matches_independent_run(
        self, runs, shield
    ):
        """Study rows vs a fresh independent-seed direct run: same
        physics, different dice, z below the gate per point."""
        report = runs[6].report
        material, thickness_cm = SHIELDS[shield]
        for row in report.rows:
            if row["point"]["shield"] != shield:
                continue
            independent = answer(
                TransportQuery(
                    mode="transmission",
                    material=material,
                    thickness_cm=thickness_cm,
                    source_spectrum=rotax_spectrum(),
                    n_neutrons=N_NEUTRONS,
                    seed=987_654,
                    engine="batch",
                ),
                store=None,
            ).result
            z = _two_proportion_z(
                row["mc_transmitted_thermal"],
                independent.transmitted_thermal,
                N_NEUTRONS,
            )
            assert z < _Z_MAX, (
                f"{row['point']}: study="
                f"{row['mc_transmitted_thermal']}"
                f" independent={independent.transmitted_thermal}"
                f" z={z:.2f}"
            )

    def test_sharded_vs_unsharded_z_is_zero(self, runs):
        """The z statistic between shardings is exactly zero — the
        statistical claim is implied by the bit-equality one."""
        a = runs[1].report.tallies
        b = runs[6].report.tallies
        z = _two_proportion_z(
            a["mc_transmitted_thermal"],
            b["mc_transmitted_thermal"],
            a["mc_source"],
        )
        assert z == 0.0
