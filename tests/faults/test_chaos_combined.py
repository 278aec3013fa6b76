"""Chaos composed with the traffic and attack planes.

The ``repro chaos`` harness must keep isolating the fault profile when
the other planes are installed.  Each run measures one study day
(``collect_day`` + ``scan_day``) on two same-seed worlds:

* an equivalence fault profile leaves that measured day byte-identical
  under background surge *and* an attack campaign (both worlds drive
  the identical campaign).  The claim is for the one measured day only:
  across a multi-day study under surge, a lost packet followed by a
  throttled retry can still quarantine a healthy nameserver (a known
  resolver defect, pinned as a strict xfail in
  ``tests/traffic/test_throttle_tolerance.py``);
* the attack-aware ``attack-collateral`` profile degrades explicitly
  while floods are in flight;
* switching attacks off leaves the harness reproducible and
  attack-free.

The fault, unmeasured-site and quarantine tallies are pinned per case.
"""

import pytest

from repro.faults.chaos import _run_workloads, run_chaos

POPULATION = 200
SEED = 2018
WARMUP = 8


class TestEquivalenceUnderCombinedPlanes:
    def test_lossy_default_holds_under_surge_and_quiet_attacks(self):
        payload = run_chaos(
            "lossy-default",
            population=POPULATION,
            seed=SEED,
            warmup_days=WARMUP,
            traffic="surge",
            attacks="quiet",
        )
        assert payload["passed"]
        assert payload["identical"]
        assert payload["divergences"] == []
        assert payload["faults_injected"] == 148
        assert payload["unmeasured_sites"] == 0
        assert payload["quarantined_nameservers"] == []
        assert payload["traffic"] == "surge"
        assert payload["attacks"] == "quiet"

    def test_lossy_default_holds_mid_campaign(self):
        # Both worlds drive the identical campaign; the equivalence
        # profile's faults stay inside the retry budget even while
        # floods are opening outage windows around them.
        payload = run_chaos(
            "lossy-default",
            population=POPULATION,
            seed=SEED,
            warmup_days=WARMUP,
            traffic="surge",
            attacks="campaign",
        )
        assert payload["passed"]
        assert payload["identical"]
        assert payload["faults_injected"] == 162
        assert payload["unmeasured_sites"] == 0
        assert payload["quarantined_nameservers"] == []


class TestAttackCollateral:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_chaos(
            "attack-collateral",
            population=POPULATION,
            seed=SEED,
            warmup_days=WARMUP,
            traffic="surge",
            attacks="campaign",
        )

    def test_degrades_explicitly_and_passes(self, payload):
        assert payload["passed"]
        assert payload["faults_injected"] > 0
        assert (
            payload["unmeasured_sites"] > 0
            or payload["quarantined_nameservers"]
            or payload["counters"].get("resolver.gave_up", 0) > 0
        )

    def test_degradation_tallies_pinned(self, payload):
        assert payload["faults_injected"] == 603
        assert payload["unmeasured_sites"] == 12
        assert len(payload["quarantined_nameservers"]) == 7

    def test_divergence_is_reported_not_hidden(self, payload):
        assert not payload["identical"]
        assert payload["divergences"]


class TestAttackOffBaseline:
    def test_attacks_off_is_reproducible_and_attack_free(self):
        """``--attacks none`` takes the exact pre-attack-plane path: the
        artifacts are deterministic and no attack counter ever fires.
        (The cross-version byte-identity itself is held by the CI bench
        gate diffing against the pre-attack baseline file.)"""
        first, observability = _run_workloads(
            POPULATION, SEED, WARMUP, None, traffic=None, attacks=None
        )
        again, _ = _run_workloads(
            POPULATION, SEED, WARMUP, None, traffic=None, attacks=None
        )
        assert first == again
        assert not any(
            name.startswith("attacks.")
            for name in observability["counters"]
        )

    def test_payload_records_attacks_off_as_none(self):
        payload = run_chaos(
            "lossy-default",
            population=120,
            seed=7,
            warmup_days=4,
        )
        assert payload["attacks"] is None
        assert payload["traffic"] is None
        assert payload["passed"]
        assert payload["identical"]
        assert payload["faults_injected"] == 118
