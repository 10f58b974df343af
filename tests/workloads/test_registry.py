"""The scenario registry: names, parameter validation, uniform interface."""

import pytest

from repro.workloads import (
    SCENARIOS,
    scenario_factory,
    scenario_names,
    scenario_spec,
)


class TestRegistry:
    def test_names(self):
        assert scenario_names() == (
            "bank", "inventory", "sharded-bank", "abort-heavy",
            "read-mostly",
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="one of.*sharded-bank"):
            scenario_factory("tpc-c")

    def test_unknown_param_lists_valid_ones(self):
        with pytest.raises(ValueError, match="n_accounts"):
            scenario_factory("bank", n_warehouses=3)

    @pytest.mark.parametrize(
        "name, params, message",
        [
            # a transfer needs two accounts; the failure used to be
            # random.sample's "Sample larger than population" mid-stream.
            ("bank", {"n_accounts": 1}, "n_accounts must be >= 2"),
            ("bank", {"n_accounts": 0}, "n_accounts must be >= 2"),
            ("bank", {"hot_fraction": 1.5},
             r"hot_fraction must be in \[0, 1\]"),
            ("bank", {"hot_fraction": -0.1},
             r"hot_fraction must be in \[0, 1\]"),
            # ...and here an IndexError from rng.choice.
            ("inventory", {"n_warehouses": 0},
             "n_warehouses must be >= 1"),
            # the sharded scenarios' existing construction-time check.
            ("sharded-bank", {"accounts_per_shard": 1},
             "accounts_per_shard must be >= 2"),
        ],
    )
    def test_degenerate_sizes_fail_at_construction(
        self, name, params, message
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scenario_factory(name, **params)

    def test_smallest_valid_sizes_stream(self):
        for name, params in (
            ("bank", {"n_accounts": 2, "hot_fraction": 1.0}),
            ("inventory", {"n_warehouses": 1}),
        ):
            scenario = scenario_factory(name, seed=0, **params)
            assert len(list(scenario.transaction_stream(5))) == 5

    def test_every_spec_documents_itself(self):
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert spec.description
            assert "seed" in spec.params

    @pytest.mark.parametrize("name", scenario_names())
    def test_uniform_interface(self, name):
        scenario = scenario_factory(name, seed=3)
        initial = scenario.initial_state()
        assert initial
        drained = list(scenario.transaction_stream(5))
        assert len(drained) == 5
        assert scenario.invariant_holds(initial)

    def test_bank_binds_audit_every(self):
        scenario = scenario_factory(
            "bank", n_accounts=4, audit_every=2, seed=0
        )
        txns = [t for t, _ in scenario.transaction_stream(6)]
        audits = [t for t in txns if all(s.is_read for s in t.steps)]
        assert len(audits) == 3

    def test_spec_param_sets_match_factories(self):
        """Every declared parameter is actually accepted — a spec that
        drifted from its factory would turn valid knobs into errors."""
        defaults = {
            "bank": {}, "inventory": {},
            "sharded-bank": {}, "abort-heavy": {}, "read-mostly": {},
        }
        probe = {
            "n_accounts": 4, "hot_fraction": 0.1, "audit_every": 3,
            "audit_width": 2, "initial_balance": 50, "seed": 1,
            "n_warehouses": 3, "initial_stock": 9,
            "n_shards": 2, "accounts_per_shard": 3,
            "cross_fraction": 0.2, "hot_shards": 1,
            "read_fraction": 0.5, "hot_keys": 1, "read_width": 2,
            "abort_fraction": 0.3,
        }
        for name, spec in SCENARIOS.items():
            params = {
                key: probe[key] for key in spec.params
            }
            params.update(defaults[name])
            scenario = scenario_factory(name, **params)
            assert scenario.invariant_holds(scenario.initial_state())
