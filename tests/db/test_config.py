"""RunConfig: per-mode validation, defaults, and the no-silent-drop rule."""

import dataclasses

import pytest

from repro.db import MODE_OPTIONS, RunConfig
from repro.engine.retry import RetryPolicy


def test_mode_options_are_the_run_config_fields_in_order():
    """``MODE_OPTIONS`` is computed from ``fields(RunConfig)``; this is
    the literal tuple it replaced."""
    assert MODE_OPTIONS == (
        "scheduler", "workers", "batch_size", "deterministic", "retry",
        "gc_every", "epoch_max_steps", "lookahead", "trace", "audit",
    )
    assert len(dataclasses.fields(RunConfig)) == 13


class TestValidation:
    """Options a mode cannot honor are errors at construction —
    the satellite fix for ``_run_serial`` silently ignoring
    ``batch_size``/``deterministic``."""

    def test_serial_rejects_batch_size(self):
        with pytest.raises(ValueError, match="batch_size.*serial"):
            RunConfig(mode="serial", batch_size=8)

    def test_serial_rejects_nondeterministic(self):
        # The serial driver is single-threaded and seeded; it cannot
        # run non-deterministically, so False is a contradiction...
        with pytest.raises(ValueError, match="deterministic"):
            RunConfig(mode="serial", deterministic=False)

    def test_serial_accepts_deterministic_true(self):
        # ...while True is simply what every serial run already is.
        config = RunConfig(mode="serial", deterministic=True)
        assert config.deterministic is True

    @pytest.mark.parametrize(
        "option, value",
        [
            ("scheduler", "mvto"),
            ("retry", 3),
            ("epoch_max_steps", 64),
            ("gc_every", 8),
        ],
    )
    def test_planner_rejects_online_mode_options(self, option, value):
        with pytest.raises(ValueError, match=f"{option}.*planner"):
            RunConfig(mode="planner", **{option: value})

    def test_error_lists_applicable_options(self):
        with pytest.raises(ValueError, match="applicable options"):
            RunConfig(mode="planner", scheduler="si")

    def test_unknown_mode_lists_choices(self):
        with pytest.raises(ValueError, match="parallel.*planner.*serial"):
            RunConfig(mode="quantum")

    @pytest.mark.parametrize(
        "mode", ["serial", "parallel", "planner", "pipelined"]
    )
    def test_counts_must_be_positive(self, mode):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(mode=mode, workers=0)

    @pytest.mark.parametrize("lookahead", [1, 2])
    @pytest.mark.parametrize("mode", ["serial", "parallel", "planner"])
    def test_lookahead_applies_only_to_pipelined(self, mode, lookahead):
        with pytest.raises(ValueError, match=f"lookahead.*{mode}"):
            RunConfig(mode=mode, lookahead=lookahead)

    def test_lookahead_must_be_positive(self):
        with pytest.raises(ValueError, match="lookahead"):
            RunConfig(mode="pipelined", lookahead=0)

    @pytest.mark.parametrize(
        "mode, option, value",
        [
            ("parallel", "deterministic", "false"),
            ("parallel", "deterministic", 0),
            ("serial", "gc", "no"),
            ("planner", "audit", 1),
            ("serial", "audit", "yes"),
            ("parallel", "workers", 2.5),
            ("parallel", "workers", True),
            ("parallel", "batch_size", "8"),
            ("serial", "epoch_max_steps", 64.0),
            ("pipelined", "lookahead", False),
            ("serial", "gc_every", "32"),
        ],
    )
    def test_options_must_have_their_declared_type(self, mode, option, value):
        """A wrongly typed option is a ``ValueError`` naming it (the CLI's
        usage error), not a silently truthy flag, a float worker count
        that dies mid-run, or a ``TypeError`` from the range check."""
        with pytest.raises(ValueError, match=f"^{option} must be"):
            RunConfig(mode=mode, **{option: value})

    def test_retry_must_be_policy_or_int(self):
        with pytest.raises(ValueError, match="retry"):
            RunConfig(mode="serial", retry="often")

    def test_retry_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RunConfig(mode="serial", retry=0)


class TestResolution:
    """Unset applicable options resolve to the backend's defaults, so a
    constructed config is always concrete."""

    def test_parallel_defaults(self):
        config = RunConfig(mode="parallel")
        assert config.scheduler == "mvto"
        assert config.workers == 4
        assert config.batch_size == 8
        assert config.deterministic is False
        assert config.epoch_max_steps == 128
        assert isinstance(config.retry, RetryPolicy)

    def test_serial_is_deterministic_by_default(self):
        assert RunConfig(mode="serial").deterministic is True

    def test_planner_leaves_inapplicable_unset(self):
        config = RunConfig(mode="planner")
        assert config.batch_size == 64
        assert config.scheduler is None
        assert config.retry is None
        assert config.epoch_max_steps is None
        assert config.lookahead is None  # a pipelined-only echo

    def test_pipelined_defaults(self):
        config = RunConfig(mode="pipelined")
        assert config.workers == 4
        assert config.batch_size == 64
        assert config.deterministic is False
        assert config.lookahead == 1
        assert config.scheduler is None and config.retry is None

    def test_retry_int_shorthand(self):
        config = RunConfig(mode="serial", retry=3)
        assert config.retry == RetryPolicy(max_attempts=3)

    def test_explicit_values_survive(self):
        config = RunConfig(
            mode="parallel", workers=2, batch_size=16, seed=9
        )
        assert (config.workers, config.batch_size, config.seed) == (2, 16, 9)

    def test_frozen(self):
        config = RunConfig(mode="serial")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 8

    def test_as_dict_is_json_ready_and_ordered(self):
        import json

        d = RunConfig(mode="parallel", retry=2).as_dict()
        json.dumps(d)  # no TypeError: RetryPolicy serialized
        assert list(d)[:2] == ["mode", "scheduler"]
        assert d["retry"]["max_attempts"] == 2
