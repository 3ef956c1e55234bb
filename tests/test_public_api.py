"""Smoke tests of the public API surface."""

import importlib
import pkgutil

import pytest

import repro


def _exported_names():
    """One param per name in the ``__all__`` of every ``repro`` module.

    Top-level names keep their bare ids; the rest are qualified by
    their module.
    """
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    return [
        pytest.param(
            module,
            name,
            id=name if module is repro else f"{module.__name__}.{name}",
        )
        for module in modules
        for name in getattr(module, "__all__", ())
    ]


class TestExports:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module, name", _exported_names())
    def test_all_names_resolve(self, module, name):
        """``from module import *`` would raise on a name that fails."""
        assert getattr(module, name) is not None

    def test_quickstart_flow_smoke(self, small_trace):
        """The README/quickstart call sequence works end to end."""
        from repro import (
            PipelineConfig,
            RecoveryPolicyLearner,
            time_ordered_split,
        )
        from repro.learning.qlearning import QLearningConfig
        from repro.learning.selection_tree import SelectionTreeConfig

        train, test = time_ordered_split(
            small_trace.log.to_processes(), 0.5
        )
        config = PipelineConfig(
            top_k_types=4,
            qlearning=QLearningConfig(
                max_sweeps=80, episodes_per_sweep=16
            ),
            tree=SelectionTreeConfig(min_sweeps=30, check_interval=15),
        )
        learner = RecoveryPolicyLearner(config=config).fit(train)
        result = learner.make_evaluator(test).evaluate(
            learner.hybrid_policy()
        )
        assert 0.0 < result.overall_relative_cost <= 1.1

    def test_log_round_trip_via_api(self, tmp_path, small_trace):
        from repro import read_log_jsonl, write_log_jsonl

        path = tmp_path / "log.jsonl"
        write_log_jsonl(small_trace.log, path)
        assert read_log_jsonl(path) == small_trace.log
