"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import scenario as scenario_module
from repro.experiments import summary as summary_module
from repro.mdp.state import RecoveryState
from repro.policies.serialization import save_policy
from repro.policies.trained import TrainedPolicy
from repro.recoverylog.io import write_log_jsonl


@pytest.fixture(scope="module")
def log_path(tmp_path_factory, small_trace):
    path = tmp_path_factory.mktemp("cli") / "cluster.jsonl"
    write_log_jsonl(small_trace.log, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--out", "x.jsonl", "--scale", "small"]
        )
        assert args.command == "generate"
        assert args.scale == "small"


class TestGenerate:
    def test_generate_jsonl(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        code = main(
            ["generate", "--out", str(out), "--scale", "small",
             "--seed", "3"]
        )
        assert code == 0
        assert out.exists()
        assert "recovery processes" in capsys.readouterr().out

    def test_generate_text(self, tmp_path, capsys):
        out = tmp_path / "log.tsv"
        code = main(
            ["generate", "--out", str(out), "--scale", "small",
             "--format", "text", "--seed", "3"]
        )
        assert code == 0
        first = out.read_text().splitlines()[0]
        assert len(first.split("\t")) == 3


class TestInspect:
    def test_inspect_prints_calibration(self, log_path, capsys):
        assert main(["inspect", "--log", log_path]) == 0
        out = capsys.readouterr().out
        assert "Trace calibration" in out
        assert "Repair-action usage" in out

    def test_missing_file_is_error(self, capsys):
        assert main(["inspect", "--log", "/nonexistent.jsonl"]) == 1
        assert "error" in capsys.readouterr().err


class TestMine:
    def test_mine_reports_clusters(self, log_path, capsys):
        assert main(["mine", "--log", log_path]) == 0
        out = capsys.readouterr().out
        assert "symptom clusters" in out
        assert "coverage" in out


class TestTrainEvaluate:
    def test_train_then_evaluate(self, log_path, tmp_path, capsys):
        policy_path = tmp_path / "policy.json"
        code = main(
            [
                "train",
                "--log", log_path,
                "--out", str(policy_path),
                "--fraction", "0.5",
                "--top-k", "3",
            ]
        )
        assert code == 0
        assert policy_path.exists()
        out = capsys.readouterr().out
        assert "state-action rules" in out

        code = main(
            [
                "evaluate",
                "--log", log_path,
                "--policy", str(policy_path),
                "--fraction", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "user-defined" in out
        assert "hybrid" in out


class TestTrainParallelFlags:
    def test_train_reports_worker_count(self, log_path, tmp_path, capsys):
        policy_path = tmp_path / "policy.json"
        code = main(
            [
                "train",
                "--log", log_path,
                "--out", str(policy_path),
                "--top-k", "2",
                "--workers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workers=1" in out
        assert "episodes" in out

    def test_resume_requires_checkpoint_dir(self, log_path, tmp_path,
                                            capsys):
        code = main(
            [
                "train",
                "--log", log_path,
                "--out", str(tmp_path / "policy.json"),
                "--resume",
            ]
        )
        assert code == 1
        assert "checkpoint_dir" in capsys.readouterr().err

    def test_resumed_run_reuses_checkpoints_and_policy(
        self, log_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        first_policy = tmp_path / "first.json"
        second_policy = tmp_path / "second.json"
        base = [
            "train",
            "--log", log_path,
            "--top-k", "2",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(base + ["--out", str(first_policy)]) == 0
        first_out = capsys.readouterr().out
        assert "error types from checkpoints" not in first_out
        assert any(ckpt.glob("*.json"))

        assert main(base + ["--out", str(second_policy), "--resume"]) == 0
        second_out = capsys.readouterr().out
        assert "resumed 2 error types" in second_out
        assert "trained 0 error types" in second_out
        # The resumed policy is byte-identical to the fresh one.
        assert second_policy.read_text() == first_policy.read_text()

    @pytest.mark.slow
    def test_resumed_partial_run_matches_uninterrupted_policy(
        self, log_path, tmp_path, capsys
    ):
        """A run stopped inside one type resumes to the same bytes.

        Checkpoints are written atomically, so a run killed inside a
        type's course leaves every finished type's checkpoint and none
        of its own.  Deleting one checkpoint after a full run is that
        state, reached without killing anything or timing a signal.
        """
        ckpt = tmp_path / "ckpt"
        full_policy = tmp_path / "full.json"
        resumed_policy = tmp_path / "resumed.json"
        base = [
            "train",
            "--log", log_path,
            "--top-k", "2",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(base + ["--out", str(full_policy)]) == 0
        capsys.readouterr()
        checkpoints = sorted(ckpt.glob("*.json"))
        assert len(checkpoints) == 2
        checkpoints[0].unlink()

        assert main(
            base + ["--out", str(resumed_policy), "--resume", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed 1 error types" in out
        assert "trained 1 error types" in out
        assert resumed_policy.read_bytes() == full_policy.read_bytes()

    @pytest.mark.slow
    def test_parallel_train_produces_identical_policy(
        self, log_path, tmp_path, capsys
    ):
        serial_policy = tmp_path / "serial.json"
        parallel_policy = tmp_path / "parallel.json"
        base = ["train", "--log", log_path, "--top-k", "2"]
        assert main(base + ["--out", str(serial_policy)]) == 0
        assert main(
            base + ["--out", str(parallel_policy), "--workers", "2"]
        ) == 0
        assert "workers=2" in capsys.readouterr().out
        assert parallel_policy.read_text() == serial_policy.read_text()


class TestExperiment:
    @pytest.mark.parametrize("figure", ["table1", "fig3", "fig5", "fig6"])
    def test_light_figures_on_small_scale(self, figure, capsys):
        code = main(
            ["experiment", "--figure", figure, "--scale", "small",
             "--seed", "13"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()


class TestSummaryGate:
    """``experiment --figure summary`` fails when an audited shape
    diverges, so CI can gate on the paper audit."""

    @pytest.mark.parametrize("holds", [True, False])
    def test_exit_status_follows_the_verdict(
        self, monkeypatch, capsys, holds
    ):
        row = summary_module.SummaryRow("Fig 9", "q", "p", "m", holds)
        monkeypatch.setattr(
            scenario_module, "build_scenario", lambda config: None
        )
        monkeypatch.setattr(
            summary_module,
            "reproduction_summary",
            lambda scenario: summary_module.ReproductionSummary((row,)),
        )
        code = main(["experiment", "--figure", "summary", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == (0 if holds else 1)
        assert ("SOME SHAPES DIVERGE" in out) is not holds


class TestMalformedInput:
    """Bad values end in one ``error:`` line and exit status 1, never
    in a traceback or a silent default."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--out", "{tmp}/x.jsonl", "--scale", "small"],
            ["experiment", "--figure", "fig3", "--scale", "small"],
            ["serve", "--policy", "{tmp}/p.json", "--fleet-machines", "10"],
        ],
        ids=["generate", "experiment", "serve"],
    )
    def test_negative_seed_is_error(self, argv, tmp_path, capsys):
        save_policy(
            TrainedPolicy(
                {RecoveryState.initial("error:X"): ("REBOOT", 10.0)}
            ),
            tmp_path / "p.json",
        )
        argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().endswith(
            "error: seed must be a non-negative integer, got -1"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["inspect", "--log", "{dir}"],
            ["mine", "--log", "{dir}"],
            ["train", "--log", "{dir}", "--out", "{tmp}/p.json"],
            ["evaluate", "--log", "{log}", "--policy", "{dir}"],
            ["export-policy", "--policy", "{dir}", "--out", "{tmp}/p.rpb"],
            ["serve", "--policy", "{dir}", "--storm", "10"],
            ["train", "--log", "{log}", "--out", "{dir}", "--top-k", "1"],
            ["train", "--log", "{log}", "--out", "{tmp}/p.json",
             "--top-k", "1", "--checkpoint-dir", "{file}"],
        ],
        ids=[
            "inspect-log", "mine-log", "train-log", "evaluate-policy",
            "export-policy", "serve-policy", "train-out",
            "train-checkpoint-dir",
        ],
    )
    def test_path_of_the_wrong_kind_is_error(
        self, log_path, tmp_path, capsys, argv
    ):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        places = {
            "dir": tmp_path / "dir",
            "file": tmp_path / "file",
            "log": log_path,
            "tmp": tmp_path,
        }
        assert main([arg.format(**places) for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("fraction", ["1.5", "0", "-0.5", "nan"])
    def test_train_fraction_outside_unit_interval_is_error(
        self, log_path, tmp_path, capsys, fraction
    ):
        out = tmp_path / "p.json"
        code = main(
            ["train", "--log", log_path, "--out", str(out),
             "--fraction", fraction, "--top-k", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: --fraction must be in (0, 1]"
        )
        assert not out.exists()


class TestLogFormatFlag:
    @pytest.fixture(scope="class")
    def jsonl_with_log_suffix(self, tmp_path_factory, small_trace):
        # Regression: JSONL content behind a .log suffix must parse as
        # JSONL on every log-consuming subcommand (the old reader chose
        # the parser from the extension and exploded here).
        path = tmp_path_factory.mktemp("fmt") / "cluster.log"
        write_log_jsonl(small_trace.log, path)
        return str(path)

    def test_inspect_sniffs_jsonl_in_dot_log(
        self, jsonl_with_log_suffix, capsys
    ):
        assert main(["inspect", "--log", jsonl_with_log_suffix]) == 0
        assert "Trace calibration" in capsys.readouterr().out

    def test_mine_sniffs_jsonl_in_dot_log(
        self, jsonl_with_log_suffix, capsys
    ):
        assert main(["mine", "--log", jsonl_with_log_suffix]) == 0
        assert "symptom clusters" in capsys.readouterr().out

    def test_explicit_format_overrides_sniffing(
        self, jsonl_with_log_suffix, capsys
    ):
        assert main(
            ["mine", "--log", jsonl_with_log_suffix,
             "--log-format", "jsonl"]
        ) == 0
        capsys.readouterr()

    def test_wrong_explicit_format_is_error(
        self, jsonl_with_log_suffix, capsys
    ):
        assert main(
            ["mine", "--log", jsonl_with_log_suffix,
             "--log-format", "text"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_format_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--log", "x", "--log-format", "xml"]
            )


class TestMineStream:
    def test_stream_matches_eager_report(self, log_path, capsys):
        assert main(["mine", "--log", log_path]) == 0
        eager_out = capsys.readouterr().out
        assert main(["mine", "--log", log_path, "--stream"]) == 0
        stream_out = capsys.readouterr().out
        eager_head = eager_out.splitlines()[:2]
        stream_head = stream_out.splitlines()[:2]
        assert eager_head == stream_head  # clusters + noise lines agree
        assert "streamed" in stream_out

    def test_stream_chunk_size_does_not_change_report(
        self, log_path, capsys
    ):
        assert main(["mine", "--log", log_path, "--stream"]) == 0
        default_out = capsys.readouterr().out
        assert main(
            ["mine", "--log", log_path, "--stream", "--chunk-size", "17"]
        ) == 0
        assert capsys.readouterr().out == default_out
