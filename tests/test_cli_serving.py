"""Tests for the serving-side CLI: export-policy, serve, lint budget."""

import json

import numpy as np
import pytest

from helpers import MISTYPED_RECORD_FIELDS
from repro.cli import build_parser, main
from repro.mdp.state import RecoveryState
from repro.policies.serialization import save_policy
from repro.policies.trained import TrainedPolicy

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)


@pytest.fixture
def policy_path(tmp_path):
    policy = TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)}, label="cli"
    )
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    return str(path)


class TestExportPolicy:
    def test_exports_binary(self, policy_path, tmp_path, capsys):
        out = tmp_path / "policy.rpb"
        code = main(
            ["export-policy", "--policy", policy_path, "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes()[:8] == b"RPROPOLB"
        assert "exported 2 rules" in capsys.readouterr().out

    def test_verify_flag_checks_round_trip(self, policy_path, tmp_path, capsys):
        out = tmp_path / "policy.rpb"
        code = main(
            [
                "export-policy",
                "--policy", policy_path,
                "--out", str(out),
                "--verify",
            ]
        )
        assert code == 0
        assert "decide identically" in capsys.readouterr().out

    def test_verify_flag_catches_a_diverging_cost(
        self, policy_path, tmp_path, capsys, monkeypatch
    ):
        from repro.policies import serialization

        writer = serialization.save_policy_binary

        def nudged_writer(policy, path):
            rules = policy.rules
            action, cost = rules[S1]
            rules[S1] = (action, float(np.nextafter(cost, np.inf)))
            return writer(TrainedPolicy(rules, label=policy.name), path)

        monkeypatch.setattr(serialization, "save_policy_binary", nudged_writer)
        out = tmp_path / "policy.rpb"
        code = main(
            [
                "export-policy",
                "--policy", policy_path,
                "--out", str(out),
                "--verify",
            ]
        )
        assert code == 1
        assert "diverge" in capsys.readouterr().err


class TestServe:
    def test_queries_mode_answers_jsonl(self, policy_path, tmp_path, capsys):
        binary = tmp_path / "policy.rpb"
        main(["export-policy", "--policy", policy_path, "--out", str(binary)])
        capsys.readouterr()
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            "\n".join(
                [
                    json.dumps({"error_type": "error:X", "tried": []}),
                    json.dumps(
                        {"error_type": "error:X", "tried": ["REIMAGE"]}
                    ),
                    json.dumps({"error_type": "error:unknown", "tried": []}),
                ]
            )
            + "\n"
        )
        answers = tmp_path / "answers.jsonl"
        code = main(
            [
                "serve",
                "--policy", str(binary),
                "--queries", str(queries),
                "--out", str(answers),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in answers.read_text().splitlines()
            if line.strip()
        ]
        assert [r["action"] for r in records] == ["REIMAGE", "RMA", "TRYNOP"]
        assert [r["fell_back"] for r in records] == [False, False, True]
        assert "serving 2 rules" in capsys.readouterr().err

    def test_serve_accepts_json_policy_directly(
        self, policy_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps({"error_type": "error:X", "tried": []}) + "\n"
        )
        answers = tmp_path / "answers.jsonl"
        code = main(
            [
                "serve",
                "--policy", policy_path,
                "--queries", str(queries),
                "--out", str(answers),
            ]
        )
        assert code == 0
        record = json.loads(answers.read_text().splitlines()[0])
        assert record["action"] == "REIMAGE"

    def test_storm_mode_prints_report(self, policy_path, tmp_path, capsys):
        binary = tmp_path / "policy.rpb"
        main(["export-policy", "--policy", policy_path, "--out", str(binary)])
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--policy", str(binary),
                "--storm", "2000",
                "--batch-size", "256",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decisions served" in out
        assert "2,000" in out
        assert "fallback rate" in out

    def test_fleet_mode_prints_summary(self, policy_path, capsys):
        code = main(
            [
                "serve",
                "--policy", policy_path,
                "--fleet-machines", "200",
                "--fleet-days", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet storm" in out
        assert "decisions by policy generation" in out

    def _serve_bad_line(self, policy_path, tmp_path, capsys, bad_line):
        """Serve two good queries and then ``bad_line``; the stderr."""
        queries = tmp_path / "queries.jsonl"
        good = json.dumps({"error_type": "error:X", "tried": []})
        queries.write_bytes(f"{good}\n\n{good}\n".encode() + bad_line)
        code = main(
            [
                "serve",
                "--policy", policy_path,
                "--queries", str(queries),
                "--out", str(tmp_path / "answers.jsonl"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: {queries}:4: ")
        return err

    @pytest.mark.parametrize(
        "bad_line, reason",
        [
            (b'{"error_type": "error:X", "tried": [\n', "bad JSON"),
            (b"not json\n", "bad JSON"),
            (b'{"error_type": "\xff", "tried": []}\n', "not valid UTF-8"),
            (b"[]\n", "bad state record"),
            (b'{"tried": []}\n', "bad state record"),
        ],
        ids=["truncated", "not-json", "not-utf8", "not-object", "no-type"],
    )
    def test_malformed_query_line_is_an_error(
        self, policy_path, tmp_path, capsys, bad_line, reason
    ):
        err = self._serve_bad_line(policy_path, tmp_path, capsys, bad_line)
        assert reason in err

    @pytest.mark.parametrize(
        "field, value",
        [p for p in MISTYPED_RECORD_FIELDS if p.values[0] != "action"],
    )
    def test_mistyped_query_field_is_an_error(
        self, policy_path, tmp_path, capsys, field, value
    ):
        record = {"error_type": "error:X", "tried": ["REBOOT"], field: value}
        err = self._serve_bad_line(
            policy_path, tmp_path, capsys, json.dumps(record).encode()
        )
        assert f"{field} must be a " in err

    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    @pytest.mark.parametrize(
        "mode",
        [
            ["--queries", "QUERIES"],
            ["--storm", "10"],
            ["--fleet-machines", "5"],
        ],
        ids=["queries", "storm", "fleet"],
    )
    def test_batch_size_below_one_is_an_error(
        self, policy_path, tmp_path, capsys, mode, batch_size
    ):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps({"error_type": "error:X", "tried": []}) + "\n"
        )
        mode = [str(queries) if arg == "QUERIES" else arg for arg in mode]
        code = main(
            ["serve", "--policy", policy_path, "--batch-size", batch_size]
            + mode
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: --batch-size must be >= 1, got {batch_size}"
        )

    def test_requires_exactly_one_mode(self, policy_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", policy_path])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "serve",
                    "--policy", policy_path,
                    "--storm", "10",
                    "--fleet-machines", "5",
                ]
            )


class TestLintBudget:
    def test_within_budget_behaves_normally(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code = main(
            ["lint", str(clean), "--budget-seconds", "60"]
        )
        assert code == 0

    def test_overrun_fails_and_prints_stage_timings(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code = main(
            ["lint", str(clean), "--budget-seconds", "0.000000001"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lint stats:" in err
        assert "budget" in err
        assert "after stage" in err
