"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n == 1024
        assert args.protocol == "algorithm1"
        assert args.full_schedule is False

    def test_simulate_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "bogus"])

    def test_experiment_arguments(self):
        args = build_parser().parse_args(["experiment", "E1", "--full"])
        assert args.experiment_id == "E1"
        assert args.full is True

    def test_simulate_has_no_batch_flag(self):
        # Seeds always share one batched engine run when it applies.
        for flag in ("--batch", "--no-batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", flag])


class TestCommands:
    def test_list_protocols(self, capsys):
        assert main(["list-protocols"]) == 0
        output = capsys.readouterr().out
        assert "algorithm1" in output
        assert "push-pull" in output

    def test_list_graphs_shows_families_and_kwargs(self, capsys):
        assert main(["list-graphs"]) == 0
        output = capsys.readouterr().out
        assert "connected-random-regular" in output
        assert "hypercube" in output
        assert "dimension" in output  # kwargs help text

    def test_list_failures_shows_models_and_kwargs(self, capsys):
        assert main(["list-failures"]) == 0
        output = capsys.readouterr().out
        assert "reliable" in output
        assert "independent-loss" in output
        assert "transmission_loss_probability" in output

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E12" in output

    def test_simulate_small_run(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--n",
                "128",
                "--d",
                "6",
                "--protocol",
                "push",
                "--seeds",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "push" in output
        assert "aggregate over 2 runs" in output
        assert "batched x2" in output

    def test_simulate_single_seed_is_not_labelled_batched(self, capsys):
        exit_code = main(
            ["simulate", "--n", "128", "--d", "6", "--protocol", "push",
             "--seeds", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "aggregate over 1 runs" in output
        assert "[engine: vectorized]" in output

    def test_simulate_with_loss_and_full_schedule(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--n",
                "128",
                "--d",
                "6",
                "--protocol",
                "algorithm1",
                "--seeds",
                "1",
                "--loss",
                "0.1",
                "--full-schedule",
            ]
        )
        assert exit_code == 0
        assert "algorithm1" in capsys.readouterr().out

    def test_experiment_command_unknown_id(self):
        with pytest.raises(Exception):
            main(["experiment", "E99"])

    def test_simulate_dump_spec_to_stdout(self, capsys):
        exit_code = main(
            ["simulate", "--n", "128", "--d", "6", "--protocol", "push",
             "--seeds", "2", "--loss", "0.1", "--dump-spec"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["params"] == {"n": 128, "d": 6}
        assert payload["protocol"]["name"] == "push"
        assert payload["repetitions"] == 2
        assert payload["config"] == {"message_loss_probability": 0.1}

    def test_simulate_dump_spec_reproduces_the_run(self, tmp_path, capsys):
        from repro.experiments.results_io import load_table_json

        simulate_args = ["simulate", "--n", "128", "--d", "6", "--protocol",
                         "push", "--seeds", "3"]
        spec_path = tmp_path / "sim.json"
        assert main(simulate_args + ["--dump-spec", str(spec_path)]) == 0
        direct_path = tmp_path / "direct.json"
        assert main(simulate_args + ["--save", str(direct_path)]) == 0
        via_spec_path = tmp_path / "via_spec.json"
        assert main(["run-spec", str(spec_path), "--save", str(via_spec_path)]) == 0
        capsys.readouterr()

        direct_rows = load_table_json(direct_path).rows
        spec_rows = load_table_json(via_spec_path).rows
        # Same seeds, same engine: the per-run rounds of the direct invocation
        # must match the spec-driven aggregate exactly.
        per_run_rounds = [row["rounds"] for row in direct_rows]
        assert len(per_run_rounds) == 3
        assert spec_rows[0]["rounds_mean"] == sum(per_run_rounds) / len(per_run_rounds)
        assert spec_rows[0]["rounds_max"] == max(per_run_rounds)
        assert spec_rows[0]["tx_per_node"] == pytest.approx(
            sum(row["tx_per_node"] for row in direct_rows) / len(direct_rows)
        )

    def test_run_spec_command(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(
            ["simulate", "--n", "128", "--d", "6", "--seeds", "2",
             "--dump-spec", str(spec_path)]
        ) == 0
        capsys.readouterr()
        save_path = tmp_path / "out.json"
        assert main(["run-spec", str(spec_path), "--save", str(save_path)]) == 0
        output = capsys.readouterr().out
        assert "scenario: simulate" in output
        assert "success_rate" in output
        saved = json.loads(save_path.read_text())
        assert saved["metadata"]["spec"]["graph"]["params"]["n"] == 128

    def test_run_spec_missing_file_raises_configuration_error(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run-spec", "/nonexistent/spec.json"])

    def test_p2p_command(self, capsys):
        exit_code = main(
            [
                "p2p",
                "--peers",
                "64",
                "--d",
                "6",
                "--rule",
                "algorithm1",
                "--updates",
                "1",
                "--rounds",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "replication rate" in output
        assert "replicas agree" in output

    def test_p2p_command_with_churn_and_anti_entropy(self, capsys):
        exit_code = main(
            [
                "p2p",
                "--peers",
                "64",
                "--d",
                "6",
                "--rule",
                "push",
                "--updates",
                "1",
                "--rounds",
                "2",
                "--churn",
                "0.02",
                "--anti-entropy",
                "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "divergence after repair" in output
