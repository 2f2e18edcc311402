"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datasets import dblp_tiny, save_dataset


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dblp_tiny.json"
    save_dataset(dblp_tiny(), path)
    return path


class TestInfoAndParsing:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro" in output
        assert "jaro_winkler" in output

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestGenerate:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        output = tmp_path / "generated.json"
        code = main(["generate", "--preset", "dblp", "--scale", "0.12",
                     "--seed", "3", "--output", str(output)])
        assert code == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert payload["name"] == "dblp-like"
        assert "author_references" in capsys.readouterr().out

    def test_generate_rejects_bad_preset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--preset", "nonsense", "--output", str(tmp_path / "x.json")])


class TestCover:
    def test_cover_reports_quality(self, dataset_file, capsys):
        assert main(["cover", "--dataset", str(dataset_file)]) == 0
        output = capsys.readouterr().out
        assert "neighborhoods" in output
        assert "pair_completeness" in output

    def test_missing_dataset_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cover", "--dataset", str(tmp_path / "missing.json")])


class TestMatch:
    def test_match_rules_smp(self, dataset_file, tmp_path, capsys):
        clusters_path = tmp_path / "clusters.json"
        code = main(["match", "--dataset", str(dataset_file), "--matcher", "rules",
                     "--scheme", "smp", "--output", str(clusters_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "precision" in output
        clusters = json.loads(clusters_path.read_text())
        assert isinstance(clusters, list)
        assert all(len(cluster) > 1 for cluster in clusters)

    def test_match_mln_no_mp(self, dataset_file, capsys):
        assert main(["match", "--dataset", str(dataset_file), "--matcher", "mln",
                     "--scheme", "no-mp"]) == 0
        assert "no-mp" in capsys.readouterr().out

    def test_mmp_with_type1_matcher_rejected(self, dataset_file):
        with pytest.raises(SystemExit):
            main(["match", "--dataset", str(dataset_file), "--matcher", "rules",
                  "--scheme", "mmp"])

    def test_match_through_grid_executor(self, dataset_file, capsys):
        assert main(["match", "--dataset", str(dataset_file), "--matcher", "rules",
                     "--scheme", "smp", "--executor", "threads", "--workers", "2"]) == 0
        assert "grid-smp" in capsys.readouterr().out

    def test_unknown_executor_rejected(self, dataset_file):
        with pytest.raises(SystemExit):
            main(["match", "--dataset", str(dataset_file),
                  "--scheme", "smp", "--executor", "hadoop"])

    def test_executor_with_full_scheme_rejected(self, dataset_file):
        with pytest.raises(SystemExit):
            main(["match", "--dataset", str(dataset_file), "--matcher", "rules",
                  "--scheme", "full", "--executor", "serial"])


class TestFaultFlags:
    def test_match_with_fault_flags_runs_supervised(self, dataset_file, capsys):
        assert main(["match", "--dataset", str(dataset_file),
                     "--matcher", "rules", "--scheme", "smp",
                     "--executor", "threads", "--workers", "2",
                     "--retries", "1", "--task-timeout", "30"]) == 0
        assert "grid-smp" in capsys.readouterr().out

    def test_fault_flags_require_executor(self, dataset_file):
        with pytest.raises(SystemExit, match="--executor"):
            main(["match", "--dataset", str(dataset_file),
                  "--matcher", "rules", "--scheme", "smp", "--retries", "1"])

    def test_non_positive_task_timeout_rejected(self, dataset_file):
        with pytest.raises(SystemExit, match="task-timeout"):
            main(["match", "--dataset", str(dataset_file), "--matcher", "rules",
                  "--scheme", "smp", "--executor", "threads",
                  "--task-timeout", "0"])

    def test_negative_retries_rejected(self, dataset_file):
        with pytest.raises(SystemExit, match="retries"):
            main(["match", "--dataset", str(dataset_file), "--matcher", "rules",
                  "--scheme", "smp", "--executor", "threads",
                  "--retries", "-1"])

    def test_checkpoint_on_signal_requires_durable_dir(self, dataset_file,
                                                       tmp_path):
        deltas = tmp_path / "missing-trace.json"
        with pytest.raises(SystemExit, match="--durable-dir"):
            main(["stream", "--dataset", str(dataset_file),
                  "--deltas", str(deltas), "--checkpoint-on-signal"])


class TestSharedArgumentChecks:
    """``--workers`` and ``--checkpoint-every`` are checked once, for every
    subcommand that takes them, before anything is loaded, run or served."""

    @staticmethod
    def argv(command, dataset_file, tmp_path):
        return {
            "match": ["match", "--dataset", str(dataset_file)],
            "stream": ["stream", "--dataset", str(dataset_file),
                       "--deltas", str(dataset_file)],
            "recover": ["recover", "--durable-dir", str(tmp_path)],
            "serve": ["serve", "--dataset", str(dataset_file), "--port", "0"],
        }[command]

    @pytest.mark.parametrize("command", ["match", "stream", "recover", "serve"])
    def test_workers_below_one_rejected(self, dataset_file, tmp_path, command):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(self.argv(command, dataset_file, tmp_path)
                 + ["--executor", "threads", "--workers", "0"])

    @pytest.mark.parametrize("command", ["match", "stream", "recover", "serve"])
    def test_workers_require_executor(self, dataset_file, tmp_path, command):
        with pytest.raises(SystemExit, match="--workers requires --executor"):
            main(self.argv(command, dataset_file, tmp_path) + ["--workers", "2"])

    @pytest.mark.parametrize("command", ["stream", "serve"])
    def test_negative_checkpoint_cadence_rejected(self, dataset_file,
                                                  tmp_path, command):
        with pytest.raises(SystemExit, match="--checkpoint-every must be >= 0"):
            main(self.argv(command, dataset_file, tmp_path)
                 + ["--durable-dir", str(tmp_path / "wal"),
                    "--checkpoint-every", "-1"])

    def test_rebase_threshold_below_one_rejected(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit, match="--rebase-threshold must be >= 1"):
            main(self.argv("stream", dataset_file, tmp_path)
                 + ["--rebase-threshold", "0"])


class TestExitCodes:
    """Typed operational failures map to one-line messages + distinct codes."""

    def test_recovery_error_exits_5(self, tmp_path, capsys):
        empty = tmp_path / "durable"
        empty.mkdir()
        code = main(["recover", "--durable-dir", str(empty)])
        assert code == 5
        captured = capsys.readouterr()
        assert "repro-em: recovery failed:" in captured.err
        assert "no checkpoint" in captured.err
        assert "Traceback" not in captured.err

    def test_task_failed_error_exits_4(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.exceptions import TaskFailedError

        def poisoned(_args):
            raise TaskFailedError("n42", ())

        monkeypatch.setitem(cli._COMMANDS, "info", poisoned)
        assert main(["info"]) == 4
        err = capsys.readouterr().err
        assert "repro-em: task failed permanently:" in err and "n42" in err

    def test_durability_error_exits_6(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.exceptions import DurabilityError

        def corrupted(_args):
            raise DurabilityError("wal gone sideways")

        monkeypatch.setitem(cli._COMMANDS, "info", corrupted)
        assert main(["info"]) == 6
        assert "repro-em: durability error:" in capsys.readouterr().err

    @pytest.mark.parametrize("trace", ["dataset", "unknown-op"])
    def test_bad_delta_trace_exits_8(self, dataset_file, tmp_path, capsys,
                                     trace):
        deltas = dataset_file
        if trace == "unknown-op":
            deltas = tmp_path / "trace.json"
            deltas.write_text(json.dumps(
                {"format_version": 1, "batches": [[{"op": "frobnicate"}]]}))
        assert main(["stream", "--dataset", str(dataset_file),
                     "--deltas", str(deltas)]) == 8
        err = capsys.readouterr().err
        assert err.startswith("repro-em: delta error:")
        assert err.count("\n") == 1
