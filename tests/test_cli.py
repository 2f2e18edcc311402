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
        assert "presets: dblp, dblp-big, hepth" in output
        assert "matchers: mln, pairwise, rules" in output
        assert "similarity" not in output

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


class TestBadInputs:
    """Inputs that used to end in a traceback: a file that is not a dataset
    or not a span trace exits 9 with one line, and out-of-range arguments
    are refused before anything is loaded."""

    @staticmethod
    def delta_trace(tmp_path, dataset_file):
        path = tmp_path / "trace.json"
        assert main(["stream-trace", "--dataset", str(dataset_file),
                     "--batches", "2", "--base-output", str(tmp_path / "b.json"),
                     "--trace-output", str(path)]) == 0
        return path

    @pytest.mark.parametrize("command", ["match", "cover", "stream", "serve"])
    def test_delta_trace_as_dataset_exits_9(self, dataset_file, tmp_path,
                                           capsys, command):
        trace = self.delta_trace(tmp_path, dataset_file)
        argv = [command, "--dataset", str(trace)]
        if command == "stream":
            argv += ["--deltas", str(trace)]
        if command == "serve":
            argv += ["--port", "0", "--duration", "1"]
        capsys.readouterr()
        assert main(argv) == 9
        err = capsys.readouterr().err
        assert err.startswith("repro-em: bad input file:")
        assert "not a dataset" in err and err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        "wrong-version", "malformed-json", "not-utf8"])
    def test_file_that_is_no_dataset_exits_9(self, dataset_file, tmp_path,
                                            capsys, content):
        path = tmp_path / "data.json"
        if content == "wrong-version":
            payload = json.loads(dataset_file.read_text())
            payload["format_version"] = 2
            path.write_text(json.dumps(payload))
        elif content == "malformed-json":
            path.write_text('{"format_version": 1, "name": ')
        else:
            path.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["match", "--dataset", str(path)]) == 9
        err = capsys.readouterr().err
        assert err.startswith(f"repro-em: bad input file: {path}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_scale_rejected(self, tmp_path, scale):
        output = tmp_path / "x.json"
        with pytest.raises(SystemExit, match="--scale must be positive"):
            main(["generate", "--scale", scale, "--output", str(output)])
        assert not output.exists()

    def test_loose_above_tight_rejected(self, dataset_file):
        with pytest.raises(SystemExit, match="0 <= loose <= tight <= 1"):
            main(["cover", "--dataset", str(dataset_file),
                  "--loose", "0.9", "--tight", "0.5"])

    @pytest.mark.parametrize("content", ["dataset", "json-number", "binary"])
    def test_trace_report_of_a_non_jsonl_file_exits_9(self, dataset_file,
                                                     tmp_path, capsys, content):
        path = dataset_file
        if content == "json-number":
            path = tmp_path / "number.jsonl"
            path.write_text("5\n")
        elif content == "binary":
            path = tmp_path / "trace.bin"
            path.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["trace-report", str(path)]) == 9
        err = capsys.readouterr().err
        assert err.startswith(f"repro-em: bad input file: {path}:1:")
        assert err.count("\n") == 1
