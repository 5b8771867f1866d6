"""CLI entry points."""

import math
import re

import pytest

from repro.cli import main


class TestListing:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "saath" in out and "aalo" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table2" in out


class TestSimulate:
    def test_synthetic_run(self, capsys):
        rc = main([
            "simulate", "--policy", "saath",
            "--machines", "10", "--coflows", "12", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coflows finished: 12" in out
        assert "CCT mean" in out

    def test_sync_interval_flag(self, capsys):
        rc = main([
            "simulate", "--policy", "aalo",
            "--machines", "10", "--coflows", "8",
            "--sync-interval-ms", "8",
        ])
        assert rc == 0
        assert "coflows finished: 8" in capsys.readouterr().out

    def test_trace_file_input(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("4 1\n1 0 2 0 1 2 2:10 3:20\n")
        rc = main(["simulate", "--trace", str(trace), "--policy", "saath"])
        assert rc == 0
        assert "coflows finished: 1" in capsys.readouterr().out


class TestGenTrace:
    def test_stdout_emission(self, capsys):
        rc = main([
            "gen-trace", "--machines", "10", "--coflows", "5", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("10 5")

    def test_file_emission_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "gen.txt"
        rc = main([
            "gen-trace", "--machines", "10", "--coflows", "5",
            "--output", str(out_file),
        ])
        assert rc == 0
        from repro.workloads.traces import load_trace

        trace = load_trace(out_file)
        assert trace.num_ports == 10
        assert len(trace) == 5


class TestRunExperiment:
    def test_tiny_table2(self, capsys):
        rc = main(["run-experiment", "table2", "--scale", "tiny"])
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-experiment", "fig99"])


#: A number in a rendered table cell (``nan`` / ``inf`` included, so they
#: fail the finiteness check instead of going unparsed).
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+|nan|inf)")


def _policy_rows(text):
    """``{policy: [numbers]}`` for every registered policy's table row in
    ``text`` (one dict per rendered table, in order)."""
    from repro.schedulers.registry import available_policies

    policies = set(available_policies())
    tables, current = [], None
    for line in text.splitlines():
        name = line.split(" ", 1)[0]
        if line.startswith("policy "):
            current = {}
            tables.append(current)
        elif current is not None and name in policies:
            current[name] = [float(x) for x in NUMBER.findall(line[len(name):])]
    return tables



class TestTopologyExperimentsEndToEnd:
    """fig-oversub and fig-collectives through the CLI at tiny scale:
    every registered policy renders a row with a finite positive value in
    every fabric column."""

    def _check(self, text, labels, tables):
        from repro.schedulers.registry import available_policies

        rows = _policy_rows(text)
        assert len(rows) == tables
        for table in rows:
            assert sorted(table) == sorted(available_policies())
            for policy, values in table.items():
                # One value for the first column, then (value, ratio) per
                # further column.
                assert len(values) == 2 * len(labels) - 1, policy
                assert all(math.isfinite(v) and v > 0 for v in values), (
                    policy, values)
        for label in labels:
            assert label in text

    def test_fig_oversub_tiny(self, capsys):
        from repro.experiments import fig_oversub

        assert main(["run-experiment", "fig-oversub", "--scale", "tiny"]) == 0
        labels = [fig_oversub.BIG_SWITCH] + [
            f"oversub={r:g}" for r in fig_oversub.RATIOS]
        self._check(capsys.readouterr().out, labels, tables=1)

    def test_fig_collectives_tiny(self, capsys):
        from repro.experiments import fig_collectives

        assert main(
            ["run-experiment", "fig-collectives", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        labels = [f"oversub={r:g}" for r in fig_collectives.RATIOS]
        self._check(out, labels,
                    tables=len(fig_collectives.PATTERNS_SWEPT))
        for pattern in fig_collectives.PATTERNS_SWEPT:
            assert f"[{pattern}]" in out


class TestSweepCommand:
    GRID = ["sweep", "--policy", "saath", "aalo", "--machines", "10",
            "--coflows", "12", "--seed", "3", "--seeds", "2"]

    def test_grid_runs_and_reports_cache_stats(self, tmp_path, capsys):
        argv = self.GRID + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("saath") == 2  # seeds 3 and 4
        assert "cache: 0 hits, 4 misses" in out
        assert main(argv) == 0  # second invocation replays from the cache
        assert "cache: 4 hits, 0 misses" in capsys.readouterr().out

    def test_failed_run_is_reported_not_raised(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.testing import chaos
        directory = chaos.arm(
            [{"site": "worker", "action": "exception", "times": 5}],
            tmp_path / "chaos")
        monkeypatch.setenv(chaos.ENV_VAR, str(directory))
        log = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--policy", "saath", "--machines", "10",
                   "--coflows", "12", "--seed", "3", "--retries", "2",
                   "--sweep-log", str(log)])
        assert rc == 0  # non-strict: the failure is a row, not a crash
        out = capsys.readouterr().out
        assert "FAILED (exception) after 2 attempt(s)" in out
        assert "1 of 1 runs failed" in out
        import json as _json
        events = [_json.loads(line)["event"]
                  for line in log.read_text().splitlines()]
        assert events[0] == "sweep-start"
        assert events[-1] == "sweep-end"

    def test_strict_sweep_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        from repro.testing import chaos
        directory = chaos.arm(
            [{"site": "worker", "action": "exception", "times": 5}],
            tmp_path / "chaos")
        monkeypatch.setenv(chaos.ENV_VAR, str(directory))
        rc = main(["sweep", "--policy", "saath", "--machines", "10",
                   "--coflows", "12", "--seed", "3", "--retries", "2",
                   "--strict"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: run 'saath' failed (exception)" in err


class TestCheckpointCommand:
    ARGS = ["simulate", "--policy", "saath", "--machines", "10",
            "--coflows", "12", "--seed", "3"]

    def test_checkpointed_run_output_matches_plain(self, tmp_path, capsys):
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        ckpt = tmp_path / "run.ckpt"
        assert main(self.ARGS + ["--checkpoint", str(ckpt),
                                 "--checkpoint-every", "0.5"]) == 0
        assert capsys.readouterr().out == plain
        assert ckpt.exists()

    def test_resume_from_checkpoint_matches_plain(self, tmp_path, capsys):
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        ckpt = tmp_path / "rolling.ckpt"
        assert main(self.ARGS + ["--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        # workload flags are ignored on resume: the checkpoint carries all
        assert main(["simulate", "--resume-from", str(ckpt)]) == 0
        assert capsys.readouterr().out == plain

    def test_checkpoint_every_requires_a_path(self, capsys):
        rc = main(self.ARGS + ["--checkpoint-every", "0.5"])
        assert rc == 1
        assert ("--checkpoint-every requires --checkpoint"
                in capsys.readouterr().err)

    def test_streaming_run_cannot_checkpoint(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--streaming",
                               "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert "replayable scenario" in capsys.readouterr().err


class TestInterrupt:
    def test_sigint_exits_130_with_partial_results_summary(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys as _sys
        import textwrap
        import time
        from pathlib import Path

        import repro

        script = textwrap.dedent("""\
            import sys
            from repro.cli import main
            print("GO", flush=True)
            sys.exit(main([
                "sweep", "--policy", "saath", "--machines", "50",
                "--coflows", "300", "--seeds", "4",
                "--cache-dir", sys.argv[1],
            ]))
        """)
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [_sys.executable, "-c", script, str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "GO"
            time.sleep(1.0)  # let the sweep get into its first run
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130
        assert "interrupted" in err
        assert "runs finished" in err  # the partial-results summary
