"""Tests for the command-line interface (subcommands)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_experiments_accepted(self):
        args = build_parser().parse_args(["bench", "fig4"])
        assert args.command == "bench"
        assert args.experiment == "fig4"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["bench", "table2", "--quick", "--workload", "uniform", "--steps", "10"]
        )
        assert args.quick
        assert args.workload == "uniform"
        assert args.steps == 10

    def test_run_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "--n", "256",
                "--plan", "j",
                "--steps", "20",
                "--checkpoint-every", "5",
                "--out", "rundir",
                "--max-retries", "3",
            ]
        )
        assert args.command == "run"
        assert args.n == 256
        assert args.plan == "j"
        assert args.checkpoint_every == 5
        assert args.max_retries == 3

    def test_resume_requires_rundir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCompatPath:
    """The pre-subcommand flat form is rejected, not rewritten."""

    def test_experiment_id_prefixed(self):
        args = build_parser().parse_args(["bench", "fig4", "--quick"])
        assert (args.command, args.experiment) == ("bench", "fig4")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig4", "--quick"])
        assert exc.value.code == 2

    def test_flat_invocation_runs(self, capsys):
        # The flat spelling exits 2 before any experiment runs, and the
        # usage error lists 'bench' among the commands.
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--quick"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "Fig. 4" not in out
        assert "invalid choice: 'fig4'" in err and "'bench'" in err


class TestMain:
    def test_fig4_quick(self, capsys):
        assert main(["bench", "fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "GFLOPS" in out

    def test_table2_quick_custom_steps(self, capsys):
        assert main(["bench", "table2", "--quick", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 steps" in out
        assert "jw-parallel" in out

    def test_abl_queue(self, capsys):
        assert main(["bench", "abl-queue"]) == 0
        out = capsys.readouterr().out
        assert "dynamic" in out

    def test_workload_option(self, capsys):
        assert main(["bench", "fig4", "--quick", "--workload", "uniform"]) == 0


class TestFlagValidation:
    """Inapplicable flags are rejected (exit 2), not silently dropped."""

    def test_steps_rejected_for_sweep_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig4", "--steps", "10"])
        assert exc.value.code == 2
        assert "--steps" in capsys.readouterr().err

    def test_output_rejected_outside_report(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig4", "--output", "x.md"])
        assert exc.value.code == 2
        assert "--output" in capsys.readouterr().err

    def test_stray_target_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig4", "table2"])
        assert exc.value.code == 2

    def test_quick_warns_on_non_sweep(self, capsys):
        assert main(["bench", "abl-queue", "--quick"]) == 0
        assert "warning: --quick" in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig4", "--quick", "--max-retries", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "var, value",
        [
            ("REPRO_WORKERS", "abc"),
            ("REPRO_SERVE_QUEUE_CAPACITY", "0"),
            ("REPRO_CHECK_ENABLED", "maybe"),
        ],
    )
    def test_malformed_environment_exits_2(
        self, var, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--n", "32", "--steps", "1", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"error: {var}=" in error

    def test_malformed_workers_variable_does_not_break_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "REPRO_WORKERS": "abc", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout

    def test_engine_flags_keep_the_environment_worker_count(
        self, tmp_path, monkeypatch
    ):
        from repro.exec import get_default_engine

        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert main([
            "run", "--n", "32", "--steps", "1", "--out", str(tmp_path / "r"),
            "--max-retries", "1",
        ]) == 0
        engine = get_default_engine()
        assert engine.workers == 2 and engine.effective_backend == "thread"
        assert engine.retry.max_retries == 1


class TestProfile:
    def test_profile_requires_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile"])
        assert exc.value.code == 2

    def test_profile_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "fig99"])
        assert exc.value.code == 2

    def test_profile_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert (
            main(
                [
                    "profile",
                    "table2",
                    "--quick",
                    "--steps",
                    "5",
                    "--trace-out",
                    str(trace),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "## Span summary" in out
        doc = json.loads(trace.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        snap = json.loads(metrics.read_text())
        assert snap["interactions_total"]["value"] > 0
        # tracing is switched back off after the command
        assert not obs.enabled

    def test_trace_flag_writes_default_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "fig4", "--quick", "--trace"]) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["otherData"]["n_spans"] > 0
        assert not obs.enabled


class TestRunResume:
    def test_run_writes_checkpoints_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert (
            main(
                [
                    "run",
                    "--n", "64",
                    "--plan", "j",
                    "--steps", "6",
                    "--checkpoint-every", "2",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "run complete" in text
        assert "steps=6" in text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert [c["step"] for c in manifest["checkpoints"]] == [2, 4, 6]

    def test_resume_extends_target(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert (
            main(
                ["run", "--n", "64", "--plan", "j", "--steps", "4",
                 "--checkpoint-every", "2", "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["resume", str(out), "--steps", "8"]) == 0
        text = capsys.readouterr().out
        assert "steps=8" in text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["target_steps"] == 8
        assert manifest["status"] == "complete"
        assert [c["step"] for c in manifest["checkpoints"]] == [2, 4, 6, 8]

    def test_resume_missing_dir_raises(self, tmp_path):
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            main(["resume", str(tmp_path / "nope")])


@pytest.mark.cli
class TestCheckCommand:
    """repro-nbody check: the verification battery as a CI gate."""

    def _run_check(self, *extra):
        return main(
            [
                "check",
                "--n", "48",
                "--plans", "i,jw",
                "--steps", "4",
                *extra,
            ]
        )

    def test_check_passes_and_writes_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert self._run_check("--json", str(report_path)) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "bit-identical" in out
        doc = json.loads(report_path.read_text())
        assert doc["ok"] is True
        assert doc["matrix_ok"] and doc["invariants_ok"]
        # 2 plans x (1 cross-plan row + 1 thread row); check's default
        # worker count is 2
        assert len(doc["matrix"]) == 4
        assert {row["plan"] for row in doc["invariants"]} == {"i", "jw"}

    def test_matrix_rows_follow_workers(self, tmp_path):
        rows = {}
        for workers in ("1", "2"):
            path = tmp_path / f"workers{workers}.json"
            assert self._run_check("--workers", workers, "--json", str(path)) == 0
            doc = json.loads(path.read_text())
            assert doc["workers"] == int(workers)
            rows[workers] = [
                (r["candidate"], r["reference"], r["meta"]["axis"])
                for r in doc["matrix"]
            ]
        assert rows["1"] == [
            ("i/serial", "i/serial", "plan"),
            ("jw/serial", "i/serial", "plan"),
        ]
        assert rows["2"] == [
            ("i/serial", "i/serial", "plan"),
            ("i/thread", "i/serial", "backend"),
            ("jw/serial", "i/serial", "plan"),
            ("jw/thread", "jw/serial", "backend"),
        ]

    def test_check_golden_bless_then_verify(self, tmp_path, capsys):
        golden = tmp_path / "golden"
        assert self._run_check("--golden", str(golden), "--bless") == 0
        assert "blessed" in capsys.readouterr().out
        assert self._run_check("--golden", str(golden)) == 0
        assert "match" in capsys.readouterr().out

    def test_check_golden_mismatch_fails(self, tmp_path, capsys):
        golden = tmp_path / "golden"
        assert self._run_check("--golden", str(golden), "--bless") == 0
        capsys.readouterr()
        # a different trajectory against the same blessed cases
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "check",
                    "--n", "48",
                    "--plans", "i,jw",
                    "--workers", "1",
                    "--steps", "4",
                    "--seed", "1",
                    "--golden", str(golden),
                ]
            )
        assert exc.value.code == 1
        assert "missing" in capsys.readouterr().out  # different case ids

    def test_unknown_plan_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--plans", "i,nope"])
        assert exc.value.code == 2
        assert "unknown plan" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, capsys):
        # The worker count picks the engine; there is no backend flag.
        with pytest.raises(SystemExit) as exc:
            main(["check", "--backends", "serial,gpu"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backends" in capsys.readouterr().err

    def test_bless_requires_golden(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bless"])
        assert exc.value.code == 2
        assert "--golden" in capsys.readouterr().err

    def test_check_rejects_unknown_kernel_backend_csv(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--kernel-backends", "numpy,fortran77"])
        assert exc.value.code == 2
        assert "fortran77" in capsys.readouterr().err

    def test_unknown_kernel_backend_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--n", "32", "--steps", "1", "--kernel-backend", "nope"])
        assert exc.value.code == 2
        assert "nope" in capsys.readouterr().err

    def test_kernel_backend_flag_configures(self, tmp_path):
        from repro.config import resolve

        assert main([
            "run", "--n", "32", "--steps", "1",
            "--out", str(tmp_path / "run"),
            "--kernel-backend", "numpy",
        ]) == 0
        assert resolve("kernel_backend") == "numpy"


@pytest.mark.cli
@pytest.mark.serve
class TestServeCommand:
    """repro-nbody serve: error paths get distinct exit codes."""

    def _jobs_file(self, tmp_path, jobs):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        return str(path)

    def _job(self, **kw):
        base = dict(
            workload="plummer", n=64, seed=1, plan="j", dt=1e-3, steps=3
        )
        base.update(kw)
        return base

    def test_serve_batch_completes(self, tmp_path, capsys):
        jobs = self._jobs_file(
            tmp_path, [self._job(seed=1), self._job(seed=2)]
        )
        assert (
            main(
                [
                    "serve", "batch", "--jobs", jobs,
                    "--cache-dir", str(tmp_path / "c"),
                ]
            )
            == 0
        )
        assert "2/2 jobs complete" in capsys.readouterr().out

    def test_malformed_jobs_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text("{ not json [")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "batch", "--jobs", str(path)])
        assert exc.value.code == 2
        assert "cannot read job file" in capsys.readouterr().err

    def test_invalid_spec_field_exits_2(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [self._job(plan="nope")])
        with pytest.raises(SystemExit) as exc:
            main(["serve", "batch", "--jobs", str(jobs)])
        assert exc.value.code == 2
        assert "job 0" in capsys.readouterr().err

    def test_admission_rejection_exits_3(self, tmp_path, capsys):
        # capacity-1 queue, one runner: one live + one queued, so with
        # long-running jobs a later submission must be rejected.
        jobs = self._jobs_file(
            tmp_path,
            [self._job(seed=s, steps=60) for s in range(1, 7)],
        )
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "serve", "batch",
                    "--jobs", jobs,
                    "--cache-dir", str(tmp_path / "c"),
                    "--queue-capacity", "1",
                    "--max-concurrent", "1",
                ]
            )
        assert exc.value.code == 3
        assert "rejected" in capsys.readouterr().err


class TestServeSubcommands:
    """The serve subcommands, local and distributed."""

    def test_compat_flat_serve_rewrites_to_batch(self, capsys):
        # 'serve' needs an explicit subcommand; the flat form is rejected.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--jobs", "j.json"])
        assert exc.value.code == 2
        parser = build_parser()
        args = parser.parse_args(["serve", "batch", "--jobs", "j.json"])
        assert (args.serve_command, args.jobs) == ("batch", "j.json")
        args = parser.parse_args(["serve", "worker", "--addr", "h:1"])
        assert args.serve_command == "worker"

    def test_compat_flat_submit_rewrites(self, capsys):
        args = build_parser().parse_args(["serve", "submit", "--n", "64"])
        assert (args.command, args.serve_command, args.n) == (
            "serve", "submit", 64,
        )
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--n", "64"])
        assert exc.value.code == 2

    def test_flat_submit_with_batch_flags_is_ambiguous(self, capsys):
        # Batch flags are rejected on 'serve submit' and on the flat form.
        for argv in (
            ["serve", "submit", "--n", "64", "--jobs", "j.json"],
            ["submit", "--n", "64", "--jobs", "j.json"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_flat_submit_still_runs(self, tmp_path, capsys):
        # The former flat invocation, spelled as a subcommand, with the
        # default plan.
        assert main(
            [
                "serve", "submit", "--n", "64", "--steps", "3",
                "--cache-dir", str(tmp_path / "c"),
            ]
        ) == 0
        assert "complete" in capsys.readouterr().out

    def test_serve_submit_runs_one_spec(self, tmp_path, capsys):
        assert main(
            [
                "serve", "submit", "--n", "64", "--plan", "j",
                "--seed", "3", "--steps", "3",
                "--cache-dir", str(tmp_path / "c"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_serve_batch_local_keyword_forces_in_process(
        self, tmp_path, capsys, monkeypatch
    ):
        # An env-configured coordinator address must not leak into a
        # run that explicitly asked for the in-process service.
        monkeypatch.setenv("REPRO_SERVE_ADDR", "203.0.113.1:1")
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            dict(workload="plummer", n=64, seed=1, plan="j", dt=1e-3, steps=3)
        ]))
        assert main(
            [
                "serve", "batch", "--jobs", str(jobs), "--addr", "local",
                "--cache-dir", str(tmp_path / "c"),
            ]
        ) == 0
        assert "1/1 jobs complete" in capsys.readouterr().out

    def test_merge_shards_combines_ledgers(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger
        from repro.serve import connect

        shards = []
        for shard, seed in (("shard-a", 1), ("shard-b", 2)):
            path = tmp_path / f"{shard}.sqlite"
            with RunLedger(path) as ledger:
                with connect(
                    None, cache_dir=tmp_path / "cache",
                    ledger=ledger, shard=shard,
                ) as client:
                    client.run(
                        workload="plummer", n=64, seed=seed,
                        plan="j", dt=1e-3, steps=3,
                    )
            shards.append(str(path))
        merged = tmp_path / "merged.sqlite"
        assert main(["serve", "merge-shards", *shards, "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "shard-a" in out and "shard-b" in out
        with RunLedger(merged) as ledger:
            assert ledger.counts()["runs"] == 2

    def test_merge_shards_missing_input_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "serve", "merge-shards", str(tmp_path / "nope.sqlite"),
                    "--out", str(tmp_path / "m.sqlite"),
                ]
            )
        assert exc.value.code == 2

    def test_worker_requires_addr(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "worker"])
        assert exc.value.code == 2

    def test_coordinator_and_worker_roundtrip(self, tmp_path, capsys):
        # In-process variant of the CI job: coordinator object + CLI
        # worker command with an idle timeout, then a remote batch.
        import threading

        from repro.serve import Coordinator

        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            dict(workload="plummer", n=64, seed=s, plan="j", dt=1e-3, steps=3)
            for s in (1, 2)
        ]))
        with Coordinator(
            cache_dir=tmp_path / "cache", ledger=False
        ) as coord:
            worker = threading.Thread(
                target=main,
                args=(
                    [
                        "serve", "worker", "--addr", coord.addr,
                        "--shard", "cli-shard",
                        "--cache-dir", str(tmp_path / "cache"),
                        "--max-idle-s", "1.5",
                    ],
                ),
            )
            worker.start()
            try:
                assert main(
                    ["serve", "batch", "--jobs", str(jobs),
                     "--addr", coord.addr]
                ) == 0
            finally:
                worker.join(timeout=60)
            assert not worker.is_alive()
        out = capsys.readouterr().out
        assert "2/2 jobs complete" in out


class TestTopAndReport:
    """repro-nbody top / report over the durable run ledger."""

    def _run_with_ledger(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        assert main(
            [
                "run", "--n", "48", "--plan", "i", "--steps", "6",
                "--checkpoint-every", "3",
                "--out", str(tmp_path / "run"),
                "--ledger-dir", str(ledger_dir),
            ]
        ) == 0
        return ledger_dir

    def test_top_requires_a_ledger(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["top", "--once"])
        assert exc.value.code == 2
        assert "no ledger" in capsys.readouterr().err

    def test_top_once_renders_runs(self, tmp_path, capsys):
        ledger_dir = self._run_with_ledger(tmp_path)
        capsys.readouterr()
        assert main(["top", "--once", "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 runs" in out
        assert "complete" in out and " i " in out and "6/6" in out

    def test_top_env_var_resolution(self, tmp_path, capsys, monkeypatch):
        ledger_dir = self._run_with_ledger(tmp_path)
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        capsys.readouterr()
        assert main(["top", "--once"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_report_markdown(self, tmp_path, capsys):
        ledger_dir = self._run_with_ledger(tmp_path)
        out_path = tmp_path / "log.md"
        assert main(
            ["report", "--ledger-dir", str(ledger_dir), "--out", str(out_path)]
        ) == 0
        text = out_path.read_text()
        assert text.startswith("# Run ledger report")
        assert "## Per-plan summary" in text and "| i |" in text
        assert "command" in text  # the run invocation was recorded

    def test_report_html_inferred_from_suffix(self, tmp_path, capsys):
        ledger_dir = self._run_with_ledger(tmp_path)
        out_path = tmp_path / "log.html"
        assert main(
            ["report", "--ledger-dir", str(ledger_dir), "--out", str(out_path)]
        ) == 0
        text = out_path.read_text()
        assert text.startswith("<!DOCTYPE html>") and "<table>" in text

    def test_report_stdout_default(self, tmp_path, capsys):
        ledger_dir = self._run_with_ledger(tmp_path)
        capsys.readouterr()
        assert main(["report", "--ledger-dir", str(ledger_dir)]) == 0
        assert "# Run ledger report" in capsys.readouterr().out

    def test_flat_report_still_reaches_bench(self):
        # 'report' is the ledger report; the bench report is 'bench report'.
        parser = build_parser()
        args = parser.parse_args(["bench", "report", "--quick", "--output", "x.md"])
        assert (args.command, args.experiment, args.output) == (
            "bench", "report", "x.md",
        )
        args = parser.parse_args(["report", "--out", "x.md"])
        assert (args.command, args.out) == ("report", "x.md")

    def test_flat_report_with_mixed_flags_is_ambiguous(self, capsys):
        # Bench-report flags (--quick/--output) on the ledger 'report' are
        # refused (exit 2), alone or mixed with ledger flags.
        for argv in (
            ["report", "--quick", "--output", "x.md"],
            ["report", "--quick", "--out", "x.md"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_prometheus_out_flag(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert main(
            [
                "run", "--n", "48", "--plan", "i", "--steps", "3",
                "--out", str(tmp_path / "run"),
                "--trace-out", str(tmp_path / "t.json"),
                "--prometheus-out", str(prom),
            ]
        ) == 0
        text = prom.read_text()
        assert "# TYPE" in text
        assert "prometheus metrics written" in capsys.readouterr().out
