"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_env_and_agent(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--env", "DRAMGym-v0"])

    def test_unknown_agent_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--env", "DRAMGym-v0", "--agent", "magic"]
            )


class TestCommands:
    def test_envs_lists_all(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        for env_id in ("DRAMGym-v0", "TimeloopGym-v0", "FARSIGym-v0", "MaestroGym-v0"):
            assert env_id in out

    def test_agents_lists_grids(self, capsys):
        assert main(["agents"]) == 0
        out = capsys.readouterr().out
        for name in ("aco", "bo", "ga", "rw", "rl", "offline"):
            assert name in out

    def test_run_maestro(self, capsys):
        code = main([
            "run", "--env", "MaestroGym-v0", "--agent", "rw",
            "--samples", "10", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best reward" in out
        assert "best design" in out

    def test_run_with_hyperparams_json(self, capsys):
        code = main([
            "run", "--env", "MaestroGym-v0", "--agent", "ga",
            "--samples", "12",
            "--hyperparams", json.dumps({"population_size": 4}),
        ])
        assert code == 0
        assert "population_size=4" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--env", "MaestroGym-v0", "--agents", "rw,ga",
            "--trials", "2", "--samples", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lottery sweep" in out
        assert "normalized best" in out

    def test_collect_writes_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "data.jsonl"
        code = main([
            "collect", "--env", "MaestroGym-v0", "--agents", "rw,ga",
            "--samples", "8", "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        from repro.core.dataset import ArchGymDataset

        ds = ArchGymDataset.load_jsonl(out_path)
        assert len(ds) == 16
        assert len(ds.sources) == 2

    def test_run_with_workload_option(self, capsys):
        code = main([
            "run", "--env", "DRAMGym-v0", "--agent", "rw",
            "--workload", "stream", "--objective", "latency",
            "--samples", "5",
        ])
        assert code == 0

    def test_sweep_with_boxplots_and_export(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--env", "MaestroGym-v0", "--agents", "rw",
            "--trials", "2", "--samples", "8",
            "--boxplots", "--export", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "*" in stdout  # box plot rendered
        from repro.sweeps.export import load_report_json

        payload = load_report_json(out)
        assert len(payload["rows"]) == 2

    def test_sweep_export_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--env", "MaestroGym-v0", "--agents", "rw",
            "--trials", "1", "--samples", "5", "--export", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("env_id")

    @pytest.mark.parametrize(
        "flag", ["--async-dispatch", "--generation-dispatch", "--service-batch"]
    )
    def test_removed_async_flag_exits_2(self, flag, capsys):
        """The retired dispatch flags served their round as hidden
        no-ops and are gone: argparse rejects each one by name."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--env", "MaestroGym-v0", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestDurableCommands:
    SWEEP_ARGS = [
        "sweep", "--env", "MaestroGym-v0", "--agents", "rw,ga",
        "--trials", "2", "--samples", "8", "--seed", "3",
    ]

    def test_sweep_out_dir_writes_manifest_and_shards(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(self.SWEEP_ARGS + ["--out-dir", str(out_dir)]) == 0
        assert (out_dir / "sweep.json").exists()
        assert len(list(out_dir.glob("trial-*.json"))) == 4

    def test_sweep_resume_reproduces_clean_export(self, tmp_path, capsys):
        clean_export = tmp_path / "clean.json"
        assert main(self.SWEEP_ARGS + [
            "--out-dir", str(tmp_path / "clean"), "--export", str(clean_export),
        ]) == 0

        # simulate a kill: drop two of the four shards, then resume
        out_dir = tmp_path / "resumed"
        resumed_export = tmp_path / "resumed.json"
        assert main(self.SWEEP_ARGS + ["--out-dir", str(out_dir)]) == 0
        for index in (1, 3):
            (out_dir / f"trial-{index:05d}.json").unlink()
        assert main(self.SWEEP_ARGS + [
            "--out-dir", str(out_dir), "--resume", "--export",
            str(resumed_export),
        ]) == 0

        clean = json.loads(clean_export.read_text())
        resumed = json.loads(resumed_export.read_text())
        for payload in (clean, resumed):
            for row in payload["rows"]:
                row["wall_time_s"] = row["sim_time_s"] = 0.0
        assert resumed == clean

    def test_sweep_shared_cache_flag(self, tmp_path, capsys):
        # a tiny space with repeat proposals across trials
        code = main([
            "sweep", "--env", "MaestroGym-v0", "--agents", "rw",
            "--trials", "3", "--samples", "30", "--seed", "1",
            "--out-dir", str(tmp_path / "s"), "--shared-cache",
        ])
        assert code == 0
        assert (tmp_path / "s" / "shared-cache").is_dir()

    def test_collect_resume_completes_partial_run(self, tmp_path, capsys):
        out_dir = tmp_path / "collect"
        args = [
            "collect", "--env", "MaestroGym-v0", "--agents", "rw,ga",
            "--samples", "8", "--seed", "2",
        ]
        clean_path = tmp_path / "clean.jsonl"
        assert main(args + ["--out", str(clean_path)]) == 0

        first_path = tmp_path / "first.jsonl"
        assert main(args + [
            "--out", str(first_path), "--out-dir", str(out_dir),
        ]) == 0
        (out_dir / "trial-00001.json").unlink()  # simulate a kill

        resumed_path = tmp_path / "resumed.jsonl"
        assert main(args + [
            "--out", str(resumed_path), "--out-dir", str(out_dir), "--resume",
        ]) == 0
        assert resumed_path.read_text() == clean_path.read_text()

    def test_resume_with_different_workload_rejected(self, tmp_path):
        from repro.core.errors import ShardError

        out_dir = str(tmp_path / "s")
        base = [
            "sweep", "--env", "DRAMGym-v0", "--agents", "rw",
            "--trials", "1", "--samples", "5", "--out-dir", out_dir,
        ]
        assert main(base + ["--workload", "stream"]) == 0
        with pytest.raises(ShardError, match="different sweep"):
            main(base + ["--workload", "cloud-1", "--resume"])

    def test_resume_without_out_dir_rejected(self, tmp_path):
        from repro.core.errors import ArchGymError

        with pytest.raises(ArchGymError, match="out-dir"):
            main([
                "collect", "--env", "MaestroGym-v0", "--agents", "rw",
                "--samples", "4", "--out", str(tmp_path / "x.jsonl"),
                "--resume",
            ])

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("collect", ["--samples", "0"]),
            ("collect", ["--workers", "0"]),
            ("sweep", ["--samples", "0"]),
            ("sweep", ["--workers", "0"]),
            # nothing listens on these URLs: each is refused before any
            # request, as a malformed URL or as one host (the same base
            # URL once normalized) given two weights
            ("collect", ["--service-url", "htp://127.0.0.1:9"]),
            ("sweep", ["--service-url", "htp://127.0.0.1:9"]),
            ("collect", ["--service-url", "http://127.0.0.1:9=2",
                         "--service-url", "http://127.0.0.1:9/=3"]),
            ("sweep", ["--service-url", "http://127.0.0.1:9=2",
                       "--service-url", "http://127.0.0.1:9/=3"]),
        ] + [
            (command, bad)
            for command in ("collect", "sweep")
            for bad in (
                # proxy knobs a screened trial would refuse
                ["--shared-cache", "--proxy-screen", "--proxy-oversample", "0"],
                ["--shared-cache", "--proxy-screen", "--proxy-refresh", "-0.5"],
                ["--shared-cache", "--proxy-screen", "--proxy-refresh", "1.5"],
                ["--shared-cache", "--proxy-screen", "--proxy-min-corpus", "4"],
                # a client policy no pool could run under
                ["--service-url", "http://127.0.0.1:9", "--service-timeout", "0"],
                ["--service-url", "http://127.0.0.1:9",
                 "--service-timeout", "nan"],
                ["--service-url", "http://127.0.0.1:9",
                 "--service-retries", "-1"],
            )
        ],
    )
    def test_rejected_arguments_leave_no_manifest(self, tmp_path, command, bad):
        """A rejected command must not record its sweep: a leftover
        ``sweep.json`` made the corrected rerun into the same directory
        fail as "a different sweep"."""
        from repro.core.errors import ArchGymError

        out_dir = tmp_path / "d"
        args = [command, "--env", "MaestroGym-v0", "--agents", "rw",
                "--samples", "5", "--out-dir", str(out_dir)]
        if command == "collect":
            args += ["--out", str(tmp_path / "d.jsonl")]
        else:
            args += ["--trials", "1"]
        with pytest.raises(ArchGymError):
            main(args + bad)
        assert not (out_dir / "sweep.json").exists()
        assert main(args) == 0  # the corrected rerun is not refused
