"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestBrokenPipe:
    def test_broken_pipe_exits_cleanly(self, monkeypatch):
        """Piping CLI output into `head` must not traceback: main()'s
        guard converts BrokenPipeError into a clean exit."""
        import repro.cli as cli

        def boom(args):
            raise BrokenPipeError

        # build_parser() resolves handlers from module globals, so
        # patching before main() builds the parser takes effect.
        monkeypatch.setattr(cli, "_cmd_protocols", boom)
        assert cli.main(["protocols"]) == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.n == [10]
        assert args.sharing == "5"


class TestCommands:
    def test_solve(self, capsys):
        assert main(["solve", "--mods", "1", "-n", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "WO+1 N=4" in out
        assert "WO+1 N=8" in out

    def test_solve_verbose(self, capsys):
        assert main(["solve", "-n", "6", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "w_mem=" in out
        assert "power=" in out

    def test_solve_named_protocol(self, capsys):
        assert main(["solve", "--protocol", "berkeley", "-n", "4"]) == 0
        assert "Berkeley" in capsys.readouterr().out

    def test_table(self, capsys):
        assert main(["table", "a"]) == 0
        out = capsys.readouterr().out
        assert "Table 4.1(a)" in out
        assert "paper GTPN" in out

    def test_table_all_parts_default(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        for part in ("(a)", "(b)", "(c)"):
            assert f"Table 4.1{part}" in out

    def test_figure_ascii(self, capsys):
        assert main(["figure"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4.1" in out
        assert "Write-Once (1%)" in out

    def test_figure_csv(self, capsys):
        assert main(["figure", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,n_processors,speedup")

    def test_simulate(self, capsys):
        assert main(["simulate", "-n", "2", "--requests", "3000",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "speedup=" in out

    def test_compare(self, capsys):
        assert main(["compare", "-n", "2", "--requests", "8000"]) == 0
        out = capsys.readouterr().out
        assert "rel err %" in out
        assert "max |rel err|" in out

    def test_protocols(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("write-once", "synapse", "illinois", "berkeley",
                     "rwb", "dragon"):
            assert name in out

    def test_bad_sharing_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--sharing", "42"])

    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--clusters", "1", "4",
                     "--per-cluster", "4"]) == 0
        out = capsys.readouterr().out
        assert "U_global" in out
        assert out.count("\n") >= 3

    def test_estimate(self, capsys):
        assert main(["estimate", "--references", "20000", "--cpus", "2",
                     "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "references:" in out
        assert "speedup" in out

    def test_table_bad_part(self, capsys):
        assert main(["table", "z"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_csv(self, capsys):
        assert main(["grid", "--protocols", "1", "-n", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("protocol,sharing,n_processors")
        assert "WO+1" in out

    def test_crossmodel(self, capsys):
        assert main(["crossmodel", "-n", "1", "2",
                     "--requests", "8000"]) == 0
        out = capsys.readouterr().out
        assert "GTPN Erlang" in out
        assert "max cross-technique spread" in out

    def test_report(self, capsys):
        assert main(["report", "-n", "2", "--requests", "6000"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "Pooled accuracy" in out
        assert "Table 4.1(c)" in out

    def test_grid_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "grid.json"
        assert main(["grid", "--protocols", "dragon", "-n", "2",
                     "--json", "-o", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        import json
        data = json.loads(target.read_text())
        assert data[0]["protocol"] == "Dragon"


class TestGridServiceFlags:
    """--jobs / --cache route the grid through the service executor."""

    BASE = ["grid", "--protocols", "wo", "1", "-n", "2", "4"]

    def test_default_run_has_no_summary_on_stderr(self, capsys):
        assert main(self.BASE) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_jobs_output_is_byte_identical_to_serial(self, capsys):
        assert main(self.BASE) == 0
        serial = capsys.readouterr().out
        assert main(self.BASE + ["--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "12 cells" in captured.err  # sweep summary on stderr

    def test_cache_reruns_solve_nothing(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        assert main(self.BASE + ["--cache", str(cache)]) == 0
        first = capsys.readouterr()
        assert "12 solved, 0 cached" in first.err
        assert main(self.BASE + ["--cache", str(cache)]) == 0
        second = capsys.readouterr()
        assert "0 solved, 12 cached (100% hit rate)" in second.err
        assert second.out == first.out

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.jobs == 1
        assert args.cache is None
        assert args.engine is None  # deprecated, no effect
        assert getattr(args, "async") is False
        assert args.coalesce_window_ms is None  # deprecated, no effect
        assert args.max_batch == 256
        assert args.no_coalesce is False

    def test_serve_coalesce_window_is_deprecated(self, capsys):
        """--coalesce-window-ms is accepted and ignored until its
        sunset, with one stderr line."""
        args = build_parser().parse_args(
            ["serve", "--coalesce-window-ms", "5"])
        assert args.coalesce_window_ms == 5.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--coalesce-window-ms is deprecated" in err
        assert "2027-04-01" in err


class TestEngineFlag:
    """--engine is deprecated: accepted, one stderr line, no effect."""

    BASE = ["grid", "--protocols", "wo", "1", "-n", "2", "4"]

    def test_grid_batch_output_is_byte_identical(self, capsys):
        assert main(self.BASE) == 0
        default = capsys.readouterr()
        assert default.err == ""
        for engine in ("batch", "scalar"):
            assert main(self.BASE + ["--engine", engine]) == 0
            captured = capsys.readouterr()
            assert captured.out == default.out
            assert captured.err.count("\n") == 1
            assert "--engine is deprecated" in captured.err

    def test_stress_engine_batch(self, capsys):
        assert main(["stress", "-n", "4", "--engine", "batch"]) == 0
        captured = capsys.readouterr()
        assert "isolation invariant: ok" in captured.out
        assert "(batch)" in captured.out
        assert "--engine is deprecated" in captured.err
        assert main(["stress", "-n", "4"]) == 0
        plain = capsys.readouterr().out
        # Same report apart from the timing in the summary line.
        strip = [line.split("; ")[0] for line in plain.splitlines()]
        assert [line.split("; ")[0]
                for line in captured.out.splitlines()] == strip

    def test_grid_cache_cold_pass_is_one_batch(self, tmp_path, capsys):
        """A cold ``grid --cache`` pass batches every MVA cell and
        prints what the uncached run prints."""
        assert main(self.BASE) == 0
        plain = capsys.readouterr().out
        assert main(self.BASE + ["--cache", str(tmp_path / "c.db")]) == 0
        cold = capsys.readouterr()
        assert cold.out == plain
        assert cold.err.strip().endswith("(batch)")

    def test_bad_engine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.BASE + ["--engine", "quantum"])


class TestSweepSubcommand:
    """`repro sweep` rides the sharded queue but must print the same
    bytes as `repro grid` for the same spec."""

    ARGS = ["--protocols", "wo", "1", "-n", "2", "4"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.n == [1, 2, 4, 8, 16, 32]
        assert args.workers == 1
        assert args.chunk_size is None
        assert args.lease_ttl == 15.0
        assert args.state_dir is None
        assert args.resume is None
        assert args.chaos_kill == 0

    def test_output_matches_grid(self, capsys):
        assert main(["grid"] + self.ARGS) == 0
        grid_out = capsys.readouterr().out
        assert main(["sweep"] + self.ARGS) == 0
        captured = capsys.readouterr()
        assert captured.out == grid_out
        assert "sweep job" in captured.err
        assert "12 cells" in captured.err

    def test_state_dir_resume_serves_from_cache(self, tmp_path, capsys):
        import re

        state = str(tmp_path / "state")
        assert main(["sweep"] + self.ARGS + ["--state-dir", state]) == 0
        first = capsys.readouterr()
        job_id = re.search(r"sweep job (\w+):", first.err).group(1)
        assert main(["sweep", "--state-dir", state,
                     "--resume", job_id]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "12 from cache" in second.err

    def test_full_disk_exits_2_naming_the_journal(self, tmp_path):
        """A state dir on a full disk (a 32 KB file-size limit in the
        child) ends in `error: ...` and exit 2, not a traceback."""
        import os
        import resource
        import subprocess
        import sys as _sys

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (32_768, 32_768))

        env = dict(os.environ)
        src = str(__import__("pathlib").Path(__file__).resolve()
                  .parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "sweep", "--state-dir",
             str(tmp_path / "state"), "--all-combinations", "-n",
             *map(str, range(1, 22))],
            preexec_fn=limit_file_size, env=env, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: sweep journal ")
        assert "Traceback" not in proc.stderr

    def test_des_sweep_spreads_over_workers(self, capsys):
        """No --chunk-size: the queue's default shards a DES sweep into
        several chunks, and both workers lease some (one on a one-core
        host, where either outcome is possible)."""
        import os
        import re

        assert main(["sweep", "--protocols", "wo", "-n", "2",
                     "--simulate", "--sim-engine", "vector",
                     "--requests", "300", "--sim-reps", "2",
                     "--workers", "2"]) == 0
        err = capsys.readouterr().err
        done, chunks = map(int, re.search(r"(\d+)/(\d+) chunks done",
                                          err).groups())
        assert done == chunks > 1
        used = int(re.search(r"workers_used=(\d+)", err).group(1))
        assert min(2, os.cpu_count() or 1) <= used <= 2

    def test_resume_unknown_job_exits_2(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["sweep"] + self.ARGS + ["--state-dir", state]) == 0
        capsys.readouterr()
        assert main(["sweep", "--state-dir", state,
                     "--resume", "nope"]) == 2
        assert "unknown sweep job" in capsys.readouterr().err


class TestServeSubcommand:
    @pytest.mark.parametrize("front", [[], ["--async"]])
    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_out_of_range_port_is_a_usage_error(self, capsys, front, port):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", port] + front)
        assert exc.value.code == 2
        assert "--port: must be 0-65535" in capsys.readouterr().err

    def test_serve_answers_solve_and_healthz(self, tmp_path):
        """`repro serve` on an ephemeral port answers POST /v1/solve
        with the same speedup the `solve` subcommand prints."""
        import json
        import os
        import re
        import subprocess
        import sys as _sys
        import urllib.request

        env = dict(os.environ)
        src = str(__import__("pathlib").Path(__file__).resolve()
                  .parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            assert match, f"no listen URL in banner: {banner!r}"
            url = match.group(0)
            with urllib.request.urlopen(url + "/v1/healthz",
                                        timeout=10) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
            request = urllib.request.Request(
                url + "/v1/solve",
                data=json.dumps({"protocol": "berkeley", "n": 10}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as resp:
                payload = json.loads(resp.read())
            from repro.core.model import CacheMVAModel
            from repro.protocols.family import PROTOCOLS
            from repro.workload.parameters import (
                SharingLevel, appendix_a_workload)
            expected = CacheMVAModel(
                appendix_a_workload(SharingLevel.FIVE_PERCENT),
                PROTOCOLS["berkeley"]).speedup(10)
            assert payload["results"][0]["speedup"] == pytest.approx(expected)
        finally:
            process.terminate()
            process.wait(timeout=10)
