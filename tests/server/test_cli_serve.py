"""The ``repro serve`` CLI entry: parsing, help, end-to-end run."""

import json
import os
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.engine is None
        assert args.tech == "finfet15"
        assert args.jobs_dir == "repro_jobs"
        assert args.run_workers == 8
        assert args.batch_workers == 2
        assert args.timeout == 30.0
        assert not args.access_log

    def test_options(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--engine", "reference", "--tech", "bulk65",
             "--jobs-dir", "/tmp/jobs", "--run-workers", "4",
             "--batch-workers", "1", "--timeout", "5.5",
             "--access-log"])
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.engine == "reference"
        assert args.tech == "bulk65"
        assert args.jobs_dir == "/tmp/jobs"
        assert args.run_workers == 4
        assert args.batch_workers == 1
        assert args.timeout == 5.5
        assert args.access_log

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "gpu"])

    def test_help_describes_the_service(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs-dir" in out
        assert "--run-workers" in out
        assert "--access-log" in out

    def test_serve_is_a_listed_workflow(self):
        from repro.api import WORKFLOW_DESCRIPTIONS
        assert "serve" in WORKFLOW_DESCRIPTIONS
        assert "HTTP" in WORKFLOW_DESCRIPTIONS["serve"]


class TestEndToEnd:
    def test_serve_process_lifecycle(self, tmp_path):
        """`repro serve` comes up, serves, drains on SIGINT, exits 0."""
        import repro
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + os.pathsep \
            + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs-dir", str(tmp_path / "jobs")],
            stderr=subprocess.PIPE, text=True, env=env,
            cwd=str(tmp_path))
        try:
            line = process.stderr.readline()
            assert "listening on http://" in line
            url = line.split("listening on ", 1)[1].split()[0]
            with urllib.request.urlopen(f"{url}/v1/health",
                                        timeout=10) as response:
                payload = json.loads(response.read())
            assert payload["status"] == "ok"
            process.send_signal(signal.SIGINT)
            process.wait(timeout=30)
            assert process.returncode == 0
            remainder = process.stderr.read()
            assert "shutting down" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stderr.close()
