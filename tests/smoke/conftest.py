"""Real-process smoke scenarios (``docs/operations.md``, *Smoke
scenarios*): boot a ``python -m`` entry point on ``--port 0``, read the
port from its banner, drive it, SIGTERM it and require exit status 0.
A scenario checks only what a real process can show — flags, banners,
signals, ``kill -9``, ``SO_REUSEPORT``, CLI exit codes.  Run alone with
``PYTHONPATH=src python -m pytest tests/smoke -q``."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.synth import systematic_names

REPO = Path(__file__).resolve().parents[2]
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
HTTP_BANNER = r"on http://127\.0\.0\.1:(\d+)/v1/"
RPC_BANNER = r"on 127\.0\.0\.1:(\d+)"
SYNTH = ["--synth-datasets", "6", "--synth-genes", "120", "--synth-conditions", "10"]
# the demo compendium's planted query is the first 4 systematic names
QUERY = {"genes": systematic_names(4), "page_size": 5}


def spawn(module: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", module, *args],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def port_from_banner(proc: subprocess.Popen, pattern: str = HTTP_BANNER) -> int:
    """Block until the process prints its listening port (killed after 60 s)."""
    deadline = threading.Timer(60, proc.kill)
    deadline.start()
    try:
        for line in proc.stdout:
            match = re.search(pattern, line)
            if match:
                return int(match.group(1))
    finally:
        deadline.cancel()
    raise AssertionError(f"process exited ({proc.wait()}) before announcing a port")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a one-shot ``python`` command to completion."""
    return subprocess.run(
        [sys.executable, *args],
        env=ENV, capture_output=True, text=True, timeout=120,
    )


def call(conn: http.client.HTTPConnection, method: str, path: str,
         payload: dict | None = None, token: str | None = None):
    """One request on ``conn``: ``(response, body bytes)``."""
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp, resp.read()


class Processes:
    """The processes one scenario boots.  Teardown SIGTERMs every one
    still running and requires exit status 0 of each — except those the
    scenario ended with :meth:`kill` — and none outlives the test."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []
        self._killed: list[subprocess.Popen] = []

    def start(self, module: str, *args: str) -> subprocess.Popen:
        proc = spawn(module, *args)
        self._procs.append(proc)
        return proc

    def boot(self, module: str, *args: str) -> int:
        """Start an HTTP entry point on ``--port 0``; its bound port."""
        return port_from_banner(self.start(module, "--port", "0", *args))

    def stop(self, proc: subprocess.Popen) -> None:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.stdout.read()

    def kill(self, proc: subprocess.Popen) -> None:
        proc.kill()
        proc.wait(timeout=10)
        self._killed.append(proc)

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        unclean = []
        for proc in self._procs:
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = f"{proc.wait(timeout=10)}, still running 30 s after SIGTERM"
            proc.stdout.close()
            if code != 0 and proc not in self._killed:
                unclean.append((proc.args, code))
        assert not unclean, unclean


@pytest.fixture
def procs():
    fleet = Processes()
    try:
        yield fleet
    finally:
        fleet.close()
