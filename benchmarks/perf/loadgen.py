"""Closed-loop raw-socket load generator and process accounting.

A browser front end or an export pipeline waits for its reply before
asking again, so the load model is a closed loop: one keep-alive
connection per client thread, request bytes pre-encoded (the
``http.client`` path costs as much Python as the server's warm path).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

SOCKET_TIMEOUT_S = 10.0
SAMPLE_EVERY = 97  # every 97th raw body is kept and checked after the window
_TICKS = os.sysconf("SC_CLK_TCK")


class Connection:
    """One keep-alive HTTP/1.1 client connection over a raw socket."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fill(self) -> None:
        data = self.sock.recv(262144)
        if not data:
            raise ConnectionError("server closed the connection")
        self._buffer += data

    def roundtrip(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; returns ``(status, body)`` once the last
        response byte arrived.  Chunked bodies come back de-chunked."""
        self.sock.sendall(raw)
        while (end := self._buffer.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = self._buffer[:end]
        status = int(head[9:12])
        lower = head.lower()
        pos = end + 4
        if b"transfer-encoding: chunked" in lower:
            parts = []
            while True:
                while (eol := self._buffer.find(b"\r\n", pos)) < 0:
                    self._fill()
                size = int(self._buffer[pos:eol], 16)
                need = eol + 2 + size + 2
                while len(self._buffer) < need:
                    self._fill()
                if size == 0:
                    self._buffer = self._buffer[need:]
                    return status, b"".join(parts)
                parts.append(self._buffer[eol + 2 : eol + 2 + size])
                pos = need
        at = lower.find(b"content-length:")
        length = int(lower[at + 15 :].split(b"\r\n", 1)[0]) if at >= 0 else 0
        while len(self._buffer) < pos + length:
            self._fill()
        body = self._buffer[pos : pos + length]
        self._buffer = self._buffer[pos + length :]
        return status, body


@dataclass
class ClientLog:
    """What one client thread saw during one window."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: (request index, body, started, finished) for after-the-window checks
    samples: list[tuple[int, bytes, float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


class Client:
    """A connection plus its place in the request cycle, kept across
    windows so a cycling client never restarts from request 0."""

    def __init__(self, port: int, raws: list[bytes], offset: int = 0,
                 sample_every: int = SAMPLE_EVERY) -> None:
        self.port = port
        self.raws = raws
        self.position = offset % len(raws)
        self.sample_every = sample_every
        self.sent = 0
        self.conn: Connection | None = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def step(self, log: ClientLog) -> None:
        """One request; failures (refused, timeout, non-200) are counted,
        and the connection is re-opened on the next step."""
        index = self.position
        self.position = (index + 1) % len(self.raws)
        self.sent += 1
        log.attempted += 1
        started = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = Connection(self.port)
            status, body = self.conn.roundtrip(self.raws[index])
        except (OSError, ValueError) as exc:
            log.failed += 1
            log.errors.append(f"{type(exc).__name__}: {exc}")
            self.close()
            return
        finished = time.perf_counter()
        if status != 200:
            log.failed += 1
            log.errors.append(f"HTTP {status}: {body[:160]!r}")
            return
        log.latencies.append(finished - started)
        if self.sent % self.sample_every == 0:
            log.samples.append((index, body, started, finished))

    def run_for(self, seconds: float, log: ClientLog) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.step(log)

    def run_paced(self, seconds: float, period: float, log: ClientLog) -> None:
        """One request per ``period`` seconds, the first half a period in
        (or mid-window when the window is shorter than a period)."""
        start = time.perf_counter()
        due = start + min(period, seconds) / 2
        while due < start + seconds:
            time.sleep(max(0.0, due - time.perf_counter()))
            self.step(log)
            due += period


def run_window(seconds: float, readers: list[Client], writer: Client | None = None,
               period: float = 0.0) -> tuple[float, list[ClientLog], ClientLog | None]:
    """Drive every client concurrently for ``seconds``; returns
    ``(elapsed, reader logs, writer log)``."""
    logs = [ClientLog() for _ in readers]
    threads = [
        threading.Thread(target=c.run_for, args=(seconds, log))
        for c, log in zip(readers, logs)
    ]
    writer_log = None
    if writer is not None:
        writer_log = ClientLog()
        threads.append(
            threading.Thread(target=writer.run_paced, args=(seconds, period, writer_log))
        )
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - started, logs, writer_log


# ------------------------------------------------------------------ /proc
def proc_stats() -> list[tuple[int, list[str]]]:
    """``(pid, stat fields after the comm)`` of every process: state ppid pgrp ..."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # exited between listdir and read
            out.append((int(entry), stat.rsplit(")", 1)[1].split()))
    return out


def group_stats(pgid: int) -> list[tuple[int, list[str]]]:
    """The processes in group ``pgid`` (the server child leads its own
    group, so pool workers and anything else it starts are included)."""
    return [(pid, fields) for pid, fields in proc_stats() if int(fields[2]) == pgid]


def tree_cpu_seconds(pgid: int) -> float:
    """utime+stime of every live process in the group, plus the children
    they have already reaped."""
    ticks = sum(
        int(v) for _, fields in group_stats(pgid) for v in fields[11:15]  # utime stime cutime cstime
    )
    return ticks / _TICKS


def tree_peak_rss_mb(pgid: int) -> float:
    """Sum of ``VmHWM`` over the group, in MiB."""
    total_kb = 0
    for pid, _ in group_stats(pgid):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
