"""The daemon under test, in its own ``rfic-layout serve`` process, and the
generator-side HTTP plumbing that talks to it."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

BOOT_TIMEOUT_S = 60.0


class Daemon:
    """``python3 -m repro.cli serve`` on an ephemeral port."""

    def __init__(self, data_dir: Path, dispatchers: int, log_path: Path) -> None:
        self.data_dir = data_dir
        self.dispatchers = dispatchers
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> float:
        """Boot and wait until ``/healthz`` answers; returns the boot seconds."""
        port_file = self.data_dir.parent / f"{self.data_dir.name}.port"
        port_file.unlink(missing_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--port-file", str(port_file),
                    "--data-dir", str(self.data_dir),
                    "--dispatchers", str(self.dispatchers),
                    "--drain-grace", "10", "--quiet",
                ],
                stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during boot (see {self.log_path})")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.port = int(text)
                try:
                    status, _ = Connection(self.port).request("GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - started
            time.sleep(0.01)
        raise RuntimeError("daemon did not become healthy in time")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc = None


class Connection:
    """HTTP client for one generator thread.

    Every request opens its own TCP connection and sends
    ``Connection: close``, as the service's own ``ServiceClient`` (urllib)
    does; a thread never holds more than one connection at a time.  The
    server then closes first, so the thousands of connections a run makes
    leave no TIME_WAIT entries on this side: those would slow every later
    ``connect()`` and make back-to-back runs drift.
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post_json(self, path: str, document) -> Tuple[int, Dict[str, object]]:
        status, data = self.request("POST", path, json.dumps(document).encode("utf-8"))
        return status, json.loads(data.decode("utf-8")) if data else {}

    def events(self, path: str) -> Iterator[Dict[str, object]]:
        """Server-sent events of one stream, each with its arrival time."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            kind, data = None, None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event:"):
                    kind = line[6:].strip()
                elif line.startswith("data:"):
                    data = line[5:].strip()
                elif not line and kind is not None:
                    event = json.loads(data) if data else {}
                    event["_kind"] = kind
                    event["_received"] = time.time()
                    yield event
                    kind, data = None, None
        finally:
            conn.close()


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def scrape(conn: Connection) -> Dict[str, float]:
    """``GET /metrics`` as ``{"name{labels}": value}``.

    Parsed here, not with ``repro.obs``, so the measurement does not rest
    on the code it measures.
    """
    status, data = conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics: HTTP {status}")
    samples: Dict[str, float] = {}
    for line in data.decode("utf-8").splitlines():
        match = _SAMPLE.match(line)
        if match and not line.startswith("#"):
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def delta(before: Dict[str, float], after: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def stage_mean(before, after, family: str, label: str = "") -> float:
    """Mean of one histogram series' observations between two scrapes."""
    count = delta(before, after, f"{family}_count{label}")
    return delta(before, after, f"{family}_sum{label}") / count if count else 0.0


def file_size(path: Path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
