"""Blocking client for the campaign service (the CLI verbs' engine).

One connection per request, matching the daemon's one-request
protocol: connect, send one canonical JSONL line, read the reply (or,
for ``watch``, read frames until a terminal one).  Errors the daemon
reports come back as :class:`~repro.errors.ReproError`, so CLI code
handles service-side and client-side failures through one path.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.fuzz.gen import FuzzCase
from repro.serve.protocol import (
    TERMINAL_STATES,
    decode_message,
    encode_message,
    job_request,
    plain_request,
    submit_campaign_request,
    submit_fuzz_request,
)


class ServeClient:
    """Talk to a running ``repro serve`` daemon over its socket.

    Address is either a unix socket path (the default layout puts it at
    ``<state_dir>/serve.sock``) or a ``(host, port)`` pair for TCP.
    """

    def __init__(self, socket_path: Optional[Union[str, Path]] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 timeout: float = 30.0) -> None:
        if socket_path is None and port is None:
            raise ReproError(
                "ServeClient needs a socket path or a host/port pair")
        self.socket_path = str(socket_path) if socket_path else None
        self.host = host if host is not None else "127.0.0.1"
        self.port = port
        self.timeout = timeout

    # -- transport -------------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            return sock
        except OSError as exc:
            target = self.socket_path or f"{self.host}:{self.port}"
            raise ReproError(
                f"cannot reach the serve daemon at {target}: {exc} "
                f"(is `repro serve` running?)") from exc

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip; raises ReproError on a service-side error."""
        try:
            with self._connect() as sock:
                sock.sendall(encode_message(message))
                with sock.makefile("rb") as stream:
                    line = stream.readline()
        except OSError as exc:
            # reset/refused mid-request: a daemon dying or restarting
            raise ReproError(
                f"serve daemon connection failed: {exc}") from exc
        if not line:
            raise ReproError("serve daemon closed the connection "
                             "without replying")
        reply = decode_message(line)
        if not reply.get("ok", False):
            raise ReproError(reply.get("error", "serve daemon error"))
        return reply

    # -- operations ------------------------------------------------------------

    def submit_campaign(self, spec: CampaignSpec,
                        shards: Optional[int] = None, priority: int = 0,
                        label: str = "",
                        derive_seed: bool = False) -> Dict[str, Any]:
        """Submit a campaign; returns the created job's wire dict."""
        reply = self._request(submit_campaign_request(
            spec, shards=shards, priority=priority, label=label,
            derive_seed=derive_seed))
        return reply["job"]

    def submit_fuzz(self, case: FuzzCase, priority: int = 0,
                    label: str = "") -> Dict[str, Any]:
        """Submit a fuzz case; returns the created job's wire dict."""
        reply = self._request(submit_fuzz_request(
            case, priority=priority, label=label))
        return reply["job"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """One job's current wire dict."""
        return self._request(job_request("status", job_id))["job"]

    def jobs(self) -> Dict[str, Any]:
        """Every known job plus the daemon's health summary."""
        reply = self._request(plain_request("jobs"))
        return {"jobs": reply["jobs"], "health": reply["health"]}

    def health(self) -> Dict[str, Any]:
        """The daemon's health payload."""
        return self._request(plain_request("health"))["health"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued job; returns its final wire dict."""
        return self._request(job_request("cancel", job_id))["job"]

    def trace_info(self, job_id: str) -> Dict[str, Any]:
        """Where the job's archived trace lives (path + existence)."""
        return self._request(job_request("trace", job_id))

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (``metrics`` op)."""
        return self._request(plain_request("metrics"))["exposition"]

    def flight(self) -> Dict[str, Any]:
        """The daemon's flight-recorder ring (``flight`` op)."""
        return self._request(plain_request("flight"))["flight"]

    def shutdown(self) -> None:
        """Ask the daemon to drain and stop."""
        self._request(plain_request("shutdown"))

    def watch(self, job_id: str,
              on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
              timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Stream a job's frames until it reaches a terminal state.

        Returns every frame received (status snapshot, shard frames,
        terminal frame); ``on_frame`` sees each one as it arrives.
        ``timeout`` bounds the whole watch, not one read.
        """
        deadline = (time.monotonic() + timeout) if timeout else None
        frames: List[Dict[str, Any]] = []
        with self._connect() as sock:
            sock.sendall(encode_message(job_request("watch", job_id)))
            with sock.makefile("rb") as stream:
                while True:
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ReproError(
                                f"watch of {job_id} timed out")
                        sock.settimeout(remaining)
                    line = stream.readline()
                    if not line:
                        raise ReproError(
                            f"serve daemon dropped the watch of {job_id}")
                    frame = decode_message(line)
                    if frame.get("ok") is False:
                        raise ReproError(
                            frame.get("error", "serve daemon error"))
                    frames.append(frame)
                    if on_frame is not None:
                        on_frame(frame)
                    if frame.get("event") in TERMINAL_STATES:
                        return frames

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final wire dict."""
        frames = self.watch(job_id, timeout=timeout)
        return frames[-1]["job"]

    def wait_until_ready(self, timeout: float = 10.0,
                         interval: float = 0.05) -> Dict[str, Any]:
        """Poll ``health`` until the daemon answers (startup helper)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[ReproError] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ReproError as exc:
                last_error = exc
                time.sleep(interval)
        raise ReproError(
            f"serve daemon did not come up within {timeout:.0f}s: "
            f"{last_error}")
