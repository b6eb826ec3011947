"""A minimal network: URL -> content, with latency and bandwidth.

Stands in for the appstore backends and carrier servers the real
installers download APKs and metadata from.  Download duration is
``latency + size / bandwidth`` in simulated time, so the attacks' timing
reasoning (e.g. "replace 500 ms after download completes") is
meaningful.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.errors import DownloadError
from repro.sim.clock import millis

ContentProvider = Union[bytes, Callable[[], bytes]]

DEFAULT_BANDWIDTH_BYTES_PER_SEC = 4 * 1024 * 1024  # a decent LTE link
DEFAULT_LATENCY_NS = millis(80)


class Network:
    """URL registry with simulated transfer timing."""

    def __init__(self, bandwidth_bytes_per_sec: int = DEFAULT_BANDWIDTH_BYTES_PER_SEC,
                 latency_ns: int = DEFAULT_LATENCY_NS) -> None:
        self.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec
        self.latency_ns = latency_ns
        self._content: Dict[str, ContentProvider] = {}

    def host(self, url: str, content: ContentProvider) -> None:
        """Serve ``content`` (bytes, or a thunk evaluated per fetch) at ``url``."""
        self._content[url] = content

    def fetch(self, url: str) -> bytes:
        """Content at ``url``; raises :class:`DownloadError` on a 404."""
        provider = self._content.get(url)
        if provider is None:
            raise DownloadError(f"404: {url}")
        return provider() if callable(provider) else provider

    def exists(self, url: str) -> bool:
        """True if ``url`` is registered."""
        return url in self._content

    def transfer_time_ns(self, size_bytes: int) -> int:
        """Simulated time to move ``size_bytes`` over this link."""
        return self.latency_ns + (size_bytes * 1_000_000_000) // self.bandwidth_bytes_per_sec
