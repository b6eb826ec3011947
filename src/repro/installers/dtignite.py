"""DTIgnite (Digital Turbine Ignite) — carrier bloatware pusher.

A pre-installed system app used by 30+ carriers to silently push apps
post-sale.  Paper facts reproduced (Section III-B):

- APKs fetched by the **AOSP Download Manager** into
  ``/sdcard/DTIgnite``,
- hash verification before a **silent** install via the PMS,
- both the FileObserver attack and a "wait-and-see" replacement
  **2 seconds** after download completion succeed on it.
"""

from __future__ import annotations

from repro.installers.base import BaseInstaller, InstallerProfile
from repro.sim.clock import millis

DTIGNITE_PACKAGE = "com.dti.ignite"

DTIGNITE_PROFILE = InstallerProfile(
    package=DTIGNITE_PACKAGE,
    label="DTIgnite",
    uses_sdcard=True,
    download_dir="/sdcard/DTIgnite",
    uses_download_manager=True,
    verify_hash=True,
    verify_reads=1,
    verify_start_delay_ns=millis(1000),
    install_delay_ns=millis(2500),
    silent=True,
)


class DTIgniteInstaller(BaseInstaller):
    """The carrier push installer."""

    profile = DTIGNITE_PROFILE
