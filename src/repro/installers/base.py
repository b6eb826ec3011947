"""The installer framework: store backends, profiles and the AIT engine.

:class:`BaseInstaller.run_ait` is a faithful rendering of the four-step
transaction of Figure 1, parameterized by an :class:`InstallerProfile`
that captures every security-relevant design choice the paper observed
in the wild.  Concrete installers (Amazon, Xiaomi, DTIgnite, ...) are
thin profile + interface wrappers in sibling modules.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.errors import DownloadError, InstallError, InstallVerificationError
from repro.android.apk import Apk, hash_bytes
from repro.android.app import App
from repro.android.packages import InstalledPackage
from repro.android.pia import ConsentUser
from repro.core.ait import AITStep, TransactionTrace
from repro.sim.clock import millis
from repro.sim.kernel import Sleep, SimEvent, WaitFor

DOWNLOAD_CHUNKS = 4


@dataclass(frozen=True)
class StoreListing:
    """One app as the store backend serves it: bytes plus metadata.

    ``file_hash`` and ``manifest_checksum`` are the integrity anchors
    real stores ship alongside the APK.
    """

    package: str
    apk: Apk
    url: str
    file_hash: str
    manifest_checksum: str
    app_id: str = ""

    @property
    def label(self) -> str:
        """Display label (what the store page shows)."""
        return self.apk.manifest.label


class AppStoreBackend:
    """The store's server side: hosts APKs and metadata on the network."""

    def __init__(self, network: "object", store_name: str) -> None:
        self._network = network
        self.store_name = store_name
        self._listings: Dict[str, StoreListing] = {}

    def publish(self, apk: Apk, app_id: str = "") -> StoreListing:
        """Add (or update) ``apk`` in the catalogue and host its bytes."""
        url = f"https://{self.store_name}.example/apk/{apk.package}"
        payload = apk.to_bytes()
        self._network.host(url, payload)
        listing = StoreListing(
            package=apk.package,
            apk=apk,
            url=url,
            file_hash=hash_bytes(payload),
            manifest_checksum=apk.manifest.checksum(),
            app_id=app_id or f"id-{len(self._listings) + 1}",
        )
        self._listings[apk.package] = listing
        return listing

    def get(self, package: str) -> StoreListing:
        """Catalogue lookup; raises :class:`InstallError` on a miss."""
        listing = self._listings.get(package)
        if listing is None:
            raise InstallError(f"{self.store_name} has no listing for {package}")
        return listing

    def by_app_id(self, app_id: str) -> Optional[StoreListing]:
        """Lookup by store-internal app id (used by push messages)."""
        for listing in self._listings.values():
            if listing.app_id == app_id:
                return listing
        return None

    def packages(self) -> List[str]:
        """All published package names."""
        return sorted(self._listings)


@dataclass(frozen=True)
class InstallerProfile:
    """Every AIT design choice the paper found security-relevant."""

    package: str
    label: str
    # -- storage (Section II) --
    uses_sdcard: bool = True
    download_dir: str = ""
    randomize_names: bool = False
    world_readable_staging: bool = False  # required for internal staging
    # -- download (Step 2) --
    uses_download_manager: bool = False
    # -- integrity check fingerprint (Step 3) --
    verify_hash: bool = True
    verify_reads: int = 1            # CLOSE_NOWRITE events per check
    verify_start_delay_ns: int = millis(50)
    per_read_ns: int = millis(40)
    install_delay_ns: int = millis(200)  # gap between check and PMS/PIA
    redownload_on_corrupt: bool = True
    max_retries: int = 2
    rename_on_complete: bool = False     # Xiaomi's tmp-name dance
    # -- install (Step 4) --
    silent: bool = True                   # PMS (INSTALL_PACKAGES) vs PIA
    uses_pms_verification: bool = False   # installPackageWithVerification
    drm_self_check: bool = False          # new-Amazon tamper self-check
    delete_after_install: bool = False

    def staging_dir(self, private_dir: str) -> str:
        """Where this installer stages APKs."""
        if self.uses_sdcard:
            return self.download_dir or f"/sdcard/{self.label}"
        return f"{private_dir}/staging"


class BaseInstaller(App):
    """An installer app driving full AITs against its store backend."""

    profile: InstallerProfile

    def __init__(self, profile: Optional[InstallerProfile] = None) -> None:
        if profile is not None:
            self.profile = profile
        super().__init__(package=self.profile.package)
        self.backend: Optional[AppStoreBackend] = None
        self.displayed_package: Optional[str] = None
        self.display_history: List[Any] = []
        self.traces: List[TransactionTrace] = []
        self.tampered = False  # set by the repackaging attack

    # -- wiring ------------------------------------------------------------------

    def on_attached(self) -> None:
        if self.backend is None:
            self.backend = AppStoreBackend(self.system.network, self.profile.label)
        staging = self.profile.staging_dir(self.private_dir)
        if not self.system.fs.exists(staging):
            self.make_dirs(staging)

    # -- store UI (AIT Step 1 surface) ---------------------------------------------

    def handle_intent(self, intent: Any) -> None:
        """Default store activity: show the app page an Intent asks for."""
        shown = intent.extras.get("show_package")
        if shown is not None:
            self.displayed_package = shown
            self.display_history.append((self.system.now_ns, shown, intent))

    def user_clicks_install(self, user: Optional[ConsentUser] = None):
        """The user taps Install on whatever app page is displayed *now*.

        This is the moment the redirect-Intent attack targets: the page
        may have been silently switched since the user was redirected
        here.  Returns the spawned process.
        """
        if self.displayed_package is None:
            raise InstallError(f"{self.package} has no app page displayed")
        return self.system.kernel.spawn(
            self.run_ait(self.displayed_package, user=user),
            name=f"{self.profile.label}-install-{self.displayed_package}",
        )

    # -- the transaction (Steps 2-4) -------------------------------------------------

    def run_ait(self, target_package: str, user: Optional[ConsentUser] = None,
                ) -> Generator[Any, Any, InstalledPackage]:
        """Run the full App Installation Transaction for ``target_package``."""
        if self.profile.drm_self_check and self.tampered_check_active():
            raise InstallError(f"{self.package}: DRM self-check failed")
        listing = self.backend.get(target_package)
        trace = TransactionTrace(
            installer_package=self.package, target_package=target_package
        )
        self.traces.append(trace)
        attempts = 0
        while True:
            attempts += 1
            try:
                staged_path = yield from self._download(listing, trace)
            except DownloadError as exc:
                # Transient network failure: retry like real stores do.
                if attempts > self.profile.max_retries:
                    trace.error = str(exc)
                    raise InstallError(
                        f"{self.package}: download of {target_package} "
                        f"failed: {exc}"
                    ) from exc
                yield Sleep(self.profile.verify_start_delay_ns)
                continue
            verified = yield from self._verify(staged_path, listing, trace)
            if verified:
                break
            if not self.profile.redownload_on_corrupt or attempts > self.profile.max_retries:
                trace.error = "integrity check failed"
                raise InstallVerificationError(
                    f"{self.package}: hash mismatch for {target_package}"
                )
            # Transparent re-download — the retry loop the paper notes
            # gives the attacker another shot at the window.
        yield Sleep(self.profile.install_delay_ns)
        package = yield from self._install(staged_path, listing, trace, user)
        if self.profile.delete_after_install and self.system.fs.exists(staged_path):
            self.delete_file(staged_path)
        trace.completed = True
        return package

    # -- Step 2: download ---------------------------------------------------------------

    def _download(self, listing: StoreListing,
                  trace: TransactionTrace) -> Generator[Any, Any, str]:
        staging = self.profile.staging_dir(self.private_dir)
        if not self.system.fs.exists(staging):
            self.make_dirs(staging)
        filename = self._staged_filename(listing)
        final_path = posixpath.join(staging, filename)
        mechanism = (
            "DownloadManager" if self.profile.uses_download_manager else "self-download"
        )
        storage = "sdcard" if self.profile.uses_sdcard else "internal"
        entry = trace.begin(AITStep.DOWNLOAD, self.system.now_ns,
                            mechanism=f"{mechanism}/{storage}", path=final_path)
        if self.profile.rename_on_complete:
            download_path = final_path + ".tmp"
        else:
            download_path = final_path
        if self.profile.uses_download_manager:
            yield from self._download_via_dm(listing, download_path)
        else:
            yield from self._self_download(listing, download_path)
        if self.profile.rename_on_complete:
            self.move_file(download_path, final_path)
        if self.profile.world_readable_staging and not self.profile.uses_sdcard:
            self.set_world_readable(final_path)
        entry.end_ns = self.system.now_ns
        return final_path

    def _download_via_dm(self, listing: StoreListing,
                         destination: str) -> Generator[Any, Any, None]:
        if self.system.fs.exists(destination):
            self.delete_file(destination)
        download_id = self.enqueue_download(listing.url, destination)
        done = SimEvent(name=f"dm-{download_id}")
        subscription = self.system.hub.subscribe(
            self.system.dm.completion_topic(download_id),
            lambda record: done.trigger(record),
        )
        record = yield WaitFor(done)
        subscription.cancel()
        if record.status.value != "successful":
            raise DownloadError(f"download of {listing.url} failed")

    def _self_download(self, listing: StoreListing,
                       destination: str) -> Generator[Any, Any, None]:
        content = self.system.network.fetch(listing.url)
        yield Sleep(self.system.network.latency_ns)
        if self.system.fs.exists(destination):
            self.delete_file(destination)
        handle = self.system.fs.create(destination, self.caller, exclusive=False)
        chunk_size = max(1, len(content) // DOWNLOAD_CHUNKS)
        chunk_time = self.system.network.transfer_time_ns(chunk_size)
        offset = 0
        while offset < len(content):
            handle.append(content[offset:offset + chunk_size])
            offset += chunk_size
            if offset < len(content):
                yield Sleep(chunk_time)
        handle.close()  # CLOSE_WRITE: the attacker's download-done cue

    def _staged_filename(self, listing: StoreListing) -> str:
        if self.profile.randomize_names:
            return f"{self.system.rng.token(16)}.apk"
        return f"{listing.package}.apk"

    # -- Step 3: integrity check + trigger --------------------------------------------------

    def _verify(self, staged_path: str, listing: StoreListing,
                trace: TransactionTrace) -> Generator[Any, Any, bool]:
        entry = trace.begin(
            AITStep.TRIGGER, self.system.now_ns,
            mechanism=(
                f"hash-check x{self.profile.verify_reads}"
                if self.profile.verify_hash else "no-check"
            ),
        )
        yield Sleep(self.profile.verify_start_delay_ns)
        if not self.profile.verify_hash:
            entry.end_ns = self.system.now_ns
            return True
        content = b""
        for index in range(max(1, self.profile.verify_reads)):
            content = self.read_file(staged_path)  # OPEN/ACCESS/CLOSE_NOWRITE
            if index < self.profile.verify_reads - 1:
                yield Sleep(self.profile.per_read_ns)
        entry.end_ns = self.system.now_ns
        passed = hash_bytes(content) == listing.file_hash
        entry.detail["hash_ok"] = passed
        return passed

    # -- Step 4: install -------------------------------------------------------------------

    def _install(self, staged_path: str, listing: StoreListing,
                 trace: TransactionTrace,
                 user: Optional[ConsentUser]) -> Generator[Any, Any, InstalledPackage]:
        if self.profile.silent:
            mechanism = (
                "PMS.installPackageWithVerification"
                if self.profile.uses_pms_verification else "PMS.installPackage"
            )
        else:
            mechanism = "PackageInstallerActivity"
        entry = trace.begin(AITStep.INSTALL, self.system.now_ns, mechanism=mechanism)
        try:
            if self.profile.silent:
                if self.profile.uses_pms_verification:
                    package = self.system.pms.install_package_with_verification(
                        staged_path, self.caller, listing.manifest_checksum,
                        installer_package=self.package,
                    )
                else:
                    package = self.system.pms.install_package(
                        staged_path, self.caller, installer_package=self.package
                    )
            else:
                package = yield from self.system.pia.install(
                    staged_path, self.caller, user or ConsentUser()
                )
        except InstallError as exc:
            trace.error = str(exc)
            entry.end_ns = self.system.now_ns
            raise
        entry.end_ns = self.system.now_ns
        return package

    # -- DRM hook (new Amazon appstore) ---------------------------------------------------

    def tampered_check_active(self) -> bool:
        """True when the DRM self-check should trip.

        The repackaging attack *removes* the check along with setting
        ``tampered``; a tampered installer whose DRM code was stripped
        returns False here (the paper's bypass).
        """
        return self.tampered and not getattr(self, "drm_stripped", False)
