"""Scenario: one device + installer + (optional) attacker + defenses.

A scenario provisions a simulated device end to end: the installer app
is pre-installed with ``INSTALL_PACKAGES`` (when its profile installs
silently), target apps are published to the store backend, the
malicious app is planted with SD-Card permissions, and any combination
of the paper's defenses is switched on.  ``run_install`` then executes
one full AIT and reports ground truth: did the genuine app land, or the
attacker's repackaged twin?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Type,
    Union,
)

from repro.errors import ReproError
from repro.android.apk import Apk, ApkBuilder
from repro.android.device import DeviceProfile, nexus5
from repro.android.permissions import (
    DELETE_PACKAGES,
    INSTALL_PACKAGES,
    INTERNET,
    READ_EXTERNAL_STORAGE,
    WRITE_EXTERNAL_STORAGE,
)
from repro.android.pia import ConsentUser
from repro.android.signing import SigningKey
from repro.android.system import AndroidSystem
from repro.attacks.base import ATTACKER_PAYLOAD, MaliciousApp
from repro.core.outcomes import DefenseReport, InstallOutcome
from repro.installers.base import BaseInstaller
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullRecorder
from repro.sim.clock import seconds

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.defenses.dapp import Dapp
    from repro.defenses.fuse_dac import HardenedFuseDaemon
    from repro.defenses.intent_detection import IntentDetectionScheme
    from repro.defenses.intent_origin import IntentOriginScheme

DEVELOPER_KEY = SigningKey("legit-developer", "release")

# Generous upper bound on one AIT in simulated time; polling attackers
# are armed for this long.
AIT_BUDGET_NS = seconds(60)

DefenseName = str
VALID_DEFENSES = ("dapp", "dapp-rescan", "fuse-dac", "intent-detection",
                  "intent-origin")


@dataclass
class Scenario:
    """A composed, runnable experiment."""

    system: AndroidSystem
    installer: BaseInstaller
    attacker: Optional[MaliciousApp] = None
    dapp: Optional["Dapp"] = None
    fuse_dac: Optional["HardenedFuseDaemon"] = None
    intent_detection: Optional["IntentDetectionScheme"] = None
    intent_origin: Optional["IntentOriginScheme"] = None
    listings: Dict[str, object] = field(default_factory=dict)
    extra_installers: List[BaseInstaller] = field(default_factory=list)

    @property
    def obs(self) -> NullRecorder:
        """The device's trace recorder (NULL_RECORDER when off)."""
        return self.system.obs

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(cls, installer: Union[Type[BaseInstaller], BaseInstaller],
              attacker: Optional[Union[Type[MaliciousApp], Callable[..., MaliciousApp]]] = None,
              attacker_factory: Optional[Callable[["Scenario"], MaliciousApp]] = None,
              device: Optional[DeviceProfile] = None,
              defenses: Sequence[DefenseName] = (),
              seed: int = 7,
              recorder: Optional[NullRecorder] = None,
              metrics: Optional[MetricsRegistry] = None) -> "Scenario":
        """Provision a device with ``installer`` and optional extras.

        ``attacker`` may be a MaliciousApp subclass whose constructor
        takes no arguments; attacks needing configuration (fingerprints,
        victim names) use ``attacker_factory``, called with the
        half-built scenario.  ``recorder``/``metrics`` switch on
        observability for the device and everything attached to it.
        """
        system = AndroidSystem(profile=device or nexus5(), seed=seed,
                               recorder=recorder, metrics=metrics)
        installer_app = installer if isinstance(installer, BaseInstaller) else installer()
        scenario = cls(system=system, installer=installer_app)
        scenario._provision_installer()
        scenario._apply_defenses(defenses)
        if attacker_factory is not None:
            scenario.attacker = attacker_factory(scenario)
        elif attacker is not None:
            scenario.attacker = attacker()
        if scenario.attacker is not None:
            scenario._provision_attacker()
        return scenario

    def _provision_installer(self) -> None:
        profile = self.installer.profile
        builder = (
            ApkBuilder(profile.package)
            .label(profile.label)
            .uses_permission(INTERNET, READ_EXTERNAL_STORAGE,
                             WRITE_EXTERNAL_STORAGE)
        )
        if profile.silent:
            builder.uses_permission(INSTALL_PACKAGES, DELETE_PACKAGES)
        apk = builder.payload(b"<installer code>").build(self.system.platform_key)
        self.system.install_system_app(apk)
        self.system.attach(self.installer)

    def attach_installer(self, installer: Union[Type[BaseInstaller],
                                                BaseInstaller]) -> BaseInstaller:
        """Provision an additional store on the same device.

        Real devices ship several installers at once (a vendor store,
        a carrier pusher, side-loaded markets); each is a separate
        attack surface.  Returns the attached installer; publish apps
        to it via ``publish_app(..., installer=<returned>)`` and run
        with ``run_install(..., installer=<returned>)``.
        """
        extra = installer if isinstance(installer, BaseInstaller) else installer()
        current = self.installer
        try:
            self.installer = extra
            self._provision_installer()
        finally:
            self.installer = current
        self.extra_installers.append(extra)
        if self.dapp is not None:
            # DAPP covers every store's staging directory it knows of.
            self.dapp.watch(
                extra.profile.staging_dir(
                    self.system.layout.app_private_dir(extra.package)
                )
            )
        return extra

    def _provision_attacker(self) -> None:
        apk = MaliciousApp.build_apk(self.attacker.package)
        self.system.install_user_app(apk, installer="com.android.vending")
        self.system.attach(self.attacker)

    def _apply_defenses(self, defenses: Sequence[DefenseName]) -> None:
        from repro.defenses.dapp import Dapp
        from repro.defenses.fuse_dac import install_fuse_dac
        from repro.defenses.intent_detection import IntentDetectionScheme
        from repro.defenses.intent_origin import IntentOriginScheme

        for name in defenses:
            if name not in VALID_DEFENSES:
                raise ReproError(
                    f"unknown defense {name!r}; valid: {VALID_DEFENSES}"
                )
        if "dapp" in defenses and "dapp-rescan" in defenses:
            # Both are the same protection app (org.gia.dapp); a device
            # runs one or the other, never both.
            raise ReproError("defenses 'dapp' and 'dapp-rescan' are "
                             "mutually exclusive variants of the same app")
        if "fuse-dac" in defenses:
            self.fuse_dac = install_fuse_dac(self.system)
        if "dapp" in defenses or "dapp-rescan" in defenses:
            from repro.defenses.dapp_rescan import DappRescan

            dapp_cls = DappRescan if "dapp-rescan" in defenses else Dapp
            staging = self.installer.profile.staging_dir(
                self.system.layout.app_private_dir(self.installer.package)
            )
            dapp_apk = (
                ApkBuilder(Dapp.package)
                .label("DAPP")
                .uses_permission(READ_EXTERNAL_STORAGE, WRITE_EXTERNAL_STORAGE)
                .payload(b"<dapp code>")
                .build(DEVELOPER_KEY)
            )
            self.system.install_user_app(dapp_apk, installer="com.android.vending")
            self.dapp = dapp_cls(watch_dirs=[staging])
            self.system.attach(self.dapp)
        if "intent-detection" in defenses:
            self.intent_detection = IntentDetectionScheme().install(self.system.firewall)
            self.intent_detection.bind_observability(self.system.obs)
        if "intent-origin" in defenses:
            self.intent_origin = IntentOriginScheme().install(self.system.firewall)
            self.intent_origin.bind_observability(self.system.obs)

    # -- store content ------------------------------------------------------------------

    def publish_app(self, package: str, label: str = "", size_bytes: int = 4096,
                    uses_permissions: Sequence[str] = (),
                    version: int = 1, key: Optional[SigningKey] = None,
                    app_id: str = "",
                    installer: Optional[BaseInstaller] = None) -> object:
        """Publish a genuine app to a store backend (default: the main one)."""
        builder = ApkBuilder(package).version(version).payload_size(size_bytes)
        if label:
            builder.label(label)
        if uses_permissions:
            builder.uses_permission(*uses_permissions)
        apk = builder.build(key or DEVELOPER_KEY)
        target = installer or self.installer
        listing = target.backend.publish(apk, app_id=app_id)
        self.listings[package] = listing
        return listing

    def publish_apk(self, apk: Apk, app_id: str = "") -> object:
        """Publish a pre-built APK (e.g. a platform-signed system app)."""
        listing = self.installer.backend.publish(apk, app_id=app_id)
        self.listings[apk.package] = listing
        return listing

    # -- execution -----------------------------------------------------------------------

    def run_install(self, package: str, arm_attacker: bool = True,
                    user: Optional[ConsentUser] = None,
                    installer: Optional[BaseInstaller] = None) -> InstallOutcome:
        """Run one full AIT for ``package`` and report ground truth."""
        if package not in self.listings:
            raise ReproError(f"publish_app({package!r}) before installing it")
        if arm_attacker and self.attacker is not None:
            self._arm_attacker()
        runner = installer or self.installer
        start_ns = self.system.now_ns
        process = self.system.kernel.spawn(
            runner.run_ait(package, user=user),
            name=f"ait-{package}",
        )
        self.system.run()
        outcome = self._outcome(package, process, start_ns, runner)
        self._observe_outcome(outcome)
        return outcome

    def _observe_outcome(self, outcome: InstallOutcome) -> None:
        """Replay one AIT's result into the observability layer."""
        obs = self.system.obs
        if obs.enabled:
            if outcome.trace is not None:
                outcome.trace.emit_spans(obs)
            obs.event(
                "install/outcome", self.system.now_ns,
                package=outcome.requested_package,
                installed=outcome.installed,
                hijacked=outcome.hijacked,
                error=outcome.error or "",
            )
            if outcome.hijacked:
                obs.event("attack/hijack", self.system.now_ns,
                          package=outcome.requested_package,
                          signer=outcome.installed_certificate_owner or "")
        metrics = self.system.metrics
        if metrics is not None:
            # The event above is the ledger of runs, installs, hijacks
            # and errors (repro.obs.metrics.FOLDED); the elapsed time
            # is recorded nowhere else.
            metrics.histogram("ait/elapsed_ns").observe(outcome.elapsed_ns)

    def _arm_attacker(self) -> None:
        arm = getattr(self.attacker, "arm", None)
        if arm is None:
            return
        try:
            arm()
        except TypeError:
            arm(AIT_BUDGET_NS)

    def _outcome(self, package: str, process: object, start_ns: int,
                 runner: Optional[BaseInstaller] = None) -> InstallOutcome:
        listing = self.listings[package]
        installed = self.system.pms.get_package(package)
        runner = runner or self.installer
        outcome = InstallOutcome(
            requested_package=package,
            elapsed_ns=self.system.now_ns - start_ns,
            genuine_certificate_owner=listing.apk.certificate.owner,
            trace=runner.traces[-1] if runner.traces else None,
        )
        if process.error is not None:  # never empty: the trace counts it
            outcome.error = str(process.error) or type(process.error).__name__
        if installed is not None:
            outcome.installed = True
            outcome.installed_certificate_owner = installed.certificate.owner
            outcome.hijacked = (
                installed.certificate != listing.apk.certificate
                or ATTACKER_PAYLOAD in installed.payload
            )
        return outcome

    # -- reporting ------------------------------------------------------------------------

    def defense_reports(self) -> List[DefenseReport]:
        """Reports of every active defense."""
        reports = []
        if self.dapp is not None:
            reports.append(self.dapp.report)
        if self.fuse_dac is not None:
            reports.append(self.fuse_dac.report)
        if self.intent_detection is not None:
            reports.append(self.intent_detection.report)
        if self.intent_origin is not None:
            reports.append(self.intent_origin.report)
        return reports
