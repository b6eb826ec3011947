"""Randomized soak test: a long mixed workload must uphold invariants.

One device, one seed-driven stream of installs, updates, attacks and
benign traffic across several stores.  The invariants:

- with FUSE DAC active, no run ends hijacked — ever,
- without defenses, attacked SD-Card installs end hijacked and benign
  runs end clean,
- the package database never holds a package whose certificate is
  neither the developer's nor the attacker's,
- the kernel always drains (no stuck processes, no livelocks).
"""

import pytest

from repro.attacks.base import fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.core.scenario import Scenario
from repro.installers import (
    AmazonInstaller,
    BaiduInstaller,
    DTIgniteInstaller,
    TencentInstaller,
    XiaomiInstaller,
)
from repro.sim.rand import DeterministicRandom

STORES = [AmazonInstaller, XiaomiInstaller, BaiduInstaller,
          DTIgniteInstaller, TencentInstaller]


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_soak_undefended(seed):
    rng = DeterministicRandom(seed)
    installer_cls = rng.choice(STORES)
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(installer_cls)
        ),
        seed=seed,
    )
    outcomes = []
    for step in range(20):
        package = f"com.soak.app{step:03d}"
        attacked = rng.chance(0.4)
        if package not in scenario.listings:
            scenario.publish_app(
                package, version=1, size_bytes=1024 + rng.randint(0, 8192)
            )
        if not attacked and scenario.attacker.observer is not None:
            # A dormant attacker stays off.
            scenario.attacker.observer.stop_watching()
        outcome = scenario.run_install(package, arm_attacker=attacked)
        outcomes.append((attacked, outcome))
        if attacked:
            scenario.attacker.rearm()
        assert scenario.system.kernel.pending_events() == 0

    for attacked, outcome in outcomes:
        if attacked:
            assert outcome.hijacked, "armed attacker must win undefended"
        else:
            assert outcome.clean_install, "benign run must stay clean"
    # Certificate closure: only known signers appear on the device.
    for package in scenario.system.package_db.all_packages():
        assert package.certificate.owner in (
            "legit-developer", "gia-attacker", scenario.system.profile.vendor
        )


@pytest.mark.parametrize("seed", [5, 17])
def test_soak_with_fuse_dac(seed):
    rng = DeterministicRandom(seed)
    installer_cls = rng.choice(STORES)
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(installer_cls)
        ),
        defenses=("fuse-dac",),
        seed=seed,
    )
    for step in range(20):
        package = f"com.soak.app{step:03d}"
        scenario.publish_app(package, size_bytes=1024 + rng.randint(0, 4096))
        outcome = scenario.run_install(package,
                                       arm_attacker=rng.chance(0.5))
        scenario.attacker.rearm()
        assert not outcome.hijacked, "FUSE DAC must never lose"
        assert outcome.installed


@pytest.mark.parametrize("seed", [7])
def test_soak_updates_and_reinstalls(seed):
    rng = DeterministicRandom(seed)
    scenario = Scenario.build(installer=AmazonInstaller, seed=seed)
    packages = [f"com.soak.app{i}" for i in range(5)]
    versions = {package: 0 for package in packages}
    for step in range(25):
        package = rng.choice(packages)
        versions[package] += 1
        scenario.publish_app(package, version=versions[package],
                             size_bytes=2048)
        outcome = scenario.run_install(package)
        assert outcome.clean_install
        installed = scenario.system.pms.require_package(package)
        assert installed.version_code == versions[package]
    # UIDs are stable across every update.
    uids = {
        package: scenario.system.pms.require_package(package).uid
        for package in packages
    }
    assert len(set(uids.values())) == len(packages)
