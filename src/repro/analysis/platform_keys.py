"""The appstore signature corpus of the platform-key study (Section IV-B).

The paper checked the signatures of 1.2 million apps across 33 stores
(400,000 of them Google Play): 61 / 125 / 30 apps are signed with the
Samsung / Huawei / Xiaomi platform key — mostly MDM, remote-support,
VPN and backup apps, including the known-vulnerable TeamViewer.  Any
of them hands a GIA attacker a platform-signed payload.

This module generates that corpus.  The per-image half of the study
(one platform key per vendor, platform-signed apps per image) is a
tally of the measurement pipeline's images pass;
:func:`repro.measurement.tables.build_platform_keys` joins the two.

The 1.2M-app signature table is held as numpy arrays of signer indexes
(one per store) so the full corpus fits in a few megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.rand import DeterministicRandom

# Signer-index convention in catalog arrays: each vendor's platform key,
# then developer keys.
PLATFORM_KEY_INDEX = {"samsung": 0, "huawei": 1, "xiaomi": 2}
FIRST_DEVELOPER_INDEX = 3

PLATFORM_SIGNED_IN_STORES = {
    "samsung": 61,
    "huawei": 125,
    "xiaomi": 30,
}

PLATFORM_APP_CATEGORIES = ("MDM", "remote-support", "VPN", "backup")

TOTAL_STORE_APPS = 1_200_000
GOOGLE_PLAY_APPS = 400_000
STORE_COUNT = 33

TEAMVIEWER_PACKAGE = "com.teamviewer.quicksupport.market"


@dataclass(frozen=True)
class PlatformSignedEntry:
    """Metadata for one platform-signed app found in a store."""

    package: str
    store: str
    vendor: str
    category: str


@dataclass
class AppstoreCatalog:
    """One store's signature table."""

    name: str
    signers: np.ndarray                      # uint32 signer indexes
    platform_entries: List[PlatformSignedEntry] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of apps in the catalogue."""
        return int(self.signers.shape[0])

    def count_signed_by(self, key_index: int) -> int:
        """Apps signed with the given signer index."""
        return int(np.count_nonzero(self.signers == key_index))


def generate_appstore_catalogs(seed: int = 2016) -> List[AppstoreCatalog]:
    """Generate the 33-store, 1.2M-app signature corpus."""
    rng = DeterministicRandom(seed).fork("appstores")
    store_names = ["google-play"] + [f"store{index:02d}" for index in range(STORE_COUNT - 1)]
    sizes = _store_sizes()
    catalogs: List[AppstoreCatalog] = []
    placements = _platform_placements(PLATFORM_SIGNED_IN_STORES, store_names,
                                      rng)
    for store_index, name in enumerate(store_names):
        size = sizes[store_index]
        # Developer keys: deterministic pseudo-random indexes >= 3.
        base = np.arange(size, dtype=np.uint32)
        signers = (base * 2654435761 + store_index * 97) % 500_000 + FIRST_DEVELOPER_INDEX
        signers = signers.astype(np.uint32)
        catalog = AppstoreCatalog(name=name, signers=signers)
        for slot, (vendor, package, category) in enumerate(placements.get(name, [])):
            position = (slot * 9973 + 17) % size
            catalog.signers[position] = PLATFORM_KEY_INDEX[vendor]
            catalog.platform_entries.append(
                PlatformSignedEntry(package=package, store=name, vendor=vendor,
                                    category=category)
            )
        catalogs.append(catalog)
    return catalogs


def _store_sizes() -> List[int]:
    remaining = TOTAL_STORE_APPS - GOOGLE_PLAY_APPS
    others = STORE_COUNT - 1
    base = remaining // others
    sizes = [GOOGLE_PLAY_APPS] + [base] * others
    sizes[-1] += remaining - base * others
    return sizes


def _platform_placements(vendor_quota: Dict[str, int], store_names: List[str],
                         rng: DeterministicRandom) -> Dict[str, List[Tuple[str, str, str]]]:
    placements: Dict[str, List[Tuple[str, str, str]]] = {name: [] for name in store_names}
    for vendor, quota in sorted(vendor_quota.items()):
        for index in range(quota):
            if vendor == "samsung" and index == 0:
                package = TEAMVIEWER_PACKAGE
                category = "remote-support"
            else:
                category = PLATFORM_APP_CATEGORIES[index % len(PLATFORM_APP_CATEGORIES)]
                package = f"com.{vendor}.{category.lower().replace('-', '')}.app{index:03d}"
            vendor_offset = {"samsung": 0, "huawei": 5, "xiaomi": 11}[vendor]
            store = store_names[(index * 7 + vendor_offset) % len(store_names)]
            placements[store].append((vendor, package, category))
    return placements
