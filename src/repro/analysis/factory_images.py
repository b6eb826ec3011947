"""Synthetic vendor factory-image fleets (Section IV-A's image crawl).

The paper crawled 1,855 factory images — 1,239 Samsung (849 models),
382 Xiaomi (149 models), 234 Huawei (135 models) — spanning 231
regional codes over 79 countries, and extracted 206,674 md5-distinct
pre-installed apps.  This module generates a fleet with the same shape:

- **package-level platform-key pools** sized to the paper's counts
  (884 / 301 / 216 platform-signed packages for Samsung / Huawei /
  Xiaomi; ~142 / 68 / 84 of them per image),
- **INSTALL_PACKAGES prevalence** near 8.45% / 10.32% / 11.87% of
  system apps per vendor, with the paper's "doubled over three years"
  trend and 25-31 privileged apps on recent flagships (Table VI),
- **named vulnerable installers** placed by carrier (Amazon on
  Verizon/US-Cellular Samsung devices, DTIgnite on 20+ carriers,
  vendor stores on all their devices, SprintZone on Sprint) —
  the joins behind Table V,
- **Hare permissions**: 178 platform apps using permissions whose
  definitions are missing from a controlled subset of images, tuned so
  the cross-image search finds exactly 27,763 unique vulnerable cases
  (23.5 per image over 1,181 searched images),
- an exact md5-distinct record count of **206,674** (enforced by
  aliasing filler records across models until the target is met).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import CorpusError
from repro.sim.rand import DeterministicRandom

INSTALL_PACKAGES = "android.permission.INSTALL_PACKAGES"

# Named installers for the Table V impact join.
AMAZON_PKG = "com.amazon.venezia"
DTIGNITE_PKG = "com.dti.ignite"
XIAOMI_STORE_PKG = "com.xiaomi.market"
HUAWEI_STORE_PKG = "com.huawei.appmarket"
SPRINTZONE_PKG = "com.sprint.zone"

DTIGNITE_CARRIERS = (
    "verizon", "tmobile", "att", "vodafone", "singtel", "telefonica",
    "orange", "telstra", "rogers", "bell", "telus", "ee", "o2",
    "three", "sfr", "bouygues", "kddi", "docomo", "telenor", "telia",
    "mtn",
)

AMAZON_CARRIERS = ("verizon", "uscellular")

SAMSUNG_CARRIERS = (
    "verizon", "tmobile", "sprint", "uscellular", "att", "sktelecom",
    "vodafone", "orange", "ee", "telstra", "singtel", "docomo",
    "unlocked",
)
CN_CARRIERS = ("china-mobile", "china-telecom", "china-unicom", "unlocked")

HARE_APP_COUNT = 178
HARE_TOTAL_CASES = 27763
HARE_SEARCH_IMAGES = 1181
HARE_SAMPLE_IMAGES = 10

TOTAL_DISTINCT_APPS = 206674

_COUNTRIES = [f"country{index:02d}" for index in range(79)]


@dataclass(frozen=True)
class VendorSpec:
    """Per-vendor fleet calibration."""

    vendor: str
    image_count: int
    model_count: int
    apps_per_image: int
    platform_package_pool: int     # distinct platform-signed packages
    platform_per_image: int        # platform-signed apps per image
    # INSTALL_PACKAGES per image by firmware-year quartile (2012->2015);
    # averages to the paper's per-vendor ratio and shows the doubling.
    install_packages_by_year: Tuple[int, int, int, int]
    carriers: Tuple[str, ...]


SAMSUNG_SPEC = VendorSpec(
    vendor="samsung", image_count=1239, model_count=849, apps_per_image=209,
    platform_package_pool=884, platform_per_image=142,
    install_packages_by_year=(11, 15, 18, 23),
    carriers=SAMSUNG_CARRIERS,
)
XIAOMI_SPEC = VendorSpec(
    vendor="xiaomi", image_count=382, model_count=149, apps_per_image=117,
    platform_package_pool=216, platform_per_image=84,
    install_packages_by_year=(8, 11, 15, 18),
    carriers=CN_CARRIERS,
)
HUAWEI_SPEC = VendorSpec(
    vendor="huawei", image_count=234, model_count=135, apps_per_image=144,
    platform_package_pool=301, platform_per_image=68,
    install_packages_by_year=(9, 12, 16, 19),
    carriers=CN_CARRIERS,
)

ALL_SPECS = (SAMSUNG_SPEC, XIAOMI_SPEC, HUAWEI_SPEC)

_ANDROID_BY_YEAR = ("4.0.3", "4.3", "4.4.4", "5.1")


@dataclass(frozen=True)
class AppRecord:
    """One md5-distinct pre-installed app build."""

    record_id: int                 # md5 surrogate: unique per build
    package: str
    vendor: str
    platform_signed: bool
    has_install_packages: bool = False
    uses_permissions: Tuple[str, ...] = ()
    defines_permissions: Tuple[str, ...] = ()


@dataclass
class FactoryImage:
    """One firmware build for one device model."""

    image_id: int
    vendor: str
    model: str
    carrier: str
    region_code: str
    country: str
    android_version: str
    year_index: int                # 0..3 (2012..2015)
    flagship: bool
    apps: List[AppRecord] = field(default_factory=list)

    def defined_permissions(self) -> Set[str]:
        """Every permission some app on this image defines."""
        defined: Set[str] = set()
        for app in self.apps:
            defined.update(app.defines_permissions)
        return defined

    def install_packages_apps(self) -> List[AppRecord]:
        """Apps on this image holding INSTALL_PACKAGES."""
        return [app for app in self.apps if app.has_install_packages]

    def has_package(self, package: str) -> bool:
        """True if ``package`` ships on this image."""
        return any(app.package == package for app in self.apps)


@dataclass
class Fleet:
    """All generated images plus the hare bookkeeping."""

    images: List[FactoryImage]
    hare_permissions: Tuple[str, ...]
    hare_app_packages: Tuple[str, ...]
    sample_image_ids: Tuple[int, ...]
    search_image_ids: Tuple[int, ...]



class _RecordMint:
    """Mints md5-distinct records keyed by (package, model, variant)."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._cache: Dict[Tuple, AppRecord] = {}

    def get(self, key: Tuple, **fields: object) -> AppRecord:
        record = self._cache.get(key)
        if record is None:
            record = AppRecord(record_id=next(self._ids), **fields)
            self._cache[key] = record
        return record


def generate_fleet(seed: int = 2016,
                   specs: Tuple[VendorSpec, ...] = ALL_SPECS) -> Fleet:
    """Generate a three-vendor fleet (``specs`` defaults to paper scale).

    At the default specs every calibration pass runs at paper
    exactness, including the md5-distinct pin to 206,674.  Scaled specs
    (see :func:`scaled_image_specs`) keep every per-model and per-image
    trait and scale the hare search proportionally, but skip the
    distinct-count pin — that figure is a property of the paper's crawl
    size, not of the generator.
    """
    rng = DeterministicRandom(seed).fork("fleet")
    mint = _RecordMint()
    images: List[FactoryImage] = []
    image_ids = itertools.count(0)
    region_codes = _region_codes()

    hare_permissions = tuple(
        f"com.vlingo.midas.perm.HARE_{index:03d}" for index in range(HARE_APP_COUNT)
    )
    hare_app_packages = tuple(
        f"com.samsung.platform.hare{index:03d}" for index in range(HARE_APP_COUNT)
    )

    for spec in specs:
        vendor_images = _generate_vendor(spec, mint, image_ids, region_codes,
                                         rng, hare_permissions)
        _ensure_platform_coverage(vendor_images, spec, mint)
        images.extend(vendor_images)

    sample_ids, search_ids, missing_by_image = _plan_hare(images)
    _apply_hare(images, mint, hare_permissions, hare_app_packages,
                sample_ids, search_ids, missing_by_image)
    if specs == ALL_SPECS:
        _tune_distinct(images, TOTAL_DISTINCT_APPS)
    fleet = Fleet(
        images=images,
        hare_permissions=hare_permissions,
        hare_app_packages=hare_app_packages,
        sample_image_ids=tuple(sample_ids),
        search_image_ids=tuple(search_ids),
    )
    return fleet


def paper_image_total() -> int:
    """The paper's fleet size (1,855 images)."""
    return sum(spec.image_count for spec in ALL_SPECS)


def scaled_image_specs(total: int) -> Tuple[VendorSpec, ...]:
    """Vendor specs scaled to ``total`` images at the paper's mix.

    ``scaled_image_specs(1855)`` is exactly :data:`ALL_SPECS`.  Other
    totals split the image budget by the paper's vendor proportions
    (largest-remainder, so the counts always sum to ``total``) while
    keeping model counts, app pools, and per-image traits fixed — a
    bigger fleet means *more firmware builds per model*, which is what
    a longer crawl of the same vendors would return, and keeps the
    md5-distinct record population bounded by the model pools rather
    than growing with the crawl.
    """
    paper_total = paper_image_total()
    if total == paper_total:
        return ALL_SPECS
    if total < 50:
        # The hare calibration needs a Samsung sample + search pool.
        raise CorpusError(
            f"scaled image fleets need at least 50 images, got {total}")
    shares = [spec.image_count * total / paper_total for spec in ALL_SPECS]
    counts = [int(share) for share in shares]
    leftover = total - sum(counts)
    by_remainder = sorted(range(len(ALL_SPECS)),
                          key=lambda i: shares[i] - counts[i], reverse=True)
    for index in by_remainder[:leftover]:
        counts[index] += 1
    return tuple(replace(spec, image_count=counts[index])
                 for index, spec in enumerate(ALL_SPECS))


class FactoryImagePlan:
    """Index-addressable view of a factory-image fleet.

    ``image_at(i)`` over a global index space of ``size`` images, like
    the app corpora's ``app_at``, so the engine shards the images corpus
    exactly like them.  Unlike per-app derivation, the fleet's
    calibration passes (platform coverage, hare placement, md5
    aliasing) are inherently cross-image, so the plan materializes the
    fleet lazily *once* on first image access: ``size`` and shard
    arithmetic stay O(1) in the parent process, and every shard running
    in one worker shares the same memoized fleet.
    """

    def __init__(self, seed: int = 2016,
                 specs: Tuple[VendorSpec, ...] = ALL_SPECS) -> None:
        self.seed = seed
        self.specs = specs
        self.size = sum(spec.image_count for spec in specs)
        self._fleet: Optional[Fleet] = None

    def fleet(self) -> Fleet:
        """The materialized fleet (generated on first use)."""
        if self._fleet is None:
            self._fleet = generate_fleet(self.seed, self.specs)
        return self._fleet

    def image_at(self, index: int) -> FactoryImage:
        """The image at global ``index`` (0-based, vendor-contiguous)."""
        if not 0 <= index < self.size:
            raise CorpusError(
                f"index {index} outside fleet of {self.size}")
        return self.fleet().images[index]

    @functools.cached_property
    def hare_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """(package, permission) hare pairs from the sample images.

        The Hare study's first step: every app on a sample image that
        uses a permission it does not define itself.  Only the *usage*
        is extracted here; whether a search image defines the permission
        is what the per-image pass checks.
        """
        fleet = self.fleet()
        by_id = {image.image_id: image for image in fleet.images}
        pairs: Dict[Tuple[str, str], None] = {}
        for image_id in fleet.sample_image_ids:
            for app in by_id[image_id].apps:
                for permission in app.uses_permissions:
                    if permission not in app.defines_permissions:
                        pairs[(app.package, permission)] = None
        return tuple(pairs)


# ---------------------------------------------------------------------------
# vendor generation
# ---------------------------------------------------------------------------


def _region_codes() -> List[Tuple[str, str]]:
    """231 regional codes over 79 countries."""
    codes: List[Tuple[str, str]] = []
    index = 0
    while len(codes) < 231:
        country = _COUNTRIES[index % len(_COUNTRIES)]
        codes.append((f"R{index:03d}", country))
        index += 1
    return codes


def _generate_vendor(spec: VendorSpec, mint: _RecordMint,
                     image_ids: Iterable[int],
                     region_codes: List[Tuple[str, str]],
                     rng: DeterministicRandom,
                     hare_permissions: Tuple[str, ...]) -> List[FactoryImage]:
    # Samsung's platform-package budget reserves slots for the 178 hare
    # apps and the permission pack, so the fleet-wide package-distinct
    # platform count stays at the paper's 884.
    reserved = HARE_APP_COUNT + 1 if spec.vendor == "samsung" else 0
    platform_packages = [
        f"com.{spec.vendor}.platform.app{index:04d}"
        for index in range(spec.platform_package_pool - reserved)
    ]
    # INSTALL_PACKAGES-requesting packages are a fixed sub-pool of the
    # platform pool (package-level property).
    ip_pool_size = max(spec.install_packages_by_year) + 10
    ip_packages = set(platform_packages[:ip_pool_size])

    images: List[FactoryImage] = []
    images_per_model = _spread(spec.image_count, spec.model_count)
    image_index = 0
    for model_index in range(spec.model_count):
        model = f"{spec.vendor.upper()}-M{model_index:04d}"
        for build_index in range(images_per_model[model_index]):
            image_id = next(image_ids)
            year_index = image_index * 4 // spec.image_count
            carrier = spec.carriers[image_index % len(spec.carriers)]
            flagship = (
                spec.vendor == "samsung"
                and year_index == 3
                and carrier in ("tmobile", "sprint", "uscellular", "verizon",
                                "sktelecom")
                and model_index % 50 == 0
            )
            region, country = region_codes[image_index % len(region_codes)]
            image = FactoryImage(
                image_id=image_id,
                vendor=spec.vendor,
                model=model,
                carrier=carrier,
                region_code=region,
                country=country,
                android_version=_ANDROID_BY_YEAR[year_index],
                year_index=year_index,
                flagship=flagship,
            )
            _populate_image(image, spec, mint, platform_packages, ip_packages,
                            model_index)
            images.append(image)
            image_index += 1
    return images


def _spread(total: int, buckets: int) -> List[int]:
    base = total // buckets
    extra = total - base * buckets
    return [base + (1 if index < extra else 0) for index in range(buckets)]


def _populate_image(image: FactoryImage, spec: VendorSpec, mint: _RecordMint,
                    platform_packages: List[str], ip_packages: Set[str],
                    model_index: int) -> None:
    ip_target = spec.install_packages_by_year[image.year_index]
    if image.flagship:
        ip_target = 25 + image.image_id % 7  # the paper's 25-31 range
    apps: List[AppRecord] = []

    # -- platform slice: ip_target privileged + the rest round-robin ----
    ip_selected = sorted(ip_packages)[:ip_target]
    for package in ip_selected:
        apps.append(
            mint.get(
                (package, image.model, "ip"),
                package=package, vendor=spec.vendor, platform_signed=True,
                has_install_packages=True,
            )
        )
    remaining = spec.platform_per_image - len(ip_selected)
    non_ip = [pkg for pkg in platform_packages if pkg not in ip_packages]
    offset = (model_index * 37) % len(non_ip)
    for step in range(remaining):
        package = non_ip[(offset + step) % len(non_ip)]
        apps.append(
            mint.get(
                (package, image.model, "plat"),
                package=package, vendor=spec.vendor, platform_signed=True,
            )
        )

    # -- carrier installers (the Table V join). These ship their own
    # developer certificates (Amazon's, Digital Turbine's...) — they get
    # INSTALL_PACKAGES by being part of the system image, not by
    # platform signature.
    for package, present in _carrier_installers(image).items():
        if present:
            apps.append(
                mint.get(
                    (package, image.model, "carrier"),
                    package=package, vendor=spec.vendor, platform_signed=False,
                    has_install_packages=True,
                )
            )

    # -- filler: model-unique builds up to apps_per_image -----------------
    filler_needed = spec.apps_per_image - len(apps)
    for index in range(filler_needed):
        package = f"com.{spec.vendor}.{image.model.lower()}.app{index:03d}"
        apps.append(
            mint.get(
                (package, image.model, "fill"),
                package=package, vendor=spec.vendor, platform_signed=False,
            )
        )
    image.apps = apps


def _carrier_installers(image: FactoryImage) -> Dict[str, bool]:
    return {
        AMAZON_PKG: (
            image.vendor == "samsung" and image.carrier in AMAZON_CARRIERS
        ),
        DTIGNITE_PKG: image.carrier in DTIGNITE_CARRIERS,
        SPRINTZONE_PKG: image.carrier == "sprint",
        XIAOMI_STORE_PKG: image.vendor == "xiaomi",
        HUAWEI_STORE_PKG: image.vendor == "huawei",
    }


def _ensure_platform_coverage(images: List[FactoryImage], spec: VendorSpec,
                              mint: _RecordMint) -> None:
    """Place every platform-pool package on at least one image.

    The per-image round-robin slices can leave a handful of pool
    packages unused; the paper counts *distinct packages signed with the
    platform key*, so each missing one is force-shipped on one image.
    """
    reserved = HARE_APP_COUNT + 1 if spec.vendor == "samsung" else 0
    pool = [
        f"com.{spec.vendor}.platform.app{index:04d}"
        for index in range(spec.platform_package_pool - reserved)
    ]
    used = {
        app.package
        for image in images
        for app in image.apps
        if app.platform_signed
    }
    cursor = 0
    for package in pool:
        if package in used:
            continue
        image = images[cursor % len(images)]
        record = mint.get(
            (package, image.model, "plat"),
            package=package, vendor=spec.vendor, platform_signed=True,
        )
        _replace_filler(image, record)
        cursor += 1


# ---------------------------------------------------------------------------
# hare construction
# ---------------------------------------------------------------------------


def _plan_hare(images: List[FactoryImage]) -> Tuple[List[int], List[int],
                                                    Dict[int, Set[int]]]:
    """Choose sample/search images and the per-image missing-definition sets.

    Exact calibration at paper scale: 173 hare permissions are
    undefined on 156 search images each and 5 on 155 each — 27,763
    unique (permission, image) cases, 23.51 average per searched
    image.  Scaled fleets with a shorter Samsung pool search every
    post-sample image and scale the case total at the same per-image
    density.
    """
    samsung = [image for image in images if image.vendor == "samsung"]
    sample_ids = [image.image_id for image in samsung[:HARE_SAMPLE_IMAGES]]
    search_pool = samsung[HARE_SAMPLE_IMAGES:HARE_SAMPLE_IMAGES + HARE_SEARCH_IMAGES]
    if not search_pool or len(samsung) <= HARE_SAMPLE_IMAGES:
        raise CorpusError("not enough Samsung images for the hare search set")
    search_ids = [image.image_id for image in search_pool]

    if len(search_pool) == HARE_SEARCH_IMAGES:
        per_perm_counts = [156] * 173 + [155] * 5
        if sum(per_perm_counts) != HARE_TOTAL_CASES:
            raise CorpusError("hare per-permission counts do not sum to target")
    else:
        scaled_cases = max(
            HARE_APP_COUNT,
            round(HARE_TOTAL_CASES * len(search_pool) / HARE_SEARCH_IMAGES))
        per_perm_counts = _spread(scaled_cases, HARE_APP_COUNT)
    missing_by_image: Dict[int, Set[int]] = {image_id: set() for image_id in search_ids}
    cursor = 0
    for perm_index, count in enumerate(per_perm_counts):
        for _ in range(count):
            image_id = search_ids[cursor % len(search_ids)]
            missing_by_image[image_id].add(perm_index)
            cursor += 7  # co-prime stride spreads permissions over images
            while perm_index in _already(missing_by_image, search_ids, cursor):
                cursor += 1
    return sample_ids, search_ids, missing_by_image


def _already(missing_by_image: Dict[int, Set[int]], search_ids: List[int],
             cursor: int) -> Set[int]:
    return missing_by_image[search_ids[cursor % len(search_ids)]]


def _apply_hare(images: List[FactoryImage], mint: _RecordMint,
                hare_permissions: Tuple[str, ...],
                hare_app_packages: Tuple[str, ...],
                sample_ids: List[int], search_ids: List[int],
                missing_by_image: Dict[int, Set[int]]) -> None:
    by_id = {image.image_id: image for image in images}

    # The 10 sample images carry the 178 hare-using apps (split across
    # them, replacing filler so per-image totals hold).
    per_sample = _spread(len(hare_app_packages), len(sample_ids))
    app_cursor = 0
    for sample_index, image_id in enumerate(sample_ids):
        image = by_id[image_id]
        for _ in range(per_sample[sample_index]):
            package = hare_app_packages[app_cursor]
            permission = hare_permissions[app_cursor]
            record = mint.get(
                (package, image.model, "hare"),
                package=package, vendor=image.vendor, platform_signed=True,
                uses_permissions=(permission,),
            )
            _replace_filler(image, record)
            app_cursor += 1

    # Every Samsung image carries a per-image "permission pack" defining
    # all hare permissions except that image's missing set.  (Different
    # builds defining different permissions is why these records are
    # md5-distinct per image.)
    for image in images:
        if image.vendor != "samsung":
            continue
        missing = missing_by_image.get(image.image_id, set())
        defined = tuple(
            permission
            for index, permission in enumerate(hare_permissions)
            if index not in missing
        )
        record = mint.get(
            ("com.samsung.permissionpack", image.model, image.image_id),
            package="com.samsung.permissionpack", vendor="samsung",
            platform_signed=True, defines_permissions=defined,
        )
        _replace_filler(image, record)


def _replace_filler(image: FactoryImage, record: AppRecord) -> None:
    for index in range(len(image.apps) - 1, -1, -1):
        if not image.apps[index].platform_signed:
            image.apps[index] = record
            return
    image.apps.append(record)


# ---------------------------------------------------------------------------
# distinct-count tuning
# ---------------------------------------------------------------------------


def _tune_distinct(images: List[FactoryImage], target: int) -> None:
    """Alias filler records across models until exactly ``target`` remain.

    Models of one vendor genuinely share identical builds of common
    apps; aliasing reproduces that md5-level sharing and pins the
    fleet-wide distinct count to the paper's figure.
    """
    current = _count_distinct(images)
    if current < target:
        raise CorpusError(
            f"fleet mints too few distinct records ({current} < {target})"
        )
    excess = current - target
    # Group images by model: a filler record is shared by every build of
    # its model, so aliasing must swap it out of all of them at once.
    by_model: Dict[Tuple[str, str], List[FactoryImage]] = {}
    for image in images:
        by_model.setdefault((image.vendor, image.model), []).append(image)
    # Canonical donor filler pool per vendor: the first model's fillers.
    donors: Dict[str, List[AppRecord]] = {}
    donor_models: Dict[str, str] = {}
    for (vendor, model), model_images in by_model.items():
        if vendor in donors:
            continue
        donors[vendor] = [
            app for app in model_images[0].apps
            if not app.platform_signed and not app.has_install_packages
        ]
        donor_models[vendor] = model
    for (vendor, model), model_images in by_model.items():
        if excess == 0:
            break
        if donor_models.get(vendor) == model:
            continue
        donor_pool = donors.get(vendor, [])
        if not donor_pool:
            continue
        victims = [
            app for app in model_images[0].apps
            if not app.platform_signed and not app.has_install_packages
        ]
        for index, victim in enumerate(victims):
            if excess == 0:
                break
            donor = donor_pool[index % len(donor_pool)]
            if donor.record_id == victim.record_id:
                continue
            for image in model_images:
                image.apps = [
                    donor if app.record_id == victim.record_id else app
                    for app in image.apps
                ]
            excess -= 1
    recount = _count_distinct(images)
    if recount != target:
        raise CorpusError(f"distinct tuning failed: {recount} != {target}")


def _count_distinct(images: List[FactoryImage]) -> int:
    seen: Set[int] = set()
    for image in images:
        for app in image.apps:
            seen.add(app.record_id)
    return len(seen)
