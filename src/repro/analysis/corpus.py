"""Synthetic app corpora with planted, classifier-recoverable traits.

The generator emits real smali-like code per app (parsed and analyzed
by :mod:`repro.analysis.classifier`), planting the traits the paper
reports at their reported rates:

Google Play corpus (top 12,750 apps, Section IV-A):
    1,493 contain the installation API marker; of those 779 stage on
    /sdcard without making the APK world-readable (potentially
    vulnerable), 152 stage internally and set it world-readable
    (potentially secure), 562 are unresolvable (reflection, field-loaded
    modes, mixed storage).  8,721 request WRITE_EXTERNAL_STORAGE.
    84.7% carry >= 1 hardcoded Play URL/scheme, with Table IV's count
    distribution (723 exactly one, 1,405 <= 2, 2,090 <= 4, 2,337 <= 8).

Pre-installed corpus (12,050 app instances on 60 images, 1,613 unique):
    238 unique installers; 102 vulnerable / 3 secure / 133 unknown.
    5,864 of the 12,050 instances request WRITE_EXTERNAL_STORAGE.

Exact agreement with the paper's counts is therefore by construction —
the synthetic corpus validates the analysis pipeline, not the 2016 app
ecosystem (see DESIGN.md section 4).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import CorpusError
from repro.sim.rand import TOKEN_ALPHABET as _ALNUM
from repro.sim.rand import DeterministicRandom

WRITE_EXTERNAL = "android.permission.WRITE_EXTERNAL_STORAGE"
INSTALL_MARKER = "application/vnd.android.package-archive"

#: The version of what ``app_at`` builds.  Bump it with any edit that
#: moves an app digest in ``tests/test_workload_items.py``: a plan's
#: :meth:`~_CorpusPlan.fingerprint` includes it, and the analysis
#: cache trusts an index -> content-key map only under the fingerprint
#: it was written for.
GENERATOR_VERSION = 1

PLAY_URL = "http://play.google.com/store/apps/details?id="
MARKET_SCHEME = "market://details?id="
MARKET_URL = "https://market.android.com/details?id="

PLAY_CATEGORIES = [
    "BOOKS", "BUSINESS", "COMICS", "COMMUNICATION", "EDUCATION",
    "ENTERTAINMENT", "FINANCE", "GAMES", "HEALTH", "LIBRARIES",
    "LIFESTYLE", "MEDIA", "MEDICAL", "MUSIC", "NEWS", "PERSONALIZATION",
    "PHOTOGRAPHY", "PRODUCTIVITY", "SHOPPING", "SOCIAL", "SPORTS",
    "TOOLS", "TRANSPORTATION", "TRAVEL", "WEATHER", "WIDGETS", "UTILITIES",
]

_PLAY_CATEGORIES_LOWER = tuple(name.lower() for name in PLAY_CATEGORIES)

# The paper's three confirmed-secure pre-installed installers.
SECURE_PREINSTALLED_PACKAGES = (
    "com.miui.tsmclient",
    "com.huawei.remoteassistant",
    "com.samsung.android.spay",
)


class GroundTruth(enum.Enum):
    """What the generator planted (the classifier must *recover* it)."""

    NON_INSTALLER = "non-installer"
    VULNERABLE = "vulnerable"            # sdcard staging, no readable setter
    SECURE = "secure"                    # internal staging, world-readable
    UNKNOWN_REFLECTION = "unknown-reflection"
    UNKNOWN_FIELD_MODE = "unknown-field-mode"
    UNKNOWN_MIXED = "unknown-mixed"

    @property
    def is_installer(self) -> bool:
        """True for apps carrying the installation API."""
        return self is not GroundTruth.NON_INSTALLER


@dataclass
class CorpusApp:
    """One synthetic app: manifest facts plus generated code."""

    package: str
    category: str
    truth: GroundTruth
    declared_permissions: frozenset
    smali_text: str
    redirect_urls: Tuple[str, ...] = ()
    is_preinstalled: bool = False
    vendor: str = ""
    instances: int = 1  # how many factory images carry it (pre-installed)

    def has_permission(self, name: str) -> bool:
        """Manifest check used by the classifier's first pass."""
        return name in self.declared_permissions


@dataclass(frozen=True)
class PlayCorpusSpec:
    """Calibration constants for the Play corpus (paper Section IV)."""

    total: int = 12750
    vulnerable: int = 779
    secure: int = 152
    unknown_reflection: int = 200
    unknown_field_mode: int = 200
    unknown_mixed: int = 162
    write_external_total: int = 8721
    # Table IV redirect-count buckets: (count, apps-with-exactly-that).
    redirect_exact_1: int = 723
    redirect_exact_2: int = 682
    redirect_3_to_4: int = 685
    redirect_5_to_8: int = 247
    redirect_9_plus: int = 8462

    @property
    def installers(self) -> int:
        """Apps containing the installation API (1,493 in the paper)."""
        return (self.vulnerable + self.secure + self.unknown_reflection
                + self.unknown_field_mode + self.unknown_mixed)

    @property
    def redirecting(self) -> int:
        """Apps with >= 1 hardcoded URL/scheme (84.7% in the paper)."""
        return (self.redirect_exact_1 + self.redirect_exact_2
                + self.redirect_3_to_4 + self.redirect_5_to_8
                + self.redirect_9_plus)


@dataclass(frozen=True)
class PreinstalledCorpusSpec:
    """Calibration constants for the pre-installed corpus."""

    unique_apps: int = 1613
    total_instances: int = 12050
    vulnerable: int = 102
    secure: int = 3
    unknown: int = 133
    write_external_instances: int = 5864

    @property
    def installers(self) -> int:
        """Unique pre-installed apps with the installation API (238)."""
        return self.vulnerable + self.secure + self.unknown


# ---------------------------------------------------------------------------
# smali code templates
# ---------------------------------------------------------------------------


def _class_header(package: str, suffix: str) -> str:
    path = package.replace(".", "/")
    return f".class L{path}/{suffix};"


#: The installation API call every installer carries.  A constant
#: tuple: the old helper rebuilt this list per generated app.
_INSTALL_TRIGGER_BLOCK = (
    f'const-string v3, "{INSTALL_MARKER}"',
    "invoke-virtual {v0, v4, v3}, Landroid/content/Intent;->"
    "setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;",
    "invoke-virtual {v0, v4}, Landroid/content/Context;->"
    "startActivity(Landroid/content/Intent;)V",
)


def _vulnerable_body(package: str) -> List[str]:
    """SD-Card staging, no world-readable call."""
    return [
        f'const-string v1, "https://cdn.{package}.example/update.apk"',
        f'const-string v2, "/sdcard/{package.split(".")[-1]}/update.apk"',
        "invoke-static {v1, v2}, Lcom/helper/Net;->"
        "download(Ljava/lang/String;Ljava/lang/String;)V",
        *_INSTALL_TRIGGER_BLOCK,
    ]


def _secure_body(package: str, variant: int) -> List[str]:
    """Internal staging with a *confirmed* world-readable setter."""
    if variant % 3 == 0:
        setter = [
            'const-string v1, "update.apk"',
            "const/4 v2, 1",  # MODE_WORLD_READABLE
            "invoke-virtual {v0, v1, v2}, Landroid/content/Context;->"
            "openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;",
        ]
    elif variant % 3 == 1:
        setter = [
            "const/4 v2, 1",  # readable = true
            "const/4 v3, 0",  # ownerOnly = false
            "invoke-virtual {v1, v2, v3}, Ljava/io/File;->setReadable(ZZ)Z",
        ]
    else:
        setter = [
            f'const-string v2, "chmod 644 /data/data/{package}/files/update.apk"',
            "invoke-virtual {v1, v2}, Ljava/lang/Runtime;->"
            "exec(Ljava/lang/String;)Ljava/lang/Process;",
        ]
    return [
        f'const-string v5, "/data/data/{package}/files/update.apk"',
        *setter,
        *_INSTALL_TRIGGER_BLOCK,
    ]


def _unknown_reflection_body(package: str, index: int = 0) -> List[str]:
    """Install marker present, but the flow runs through an opaque edge.

    Alternates between the two failure modes the paper hit with
    Flowdroid: reflective class loading (incomplete CFG) and
    ``Handler.handleMessage`` (untrackable callback).
    """
    if index % 2 == 0:
        opaque_edge = [
            f'const-string v1, "com.{package.split(".")[-1]}.DownloadTask"',
            "invoke-static {v1}, Ljava/lang/Class;->"
            "forName(Ljava/lang/String;)Ljava/lang/Class;",
        ]
    else:
        opaque_edge = [
            "invoke-virtual {v0, v2}, Landroid/os/Handler;->"
            "handleMessage(Landroid/os/Message;)V",
        ]
    return [*opaque_edge, *_INSTALL_TRIGGER_BLOCK]


def _unknown_field_mode_body(package: str) -> List[str]:
    """openFileOutput whose mode comes from a field: def-use dead end."""
    return [
        'const-string v1, "update.apk"',
        f"iget v2, v0, L{package.replace('.', '/')}/Config;->fileMode:I",
        "invoke-virtual {v0, v1, v2}, Landroid/content/Context;->"
        "openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;",
        *_INSTALL_TRIGGER_BLOCK,
    ]


def _unknown_mixed_body(package: str) -> List[str]:
    """Uses both sdcard and a confirmed readable setter: ambiguous."""
    return [
        f'const-string v1, "/sdcard/{package.split(".")[-1]}/cache.apk"',
        'const-string v2, "fallback.apk"',
        "const/4 v3, 1",
        "invoke-virtual {v0, v2, v3}, Landroid/content/Context;->"
        "openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;",
        *_INSTALL_TRIGGER_BLOCK,
    ]


def _non_installer_body(package: str, with_sdcard: bool) -> List[str]:
    body = [
        f'const-string v1, "https://api.{package.split(".")[-1]}.example/feed"',
        "invoke-static {v1}, Lcom/helper/Net;->get(Ljava/lang/String;)V",
    ]
    if with_sdcard:
        body.append('const-string v2, "/sdcard/Pictures/cache.jpg"')
    return body


def _redirect_method(url_lines: Sequence[str]) -> List[str]:
    return [
        ".method openStorePage()V",
        *url_lines,
        "invoke-virtual {v0, v4}, Landroid/content/Context;->"
        "startActivity(Landroid/content/Intent;)V",
        ".end method",
    ]


_BODY_BUILDERS = {
    GroundTruth.VULNERABLE: lambda pkg, idx: _vulnerable_body(pkg),
    GroundTruth.SECURE: _secure_body,
    GroundTruth.UNKNOWN_REFLECTION: _unknown_reflection_body,
    GroundTruth.UNKNOWN_FIELD_MODE: lambda pkg, idx: _unknown_field_mode_body(pkg),
    GroundTruth.UNKNOWN_MIXED: lambda pkg, idx: _unknown_mixed_body(pkg),
}


def _render_app_code(package: str, truth: GroundTruth, index: int,
                     redirect_url_lines: Sequence[str],
                     sdcard_noise: bool) -> str:
    lines = [_class_header(package, "MainActivity")]
    lines.append(".method run()V")
    if truth is GroundTruth.NON_INSTALLER:
        lines.extend(_non_installer_body(package, sdcard_noise))
    else:
        lines.extend(_BODY_BUILDERS[truth](package, index))
    lines.append(".end method")
    if redirect_url_lines:
        lines.extend(_redirect_method(redirect_url_lines))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# index-addressable derivation
# ---------------------------------------------------------------------------
#
# The corpus is *streaming and shard-addressable*: app ``index`` is
# derived in O(1) from the seed, the way ``engine/spec.py`` derives
# installs, so a million-app corpus is never materialized as a list.
# Each app's planted trait is its *slot* in a canonical layout
# (vulnerable apps first, then secure, then the unknowns, then
# non-installers); a keyed Feistel permutation maps index -> slot, so
# traits are scattered across the corpus while every category count
# stays exact by construction.  All spec feasibility checks happen in
# the plan constructor — *before any app is built* — so a bad custom
# spec fails cleanly instead of leaving a half-generated corpus.

_M64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a stable, well-mixed 64-bit hash."""
    value &= _M64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _M64
    return value ^ (value >> 31)


class IndexPermutation:
    """A keyed bijection of ``range(size)`` with O(1) memory.

    Four alternating-half Feistel rounds (an unbalanced network: the
    two halves keep their own widths and take turns absorbing the
    splitmix64 round function, which is bijective for any split) over
    the *smallest* power-of-two domain covering ``size``.  The tight
    domain keeps the cycle walk's expected re-entries below one —
    the previous even-bit balanced network could oversize the domain
    almost 4x and walked ~3x per call near those sizes.  Pure integer
    arithmetic — stable across platforms and Python versions, unlike
    ``hash()``.
    """

    def __init__(self, size: int, rng: DeterministicRandom) -> None:
        self.size = size
        bits = max(2, (max(size, 2) - 1).bit_length())
        self._r_bits = bits // 2
        self._l_mask = (1 << (bits - bits // 2)) - 1
        self._r_mask = (1 << (bits // 2)) - 1
        self._keys = tuple(
            rng.fork(f"round-{round_no}").randint(0, _M64)
            for round_no in range(4)
        )

    def __call__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise CorpusError(f"index {index} outside corpus of {self.size}")
        # Inlined and unrolled: this runs 2x per app (truth + redirect
        # slots), so the per-round function calls of the naive form
        # dominated corpus generation.
        size = self.size
        r_bits = self._r_bits
        l_mask = self._l_mask
        r_mask = self._r_mask
        k0, k1, k2, k3 = self._keys
        value = index
        while True:
            left = value >> r_bits
            right = value & r_mask
            mixed = (right + k0) & _M64
            mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _M64
            left ^= (mixed ^ (mixed >> 31)) & l_mask
            mixed = (left + k1) & _M64
            mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _M64
            right ^= (mixed ^ (mixed >> 31)) & r_mask
            mixed = (right + k2) & _M64
            mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _M64
            left ^= (mixed ^ (mixed >> 31)) & l_mask
            mixed = (left + k3) & _M64
            mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _M64
            right ^= (mixed ^ (mixed >> 31)) & r_mask
            value = (left << r_bits) | right
            if value < size:
                return value


#: Redirect scheme pool, constant (the old code built a list per URL).
_SCHEMES = (PLAY_URL, MARKET_SCHEME, MARKET_URL)

#: All 1,296 two-character alnum pairs: a 6-char token is three table
#: lookups on the base-1296 digits of a 64-bit draw.
_PAIRS = tuple(a + b for a in _ALNUM for b in _ALNUM)

_TOKEN_SPACE = 36 ** 6          # 6-char alnum tokens
_GOLDEN = 0x9E3779B97F4A7C15    # odd => index * _GOLDEN is injective mod 2^64

#: The two manifest shapes every Play app draws from, prebuilt.
_PERMS_BASE = frozenset({"android.permission.INTERNET"})
_PERMS_WITH_WRITE = frozenset({"android.permission.INTERNET",
                               WRITE_EXTERNAL})

_object_new = object.__new__


#: Decoy redirect URLs are drawn from a finite keyed pool rather than
#: minted per app.  This mirrors reality — redirect chains reuse a
#: bounded population of store/tracker URLs across many apps — and it
#: is what lets a 100k-app sweep go fast: a pooled decoy's
#: ``const-string`` line is byte-identical across every app that draws
#: it, so the smali scanner's line memo absorbs it instead of
#: re-scanning a globally unique URL line per app (a full memo is
#: cleared before the next parse, so it keeps admitting the pool
#: lines of the corpus being parsed, whatever it parsed before).  Only
#: the first URL of a chain (the predictable ``<package>.companion``
#: target that Table IV's single-URL analysis keys on) stays
#: app-specific.
_DECOY_POOL_SIZE = 4096
_DECOY_MASK = _DECOY_POOL_SIZE - 1
_DECOY_STRIDE = 0x68E31DA5      # odd => distinct picks within a chain


@functools.lru_cache(maxsize=8)
def _decoy_pool(key: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(urls, const-string lines)`` decoy tables for one URL key."""
    urls = []
    lines = []
    for entry in range(_DECOY_POOL_SIZE):
        value = _mix64(key ^ (entry * _GOLDEN))
        token = value % _TOKEN_SPACE
        url = (_SCHEMES[(value >> 33) % 3] + "com.promo."
               + _PAIRS[token // 1679616]
               + _PAIRS[(token // 1296) % 1296]
               + _PAIRS[token % 1296])
        urls.append(url)
        lines.append(f'const-string v{entry & 7}, "{url}"')
    return tuple(urls), tuple(lines)


def _make_redirects(package: str, count: int, key: int,
                    index: int) -> Tuple[Tuple[str, ...], List[str]]:
    """App ``index``'s redirect URLs plus their rendered code lines.

    The original implementation forked a per-app ``random.Random`` (a
    full 624-word Mersenne-Twister seeding, ~8us) and drew every URL
    character through a rejection loop; at 100k+ apps the URL material
    dominated corpus generation.  Now one :func:`_mix64` call seeds the
    app's chain: the first URL is the app's predictable companion
    target, every later position indexes the keyed decoy pool.
    """
    if not count:
        return (), []
    base = _mix64(key ^ (index * _GOLDEN))
    first = _SCHEMES[(base >> 33) % 3] + _predictable_target(package)
    urls = [first]
    lines = [f'const-string v1, "{first}"']
    if count > 1:
        pool_urls, pool_lines = _decoy_pool(key)
        for position in range(1, count):
            pick = (base + position * _DECOY_STRIDE) & _DECOY_MASK
            urls.append(pool_urls[pick])
            lines.append(pool_lines[pick])
    return tuple(urls), lines


def _predictable_target(package: str) -> str:
    """Single-URL apps redirect to one predictable companion app."""
    return f"{package}.companion"


def _truth_layout(buckets: Sequence[Tuple[int, GroundTruth]]
                  ) -> Tuple[Tuple[int, ...], Tuple[GroundTruth, ...]]:
    """Canonical slot layout of ``(count, truth)`` buckets, in order.

    Returns the cumulative bucket edges and the truths, with
    ``NON_INSTALLER`` past the last edge, so slot ``s`` holds
    ``truths[bisect_right(edges, s)]``.
    """
    edges = tuple(itertools.accumulate(count for count, _truth in buckets))
    truths = tuple(truth for _count, truth in buckets)
    return edges, truths + (GroundTruth.NON_INSTALLER,)


class _CorpusPlan:
    """What the two app-corpus plans share: the name of what they build."""

    #: The corpus name (``AnalysisSpec.corpus``) this plan derives.
    kind = ""

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON of kind, spec, seed and generator.

        Two plans with one fingerprint build the same app at every
        index, as long as :data:`GENERATOR_VERSION` is bumped with
        every edit that changes an app.
        """
        blob = json.dumps({
            "kind": self.kind,
            "spec": dataclasses.asdict(self.spec),
            "seed": self.seed,
            "generator": GENERATOR_VERSION,
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class PlayCorpusPlan(_CorpusPlan):
    """O(1)-memory, index-addressable Play corpus derivation.

    ``app_at(index)`` builds app ``index`` alone, for any index in
    ``range(size)``; a shard walks its ``[start, stop)`` slice of it.
    """

    kind = "play"
    vendors: Tuple[str, ...] = ()

    def __init__(self, seed: int = 2016,
                 spec: Optional[PlayCorpusSpec] = None) -> None:
        spec = spec or PlayCorpusSpec()
        counts = (spec.total, spec.vulnerable, spec.secure,
                  spec.unknown_reflection, spec.unknown_field_mode,
                  spec.unknown_mixed, spec.write_external_total,
                  spec.redirect_exact_1, spec.redirect_exact_2,
                  spec.redirect_3_to_4, spec.redirect_5_to_8,
                  spec.redirect_9_plus)
        if any(count < 0 for count in counts):
            raise CorpusError("Play corpus spec has a negative count")
        if spec.installers > spec.total:
            raise CorpusError("Play corpus spec does not sum to its total")
        if spec.write_external_total < spec.vulnerable:
            raise CorpusError("write_external_total below vulnerable count")
        if spec.write_external_total > spec.total:
            raise CorpusError("could not place all WRITE_EXTERNAL grants")
        if spec.redirecting > spec.total:
            raise CorpusError("redirect buckets exceed the corpus total")
        self.seed = seed
        self.spec = spec
        self.size = spec.total
        rng = DeterministicRandom(seed).fork("play-corpus")
        self._urls_key = rng.fork("urls").randint(0, _M64)
        self._truth_perm = IndexPermutation(spec.total, rng.fork("truths"))
        self._redirect_perm = IndexPermutation(spec.total,
                                               rng.fork("redirects"))
        self._edges, self._truths = _truth_layout((
            (spec.vulnerable, GroundTruth.VULNERABLE),
            (spec.secure, GroundTruth.SECURE),
            (spec.unknown_reflection, GroundTruth.UNKNOWN_REFLECTION),
            (spec.unknown_field_mode, GroundTruth.UNKNOWN_FIELD_MODE),
            (spec.unknown_mixed, GroundTruth.UNKNOWN_MIXED),
        ))

    def _redirect_count_for_slot(self, slot: int) -> int:
        """Table IV's count distribution, laid out over canonical slots."""
        spec = self.spec
        if slot < spec.redirect_exact_1:
            return 1
        slot -= spec.redirect_exact_1
        if slot < spec.redirect_exact_2:
            return 2
        slot -= spec.redirect_exact_2
        if slot < spec.redirect_3_to_4:
            return 3 + slot % 2
        slot -= spec.redirect_3_to_4
        if slot < spec.redirect_5_to_8:
            return 5 + slot % 4
        slot -= spec.redirect_5_to_8
        if slot < spec.redirect_9_plus:
            return 9 + slot % 16
        return 0

    def app_at(self, index: int) -> CorpusApp:
        """Build app ``index`` from the seed alone (no shared state)."""
        slot = self._truth_perm(index)
        truth = self._truths[bisect_right(self._edges, slot)]
        position = index % len(PLAY_CATEGORIES)
        package = f"com.play.{_PLAY_CATEGORIES_LOWER[position]}.app{index:05d}"
        redirect_count = self._redirect_count_for_slot(
            self._redirect_perm(index))
        urls, url_lines = _make_redirects(package, redirect_count,
                                          self._urls_key, index)
        sdcard_noise = truth is GroundTruth.NON_INSTALLER and index % 5 == 0
        app = _object_new(CorpusApp)
        # Bypassing the dataclass __init__ (nine sequential attribute
        # stores) is measurable at corpus-sweep scale.
        app.__dict__ = {
            "package": package,
            "category": PLAY_CATEGORIES[position],
            "truth": truth,
            # WRITE_EXTERNAL by slot: the vulnerable slots (which
            # *must* hold it) plus the next slots up to the
            # calibrated total.
            "declared_permissions": (
                _PERMS_WITH_WRITE
                if slot < self.spec.write_external_total
                else _PERMS_BASE),
            "smali_text": _render_app_code(package, truth, index, url_lines,
                                           sdcard_noise),
            "redirect_urls": urls,
            "is_preinstalled": False,
            "vendor": "",
            "instances": 1,
        }
        return app


class PreinstalledCorpusPlan(_CorpusPlan):
    """O(1)-memory, index-addressable pre-installed corpus derivation.

    The slot layout packs the bookkeeping the old list-based generator
    fixed up after the fact (``_rebalance_instances``) into exact,
    validated arithmetic: slots ``[0, eight_count)`` are 8-instance
    apps, slots ``[0, write_apps)`` hold WRITE_EXTERNAL (vulnerable
    slots come first, so they always hold it), everything else is a
    7-instance app.  Totals are exact by construction and every
    feasibility check runs before any app is built.
    """

    kind = "preinstalled"
    vendors: Tuple[str, ...] = ("samsung", "xiaomi", "huawei")

    def __init__(self, seed: int = 2016,
                 spec: Optional[PreinstalledCorpusSpec] = None) -> None:
        spec = spec or PreinstalledCorpusSpec()
        counts = (spec.unique_apps, spec.total_instances, spec.vulnerable,
                  spec.secure, spec.unknown, spec.write_external_instances)
        if any(count < 0 for count in counts):
            raise CorpusError("pre-installed corpus spec has a negative count")
        if spec.installers > spec.unique_apps:
            raise CorpusError("installer counts exceed unique_apps")
        eight_count = spec.total_instances - 7 * spec.unique_apps
        if not 0 <= eight_count <= spec.unique_apps:
            raise CorpusError("instance arithmetic does not fit the spec")
        if spec.write_external_instances % 8 != 0:
            raise CorpusError("write_external_instances must divide by 8 here")
        write_apps = spec.write_external_instances // 8
        if write_apps > eight_count or spec.vulnerable > write_apps:
            raise CorpusError("cannot place WRITE_EXTERNAL holders")
        self.seed = seed
        self.spec = spec
        self.size = spec.unique_apps
        self.eight_count = eight_count
        self.write_apps = write_apps
        rng = DeterministicRandom(seed).fork("preinstalled-corpus")
        self._perm = IndexPermutation(spec.unique_apps, rng.fork("truths"))
        reflection = spec.unknown // 2
        self._edges, self._truths = _truth_layout((
            (spec.vulnerable, GroundTruth.VULNERABLE),
            (spec.secure, GroundTruth.SECURE),
            (reflection, GroundTruth.UNKNOWN_REFLECTION),
            (spec.unknown - reflection, GroundTruth.UNKNOWN_FIELD_MODE),
        ))

    def app_at(self, index: int) -> CorpusApp:
        """Build app ``index`` from the seed alone (no shared state)."""
        slot = self._perm(index)
        truth = self._truths[bisect_right(self._edges, slot)]
        vendor = self.vendors[index % len(self.vendors)]
        if truth is GroundTruth.SECURE:
            ordinal = slot - self.spec.vulnerable
            if ordinal < len(SECURE_PREINSTALLED_PACKAGES):
                package = SECURE_PREINSTALLED_PACKAGES[ordinal]
            else:  # scaled corpora outgrow the paper's three names
                package = f"com.{vendor}.secure.pay{ordinal:04d}"
        else:
            package = f"com.{vendor}.sys.app{index:04d}"
        permissions = {"android.permission.INTERNET"}
        if slot < self.write_apps:
            permissions.add(WRITE_EXTERNAL)
        instances = 8 if slot < self.eight_count else 7
        return CorpusApp(
            package=package,
            category="PREINSTALLED",
            truth=truth,
            declared_permissions=frozenset(permissions),
            smali_text=_render_app_code(package, truth, index, (), False),
            is_preinstalled=True,
            vendor=vendor,
            instances=instances,
        )


def scaled_play_spec(total: int) -> PlayCorpusSpec:
    """A Play spec scaled to ``total`` apps at the paper's trait rates.

    ``scaled_play_spec(12750)`` is exactly the paper spec; other sizes
    floor-scale every bucket (so sums can never exceed the total).
    """
    base = PlayCorpusSpec()
    if total == base.total:
        return base
    if total < 1:
        raise CorpusError("Play corpus needs at least one app")

    def scale(count: int) -> int:
        return (count * total) // base.total

    return PlayCorpusSpec(
        total=total,
        vulnerable=scale(base.vulnerable),
        secure=scale(base.secure),
        unknown_reflection=scale(base.unknown_reflection),
        unknown_field_mode=scale(base.unknown_field_mode),
        unknown_mixed=scale(base.unknown_mixed),
        write_external_total=scale(base.write_external_total),
        redirect_exact_1=scale(base.redirect_exact_1),
        redirect_exact_2=scale(base.redirect_exact_2),
        redirect_3_to_4=scale(base.redirect_3_to_4),
        redirect_5_to_8=scale(base.redirect_5_to_8),
        redirect_9_plus=scale(base.redirect_9_plus),
    )


def scaled_preinstalled_spec(unique_apps: int) -> PreinstalledCorpusSpec:
    """A pre-installed spec scaled to ``unique_apps`` at paper rates."""
    base = PreinstalledCorpusSpec()
    if unique_apps == base.unique_apps:
        return base
    if unique_apps < 1:
        raise CorpusError("pre-installed corpus needs at least one app")

    def scale(count: int) -> int:
        return (count * unique_apps) // base.unique_apps

    eight_count = scale(base.total_instances - 7 * base.unique_apps)
    vulnerable = scale(base.vulnerable)
    write_apps = min(eight_count,
                     max(vulnerable, scale(base.write_external_instances // 8)))
    return PreinstalledCorpusSpec(
        unique_apps=unique_apps,
        total_instances=7 * unique_apps + eight_count,
        vulnerable=vulnerable,
        secure=scale(base.secure),
        unknown=scale(base.unknown),
        write_external_instances=8 * write_apps,
    )


def generate_play_corpus(seed: int = 2016,
                         spec: Optional[PlayCorpusSpec] = None) -> List[CorpusApp]:
    """Generate the synthetic top-12,750 Google Play corpus.

    Materializes the streaming :class:`PlayCorpusPlan` — callers that
    only need a shard should call the plan's ``app_at`` directly.
    """
    plan = PlayCorpusPlan(seed, spec)
    return [plan.app_at(index) for index in range(plan.size)]


def generate_preinstalled_corpus(
        seed: int = 2016,
        spec: Optional[PreinstalledCorpusSpec] = None) -> List[CorpusApp]:
    """Generate the synthetic pre-installed corpus (60 images, deduped).

    Returns the 1,613 *unique* apps; each carries ``instances`` — how
    many of the 60 images ship it — so instance-weighted statistics
    (like the paper's 5,864/12,050 WRITE_EXTERNAL count) can be taken.
    Materializes the streaming :class:`PreinstalledCorpusPlan`.
    """
    plan = PreinstalledCorpusPlan(seed, spec)
    return [plan.app_at(index) for index in range(plan.size)]
