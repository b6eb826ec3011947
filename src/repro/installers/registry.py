"""Name-keyed registry of installer types (used by benches and examples)."""

from __future__ import annotations

from typing import Dict, Type

from repro.errors import ReproError
from repro.installers.amazon import AmazonInstaller, NewAmazonInstaller
from repro.installers.baidu import BaiduInstaller
from repro.installers.base import BaseInstaller
from repro.installers.dtignite import DTIgniteInstaller
from repro.installers.generic import NaiveSdcardInstaller, SecureInternalInstaller
from repro.installers.google_play import GooglePlayInstaller
from repro.installers.huawei import HuaweiInstaller
from repro.installers.slideme import SlideMeInstaller
from repro.installers.tencent import TencentInstaller
from repro.installers.qihoo import QihooInstaller
from repro.installers.xiaomi import XiaomiInstaller

_REGISTRY: Dict[str, Type[BaseInstaller]] = {
    "amazon": AmazonInstaller,
    "new-amazon": NewAmazonInstaller,
    "xiaomi": XiaomiInstaller,
    "baidu": BaiduInstaller,
    "qihoo360": QihooInstaller,
    "dtignite": DTIgniteInstaller,
    "google-play": GooglePlayInstaller,
    "huawei": HuaweiInstaller,
    "tencent": TencentInstaller,
    "slideme": SlideMeInstaller,
    "naive-sdcard": NaiveSdcardInstaller,
    "secure-internal": SecureInternalInstaller,
}


def all_installer_types() -> Dict[str, Type[BaseInstaller]]:
    """Copy of the full name -> installer-class map."""
    return dict(_REGISTRY)


def installer_by_name(name: str) -> Type[BaseInstaller]:
    """Installer class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown installer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None

