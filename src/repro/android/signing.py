"""APK signing: keys, certificates and signatures.

A deterministic stand-in for Java's jarsigner machinery.  A
:class:`SigningKey` signs byte strings; the corresponding
:class:`Certificate` is the key's public fingerprint.  The model
reproduces what matters to the paper:

- package updates must carry the same certificate as the installed
  package (signature continuity, enforced by the PMS),
- every app signed with a vendor's *platform key* is eligible for
  ``signature``/``signatureOrSystem`` permissions on that vendor's
  devices — and the measurement study found each vendor uses **one**
  platform key across all models (Section IV-B), which powers the
  privilege-escalation attacks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def _digest(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.hexdigest()


# Signature cache shared per-process: signatures are a pure function of
# (key fingerprint, content) and keys are deterministic from
# (owner, key_id), so two SigningKey instances with the same identity
# may share signature objects.  Fleet campaigns sign the same few
# packages once per install without this.
_SIGN_CACHE_CAP = 4096
_SIGN_CACHE: dict = {}


@dataclass(frozen=True)
class Certificate:
    """The public identity of a signing key."""

    fingerprint: str
    owner: str

    def __str__(self) -> str:
        return f"{self.owner}:{self.fingerprint[:12]}"


@dataclass(frozen=True)
class Signature:
    """A signature over some content by some key."""

    certificate: Certificate
    value: str

    def matches(self, content: bytes) -> bool:
        """True if this signature is valid for ``content``."""
        expected = _digest(self.certificate.fingerprint.encode("ascii"), content)
        return self.value == expected


class SigningKey:
    """A private signing key.

    Keys are deterministic from ``(owner, key_id)`` so corpus generation
    is reproducible, but the signature scheme is structurally faithful:
    only the holder of the key object can produce signatures that verify
    against its certificate.
    """

    def __init__(self, owner: str, key_id: str) -> None:
        self.owner = owner
        self.key_id = key_id
        fingerprint = _digest(b"key", owner.encode("utf-8"), key_id.encode("utf-8"))
        self._certificate = Certificate(fingerprint=fingerprint, owner=owner)

    @property
    def certificate(self) -> Certificate:
        """The public certificate for this key."""
        return self._certificate

    def sign(self, content: bytes) -> Signature:
        """Produce a signature over ``content`` (content-addressed cache)."""
        cache_key = (self._certificate.fingerprint, content)
        cached = _SIGN_CACHE.get(cache_key)
        if cached is not None:
            return cached
        value = _digest(self._certificate.fingerprint.encode("ascii"), content)
        signature = Signature(certificate=self._certificate, value=value)
        if len(_SIGN_CACHE) >= _SIGN_CACHE_CAP:
            _SIGN_CACHE.clear()
        _SIGN_CACHE[cache_key] = signature
        return signature

    def __repr__(self) -> str:
        return f"SigningKey(owner={self.owner!r}, key_id={self.key_id!r})"


def platform_key(vendor: str) -> SigningKey:
    """The single platform key of ``vendor``.

    Deliberately one key per vendor — the measurement study's finding
    that Samsung/Huawei/Xiaomi each sign *every* device model and many
    store apps with one key (Section IV-B).
    """
    return SigningKey(owner=vendor, key_id="platform")
