"""The Android permission model.

Reproduces the pieces of the permission system the paper leans on:

- protection levels, with ``signatureOrSystem`` granted only to
  system-image or platform-key-signed apps (Section II),
- permission *groups* with the Android 6.0 runtime-model loophole: a
  request for a permission in a group where another permission is
  already granted is granted **silently** (Section III-A, adversary
  model — how the attacker gets ``WRITE_EXTERNAL_STORAGE`` unnoticed),
- *Hare* (Hanging Attribute Reference) permissions: a permission some
  app uses but no app on the device defines, which a malicious app can
  later define and thereby own (Section III-B, privilege escalation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.errors import PermissionUnknown


class ProtectionLevel(enum.Enum):
    """Protection levels, ordered by how hard they are to obtain."""

    NORMAL = "normal"
    DANGEROUS = "dangerous"
    SIGNATURE = "signature"
    SIGNATURE_OR_SYSTEM = "signatureOrSystem"


# -- well-known permission names ------------------------------------------

READ_EXTERNAL_STORAGE = "android.permission.READ_EXTERNAL_STORAGE"
WRITE_EXTERNAL_STORAGE = "android.permission.WRITE_EXTERNAL_STORAGE"
INSTALL_PACKAGES = "android.permission.INSTALL_PACKAGES"
DELETE_PACKAGES = "android.permission.DELETE_PACKAGES"
INTERNET = "android.permission.INTERNET"
READ_CONTACTS = "android.permission.READ_CONTACTS"
KILL_BACKGROUND_PROCESSES = "android.permission.KILL_BACKGROUND_PROCESSES"
READ_LOGS = "android.permission.READ_LOGS"

STORAGE_GROUP = "android.permission-group.STORAGE"
CONTACTS_GROUP = "android.permission-group.CONTACTS"


@dataclass(frozen=True)
class PermissionDefinition:
    """A permission as declared in some package's manifest."""

    name: str
    level: ProtectionLevel
    group: Optional[str] = None
    defined_by: str = "android"

    def is_dangerous(self) -> bool:
        """True for runtime-prompt (dangerous) permissions."""
        return self.level is ProtectionLevel.DANGEROUS


def builtin_definitions() -> List[PermissionDefinition]:
    """The platform permissions every device defines out of the box."""
    return [
        PermissionDefinition(READ_EXTERNAL_STORAGE, ProtectionLevel.DANGEROUS,
                             STORAGE_GROUP),
        PermissionDefinition(WRITE_EXTERNAL_STORAGE, ProtectionLevel.DANGEROUS,
                             STORAGE_GROUP),
        PermissionDefinition(INSTALL_PACKAGES, ProtectionLevel.SIGNATURE_OR_SYSTEM),
        PermissionDefinition(DELETE_PACKAGES, ProtectionLevel.SIGNATURE_OR_SYSTEM),
        PermissionDefinition(INTERNET, ProtectionLevel.NORMAL),
        PermissionDefinition(READ_CONTACTS, ProtectionLevel.DANGEROUS, CONTACTS_GROUP),
        PermissionDefinition(KILL_BACKGROUND_PROCESSES, ProtectionLevel.NORMAL),
        # Dangerous pre-4.1; the Logcat service enforces the 4.1+
        # system-only restriction at subscription time.
        PermissionDefinition(READ_LOGS, ProtectionLevel.DANGEROUS),
    ]


class PermissionRegistry:
    """All permission definitions known to one device."""

    def __init__(self) -> None:
        self._definitions: Dict[str, PermissionDefinition] = {}
        for definition in builtin_definitions():
            self._definitions[definition.name] = definition

    def define(self, definition: PermissionDefinition) -> bool:
        """Register a definition; first definer wins, like Android.

        Returns True if the definition was accepted, False if the name
        was already defined (by the platform or an earlier app).
        """
        if definition.name in self._definitions:
            return False
        self._definitions[definition.name] = definition
        return True

    def undefine_all_by(self, package: str) -> List[str]:
        """Drop definitions owned by ``package`` (on uninstall)."""
        removed = [
            name
            for name, definition in self._definitions.items()
            if definition.defined_by == package
        ]
        for name in removed:
            del self._definitions[name]
        return removed

    def lookup(self, name: str) -> Optional[PermissionDefinition]:
        """The definition for ``name``, or None if undefined (a Hare)."""
        return self._definitions.get(name)

    def require(self, name: str) -> PermissionDefinition:
        """Like :meth:`lookup` but raises if the permission is undefined."""
        definition = self._definitions.get(name)
        if definition is None:
            raise PermissionUnknown(name)
        return definition



class PermissionState:
    """Granted permissions of one installed package (runtime model).

    ``request`` models the Android 6.0 runtime dialog including the
    same-group silent grant the paper's adversary exploits.
    """

    def __init__(self, registry: PermissionRegistry) -> None:
        self._registry = registry
        self._granted: Set[str] = set()
        # Snapshot handed out by ``granted``; every mutation drops it.
        self._frozen: Optional[frozenset] = None

    @property
    def granted(self) -> frozenset:
        """Immutable view of granted permission names.

        The same object is returned until the next grant, so
        callers may detect a change by identity.
        """
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(self._granted)
        return frozen

    def grant(self, name: str) -> None:
        """Grant unconditionally (install-time / system decision)."""
        self._granted.add(name)
        self._frozen = None

    def has(self, name: str) -> bool:
        """True if ``name`` is currently granted."""
        return name in self._granted

    def request(self, name: str, user_approves: bool) -> bool:
        """Runtime permission request.

        Returns True if granted.  The request is **silent** (no dialog,
        ``user_approves`` ignored) when another permission of the same
        group is already granted — the loophole that lets the paper's
        malware turn a granted READ_EXTERNAL_STORAGE into
        WRITE_EXTERNAL_STORAGE without the user noticing.
        """
        definition = self._registry.require(name)
        if name in self._granted:
            return True
        if definition.level in (ProtectionLevel.SIGNATURE,
                                ProtectionLevel.SIGNATURE_OR_SYSTEM):
            # Signature-class permissions are granted only by the PMS at
            # install time (matching certificate / system image); a
            # runtime request can never mint them.
            return False
        if not definition.is_dangerous():
            self.grant(name)
            return True
        if definition.group is not None and self._holds_group(definition.group):
            self.grant(name)
            return True
        if user_approves:
            self.grant(name)
            return True
        return False

    def request_is_silent(self, name: str) -> bool:
        """Would :meth:`request` resolve without a user dialog?

        True both for silent grants (normal level, same-group) and for
        silent *denials* (signature-class at runtime).
        """
        definition = self._registry.require(name)
        if name in self._granted or not definition.is_dangerous():
            return True
        return definition.group is not None and self._holds_group(definition.group)

    def _holds_group(self, group: str) -> bool:
        for granted_name in self._granted:
            granted_def = self._registry.lookup(granted_name)
            if granted_def is not None and granted_def.group == group:
                return True
        return False
