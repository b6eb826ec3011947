"""Content providers: permission-guarded data interfaces.

The Hare privilege escalation (Section III-B) targets exactly this
mechanism: a provider guards the user's data behind a permission name,
and the check is only as strong as *who owns that name's definition*.
When the permission is undefined (a Hare), the first app to define it —
at whatever protection level it likes — mints its own access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import AndroidError, SecurityException
from repro.android.filesystem import Caller


@dataclass
class ProviderRegistration:
    """One registered content provider."""

    authority: str
    owner_package: str
    read_permission: Optional[str] = None
    write_permission: Optional[str] = None
    rows: List[Any] = field(default_factory=list)


class ContentResolver:
    """The device-wide provider registry and access mediator."""

    def __init__(self, pms: "object") -> None:
        self._pms = pms
        self._providers: Dict[str, ProviderRegistration] = {}

    def register(self, authority: str, owner_package: str,
                 read_permission: Optional[str] = None,
                 write_permission: Optional[str] = None,
                 rows: Optional[List[Any]] = None) -> ProviderRegistration:
        """Register a provider under ``authority``."""
        if authority in self._providers:
            raise AndroidError(f"authority {authority!r} already registered")
        registration = ProviderRegistration(
            authority=authority,
            owner_package=owner_package,
            read_permission=read_permission,
            write_permission=write_permission,
            rows=list(rows or []),
        )
        self._providers[authority] = registration
        return registration

    def unregister_by(self, package: str) -> None:
        """Drop every provider owned by ``package`` (on uninstall)."""
        for authority in [
            authority
            for authority, registration in self._providers.items()
            if registration.owner_package == package
        ]:
            del self._providers[authority]

    def query(self, caller: Caller, authority: str) -> List[Any]:
        """Read the provider's rows, enforcing its read permission.

        The check asks the PMS whether the *caller's package* holds the
        guarding permission.  Note what is NOT checked: who defined the
        permission — the gap Hare grabbing drives through.
        """
        registration = self._require(authority)
        self._enforce(caller, registration.read_permission, authority, "read")
        return list(registration.rows)

    def insert(self, caller: Caller, authority: str, row: Any) -> None:
        """Append a row, enforcing the write permission."""
        registration = self._require(authority)
        self._enforce(caller, registration.write_permission, authority, "write")
        registration.rows.append(row)

    # -- internals ----------------------------------------------------------------

    def _require(self, authority: str) -> ProviderRegistration:
        registration = self._providers.get(authority)
        if registration is None:
            raise AndroidError(f"no provider for authority {authority!r}")
        return registration

    def _enforce(self, caller: Caller, permission: Optional[str],
                 authority: str, operation: str) -> None:
        if permission is None or caller.is_system:
            return
        registration = self._providers[authority]
        if caller.package == registration.owner_package:
            return
        if not self._pms.check_permission(permission, caller.package):
            raise SecurityException(
                f"{caller.package} may not {operation} {authority}: "
                f"requires {permission}"
            )
