"""The App base class: how behaviour attaches to an installed package.

An :class:`App` is the runtime side of an installed package — installer
apps, attack apps and the DAPP defense all subclass it.  It offers the
slice of the Android SDK the paper's actors use: file I/O performed *as
the app's UID with the app's granted permissions*, ``FileObserver``,
activity starts, broadcasts, the Download Manager and runtime permission
requests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.errors import AndroidError
from repro.android.fileobserver import FileObserver
from repro.android.filesystem import Caller, FileEventType
from repro.android.intents import Intent


class App:
    """Base class for all simulated application behaviour."""

    package: str = ""
    #: Last principal built by :attr:`caller`, reused while it is current.
    _caller: Optional[Caller] = None

    def __init__(self, package: Optional[str] = None) -> None:
        if package is not None:
            self.package = package
        if not self.package:
            raise AndroidError("App subclasses must define a package name")
        self.system: Any = None  # set by AndroidSystem.attach

    # -- lifecycle -------------------------------------------------------------

    def attach(self, system: Any) -> None:
        """Bind this behaviour to ``system`` (called by AndroidSystem)."""
        self.system = system
        system.ams.register_app(self.package, intent_handler=self.handle_intent,
                                app=self)
        self.on_attached()

    def on_attached(self) -> None:
        """Hook: runs once the app is registered with the AMS."""

    def on_background_killed(self) -> None:
        """Hook: the process was killed via KILL_BACKGROUND_PROCESSES."""

    def handle_intent(self, intent: Intent) -> None:
        """Hook: an activity Intent was delivered to this app."""

    # -- identity ----------------------------------------------------------------

    @property
    def caller(self) -> Caller:
        """The app's current security principal.

        Rebuilt only when the installed record's uid or permission
        snapshot changed: :attr:`PermissionState.granted` returns a new
        frozenset after every grant, so an identity check
        suffices to keep the principal current.
        """
        installed = self.system.pms.require_package(self.package)
        granted = installed.permissions.granted
        caller = self._caller
        if (caller is None or caller.uid != installed.uid
                or caller.permissions is not granted):
            caller = self._caller = Caller(
                uid=installed.uid, package=self.package, permissions=granted)
        return caller

    @property
    def uid(self) -> int:
        """The app's Linux UID."""
        return self.system.pms.require_package(self.package).uid

    def has_permission(self, permission: str) -> bool:
        """True if the app currently holds ``permission``."""
        return self.system.pms.check_permission(permission, self.package)

    # -- storage -------------------------------------------------------------------

    @property
    def private_dir(self) -> str:
        """The app's internal-storage sandbox directory."""
        return self.system.layout.app_private_dir(self.package)

    def read_file(self, path: str) -> bytes:
        """Read ``path`` as this app."""
        return self.system.fs.read_bytes(path, self.caller)

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> None:
        """Write ``path`` as this app."""
        self.system.fs.write_bytes(path, self.caller, data, mode=mode)

    def delete_file(self, path: str) -> None:
        """Unlink ``path`` as this app."""
        self.system.fs.unlink(path, self.caller)

    def move_file(self, src: str, dst: str) -> None:
        """Rename/move as this app (triggers MOVED_TO at the destination)."""
        self.system.fs.rename(src, dst, self.caller)

    def make_dirs(self, path: str) -> None:
        """mkdir -p as this app."""
        self.system.fs.makedirs(path, self.caller)

    def set_world_readable(self, path: str) -> None:
        """``setReadable()`` — the step secure internal-storage installers need."""
        current = self.system.fs.stat(path).mode
        self.system.fs.chmod(path, current | 0o004, self.caller)

    def file_observer(self, directory: str,
                      mask: Optional[Iterable[FileEventType]] = None) -> FileObserver:
        """Create a FileObserver on ``directory`` (requires no permission).

        The observer inherits the device's inotify loss model
        (``system.watch_limits``) — apps cannot opt out of firmware
        queue bounds any more than real ones can.
        """
        return FileObserver(self.system.hub, directory, mask=mask,
                            limits=self.system.watch_limits)

    # -- IPC --------------------------------------------------------------------------

    def start_activity(self, intent: Intent) -> bool:
        """``Context.startActivity`` through the AMS and IntentFirewall."""
        return self.system.ams.start_activity(self.caller, intent)

    def send_broadcast(self, action: str, extras: Optional[Dict[str, Any]] = None) -> int:
        """Broadcast to registered receivers."""
        return self.system.ams.send_broadcast(self.caller, action, extras)

    def register_receiver(self, action: str, handler: Callable,
                          required_permission: Optional[str] = None,
                          exported: bool = True) -> None:
        """Register a broadcast receiver owned by this app."""
        self.system.ams.register_receiver(
            self.package, action, handler,
            required_permission=required_permission, exported=exported,
        )

    # -- download manager ----------------------------------------------------------------

    def enqueue_download(self, url: str, destination: str) -> int:
        """Ask the Download Manager to fetch ``url`` to ``destination``."""
        return self.system.dm.enqueue(self.caller, url, destination)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(package={self.package!r})"
