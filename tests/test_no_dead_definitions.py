"""No definition in ``src/repro`` that only tests run.

Every top-level function and class, and every method, must be referenced
from the code directories (``src``, ``tools``, ``perfbench``,
``benchmarks``, ``examples``); ``tests`` does not count.  A reference is
read from the syntax tree, not from the text: a ``Name``, an attribute
access, an imported name, or a string constant that equals the name
(so ``getattr`` and dispatch by name count).  A comment or a longer
string that merely contains the name does not.  Dunders are exempt (the
interpreter calls them).

A definition that only tests reach may stay when ``KEPT_FOR_TESTS``
lists it, keyed ``module:Qual.name``, with the paper claim a test pins
through it or the private state a test would otherwise have to read.
The list cannot go stale: an entry that no longer exists, or that code
outside ``tests`` now references, fails the guard too.

Imports are held to the same rule, module by module: every name a
module of ``src/repro`` imports (``__init__`` modules, which re-export,
and ``from __future__`` aside) must be used in that module, as a
``Name``, a name inside a string annotation, or an entry of
``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tools", "perfbench", "benchmarks", "examples")

KEPT_FOR_TESTS = {
    "repro.analysis.classifier:InstallerClassifier.validate_against_truth":
        "Section IV-A manual validation, precision 1.0 for both buckets: "
        "test_corpus_and_classifier.py::"
        "test_play_validation_has_no_false_positives",
    "repro.android.ams:ActivityManagerService.kill_background_processes":
        "Section V-B, a startForeground DAPP survives "
        "killBackgroundProcesses and still detects: "
        "test_dapp_survivability.py::"
        "test_foreground_dapp_survives_kill_and_detects",
    "repro.android.device:galaxy_note3":
        "Section III-B, the Hare attack on the paper's Galaxy Note 3 "
        "testbed: test_paper_claims.py::"
        "test_claim_hare_attack_steals_contacts_on_note3",
    "repro.android.packages:PackageDatabase.all_packages":
        "the only public listing of installed packages; without it "
        "test_soak.py::test_soak_undefended reads PackageDatabase._packages",
    "repro.attacks.base:MaliciousApp.acquire_sdcard_permission_silently":
        "Section III-A adversary model, WRITE_EXTERNAL_STORAGE arrives "
        "silently through the STORAGE group: "
        "test_base.py::test_silent_sdcard_permission_acquisition",
    "repro.attacks.toctou:FileObserverHijacker.rearm":
        "resets the private _dormant and _states so a re-armed attacker "
        "gets the retry window: test_toctou.py::"
        "test_retry_after_missed_window_gives_second_chance",
    "repro.core.scenario:Scenario.attach_installer":
        "Section V-A, DAPP watches every installer's staging directory on "
        "the device: test_dapp_multistore.py::"
        "test_dapp_watches_attached_stores_too",
    "repro.defenses.dapp:Dapp.grabbed_packages":
        "Section V-A, DAPP grabs the signature at download completion: "
        "test_dapp.py::test_grabs_signature_at_download_completion; "
        "otherwise the test reads Dapp._grabbed",
    "repro.sim.kernel:Kernel.pending_events":
        "the event queue is private; test_wait_and_see.py::"
        "test_poller_stops_at_deadline and the soak and property tests "
        "assert an install leaves no event queued",
}


def definitions():
    """``(key, name, path, line)`` of every top-level def/class and method."""
    found = []
    package = ROOT / "src"
    for path in sorted((package / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.append((f"{module}:{node.name}", node.name, path,
                              node.lineno))
            if isinstance(node, ast.ClassDef):
                found.extend((f"{module}:{node.name}.{item.name}", item.name,
                              path, item.lineno)
                             for item in node.body
                             if isinstance(item, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)))
    return [entry for entry in found
            if not (entry[1].startswith("__") and entry[1].endswith("__"))]


def referenced_names():
    """Every name the code directories refer to, read from their ASTs."""
    names = set()
    for directory in CODE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    if node.asname:
                        names.add(node.asname)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_every_definition_is_referenced():
    names = referenced_names()
    dead = sorted(f"{path.relative_to(ROOT)}:{line}: {key}"
                  for key, name, path, line in definitions()
                  if name not in names and key not in KEPT_FOR_TESTS)
    assert dead == []


def test_kept_for_tests_entries_are_current():
    names = referenced_names()
    defined = {key: name for key, name, _, _ in definitions()}
    stale = sorted(key for key in KEPT_FOR_TESTS
                   if key not in defined or defined[key] in names)
    assert stale == []


def annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (arguments.posonlyargs + arguments.args
                             + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_used(tree):
    """The names a module uses: loads, string annotations, ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(inner.id for inner
                             in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(inner, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            names.update(element.value for element in node.value.elts)
    return names


def test_every_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(
                    f"{path.relative_to(ROOT)}:{node.lineno}: {bound}"
                    for bound in (alias.asname or alias.name.split(".")[0]
                                  for alias in node.names)
                    if bound not in used)
    assert unused == []
