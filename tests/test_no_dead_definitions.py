"""No definition in ``src/repro`` that nothing refers to.

Every top-level function and class, and every method, must have its
name appear somewhere in the code directories (``src``, ``tools``,
``perfbench``, ``benchmarks``, ``examples``, ``tests``) apart from its
own ``def`` or ``class`` line.  The scan is by name, so a definition
whose name another one shares, or that a comment mentions, passes: it
catches the plainly unreferenced, not every dead path.  Dunders are
exempt (the interpreter calls them).
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tools", "perfbench", "benchmarks", "examples", "tests")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions():
    """``(name, path, line)`` of every top-level def/class and method."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.append((node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                found.extend((item.name, path, item.lineno)
                             for item in node.body
                             if isinstance(item, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)))
    return found


def test_every_definition_is_referenced():
    defined = definitions()
    own_lines = collections.defaultdict(list)
    for name, path, line in defined:
        own_lines[(path, line)].append(name)
    uses = collections.Counter()
    for directory in CODE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for line_no, line in enumerate(text.splitlines(), 1):
                words = collections.Counter(WORD.findall(line))
                words.subtract(own_lines.get((path, line_no), ()))
                uses.update(+words)
    dead = sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, path, line in defined
                  if not (name.startswith("__") and name.endswith("__"))
                  and not uses[name])
    assert dead == []
