#!/usr/bin/env python3
"""Generate docs/API.md: a one-line-per-symbol public API reference.

Walks every module under ``repro``, collects public classes and
functions with the first line of their docstrings, and writes a
markdown index.  Re-run after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import pkgutil
import sys

import repro

OUT_PATH = pathlib.Path(__file__).parent.parent / "docs" / "API.md"

SKIP_MODULES = {"repro.__main__"}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"skipping {info.name}: {exc}", file=sys.stderr)


def describe_module(name, module):
    lines = []
    summary = first_line(module)
    lines.append(f"### `{name}`")
    if summary:
        lines.append(f"\n{summary}\n")
    members = []
    for attr_name, member in sorted(vars(module).items()):
        if attr_name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != name:
            continue
        # unwrap: a functools.lru_cache wrapper is not a function itself.
        if (inspect.isclass(member)
                or inspect.isfunction(inspect.unwrap(member))):
            kind = "class" if inspect.isclass(member) else "def"
            members.append(
                f"- **{kind} `{attr_name}`** — {first_line(member) or '(undocumented)'}"
            )
            if inspect.isclass(member):
                for method_name, method in sorted(vars(member).items()):
                    if method_name.startswith("_"):
                        continue
                    if isinstance(method, property):
                        target = method.fget
                    elif isinstance(method, functools.cached_property):
                        target = method.func
                    elif inspect.isfunction(method):
                        target = method
                    else:
                        continue
                    doc = first_line(target)
                    if doc:
                        members.append(f"    - `{method_name}` — {doc}")
    if members:
        lines.extend(members)
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    sections = ["# API reference",
                "",
                "Generated by `python tools/gen_api_docs.py`; one line per "
                "public symbol.  See module docstrings for detail.",
                ""]
    for name, module in iter_modules():
        text = describe_module(name, module)
        if "**" in text or first_line(module):
            sections.append(text)
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text("\n".join(sections) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
