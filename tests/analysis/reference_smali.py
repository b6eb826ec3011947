"""The retained regex smali parser — differential-test reference.

This is the pre-scanner implementation of ``repro.analysis.smali``'s
parse path, kept as the ground truth for the differential property
suite (``test_smali_differential.py``).  The production scanner
(first-token dispatch + combined rare-form alternation) must produce
the exact same program (its op list, line numbers, class/method
regions, string list and instruction count) for every input —
including lenient-mode ``unparsed`` evidence lines and the exceptions
raised on malformed input.

It emits the production's flat shape — ``(op, dest, sources, literal,
method_sig, invoked_name)`` tuples, a parallel line-number list and
``(class, method, start)`` regions — in :class:`ReferenceProgram`, so
the two programs compare field by field with plain ``==``; only the
parsing strategy differs.

Do not \"fix\" behaviour here: quirks (greedy const-string values,
``int(..., 0)`` rejecting leading zeros, descending register ranges
raising even in lenient mode, prefix-matched directives) are part of
the contract the scanner preserves bug-for-bug.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import SmaliParseError


@dataclass
class ReferenceProgram:
    """The reference parse's output, in the production's flat shape."""

    ops: List[tuple] = field(default_factory=list)
    line_nos: List[int] = field(default_factory=list)
    regions: List[Tuple[str, Optional[str], int]] = field(
        default_factory=list)
    unparsed: List[Tuple[int, str]] = field(default_factory=list)

    def string_list(self) -> List[str]:
        return [op[3] for op in self.ops
                if op[0] == "const-string" and isinstance(op[3], str)]

    @property
    def instruction_count(self) -> int:
        return len(self.ops)


_INVOKE_RE = re.compile(
    r"^invoke-(?:virtual|static|direct|interface|super)(?:/range)?\s*"
    r"\{(?P<regs>[^}]*)\}\s*,\s*(?P<sig>\S.*)$"
)
_CONST_STRING_RE = re.compile(
    r'^const-string(?:/jumbo)?\s+(?P<reg>[vp]\d+)\s*,\s*"(?P<value>.*)"$'
)
_CONST_INT_RE = re.compile(
    r"^const(?:-wide)?(?:/(?:\d+|high16))?\s+(?P<reg>[vp]\d+)\s*,\s*"
    r"(?P<value>-?(?:0x[0-9a-fA-F]+|\d+))(?:L)?$"
)
_MOVE_RE = re.compile(
    r"^move(?:-object|-wide)?(?:/from16|/16)?\s+(?P<dst>[vp]\d+)\s*,\s*(?P<src>[vp]\d+)$"
)
_IGET_RE = re.compile(
    r"^[is]get(?:-object|-boolean|-wide)?\s+(?P<reg>[vp]\d+)\s*,.*$"
)
_RANGE_RE = re.compile(
    r"^(?P<kind>[vp])(?P<start>\d+)\s*\.\.\s*(?P=kind)(?P<stop>\d+)$"
)
_INVOKED_NAME_RE = re.compile(r"->(\w+)\(")

_BLOCK_DIRECTIVES = {
    ".annotation": ".end annotation",
    ".subannotation": ".end subannotation",
    ".packed-switch": ".end packed-switch",
    ".sparse-switch": ".end sparse-switch",
    ".array-data": ".end array-data",
}

_SKIP_DIRECTIVES = (
    ".locals", ".registers", ".line", ".param", ".end param", ".prologue",
    ".source", ".super", ".implements", ".field", ".end field",
    ".local", ".end local", ".restart local", ".catch", ".catchall",
)


def _expand_registers(spec: str) -> Tuple[str, ...]:
    spec = spec.strip()
    match = _RANGE_RE.match(spec)
    if match is not None:
        start, stop = int(match.group("start")), int(match.group("stop"))
        if stop < start:
            raise SmaliParseError(f"descending register range {spec!r}")
        kind = match.group("kind")
        return tuple(f"{kind}{n}" for n in range(start, stop + 1))
    return tuple(reg.strip() for reg in spec.split(",") if reg.strip())


def parse_program(text: str, lenient: bool = False) -> ReferenceProgram:
    """Reference parse: the original per-line regex cascade."""
    program = ReferenceProgram()
    class_name: Optional[str] = None
    in_method = False
    block_end: Optional[str] = None
    block_depth = 0
    block_start: Optional[str] = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if block_end is not None:
            if line == block_end:
                block_depth -= 1
                if block_depth == 0:
                    block_end = block_start = None
            elif block_start is not None and line.startswith(block_start):
                block_depth += 1
            continue
        if line.startswith(".class"):
            class_name = line.split(None, 1)[1]
            program.regions.append((class_name, None, len(program.ops)))
            in_method = False
            continue
        if line.startswith(".method"):
            if class_name is None:
                if lenient:
                    program.unparsed.append((line_no, line))
                    class_name = "<anonymous>"
                    program.regions.append(
                        (class_name, None, len(program.ops)))
                else:
                    raise SmaliParseError(
                        f"line {line_no}: method outside class")
            program.regions.append(
                (class_name, line.split(None, 1)[1], len(program.ops)))
            in_method = True
            continue
        if line.startswith(".end method"):
            in_method = False
            continue
        matched_block = next(
            (d for d in _BLOCK_DIRECTIVES
             if line == d or line.startswith(d + " ")), None)
        if matched_block is not None:
            block_start = matched_block
            block_end = _BLOCK_DIRECTIVES[matched_block]
            block_depth = 1
            continue
        if any(line == d or line.startswith(d + " ")
               for d in _SKIP_DIRECTIVES):
            continue
        if not in_method:
            if lenient:
                program.unparsed.append((line_no, line))
                continue
            raise SmaliParseError(f"line {line_no}: instruction outside method")
        op = _parse_instruction(line, line_no, lenient=lenient)
        if op is None:
            program.unparsed.append((line_no, line))
        else:
            program.ops.append(op)
            program.line_nos.append(line_no)
    return program


def _parse_instruction(line: str, line_no: int,
                       lenient: bool = False) -> Optional[tuple]:
    match = _CONST_STRING_RE.match(line)
    if match:
        return ("const-string", match.group("reg"), (), match.group("value"),
                "", "")
    match = _CONST_INT_RE.match(line)
    if match:
        return ("const-int", match.group("reg"), (),
                int(match.group("value"), 0), "", "")
    match = _MOVE_RE.match(line)
    if match:
        return ("move", match.group("dst"), (match.group("src"),), None,
                "", "")
    match = _INVOKE_RE.match(line)
    if match:
        registers = _expand_registers(match.group("regs"))
        sig = match.group("sig").strip()
        name = _INVOKED_NAME_RE.search(sig)
        return ("invoke", None, registers, None, sig,
                name.group(1) if name else "")
    match = _IGET_RE.match(line)
    if match:
        return ("iget", match.group("reg"), (), None, "", "")
    if lenient:
        return None
    raise SmaliParseError(f"line {line_no}: cannot parse {line!r}")
