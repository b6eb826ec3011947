"""The retained regex smali parser — differential-test reference.

This is the pre-scanner implementation of ``repro.analysis.smali``'s
parse path, kept verbatim as the ground truth for the differential
property suite (``test_smali_differential.py``).  The production
scanner (first-token dispatch + combined rare-form alternation) must
produce the exact same program (its tree view, string list and
instruction count) for every input — including lenient-mode
``unparsed`` evidence lines and the exceptions raised on malformed
input.

It builds the production tree dataclasses (``Instruction``,
``SmaliMethod``, ``SmaliClass``) so its trees compare structurally with
the production program's tree view by plain ``==``; only the parsing
strategy differs.  The production ``SmaliProgram`` is a flat op list
whose ``classes`` is a read-only view, so the reference returns its
tree in :class:`ReferenceProgram`, a plain container with the same
``classes``/``unparsed`` fields and the flat program's derived reads.

Do not \"fix\" behaviour here: quirks (greedy const-string values,
``int(..., 0)`` rejecting leading zeros, descending register ranges
raising even in lenient mode, prefix-matched directives) are part of
the contract the scanner preserves bug-for-bug.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.smali import (
    Instruction,
    SmaliClass,
    SmaliMethod,
)
from repro.errors import SmaliParseError


@dataclass
class ReferenceProgram:
    """The reference parse's output: a class/method/instruction tree."""

    classes: List[SmaliClass] = field(default_factory=list)
    unparsed: List[Tuple[int, str]] = field(default_factory=list)

    def string_list(self) -> List[str]:
        return [
            ins.literal
            for cls in self.classes
            for method in cls.methods
            for ins in method.instructions
            if ins.op == "const-string" and isinstance(ins.literal, str)
        ]

    @property
    def instruction_count(self) -> int:
        return sum(len(method.instructions)
                   for cls in self.classes for method in cls.methods)


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
    current_class: Optional[SmaliClass] = None
    current_method: Optional[SmaliMethod] = None
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
            current_class = SmaliClass(name=line.split(None, 1)[1])
            program.classes.append(current_class)
            current_method = None
            continue
        if line.startswith(".method"):
            if current_class is None:
                if lenient:
                    program.unparsed.append((line_no, line))
                    current_class = SmaliClass(name="<anonymous>")
                    program.classes.append(current_class)
                else:
                    raise SmaliParseError(
                        f"line {line_no}: method outside class")
            current_method = SmaliMethod(name=line.split(None, 1)[1])
            current_class.methods.append(current_method)
            continue
        if line.startswith(".end method"):
            current_method = None
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
        if current_method is None:
            if lenient:
                program.unparsed.append((line_no, line))
                continue
            raise SmaliParseError(f"line {line_no}: instruction outside method")
        instruction = _parse_instruction(
            line, line_no, index=len(current_method.instructions),
            lenient=lenient)
        if instruction is None:
            program.unparsed.append((line_no, line))
        else:
            current_method.instructions.append(instruction)
    return program


def _parse_instruction(line: str, line_no: int, index: int = -1,
                       lenient: bool = False) -> Optional[Instruction]:
    match = _CONST_STRING_RE.match(line)
    if match:
        return Instruction(op="const-string", line_no=line_no,
                           dest=match.group("reg"),
                           literal=match.group("value"), index=index)
    match = _CONST_INT_RE.match(line)
    if match:
        return Instruction(op="const-int", line_no=line_no,
                           dest=match.group("reg"),
                           literal=int(match.group("value"), 0), index=index)
    match = _MOVE_RE.match(line)
    if match:
        return Instruction(op="move", line_no=line_no, dest=match.group("dst"),
                           sources=(match.group("src"),), index=index)
    match = _INVOKE_RE.match(line)
    if match:
        registers = _expand_registers(match.group("regs"))
        return Instruction(op="invoke", line_no=line_no, sources=registers,
                           method_sig=match.group("sig").strip(), index=index)
    match = _IGET_RE.match(line)
    if match:
        return Instruction(op="iget", line_no=line_no,
                           dest=match.group("reg"), index=index)
    if lenient:
        return None
    raise SmaliParseError(f"line {line_no}: cannot parse {line!r}")
