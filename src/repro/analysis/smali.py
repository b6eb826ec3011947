"""A small smali-like IR with parsing and def-use-chain analysis.

Stands in for the paper's Apktool (decompilation) + Soot/jimple
(def-use chains) toolchain.  The classifier needs to answer, over real
code rather than metadata flags:

- does the app contain the installation API marker string
  (``application/vnd.android.package-archive``)?
- does it call a global-readable setter API — and do its *actual
  arguments*, resolved through def-use chains, make the file world
  readable (``MODE_WORLD_READABLE``, ``setReadable(true, false)``,
  ``chmod 644`` ...)?
- which string constants (paths, URLs) flow into file and intent
  operations?

Supported instruction forms (one per line, ``#`` comments allowed)::

    .class Lcom/example/Foo;
    .method install()V
    const-string v1, "/sdcard/download/app.apk"
    const/4 v2, 1
    const-wide/16 v4, 0x10
    move v3, v2
    invoke-virtual {v0, v1, v2}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;
    invoke-virtual/range {v0 .. v2}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;
    iget v2, v0, Lcom/example/Foo;->mode:I
    .end method

Class-level metadata directives (``.super``, ``.source``, ``.field``,
``.implements``), method-body bookkeeping directives (``.locals``,
``.registers``, ``.line``, ``.param``, ``.prologue``, ``.local``,
``.catch`` ...) and ``.annotation`` / ``.packed-switch`` /
``.sparse-switch`` / ``.array-data`` blocks are legal smali and are
skipped.  By default an *instruction* line that matches no supported
form raises :class:`~repro.errors.SmaliParseError`; at fleet scale one
odd app must not kill its whole shard, so ``parse_program(...,
lenient=True)`` instead records the line in
:attr:`SmaliProgram.unparsed` as evidence and keeps going.

Parsing strategy
----------------

A program is flat, in the manner of trueseeing's ``SmaliAnalyzer``:
one list of operations per app, not a tree of classes, methods and
instruction objects.

- **One op list.** :attr:`SmaliProgram.ops` holds each instruction as
  the scanner's shape tuple ``(op, dest, sources, literal, method_sig,
  invoked_name)``; :attr:`SmaliProgram.line_nos` holds its line number
  at the same position.  ``.class`` and ``.method`` directives append
  ``(class, method, start)`` to :attr:`SmaliProgram.regions`, ``start``
  being the offset of the method's first op (``method`` is ``None`` for
  a class entry).  The instruction count is ``len(ops)``; the string
  constants and the redirect scan read the list directly.
- **Shared memo tuples.** Each line is scanned once per process: every
  directive starts with ``.`` and no mnemonic does, so one
  ``line[0] == "."`` test splits directives from instructions; the
  first token selects an operand scanner from :data:`_DISPATCH`, which
  walks the operands with ``str`` primitives and falls back to tiny
  anchored regexes only to validate rare operand spellings exactly as
  the old patterns did (``\\d`` is Unicode-aware, so ``v١`` must keep
  matching); the one spelling the token split cannot key (an invoke
  with no whitespace before ``{``) goes to :data:`_RARE_RE`.  The
  resulting tuple is memoised per line text in :data:`_SCAN_MEMO`
  and appended to ``ops`` as is, so template lines that recur across
  thousands of generated apps cost one dict lookup and share one
  immutable tuple, with no copy.  The memo holds at most
  :data:`_MEMO_CAP` lines; a parse that finds it full first clears it,
  so a process that has parsed other corpora still learns the
  recurring lines of the one it parses now.
- **Def-use only where a setter sits.** :meth:`SmaliProgram.resolve_argument`
  walks ``ops`` backwards from an invoke to the start of its method
  region, following ``move`` chains.  The classifier calls it only for
  the global-readable setters of apps that hold the install marker.

The scan is bug-for-bug equivalent to the original regex cascade —
same lenient-mode evidence, same exceptions (``int(..., 0)`` still
rejects leading zeros, descending register ranges still raise even in
lenient mode).  The retained cascade lives in
``tests/analysis/reference_smali.py`` and the differential property
suite holds the flat program equal to it over every corpus.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import SmaliParseError

#: Rare instruction spellings the first-token dispatch cannot key,
#: as one combined alternation with named groups.  Today that is the
#: zero-whitespace invoke (``invoke-virtual{v0}, ...``) — the only
#: supported form whose mnemonic is not whitespace-delimited (the old
#: ``_INVOKE_RE`` used ``\s*`` before ``{``; every other form required
#: ``\s+`` after its mnemonic).
_RARE_RE = re.compile(
    r"^(?:invoke-(?:virtual|static|direct|interface|super)(?:/range)?\s*"
    r"\{(?P<invoke_regs>[^}]*)\}\s*,\s*(?P<invoke_sig>\S.*))$"
)
_RANGE_RE = re.compile(
    r"^(?P<kind>[vp])(?P<start>\d+)\s*\.\.\s*(?P=kind)(?P<stop>\d+)$"
)
#: Operand validators.  Tiny and anchored; ``\d`` deliberately matches
#: Unicode digits exactly like the replaced patterns did.
_REG_RE = re.compile(r"[vp]\d+$")
_INT_RE = re.compile(r"-?(?:0x[0-9a-fA-F]+|\d+)L?$")
_INVOKED_NAME_RE = re.compile(r"->(\w+)\(")

#: Fast common-path register check: generated corpora use low ASCII
#: register numbers, so a frozenset probe short-circuits the regex.
_COMMON_REGS = frozenset(
    f"{kind}{number}" for kind in "vp" for number in range(32))

#: Block directives whose body lines are payload, not instructions.
#: Annotations may nest (parameter annotations hold sub-annotations),
#: so the parser tracks depth per block kind.
_BLOCK_DIRECTIVES = {
    ".annotation": ".end annotation",
    ".subannotation": ".end subannotation",
    ".packed-switch": ".end packed-switch",
    ".sparse-switch": ".end sparse-switch",
    ".array-data": ".end array-data",
}

#: Single-line bookkeeping directives that carry no dataflow.
_SKIP_DIRECTIVES = (
    ".locals", ".registers", ".line", ".param", ".end param", ".prologue",
    ".source", ".super", ".implements", ".field", ".end field",
    ".local", ".end local", ".restart local", ".catch", ".catchall",
)
#: The skip test the old parser ran as a 19-way generator expression,
#: split into an exact-match set and a prefix tuple ``str.startswith``
#: accepts directly.
_SKIP_EXACT = frozenset(_SKIP_DIRECTIVES)
_SKIP_PREFIXES = tuple(d + " " for d in _SKIP_DIRECTIVES)

_BLOCK_EXACT = frozenset(_BLOCK_DIRECTIVES)
_BLOCK_PREFIXES = tuple(d + " " for d in _BLOCK_DIRECTIVES)


#: One instruction on the flat op list: ``(op, dest, sources, literal,
#: method_sig, invoked_name)``, shared with the scan memo.
Op = Tuple[str, Optional[str], Tuple[str, ...], Union[str, int, None], str,
           str]


class SmaliProgram:
    """A whole app's decompiled code, flat.

    ``ops[i]`` is an :data:`Op` shape tuple and ``line_nos[i]`` its line
    number; ``regions`` lists ``(class, method, start)`` in text order,
    where ``start`` is the offset in ``ops`` of the method's first op
    and ``method`` is ``None`` for a ``.class`` entry.  A method's ops
    run from its ``start`` to the next region's.  ``unparsed`` holds
    lenient-mode ``(line_no, line)`` evidence.  Shape tuples may be
    shared with the scan memo and other programs: read them, never
    mutate them.
    """

    __slots__ = ("ops", "line_nos", "regions", "unparsed", "_strings")

    def __init__(self, ops: List[Op], line_nos: List[int],
                 regions: List[Tuple[str, Optional[str], int]],
                 unparsed: List[Tuple[int, str]]) -> None:
        self.ops = ops
        self.line_nos = line_nos
        self.regions = regions
        self.unparsed = unparsed
        self._strings: Optional[List[str]] = None

    @property
    def instruction_count(self) -> int:
        """Total parsed instructions across every method."""
        return len(self.ops)

    def string_list(self) -> List[str]:
        """Every string constant in op order, computed once per program.

        The analysis pipeline reads a program's strings several times
        per app (install-marker probe, sdcard probe, redirect scan).
        """
        strings = self._strings
        if strings is None:
            strings = self._strings = [
                op[3] for op in self.ops if op[0] == "const-string"]
        return strings

    def all_strings(self) -> Iterator[str]:
        """Every string constant in the program."""
        return iter(self.string_list())

    def contains_string(self, needle: str) -> bool:
        """True if any string constant contains ``needle``."""
        return any(needle in value for value in self.string_list())

    def resolve_argument(self, position: int,
                         arg_index: int) -> Union[str, int, None]:
        """Value of an invoke's argument, if a constant reaches it.

        ``position`` is the invoke's offset in :attr:`ops`.  The def-use
        back-walk runs from there to the start of its method region and
        finds the last write to the argument's register, following
        ``move`` chains.  Returns the constant (str or int), or None
        when the chain dead-ends (field load, parameter, no definition
        in the method) — the 'cannot resolve' case that lands apps in
        the *unknown* bucket.
        """
        ops = self.ops
        sources = ops[position][2]
        if arg_index >= len(sources):
            return None
        start = 0
        for _class, _method, region_start in self.regions:
            if region_start > position:
                break
            start = region_start
        target = sources[arg_index]
        for index in range(position - 1, start - 1, -1):
            op = ops[index]
            if op[1] != target:
                continue
            if op[0] == "move":
                target = op[2][0]
                continue
            return None if op[0] == "iget" else op[3]
        return None


def _expand_registers(spec: str) -> Tuple[str, ...]:
    """Register list of an invoke: ``v0, v1`` or the range ``v0 .. v5``."""
    spec = spec.strip()
    match = _RANGE_RE.match(spec)
    if match is not None:
        start, stop = int(match.group("start")), int(match.group("stop"))
        if stop < start:
            raise SmaliParseError(f"descending register range {spec!r}")
        kind = match.group("kind")
        return tuple(f"{kind}{n}" for n in range(start, stop + 1))
    return tuple(reg.strip() for reg in spec.split(",") if reg.strip())


def _is_register(token: str) -> bool:
    return token in _COMMON_REGS or _REG_RE.match(token) is not None


# ---------------------------------------------------------------------------
# Operand scanners.  Each receives the text after the mnemonic token
# (leading whitespace already consumed by the split) and returns the
# memoisable :data:`Op` shape ``(op, dest, sources, literal,
# method_sig, invoked_name)`` — everything about an instruction except
# its line number, which varies per occurrence.  ``None`` means the operands do
# not match the form; because no mnemonic in the dispatch table can
# begin a *different* supported form, a scanner miss is a parse miss.
# ---------------------------------------------------------------------------

_MISS = object()  # sentinel: line matches no supported form


def _scan_const_string(rest: str):
    comma = rest.find(",")
    if comma < 0:
        return None
    register = rest[:comma].rstrip()
    if not _is_register(register):
        return None
    value = rest[comma + 1:].lstrip()
    # The old pattern was "(?P<value>.*)"$ — greedy, so the literal
    # spans the first opening quote to the *last* quote on the line.
    if len(value) < 2 or value[0] != '"' or value[-1] != '"':
        return None
    return ("const-string", register, (), value[1:-1], "", "")


def _scan_const_int(rest: str):
    comma = rest.find(",")
    if comma < 0:
        return None
    register = rest[:comma].rstrip()
    if not _is_register(register):
        return None
    value = rest[comma + 1:].lstrip()
    if _INT_RE.match(value) is None:
        return None
    if value[-1] == "L":
        value = value[:-1]
    # int(..., 0) rejecting leading zeros ("007") is preserved: the
    # ValueError propagates at parse time exactly as before.
    return ("const-int", register, (), int(value, 0), "", "")


def _scan_move(rest: str):
    comma = rest.find(",")
    if comma < 0:
        return None
    dest = rest[:comma].rstrip()
    if not _is_register(dest):
        return None
    source = rest[comma + 1:].strip()
    if not _is_register(source):
        return None
    return ("move", dest, (source,), None, "", "")


def _scan_invoke(rest: str):
    if not rest or rest[0] != "{":
        return None
    brace = rest.find("}", 1)
    if brace < 0:
        return None
    tail = rest[brace + 1:].lstrip()
    if not tail or tail[0] != ",":
        return None
    sig = tail[1:].strip()
    if not sig:
        return None
    registers = _expand_registers(rest[1:brace])
    match = _INVOKED_NAME_RE.search(sig)
    invoked = match.group(1) if match else ""
    return ("invoke", None, registers, None, sig, invoked)


def _scan_iget(rest: str):
    comma = rest.find(",")
    if comma < 0:
        return None
    register = rest[:comma].rstrip()
    if not _is_register(register):
        return None
    return ("iget", register, (), None, "", "")


_DISPATCH = {}
for _mnemonic in ("const-string", "const-string/jumbo"):
    _DISPATCH[_mnemonic] = _scan_const_string
for _wide in ("", "-wide"):
    for _width in ("", "/4", "/16", "/32", "/high16"):
        _DISPATCH[f"const{_wide}{_width}"] = _scan_const_int
for _kind in ("move", "move-object", "move-wide"):
    for _width in ("", "/from16", "/16"):
        _DISPATCH[f"{_kind}{_width}"] = _scan_move
for _kind in ("virtual", "static", "direct", "interface", "super"):
    for _suffix in ("", "/range"):
        _DISPATCH[f"invoke-{_kind}{_suffix}"] = _scan_invoke
for _prefix in ("i", "s"):
    for _suffix in ("", "-object", "-boolean", "-wide"):
        _DISPATCH[f"{_prefix}get{_suffix}"] = _scan_iget
del _mnemonic, _wide, _width, _kind, _suffix, _prefix

#: Per-line-text scan memo.  Template lines recur across thousands of
#: generated apps.  It never holds more than :data:`_MEMO_CAP` lines:
#: a :func:`parse_program` call that finds it full first clears it, so
#: it keeps learning the lines of the corpus being parsed now (the
#: recurring ones come back after one scan each); a memo that fills
#: during a call stays full until the next call begins.  Values are the
#: :data:`Op` tuples that programs append to their op lists as they
#: are, ``_MISS``, or a ``str`` — the message of the SmaliParseError
#: the line deterministically raises.
_SCAN_MEMO: Dict[str, object] = {}
_MEMO_CAP = 65536


def _scan_line(line: str):
    """Classify one instruction line; see the scanner shape above."""
    parts = line.split(None, 1)
    scanner = _DISPATCH.get(parts[0])
    if scanner is not None:
        try:
            result = scanner(parts[1] if len(parts) > 1 else "")
        except SmaliParseError as error:  # descending register range
            return str(error)
        # A known mnemonic with non-matching operands cannot match any
        # other supported form (only invoke admitted zero whitespace
        # after its mnemonic, and no dispatch key starts with
        # "invoke-" while naming a different form).
        return _MISS if result is None else result
    match = _RARE_RE.match(line)
    if match is not None:
        sig = match.group("invoke_sig").strip()
        try:
            registers = _expand_registers(match.group("invoke_regs"))
        except SmaliParseError as error:
            return str(error)
        name_match = _INVOKED_NAME_RE.search(sig)
        invoked = name_match.group(1) if name_match else ""
        return ("invoke", None, registers, None, sig, invoked)
    return _MISS


def parse_program(text: str, lenient: bool = False) -> SmaliProgram:
    """Parse smali-like text into a flat :class:`SmaliProgram`.

    Raises :class:`~repro.errors.SmaliParseError` on malformed input.
    With ``lenient=True`` malformed lines are recorded in
    :attr:`SmaliProgram.unparsed` (as ``(line_no, line)`` evidence)
    instead of aborting the parse.
    """
    ops: List[Op] = []
    line_nos: List[int] = []
    regions: List[Tuple[str, Optional[str], int]] = []
    unparsed: List[Tuple[int, str]] = []
    ops_append = ops.append
    line_nos_append = line_nos.append
    unparsed_append = unparsed.append
    class_name: Optional[str] = None
    in_method = False
    block_end: Optional[str] = None
    block_depth = 0
    block_start: Optional[str] = None
    if len(_SCAN_MEMO) >= _MEMO_CAP:
        _SCAN_MEMO.clear()
    memo_get = _SCAN_MEMO.get
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        if "#" in raw_line:
            raw_line = raw_line.split("#", 1)[0]
        line = raw_line.strip()
        if not line:
            continue
        if block_end is not None:
            if line == block_end:
                block_depth -= 1
                if block_depth == 0:
                    block_end = block_start = None
            elif block_start is not None and line.startswith(block_start):
                block_depth += 1  # nested annotation
            continue
        if line[0] == ".":
            # Directive ordering mirrors the original cascade exactly,
            # prefix matches included.
            if line.startswith(".class"):
                class_name = line.split(None, 1)[1]
                regions.append((class_name, None, len(ops)))
                in_method = False
                continue
            if line.startswith(".method"):
                if class_name is None:
                    if lenient:
                        unparsed_append((line_no, line))
                        class_name = "<anonymous>"
                        regions.append((class_name, None, len(ops)))
                    else:
                        raise SmaliParseError(
                            f"line {line_no}: method outside class")
                regions.append((class_name, line.split(None, 1)[1], len(ops)))
                in_method = True
                continue
            if line.startswith(".end method"):
                in_method = False
                continue
            if line in _BLOCK_EXACT:
                matched_block = line
            elif line.startswith(_BLOCK_PREFIXES):
                matched_block = next(
                    d for d in _BLOCK_DIRECTIVES if line.startswith(d + " "))
            else:
                matched_block = None
            if matched_block is not None:
                block_start = matched_block
                block_end = _BLOCK_DIRECTIVES[matched_block]
                block_depth = 1
                continue
            if line in _SKIP_EXACT or line.startswith(_SKIP_PREFIXES):
                continue
            # An unrecognised "." line falls through to the
            # instruction path, like the original did.
        if not in_method:
            if lenient:
                unparsed_append((line_no, line))
                continue
            raise SmaliParseError(f"line {line_no}: instruction outside method")
        cached = memo_get(line)
        if cached is None:
            cached = _scan_line(line)
            if len(_SCAN_MEMO) < _MEMO_CAP:
                _SCAN_MEMO[line] = cached
        if cached.__class__ is tuple:  # common case: an instruction
            ops_append(cached)
            line_nos_append(line_no)
            continue
        if cached is _MISS:
            if lenient:
                unparsed_append((line_no, line))
                continue
            raise SmaliParseError(f"line {line_no}: cannot parse {line!r}")
        raise SmaliParseError(cached)  # memoised deterministic error
    return SmaliProgram(ops, line_nos, regions, unparsed)
