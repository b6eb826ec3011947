"""Tests for the smali-like IR parser and def-use analysis."""

import pytest

from repro.analysis import smali as smali_mod
from repro.analysis.corpus import PlayCorpusPlan, scaled_play_spec
from repro.errors import SmaliParseError
from repro.analysis.smali import parse_program

SAMPLE = """
.class Lcom/example/Foo;
.method install()V
const-string v1, "/sdcard/app.apk"
const/4 v2, 1
move v3, v2
invoke-virtual {v0, v1, v3}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;
.end method
.method other()V
const-string v5, "hello"
.end method
"""


def test_parse_classes_and_methods():
    program = parse_program(SAMPLE)
    assert program.regions == [("Lcom/example/Foo;", None, 0),
                               ("Lcom/example/Foo;", "install()V", 0),
                               ("Lcom/example/Foo;", "other()V", 4)]


def test_string_constants_collected():
    program = parse_program(SAMPLE)
    assert "/sdcard/app.apk" in list(program.all_strings())
    assert "hello" in list(program.all_strings())


def test_contains_string():
    program = parse_program(SAMPLE)
    assert program.contains_string("/sdcard")
    assert not program.contains_string("market://")


def test_invoke_parsed_with_registers_and_name():
    program = parse_program(SAMPLE)
    op, _dest, sources, _literal, _sig, invoked_name = program.ops[3]
    assert op == "invoke"
    assert sources == ("v0", "v1", "v3")
    assert invoked_name == "openFileOutput"


def test_reaching_def_follows_move_chain():
    program = parse_program(SAMPLE)
    assert program.resolve_argument(3, 2) == 1   # v3 <- v2 <- const 1
    assert program.resolve_argument(3, 1) == "/sdcard/app.apk"


def test_resolve_unresolvable_returns_none():
    text = """
.class La;
.method m()V
iget v2, v0, La;->mode:I
invoke-virtual {v0, v1, v2}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;
.end method
"""
    program = parse_program(text)
    assert program.ops[1][0] == "invoke"
    assert program.resolve_argument(1, 2) is None  # field load dead-end
    assert program.resolve_argument(1, 1) is None  # v1 never defined


def test_resolve_out_of_range_argument():
    program = parse_program(SAMPLE)
    assert program.resolve_argument(3, 9) is None


def test_const_int_hex_parsing():
    program = parse_program(
        ".class La;\n.method m()V\nconst/high16 v1, 0x10\n.end method"
    )
    assert program.ops[0][3] == 16


def test_comments_and_blank_lines_ignored():
    program = parse_program(
        ".class La;\n\n# comment\n.method m()V\nconst/4 v0, 1 # inline\n.end method"
    )
    assert program.instruction_count == 1


def test_instruction_outside_method_rejected():
    with pytest.raises(SmaliParseError):
        parse_program('.class La;\nconst/4 v0, 1')


def test_method_outside_class_rejected():
    with pytest.raises(SmaliParseError):
        parse_program(".method m()V\n.end method")


def test_garbage_line_rejected():
    with pytest.raises(SmaliParseError):
        parse_program(".class La;\n.method m()V\nwobble v0\n.end method")


def test_invoke_static_form():
    program = parse_program(
        '.class La;\n.method m()V\nconst-string v1, "u"\n'
        "invoke-static {v1}, Lcom/h/Net;->get(Ljava/lang/String;)V\n.end method"
    )
    assert program.ops[1][0] == "invoke"
    assert program.ops[1][5] == "get"


def test_const_wide_16_parses():
    program = parse_program(
        ".class La;\n.method m()V\nconst-wide/16 v4, 0x10\n.end method"
    )
    assert program.ops[0][0] == "const-int"
    assert program.ops[0][3] == 16


def test_const_16_and_wide_variants_parse():
    text = """
.class La;
.method m()V
const/16 v1, 256
const-wide v2, 0x1234L
const-wide/32 v4, -5
const-wide/high16 v6, 0x4000
.end method
"""
    program = parse_program(text)
    literals = [op[3] for op in program.ops]
    assert literals == [256, 0x1234, -5, 0x4000]


def test_invoke_range_expands_registers():
    text = """
.class La;
.method m()V
const-string v0, "staged.apk"
const/4 v1, 1
invoke-virtual/range {v0 .. v1}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;
.end method
"""
    program = parse_program(text)
    assert program.ops[2][0] == "invoke"
    assert program.ops[2][2] == ("v0", "v1")
    assert program.resolve_argument(2, 1) == 1


def test_invoke_super_and_jumbo_string():
    text = """
.class La;
.method m()V
const-string/jumbo v1, "big"
invoke-super {v0, v1}, Lb;->log(Ljava/lang/String;)V
.end method
"""
    program = parse_program(text)
    assert program.string_list() == ["big"]
    assert program.ops[1][0] == "invoke"
    assert program.ops[1][5] == "log"


def test_annotation_blocks_skipped():
    text = """
.class La;
.annotation system Ldalvik/annotation/MemberClasses;
    value = { La$b; }
.end annotation
.method m()V
.annotation runtime Lc/d;
    .subannotation Le/f;
        x = 1
    .end subannotation
.end annotation
const/4 v0, 1
.end method
"""
    program = parse_program(text)
    assert program.instruction_count == 1
    assert not program.unparsed


def test_switch_and_array_data_payloads_skipped():
    text = """
.class La;
.method m()V
const/4 v0, 1
.packed-switch 0x0
    :case_0
    :case_1
.end packed-switch
.array-data 4
    0x1 0x2
.end array-data
.end method
"""
    program = parse_program(text)
    assert program.instruction_count == 1


def test_bookkeeping_directives_skipped():
    text = """
.class La;
.super Ljava/lang/Object;
.source "A.java"
.field private mode:I
.method m()V
.locals 3
.param p1, "x"
.prologue
.line 12
const/4 v0, 1
.local v0, "m":I
.end local v0
.restart local v0
.end method
"""
    program = parse_program(text)
    assert program.instruction_count == 1


def test_lenient_mode_records_unparsed_lines():
    text = ".class La;\n.method m()V\nwobble v0\nconst/4 v1, 1\n.end method"
    program = parse_program(text, lenient=True)
    assert program.unparsed == [(3, "wobble v0")]
    assert program.instruction_count == 1
    # strict mode still refuses the same input
    with pytest.raises(SmaliParseError):
        parse_program(text)


def test_lenient_mode_survives_structure_errors():
    program = parse_program(".method m()V\nconst/4 v0, 1\n.end method",
                            lenient=True)
    assert program.regions[0] == ("<anonymous>", None, 0)
    assert len(program.unparsed) == 1
    assert program.instruction_count == 1


def test_descending_register_range_rejected():
    with pytest.raises(SmaliParseError):
        parse_program(
            ".class La;\n.method m()V\n"
            "invoke-virtual/range {v5 .. v2}, La;->m()V\n.end method"
        )


def test_latest_definition_wins():
    text = """
.class La;
.method m()V
const/4 v1, 0
const/4 v1, 1
invoke-virtual {v0, v2, v1}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;
.end method
"""
    program = parse_program(text)
    assert program.ops[2][0] == "invoke"
    assert program.resolve_argument(2, 2) == 1


# -- method-region boundaries of the flat def-use walk ---------------------------

OPEN_MODE = ("invoke-virtual {v0, v1, v2}, Landroid/content/Context;"
             "->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;")

REGION_PROGRAMS = {
    # The setter is its method's first op; v2 is written just before
    # it, but in the previous method.
    "setter-first-after-method": (
        f".class La;\n.method a()V\nconst/4 v2, 1\n.end method\n"
        f".method b()V\n{OPEN_MODE}\n.end method"),
    # ... in the previous class's last method.
    "setter-first-after-class": (
        f".class La;\n.method a()V\nconst/4 v2, 1\n.end method\n"
        f".class Lb;\n.method b()V\n{OPEN_MODE}\n.end method"),
    # A .class with no .end method before it still ends the region.
    "class-without-end-method": (
        f".class La;\n.method a()V\nconst/4 v2, 1\n"
        f".class Lb;\n.method b()V\n{OPEN_MODE}\n.end method"),
    # A .method with no .end method before it still ends the region.
    "method-without-end-method": (
        f".class La;\n.method a()V\nconst/4 v2, 1\n"
        f".method b()V\n{OPEN_MODE}\n.end method"),
}


@pytest.mark.parametrize("name", sorted(REGION_PROGRAMS))
def test_def_use_stops_at_its_method_region(name):
    program = parse_program(REGION_PROGRAMS[name], lenient=True)
    assert program.instruction_count == 2
    assert program.ops[1][5] == "openFileOutput"
    assert program.resolve_argument(1, 2) is None
    assert program.regions[-1][2] == 1  # the setter opens its region


def test_empty_method_shares_its_start_with_the_next():
    text = (f".class La;\n.method a()V\n.end method\n.method b()V\n"
            f"const/4 v2, 1\n{OPEN_MODE}\n.end method")
    program = parse_program(text)
    assert [region[2] for region in program.regions] == [0, 0, 0]
    assert program.resolve_argument(1, 2) == 1


def test_lenient_anonymous_class_resolves_within_its_method():
    program = parse_program(f".method m()V\nconst/4 v2, 1\n{OPEN_MODE}",
                            lenient=True)
    assert program.unparsed == [(1, ".method m()V")]
    assert program.regions == [("<anonymous>", None, 0),
                               ("<anonymous>", "m()V", 0)]
    assert program.resolve_argument(1, 2) == 1


def test_invoke_with_fewer_sources_than_the_argument_index():
    text = (".class La;\n.method m()V\nconst/4 v2, 1\n"
            "invoke-virtual {v0}, Landroid/content/Context;"
            "->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;\n"
            ".end method")
    program = parse_program(text)
    assert program.resolve_argument(1, 0) is None  # v0 has no definition
    assert program.resolve_argument(1, 2) is None


@pytest.mark.parametrize("lenient", [False, True])
def test_scanner_errors_raise_even_in_lenient_mode(lenient):
    descending = (".class La;\n.method m()V\n"
                  "invoke-virtual/range {v5 .. v2}, La;->m()V\n.end method")
    leading_zero = ".class La;\n.method m()V\nconst/4 v0, 007\n.end method"
    for _ in range(2):  # the second parse reads the memoised outcome
        with pytest.raises(SmaliParseError, match="descending register"):
            parse_program(descending, lenient=lenient)
        with pytest.raises(ValueError):
            parse_program(leading_zero, lenient=lenient)


# -- the scan memo -----------------------------------------------------------


@pytest.fixture
def small_memo(monkeypatch):
    """A fresh scan memo with a small cap; ``scanned`` lists every line
    the scanner sees, and the memo never exceeds its cap at a scan."""
    memo = {}
    monkeypatch.setattr(smali_mod, "_SCAN_MEMO", memo)
    monkeypatch.setattr(smali_mod, "_MEMO_CAP", 4096)
    scanned = []
    scan = smali_mod._scan_line

    def counted_scan(line):
        assert len(smali_mod._SCAN_MEMO) <= smali_mod._MEMO_CAP
        scanned.append(line)
        return scan(line)

    monkeypatch.setattr(smali_mod, "_scan_line", counted_scan)
    return memo, scanned


def _fill(memo, seed):
    """Parse another corpus's apps until the memo is full, checking
    only between programs (as a long-running process reaches it)."""
    plan = PlayCorpusPlan(seed=seed, spec=scaled_play_spec(2000))
    index = 0
    while len(memo) < smali_mod._MEMO_CAP:
        parse_program(plan.app_at(index).smali_text, lenient=True)
        assert len(memo) <= smali_mod._MEMO_CAP
        index += 1
    assert len(memo) == smali_mod._MEMO_CAP


def test_full_memo_learns_the_lines_of_a_new_corpus(small_memo):
    memo, scanned = small_memo
    _fill(memo, seed=77)
    del scanned[:]
    plan = PlayCorpusPlan(seed=5, spec=scaled_play_spec(40))
    texts = [plan.app_at(index).smali_text for index in range(40)]
    for text in texts:
        parse_program(text, lenient=True)
        assert len(memo) <= smali_mod._MEMO_CAP
    assert scanned and all(line in memo for line in scanned)
    del scanned[:]
    for text in texts:
        parse_program(text, lenient=True)
    assert scanned == []  # every instruction line of the corpus hit


def test_memo_filled_mid_program_stays_full_until_the_next_call(
        small_memo):
    memo, scanned = small_memo
    for number in range(smali_mod._MEMO_CAP - 2):
        memo[f"const/4 v0, {number}"] = ("const", "v0", (), number, None,
                                         None)
    text = ".class La;\n.method m()V\n" + "".join(
        f'const-string v1, "line {number}"\n' for number in range(5)
    ) + ".end method"
    program = parse_program(text, lenient=True)
    assert program.instruction_count == 5
    assert len(memo) == smali_mod._MEMO_CAP  # two admitted, then full
    assert 'const-string v1, "line 4"' not in memo
    parse_program(".class La;\n.method m()V\nnop\n.end method", lenient=True)
    assert list(memo) == ["nop"]  # cleared, then the new line admitted


def test_memoised_errors_and_misses_survive_an_eviction(small_memo):
    memo, scanned = small_memo
    descending = "invoke-virtual/range {v5 .. v2}, La;->m()V"
    garbage = "frobnicate v0, v1"

    def program(line):
        return ".class La;\n.method m()V\n" + line + "\n.end method"

    def check():
        with pytest.raises(SmaliParseError, match="descending register"):
            parse_program(program(descending), lenient=True)
        assert parse_program(program(garbage), lenient=True).unparsed == [
            (3, garbage)]
        with pytest.raises(SmaliParseError, match="cannot parse"):
            parse_program(program(garbage))

    check()
    assert isinstance(memo[descending], str)
    assert memo[garbage] is smali_mod._MISS
    _fill(memo, seed=77)  # the next parse clears both
    del scanned[:]
    check()
    assert scanned == [descending, garbage]  # rescanned, then memoised
    assert isinstance(memo[descending], str)
    assert memo[garbage] is smali_mod._MISS
    assert len(memo) <= smali_mod._MEMO_CAP
