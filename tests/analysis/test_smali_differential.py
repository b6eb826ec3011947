"""Differential property suite: single-pass scanner vs the regex parser.

``reference_smali.parse_program`` is the verbatim pre-optimization
per-line-regex parser.  The production single-pass scanner must agree
with it on *every* program either can see: identical program structure,
identical per-instruction fields, identical lenient-mode unparsed
evidence, and identical strict-mode errors.  The corpus sweeps pin the
hot path; the edge-case section pins the weird inputs the corpora never
produce.
"""

import pytest

from repro.analysis.corpus import (
    PlayCorpusPlan,
    PreinstalledCorpusPlan,
    scaled_play_spec,
    scaled_preinstalled_spec,
)
from repro.analysis.factory_images import FactoryImagePlan, scaled_image_specs
from repro.analysis.smali import SmaliParseError, parse_program

import reference_smali  # sibling module; pytest puts this dir on sys.path


def assert_programs_identical(text, lenient=True):
    actual = parse_program(text, lenient=lenient)
    expected = reference_smali.parse_program(text, lenient=lenient)
    assert actual.unparsed == expected.unparsed
    assert actual.string_list() == expected.string_list()
    assert actual.instruction_count == expected.instruction_count
    assert actual.regions == expected.regions
    assert actual.ops == expected.ops
    assert actual.line_nos == expected.line_nos
    return actual


# -- corpus sweeps ----------------------------------------------------------------


def test_scanner_matches_reference_on_play_corpus():
    plan = PlayCorpusPlan(seed=7, spec=scaled_play_spec(400))
    for index in range(400):
        assert_programs_identical(plan.app_at(index).smali_text)


def test_scanner_matches_reference_on_preinstalled_corpus():
    plan = PreinstalledCorpusPlan(seed=7,
                                  spec=scaled_preinstalled_spec(200))
    for index in range(200):
        assert_programs_identical(plan.app_at(index).smali_text)


def test_scanner_matches_reference_on_paper_seed_sample():
    # The exact seed the measurement study runs with.
    plan = PlayCorpusPlan(seed=2016)
    for index in range(0, plan.spec.total, 97):
        assert_programs_identical(plan.app_at(index).smali_text)


def test_scanner_matches_reference_on_image_manifests():
    # Factory-image "apps" have no smali in this model, but their
    # packages feed synthetic manifests elsewhere; cover the plan's
    # metadata-bearing strings through a constructed program per image.
    plan = FactoryImagePlan(seed=2016, specs=scaled_image_specs(60))
    for image in map(plan.image_at, range(plan.size)):
        lines = [".class Lcom/vendor/Manifest;", ".method probe()V"]
        for app in image.apps[:20]:
            lines.append(f'    const-string v0, "{app.package}"')
        lines.append(".end method")
        assert_programs_identical("\n".join(lines))


# -- structural edge cases --------------------------------------------------------


EDGE_PROGRAMS = [
    "",
    "\n\n\n",
    "# just a comment\n   # another",
    ".class LOnly;",
    ".class LA;\n.method m()V\n.end method\n.class LB;\n.method n()V\n"
    "    return-void\n.end method",
    # Directives with and without operands.
    ".class LX;\n.super Ljava/lang/Object;\n.source \"X.java\"\n"
    ".method <init>()V\n    .locals 1\n    .param p1\n    return-void\n"
    ".end method",
    # Every scanner-dispatched opcode family at least once.
    ".class LOps;\n.method ops()V\n"
    "    const-string v0, \"text with spaces, commas\"\n"
    "    const/4 v1, 0x7\n"
    "    const/16 v2, -0x10\n"
    "    move v3, v1\n"
    "    move-object v4, v0\n"
    "    move-result v5\n"
    "    move-result-object v6\n"
    "    new-instance v7, Ljava/io/File;\n"
    "    invoke-direct {v7, v0}, Ljava/io/File;-><init>(Ljava/lang/String;)V\n"
    "    invoke-virtual {v7}, Ljava/io/File;->exists()Z\n"
    "    invoke-static {}, Ljava/lang/Runtime;->getRuntime()Ljava/lang/Runtime;\n"
    "    invoke-interface {v4}, Ljava/lang/CharSequence;->length()I\n"
    "    invoke-super {v7}, Ljava/lang/Object;->hashCode()I\n"
    "    check-cast v4, Ljava/lang/String;\n"
    "    if-eqz v5, :cond_0\n"
    "    goto :goto_0\n"
    "    :cond_0\n"
    "    :goto_0\n"
    "    return-void\n"
    ".end method",
    # Register ranges in invokes.
    ".class LR;\n.method r()V\n"
    "    invoke-virtual/range {v0 .. v5}, La;->b(IIIIII)V\n"
    "    return-void\n.end method",
    # Strings that *look* like other syntax.
    '.class LS;\n.method s()V\n'
    '    const-string v0, ".end method"\n'
    '    const-string v1, "invoke-virtual {v0}, La;->b()V"\n'
    '    const-string v2, ""\n'
    '    const-string v3, "line one\\nline two"\n'
    '    return-void\n.end method',
    # Whitespace torture.
    ".class   LW;\n.method   w()V\n"
    "      const/4    v0,   0x1\n"
    "\t invoke-static   {},   La;->b()V\n"
    "    return-void\n.end method",
    # Unparsable junk in lenient mode.
    ".class LJ;\n.method j()V\n"
    "    not-an-opcode v0, v1\n"
    "    @#$%^&\n"
    "    const/4 v0, 0x1\n"
    ".end method",
    # Code outside any method / class (evidence collection).
    "const/4 v0, 0x1\n.class LLate;\n.method m()V\n    return-void\n"
    ".end method\nstray trailing line",
    # Method-region boundaries: an empty method, a class and a method
    # with no .end method, a lenient <anonymous> class.
    ".class LE;\n.method a()V\n.end method\n.method b()V\n"
    "    const/4 v2, 0x1\n.end method",
    ".class LA;\n.method a()V\n    const/4 v2, 0x1\n"
    ".class LB;\n    const/4 v3, 0x1\n.method b()V\n"
    "    invoke-virtual {v0, v1, v2}, La;->b(II)V\n.method c()V\n"
    "    const/4 v4, 0x0",
    ".method m()V\n    const/4 v2, 0x1\n.end method\n.method n()V\n"
    "    invoke-virtual {v0}, La;->b(II)V",
]


@pytest.mark.parametrize("text", EDGE_PROGRAMS)
def test_scanner_matches_reference_on_edge_programs(text):
    assert_programs_identical(text, lenient=True)


@pytest.mark.parametrize("text", EDGE_PROGRAMS)
def test_scanner_and_reference_agree_on_strict_mode(text):
    try:
        expected = reference_smali.parse_program(text, lenient=False)
        failed = None
    except SmaliParseError as error:
        expected, failed = None, str(error)
    if failed is None:
        actual = parse_program(text, lenient=False)
        assert actual.regions == expected.regions
    else:
        with pytest.raises(SmaliParseError) as caught:
            parse_program(text, lenient=False)
        assert str(caught.value) == failed


def test_invoked_name_matches_reference_resolution():
    text = (
        ".class LN;\n.method n()V\n"
        "    invoke-virtual {v0}, Landroid/content/pm/PackageManager;"
        "->installPackage(Landroid/net/Uri;)V\n"
        "    invoke-static {}, Ljava/lang/Runtime;->exec"
        "(Ljava/lang/String;)Ljava/lang/Process;\n"
        "    return-void\n.end method"
    )
    program = assert_programs_identical(text)
    assert [op[5] for op in program.ops] == ["installPackage", "exec"]
