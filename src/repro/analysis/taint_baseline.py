"""The failed Flowdroid-style approach — Section IV-A's negative result.

Before building the simple marker+def-use classifier, the paper tried a
full information-flow analysis on Flowdroid and gave up: of 43 apps
tested, 14% died on incomplete control-flow graphs, another 14% lost
taint through ``Handler.handleMessage`` (not modelled in Flowdroid's
call graph), and 42% hit outright tool bugs — only ~30% analyzed.

:class:`TaintAnalysisBaseline` models that tool *with its documented
failure modes*: it attempts an intraprocedural dataflow from download
sinks to install sources, but

- aborts on reflective call edges (``Class.forName`` — the incomplete
  CFG case),
- aborts when the flow crosses ``handleMessage`` (the untrackable
  callback case),
- and, like the real tool, crashes on a deterministic share of inputs
  (modelling the 42% "bugs in Flowdroid"; see DESIGN.md on synthetic
  substitution).

The benchmark compares its yield against the paper's simple classifier
over the same sample — the engineering argument for the paper's tool.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.corpus import CorpusApp, INSTALL_MARKER
from repro.analysis.smali import SmaliProgram, parse_program

# Calibrated to the paper's 43-app sample: 42% of runs die to tool bugs.
TOOL_BUG_RATE = 0.42


class TaintOutcome(enum.Enum):
    """How one analysis attempt ended."""

    ANALYZED = "analyzed"
    INCOMPLETE_CFG = "incomplete-control-flow-graph"
    HANDLER_UNTRACKED = "handleMessage-untracked"
    TOOL_BUG = "tool-bug"
    NOT_AN_INSTALLER = "not-an-installer"


@dataclass(frozen=True)
class TaintResult:
    """One app's analysis attempt."""

    package: str
    outcome: TaintOutcome
    uses_sdcard: Optional[bool] = None  # only meaningful when ANALYZED

    @property
    def succeeded(self) -> bool:
        """True when the tool produced a verdict."""
        return self.outcome is TaintOutcome.ANALYZED


class TaintAnalysisBaseline:
    """The Flowdroid-style tool, failure modes included."""

    def __init__(self, bug_rate: float = TOOL_BUG_RATE) -> None:
        self.bug_rate = bug_rate

    def analyze(self, app: CorpusApp) -> TaintResult:
        """Attempt whole-app dataflow on one app."""
        program = parse_program(app.smali_text)
        if not program.contains_string(INSTALL_MARKER):
            return TaintResult(app.package, TaintOutcome.NOT_AN_INSTALLER)
        if self._hits_tool_bug(app):
            return TaintResult(app.package, TaintOutcome.TOOL_BUG)
        failure = self._walk_flows(program)
        if failure is not None:
            return TaintResult(app.package, failure)
        return TaintResult(
            app.package, TaintOutcome.ANALYZED,
            uses_sdcard=self._sdcard_flow(program),
        )

    def analyze_sample(self, apps: List[CorpusApp]) -> List[TaintResult]:
        """Run over a sample, like the paper's 43-app trial."""
        return [self.analyze(app) for app in apps]

    # -- failure modes ----------------------------------------------------------

    def _walk_flows(self, program: SmaliProgram) -> Optional[TaintOutcome]:
        """Follow every invoke edge; reflective/handler edges kill the walk."""
        for op in program.ops:
            # method_sig and invoked_name are "" on every op but an invoke.
            if "Ljava/lang/Class;->forName" in op[4]:
                return TaintOutcome.INCOMPLETE_CFG
            if op[5] == "handleMessage":
                return TaintOutcome.HANDLER_UNTRACKED
        return None

    def _hits_tool_bug(self, app: CorpusApp) -> bool:
        """Deterministic stand-in for the 42% crash rate.

        Hash-based so the same app always crashes (or not), like a real
        bug triggered by specific bytecode shapes.
        """
        digest = hashlib.sha256(app.package.encode("utf-8")).digest()
        return (digest[0] / 255.0) < self.bug_rate

    def _sdcard_flow(self, program: SmaliProgram) -> bool:
        return any(
            value.startswith("/sdcard") for value in program.all_strings()
        )


def yield_rate(results: List[TaintResult]) -> float:
    """Fraction of installer apps the tool managed to analyze."""
    attempted = [r for r in results
                 if r.outcome is not TaintOutcome.NOT_AN_INSTALLER]
    if not attempted:
        return 0.0
    return sum(1 for r in attempted if r.succeeded) / len(attempted)
