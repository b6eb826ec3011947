"""Pins of the per-app analysis path's full output.

The merged stats and tables fold away the evidence strings and each
app's detector list; these digests hold every per-app field the
classifier and the redirect scan produce, so a parse or def-use change
that moved one evidence line fails here even when every table stays
equal.  The expected values were computed on the tree-building parser
that preceded the flat op list.
"""

import hashlib
import json

from repro.analysis.classifier import InstallerClassifier
from repro.analysis.corpus import (
    PlayCorpusPlan,
    PreinstalledCorpusPlan,
    scaled_preinstalled_spec,
)
from repro.analysis.redirect_scan import redirect_targets
from repro.analysis.smali import parse_program

PLAY_2016_EVERY_97TH = (
    "e26c066bb8ad02eeb8dd39fb463902d7286185c31e6ff63d72a5f2b6832ce732")
PREINSTALLED_7_AT_200 = (
    "9103864dd74c034cab21505c0ba4da23d2d8c06e3bf79c6ebcf876bc81655f8f")


def evidence_digest(plan, indices):
    """sha256 over each app's (category, detectors, evidence,
    instructions, unparsed_lines, redirect_targets), one JSON line an
    app, in index order."""
    classifier = InstallerClassifier()
    digest = hashlib.sha256()
    for index in indices:
        app = plan.app_at(index)
        program = parse_program(app.smali_text, lenient=True)
        result = classifier.classify(app, program=program)
        line = json.dumps([
            result.category.value, result.detectors, result.evidence,
            result.instructions, result.unparsed_lines,
            list(redirect_targets(program)),
        ])
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_play_seed_2016_evidence_digest():
    plan = PlayCorpusPlan(seed=2016)
    assert evidence_digest(plan, range(0, plan.size, 97)) == (
        PLAY_2016_EVERY_97TH)


def test_preinstalled_seed_7_evidence_digest():
    plan = PreinstalledCorpusPlan(seed=7,
                                  spec=scaled_preinstalled_spec(200))
    assert evidence_digest(plan, range(plan.size)) == PREINSTALLED_7_AT_200
