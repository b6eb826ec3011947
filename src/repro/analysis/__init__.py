"""The measurement study (Section IV): corpora, static analysis, stats.

The paper measured real corpora (12,750 top Google Play apps, 12,050
pre-installed apps from 60 factory images, 1,855 factory images,
1.2 million store APKs).  Those are proprietary, so this package
*generates* synthetic corpora with the paper's reported trait
distributions — emitting smali-like code with the traits planted — and
then runs the paper's actual analyses over them:

- :mod:`repro.analysis.smali` — the IR + def-use-chain machinery
  standing in for Apktool + Soot/jimple,
- :mod:`repro.analysis.corpus` — Play and pre-installed app corpora,
- :mod:`repro.analysis.classifier` — the vulnerable/secure/unknown
  installer classifier (Tables II and III),
- :mod:`repro.analysis.redirect_scan` — hardcoded Play URL/scheme
  extraction per parsed app (Table IV),
- :mod:`repro.analysis.factory_images` — vendor image fleets,
  INSTALL_PACKAGES prevalence (Tables V and VI),
- :mod:`repro.analysis.platform_keys` — the 1.2M-app store signature
  corpus of the platform-key finding,
- :mod:`repro.analysis.pipeline` — every pass above as a sharded,
  cacheable :mod:`repro.engine` workload (``repro analyze``), plus the
  per-image Hare and platform-key passes (Section IV-B); its merged
  stats are the only source of Tables II–VI and the Section IV-B
  findings (:mod:`repro.measurement.tables` reads them).
"""

from repro.analysis.smali import SmaliProgram, parse_program
from repro.analysis.corpus import (
    CorpusApp,
    GroundTruth,
    generate_play_corpus,
    generate_preinstalled_corpus,
)
from repro.analysis.classifier import Category, InstallerClassifier
from repro.analysis.pipeline import (
    AnalysisCache,
    AnalysisReport,
    AnalysisSpec,
    AnalysisStats,
    analyze_app,
    run_analysis,
)

__all__ = [
    "AnalysisCache",
    "AnalysisReport",
    "AnalysisSpec",
    "AnalysisStats",
    "analyze_app",
    "run_analysis",
    "SmaliProgram",
    "parse_program",
    "CorpusApp",
    "GroundTruth",
    "generate_play_corpus",
    "generate_preinstalled_corpus",
    "Category",
    "InstallerClassifier",
]
