"""Property-based tests: corpus generation honours arbitrary specs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.classifier import Category, InstallerClassifier
from repro.analysis.corpus import (
    PlayCorpusPlan,
    PlayCorpusSpec,
    PreinstalledCorpusPlan,
    PreinstalledCorpusSpec,
    WRITE_EXTERNAL,
    generate_play_corpus,
    generate_preinstalled_corpus,
)
from repro.errors import CorpusError


@st.composite
def play_specs(draw):
    vulnerable = draw(st.integers(min_value=0, max_value=40))
    secure = draw(st.integers(min_value=0, max_value=20))
    unknown_reflection = draw(st.integers(min_value=0, max_value=10))
    unknown_field = draw(st.integers(min_value=0, max_value=10))
    unknown_mixed = draw(st.integers(min_value=0, max_value=10))
    installers = (vulnerable + secure + unknown_reflection + unknown_field
                  + unknown_mixed)
    total = draw(st.integers(min_value=max(installers, 10),
                             max_value=installers + 200))
    write_external = draw(st.integers(min_value=vulnerable, max_value=total))
    # Redirect buckets must fit within the corpus.
    remaining = total
    exact1 = draw(st.integers(min_value=0, max_value=remaining // 4))
    exact2 = draw(st.integers(min_value=0, max_value=remaining // 4))
    three4 = draw(st.integers(min_value=0, max_value=remaining // 4))
    five8 = draw(st.integers(min_value=0, max_value=remaining // 8))
    nine_plus = max(0, min(remaining - exact1 - exact2 - three4 - five8,
                           draw(st.integers(min_value=0, max_value=50))))
    return PlayCorpusSpec(
        total=total,
        vulnerable=vulnerable,
        secure=secure,
        unknown_reflection=unknown_reflection,
        unknown_field_mode=unknown_field,
        unknown_mixed=unknown_mixed,
        write_external_total=write_external,
        redirect_exact_1=exact1,
        redirect_exact_2=exact2,
        redirect_3_to_4=three4,
        redirect_5_to_8=five8,
        redirect_9_plus=nine_plus,
    )


@given(spec=play_specs(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_generator_hits_any_spec_exactly(spec, seed):
    """For ANY consistent spec, the classifier recovers the plant."""
    corpus = generate_play_corpus(seed=seed, spec=spec)
    assert len(corpus) == spec.total
    assert sum(1 for app in corpus
               if app.has_permission(WRITE_EXTERNAL)) == spec.write_external_total
    results = InstallerClassifier().classify_corpus(corpus)
    assert results.installers == spec.installers
    assert results.count(Category.POTENTIALLY_VULNERABLE) == spec.vulnerable
    assert results.count(Category.POTENTIALLY_SECURE) == spec.secure
    assert results.count(Category.UNKNOWN) == (
        spec.unknown_reflection + spec.unknown_field_mode + spec.unknown_mixed
    )


_counts = st.integers(min_value=-5, max_value=120)


@given(
    total=_counts, vulnerable=_counts, secure=_counts,
    unknown_reflection=_counts, write_external=_counts,
    redirect_1=_counts, seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_any_play_spec_generates_consistently_or_fails_up_front(
        total, vulnerable, secure, unknown_reflection, write_external,
        redirect_1, seed):
    """UNVALIDATED specs either build a consistent corpus or raise
    CorpusError from plan construction — before any app is built."""
    spec = PlayCorpusSpec(
        total=total, vulnerable=vulnerable, secure=secure,
        unknown_reflection=unknown_reflection, unknown_field_mode=0,
        unknown_mixed=0, write_external_total=write_external,
        redirect_exact_1=redirect_1, redirect_exact_2=0,
        redirect_3_to_4=0, redirect_5_to_8=0, redirect_9_plus=0,
    )
    try:
        plan = PlayCorpusPlan(seed=seed, spec=spec)
    except CorpusError:
        return  # clean failure, nothing generated
    corpus = [plan.app_at(index) for index in range(plan.size)]
    assert len(corpus) == spec.total
    assert sum(1 for app in corpus
               if app.has_permission(WRITE_EXTERNAL)) == write_external
    results = InstallerClassifier().classify_corpus(corpus)
    assert results.installers == spec.installers
    assert results.count(Category.POTENTIALLY_VULNERABLE) == vulnerable


@given(
    unique_apps=_counts, total_instances=st.integers(-5, 1000),
    vulnerable=_counts, secure=st.integers(-2, 5), unknown=_counts,
    write_external_instances=st.integers(-8, 800),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_any_preinstalled_spec_generates_consistently_or_fails_up_front(
        unique_apps, total_instances, vulnerable, secure, unknown,
        write_external_instances, seed):
    spec = PreinstalledCorpusSpec(
        unique_apps=unique_apps, total_instances=total_instances,
        vulnerable=vulnerable, secure=secure, unknown=unknown,
        write_external_instances=write_external_instances,
    )
    try:
        plan = PreinstalledCorpusPlan(seed=seed, spec=spec)
    except CorpusError:
        return
    corpus = [plan.app_at(index) for index in range(plan.size)]
    assert len(corpus) == spec.unique_apps
    assert sum(app.instances for app in corpus) == spec.total_instances
    assert sum(app.instances for app in corpus
               if app.has_permission(WRITE_EXTERNAL)) == (
        spec.write_external_instances)


def test_infeasible_spec_fails_before_generation():
    with pytest.raises(CorpusError):
        generate_play_corpus(spec=PlayCorpusSpec(
            total=10, vulnerable=20, secure=0, unknown_reflection=0,
            unknown_field_mode=0, unknown_mixed=0, write_external_total=25,
            redirect_exact_1=0, redirect_exact_2=0, redirect_3_to_4=0,
            redirect_5_to_8=0, redirect_9_plus=0))
    with pytest.raises(CorpusError):
        generate_preinstalled_corpus(spec=PreinstalledCorpusSpec(
            unique_apps=10, total_instances=1000, vulnerable=2, secure=1,
            unknown=2, write_external_instances=40))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=5, deadline=None)
def test_generation_is_seed_deterministic(seed):
    spec = PlayCorpusSpec(
        total=60, vulnerable=5, secure=3, unknown_reflection=2,
        unknown_field_mode=2, unknown_mixed=1, write_external_total=20,
        redirect_exact_1=4, redirect_exact_2=3, redirect_3_to_4=2,
        redirect_5_to_8=1, redirect_9_plus=5,
    )
    first = generate_play_corpus(seed=seed, spec=spec)
    second = generate_play_corpus(seed=seed, spec=spec)
    assert [a.smali_text for a in first] == [a.smali_text for a in second]
    assert [a.declared_permissions for a in first] == [
        a.declared_permissions for a in second
    ]
