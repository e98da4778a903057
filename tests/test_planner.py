import pytest

from corpusfilter.errors import ConfigError
from corpusfilter.planner import (
    LanguageWeight,
    TrainingPlan,
    chinchilla_multiple,
    plan_mix,
    tokens_for_steps,
)


def bilingual_plan(steps=200_000, weights=(0.5, 0.5)):
    return TrainingPlan(
        steps=steps,
        batch_size=1024,
        context_len=1024,
        languages=[
            LanguageWeight("en", weights[0]),
            LanguageWeight("fr", weights[1]),
        ],
        model_params=1.3e9,
    )


def test_tokens_for_steps_headline():
    assert tokens_for_steps(200_000, 1024, 1024) == 209_715_200_000


def test_tokens_for_steps_30k():
    assert tokens_for_steps(30_000, 1024, 1024) == 31_457_280_000


def test_tokens_for_steps_unit():
    assert tokens_for_steps(1, 1, 1) == 1


def test_tokens_for_steps_rejects_nonpositive():
    with pytest.raises(ConfigError):
        tokens_for_steps(0, 1024, 1024)


def test_chinchilla_definition():
    assert chinchilla_multiple(26e9, 1.3e9) == pytest.approx(1.0)


def test_chinchilla_effective_params():
    # the headline token count is ~7x only with ~1.5B effective params
    assert chinchilla_multiple(209.7152e9, 1.5e9) == pytest.approx(6.99, abs=0.01)
    assert chinchilla_multiple(209.7152e9, 1.3e9) == pytest.approx(8.07, abs=0.01)


def test_plan_mix_fr_share_against_34b_budget():
    rows = plan_mix(
        bilingual_plan(),
        [
            {"dataset": "en_corpus", "lang": "en", "available_tokens": 125e9},
            {"dataset": "fw2_fr_p90", "lang": "fr", "available_tokens": 34e9},
        ],
    )
    fr = next(r for r in rows if r.lang == "fr")
    assert fr.required_tokens == pytest.approx(104.8576e9)
    assert fr.epochs == pytest.approx(3.08, abs=0.01)
    assert not fr.warn and not fr.advisory


def test_plan_mix_large_budget_no_repetition():
    rows = plan_mix(
        bilingual_plan(),
        [
            {"dataset": "en_corpus", "lang": "en", "available_tokens": 125e9},
            {"dataset": "rpj2_fr_p90", "lang": "fr", "available_tokens": 260e9},
        ],
    )
    fr = next(r for r in rows if r.lang == "fr")
    assert fr.epochs == pytest.approx(0.40, abs=0.01)


def test_plan_mix_four_language_equal_split():
    plan = TrainingPlan(
        steps=400_000,
        batch_size=1024,
        context_len=1024,
        languages=[LanguageWeight(lang, 0.25) for lang in ("en", "fr", "de", "zh")],
        model_params=1.3e9,
    )
    budgets = [
        {"dataset": f"{lang}_corpus", "lang": lang, "available_tokens": 300e9}
        for lang in ("en", "fr", "de", "zh")
    ]
    rows = plan_mix(plan, budgets)
    for r in rows:
        assert r.required_tokens == pytest.approx(104.8576e9)


def test_plan_mix_requirements_sum_exactly():
    plan = bilingual_plan(weights=(0.3, 0.7))
    rows = plan_mix(
        plan,
        [
            {"dataset": "a", "lang": "en", "available_tokens": 50e9},
            {"dataset": "b", "lang": "fr", "available_tokens": 30e9},
            {"dataset": "c", "lang": "fr", "available_tokens": 60e9},
        ],
    )
    total = tokens_for_steps(plan.steps, plan.batch_size, plan.context_len)
    assert sum(r.required_tokens for r in rows) == pytest.approx(total, abs=1.0)
    # proportional split means equal epochs within a language
    fr_rows = [r for r in rows if r.lang == "fr"]
    assert fr_rows[0].epochs == pytest.approx(fr_rows[1].epochs)


def test_plan_mix_homogeneous_in_steps():
    budgets = [
        {"dataset": "a", "lang": "en", "available_tokens": 50e9},
        {"dataset": "b", "lang": "fr", "available_tokens": 30e9},
    ]
    r1 = plan_mix(bilingual_plan(steps=100_000), budgets)
    r2 = plan_mix(bilingual_plan(steps=200_000), budgets)
    for a, b in zip(r1, r2):
        assert b.required_tokens == pytest.approx(2 * a.required_tokens)
        assert b.epochs == pytest.approx(2 * a.epochs)


def test_warn_flags_monotone_in_steps():
    budgets = [
        {"dataset": "a", "lang": "en", "available_tokens": 500e9},
        {"dataset": "tiny", "lang": "fr", "available_tokens": 15e9},
    ]
    warned = [
        any(r.warn for r in plan_mix(bilingual_plan(steps=s), budgets))
        for s in (50_000, 200_000, 400_000)
    ]
    assert warned == sorted(warned)
    assert warned[-1]  # 400K steps: 209.7B on 15B = ~14 epochs


def test_advisory_between_4_and_10_epochs():
    budgets = [
        {"dataset": "a", "lang": "en", "available_tokens": 500e9},
        {"dataset": "b", "lang": "fr", "available_tokens": 20e9},
    ]
    fr = next(r for r in plan_mix(bilingual_plan(), budgets) if r.lang == "fr")
    assert 4 < fr.epochs < 10
    assert fr.advisory and not fr.warn


def test_missing_language_budget():
    with pytest.raises(ConfigError, match="no budget entry for language 'fr'"):
        plan_mix(bilingual_plan(), [{"dataset": "a", "lang": "en", "available_tokens": 1e9}])


def test_zero_availability():
    with pytest.raises(ConfigError, match="zero available tokens for language 'fr'"):
        plan_mix(
            bilingual_plan(),
            [
                {"dataset": "a", "lang": "en", "available_tokens": 1e9},
                {"dataset": "b", "lang": "fr", "available_tokens": 0.0},
            ],
        )


def test_a_dataset_with_zero_tokens_in_a_language_with_some():
    with pytest.raises(ConfigError, match="dataset 'c' has zero available tokens"):
        plan_mix(
            bilingual_plan(),
            [
                {"dataset": "a", "lang": "en", "available_tokens": 1e9},
                {"dataset": "b", "lang": "fr", "available_tokens": 1e9},
                {"dataset": "c", "lang": "fr", "available_tokens": 0.0},
            ],
        )


def test_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        bilingual_plan(weights=(0.5, 0.6))
