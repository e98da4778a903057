"""Token-budget arithmetic for mono- and multilingual training plans.

Converts optimizer steps to token counts, reports the multiple of the
compute-optimal 20-tokens-per-parameter heuristic, and works out how many
epochs each dataset would be repeated for a given language mix. Repeating
data past 10 epochs is treated as an error-level warning; past 4 epochs
an advisory is raised, since returns from repetition decay well before
the hard limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

CHINCHILLA_TOKENS_PER_PARAM = 20.0
HARD_EPOCH_LIMIT = 10.0
ADVISORY_EPOCH_LIMIT = 4.0


@dataclass
class LanguageWeight:
    lang: str
    weight: float


@dataclass
class TrainingPlan:
    steps: int
    batch_size: int
    context_len: int
    languages: list[LanguageWeight]
    model_params: float

    def __post_init__(self) -> None:
        if min(self.steps, self.batch_size, self.context_len) <= 0:
            raise ConfigError("steps, batch_size, context_len must be positive")
        if self.model_params <= 0:
            raise ConfigError("model_params must be positive")
        if not self.languages or any(lw.weight <= 0 for lw in self.languages):
            raise ConfigError("language weights must be positive")
        if abs(sum(lw.weight for lw in self.languages) - 1.0) > 1e-9:
            raise ConfigError("language weights must sum to 1")


@dataclass
class DatasetBudget:
    dataset: str
    lang: str
    available_tokens: float
    required_tokens: float
    epochs: float
    warn: bool
    advisory: bool


def tokens_for_steps(steps: int, batch_size: int, context_len: int) -> int:
    if min(steps, batch_size, context_len) <= 0:
        raise ConfigError("all factors must be positive")
    # Python ints are arbitrary precision, so no overflow to guard
    return steps * batch_size * context_len


def chinchilla_multiple(tokens: float, model_params: float) -> float:
    if tokens <= 0 or model_params <= 0:
        raise ConfigError("tokens and model_params must be positive")
    return tokens / (CHINCHILLA_TOKENS_PER_PARAM * model_params)


def plan_mix(plan: TrainingPlan, budgets: list[dict]) -> list[DatasetBudget]:
    """Split the plan's token requirement per language across its datasets.

    Each language's requirement is total tokens times its weight, divided
    among that language's datasets in proportion to availability (so every
    dataset of a language is repeated the same number of epochs).
    """
    total = tokens_for_steps(plan.steps, plan.batch_size, plan.context_len)
    by_lang: dict[str, list[dict]] = {}
    for b in budgets:
        by_lang.setdefault(b["lang"], []).append(b)

    rows: list[DatasetBudget] = []
    for lw in plan.languages:
        entries = by_lang.get(lw.lang)
        if not entries:
            raise ConfigError(f"no budget entry for language {lw.lang!r}")
        lang_required = total * lw.weight
        lang_available = sum(float(e["available_tokens"]) for e in entries)
        if lang_available <= 0:
            raise ConfigError(f"zero available tokens for language {lw.lang!r}")
        for e in entries:
            avail = float(e["available_tokens"])
            if avail <= 0:
                raise ConfigError(f"dataset {e['dataset']!r} has zero available tokens")
            required = lang_required * (avail / lang_available)
            epochs = required / avail
            rows.append(
                DatasetBudget(
                    dataset=e["dataset"],
                    lang=lw.lang,
                    available_tokens=avail,
                    required_tokens=required,
                    epochs=epochs,
                    warn=epochs > HARD_EPOCH_LIMIT,
                    advisory=epochs > ADVISORY_EPOCH_LIMIT,
                )
            )
    return rows
