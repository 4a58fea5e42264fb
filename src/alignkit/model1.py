"""IBM Model 1: EM training of a lexical translation table.

The model scores a source sentence F and alignment a given a target
sentence E as eps / (n+1)^m * prod_j t(F_j | E_{a_j}), with an optional
empty target word (NULL) that every source word may align to. Because
the alignment factorizes per source position, the E-step posterior for
position j is just t(f_j | e_i) normalized over i, and the corpus
log-likelihood is

    sum over pairs of  log eps - m*log(n+1) + sum_j log sum_i t(f_j | e_i)

(with n instead of n+1 when NULL is disabled). The length term eps is a
constant and does not move during EM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TextIO

from ._packed import train_lexical
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError
from .ttable import NULL_ID, TranslationTable, read_ttable, write_ttable


@dataclass(frozen=True)
class Model1Config:
    iterations: int = 5
    use_null: bool = True
    epsilon: float = 1.0
    floor: float = 1e-12

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.floor < 1.0:
            raise ConfigError(f"floor must be in (0, 1), got {self.floor}")


def init_uniform(bitext: Bitext, use_null: bool = True) -> TranslationTable:
    """Uniform t(.|e) over the source ids co-occurring with each target id.

    The NULL row, when enabled, co-occurs with every source id observed
    in the corpus.
    """
    support: dict[int, set[int]] = {}
    all_f: set[int] = set()
    for pair in bitext.pairs:
        fs = set(pair.source_ids)
        all_f.update(fs)
        for e in pair.target_ids:
            seen = support.get(e)
            if seen is None:
                support[e] = set(fs)
            else:
                seen.update(fs)
    if use_null:
        support[NULL_ID] = all_f
    rows = {
        e: dict.fromkeys(fs, 1.0 / len(fs)) for e, fs in support.items() if fs
    }
    return TranslationTable(rows)


def em_step(
    bitext: Bitext,
    table: TranslationTable,
    config: Model1Config,
    jobs: int = 1,
) -> tuple[TranslationTable, float]:
    """One EM iteration; returns the re-estimated table and the corpus
    log-likelihood of the *input* table."""
    table, (ll,) = train_lexical(
        bitext, table, config.use_null, 1, config.floor, config.epsilon, jobs=jobs
    )
    return table, ll


def train(
    bitext: Bitext,
    config: Model1Config,
    jobs: int = 1,
    quiet: bool = True,
    log_to: Optional[TextIO] = None,
) -> tuple[TranslationTable, list[float]]:
    """EM from the uniform initializer; returns the final table and the
    per-iteration log-likelihood trace (evaluated before each update)."""
    table = init_uniform(bitext, config.use_null)
    return train_lexical(
        bitext, table, config.use_null, config.iterations, config.floor,
        config.epsilon, jobs=jobs, log_to=None if quiet else log_to,
    )


def posterior_align(
    pair: SentencePair,
    table: TranslationTable,
    floor: float = 1e-12,
    use_null: bool | None = None,
) -> AlignmentFunction:
    """Per-position argmax alignment under the lexical table.

    Ties go to the smaller target position; NULL never wins a tie. Pairs
    absent from the table score `floor`. When `use_null` is None the NULL
    row's presence in the table decides whether NULL competes.
    """
    if use_null is None:
        use_null = NULL_ID in table.rows
    null_row = table.rows.get(NULL_ID, {})
    targets: list[int | None] = []
    for f in pair.source_ids:
        best_i = 0
        best_p = -1.0
        for i, e in enumerate(pair.target_ids):
            p = table.prob(e, f, floor)
            if p > best_p:
                best_p = p
                best_i = i
        if use_null and max(null_row.get(f, 0.0), floor) > best_p:
            targets.append(None)
        else:
            targets.append(best_i)
    return AlignmentFunction(targets=tuple(targets), n=pair.n)


def sentence_log_prob(
    pair: SentencePair, table: TranslationTable, config: Model1Config
) -> float:
    """log p(F | E) with the alignment marginalized out; lookups are floored,
    so the value is finite for any pair."""
    n_choices = pair.n + 1 if config.use_null else pair.n
    total = math.log(config.epsilon) - pair.m * math.log(n_choices)
    for f in pair.source_ids:
        acc = 0.0
        for e in pair.target_ids:
            acc += table.prob(e, f, config.floor)
        if config.use_null:
            acc += table.prob(NULL_ID, f, config.floor)
        total += math.log(acc)
    return total


def align_corpus(
    bitext: Bitext, table: TranslationTable, floor: float = 1e-12
) -> list[AlignmentFunction]:
    return [posterior_align(pair, table, floor) for pair in bitext.pairs]


def save_model(out: TextIO, table: TranslationTable) -> None:
    write_ttable(out, table)


def load_model(lines) -> TranslationTable:
    table, trailer = read_ttable(lines)
    if trailer:
        from .errors import DataFormatError

        raise DataFormatError(f"unexpected trailer in lexical model: {trailer[0]!r}")
    return table
