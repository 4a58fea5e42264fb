"""IBM Model 1: EM training of a lexical translation table.

The model scores a source sentence F and alignment a given a target
sentence E as eps / (n+1)^m * prod_j t(F_j | E_{a_j}), with an optional
empty target word (NULL) that every source word may align to. Because
the alignment factorizes per source position, the E-step posterior for
position j is just t(f_j | e_i) normalized over i. The length term eps
is a constant that no EM step moves; alignkit fixes eps = 1, so the
corpus log-likelihood it reports leaves it out:

    sum over pairs of  -m*log(n+1) + sum_j log sum_i t(f_j | e_i)

(with n instead of n+1 when NULL is disabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from ._packed import PackedCorpus, PriorProvider, corpus_cells, train_lexical
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError
from .ttable import DECODE_FLOOR, NULL_ID, TranslationTable, distinct_sorted, write_ttable


@dataclass(frozen=True)
class Model1Config:
    iterations: int = 5
    use_null: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")


def init_uniform(bitext: Bitext, use_null: bool = True) -> TranslationTable:
    """Uniform t(.|e) over the source ids co-occurring with each target id.

    The NULL row, when enabled, co-occurs with every source id observed
    in the corpus.
    """
    es, fs, _, _ = corpus_cells(bitext.pairs, use_null)
    e_ids, f_ids = distinct_sorted(es), distinct_sorted(fs)
    keys = np.searchsorted(e_ids, es) * len(f_ids) + np.searchsorted(f_ids, fs)
    row, col = np.divmod(distinct_sorted(keys), len(f_ids))
    sizes = np.bincount(row)
    return TranslationTable.from_arrays(
        e_ids[row], f_ids[col], np.repeat(1.0 / sizes, sizes)
    )


def em_step(
    bitext: Bitext,
    table: TranslationTable,
    config: Model1Config,
    jobs: int = 1,
) -> tuple[TranslationTable, float]:
    """One EM iteration; returns the re-estimated table and the corpus
    log-likelihood of the *input* table."""
    table, (ll,) = train_lexical(bitext, table, config.use_null, 1, jobs=jobs)
    return table, ll


def train(
    bitext: Bitext,
    config: Model1Config,
    jobs: int = 1,
    log_to: Optional[TextIO] = None,
) -> tuple[TranslationTable, list[float]]:
    """EM from the uniform initializer; returns the final table and the
    per-iteration log-likelihood trace (evaluated before each update),
    which is also written to log_to when given."""
    table = init_uniform(bitext, config.use_null)
    return train_lexical(
        bitext, table, config.use_null, config.iterations, jobs=jobs, log_to=log_to
    )


def posterior_align(
    pair: SentencePair, table: TranslationTable, use_null: bool | None = None
) -> AlignmentFunction:
    """align_corpus on the one pair."""
    return align_corpus(Bitext([pair]), table, use_null)[0]


def best_targets(scores: np.ndarray, n: int, use_null: bool) -> AlignmentFunction:
    """Per source column, the best of the n target rows of scores, the
    smaller position winning ties; with use_null, row n (NULL) takes the
    column only when it scores strictly higher."""
    best = scores[:n].argmax(axis=0)
    targets = best.tolist()
    if use_null:
        null_wins = scores[n] > scores[:n].max(axis=0)
        targets = [None if wins else i for i, wins in zip(targets, null_wins.tolist())]
    return AlignmentFunction(targets=tuple(targets), n=n)


def align_corpus(
    bitext: Bitext,
    table: TranslationTable,
    use_null: bool | None = None,
    prior: Optional[PriorProvider] = None,
) -> list[AlignmentFunction]:
    """best_targets of every pair under the lexical table, times the prior
    when given (Model 2). Every cell scores at least DECODE_FLOOR. When
    `use_null` is None the NULL row's presence in the table decides
    whether NULL competes."""
    if use_null is None:
        use_null = NULL_ID in table.row_ids
    packed = PackedCorpus(bitext, table, use_null)
    alignments = []
    for k, pair in enumerate(bitext.pairs):
        scores = np.maximum(packed.block(k, table.theta), DECODE_FLOOR)
        if prior is not None:
            scores = prior.matrix(pair.m, pair.n, use_null) * scores
        alignments.append(best_targets(scores, pair.n, use_null))
    return alignments


def save_model(out: TextIO, table: TranslationTable) -> None:
    write_ttable(out, table)

