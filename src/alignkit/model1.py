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

from ._packed import ChunkRunner, PackedCorpus, PriorProvider, train_lexical, uniform_start
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError
from .ttable import NULL_ID, TranslationTable, decode_theta, write_ttable


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
    return uniform_start(bitext, use_null)[0]


def em_step(
    bitext: Bitext,
    table: TranslationTable,
    config: Model1Config,
    jobs: int = 1,
) -> tuple[TranslationTable, float]:
    """One EM iteration; returns the re-estimated table and the corpus
    log-likelihood of the *input* table."""
    table, (ll,) = train_lexical(ChunkRunner(bitext, table, config.use_null, jobs), 1)
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
    runner = ChunkRunner.uniform(bitext, config.use_null, jobs)
    return train_lexical(runner, config.iterations, log_to=log_to)


def posterior_align(
    pair: SentencePair, table: TranslationTable, use_null: bool | None = None
) -> AlignmentFunction:
    """align_corpus on the one pair."""
    return align_corpus(Bitext([pair]), table, use_null)[0]


def align_corpus(
    bitext: Bitext,
    table: TranslationTable,
    use_null: bool | None = None,
    prior: Optional[PriorProvider] = None,
) -> list[AlignmentFunction]:
    """Per source word of every pair, the best target position under the
    lexical table, times the prior when given (Model 2); every cell scores
    at least DECODE_FLOOR. The smaller position wins ties, and NULL takes a
    word only when it scores strictly higher. When `use_null` is None the
    NULL row's presence in the table decides whether NULL competes."""
    if use_null is None:
        use_null = NULL_ID in table.row_ids
    packed = PackedCorpus(bitext, table, use_null)
    theta = decode_theta(table)
    aligned: list = [None] * len(packed)
    for c, chunk in enumerate(packed.chunks):
        for g, block in chunk.blocks(packed.cells(c, theta, prior)):
            real = block[:, :, : block.shape[2] - use_null]
            best = real.argmax(axis=2)
            if use_null:
                best[block[:, :, -1] > real.max(axis=2)] = -1  # NULL
            for k, m, n, targets in zip(g.pairs, g.ms.tolist(), g.ns.tolist(), best.T.tolist()):
                targets = tuple(None if i < 0 else i for i in targets[:m])
                aligned[k] = AlignmentFunction(targets=targets, n=n)
    return aligned


def save_model(out: TextIO, table: TranslationTable, jobs: int = 1) -> None:
    write_ttable(out, table, jobs=jobs)

