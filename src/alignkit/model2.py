"""Model 2 with a parametric diagonal alignment prior.

Instead of Model 1's uniform choice over target positions, position j of
an m-word source sentence prefers target positions near the diagonal:

    h(i, j, m, n) = -| j/m - i/n |                       (1-based i, j)
    p(i | j, m, n) = (1 - p0) * exp(lam * h) / Z_j        for i in 1..n
    p(NULL)        = p0

with Z_j summing exp(lam * h) over i' = 1..n. Tension lam and null mass
p0 are fixed hyperparameters; EM re-estimates only the lexical table.
With lam = 0 and p0 = 0 the prior is uniform and the model collapses to
Model 1 without NULL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from . import model1
from ._packed import ChunkRunner, train_lexical
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError, trailer_error
from .ttable import TranslationTable, write_ttable

DIAG_TRAILER = "diag"
MAX_TENSION = 700.0  # exp(-lam * |h|) stays a normal float for |h| < 1


@dataclass(frozen=True)
class DiagonalPrior:
    lam: float = 4.0
    p0: float = 0.08

    def __post_init__(self):
        if not 0.0 <= self.lam <= MAX_TENSION:
            raise ConfigError(f"tension must be in [0, {MAX_TENSION:g}], got {self.lam}")
        if not 0.0 <= self.p0 < 1.0:
            raise ConfigError(f"null mass must be in [0, 1), got {self.p0}")

    @property
    def use_null(self) -> bool:
        return self.p0 > 0.0

    def matrix(self, m: int, n: int, use_null: bool) -> np.ndarray:
        """Prior over target rows (NULL last when enabled) per source column."""
        key = (self.lam, self.p0, m, n, use_null)
        cached = _MATRIX_CACHE.get(key)
        if cached is None:
            i = np.arange(1, n + 1, dtype=float)[:, None]
            j = np.arange(1, m + 1, dtype=float)[None, :]
            weights = np.exp(self.lam * -np.abs(j / m - i / n))
            rows = (1.0 - self.p0) * weights / weights.sum(axis=0)
            if use_null:
                rows = np.vstack([rows, np.full((1, m), self.p0)])
            cached = _MATRIX_CACHE[key] = rows
        return cached


_MATRIX_CACHE: dict[tuple, np.ndarray] = {}


@dataclass(frozen=True)
class Model2Config:
    iterations: int = 5
    lam: float = 4.0
    p0: float = 0.08

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        DiagonalPrior(self.lam, self.p0)  # reuse its range checks

    def prior(self) -> DiagonalPrior:
        return DiagonalPrior(self.lam, self.p0)


@dataclass
class Model2Params:
    table: TranslationTable
    prior: DiagonalPrior


def em_step(
    bitext: Bitext,
    params: Model2Params,
    config: Model2Config,
    jobs: int = 1,
) -> tuple[Model2Params, float]:
    """One EM iteration over the lexical table under params.prior, which
    stays fixed. config is not read: params hold the whole model.

    The returned log-likelihood sums, for the input parameters,
    sum_j log sum_i p(i | j, m, n) t(f_j | e_i) per pair: alignkit fixes
    the length constant eps = 1, so its log eps term is left out.
    """
    prior = params.prior
    runner = ChunkRunner(bitext, params.table, prior.use_null, jobs)
    table, (ll,) = train_lexical(runner, 1, prior)
    return Model2Params(table=table, prior=prior), ll


def train(
    bitext: Bitext,
    config: Model2Config,
    jobs: int = 1,
    log_to: Optional[TextIO] = None,
) -> tuple[Model2Params, list[float]]:
    prior = config.prior()
    runner = ChunkRunner.uniform(bitext, prior.use_null, jobs)
    table, trace = train_lexical(runner, config.iterations, prior, log_to)
    return Model2Params(table=table, prior=prior), trace


def align(pair: SentencePair, params: Model2Params) -> AlignmentFunction:
    """align_corpus on the one pair."""
    return align_corpus(Bitext([pair]), params)[0]


def align_corpus(bitext: Bitext, params: Model2Params) -> list[AlignmentFunction]:
    """argmax_i p(i | j, m, n) t(f_j | e_i) per source position of every
    pair; ties to the smaller target position, NULL losing all ties."""
    prior = params.prior
    return model1.align_corpus(bitext, params.table, prior.use_null, prior)


def save_model(out: TextIO, params: Model2Params, jobs: int = 1) -> None:
    trailer = [f"{DIAG_TRAILER}\t{params.prior.lam!r}\t{params.prior.p0!r}"]
    write_ttable(out, params.table, trailer, jobs=jobs)


def model_from(
    table: TranslationTable, trailer: list[str], line_numbers: Sequence[int] = ()
) -> Model2Params:
    """Model 2 parameters from a parsed model file's table and trailer.
    Errors name the model line of the row they reject when line_numbers
    holds each trailer row's line."""
    if not trailer or not trailer[0].startswith(DIAG_TRAILER + "\t"):
        raise trailer_error("diagonal model file must end with a 'diag' trailer", line_numbers)
    if len(trailer) > 1:
        raise trailer_error("unexpected line after the 'diag' trailer", line_numbers, 1)
    parts = trailer[0].split("\t")
    if len(parts) != 3:
        raise trailer_error("malformed 'diag' trailer", line_numbers)
    try:
        lam, p0 = float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise trailer_error(f"malformed 'diag' trailer: {exc}", line_numbers) from exc
    try:
        prior = DiagonalPrior(lam, p0)
    except ConfigError as exc:
        raise trailer_error(f"bad 'diag' trailer: {exc}", line_numbers) from None
    return Model2Params(table=table, prior=prior)
