"""Seeded synthetic bitext with ground-truth alignments.

The generator draws a one-to-one lexicon (source token ``s<k>`` maps to
target token ``t<k>``), samples sentences of uniform random length from
it, and then applies two kinds of noise:

* swap noise: walking the target sentence left to right, each position
  swaps with its right neighbour with probability ``swap_rate``; a swap
  consumes both positions, so swaps never overlap. Rate 1.0 on a
  length-2 sentence reverses it.
* insertion noise: after each source token, with probability
  ``insert_rate`` a spurious source token (uniform over the vocabulary)
  is inserted; spurious tokens carry no gold links.

With both rates at zero the gold alignment is the identity permutation.
A fixed seed reproduces the corpus bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .alignment import AlignmentSet
from .errors import ConfigError

MAX_VOCAB = 2**63  # token ids are drawn as int64 values below vocab_size


@dataclass(frozen=True)
class SynthConfig:
    pairs: int
    vocab_size: int = 500
    min_len: int = 3
    max_len: int = 12
    swap_rate: float = 0.0
    insert_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {self.pairs}")
        if not 1 <= self.vocab_size <= MAX_VOCAB:
            raise ConfigError(f"vocab_size must be in [1, 2**63], got {self.vocab_size}")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError(
                f"need 1 <= min_len <= max_len, got [{self.min_len}, {self.max_len}]"
            )
        for name in ("swap_rate", "insert_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SynthRecord:
    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    gold: AlignmentSet


def generate(config: SynthConfig) -> list[SynthRecord]:
    rng = np.random.default_rng(config.seed)
    records = []
    for _ in range(config.pairs):
        length = int(rng.integers(config.min_len, config.max_len + 1))
        ids = rng.integers(0, config.vocab_size, size=length)

        target = [f"t{k}" for k in ids]
        # links as (source position in the clean sentence, target position)
        links = [(j, j) for j in range(length)]
        i = 0
        while i + 1 < length:
            if rng.random() < config.swap_rate:
                target[i], target[i + 1] = target[i + 1], target[i]
                links = [
                    (j, i + 1 if t == i else i if t == i + 1 else t)
                    for j, t in links
                ]
                i += 2
            else:
                i += 1

        source = []
        positions = []  # noisy-source position of each clean token
        for k in ids:
            positions.append(len(source))
            source.append(f"s{k}")
            if rng.random() < config.insert_rate:
                source.append(f"s{int(rng.integers(0, config.vocab_size))}")

        gold = AlignmentSet(
            links=frozenset((positions[j], t) for j, t in links),
            m=len(source),
            n=length,
        )
        records.append(SynthRecord(tuple(source), tuple(target), gold))
    return records


def write_gold_wpt(records: Iterable[SynthRecord], out: TextIO) -> None:
    """Gold links as WPT lines `sentence_id src tgt S`, all 1-based."""
    for sid, record in enumerate(records, start=1):
        for j, i in record.gold.sorted_links():
            out.write(f"{sid} {j + 1} {i + 1} S\n")
