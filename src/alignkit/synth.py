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

The draws are those of numpy 2.x's ``np.random.default_rng(seed)``,
reproduced without numpy by `_Generator`: SeedSequence seeding, the PCG64
generator with its XSL-RR 128/64 output (O'Neill, 2014), and Lemire's
bounded integers (Lemire, 2019). All of it is integer arithmetic, so the
corpus is the one numpy's generator gives, and a numpy upgrade that
changes its `Generator` stream does not change it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .alignment import AlignmentSet
from .errors import ConfigError, Record

MAX_VOCAB = 2**63  # token ids are drawn as int64 values below vocab_size
MAX_LEN = 2**20  # a pair's ids are drawn as one list, so this bounds its memory


class SynthConfig(Record):
    __slots__ = (
        "pairs", "vocab_size", "min_len", "max_len", "swap_rate", "insert_rate", "seed"
    )

    def __init__(
        self,
        pairs: int,
        vocab_size: int = 500,
        min_len: int = 3,
        max_len: int = 12,
        swap_rate: float = 0.0,
        insert_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {pairs}")
        if not 1 <= vocab_size <= MAX_VOCAB:
            raise ConfigError(f"vocab_size must be in [1, 2**63], got {vocab_size}")
        if not 1 <= min_len <= max_len:
            raise ConfigError(f"need 1 <= min_len <= max_len, got [{min_len}, {max_len}]")
        if max_len > MAX_LEN:
            raise ConfigError(f"max_len must be <= 2**20, got {max_len}")
        for name, rate in (("swap_rate", swap_rate), ("insert_rate", insert_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.pairs, self.vocab_size, self.seed = pairs, vocab_size, seed
        self.min_len, self.max_len = min_len, max_len
        self.swap_rate, self.insert_rate = swap_rate, insert_rate


class SynthRecord(NamedTuple):
    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    gold: AlignmentSet


def generate(config: SynthConfig) -> list[SynthRecord]:
    return list(iter_records(config))


def iter_records(config: SynthConfig) -> Iterator[SynthRecord]:
    """The records of `generate`, one at a time."""
    rng = _Generator(config.seed)
    for _ in range(config.pairs):
        length = rng.integers(config.min_len, config.max_len + 1)
        ids = rng.integers(0, config.vocab_size, size=length)

        target = [f"t{k}" for k in ids]
        # links as (source position in the clean sentence, target position)
        links = [(j, j) for j in range(length)]
        i = 0
        while i + 1 < length:
            if rng.random() < config.swap_rate:
                target[i], target[i + 1] = target[i + 1], target[i]
                links[i], links[i + 1] = (i, i + 1), (i + 1, i)
                i += 2
            else:
                i += 1

        source = []
        positions = []  # noisy-source position of each clean token
        for k in ids:
            positions.append(len(source))
            source.append(f"s{k}")
            if rng.random() < config.insert_rate:
                source.append(f"s{rng.integers(0, config.vocab_size)}")

        gold = AlignmentSet(
            links=frozenset((positions[j], t) for j, t in links),
            m=len(source),
            n=length,
        )
        yield SynthRecord(tuple(source), tuple(target), gold)


def gold_wpt_lines(sid: int, gold: AlignmentSet) -> str:
    """The gold links of sentence sid as WPT lines `sentence_id src tgt S`,
    all 1-based."""
    return "".join(f"{sid} {j + 1} {i + 1} S\n" for j, i in gold.sorted_links())


# --------------------------------------------------------------------------
# numpy's default_rng stream, without numpy

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).generate_state(4, np.uint64)`."""
    entropy = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]


class _Generator:
    """The draws `generate` makes from numpy 2.x's `default_rng(seed)`.

    A 32-bit draw takes the low half of a fresh 64-bit draw and keeps the
    high half for the next 32-bit draw; `random` never reads the kept half.
    """

    def __init__(self, seed: int) -> None:
        words = _seed_words(seed)
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        # PCG64 seeding: one step from state 0 gives inc; add the seed; step.
        self._state = (self._inc + (words[0] << 64 | words[1])) & _MASK128
        self._next64()
        self._half = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        draw = self._next64()
        self._half = draw >> 32
        return draw & _MASK32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform ints in [low, high): one, or a list of `size`.

        numpy's rules by span = high - 1 - low: no draw for one value, a
        32-bit word as is for 2**32 values, and otherwise Lemire on 32-bit
        words below 2**32 values, on 64-bit words above. Its case of 2**64
        values is left out: `MAX_VOCAB` keeps the span below 2**63.
        """
        span = high - 1 - low
        if span == 0:
            draw = int
        elif span < _MASK32:
            draw = _lemire(self._next32, span + 1, 32)
        elif span == _MASK32:
            draw = self._next32
        else:
            draw = _lemire(self._next64, span + 1, 64)
        if size is None:
            return low + draw()
        return [low + draw() for _ in range(size)]


def _lemire(next_bits, bound: int, bits: int):
    """Lemire's unbiased draw in [0, bound) from `bits`-bit words."""
    mask = (1 << bits) - 1
    threshold = (mask + 1) % bound  # numpy's (2**bits - bound) % bound

    def draw() -> int:
        product = next_bits() * bound
        while product & mask < threshold:
            product = next_bits() * bound
        return product >> bits

    return draw
