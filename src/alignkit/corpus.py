"""Parallel corpus handling: tokenization, vocabularies, bitext I/O.

Text is whitespace-tokenized. Each side of the corpus gets its own
vocabulary; integer id 0 is reserved for the unknown token, and ids
1..T are assigned by descending frequency (ties broken lexicographically)
so that id order is reproducible for a fixed corpus.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import ConfigError, DataFormatError, DegeneratePairError, Record, warn

UNK_ID = 0
UNK_TOKEN = "<unk>"

SEPARATOR = " ||| "


def tokenize(line: str, lowercase: bool = False) -> list[str]:
    """Split a line of text on whitespace runs, optionally lowercasing."""
    if lowercase:
        line = line.lower()
    return line.split()


class Vocabulary(Record):
    """Token <-> id mapping for one side of a parallel corpus.

    id 0 is the unknown token; ids 1..T cover the most frequent tokens.
    `frequency[0]` holds the number of token occurrences that fell below
    the size threshold and were mapped to UNK. A mapping left out starts
    with the unknown token alone.
    """

    __slots__ = ("token_to_id", "id_to_token", "frequency")
    __hash__ = None

    def __init__(
        self,
        token_to_id: dict[str, int] | None = None,
        id_to_token: list[str] | None = None,
        frequency: dict[int, int] | None = None,
    ) -> None:
        self.token_to_id = {} if token_to_id is None else token_to_id
        self.id_to_token = [UNK_TOKEN] if id_to_token is None else id_to_token
        self.frequency = {UNK_ID: 0} if frequency is None else frequency

    @classmethod
    def build(
        cls, sentences: Iterable[Sequence[str]], max_size: int | None = None
    ) -> "Vocabulary":
        counts = Counter()
        for sent in sentences:
            counts.update(sent)
        if max_size is not None and max_size < 1:
            raise ConfigError(f"vocabulary size must be >= 1, got {max_size}")
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        kept = ranked[:max_size]
        vocab = cls()
        for token, count in kept:
            idx = len(vocab.id_to_token)
            vocab.token_to_id[token] = idx
            vocab.id_to_token.append(token)
            vocab.frequency[idx] = count
        vocab.frequency[UNK_ID] = sum(count for _, count in ranked[len(kept):])
        return vocab

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens: Sequence[str]) -> tuple[int, ...]:
        get = self.token_to_id.get
        return tuple(get(tok, UNK_ID) for tok in tokens)

    def save(self, out: TextIO) -> None:
        """Write `id<TAB>token<TAB>count` rows, ids ascending; id 0 implicit."""
        for idx in range(1, len(self.id_to_token)):
            token = self.id_to_token[idx]
            out.write(f"{idx}\t{token}\t{self.frequency.get(idx, 0)}\n")

    @classmethod
    def load(cls, lines: Iterable[str]) -> "Vocabulary":
        vocab = cls()
        expected = 1
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(
                    f"vocabulary line {lineno}: expected 3 tab-separated fields"
                )
            try:
                idx, count = int(parts[0]), int(parts[2])
            except ValueError as exc:
                raise DataFormatError(f"vocabulary line {lineno}: {exc}") from exc
            if idx != expected:
                raise DataFormatError(
                    f"vocabulary line {lineno}: ids must ascend from 1, got {idx}"
                )
            if parts[1] in vocab.token_to_id:
                raise DataFormatError(f"vocabulary line {lineno}: repeated token {parts[1]!r}")
            vocab.token_to_id[parts[1]] = idx
            vocab.id_to_token.append(parts[1])
            vocab.frequency[idx] = count
            expected += 1
        return vocab


class SentencePair(Record):
    """One aligned sentence pair, already mapped to vocabulary ids."""

    __slots__ = ("source_ids", "target_ids")

    def __init__(self, source_ids: tuple[int, ...], target_ids: tuple[int, ...]) -> None:
        if not source_ids or not target_ids:
            raise DegeneratePairError("sentence pair with an empty side")
        self.source_ids, self.target_ids = source_ids, target_ids

    @property
    def m(self) -> int:
        return len(self.source_ids)

    @property
    def n(self) -> int:
        return len(self.target_ids)


class Bitext(Record):
    """An encoded parallel corpus plus the vocabularies used to encode it,
    and each pair's input line number."""

    __slots__ = ("pairs", "source_vocab", "target_vocab", "line_numbers")
    __hash__ = None

    def __init__(
        self,
        pairs: list[SentencePair],
        source_vocab: Vocabulary | None = None,
        target_vocab: Vocabulary | None = None,
        line_numbers: list[int] | None = None,
    ) -> None:
        self.pairs = pairs
        self.source_vocab = source_vocab
        self.target_vocab = target_vocab
        self.line_numbers = [] if line_numbers is None else line_numbers

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def parse_bitext_line(raw: str, lineno: int) -> tuple[str, str]:
    line = raw.rstrip("\n")
    before, sep, after = line.partition(SEPARATOR)
    if not sep:
        raise DataFormatError(f"bitext line {lineno}: missing '{SEPARATOR}' separator")
    return before, after


def iter_token_pairs(
    lines: Iterable[str], lowercase: bool = False
) -> Iterator[tuple[int, list[str], list[str]]]:
    """Yield (lineno, source tokens, target tokens) for every line; either
    side may be empty."""
    for lineno, raw in enumerate(lines, start=1):
        src_text, trg_text = parse_bitext_line(raw, lineno)
        yield lineno, tokenize(src_text, lowercase), tokenize(trg_text, lowercase)


def load_bitext(
    lines: Iterable[str],
    source_vocab: Vocabulary | None = None,
    target_vocab: Vocabulary | None = None,
    max_vocab: int | None = None,
    lowercase: bool = False,
    swap: bool = False,
) -> Bitext:
    """Read `source ||| target` lines into an encoded Bitext.

    When vocabularies are not supplied they are built from this corpus
    (frequency-ranked, truncated to `max_vocab` entries per side). With
    `swap`, the two fields of every line trade roles; this is how the
    reverse alignment direction is trained without rewriting the corpus.
    Pairs where either side tokenizes to nothing are skipped with a
    warning; the relative order of surviving pairs is preserved.
    """
    token_pairs = []
    line_numbers = []
    for lineno, src, trg in iter_token_pairs(lines, lowercase):
        if not src or not trg:
            warn("alignkit", "bitext line %d: empty side, pair skipped", lineno)
            continue
        token_pairs.append((trg, src) if swap else (src, trg))
        line_numbers.append(lineno)
    if source_vocab is None:
        source_vocab = Vocabulary.build((src for src, _ in token_pairs), max_size=max_vocab)
    if target_vocab is None:
        target_vocab = Vocabulary.build((trg for _, trg in token_pairs), max_size=max_vocab)
    pairs = [
        SentencePair(source_vocab.encode(src), target_vocab.encode(trg))
        for src, trg in token_pairs
    ]
    return Bitext(pairs, source_vocab, target_vocab, line_numbers)


def write_bitext_line(out: TextIO, source_tokens: Sequence[str], target_tokens: Sequence[str]) -> None:
    out.write(" ".join(source_tokens) + SEPARATOR + " ".join(target_tokens) + "\n")
