import io

import pytest

from alignkit.corpus import (
    SEPARATOR,
    UNK_ID,
    UNK_TOKEN,
    Bitext,
    SentencePair,
    Vocabulary,
    load_bitext,
    parse_bitext_line,
    tokenize,
    write_bitext_line,
)
from alignkit.errors import DataFormatError, DegeneratePairError


class TestTokenize:
    def test_splits_on_any_whitespace(self):
        assert tokenize("a  b\tc ") == ["a", "b", "c"]

    def test_lowercase_flag(self):
        assert tokenize("The House", lowercase=True) == ["the", "house"]
        assert tokenize("The House") == ["The", "House"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestVocabulary:
    def test_ids_ranked_by_frequency_then_token(self):
        vocab = Vocabulary.build([["b", "a", "b"], ["c", "a", "b"]])
        # b:3, a:2, c:1 -> ids 1, 2, 3; id 0 is reserved
        assert vocab.id("b") == 1
        assert vocab.id("a") == 2
        assert vocab.id("c") == 3
        assert vocab.id("zzz") == UNK_ID
        assert vocab.id_to_token[UNK_ID] == UNK_TOKEN

    def test_frequency_ties_break_alphabetically(self):
        vocab = Vocabulary.build([["b", "a"]])
        assert vocab.id("a") == 1
        assert vocab.id("b") == 2

    def test_truncation_counts_dropped_mass_as_unk(self):
        vocab = Vocabulary.build([["a", "a", "b", "c"]], max_size=1)
        assert len(vocab.id_to_token) == 2  # unk + a
        assert vocab.id("a") == 1
        assert vocab.id("b") == UNK_ID
        assert vocab.frequency[UNK_ID] == 2

    def test_encode_decode_round_trip(self):
        vocab = Vocabulary.build([["x", "y"]])
        ids = vocab.encode(["y", "x", "new"])
        assert [vocab.id_to_token[i] for i in ids] == ["y", "x", UNK_TOKEN]

    def test_save_load_round_trip(self):
        vocab = Vocabulary.build([["a", "b", "b"]])
        buf = io.StringIO()
        vocab.save(buf)
        loaded = Vocabulary.load(buf.getvalue().splitlines())
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.frequency == vocab.frequency

    def test_load_rejects_wrong_field_count(self):
        with pytest.raises(DataFormatError):
            Vocabulary.load(["1\tword"])

    def test_load_rejects_non_ascending_ids(self):
        with pytest.raises(DataFormatError):
            Vocabulary.load(["1\ta\t2", "3\tb\t1"])

    def test_load_rejects_a_repeated_token(self):
        # Kept, the later id would overwrite the earlier one and silently
        # change what every use of the token encodes to.
        with pytest.raises(DataFormatError, match="vocabulary line 3: repeated token 'a'"):
            Vocabulary.load(["1\ta\t2", "2\tb\t1", "3\ta\t1"])


class TestBitextParsing:
    def test_separator_split_is_on_first_occurrence(self):
        src, tgt = parse_bitext_line("a ||| b ||| c", 1)
        assert src == "a"
        assert tgt == "b ||| c"

    def test_missing_separator_names_line(self):
        with pytest.raises(DataFormatError, match="line 7"):
            parse_bitext_line("no separator here", 7)

    def test_load_bitext_builds_consistent_ids(self):
        bt = load_bitext(["das haus ||| the house", "das buch ||| the book"])
        assert len(bt) == 2
        first, second = bt.pairs
        assert first.source_ids[0] == second.source_ids[0]  # "das"
        assert first.target_ids[0] == second.target_ids[0]  # "the"

    def test_load_bitext_skips_pairs_with_an_empty_side(self, caplog):
        bt = load_bitext(["a ||| b", " ||| b", "a ||| "])
        assert len(bt) == 1

    def test_swap_trades_sides(self):
        fwd = load_bitext(["a b ||| x"])
        rev = load_bitext(["a b ||| x"], swap=True)
        assert fwd.pairs[0].m == 2 and fwd.pairs[0].n == 1
        assert rev.pairs[0].m == 1 and rev.pairs[0].n == 2

    def test_explicit_vocabularies_are_respected(self):
        base = load_bitext(["a b ||| x y"])
        bt = load_bitext(
            ["b c ||| y z"],
            source_vocab=base.source_vocab,
            target_vocab=base.target_vocab,
        )
        assert bt.pairs[0].source_ids[1] == UNK_ID  # "c" unseen
        assert bt.pairs[0].source_ids[0] == base.source_vocab.id("b")

    def test_write_bitext_line_round_trips(self):
        buf = io.StringIO()
        write_bitext_line(buf, ["a", "b"], ["x"])
        assert buf.getvalue() == f"a b{SEPARATOR}x\n"
        src, tgt = parse_bitext_line(buf.getvalue().rstrip("\n"), 1)
        assert (tokenize(src), tokenize(tgt)) == (["a", "b"], ["x"])


class TestSentencePair:
    def test_empty_side_is_rejected(self):
        with pytest.raises(DegeneratePairError):
            SentencePair(source_ids=(), target_ids=(1,))
        with pytest.raises(DegeneratePairError):
            SentencePair(source_ids=(1,), target_ids=())

    def test_dimensions(self):
        pair = SentencePair(source_ids=(1, 2, 3), target_ids=(4, 5))
        assert pair.m == 3
        assert pair.n == 2
