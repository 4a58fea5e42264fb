"""The package's records against the dataclasses they replace
(oracles.DataclassRecords): the same validation errors, type and message,
and the same equality, hash, order and repr, built from the same
arguments. The records without checks are NamedTuples, which also equal
a plain tuple of their fields and order as one."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alignkit.alignment import AlignmentFunction, AlignmentSet
from alignkit.corpus import Bitext, SentencePair, Vocabulary
from alignkit.evaluation import EvalReport, GoldAlignment, LinkCounts
from alignkit.phrases import PhrasePair
from alignkit.projection import LabeledSentence, Span
from alignkit.synth import SynthConfig, SynthRecord

small = st.integers(-1, 4)
ids = st.tuples() | st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
words = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
int_lists = st.lists(st.integers(0, 3), max_size=2)
int_dicts = st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2)


def call(*args, **kwargs):
    """A constructor call: the positional arguments, and keyword ones
    drawn from kwargs, each present or left to its default."""
    kw = st.fixed_dictionaries({}, optional=kwargs)
    return st.tuples(st.tuples(*args), kw)


CALLS = {
    AlignmentSet: call(st.frozensets(st.tuples(small, small), max_size=3), small, small),
    AlignmentFunction: call(st.lists(st.none() | small, max_size=3).map(tuple), small),
    Vocabulary: call(
        token_to_id=st.dictionaries(st.sampled_from("ab"), st.integers(1, 2), max_size=2),
        id_to_token=st.lists(st.sampled_from("ab"), max_size=2),
        frequency=int_dicts,
    ),
    SentencePair: call(ids, ids),
    Bitext: call(
        int_lists,
        source_vocab=st.none() | st.just("v"),
        target_vocab=st.none() | st.just("v"),
        line_numbers=int_lists,
    ),
    LinkCounts: call(small, small, small, small),
    GoldAlignment: call(sentences=int_dicts),
    EvalReport: call(small, small, small, small, int_dicts, int_lists, int_lists),
    PhrasePair: call(small, small, small, small),
    LabeledSentence: call(words, words),
    Span: call(small, small, st.sampled_from(["LOC", "PER"])),
    SynthConfig: call(
        st.integers(0, 2),
        vocab_size=st.sampled_from([0, 1, 500, 2**63, 2**63 + 1]),
        min_len=st.integers(0, 3),
        max_len=st.sampled_from([0, 2, 12, 2**20, 2**20 + 1]),
        swap_rate=st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5]),
        insert_rate=st.sampled_from([-0.5, 0.0, 1.0, 1.5]),
        seed=st.integers(-1, 1),
    ),
    SynthRecord: call(words, words, st.sampled_from([None, "gold"])),
}


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def error_type(fn, *args):
    try:
        return fn(*args)
    except TypeError:
        return TypeError


def fields(record) -> str:
    """The repr less the class name."""
    return repr(record).partition("(")[2]


@pytest.mark.parametrize("cls", CALLS, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_records_agree_with_their_dataclasses(cls, data):
    ref = oracles.REFERENCE_RECORDS[cls.__name__]
    calls = data.draw(st.lists(CALLS[cls], min_size=2, max_size=4))
    ours = [outcome(cls, *args, **kwargs) for args, kwargs in calls]
    theirs = [outcome(ref, *args, **kwargs) for args, kwargs in calls]
    for a, b in zip(ours, theirs):
        if isinstance(b, tuple) and isinstance(b[0], type):  # construction failed
            assert a == b
        else:
            assert fields(a) == fields(b)
            assert error_type(hash, a) == error_type(hash, b)
    built = [(a, b) for a, b in zip(ours, theirs) if isinstance(b, ref)]
    for (a1, b1) in built:
        for (a2, b2) in built:
            assert (a1 == a2) == (b1 == b2)
            assert (a1 != a2) == (b1 != b2)
            for compare in (lambda x, y: x < y, lambda x, y: x <= y,
                            lambda x, y: x > y, lambda x, y: x >= y):
                expected = error_type(compare, b1, b2)
                # A NamedTuple record orders as a tuple where its dataclass
                # had no order.
                if expected is not TypeError or not issubclass(cls, tuple):
                    assert error_type(compare, a1, a2) == expected


@pytest.mark.parametrize("record", [
    AlignmentSet({(0, 1)}, 1, 2), AlignmentFunction((None, 0), 1), Vocabulary({"x": 1}, ["<unk>", "x"]),
    SentencePair((1,), (2, 3)), Bitext([SentencePair((1,), (2,))], line_numbers=[1]),
    LinkCounts(1, 2, 1, 1), GoldAlignment({1: (frozenset(), frozenset())}),
    EvalReport(1, 2, 1, 1, {1: LinkCounts(1, 2, 1, 1)}, [3], []),
    PhrasePair(0, 1, 0, 0),
    LabeledSentence(("a",), ("O",)), Span(0, 1, "PER"), SynthConfig(3, seed=2),
    SynthRecord(("s1",), ("t1",), AlignmentSet({(0, 0)}, 1, 1)),
], ids=lambda record: type(record).__name__)
def test_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
