"""Word alignment toolkit: lexical translation models (uniform, diagonal
prior, first-order), symmetrization heuristics, alignment-error-rate
evaluation, consistent phrase extraction, and annotation projection."""

import importlib

from .alignment import (
    AlignmentFunction,
    AlignmentSet,
    grow_diag_final,
    intersect,
    symmetrize,
    to_set,
    transpose,
    union,
)
from .corpus import Bitext, SentencePair, Vocabulary, load_bitext
from .errors import (
    AlignkitError,
    ConfigError,
    DataFormatError,
    DegeneratePairError,
    DimensionMismatchError,
    NumericError,
)
from .evaluation import EvalReport, aer, evaluate_corpus, parse_gold, precision_recall
from .phrases import PhrasePair, build_phrase_table, extract_consistent_phrases
from .projection import Span, project_spans, project_token_labels

__version__ = "0.1.0"

# Names from the modules that import numpy, resolved on use so that the
# post stages, which import the package, never load numpy.
_LAZY = {
    "HmmConfig": "hmm",
    "HmmParams": "hmm",
    "Model1Config": "model1",
    "DiagonalPrior": "model2",
    "Model2Config": "model2",
    "Model2Params": "model2",
    "SynthConfig": "synth",
    "generate": "synth",
    "TranslationTable": "ttable",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "AlignmentFunction",
    "AlignmentSet",
    "AlignkitError",
    "Bitext",
    "ConfigError",
    "DataFormatError",
    "DegeneratePairError",
    "DiagonalPrior",
    "DimensionMismatchError",
    "EvalReport",
    "HmmConfig",
    "HmmParams",
    "Model1Config",
    "Model2Config",
    "Model2Params",
    "NumericError",
    "PhrasePair",
    "SentencePair",
    "Span",
    "SynthConfig",
    "TranslationTable",
    "Vocabulary",
    "aer",
    "build_phrase_table",
    "evaluate_corpus",
    "extract_consistent_phrases",
    "generate",
    "grow_diag_final",
    "intersect",
    "load_bitext",
    "parse_gold",
    "precision_recall",
    "project_spans",
    "project_token_labels",
    "symmetrize",
    "to_set",
    "transpose",
    "union",
]
