"""Word alignment toolkit: lexical translation models (uniform, diagonal
prior, first-order), symmetrization heuristics, alignment-error-rate
evaluation, consistent phrase extraction, and annotation projection."""

import importlib

__version__ = "0.1.0"

# Each public name's module, imported on the name's first use, so that
# `import alignkit` loads no submodule and a command loads only its own.
_LAZY = {
    name: module
    for module, names in {
        "alignment": "AlignmentFunction AlignmentSet grow_diag_final intersect symmetrize "
        "to_set transpose union",
        "corpus": "Bitext SentencePair Vocabulary load_bitext",
        "errors": "AlignkitError ConfigError DataFormatError DegeneratePairError "
        "DimensionMismatchError NumericError",
        "evaluation": "EvalReport aer evaluate_corpus parse_gold",
        "hmm": "HmmConfig HmmParams",
        "model1": "Model1Config",
        "model2": "DiagonalPrior Model2Config Model2Params",
        "phrases": "PhrasePair build_phrase_table extract_consistent_phrases",
        "projection": "Span project_spans project_token_labels",
        "synth": "SynthConfig generate",
        "ttable": "TranslationTable",
    }.items()
    for name in names.split()
}
__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
