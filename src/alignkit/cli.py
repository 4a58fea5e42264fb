"""Batch command-line interface for the alignment pipeline.

Subcommands compose through files, or through stdin and stdout given as
`-`: synth | train | align | symmetrize | eval | extract-phrases |
project. At most one input file of a command may be stdin. Every run is
a pure function of its flags, input files, and seed; repeated runs are
bitwise identical, whatever --jobs is.

Exit codes: 0 success, 1 usage or configuration error, 2 data/format
error or a train or align run out of memory, 3 numeric failure.

Options may also come from a flat `key=value` config file (one pair per
line, `#` comments); explicit flags take precedence and environment
variables are never consulted.

A command process (`python -m alignkit.cli`, or the `alignkit` script)
enters through run(), which runs main() with the cyclic garbage collector
off and then ends the process without interpreter teardown. The process
ends as soon as its command returns, so a collection during the command
and the freeing of every object it built would both be wasted work: the
objects a command builds hold no cycles that grow with its input. main()
itself leaves the collector alone, so library callers and tests keep
ordinary interpreter behaviour.

A command imports only the modules it runs. symmetrize, eval,
extract-phrases, project and synth load neither numpy nor dataclasses
(which brings inspect, ast and dis) nor logging, and every command loads
logging only when it warns: errors.warn imports it, and the first warning
of a command run sets up the `WARNING: message` lines on stderr. On a
2-vCPU VM, each of these five runs 14-20 ms faster on a tiny input than
with dataclasses and logging, about 70 ms in all. What remains of
alignkit's own start-up is about 6 ms to compile this module and about
7 ms for argparse, its parser build and locale.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import stat
import sys
from contextlib import contextmanager, suppress
from functools import partial
from typing import IO

# Each command imports the other modules it runs, so that it loads only
# its own: the post stages and synth start without numpy, and no command
# pays for a model it does not run.
from . import errors
from .alignment import (
    HEURISTICS,
    AlignmentSet,
    format_function_line,
    format_pharaoh_line,
    harmonize_dims,
    read_pharaoh,
    symmetrize,
    to_set,  # not called here, but perfbench/tracing.py hooks the name
    transpose,
)
from .errors import AlignkitError, ConfigError, DataFormatError, warn


def _deferred(module: str, name: str):
    """alignkit.MODULE.NAME as a function of this module that imports
    MODULE on its first call. perfbench/tracing.py times these layers by
    replacing the names below on this module."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


load_bitext = _deferred("corpus", "load_bitext")
read_ttable = _deferred("ttable", "read_ttable")
evaluate_corpus = _deferred("evaluation", "evaluate_corpus")
parse_gold = _deferred("evaluation", "parse_gold")
write_report_tsv = _deferred("evaluation", "write_report_tsv")
build_phrase_table = _deferred("phrases", "build_phrase_table")
write_phrase_table = _deferred("phrases", "write_phrase_table")

# The trailer kind of a model file -> the module whose model_from reads it
# (model2.DIAG_TRAILER, hmm.HMM_TRAILER). A file without a trailer holds a
# lexical model, which model1 decodes.
TRAILER_MODULES = {"diag": "model2", "hmm": "hmm"}

# The dests of the flags that name an input file, in the order a second
# stdin input's error names them.
INPUT_FLAGS = ("config", "model_file", "bitext", "source_vocab", "target_vocab", "alignments",
               "annotations", "forward", "backward", "hypothesis", "gold")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit code 2 by default; this tool
    reserves 2 for data errors, so usage errors exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _open_in(path: str, binary: bool = False):
    """The UTF-8 text file at path, or stdin for "-"; bytes that do not
    decode are a data error naming the path. A binary file is decoded by
    its reader, whose UnicodeDecodeError is mapped the same way."""
    try:
        if path == "-":
            yield sys.stdin.buffer if binary else sys.stdin
        else:
            with open(path, "rb") if binary else open(path, encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"input is not UTF-8: {path}: {exc}") from None


def _create(path: str, binary: bool = False) -> IO:
    """path opened for writing, in binary or as UTF-8 text, as a new file
    when it names a regular file with one link: that file is unlinked
    first, and its permission bits carry over. On ext4, truncating a file
    that was itself written by truncation waits for its data to be
    flushed; unlinking it does not. A symlink, a hard-linked file or a
    device is opened in place, and so is a file whose directory refuses
    the unlink."""
    try:
        st = os.lstat(path)
        fresh = stat.S_ISREG(st.st_mode) and st.st_nlink == 1
        if fresh:
            os.unlink(path)
    except OSError:
        fresh = False
    how = {"mode": "wb"} if binary else {"mode": "w", "encoding": "utf-8"}
    if not fresh:
        return open(path, **how)
    # Created with the old bits less the umask's, so it is never open to
    # more users than the old file was, then given the old bits in full.
    mode = stat.S_IMODE(st.st_mode)
    fh = open(path, **how, opener=partial(os.open, mode=mode))
    with suppress(OSError):  # a file system without permission bits
        os.fchmod(fh.fileno(), mode)
    return fh


@contextmanager
def _open_out(path: str, binary: bool = False):
    """The file at path for writing, or stdout for "-"; binary stdout is
    its buffer, which gets the bytes only after the text layer's."""
    if path == "-":
        out = sys.stdout
        if binary:
            out.flush()  # what the text layer holds goes out first
            out = out.buffer
        yield out
        out.flush()
    else:
        with _create(path, binary) as fh:
            yield fh


def _read_lines(path: str) -> list[str]:
    with _open_in(path) as fh:
        return fh.read().splitlines()


def _check_count(path: str, count: int, partner: str, expected: int) -> None:
    """Raise unless the file at path has as many records as its partner."""
    if count != expected:
        raise DataFormatError(
            f"record {min(count, expected) + 1}: {path} has {count} lines "
            f"but {partner} has {expected}"
        )


def _read_alignments(
    path: str,
    partner: tuple[str, int] | None = None,
    sizes: list[tuple[int, int]] | None = None,
) -> list[AlignmentSet]:
    """Every alignment in the Pharaoh file at path. partner, a (file,
    record count) pair, is a file it must match line for line, and sizes
    holds each line's (m, n). Errors name the path."""
    lines = _read_lines(path)
    if partner is not None:
        _check_count(path, len(lines), *partner)
    try:
        return read_pharaoh(lines, sizes)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _default_jobs() -> int:
    return os.cpu_count() or 1


# --------------------------------------------------------------------------
# train


def _resolve_use_null(args) -> bool:
    if args.model == "model2" and args.use_null is not None:
        raise ConfigError(
            "the diagonal model routes NULL mass through --p0; "
            "set --p0 0 to disable the empty word"
        )
    return True if args.use_null is None else args.use_null


def _out_of_memory(bitext) -> DataFormatError:
    """For a run on bitext that ran out of memory: the error naming its pair
    with the most cells, m·(n + 1), which a model's arrays grow with."""
    cells, lineno = max(zip((p.m * (p.n + 1) for p in bitext), bitext.line_numbers))
    return DataFormatError(f"bitext line {lineno}: out of memory; its pair has {cells:,} cells")


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    with _open_in(args.bitext) as fh:
        bitext = load_bitext(
            fh, max_vocab=args.max_vocab, lowercase=args.lowercase, swap=args.reverse
        )
    if len(bitext) == 0:
        raise DataFormatError(f"no usable sentence pairs in {args.bitext}")
    use_null = _resolve_use_null(args)
    p0 = {} if args.p0 is None else {"p0": args.p0}  # else the config's default
    log_to = None if args.quiet else sys.stderr
    model = importlib.import_module(f".{args.model}", __package__)
    if args.model == "model1":
        config = model.Model1Config(iterations=args.iters, use_null=use_null)
    elif args.model == "model2":
        config = model.Model2Config(iterations=args.iters, lam=args.lam, **p0)
    else:
        config = model.HmmConfig(
            iterations=args.iters,
            model1_iterations=args.init_iters,
            w=args.w,
            use_null=use_null,
            **p0,
        )
    try:
        params, _ = model.train(bitext, config, jobs=args.jobs, log_to=log_to)
    except MemoryError:
        raise _out_of_memory(bitext) from None
    # The saved table leaves out the entries that decode like missing ones.
    if args.model == "model1":  # Model 1's parameters are its table
        params = params.pruned()
    else:
        from dataclasses import replace

        params = replace(params, table=params.table.pruned())
    with _open_out(args.output, binary=True) as out:
        model.save_model(out, params)
    # A model written to stdout or a device such as /dev/null has no
    # directory entry of its own for align to find sidecars next to.
    if args.output != "-" and os.path.isfile(args.output):
        with _open_out(args.output + ".source-vocab") as fh:
            bitext.source_vocab.save(fh)
        with _open_out(args.output + ".target-vocab") as fh:
            bitext.target_vocab.save(fh)
    return 0


# --------------------------------------------------------------------------
# align


def _load_any_model(path: str):
    """The corpus decoder of the model file at path, Bitext -> alignments.
    Errors name the path."""
    from .ttable import ROW_SUM_TOL

    with _open_in(path, binary=True) as fh:  # a v2 or v1 file that is not UTF-8 fails here
        try:
            table, trailer, line_numbers = read_ttable(fh.read())
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    try:
        e, total = table.worst_row()
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise DataFormatError(f"the probabilities of target id {e} sum to {total!r}, not 1")
        if not trailer:
            from . import model1

            return lambda bitext: model1.align_corpus(bitext, table)
        kind = trailer[0].split("\t", 1)[0]
        if kind not in TRAILER_MODULES:
            raise DataFormatError(f"unrecognized model trailer {kind!r}")
        model = importlib.import_module(f".{TRAILER_MODULES[kind]}", __package__)
        params = model.model_from(table, trailer, line_numbers)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return lambda bitext: model.align_corpus(bitext, params)


def _load_vocab(explicit: str | None, default_path: str):
    from .corpus import Vocabulary

    path = explicit or default_path
    try:
        lines = _read_lines(path)
    except FileNotFoundError:
        raise DataFormatError(
            f"vocabulary file {path} not found; train writes it next to the "
            f"model, or pass --source-vocab/--target-vocab"
        ) from None
    try:
        return Vocabulary.load(lines)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def cmd_align(args) -> int:
    from .corpus import UNK_ID, UNK_TOKEN

    decode = _load_any_model(args.model_file)
    source_vocab = _load_vocab(args.source_vocab, args.model_file + ".source-vocab")
    target_vocab = _load_vocab(args.target_vocab, args.model_file + ".target-vocab")

    with _open_in(args.bitext) as src:
        lines = list(src)
    bitext = load_bitext(
        lines, source_vocab, target_vocab, lowercase=args.lowercase, swap=args.reverse
    )
    try:
        aligned = decode(bitext)
    except MemoryError:
        raise _out_of_memory(bitext) from None
    links = [""] * len(lines)  # a line with an empty side stays blank
    for lineno, alignment in zip(bitext.line_numbers, aligned):
        links[lineno - 1] = format_function_line(alignment)
    with _open_out(args.output) as out:
        out.writelines(line + "\n" for line in links)
    unknown = sum(p.source_ids.count(UNK_ID) + p.target_ids.count(UNK_ID) for p in bitext)
    empty = len(lines) - len(bitext)
    if unknown:
        warn(__name__, "%d tokens were out of vocabulary and treated as %s", unknown, UNK_TOKEN)
    if empty:
        warn(__name__, "%d pairs had an empty side and were left unaligned", empty)
    return 0


# --------------------------------------------------------------------------
# symmetrize / eval / extract-phrases / project / synth


def cmd_symmetrize(args) -> int:
    forward = _read_alignments(args.forward)
    backward = _read_alignments(args.backward, (args.forward, len(forward)))
    with _open_out(args.output) as out:
        for fwd, rev in zip(forward, backward):
            fwd, rev = harmonize_dims(fwd, transpose(rev))
            out.write(format_pharaoh_line(symmetrize(fwd, rev, args.heuristic)) + "\n")
    return 0


def cmd_eval(args) -> int:
    from .evaluation import format_report

    hypotheses = _read_alignments(args.hypothesis)
    with _open_in(args.gold) as fh:
        gold = parse_gold(fh)
    report = evaluate_corpus(hypotheses, gold)
    with _open_out(args.output) as out:
        if args.tsv:
            write_report_tsv(report, out)
        else:
            out.write(format_report(report))
    if report.skipped_hypotheses:
        warn(
            __name__,
            "%d hypothesis sentences had no gold annotation and were skipped",
            len(report.skipped_hypotheses),
        )
    if report.missing_hypotheses:
        warn(
            __name__,
            "%d gold sentences had no hypothesis line and were not scored",
            len(report.missing_hypotheses),
        )
    return 0


def _read_records(args) -> tuple[list[tuple[list[str], list[str]]], list[AlignmentSet]]:
    """The token pairs of every --bitext line, empty sides included, and
    the --alignments lines, which must match them line for line."""
    from .corpus import iter_token_pairs

    with _open_in(args.bitext) as fh:
        records = [(src, tgt) for _, src, tgt in iter_token_pairs(fh)]
    alignments = _read_alignments(
        args.alignments, (args.bitext, len(records)), [(len(s), len(t)) for s, t in records]
    )
    return records, alignments


def cmd_extract_phrases(args) -> int:
    if args.max_len < 1:
        raise ConfigError(f"--max-len must be >= 1, got {args.max_len}")
    records, alignments = _read_records(args)
    table = build_phrase_table(
        ((src, tgt, a) for (src, tgt), a in zip(records, alignments)),
        max_len=args.max_len,
    )
    with _open_out(args.output) as out:
        write_phrase_table(table, out)
    return 0


def cmd_project(args) -> int:
    from . import projection

    records, alignments = _read_records(args)
    if args.layer == "tokens":
        with _open_in(args.annotations) as fh:
            annotated = projection.read_labeled(fh)
        _check_count(args.annotations, len(annotated), args.bitext, len(records))
        projected = projection.project_corpus(annotated, alignments)
        with _open_out(args.output) as out:
            for (_, tgt_tokens), tags in zip(records, projected):
                out.write(projection.format_labeled_line(tgt_tokens, tags) + "\n")
    else:
        with _open_in(args.annotations) as fh:
            by_sid = projection.parse_span_file(fh)
        bad = [sid for sid in by_sid if sid > len(records)]
        if bad:
            raise DataFormatError(
                f"span sentence id {min(bad)} exceeds the {len(records)} "
                f"records in {args.bitext}"
            )
        span_lists = [by_sid.get(sid, []) for sid in range(1, len(records) + 1)]
        projected = projection.project_corpus_spans(span_lists, alignments)
        with _open_out(args.output) as out:
            projection.write_span_file(
                {sid: spans for sid, spans in enumerate(projected, start=1) if spans},
                out,
            )
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file, whether it exists or not."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


def cmd_synth(args) -> int:
    from .corpus import write_bitext_line
    from .synth import SynthConfig, gold_wpt_lines, iter_records

    paths = (args.output_bitext, args.output_gold)
    if paths == ("-", "-"):
        raise ConfigError("only one of --output-bitext/--output-gold may be stdout")
    # Opening the second would unlink the file the first just created, or
    # truncate it when the two are hard links.
    if "-" not in paths and _same_file(*paths):
        raise ConfigError(f"--output-bitext and --output-gold name one file: {paths[1]}")

    config = SynthConfig(
        pairs=args.pairs,
        vocab_size=args.vocab_size,
        min_len=args.min_len,
        max_len=args.max_len,
        swap_rate=args.swap_rate,
        insert_rate=args.insert_rate,
        seed=args.seed,
    )
    # One pass over the records, so that the corpus is never held whole.
    wpt = args.gold_format == "wpt"
    with _open_out(args.output_bitext) as out, _open_out(args.output_gold) as gold_out:
        for sid, record in enumerate(iter_records(config), start=1):
            write_bitext_line(out, record.source_tokens, record.target_tokens)
            gold_out.write(
                gold_wpt_lines(sid, record.gold) if wpt else format_pharaoh_line(record.gold) + "\n"
            )
    return 0


# --------------------------------------------------------------------------
# parser construction and config files


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The parser, and the subparser of each command by name."""
    parser = _Parser(prog="alignkit", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def sub(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument(
            "--config",
            metavar="FILE",
            help="flat key=value file supplying defaults for this subcommand "
            "(explicit flags win)",
        )
        return p

    p = sub("train", cmd_train, help="estimate an alignment model from a bitext")
    p.add_argument("--model", choices=("model1", "model2", "hmm"), default="model1")
    p.add_argument("--bitext", required=True, help="`source ||| target` lines, or -")
    p.add_argument(
        "--output",
        required=True,
        help="model file to write; when it is a regular file, the vocabularies "
        "go next to it as OUTPUT.source-vocab and OUTPUT.target-vocab",
    )
    p.add_argument("--iters", type=int, default=5, help="EM iterations (default 5)")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--use-null",
        dest="use_null",
        action="store_true",
        default=None,
        help="include the empty word (default for model1/hmm)",
    )
    group.add_argument(
        "--no-null", dest="use_null", action="store_false", help="drop the empty word"
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=4.0,
        help="diagonal sharpness for model2 (default 4.0)",
    )
    p.add_argument(
        "--p0",
        type=float,
        default=None,
        help="empty-word mass (default: 0.08 for model2, 0.2 for hmm)",
    )
    p.add_argument(
        "--w", type=int, default=5, help="hmm jump window half-width (default 5)"
    )
    p.add_argument(
        "--init-iters",
        type=int,
        default=5,
        help="lexical warm-up iterations before hmm training (default 5)",
    )
    p.add_argument("--max-vocab", type=int, default=None, help="cap vocabulary size")
    p.add_argument("--lowercase", action="store_true", help="lowercase all tokens")
    p.add_argument(
        "--reverse",
        action="store_true",
        help="swap the bitext fields to train the reverse direction",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs(),
        help="EM threads; results do not depend on it (default: all cores)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-iteration log-likelihoods"
    )

    p = sub("align", cmd_align, help="decode alignments for a bitext with a model")
    p.add_argument("--model-file", required=True, help="file written by train")
    p.add_argument("--bitext", required=True, help="`source ||| target` lines, or -")
    p.add_argument("--output", default="-", help="Pharaoh lines (default stdout)")
    for side in ("source", "target"):
        p.add_argument(f"--{side}-vocab", help=f"vocabulary (default: MODEL_FILE.{side}-vocab)")
    p.add_argument("--lowercase", action="store_true", help="lowercase all tokens")
    p.add_argument(
        "--reverse",
        action="store_true",
        help="swap the bitext fields (for models trained with --reverse)",
    )

    p = sub(
        "symmetrize",
        cmd_symmetrize,
        help="combine forward and reverse alignments",
        description="The reverse file is expected in reverse orientation "
        "(as produced by align --reverse) and is transposed before combining.",
    )
    p.add_argument("--forward", required=True, help="forward Pharaoh lines, or -")
    p.add_argument(
        "--backward",
        "--reverse-file",
        dest="backward",
        required=True,
        help="reverse-direction Pharaoh lines, or -",
    )
    p.add_argument("--heuristic", choices=HEURISTICS, default="grow-diag-final")
    p.add_argument("--output", default="-", help="Pharaoh lines (default stdout)")

    p = sub("eval", cmd_eval, help="score hypothesis alignments against gold links")
    p.add_argument("--hypothesis", required=True, help="Pharaoh lines")
    p.add_argument("--gold", required=True, help="`sid src tgt [S|P]` lines, 1-based")
    p.add_argument("--tsv", action="store_true", help="machine-readable report")
    p.add_argument("--output", default="-", help="report destination (default stdout)")

    p = sub(
        "extract-phrases",
        cmd_extract_phrases,
        help="extract consistent phrase pairs into a phrase table",
    )
    p.add_argument("--bitext", required=True)
    p.add_argument("--alignments", required=True, help="Pharaoh lines, one per pair")
    p.add_argument("--output", default="-")
    p.add_argument(
        "--max-len", type=int, default=7, help="longest phrase side (default 7)"
    )

    p = sub(
        "project",
        cmd_project,
        help="carry source-side annotations over alignments to the target side",
    )
    p.add_argument("--bitext", required=True)
    p.add_argument("--alignments", required=True, help="Pharaoh lines, one per pair")
    p.add_argument(
        "--annotations",
        required=True,
        help="token/TAG lines (tokens layer) or span TSV (spans layer)",
    )
    p.add_argument("--layer", choices=("tokens", "spans"), default="tokens")
    p.add_argument("--output", default="-")

    p = sub("synth", cmd_synth, help="generate a synthetic bitext with gold links")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--vocab-size", type=int, default=500)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--swap-rate", type=float, default=0.0)
    p.add_argument("--insert-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-bitext", required=True)
    p.add_argument("--output-gold", required=True)
    p.add_argument("--gold-format", choices=("wpt", "pharaoh"), default="wpt")

    return parser, subs.choices


def _coerce(action: argparse.Action, value: str, where: str):
    if action.nargs == 0:  # a store_true / store_false flag
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return action.const
        if lowered in ("0", "false", "no", "off"):
            return not action.const
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    try:
        coerced = action.type(value) if action.type else value
    except ValueError:
        raise ConfigError(f"{where}: bad value {value!r} for {action.dest}") from None
    if action.choices and coerced not in action.choices:
        raise ConfigError(
            f"{where}: {coerced!r} is not one of {', '.join(map(str, action.choices))}"
        )
    return coerced


def _load_config_file(path: str, sub: argparse.ArgumentParser) -> dict:
    actions: dict[str, argparse.Action] = {}
    for action in sub._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        actions.setdefault(action.dest, action)
        for opt in action.option_strings:
            actions.setdefault(opt.lstrip("-").replace("-", "_"), action)
    overrides = {}
    try:
        lines = _read_lines(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        action = actions[key]
        overrides[action.dest] = _coerce(action, value.strip(), f"{path}:{lineno}")
    return overrides


def main(argv: list[str] | None = None) -> int:
    errors.command_run = True
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            sub = commands[args.command]
            sub.set_defaults(**_load_config_file(args.config, sub))
            args = parser.parse_args(argv)
        stdin = [dest for dest in INPUT_FLAGS if vars(args).get(dest) == "-"]
        if len(stdin) > 1:
            flags = "/".join("--" + dest.replace("_", "-") for dest in stdin[:2])
            raise ConfigError(f"only one of {flags} may be stdin")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except AlignkitError as exc:
        print(f"alignkit: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"alignkit: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: main() with the cyclic GC off, then the
    final flushes and os._exit, which skips interpreter teardown. A flush
    that fails exits as main maps the error: 0 for a broken pipe, else 2
    with the error on stderr. An exception escaping main takes the normal
    interpreter path."""
    gc.disable()
    code = main()
    if "logging" in sys.modules:  # a run that never warns leaves it unloaded
        sys.modules["logging"].shutdown()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 0
    except OSError as exc:
        print(f"alignkit: error: {exc}", file=sys.stderr, flush=True)
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
