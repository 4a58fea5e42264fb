#!/usr/bin/env python3
"""Train all three aligners on a synthetic corpus and report AER.

Generates a noisy one-to-one corpus with known gold links, trains each
model in both translation directions, combines the two directions with
the chosen heuristic, and prints one evaluation row per model.

Example:
    python3 scripts/run_synthetic_e2e.py --pairs 10000 --swap-rate 0.1
"""

import argparse
import sys
import time

from alignkit import hmm, model1, model2
from alignkit.alignment import HEURISTICS, symmetrize, to_set, transpose
from alignkit.corpus import load_bitext
from alignkit.evaluation import GoldAlignment, evaluate_corpus
from alignkit.synth import SynthConfig, generate


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10_000)
    parser.add_argument("--vocab-size", type=int, default=500)
    parser.add_argument("--min-len", type=int, default=3)
    parser.add_argument("--max-len", type=int, default=12)
    parser.add_argument("--swap-rate", type=float, default=0.1)
    parser.add_argument("--insert-rate", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=10,
                        help="EM iterations for the lexical models")
    parser.add_argument("--hmm-iterations", type=int, default=5)
    parser.add_argument("--hmm-init-iterations", type=int, default=5,
                        help="lexical warm-up iterations inside HMM training")
    parser.add_argument("--heuristic", default="intersect", choices=HEURISTICS)
    parser.add_argument("--jobs", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)

    records = generate(SynthConfig(
        pairs=args.pairs, vocab_size=args.vocab_size, min_len=args.min_len,
        max_len=args.max_len, swap_rate=args.swap_rate,
        insert_rate=args.insert_rate, seed=args.seed,
    ))
    lines = [
        " ".join(r.source_tokens) + " ||| " + " ".join(r.target_tokens)
        for r in records
    ]
    fwd_bt = load_bitext(lines)
    rev_bt = load_bitext(lines, swap=True)
    gold = GoldAlignment(
        {k + 1: (r.gold.links, r.gold.links) for k, r in enumerate(records)}
    )
    print(f"corpus: {args.pairs} pairs, vocab {args.vocab_size}, "
          f"swap {args.swap_rate}, insert {args.insert_rate}, seed {args.seed}")
    print(f"combination: {args.heuristic}")
    print()

    def run(name, train, align_corpus):
        start = time.perf_counter()
        fwd_model = train(fwd_bt)
        rev_model = train(rev_bt)
        trained = time.perf_counter() - start
        hyps = [
            symmetrize(to_set(fwd), transpose(to_set(rev)), args.heuristic)
            for fwd, rev in zip(align_corpus(fwd_bt, fwd_model),
                                align_corpus(rev_bt, rev_model))
        ]
        report = evaluate_corpus(hyps, gold)
        print(f"{name:<8} AER {report.aer:.4f}  P {report.precision:.4f}  "
              f"R {report.recall:.4f}  F1 {report.f1:.4f}  "
              f"train {trained:.1f}s")

    run(
        "model1",
        lambda bt: model1.train(
            bt, model1.Model1Config(iterations=args.iterations), jobs=args.jobs
        )[0],
        model1.align_corpus,
    )
    run(
        "model2",
        lambda bt: model2.train(
            bt, model2.Model2Config(iterations=args.iterations), jobs=args.jobs
        )[0],
        model2.align_corpus,
    )
    run(
        "hmm",
        lambda bt: hmm.train(
            bt,
            hmm.HmmConfig(iterations=args.hmm_iterations,
                          model1_iterations=args.hmm_init_iterations),
            jobs=args.jobs,
        )[0],
        hmm.align_corpus,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
