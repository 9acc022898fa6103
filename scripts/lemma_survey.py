#!/usr/bin/env python3
"""Stress the diagonal-walk lemma over upper triangular matrices.

For each requested ring and matrix size, enumerate (or sample) upper
triangular matrices, decide the zero-coordinate property exhaustively,
run the walk, and tally agreement.  Any lemma violation is printed in
full; the summary table is written as JSON.

    python3 scripts/lemma_survey.py --rings Zmod:4 Zmod:6 --sizes 1 2 3
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from absorbing_ideals.cli import render_json  # noqa: E402
from absorbing_ideals.corpus import (  # noqa: E402
    DEFAULT_FEASIBILITY,
    DEFAULT_SAMPLE_SIZE,
    zero_diagonal_survey,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rings",
        nargs="+",
        default=["Zmod:4", "Zmod:6"],
        help="ring specs to survey (default: Zmod:4 Zmod:6)",
    )
    parser.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        default=[1, 2, 3],
        help="matrix sizes m to survey (default: 1 2 3)",
    )
    parser.add_argument(
        "--feasibility",
        type=int,
        default=DEFAULT_FEASIBILITY,
        help="largest |R|^(m(m+1)/2) still enumerated exhaustively",
    )
    parser.add_argument(
        "--sample-size",
        type=int,
        default=DEFAULT_SAMPLE_SIZE,
        help="matrices drawn when over the exhaustive gate",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        surveys = [
            zero_diagonal_survey(
                spec,
                m,
                feasibility=args.feasibility,
                sample_size=args.sample_size,
                seed=args.seed,
            )
            for spec in args.rings
            for m in args.sizes
        ]
    except ValueError as exc:  # a bad ring spec, size or sample size
        parser.error(str(exc))
    violations = sum(len(s["lemma_violations"]) for s in surveys)
    report = {"surveys": surveys, "violations": violations, "ok": violations == 0}
    text = render_json(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
