#!/usr/bin/env python3
"""Compare two outputs of ``scripts/restart_sweep.py`` row by row.

For each model it prints how many rows moved (any field differs), the
largest relative gap in G2 (in the Wald statistics for ``decompose`` rows,
in the per-table G2 values for ``fit_block`` rows), every changed count
(iterations, df, the power study's rejections, failures and fallbacks, and
a block's rows handed over, a count stack's ``counts_sha1``) and every
changed ``error``, ``oracle_error`` or ``certificate`` field.  Rows are
matched on seed, shape, n, concentration and model; a row found in one file
only is listed too.  It also reads the output of ``scripts/fingerprints.py``,
such as its committed baseline ``scripts/fingerprints.jsonl``.

``--model REGEX`` compares only the rows whose model matches REGEX in full
(``re.fullmatch``), so that one file pair can be checked under two modes,
e.g. every row but the ve and ce fits bit for bit and those to a tolerance:

    python scripts/sweep_diff.py --exact --model '(?!(ve|ce)$).*' A.jsonl B.jsonl
    python scripts/sweep_diff.py --rtol 1e-9 --model 've|ce' A.jsonl B.jsonl

Exits 1 when B has an error, a failed certificate or more power-study
failures than A has, else 0.  Two stricter modes:

* ``--exact``: exits 1 when any row moved or is found in one file only;
* ``--rtol R``: exits 1 when any G2 or Wald value moved by more than R
  relative, any count, count stack or flagged field changed, a block's G2
  appeared or vanished, or a row is found in one file only.

Usage: python scripts/sweep_diff.py [--exact | --rtol R] [--model REGEX] A.jsonl B.jsonl
"""

import argparse
import json
import re
import sys

KEY = ("seed", "shape", "n", "concentration", "model")
FLAGGED = ("error", "oracle_error", "certificate")
COUNTED = ("iterations", "df", "rejections", "failures", "fallbacks", "handed_over",
           "counts_sha1")
VALUES = ("w", "g2_rows")  # lists compared value by value


def load(path):
    with open(path) as fh:
        return {tuple(row[k] for k in KEY): row for row in map(json.loads, fh)}


def label(key):
    seed, shape, n, c = key[:4]
    return f"seed {seed} {shape} n={n} c={c}"


def value_pairs(a, b):
    """(A, B) pairs of the G2 and Wald values of two matched rows; (None, x)
    or (x, None) where a block's G2 appeared or vanished."""
    pairs = [pair for field in VALUES for pair in zip(a.get(field, []), b.get(field, []))]
    if "g2" in a and "g2" in b:
        pairs.append((a["g2"], b["g2"]))
    return pairs


def rel_gap(x, y):
    if x is None or y is None:
        return 0.0 if x is y else float("inf")
    return abs(x - y) / max(abs(x), 1e-300)


def main(argv=None):
    parser = argparse.ArgumentParser(usage=__doc__.rsplit("Usage: ", 1)[1])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--rtol", type=float)
    parser.add_argument("--model", type=re.compile, default=re.compile(".*"))
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    old, new = load(args.a), load(args.b)
    models = [model for model in dict.fromkeys(key[-1] for key in [*old, *new])
              if args.model.fullmatch(model)]
    worse = strict = 0
    for model in models:
        keys = [k for k in dict.fromkeys([*old, *new]) if k[-1] == model]
        moved, gap, notes = 0, 0.0, []
        for key in keys:
            a, b = old.get(key), new.get(key)
            if a is None or b is None:
                notes.append(f"  only in {'B' if a is None else 'A'}: {label(key)}")
                worse += a is None and bool(b.get("error") or b.get("certificate"))
                strict += 1
                continue
            if a == b:
                continue
            moved += 1
            row_gap = max((rel_gap(x, y) for x, y in value_pairs(a, b)), default=0.0)
            gap = max(gap, row_gap)
            changed = [field for field in COUNTED + FLAGGED if a.get(field) != b.get(field)]
            for field in changed:
                notes.append(f"  {field} {label(key)}: {a.get(field)!r} -> {b.get(field)!r}")
            worse += ("error" in b and "error" not in a) or (
                bool(b.get("certificate")) and not a.get("certificate")) or (
                b.get("failures", 0) > a.get("failures", 0))
            strict += args.exact or (args.rtol is not None and (
                bool(changed) or not row_gap <= args.rtol))
        print(f"{model}: {moved} of {len(keys)} rows moved; "
              f"largest relative G2 gap {gap:.2e}")
        for note in notes:
            print(note)
    print(f"new errors or failed certificates: {worse}")
    if args.exact or args.rtol is not None:
        what = "moved" if args.exact else f"moved past rtol {args.rtol:g} or changed a count"
        print(f"rows {what}, or in one file only: {strict}")
    return 1 if worse or (strict and (args.exact or args.rtol is not None)) else 0


if __name__ == "__main__":
    sys.exit(main())
