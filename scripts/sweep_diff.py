#!/usr/bin/env python3
"""Compare two outputs of ``scripts/restart_sweep.py`` row by row.

For each model it prints how many rows moved (any field differs), the
largest relative gap in G2 (in the Wald statistics for ``decompose`` rows),
every changed count (iterations, df, and the power study's rejections,
failures and fallbacks) and every changed ``error``, ``oracle_error`` or
``certificate`` field.  Rows are matched on seed, shape, n, concentration and
model; a row found in one file only is listed too.  It also reads the
output of ``scripts/fingerprints.py``.

Exits 1 when B has an error, a failed certificate or more power-study
failures than A has, else 0.

Usage: python scripts/sweep_diff.py A.jsonl B.jsonl
"""

import json
import sys

KEY = ("seed", "shape", "n", "concentration", "model")
FLAGGED = ("error", "oracle_error", "certificate")
COUNTED = ("iterations", "df", "rejections", "failures", "fallbacks")


def load(path):
    with open(path) as fh:
        return {tuple(row[k] for k in KEY): row for row in map(json.loads, fh)}


def label(key):
    seed, shape, n, c = key[:4]
    return f"seed {seed} {shape} n={n} c={c}"


def rel_gap(a, b):
    pairs = list(zip(a.get("w", []), b.get("w", [])))
    if "g2" in a and "g2" in b:
        pairs.append((a["g2"], b["g2"]))
    return max((abs(x - y) / max(abs(x), 1e-300) for x, y in pairs), default=0.0)


def main(path_a, path_b):
    old, new = load(path_a), load(path_b)
    models = list(dict.fromkeys(key[-1] for key in [*old, *new]))
    worse = 0
    for model in models:
        keys = [k for k in dict.fromkeys([*old, *new]) if k[-1] == model]
        moved, gap, notes = 0, 0.0, []
        for key in keys:
            a, b = old.get(key), new.get(key)
            if a is None or b is None:
                notes.append(f"  only in {'B' if a is None else 'A'}: {label(key)}")
                worse += a is None and bool(b.get("error") or b.get("certificate"))
                continue
            if a == b:
                continue
            moved += 1
            gap = max(gap, rel_gap(a, b))
            for field in COUNTED:
                if a.get(field) != b.get(field):
                    notes.append(f"  {field} {label(key)}: {a.get(field)} -> {b.get(field)}")
            for field in FLAGGED:
                if a.get(field) != b.get(field):
                    notes.append(f"  {field} {label(key)}: {a.get(field)!r} -> "
                                 f"{b.get(field)!r}")
            worse += ("error" in b and "error" not in a) or (
                bool(b.get("certificate")) and not a.get("certificate")) or (
                b.get("failures", 0) > a.get("failures", 0))
        print(f"{model}: {moved} of {len(keys)} rows moved; "
              f"largest relative G2 gap {gap:.2e}")
        for note in notes:
            print(note)
    print(f"new errors or failed certificates: {worse}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
