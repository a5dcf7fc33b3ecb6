"""Command-line interface: fit, decompose, simulate, design.

Input tables are JSON documents with r, T, optional scores/labels, and a flat
``counts`` array in lexicographic cell order.  Exit codes: 0 success, 2 unusable
input, 3 non-convergence, 4 invalid model or f-function choice.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import design as design_mod
from .datasets import load_table_document
from .divergences import parse_f
from .fitting import (
    FAMILIES,
    FitError,
    FitResult,
    ModelSpec,
    discrepancy_measure,
    fit_model,
    potential_params,
)
from .simulate import PowerRow, SimConfig, power_study
from .tables import CountTable, TableShape, all_cells, orbit_structure
from .wald import decompose

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BAD_MODEL = 4

# ``fsym design`` writes U, whose full SVD holds an N x N float64 array; it
# refuses shapes where that array would take more than this many bytes.
DESIGN_MAX_BYTES = 2**30


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _sig3(x: float) -> str:
    return f"{x:.3g}"


def _fmt_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _read_table(path: str, scores: str | None) -> CountTable:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read table document {path}: {exc}", EXIT_INPUT)
    if scores:
        doc = dict(doc)
        doc["scores"] = [float(s) for s in scores.split(",")]
    try:
        return load_table_document(doc)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad table document {path}: {exc}", EXIT_INPUT)


def _model_spec(model: str, f_name: str | None) -> ModelSpec:
    model = model.lower()
    if model not in FAMILIES:
        raise CliError(
            f"unknown model {model!r} (choose from {', '.join(FAMILIES)})",
            EXIT_BAD_MODEL,
        )
    ff = None
    if model in design_mod.ASYMMETRY_FAMILIES:
        try:
            ff = parse_f(f_name or "kl")
        except ValueError as exc:
            raise CliError(str(exc), EXIT_BAD_MODEL)
    return ModelSpec(model, ff)


def _fit_report(fit: FitResult, counts: CountTable) -> dict:
    report = {
        "model": fit.spec.family if fit.spec else None,
        "f": fit.spec.ff.name if fit.spec and fit.spec.ff else None,
        "label": fit.spec.label if fit.spec else None,
        "r": counts.shape.r,
        "T": counts.shape.T,
        "scores": list(counts.shape.scores),
        "n": counts.n,
        "g2": fit.g2,
        "df": fit.df,
        "pvalue": fit.pvalue,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "constraint_residual": fit.constraint_residual,
        "counts": [int(c) for c in counts.counts],
        "pihat": fit.pihat.probs.tolist(),
        "mhat": fit.mhat.tolist(),
    }
    if fit.theta_prime is not None:
        report["theta_prime"] = fit.theta_prime.tolist()
        theta = potential_params(fit)
        report["potential"] = [
            {"cell": list(cell), "theta": value} for cell, value in theta.items()
        ]
        report["discrepancies"] = _discrepancy_rows(fit)
    return report


def _discrepancy_rows(fit: FitResult) -> list[dict]:
    """Family-appropriate measures of each cell against its orbit representative."""
    rows = []
    struct = orbit_structure(fit.shape)
    cells = list(all_cells(fit.shape))
    for members in struct.members:
        if len(members) < 2 or not fit.pihat.probs[members].any():
            continue  # no comparison within a singleton or an empty orbit
        rep = cells[members[0]]
        for idx in members[1:]:
            cell = cells[idx]
            rows.append(
                {
                    "cell": list(cell),
                    "against": list(rep),
                    "measure": discrepancy_measure(fit, cell, rep),
                }
            )
    return rows


def cmd_fit(args) -> int:
    counts = _read_table(args.input, args.scores)
    spec = _model_spec(args.model, args.f)
    try:
        fit = fit_model(counts, spec)
    except design_mod.ConfigurationError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    if args.json:
        print(json.dumps(_fit_report(fit, counts), indent=2))
    else:
        print(f"model {spec.label}  r={counts.shape.r} T={counts.shape.T}  n={counts.n:g}")
        print(f"G2 = {_sig3(fit.g2)}  df = {fit.df}  p = {_fmt_p(fit.pvalue)}")
        print(
            f"converged in {fit.iterations} iterations, "
            f"constraint residual {fit.constraint_residual:.2e}"
        )
    return EXIT_OK


def cmd_decompose(args) -> int:
    counts = _read_table(args.input, args.scores)
    try:
        ff = parse_f(args.f or "kl")
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_MODEL)
    try:
        report = decompose(counts, ff)
    except design_mod.ConfigurationError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    if args.json:
        doc = {
            "f": ff.name,
            "n": report.n,
            "wald": {
                "gs": {"w": report.w_gs, "df": report.df_gs, "pvalue": report.p_gs},
                "me2": {"w": report.w_me2, "df": report.df_me2, "pvalue": report.p_me2},
                "s": {"w": report.w_s, "df": report.df_s, "pvalue": report.p_s},
                "additivity_gap": report.additivity_gap,
                "evaluation_point": report.evaluation_point,
                "ridged": report.ridged,
            },
            "orthogonality_residual": report.orthogonality_residual,
            "g2_partition": [
                {"model": r.family, "g2": r.g2, "df": r.df, "pvalue": r.pvalue}
                for r in report.g2_partition
            ],
            "g2_gap": report.g2_gap,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"decomposition of complete symmetry, f = {ff.name}, n = {report.n:g}")
        print(f"{'model':<16s} {'G2':>8s} {'df':>4s} {'p':>8s}")
        for r in report.g2_partition:
            print(f"{r.family:<16s} {_sig3(r.g2):>8s} {r.df:>4d} {_fmt_p(r.pvalue):>8s}")
        print(f"G2 additivity gap |S - gs - me2| = {_sig3(report.g2_gap)}")
        print(f"{'Wald':<16s} {'W':>8s} {'df':>4s} {'p':>8s}   (at {report.evaluation_point} proportions)")
        for label, w, df, p in [
            ("gs", report.w_gs, report.df_gs, report.p_gs),
            ("me2", report.w_me2, report.df_me2, report.p_me2),
            ("s", report.w_s, report.df_s, report.p_s),
        ]:
            print(f"{label:<16s} {_sig3(w):>8s} {df:>4d} {_fmt_p(p):>8s}")
        print(f"Wald additivity gap = {report.additivity_gap:.3e}")
        print(f"orthogonality residual at symmetrized table = {report.orthogonality_residual:.3e}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {args.config}: {exc}", EXIT_INPUT)
    overrides = {k: v for k, v in (("n_reps", args.reps), ("seed", args.seed)) if v is not None}
    try:
        config = replace(SimConfig.from_dict(doc), **overrides)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad simulation config: {exc}", EXIT_INPUT)
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}", EXIT_INPUT)
    result = power_study(config, workers=args.workers)
    doc = result.to_dict()
    if args.out:
        path = Path(args.out)
        if path.suffix == ".csv":
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, [f.name for f in fields(PowerRow)])
                writer.writeheader()
                writer.writerows(doc["rows"])
        else:
            path.write_text(json.dumps(doc, indent=2) + "\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"power study: {config.n_reps} replicates of n = {config.n_obs}, "
            f"alpha = {config.alpha}, seed = {config.seed}"
        )
        print(f"{'model':<16s} {'rate':>8s} {'95% CI':>19s} {'failures':>9s} {'fallbacks':>9s}")
        for row in result.rows:
            ci = f"[{row.ci_low:.4f}, {row.ci_high:.4f}]"
            print(
                f"{row.model:<16s} {row.rate:>8.4f} {ci:>19s} {row.failures:>9d} "
                f"{row.fallbacks:>9d}"
            )
        for row in result.rows:
            if row.first_failure:
                print(f"first failure of {row.model}: {row.first_failure}")
    return EXIT_OK


def cmd_design(args) -> int:
    spec = _model_spec(args.model, None)
    if spec.family not in design_mod.ASYMMETRY_FAMILIES:
        raise CliError(
            f"design matrices exist for {design_mod.ASYMMETRY_FAMILIES}, not {args.model!r}",
            EXIT_BAD_MODEL,
        )
    scores = tuple(float(s) for s in args.scores.split(",")) if args.scores else None
    try:
        shape = TableShape(args.r, args.T, scores)
        n = shape.n_cells
        if 8 * n * n > DESIGN_MAX_BYTES:
            raise CliError(
                f"U of {n} cells needs an {n} x {n} float64 array "
                f"({8 * n * n / 2**30:.1f} GiB; the limit is {DESIGN_MAX_BYTES / 2**30:g} GiB)",
                EXIT_INPUT,
            )
        ds = design_mod.design_matrix(shape, spec.family)
    except (ValueError, design_mod.ConfigurationError) as exc:
        raise CliError(str(exc), EXIT_INPUT)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "X.csv", ds.X, delimiter=",")
    np.savetxt(out / "Xs.csv", ds.Xs, delimiter=",", fmt="%d")
    np.savetxt(out / "U.csv", ds.U, delimiter=",")
    np.savetxt(out / "M.csv", design_mod.moment_matrix(shape), delimiter=",")
    manifest = {
        "r": shape.r,
        "T": shape.T,
        "scores": list(shape.scores),
        "family": spec.family,
        "columns": {name: [sl.start, sl.stop] for name, sl in ds.column_layout.items()},
        "d1": ds.d1,
        "d2": ds.d2,
        "n_orbits": shape.n_orbits,
        "pair_chain": [list(p) for p in ds.v2_chain],
    }
    (out / "layout.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote X ({ds.X.shape[0]}x{ds.X.shape[1]}), Xs, U ({ds.U.shape[1]} cols), M to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsym",
        description="Fit symmetry and f-divergence asymmetry models to r^T ordinal tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model to a table document")
    p_fit.add_argument("--input", required=True, help="JSON table document")
    p_fit.add_argument("--model", required=True, help=", ".join(FAMILIES))
    p_fit.add_argument("--f", help="kl, pearson, hellinger, or power:LAMBDA")
    p_fit.add_argument("--scores", help="comma-separated category scores")
    p_fit.add_argument("--json", action="store_true", help="machine-readable report")
    p_fit.set_defaults(func=cmd_fit)

    p_dec = sub.add_parser("decompose", help="symmetry decomposition report")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--f", help="f-function for the asymmetry component")
    p_dec.add_argument("--scores", help="comma-separated category scores")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_sim = sub.add_parser("simulate", help="empirical power study from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--reps", type=int, help="override replicate count")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", help="write results to FILE (.json or .csv)")
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_des = sub.add_parser("design", help="dump design matrices as CSV")
    p_des.add_argument("--r", type=int, required=True)
    p_des.add_argument("--T", type=int, required=True)
    p_des.add_argument("--model", required=True)
    p_des.add_argument("--scores")
    p_des.add_argument("--out", required=True, help="output directory")
    p_des.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FitError as exc:
        print(f"fit did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
