"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import json
import math
import time

import numpy as np

from fsym.datasets import anes_party_id, data_path
from fsym.design import design_matrix, moment_matrix
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import (
    ModelSpec,
    fit_hlp,
    fit_model,
    fit_symmetry,
    potential_params,
    discrepancy_measure,
    symmetry_constraint,
    table1_df,
)
from fsym.projection import ProjectionSpec, iproject
from fsym.simulate import SimConfig, power_study
from fsym.tables import (
    CountTable,
    TableShape,
    orbit_structure,
    orbit_sums,
    symmetric_average,
)
from fsym.wald import f_jacobian, orbit_averaging_matrix, sigma, wald_statistic

from conftest import random_count_table, random_prob_table


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -------------------------------------------------------------------------
# 1. goodness-of-fit table reproduction
# -------------------------------------------------------------------------

REFERENCE_FITS = [
    # family, f, printed G2, df, printed p (None means "<0.001")
    ("s", None, "45.3", 17, None),
    ("me2", None, "31.6", 6, None),
    ("me", None, "3.34", 2, "0.188"),
    ("ve", None, "9.89", 2, "0.007"),
    ("ce", None, "17.4", 2, None),
    ("gs", kl(), "15.5", 11, "0.162"),
    ("gs", pearson(), "13.7", 11, "0.249"),
    ("gs", hellinger(), "16.0", 11, "0.143"),
    ("els", kl(), "33.0", 13, "0.002"),
    ("ls", kl(), "41.5", 15, None),
]


def test_criterion_1_goodness_of_fit_table():
    """All ten models reproduce the printed G2, df, and p-values in < 10 s.

    Known deviation: the exact ME2 maximum-likelihood solution has
    G2 = 31.545 (confirmed by an independent SQP optimizer), which prints as
    31.5 rather than the published 31.6; the assertion below keeps the
    published target and therefore documents the discrepancy when it fails.
    The MLE gives the sampling zero at cell 6 = (1, 3, 1) the mass 0.000679;
    the fit on the observed support, with all three sampling zeros kept at 0,
    has G2 = 31.578 and prints as the published 31.6.
    """
    t0 = time.time()
    table = anes_party_id()
    failures = []
    for family, ff, g2_ref, df_ref, p_ref in REFERENCE_FITS:
        fit = fit_model(table, ModelSpec(family, ff))
        ok = float(f"{fit.g2:.3g}") == float(g2_ref) and fit.df == df_ref
        if p_ref is None:
            ok = ok and fit.pvalue < 0.001
        else:
            ok = ok and round(fit.pvalue, 3) == float(p_ref)
        if not ok:
            failures.append(
                f"{ModelSpec(family, ff).label}: got G2={fit.g2:.4f} df={fit.df} "
                f"p={fit.pvalue:.4f}, want G2={g2_ref} df={df_ref} p={p_ref or '<0.001'}"
            )
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report(
        "criterion 1: ten-model goodness-of-fit reproduction",
        not failures,
        "; ".join(failures) or f"{elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 2. potential-parameter table reproduction
# -------------------------------------------------------------------------

POTENTIAL_REFERENCE = {
    (1, 1, 3): (0.0161, -1.3085, 3.7307),
    (3, 1, 1): (0.0057, -1.7262, 4.5959),
    (1, 3, 1): (0.0019, -2.0173, 5.6129),
    (1, 1, 2): (0.0249, -1.1937, 3.3065),
    (2, 1, 1): (0.0139, -1.4227, 3.7881),
    (1, 2, 1): (0.0078, -1.5785, 4.3284),
    (3, 3, 1): (0.0011, -2.1269, 6.2432),
    (1, 3, 3): (0.0008, -2.2469, 6.4613),
    (3, 1, 3): (0.0004, -2.4150, 7.1410),
    (3, 3, 2): (0.0003, -2.4713, 7.5158),
    (2, 3, 3): (0.0002, -2.5515, 7.6739),
    (3, 2, 3): (0.0002, -2.6458, 8.0455),
    (1, 2, 3): (0.0033, -0.9040, 7.3211),
    (2, 1, 3): (0.0024, -0.9409, 7.7568),
    (3, 2, 1): (0.0022, -0.9785, 7.7786),
    (3, 1, 2): (0.0015, -1.0353, 8.2992),
    (2, 3, 1): (0.0014, -1.0461, 8.4529),
    (1, 3, 2): (0.0013, -1.0661, 8.5378),
    (2, 1, 2): (0.0058, -1.6523, 4.6365),
    (1, 2, 2): (0.0051, -1.6933, 4.7526),
    (2, 2, 1): (0.0039, -1.7878, 4.9634),
    (2, 2, 3): (0.0007, -2.2471, 6.6602),
    (3, 2, 2): (0.0006, -2.3013, 6.7729),
    (2, 3, 2): (0.0006, -2.3219, 6.8255),
}


def test_criterion_2_potential_parameters():
    """Plug-in potential parameters match the published 4-decimal values."""
    table = anes_party_id()
    worst = 0.0
    worst_at = None
    for col, ff in ((0, kl()), (1, pearson()), (2, hellinger())):
        theta = potential_params(fit_model(table, ModelSpec("gs", ff)))
        for cell, refs in POTENTIAL_REFERENCE.items():
            err = abs(theta[cell] - refs[col])
            if err > worst:
                worst, worst_at = err, (ff.name, cell)
    report(
        "criterion 2: potential-parameter reproduction (72 values, +-0.0005)",
        worst < 5e-4,
        f"worst |error| {worst:.2e} at {worst_at}",
    )


# -------------------------------------------------------------------------
# 3. conditional-probability discrepancy measures
# -------------------------------------------------------------------------


def test_criterion_3_discrepancy_measures():
    """Ratio / difference / inverse-root measures for the headline pair."""
    table = anes_party_id()
    a, b = (1, 1, 3), (1, 3, 1)
    checks = [
        (kl(), 8.27),
        (pearson(), 0.71),
        (hellinger(), -1.88),
    ]
    errs = []
    for ff, want in checks:
        got = discrepancy_measure(fit_model(table, ModelSpec("gs", ff)), a, b)
        errs.append(abs(got - want))
    report(
        "criterion 3: fitted conditional-probability discrepancies (+-0.005)",
        max(errs) < 5e-3,
        f"errors {['%.4f' % e for e in errs]}",
    )


# -------------------------------------------------------------------------
# 4. desk-scale power study
# -------------------------------------------------------------------------


def _study(config_name: str, reps: int) -> dict[str, float]:
    with data_path(config_name).open() as fh:
        config = SimConfig.from_dict(json.load(fh))
    from dataclasses import replace

    config = replace(config, n_reps=reps)
    result = power_study(config)
    return {row.model: row.rate for row in result.rows}


def _band99(p_ref: float, reps: int) -> float:
    return 2.576 * math.sqrt(p_ref * (1.0 - p_ref) / reps)


def test_criterion_4_power_study_desk_scale():
    """Empirical rejection rates at 1,000 replicates of n = 10,000."""
    t0 = time.time()
    reps = 1000
    failures = []

    symmetric = _study("table2_row1.json", reps)
    for model, ref in (("s", 0.0479), ("gs[kl]", 0.0495), ("gs[pearson]", 0.0492),
                       ("gs[hellinger]", 0.0492)):
        band = _band99(ref, reps)
        if abs(symmetric[model] - ref) > band:
            failures.append(f"{model}: {symmetric[model]:.4f} outside {ref}+-{band:.4f}")

    het_rho = _study("table2_row3.json", reps)
    for model, ref in (("gs[kl]", 0.1186), ("gs[pearson]", 0.1488)):
        if abs(het_rho[model] - ref) > 0.03:
            failures.append(f"{model}: {het_rho[model]:.4f} outside {ref}+-0.03")

    het_var = _study("table2_row2.json", reps)
    for model in ("s", "ls[kl]"):
        if het_var[model] < 0.99:
            failures.append(f"{model}: {het_var[model]:.4f} below 0.99")

    if het_rho["gs[kl]"] <= symmetric["gs[kl]"]:
        failures.append("power under heterogeneous correlations not above size")

    elapsed = time.time() - t0
    if elapsed > 1800:
        failures.append(f"runtime {elapsed:.0f}s exceeds 30 min")
    detail = (
        f"sym rates {symmetric}, het-rho {het_rho}, het-var s/ls "
        f"{het_var['s']:.3f}/{het_var['ls[kl]']:.3f}, {elapsed:.0f}s"
    )
    report("criterion 4: desk-scale empirical power", not failures,
           "; ".join(failures) or detail)


# -------------------------------------------------------------------------
# 5. oracle equivalence
# -------------------------------------------------------------------------


def test_criterion_5_projection_and_fitter_oracles():
    rng = np.random.default_rng(505)
    shape = TableShape(3, 3)
    ds = design_matrix(shape, "gs")
    M = moment_matrix(shape)
    ffs = [kl(), pearson(), hellinger(), power(-0.5), power(0.5), power(1.0)]
    worst_constraint = 0.0
    worst_form = 0.0
    # moderate concentration: links with bounded inverse domains only admit
    # interior projections when the target is not too extreme
    for k in range(20):
        target = random_prob_table(rng, shape, concentration=3.0)
        for ff in ffs:
            proj = iproject(ProjectionSpec(target, ff))
            worst_constraint = max(
                worst_constraint,
                float(np.max(np.abs(M @ (proj.probs - target.probs)))),
                float(np.max(np.abs(
                    orbit_sums(shape, proj.probs) - orbit_sums(shape, target.probs)
                ))),
            )
            ps = symmetric_average(proj)
            worst_form = max(
                worst_form,
                float(np.max(np.abs(ds.U.T @ np.asarray(ff.F(proj.probs / ps.probs))))),
            )
    ok_proj = worst_constraint < 1e-9 and worst_form < 1e-8

    worst_g2 = 0.0
    for _ in range(50):
        counts = random_count_table(rng, shape, n=500)
        generic = fit_hlp(counts, symmetry_constraint(shape))
        closed = fit_symmetry(counts)
        worst_g2 = max(worst_g2, abs(generic.g2 - closed.g2))
    ok_fit = worst_g2 < 1e-6

    report(
        "criterion 5: projection constraints + generic-fitter oracle",
        ok_proj and ok_fit,
        f"constraint {worst_constraint:.1e}, form {worst_form:.1e}, g2 {worst_g2:.1e}",
    )


# -------------------------------------------------------------------------
# 6. analytic-Jacobian identities
# -------------------------------------------------------------------------


def test_criterion_6_jacobian_identities():
    rng = np.random.default_rng(606)
    shape = TableShape(3, 3)
    ds = design_matrix(shape, "gs")
    M = moment_matrix(shape)
    J = orbit_averaging_matrix(shape)
    ffs = [kl(), pearson(), hellinger(), power(0.5)]

    worst_h1pi = 0.0
    for _ in range(50):
        p = random_prob_table(rng, shape, concentration=3.0)
        for ff in ffs:
            H1 = ds.U.T @ f_jacobian(p, ff)
            worst_h1pi = max(worst_h1pi, float(np.max(np.abs(H1 @ p.probs))))

    worst_cross = 0.0
    worst_diag = 0.0
    for _ in range(10):
        p = symmetric_average(random_prob_table(rng, shape))
        for ff in ffs:
            H1 = ds.U.T @ f_jacobian(p, ff)
            worst_cross = max(
                worst_cross, float(np.max(np.abs(H1 @ sigma(p) @ M.T)))
            )
            worst_diag = max(
                worst_diag,
                float(np.max(np.abs(H1 @ np.diag(p.probs) - ds.U.T @ (np.eye(27) - J)))),
            )

    worst_fd = 0.0
    p = random_prob_table(rng, shape, concentration=5.0)
    for ff in ffs:
        F = f_jacobian(p, ff)
        struct = orbit_structure(shape)

        def link(v):
            ps = orbit_sums(shape, v) / struct.size_of_cell
            return np.asarray(ff.F(v / ps))

        eps = 1e-7
        for j in range(27):
            up, dn = p.probs.copy(), p.probs.copy()
            up[j] += eps
            dn[j] -= eps
            worst_fd = max(
                worst_fd, float(np.max(np.abs(F[:, j] - (link(up) - link(dn)) / (2 * eps))))
            )

    ok = worst_h1pi < 1e-10 and worst_cross < 1e-10 and worst_diag < 1e-10 and worst_fd < 1e-6
    report(
        "criterion 6: analytic Jacobian identities",
        ok,
        f"H1*pi {worst_h1pi:.1e}, cross {worst_cross:.1e}, diag {worst_diag:.1e}, fd {worst_fd:.1e}",
    )


# -------------------------------------------------------------------------
# 7. structural invariants
# -------------------------------------------------------------------------


def test_criterion_7_structural_invariants():
    failures = []
    # degrees-of-freedom formulas across the grid
    for r in (2, 3, 4):
        for T in (2, 3, 4):
            L = math.comb(r + T - 1, T)
            expected = {
                "s": r**T - L,
                "gs": r**T - L - (T * T + 3 * T - 6) // 2,
                "els": r**T - L - 2 * T + 2,
                "ls": r**T - L - T + 1,
                "me2": (T * T + 3 * T - 6) // 2,
                "me": T - 1,
                "ve": T - 1,
                "ce": (T * T - T - 2) // 2,
            }
            for family, want in expected.items():
                if table1_df(family, r, T) != want:
                    failures.append(f"df({family},{r},{T})")

    # nestedness chain on 100 random tables
    rng = np.random.default_rng(707)
    shape = TableShape(3, 3)
    slack = 1e-6
    for k in range(100):
        counts = random_count_table(rng, shape, n=700)
        g_s = fit_symmetry(counts).g2
        g_gs = fit_model(counts, ModelSpec("gs", kl())).g2
        g_els = fit_model(counts, ModelSpec("els", kl())).g2
        g_ls = fit_model(counts, ModelSpec("ls", kl())).g2
        if not (g_s + slack >= g_ls + slack >= g_els >= g_gs - slack >= -slack):
            failures.append(f"chain at draw {k}: {g_s:.4f} {g_ls:.4f} {g_els:.4f} {g_gs:.4f}")
            break

    # Wald basis invariance
    ds = design_matrix(shape, "gs")
    p = random_prob_table(rng, shape, concentration=5.0)
    ff = kl()
    h = ds.U.T @ np.asarray(ff.F(p.probs / symmetric_average(p).probs))
    H = ds.U.T @ f_jacobian(p, ff)
    w = wald_statistic(h, H, p, 901.0)
    for _ in range(10):
        A = rng.normal(size=(11, 11)) + np.eye(11)
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        w2 = wald_statistic(A @ h, A @ H, p, 901.0)
        if abs(w2 - w) > 1e-8 * max(1.0, abs(w)):
            failures.append(f"wald basis gap {abs(w2 - w):.2e}")
            break

    report("criterion 7: structural invariants", not failures, "; ".join(failures))


# -------------------------------------------------------------------------
# 8. likelihood-ratio decomposition under symmetry
# -------------------------------------------------------------------------


def test_criterion_8_g2_decomposition_asymptotics():
    rng = np.random.default_rng(808)
    shape = TableShape(3, 3)
    base = symmetric_average(random_prob_table(rng, shape, concentration=8.0))
    gaps = []
    for _ in range(200):
        counts = CountTable(shape, rng.multinomial(100_000, base.probs))
        g_s = fit_symmetry(counts).g2
        g_gs = fit_model(counts, ModelSpec("gs", kl())).g2
        g_me2 = fit_model(counts, ModelSpec("me2")).g2
        gaps.append(abs(g_s - g_gs - g_me2) / g_s)
    med = float(np.median(gaps))
    report(
        "criterion 8: asymptotic additivity of the likelihood-ratio partition",
        med < 0.05,
        f"median relative gap {med:.4f} over 200 replicates",
    )
