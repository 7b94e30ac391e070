"""Acceptance gate: one test per criterion, one reported line each.

Each test measures its own wall time; the stated runtime budget is part of
the criterion and failing it fails the test. Monte Carlo criteria use fixed
seeds, so a pass is reproducible, not a coin flip.
"""

import subprocess
import sys
import time

import numpy as np
from scipy.optimize import least_squares

from poolreg.data import (
    Design,
    IndividualDataset,
    PooledDataset,
    pool_homogeneous,
    pool_random,
    write_pooled_csv,
)
from poolreg.errors import IncompleteCurve, NumericalFailure
from poolreg.estimators import (
    Estimator,
    FitConfig,
    build_pseudo_data,
    estimate_curve,
    fit_average_weighted,
    fit_individual,
    fit_marginal_integration,
    fit_product_weighted,
)
from poolreg.kernels import KernelKind, compute_moments, kernel_eval
from poolreg.simulation import (
    SimulationSpec,
    get_dgp,
    ise,
    run_monte_carlo,
    sample_dgp,
    theory_context,
)
from poolreg.bandwidth import select_bandwidth
from poolreg.theory import (
    average_random_summary,
    homogeneous_summary,
    individual_summary,
    marginal_random_summary,
)

ALL_TAGS = (Estimator.INDIVIDUAL, Estimator.AVERAGE,
            Estimator.PRODUCT, Estimator.MARGINAL)
POOLED_TAGS = (Estimator.AVERAGE, Estimator.PRODUCT, Estimator.MARGINAL)


def pooled_for(data, c, design, rng):
    if design is Design.HOMOGENEOUS:
        return pool_homogeneous(data, c)
    return pool_random(data, c, rng)


def point_estimates(dgp_name, estimators, *, n, c, h, p, reps, seed, x=0.0):
    """Replicated fits at one point; NaN marks a failed replication."""
    dgp = get_dgp(dgp_name)
    cfg = FitConfig(p=p, h=h)
    out = {est: np.full(reps, np.nan) for est in estimators}
    for rep in range(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        data = sample_dgp(dgp, n, rng)
        pooled = pool_random(data, c, rng)
        for est in estimators:
            target = data if est is Estimator.INDIVIDUAL else pooled
            curve = estimate_curve(est, target, cfg, [x])
            if not curve.failed[0]:
                out[est][rep] = curve.values[0]
    return out


def test_c01_unit_pool_collapse(accept):
    start = time.perf_counter()
    grid = np.linspace(-1.2, 1.2, 21)
    cfg = FitConfig(p=1, h=0.4)
    worst = 0.0
    for design in (Design.RANDOM, Design.HOMOGENEOUS):
        rng = np.random.default_rng(101)
        data = sample_dgp(get_dgp("d3"), 200, rng)
        base = estimate_curve(Estimator.INDIVIDUAL, data, cfg, grid).values
        pooled = pooled_for(data, 1, design, rng)
        for est in POOLED_TAGS:
            values = estimate_curve(est, pooled, cfg, grid).values
            worst = max(worst, float(np.max(np.abs(values - base))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    accept("unit-pool collapse",
           ok, f"max deviation {worst:.2e} < 1e-8, {elapsed:.1f}s < 5s")


def test_c02_exact_reproduction(accept):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-1.0, 1.0, 60))
    grid = np.linspace(-0.7, 0.7, 11)

    worst_const = 0.0
    flat = IndividualDataset(x=x, y=np.full(60, 3.7))
    for design in (Design.RANDOM, Design.HOMOGENEOUS):
        pooled = pooled_for(flat, 2, design, np.random.default_rng(1))
        for p in (0, 1):
            cfg = FitConfig(p=p, h=0.5)
            for est in ALL_TAGS:
                target = flat if est is Estimator.INDIVIDUAL else pooled
                values = estimate_curve(est, target, cfg, grid).values
                worst_const = max(worst_const, float(np.max(np.abs(values - 3.7))))

    worst_lin = 0.0
    sloped = IndividualDataset(x=x, y=1.0 + 2.0 * x)
    cfg = FitConfig(p=1, h=0.5)
    for design in (Design.RANDOM, Design.HOMOGENEOUS):
        pooled = pooled_for(sloped, 2, design, np.random.default_rng(2))
        for est in (Estimator.INDIVIDUAL, Estimator.AVERAGE, Estimator.PRODUCT):
            target = sloped if est is Estimator.INDIVIDUAL else pooled
            values = estimate_curve(est, target, cfg, grid).values
            worst_lin = max(worst_lin, float(np.max(np.abs(values - (1 + 2 * grid)))))

    elapsed = time.perf_counter() - start
    ok = worst_const < 1e-10 and worst_lin < 1e-8 and elapsed < 5.0
    accept("exact reproduction", ok,
           f"constant {worst_const:.2e} < 1e-10, linear {worst_lin:.2e} < 1e-8, "
           f"{elapsed:.1f}s < 5s")


def test_c03_average_persistent_bias(accept):
    start = time.perf_counter()
    ctx = theory_context(get_dgp("quadratic"))
    predicted = average_random_summary(ctx, 0.0, 0, 0.1, (2, 2)).persistent_bias
    assert abs(predicted - 1.0 / 6.0) < 1e-9

    fits = point_estimates("quadratic",
                           (Estimator.AVERAGE, Estimator.MARGINAL),
                           n=2000, c=2, h=0.1, p=0, reps=300, seed=300)
    avg_bias = float(np.nanmean(fits[Estimator.AVERAGE]))
    marg_bias = float(np.nanmean(fits[Estimator.MARGINAL]))
    elapsed = time.perf_counter() - start
    ok = (abs(avg_bias - 1.0 / 6.0) < 0.03
          and abs(marg_bias) < 0.03 and elapsed < 120.0)
    accept("average-weighted persistent bias", ok,
           f"mean bias {avg_bias:.4f} vs 1/6, pseudo-response {marg_bias:.4f} "
           f"vs 0, both within 0.03, {elapsed:.1f}s < 2min")


def conditional_variance_ratio(c, *, n, h, reps, seed):
    """Var{m3(0)}/Var{m0(0)} with covariates and pooling frozen.

    The variance statement under test is conditional on the covariate
    array: given the X's, the pool mates' mean values are constants and
    only the response noise counts. Redrawing X each replication would add
    the pool mates' m(X) fluctuation, which for this process is about nine
    times the noise variance, and the ratio would sit near 1+(c-1)*Var(Y)/
    sigma^2 instead of c. So one draw fixes X and the pool assignment, and
    each replication redraws only the noise.
    """
    dgp = get_dgp("quadratic")
    root = np.random.SeedSequence(entropy=seed)
    draw = np.random.default_rng(root.spawn(1)[0])
    x = draw.uniform(-1.0, 1.0, n)
    perm = draw.permutation(n)
    mean = dgp.mean(x)
    sizes = np.full(n // c, c)
    x_flat = x[perm]
    cfg = FitConfig(p=0, h=h)
    m0 = np.full(reps, np.nan)
    m3 = np.full(reps, np.nan)
    for rep in range(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        y = mean + dgp.sigma * rng.standard_normal(n)
        z = y[perm].reshape(-1, c).mean(axis=1)
        ind = IndividualDataset(x=x, y=y)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x_flat,
                               design=Design.RANDOM)
        a = estimate_curve(Estimator.INDIVIDUAL, ind, cfg, [0.0])
        b = estimate_curve(Estimator.MARGINAL, pooled, cfg, [0.0])
        if not a.failed[0]:
            m0[rep] = a.values[0]
        if not b.failed[0]:
            m3[rep] = b.values[0]
    return float(np.nanvar(m3, ddof=1) / np.nanvar(m0, ddof=1))


def test_c04_marginal_variance_inflation(accept):
    start = time.perf_counter()
    ratios = {
        c: conditional_variance_ratio(c, n=2000, h=0.15, reps=300, seed=400 + c)
        for c in (2, 4)
    }
    elapsed = time.perf_counter() - start
    ok = (all(abs(ratios[c] - c) <= 0.25 * c for c in (2, 4))
          and elapsed < 120.0)
    accept("pseudo-response variance inflation", ok,
           f"noise-only var ratios {ratios[2]:.2f} vs 2 and {ratios[4]:.2f} "
           f"vs 4, both within 25%, {elapsed:.1f}s < 2min")


def test_c05_product_variance_ordering(accept):
    start = time.perf_counter()
    var2 = {}
    var3 = {}
    counts = {}
    for c in (2, 4):
        fits = point_estimates("quadratic",
                               (Estimator.PRODUCT, Estimator.MARGINAL),
                               n=2000, c=c, h=0.15, p=0, reps=300, seed=500 + c)
        prod = fits[Estimator.PRODUCT]
        # the product weights often find no complete pool near x at c=4;
        # variances are taken over the replications that did succeed
        counts[c] = int(np.sum(np.isfinite(prod)))
        var2[c] = float(np.nanvar(prod, ddof=1))
        var3[c] = float(np.nanvar(fits[Estimator.MARGINAL], ddof=1))
    ratio2 = var2[4] / var2[2]
    ratio3 = var3[4] / var3[2]
    elapsed = time.perf_counter() - start
    ok = var2[4] > var2[2] and ratio2 > ratio3 and elapsed < 120.0
    accept("product-weighted variance ordering", ok,
           f"Var c=4 {var2[4]:.3g} > Var c=2 {var2[2]:.3g} "
           f"({counts[4]}/{counts[2]} usable reps), ratio {ratio2:.1f} > "
           f"pseudo-response ratio {ratio3:.1f}, {elapsed:.1f}s < 2min")


def test_c06_homogeneous_efficiency(accept):
    start = time.perf_counter()
    spec = SimulationSpec(
        dgp=get_dgp("d2"),
        estimators=(Estimator.INDIVIDUAL, Estimator.AVERAGE, Estimator.PRODUCT),
        grid=(0.0,),
        design=Design.HOMOGENEOUS,
        n=600,
        c=2,
        replications=100,
        p=1,
        h=None,
        seed=600,
    )
    records = run_monte_carlo(spec)
    medians = {
        est: float(np.median([r.ises[est] for r in records
                              if r.ises[est] is not None]))
        for est in spec.estimators
    }
    r_avg = medians[Estimator.AVERAGE] / medians[Estimator.INDIVIDUAL]
    r_prod = medians[Estimator.PRODUCT] / medians[Estimator.INDIVIDUAL]
    elapsed = time.perf_counter() - start
    ok = r_avg <= 1.3 and r_prod <= 1.5 and elapsed < 300.0
    accept("homogeneous pooling efficiency", ok,
           f"median ISE ratios: average {r_avg:.3f} <= 1.3, "
           f"product {r_prod:.3f} <= 1.5, {elapsed:.0f}s < 5min")


def test_c07_theory_identities(accept, average_random_bias_closed_p0):
    start = time.perf_counter()
    ctx = theory_context(get_dgp("quadratic"))
    grid = np.linspace(-0.8, 0.8, 21)
    h = 0.1

    worst_shared = 0.0
    for p in (0, 1):
        for c in (1, 2, 4):
            sizes = (c,) * 50
            for x in grid:
                lead0 = individual_summary(ctx, float(x), p, h, 200).leading_bias
                lead3 = marginal_random_summary(
                    ctx, float(x), p, h, 200, sizes).leading_bias
                worst_shared = max(worst_shared, abs(lead3 - lead0))

    a = homogeneous_summary(ctx, Estimator.AVERAGE, 0.2, 1, h, 200, 1)
    b = homogeneous_summary(ctx, Estimator.PRODUCT, 0.2, 1, h, 200, 1)
    homog_match = (a.persistent_bias == b.persistent_bias
                   and a.leading_bias == b.leading_bias
                   and a.variance == b.variance)

    unit = average_random_summary(ctx, 0.2, 1, h, (1,) * 40)
    lead_ind = individual_summary(ctx, 0.2, 1, h, 40).leading_bias
    unit_ok = (unit.persistent_bias == 0.0
               and abs(unit.leading_bias - lead_ind) < 1e-10)

    worst_p0 = 0.0
    for sizes in ((2, 2), (1, 2, 3), (3, 3)):
        general = average_random_summary(ctx, 0.3, 0, h, sizes).leading_bias
        closed = average_random_bias_closed_p0(ctx, 0.3, h, sizes)
        worst_p0 = max(worst_p0, abs(general - closed))

    elapsed = time.perf_counter() - start
    ok = (worst_shared <= 1e-12 and homog_match and unit_ok
          and worst_p0 <= 1e-8 and elapsed < 5.0)
    accept("theory identities", ok,
           f"shared bias gap {worst_shared:.1e} <= 1e-12, product==average at "
           f"c=1 {homog_match}, unit-pool persistent 0 {unit_ok}, local "
           f"constant dual path {worst_p0:.1e} <= 1e-8, {elapsed:.1f}s < 5s")


def test_c08_kernel_moments(accept, quad_moment):
    start = time.perf_counter()
    plain = compute_moments(KernelKind.EPANECHNIKOV, 4)
    squared = compute_moments(KernelKind.EPANECHNIKOV, 0, power=2)
    odd = max(abs(plain[1]), abs(plain[3]))
    worst_dual = max(
        abs(compute_moments(KernelKind.EPANECHNIKOV, ell)[ell]
            - quad_moment(KernelKind.EPANECHNIKOV, ell, 1))
        for ell in range(5)
    )
    elapsed = time.perf_counter() - start
    ok = (abs(plain[2] - 0.2) < 1e-14 and abs(squared[0] - 0.6) < 1e-14
          and odd < 1e-10 and worst_dual <= 1e-10 and elapsed < 1.0)
    accept("kernel moments", ok,
           f"mu2 {plain[2]:.3f}, nu0 {squared[0]:.3f}, odd {odd:.1e} < 1e-10, "
           f"closed vs quadrature {worst_dual:.1e} <= 1e-10, {elapsed:.2f}s < 1s")


def test_c09_cv_sanity(accept):
    start = time.perf_counter()
    dgp = get_dgp("d2")
    chosen_ises = []
    best_ises = []
    for rep in range(50):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=900, spawn_key=(rep,)))
        data = sample_dgp(dgp, 600, rng)
        pooled = pool_random(data, 2, rng)
        trace = select_bandwidth(pooled, Estimator.MARGINAL, FitConfig(p=1, h=1.0))
        by_h = {}
        for h in trace.h_grid:
            curve = estimate_curve(Estimator.MARGINAL, pooled,
                                   FitConfig(p=1, h=float(h)), data.x)
            try:
                by_h[float(h)] = ise(curve.values, data.y)
            except IncompleteCurve:
                continue
        if not by_h or float(trace.chosen_h) not in by_h:
            continue
        chosen_ises.append(by_h[float(trace.chosen_h)])
        best_ises.append(min(by_h.values()))
    med_chosen = float(np.median(chosen_ises))
    med_best = float(np.median(best_ises))
    elapsed = time.perf_counter() - start
    ok = (len(chosen_ises) == 50 and med_chosen <= 2.0 * med_best
          and elapsed < 300.0)
    accept("cross-validation sanity", ok,
           f"median ISE at chosen h {med_chosen:.2f} <= 2x oracle best "
           f"{med_best:.2f} over {len(chosen_ises)} replications, "
           f"{elapsed:.0f}s < 5min")


def kh(cfg, t):
    return kernel_eval(cfg.kernel, np.asarray(t) / cfg.h) / cfg.h


def poly_at(beta, t):
    return sum(b * np.asarray(t) ** ell for ell, b in enumerate(beta))


def lm_minimize(fun, p, *args):
    # Every residual of Q is affine in beta, so the Jacobian J is constant and
    # column k is fun(e_k) - fun(0), exact up to rounding. A finite-difference
    # J' would make LM stop where J'^T r = 0, off the argmin by about
    # |J' - J| |r|. J is taken from the residual function, not from poolreg's
    # row builders, so the oracle stays independent of the code it checks.
    r0 = fun(np.zeros(p + 1), *args)
    jac = np.column_stack([fun(e, *args) - r0 for e in np.eye(p + 1)])
    res = least_squares(fun, np.zeros(p + 1), jac=lambda *_: jac, args=args,
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return res.x


def test_c10_solver_oracle(accept):
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(0, 3))
        n_pools = int(rng.integers(p + 1, 7))
        sizes = rng.integers(1, 4, n_pools)
        x_flat = rng.uniform(-1.0, 1.0, int(sizes.sum()))
        z = rng.normal(size=n_pools)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x_flat,
                               design=Design.EXTERNAL)
        n_ind = int(rng.integers(p + 1, 10))
        single = IndividualDataset(x=rng.uniform(-1, 1, n_ind),
                                   y=rng.normal(size=n_ind))
        x0 = float(rng.uniform(-0.5, 0.5))
        cfg = FitConfig(p=p, h=float(rng.uniform(1.6, 2.4)))

        def resid_individual(beta):
            t = single.x - x0
            return np.sqrt(kh(cfg, t)) * (single.y - poly_at(beta, t))

        def resid_pooled(beta, weight):
            rows = []
            off = pooled.offsets
            for j in range(pooled.n_pools):
                t = pooled.x_flat[off[j]:off[j + 1]] - x0
                k = kh(cfg, t)
                w = k.mean() if weight == "average" else k.prod()
                rows.append(np.sqrt(w) * (pooled.z[j] - poly_at(beta, t).mean()))
            return np.asarray(rows)

        def resid_marginal(beta):
            r_flat = build_pseudo_data(pooled).r_flat
            t = pooled.x_flat - x0
            return np.sqrt(kh(cfg, t)) * (r_flat - poly_at(beta, t))

        pairs = (
            (fit_individual(single, cfg, x0).beta,
             lm_minimize(resid_individual, p)),
            (fit_average_weighted(pooled, cfg, x0).beta,
             lm_minimize(lambda b: resid_pooled(b, "average"), p)),
            (fit_product_weighted(pooled, cfg, x0).beta,
             lm_minimize(lambda b: resid_pooled(b, "product"), p)),
            (fit_marginal_integration(pooled, cfg, x0).beta,
             lm_minimize(resid_marginal, p)),
        )
        for solved, oracle in pairs:
            worst = max(worst, float(np.max(np.abs(solved - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    accept("solver oracle", ok,
           f"max |beta - argmin Q| {worst:.1e} <= 1e-6 over 200 instances "
           f"x 4 estimators, {elapsed:.0f}s < 30s")


def test_c11_cli_determinism(accept, tmp_path):
    start = time.perf_counter()
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "dgp = d3\nn = 60\nc = 2\np = 1\nh = 0.8\n"
        "grid_min = -1\ngrid_max = 1\ngrid_count = 5\n"
        "replications = 6\nseed = 11\n",
        encoding="utf-8",
    )
    rng = np.random.default_rng(4)
    base = sample_dgp(get_dgp("quadratic"), 40, rng)
    pooled = pool_random(base, 2, rng)
    write_pooled_csv(tmp_path / "pools.csv", tmp_path / "members.csv", pooled)
    boot_cfg = tmp_path / "boot.cfg"
    boot_cfg.write_text(
        f"pools = {tmp_path / 'pools.csv'}\nmembers = {tmp_path / 'members.csv'}\n"
        "estimators = average\np = 1\nh = 0.6\n"
        "grid_min = -0.5\ngrid_max = 0.5\ngrid_count = 3\n"
        "replications = 16\nseed = 9\n",
        encoding="utf-8",
    )

    def run(command, cfg, out, jobs=None):
        argv = [sys.executable, "-m", "poolreg.cli", command,
                "--config", str(cfg), "--out", str(tmp_path / out)]
        if jobs:
            argv += ["--jobs", str(jobs)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return tmp_path / out

    a = run("simulate", sim_cfg, "sim_a")
    b = run("simulate", sim_cfg, "sim_b")
    c = run("simulate", sim_cfg, "sim_c", jobs=4)
    sim_ok = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        and (a / name).read_bytes() == (c / name).read_bytes()
        for name in ("replications.csv", "curves.csv", "quartiles.csv", "failures.csv")
    )

    d = run("bootstrap", boot_cfg, "boot_a")
    e = run("bootstrap", boot_cfg, "boot_b")
    f = run("bootstrap", boot_cfg, "boot_c", jobs=4)
    boot_ok = (
        (d / "bands.csv").read_bytes() == (e / "bands.csv").read_bytes()
        and (d / "bands.csv").read_bytes() == (f / "bands.csv").read_bytes()
    )

    elapsed = time.perf_counter() - start
    ok = sim_ok and boot_ok and elapsed < 60.0
    accept("byte-identical reruns", ok,
           f"simulate identical x3 (incl. --jobs 4) {sim_ok}, bootstrap "
           f"identical x3 {boot_ok}, {elapsed:.0f}s < 1min")
