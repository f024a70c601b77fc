"""End-to-end acceptance checks.

Each test exercises one headline capability on synthetic data with frozen
seeds, prints a single PASS/FAIL line (run with `pytest -s` to see them),
and enforces both the quantitative target and a runtime budget.
"""

import math
import time

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.stats

from barista import (
    BaristaParams,
    BidderStrategyParams,
    GaConfig,
    OneStage,
    TwoStage,
    cdf,
    default_qc_config,
    ga_fit,
    intensity,
    inverse_cdf,
    ks_one_sample,
    loglik,
    loglik_gradient,
    loglik_hessian,
    mean_count,
    mle_nhpp1,
    pool,
    qc_fit,
    restrict,
    sample_fixed_n,
    sample_geometric_uniform,
    sample_poisson_count,
    select_model,
    simulate_bidder_strategy,
    simulate_single_uniform_bids,
    superpose,
)
from conftest import P_STAR, random_params

GA_CUBE = ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (1.0, 5.0), (0.0, 0.01))

INTERVALS = {
    "alpha1": (2.6, 3.4),
    "alpha2": (0.35, 0.45),
    "alpha3": (0.85, 1.15),
    "d1": (2.3, 2.7),
    "d2_minutes": (3.0, 6.5),
}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def in_intervals(params: dict) -> bool:
    checks = dict(params)
    checks["d2_minutes"] = params["d2"] * 1440.0
    return all(lo <= checks[k] <= hi for k, (lo, hi) in INTERVALS.items())


def test_criterion_01_plugin_estimators_recover_reference_vector():
    t0 = time.perf_counter()
    data = sample_fixed_n(P_STAR, 5000, seed=23)
    fit = qc_fit(data, default_qc_config(P_STAR.T))
    elapsed = time.perf_counter() - t0
    ok = in_intervals(fit.params) and elapsed < 5.0
    p = fit.params
    report(1, ok,
           f"plug-in estimates a1={p['alpha1']:.3f} a2={p['alpha2']:.3f} "
           f"a3={p['alpha3']:.3f} d1={p['d1']:.3f} d2={p['d2'] * 1440:.2f}min "
           f"in {elapsed:.2f}s")
    assert ok


def test_criterion_02_ga_recovers_reference_vector_across_seeds():
    data = sample_fixed_n(P_STAR, 5000, seed=23)
    ll_truth = loglik(data, P_STAR)
    hits, worst_run = 0, 0.0
    for seed in range(10):
        t0 = time.perf_counter()
        fit = ga_fit(data, "three-stage", GaConfig(bounds=GA_CUBE, seed=seed))
        run = time.perf_counter() - t0
        worst_run = max(worst_run, run)
        if in_intervals(fit.params) and fit.loglik >= ll_truth - 2.0:
            hits += 1
    ok = hits >= 8 and worst_run < 120.0
    report(2, ok, f"GA in-interval runs {hits}/10, worst run {worst_run:.2f}s")
    assert ok


def test_criterion_03_closed_form_mle_matches_numeric_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.3, 4.0))
        c = float(rng.uniform(0.5, 30.0))
        T = float(rng.uniform(0.5, 10.0))
        shape = OneStage(alpha, c, T).as_barista()
        s = sample_poisson_count(shape, seed=int(rng.integers(1 << 31)))
        if s.n < 20:
            continue
        a_hat, c_hat = mle_nhpp1(s)
        logrem = np.log1p(-s.times / T)

        def neg_full_loglik(v):
            a, cc = v
            if a <= 0 or cc <= 0:
                return np.inf
            return -(s.n * math.log(cc) + (a - 1.0) * float(np.sum(logrem))
                     - T * cc / a)

        res = scipy.optimize.minimize(
            neg_full_loglik, x0=[a_hat * 1.37, c_hat * 0.73],
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 4000})
        worst = max(worst,
                    abs(res.x[0] - a_hat) / a_hat,
                    abs(res.x[1] - c_hat) / c_hat)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report(3, ok, f"closed-form vs numeric MLE worst rel {worst:.2e} in {elapsed:.2f}s")
    assert ok


def test_criterion_04_gradient_and_hessian_against_differences():
    t0 = time.perf_counter()
    worst_g = 0.0
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = random_params(rng)
        s = sample_fixed_n(p, int(rng.integers(100, 800)), seed=int(rng.integers(1 << 31)))
        g = loglik_gradient(s, p)
        a = np.array([p.alpha1, p.alpha2, p.alpha3])
        g_fd = np.empty(3)
        for j in range(3):
            h = 1e-6 * max(1.0, a[j])
            up, dn = a.copy(), a.copy()
            up[j] += h
            dn[j] -= h
            pu = BaristaParams(up[0], up[1], up[2], p.d1, p.d2, p.c, p.T)
            pd = BaristaParams(dn[0], dn[1], dn[2], p.d1, p.d2, p.c, p.T)
            g_fd[j] = (loglik(s, pu) - loglik(s, pd)) / (2 * h)
        worst_g = max(worst_g, float(np.max(np.abs(g - g_fd) / np.maximum(1.0, np.abs(g)))))

    worst_h = 0.0
    for _ in range(20):
        p = random_params(rng)
        s = sample_fixed_n(p, int(rng.integers(100, 800)), seed=int(rng.integers(1 << 31)))
        hess = loglik_hessian(s, p)
        a = np.array([p.alpha1, p.alpha2, p.alpha3])
        h_fd = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * max(1.0, a[j])
            up, dn = a.copy(), a.copy()
            up[j] += h
            dn[j] -= h
            pu = BaristaParams(up[0], up[1], up[2], p.d1, p.d2, p.c, p.T)
            pd = BaristaParams(dn[0], dn[1], dn[2], p.d1, p.d2, p.c, p.T)
            h_fd[:, j] = (loglik_gradient(s, pu) - loglik_gradient(s, pd)) / (2 * h)
        worst_h = max(worst_h,
                      float(np.max(np.abs(hess - h_fd) / np.maximum(1.0, np.abs(hess)))))
    elapsed = time.perf_counter() - t0
    ok = worst_g < 1e-5 and worst_h < 1e-4 and elapsed < 10.0
    report(4, ok,
           f"gradient rel {worst_g:.2e} (50 cases), hessian rel {worst_h:.2e} "
           f"(20 cases) in {elapsed:.2f}s")
    assert ok


def test_criterion_05_distribution_identities_on_random_vectors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_quad = worst_ratio = worst_round = worst_cont = 0.0
    for _ in range(100):
        p = random_params(rng)
        lam = lambda s: intensity(p, s)
        for frac in (0.37, 0.81, 1.0):
            s_pt = frac * p.T
            broken = sorted({d for d in (p.d1, p.T - p.d2) if 0.0 < d < s_pt})
            m_quad, _ = scipy.integrate.quad(lam, 0.0, s_pt, points=broken, limit=300)
            m_val = mean_count(p, s_pt)
            worst_quad = max(worst_quad, abs(m_val - m_quad) / m_quad)
            worst_ratio = max(worst_ratio,
                              abs(cdf(p, s_pt) - m_val / mean_count(p, p.T)))
        u = rng.uniform(0.0, 1.0, size=9)
        x = inverse_cdf(p, u)
        worst_round = max(worst_round, float(np.max(np.abs(cdf(p, x) - u))))
        for d in (p.d1, p.T - p.d2):
            if 0.0 < d < p.T:
                left = intensity(p, np.nextafter(d, 0.0))
                right = intensity(p, d)
                worst_cont = max(worst_cont, abs(left - right) / right)
    elapsed = time.perf_counter() - t0
    ok = (worst_quad < 1e-8 and worst_ratio < 1e-12 and worst_round < 1e-9
          and worst_cont < 1e-10 and elapsed < 30.0)
    report(5, ok,
           f"quadrature {worst_quad:.1e}, count-ratio {worst_ratio:.1e}, "
           f"inverse {worst_round:.1e}, continuity {worst_cont:.1e} in {elapsed:.1f}s")
    assert ok


def test_criterion_06_geometric_uniform_survival_law():
    t0 = time.perf_counter()
    worst = 0.0
    for a, b, alpha in ((0.0, 1.0, 0.3), (0.0, 1.0, 1.0), (1.0, 3.0, 0.7)):
        draws = np.sort(sample_geometric_uniform(a, b, alpha, seed=3, size=100_000))
        target = 1.0 - ((b - draws) / (b - a)) ** alpha
        n = draws.size
        grid = np.arange(1, n + 1) / n
        d_plus = float(np.max(grid - target))
        d_minus = float(np.max(target - (grid - 1.0 / n)))
        worst = max(worst, d_plus, d_minus)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 10.0
    report(6, ok, f"retry-strategy survival sup-distance {worst:.4f} in {elapsed:.2f}s")
    assert ok


def test_criterion_07_bidder_strategy_reproduces_arrival_laws():
    t0 = time.perf_counter()
    T = 7.0
    probe = BidderStrategyParams(rate=1.0, alpha2=0.4, alpha3=1.0, d=T / 100, T=T)
    rate = 3000.0 / (T * probe.success_probability)
    sp = BidderStrategyParams(rate=rate, alpha2=0.4, alpha3=1.0, d=T / 100, T=T)
    two = TwoStage(alpha2=0.4, alpha3=1.0, d2=T / 100, c=1.0, T=T).as_barista()
    hits_two = sum(
        ks_one_sample(simulate_bidder_strategy(sp, seed=k), two).p_value > 0.01
        for k in range(20))

    sp0 = BidderStrategyParams(rate=3000.0 / T, alpha2=0.4, alpha3=1.0, d=0.0, T=T)
    one = OneStage(alpha=0.4, c=1.0, T=T).as_barista()
    hits_one = sum(
        ks_one_sample(simulate_bidder_strategy(sp0, seed=k), one).p_value > 0.01
        for k in range(20))
    elapsed = time.perf_counter() - t0
    ok = hits_two >= 18 and hits_one >= 18 and elapsed < 60.0
    report(7, ok,
           f"strategy vs two-stage law {hits_two}/20, vs one-stage law "
           f"{hits_one}/20 in {elapsed:.1f}s")
    assert ok


def test_criterion_08_single_bid_rebid_intensity_profile():
    t0 = time.perf_counter()
    rate, T = 500.0, 1.0
    s = simulate_single_uniform_bids(rate, T, seed=5)
    edges = np.linspace(0.0, T, 51)
    counts, _ = np.histogram(s.times, bins=edges)

    def primitive(t):
        # integral of ln(T/(T-u)) du from 0 to t, with T = 1
        return (1.0 - t) * np.log1p(-t) + t

    # last bin excluded: its expected count diverges at the deadline
    expected = rate * (primitive(edges[1:50]) - primitive(edges[:49]))
    good = 0
    for k in range(49):
        if abs(counts[k] - expected[k]) <= 3.0 * math.sqrt(expected[k]):
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 45 and elapsed < 30.0
    report(8, ok, f"rebid histogram {good}/49 bins within 3 SE in {elapsed:.2f}s")
    assert ok


def test_criterion_09_model_selection_consistency():
    t0 = time.perf_counter()
    scenarios = [
        ("one-stage", OneStage(alpha=1.0, c=143.0, T=7.0).as_barista(), 0.90),
        ("three-stage", P_STAR.with_c(255.5), 0.90),
        ("two-stage",
         TwoStage(alpha2=0.3, alpha3=7.7, d2=1.0 / 1440, c=128.7, T=5.0).as_barista(),
         0.80),
    ]
    rates = {}
    ok = True
    for want, truth, floor in scenarios:
        wins = 0
        for run in range(20):
            data = sample_poisson_count(truth, seed=1000 + run)
            res = select_model(data)
            wins += res.chosen.tag == want
        rates[want] = wins
        ok = ok and wins >= floor * 20
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(9, ok,
           f"selection picked one-stage {rates['one-stage']}/20, three-stage "
           f"{rates['three-stage']}/20, two-stage {rates['two-stage']}/20 "
           f"in {elapsed:.1f}s")
    assert ok


def test_criterion_10_superposition_and_restriction():
    t0 = time.perf_counter()
    parts = [sample_poisson_count(P_STAR, seed=k) for k in range(10)]
    pooled = pool(parts)
    pooled_model = superpose([P_STAR] * 10)
    assert pooled_model.c == 10.0
    p_super = ks_one_sample(pooled, pooled_model).p_value

    big = sample_poisson_count(P_STAR.with_c(50.0), seed=0)
    beta = 0.5
    cut = beta * P_STAR.T
    kept = big.times[big.times >= cut] - cut
    from barista import BidSample

    tail_sample = BidSample(times=kept, T=P_STAR.T - cut)
    tail_model = restrict(P_STAR, beta)
    p_restrict = ks_one_sample(tail_sample, tail_model).p_value
    elapsed = time.perf_counter() - t0
    ok = p_super > 0.01 and p_restrict > 0.01 and elapsed < 30.0
    report(10, ok,
           f"superposed-sample KS p={p_super:.3f}, restricted-clock KS "
           f"p={p_restrict:.3f} in {elapsed:.2f}s")
    assert ok


def test_criterion_11_exponent_estimator_asymptotic_normality():
    t0 = time.perf_counter()
    alpha, n = 0.7, 5000
    one = OneStage(alpha=alpha, c=1.0, T=1.0).as_barista()
    z = np.empty(500)
    for rep in range(500):
        s = sample_fixed_n(one, n, seed=rep)
        a_hat, _ = mle_nhpp1(s)
        z[rep] = math.sqrt(n) * (alpha / a_hat - 1.0)
    z.sort()
    target = scipy.stats.norm.cdf(z)
    grid = np.arange(1, 501) / 500
    d = max(float(np.max(grid - target)), float(np.max(target - (grid - 1 / 500))))
    elapsed = time.perf_counter() - t0
    ok = d < 0.08 and elapsed < 60.0
    report(11, ok, f"normalized exponent error KS distance {d:.4f} in {elapsed:.1f}s")
    assert ok
