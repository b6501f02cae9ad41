"""Each output check passes on a real trace and fails on a corrupted one.

    python3 -m pytest bench/tests -q      (from the repository root)
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from aqgd.harness import ExperimentConfig, run_experiment  # noqa: E402
from aqgd.lqr import random_stable_instance  # noqa: E402
from aqgd.problems import make_quadratic  # noqa: E402

D, KAPPA, SEED, T = 32, 20.0, 3, 400
WINDOW = (20, T)


def _trace(tmp_path, name, **kw):
    cfg = ExperimentConfig(out=str(tmp_path / f"{name}.csv"), **kw)
    run_experiment(cfg)
    return checks.read_trace(cfg.out)


@pytest.fixture(scope="module")
def quad(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("quad")
    prob = make_quadratic(D, KAPPA, seed=SEED)
    ref = checks.quadratic_reference(prob.H, prob.c)
    common = dict(problem="quadratic", d=D, kappa=KAPPA, T=T, seed=SEED)
    return {
        "ref": ref,
        "aqgd": _trace(tmp, "aqgd", algorithm="aqgd", **common),
        "static": _trace(tmp, "static", algorithm="gd-static-quantized", **common),
        "net": _trace(tmp, "net", algorithm="aqgd", quantizer="net", d=2, kappa=4.0,
                      T=200, seed=SEED, problem="quadratic"),
    }


@pytest.fixture(scope="module")
def lqr(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lqr")
    sys_ = random_stable_instance(4, 2, seed=1)
    path = tmp / "sys.txt"
    sys_.save(path)
    tr = _trace(tmp, "lqr", problem="lqr-exact", algorithm="aqgd", system_file=str(path),
                b=6, T=200, seed=1)
    return {"sys": sys_, "trace": tr}


def _copy(tr):
    return {k: v.copy() for k, v in tr.items()}


def test_quadratic_checks_pass_on_a_real_run(quad):
    ref, tr = quad["ref"], quad["aqgd"]
    checks.check_initial_gap(tr["f_gap"][0], ref["gap0"], rtol=1e-9)
    checks.check_nonnegative(tr["f_gap"])
    checks.check_aqgd_bound(tr["f_gap"], ref["kappa"], ref["alpha"], tr["R_t"][0])
    checks.check_bits_linear(tr["bits_cum"], D * checks.rate_threshold_bits(D, ref["kappa"]))
    checks.check_rate_preserved(tr["f_gap"], ref["lam"], ref["xstar_hat"], ref["alpha"],
                                WINDOW, rtol=0.02)


def test_gap_scaled_by_1_01_fails_the_initial_gap(quad):
    with pytest.raises(checks.CheckFailed):
        checks.check_initial_gap(1.01 * quad["aqgd"]["f_gap"][0], quad["ref"]["gap0"], 1e-9)


def test_negative_gap_fails(quad):
    gaps = quad["aqgd"]["f_gap"].copy()
    gaps[50] = -1e-300
    with pytest.raises(checks.CheckFailed):
        checks.check_nonnegative(gaps)


def test_gap_above_the_aqgd_bound_fails(quad):
    ref, tr = quad["ref"], _copy(quad["aqgd"])
    tr["f_gap"][T] = tr["f_gap"][0]
    with pytest.raises(checks.CheckFailed):
        checks.check_aqgd_bound(tr["f_gap"], ref["kappa"], ref["alpha"], tr["R_t"][0])


def test_static_range_slope_fails_rate_preservation(quad):
    ref = quad["ref"]
    with pytest.raises(checks.CheckFailed):
        checks.check_rate_preserved(quad["static"]["f_gap"], ref["lam"], ref["xstar_hat"],
                                    ref["alpha"], WINDOW, rtol=0.02)


def test_bits_off_by_one_frame_fail(quad):
    per_step = D * checks.rate_threshold_bits(D, quad["ref"]["kappa"])
    bits = quad["aqgd"]["bits_cum"].copy()
    bits[123:] += per_step
    with pytest.raises(checks.CheckFailed):
        checks.check_bits_linear(bits, per_step)


def test_net_bits_pass_then_fail_when_a_frame_changes_size(quad):
    gamma = (1.0 - 1.0 / 4.0) / 3.0
    bits = quad["net"]["bits_cum"]
    per_step = checks.check_net_bits(bits, 2, gamma)
    bad = bits.copy()
    bad[100:] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_net_bits(bad, 2, gamma)
    with pytest.raises(checks.CheckFailed):  # frame wider than the packing bound allows
        checks.check_net_bits(np.arange(len(bits)) * 64.0 * per_step, 2, gamma)


def test_lqr_initial_gap_and_potential(lqr):
    s, tr = lqr["sys"], lqr["trace"]
    gap0 = checks.lqr_gap0(s.A, s.B, s.Q, s.R, s.Sigma_w)
    checks.check_initial_gap(tr["f_gap"][0], gap0, rtol=1e-8)
    checks.check_potential_monotone(tr["V_t"])
    with pytest.raises(checks.CheckFailed):
        checks.check_initial_gap(1.01 * tr["f_gap"][0], gap0, rtol=1e-8)
    V = tr["V_t"].copy()
    V[60] = V[59] * (1 + 1e-9)
    with pytest.raises(checks.CheckFailed):
        checks.check_potential_monotone(V)


def test_non_finite_iterate_fails(lqr):
    checks.check_finite(lqr["trace"])
    tr = _copy(lqr["trace"])
    tr["e_norm"][10] = np.inf
    with pytest.raises(checks.CheckFailed):
        checks.check_finite(tr)


def test_batch_without_progress_fails(lqr):
    gaps = lqr["trace"]["f_gap"]
    checks.check_batch_progress([gaps, gaps], gaps[0], 8, ratio=0.8)
    stuck = np.full_like(gaps, gaps[0])
    with pytest.raises(checks.CheckFailed):
        checks.check_batch_progress([gaps, stuck, stuck], gaps[0], 8, ratio=0.8)


def test_tolerance_never_reached_fails():
    assert checks.first_at_tol([4.0, 2.0, 1.0], 0.25) == 2
    with pytest.raises(checks.CheckFailed):
        checks.first_at_tol([4.0, 2.0, 1.5], 0.25)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [["run_repeats", 0.0, 10.0, -1, 1, 0, 0.0],
             ["seed", 1.0, 6.0, 0, 2, 0, 0.0],
             ["seed", 4.0, 9.0, 0, 3, 0, 0.0],
             ["inner", 2.0, 3.0, 1, 2, 0, 0.0]]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.0, 5.0, 1.0])


def test_pool_thread_spans_nest_under_the_call_that_started_the_pool():
    from concurrent.futures import ThreadPoolExecutor

    tr = tracing.Tracer()
    leaf = tr.wrap(lambda x: x, "leaf")
    seed = tr.wrap(lambda x: leaf(x), "seed")

    def batch():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(seed, range(4)))

    assert tr.wrap(batch, "batch")() == [0, 1, 2, 3]
    by_index = {i: s for i, s in enumerate(tr.spans)}
    for s in tr.spans:
        parent = by_index.get(s[3])
        want = {"batch": None, "seed": "batch", "leaf": "seed"}[s[0]]
        assert (parent[0] if parent else None) == want
        if s[0] == "leaf":
            assert parent[4] == s[4]  # same thread as its seed span
