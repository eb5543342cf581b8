"""End-to-end statistical acceptance suite.

Each test prints one PASS/FAIL line for its criterion.  Seeds are frozen;
sample sizes follow the stated tolerances, so the whole module runs in a
few minutes single-threaded.
"""

import dataclasses

import numpy as np
import pytest
from scipy.stats import beta

from renewalcluster import (
    Exponential,
    PoissonCount,
    StepFunction,
    Uniform,
    bartlett_lewis_preset,
    bartlett_lewis_recurrence_cdf,
    estimate_elementary_ratio,
    estimate_forward_recurrence_cdf,
    estimate_key_renewal,
    estimate_void_probability,
    estimate_window_mean,
    gated_cluster_preset,
    post_coupling_agreement,
    rademacher_flip_test,
    sample_size_biased_gaps,
    sample_stationary_cluster_process,
    stream_for,
    theoretical_blackwell_limit,
    two_sample_ks,
)
from renewalcluster.config import build_experiment_config, parse_kv
from renewalcluster.estimators import ExperimentReport, _report, _window_rows, replicate
from renewalcluster.runner import run_experiment

GATED_RATE = 0.56  # 1.4 points per cluster / 2.5 mean gap

BL_SPEC = bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0))


def _tail_fit(taus, horizon):
    """Least-squares slope of log P(tau > n) on log n at the distinct
    finite taus from the median walk up, and the P(tau > horizon) that an
    n^(-1/2) tail fitted to the same points implies.  A capped walk (None)
    has tau > n at every n."""
    finite = np.sort([t for t in taus if t is not None])
    median = np.median([horizon if t is None else t for t in taus])
    ns = np.unique(finite[finite >= max(median, 1)])
    surv = (len(taus) - np.searchsorted(finite, ns, side="right")) / len(taus)
    x, y = np.log(ns[surv > 0]), np.log(surv[surv > 0])
    slope = np.polyfit(x, y, 1)[0]
    implied = np.exp(np.mean(y + 0.5 * x)) / np.sqrt(horizon)
    return slope, implied, int(ns[0])


def _verdict(num, description, ok):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


class TestAcceptance:
    def test_01_window_mean_blackwell(self):
        spec = gated_cluster_preset()
        rep = estimate_window_mean(
            spec, 500.0, 1.0, 10_000, stream_for(0, "acceptance-window-mean")
        )
        ok = rep.ci_low <= GATED_RATE <= rep.ci_high
        _verdict(
            1,
            f"window mean {rep.estimate:.4f} CI [{rep.ci_low:.4f}, {rep.ci_high:.4f}] "
            f"contains {GATED_RATE}",
            ok,
        )

    def test_02_elementary_ratio(self):
        spec = gated_cluster_preset()
        rep = estimate_elementary_ratio(
            spec, 10_000.0, 200, stream_for(0, "acceptance-elementary")
        )
        ok = abs(rep.estimate - GATED_RATE) <= 0.01
        _verdict(2, f"count(0,1e4]/1e4 = {rep.estimate:.5f} within 0.01 of {GATED_RATE}", ok)

    def test_03_void_probability(self):
        rep = estimate_void_probability(
            BL_SPEC, 200.0, 1.0, 100_000, stream_for(0, "acceptance-void")
        )
        ok = rep.within(4.0)
        _verdict(
            3,
            f"void frequency {rep.estimate:.5f} within 4 SE ({rep.std_error:.5f}) "
            f"of {rep.target:.5f}",
            ok,
        )

    def test_04_recurrence_cdf(self):
        grid = np.linspace(0.0, 3.0, 20)
        target = bartlett_lewis_recurrence_cdf(
            1.0, 1.0, lambda y: np.exp(-y), grid
        )
        rep = estimate_forward_recurrence_cdf(
            BL_SPEC, 200.0, grid, 100_000, stream_for(0, "acceptance-recurrence")
        )
        assert rep.target == pytest.approx(target, abs=1e-12)
        gap = rep.max_target_gap
        ok = gap < 0.01
        _verdict(4, f"max CDF discrepancy {gap:.5f} < 0.01 over 20-point grid", ok)

    def test_05_window_mean_with_parents(self):
        rep = estimate_window_mean(
            BL_SPEC, 200.0, 1.0, 10_000, stream_for(0, "acceptance-bl-window")
        )
        # rate * (E L + 1) * x = 2.0
        ok = rep.ci_low <= 2.0 <= rep.ci_high and rep.target == pytest.approx(2.0)
        _verdict(
            5,
            f"parent-inclusive window mean CI [{rep.ci_low:.4f}, {rep.ci_high:.4f}] "
            "contains 2.0",
            ok,
        )

    def test_06_stationarity_shifts(self):
        spec = gated_cluster_preset()
        rng = stream_for(0, "acceptance-stationarity")
        shifts = (0.0, 37.7, 200.0)
        samples = []
        for i, s in enumerate(shifts):
            sub = rng.substream(i)
            samples.append(
                np.array(
                    [
                        len(
                            sample_stationary_cluster_process(
                                spec, s, s + 1.0, sub.substream(r)
                            )
                        )
                        for r in range(10_000)
                    ],
                    dtype=np.float64,
                )
            )
        checks = [
            two_sample_ks(samples[0], samples[i], alpha=0.01)
            for i in range(1, len(shifts))
        ]
        ok = not any(c.reject for c in checks)
        dists = ", ".join(f"{c.distance:.4f}<{c.critical_value:.4f}" for c in checks)
        _verdict(6, f"KS of window counts at shifts {shifts}: {dists}", ok)

    def test_06_control_zero_delay_rejects(self):
        # negative control: with zero delay the gated process starts at an
        # arrival without a cluster, so it is not stationary and the same
        # KS must tell its windows at shifts 0 and 200 apart
        spec = dataclasses.replace(gated_cluster_preset(), delay=None)
        rng = stream_for(0, "acceptance-stationarity-control")
        samples = []
        for i, s in enumerate((0.0, 200.0)):
            fn, block = _window_rows(spec, s, s + 1.0)
            samples.append(replicate(fn, 10_000, rng.substream(i), block)[:, 0])
        ks = two_sample_ks(samples[0], samples[1], alpha=0.01)
        print(f"CONTROL 6: zero-delay process at shifts (0, 200): KS "
              f"{ks.distance:.4f} against {ks.critical_value:.4f}")
        assert ks.reject

    def test_07_size_biasing_identity(self):
        law = Uniform(0.0, 5.0)
        xs = sample_size_biased_gaps(law, 200_000, stream_for(0, "acceptance-size-bias"))
        se_mean = xs.std() / np.sqrt(xs.size)
        ok_mean = abs(xs.mean() - 10.0 / 3.0) <= 4 * se_mean
        # E 1{X* > 1} = E[X 1{X > 1}] / E X = 2.4 / 2.5
        ind = (xs > 1.0).astype(np.float64)
        se_ind = ind.std() / np.sqrt(ind.size)
        ok_ind = abs(ind.mean() - 0.96) <= 4 * se_ind
        _verdict(
            7,
            f"size-biased mean {xs.mean():.4f} vs 10/3 and "
            f"P(X*>1) {ind.mean():.4f} vs 0.96, both within 4 SE",
            ok_mean and ok_ind,
        )

    def test_08_coupling(self):
        spec = gated_cluster_preset()
        rng = stream_for(1, "acceptance-coupling")
        reports = [
            post_coupling_agreement(
                spec, 0.1, 100, rng.substream(r), steps_cap=10**7
            )
            for r in range(1000)
        ]
        finite = sum(not r.capped for r in reports)
        agree_ok = all(r.passed for r in reports if not r.capped)
        ok = finite >= 990 and agree_ok
        capped = 1000 - finite
        # upper end of the 95% Clopper-Pearson interval for the capped fraction
        upper = beta.ppf(0.975, capped + 1, 1000 - capped) if capped < 1000 else 1.0
        slope, implied, n_from = _tail_fit([r.tau for r in reports], 10**7)
        _verdict(
            8,
            f"{finite}/1000 runs coupled within the cap ({capped} capped, 95% "
            f"Clopper-Pearson upper bound {upper:.4f} on the capped fraction, "
            f"allowance 10/1000; log P(tau > n) on log n has slope {slope:.3f} "
            f"for n >= {n_from}, and an n^(-1/2) tail there implies "
            f"P(tau > 10^7) = {implied:.4f}); post-coupling agreement holds at 100 indices "
            f"on every finite run",
            ok,
        )

    def test_09_flip_test(self):
        rng = stream_for(0, "acceptance-flip")
        stop = rademacher_flip_test(20, 100_000, rng.substream(0), rule="stopping")
        peek = rademacher_flip_test(20, 100_000, rng.substream(1), rule="peek_ahead")
        ok = (not stop.reject) and peek.reject
        _verdict(
            9,
            f"stopping-time flip accepted ({stop.distance:.4f} < "
            f"{stop.critical_value:.4f}), peek-ahead control rejected "
            f"({peek.distance:.4f} > {peek.critical_value:.4f})",
            ok,
        )

    def test_10_key_renewal(self):
        spec = gated_cluster_preset()
        rng = stream_for(0, "acceptance-key-renewal")
        g = StepFunction(((0.0, 1.0, 1.0), (2.0, 4.0, 0.5)))
        rep = estimate_key_renewal(spec, 500.0, g, 50_000, rng)
        ok_value = abs(rep.estimate - rep.target) <= 0.02 * rep.target
        # negative control: at t = 1 the process is far from its limit, so
        # the same 2% rule must reject
        unit = StepFunction(((0.0, 1.0, 1.0),))
        control = estimate_key_renewal(spec, 1.0, unit, 50_000, rng)
        rejected = abs(control.estimate - control.target) > 0.02 * control.target
        z = (control.estimate - control.target) / control.std_error
        _verdict(
            10,
            f"key renewal sum {rep.estimate:.4f} within 2% of limit {rep.target:.4f}; "
            f"control g = 1[0, 1) at t = 1 rejected ({control.estimate:.4f} against "
            f"{control.target:.4f}, z = {z:.0f})",
            ok_value and rejected,
        )

    def test_11_determinism(self, tmp_path, reverse_blocks):
        raw = parse_kv(
            "experiment = window_mean\n"
            "interarrival.kind = uniform\ninterarrival.lo = 0\n"
            "interarrival.hi = 5\ncluster.kind = gated_normal\n"
            "delay.kind = same\nt = 100\nx = 1\nn_rep = 2000\nseed = 0\n"
        )
        cfg = build_experiment_config(raw)
        run_experiment(cfg, tmp_path / "a", raw_config=raw)
        run_experiment(cfg, tmp_path / "b", raw_config=raw)
        rerun_same = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in ("report.csv", "manifest.txt")
        )
        # the blocks run last to first and reassembled by index give the
        # same bytes as run_experiment
        rng = stream_for(cfg.seed, cfg.kind)
        fn, block = _window_rows(cfg.spec, 100.0, 101.0)
        out = reverse_blocks(fn, cfg.n_rep, rng, block)
        target = theoretical_blackwell_limit(cfg.spec, 1.0)
        rep = _report(out[:, 0], out[:, 1], target, rng, block)
        text = ExperimentReport.CSV_HEADER + "\n" + rep.to_csv_row() + "\n"
        order_same = (tmp_path / "a" / "report.csv").read_bytes() == text.encode()
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        _verdict(
            11,
            f"rerun byte-identical; {-(-cfg.n_rep // block)} blocks of {block} run in "
            "reverse order reassemble to the same report.csv",
            rerun_same and order_same and block < cfg.n_rep
            and f"block = {block}\n" in manifest,
        )
