"""Experiment runner: executes a configured experiment, writes its report
CSV plus a reproducibility manifest, and returns the exit status.

Exit statuses: 0 all declared targets inside their acceptance bands,
1 acceptance failure, 2 configuration error, 3 runtime sampling error.
Artifacts are UTF-8 CSV with LF line endings.  Replications run in blocks
of B rows keyed by block index (B is a function of the config, recorded in
the manifest), so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .coupling import (
    coupling_runs_to_csv,
    post_coupling_agreement,
    rademacher_flip_test,
    run_coupling,
)
from .errors import ConfigError, RenewalClusterError
from .estimators import (
    ExperimentReport,
    StepFunction,
    _bartlett_lewis_params,
    bartlett_lewis_recurrence_cdf,
    estimate_elementary_ratio,
    estimate_forward_recurrence_cdf,
    estimate_renewal_function,
    estimate_void_probability,
    estimate_window_mean,
    key_renewal_convolve,
    key_renewal_limit,
    replicate,
)
from .stationary import stationary_rows
from .stats import two_sample_ks
from .streams import stream_for

__all__ = ["run_experiment", "STATUS_OK", "STATUS_FAIL", "STATUS_CONFIG", "STATUS_RUNTIME"]

STATUS_OK = 0
STATUS_FAIL = 1
STATUS_CONFIG = 2
STATUS_RUNTIME = 3

# acceptance band half-width in standard errors for target-bearing reports
ACCEPT_SE = 4.0


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


def _manifest(cfg: ExperimentConfig, raw: dict | None, block: int | None) -> str:
    head = {"version": __version__, "experiment": cfg.kind, "seed": cfg.seed,
            "n_rep": cfg.n_rep, "block": block}
    lines = [f"{k} = {v}" for k, v in head.items() if v is not None]
    lines += [f"{k} = {raw[k]}" for k in sorted(raw or {})]
    return "\n".join(lines) + "\n"


def _report_result(report: ExperimentReport):
    ok = report.within(ACCEPT_SE)
    status = STATUS_OK if ok is None or ok else STATUS_FAIL
    text = ExperimentReport.CSV_HEADER + "\n" + report.to_csv_row() + "\n"
    return status, {"report.csv": text}, report.block


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    raw_config: dict | None = None,
) -> int:
    """Execute the configured experiment and write artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = stream_for(cfg.seed, cfg.kind)
    p = cfg.params
    try:
        status, artifacts, block = _dispatch(cfg, rng, p)
    except ConfigError:
        raise
    except RenewalClusterError as exc:
        _write(out / "error.txt", f"{type(exc).__name__}: {exc}\n")
        return STATUS_RUNTIME
    for name, text in artifacts.items():
        _write(out / name, text)
    _write(out / "manifest.txt", _manifest(cfg, raw_config, block))
    return status


def _dispatch(cfg, rng, p):
    """(exit status, artifacts by file name, block size or None)."""
    kind = cfg.kind
    spec = cfg.spec
    if kind == "window_mean":
        return _report_result(estimate_window_mean(spec, p["t"], p["x"], cfg.n_rep, rng))

    if kind == "elementary":
        return _report_result(estimate_elementary_ratio(spec, p["t"], cfg.n_rep, rng))

    if kind == "void_prob":
        return _report_result(estimate_void_probability(spec, p["t"], p["x"], cfg.n_rep, rng))

    if kind == "recurrence_cdf":
        grid = np.array(p["grid"])
        params = _bartlett_lewis_params(spec)
        target = None if params is None else bartlett_lewis_recurrence_cdf(*params, grid)
        rep = estimate_forward_recurrence_cdf(spec, p["t"], grid, cfg.n_rep, rng, target=target)
        gap = rep.max_target_gap
        status = STATUS_OK if gap is None or gap < p["tol"] else STATUS_FAIL
        return status, {"cdf.csv": rep.to_csv()}, rep.block

    if kind == "renewal_function":
        tab = estimate_renewal_function(spec, np.array(p["grid"]), cfg.n_rep, rng)
        return STATUS_OK, {"renewal.csv": tab.to_csv()}, tab.block

    if kind == "key_renewal":
        g_fn = StepFunction(p["g"])
        tab = estimate_renewal_function(spec, np.array(p["grid"]), cfg.n_rep, rng)
        value = key_renewal_convolve(tab, g_fn, p["t"])
        limit = key_renewal_limit(spec, g_fn)
        ok = abs(value - limit) <= p["rel_tol"] * abs(limit)
        text = "value,limit,rel_tol\n" + f"{value!r},{limit!r},{p['rel_tol']!r}\n"
        return (STATUS_OK if ok else STATUS_FAIL), {
            "report.csv": text,
            "renewal.csv": tab.to_csv(),
        }, tab.block

    if kind == "coupling":
        runs = [
            run_coupling(spec, p["epsilon"], p["steps_cap"], rng.substream(r))
            for r in range(cfg.n_rep)
        ]
        finite = sum(1 for r in runs if not r.capped) / len(runs)
        agree = post_coupling_agreement(
            spec, p["epsilon"], p["k_checks"], rng.substream(cfg.n_rep)
        )
        ok = finite >= p["min_finite"] and agree.passed
        return (STATUS_OK if ok else STATUS_FAIL), {
            "coupling.csv": coupling_runs_to_csv(runs)
        }, None

    if kind == "stationarity_check":
        shifts = p["shifts"]
        jobs = [stationary_rows(spec, s, s + p["x"]) for s in shifts]
        block = min(b for _, b in jobs)  # that of the widest span
        samples = [
            replicate(fn, cfg.n_rep, rng.substream(i), block)[:, 0]
            for i, (fn, _) in enumerate(jobs)
        ]
        lines = ["shift_a,shift_b,distance,critical_value,reject"]
        any_reject = False
        for i in range(1, len(shifts)):
            ks = two_sample_ks(samples[0], samples[i], p["alpha"])
            any_reject = any_reject or ks.reject
            lines.append(
                f"{shifts[0]!r},{shifts[i]!r},{ks.distance!r},"
                f"{ks.critical_value!r},{str(ks.reject).lower()}"
            )
        return (STATUS_FAIL if any_reject else STATUS_OK), {
            "stationarity.csv": "\n".join(lines) + "\n"
        }, block

    if kind == "flip_test":
        stop = rademacher_flip_test(
            p["n"], cfg.n_rep, rng.substream(0), p["ones_needed"], "stopping", p["alpha"]
        )
        peek = rademacher_flip_test(
            p["n"], cfg.n_rep, rng.substream(1), p["ones_needed"], "peek_ahead", p["alpha"]
        )
        ok = (not stop.reject) and peek.reject
        lines = [
            "rule,distance,critical_value,reject",
            f"stopping,{stop.distance!r},{stop.critical_value!r},{str(stop.reject).lower()}",
            f"peek_ahead,{peek.distance!r},{peek.critical_value!r},{str(peek.reject).lower()}",
        ]
        return (STATUS_OK if ok else STATUS_FAIL), {"flip.csv": "\n".join(lines) + "\n"}, None

    raise ConfigError(f"unhandled experiment kind {kind!r}")
