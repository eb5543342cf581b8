"""Experiment runner: executes a configured experiment, writes its
artifacts plus a reproducibility manifest, and returns the exit status.

``KINDS`` is the one table of experiment kinds, ``simulate`` (one
realization, ``pattern.csv``) among them: for each, its parameter schema,
whether it simulates a process spec, whether it takes ``n_rep``, and its
handler.  ``config.build_experiment_config`` validates against it and
``run_experiment`` dispatches from it, so a new kind is one entry here.
``config`` reads every key, process keys included, in the schema format
of ``Kind.params``.
The scalar kinds (window mean, elementary ratio, void probability, key
renewal sum) write one ``report.csv`` format, ``ExperimentReport.CSV_HEADER``,
and are judged at ACCEPT_SE standard errors.

Exit statuses: 0 all declared targets inside their acceptance bands,
1 acceptance failure, 2 configuration error, 3 runtime sampling error.
Artifacts are UTF-8 CSV with LF line endings.  Replications run in blocks
of B rows keyed by block index (B is a function of the config, recorded in
the manifest), so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .coupling import (
    coupling_runs_to_csv,
    post_coupling_agreement,
    rademacher_flip_test,
    run_coupling,
)
from .errors import RenewalClusterError
from .estimators import (
    ExperimentReport,
    StepFunction,
    estimate_elementary_ratio,
    estimate_forward_recurrence_cdf,
    estimate_key_renewal,
    estimate_renewal_function,
    estimate_void_probability,
    estimate_window_mean,
    replicate,
)
from .patterns import csv_text
from .process import sample_renewal_cluster_process
from .stationary import stationary_rows
from .stats import two_sample_ks
from .streams import stream_for

if TYPE_CHECKING:  # config imports this module for KINDS
    from .config import ExperimentConfig

__all__ = ["run_experiment", "KINDS", "STATUS_OK", "STATUS_FAIL", "STATUS_CONFIG", "STATUS_RUNTIME"]

STATUS_OK = 0
STATUS_FAIL = 1
STATUS_CONFIG = 2
STATUS_RUNTIME = 3

# acceptance band half-width in standard errors for target-bearing reports
ACCEPT_SE = 4.0


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


def _manifest(cfg: ExperimentConfig, raw: dict | None, computed: dict) -> str:
    head = {"version": __version__, "experiment": cfg.kind, "seed": cfg.seed,
            "n_rep": cfg.n_rep, **computed}
    lines = [f"{k} = {v}" for k, v in head.items() if v is not None]
    lines += [f"{k} = {raw[k]}" for k in sorted(raw or {})]
    return "\n".join(lines) + "\n"


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    raw_config: dict | None = None,
) -> int:
    """Execute the configured experiment and write artifacts into out_dir.

    Once the handler has returned, or raised a RenewalClusterError (written
    to error.txt), the files an earlier run left there under the runner's
    own names (manifest.txt, error.txt, every kind's artifacts) are removed
    and the new ones written; no other file is touched.  A value the
    handler rejects (ValueError) leaves out_dir as it was."""
    rng = stream_for(cfg.seed, cfg.kind)
    try:
        status, artifacts, computed = KINDS[cfg.kind].run(cfg.spec, cfg.params, cfg.n_rep, rng)
        artifacts["manifest.txt"] = _manifest(cfg, raw_config, computed)
    except RenewalClusterError as exc:
        status, artifacts = STATUS_RUNTIME, {"error.txt": f"{type(exc).__name__}: {exc}\n"}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in {"manifest.txt", "error.txt", *(a for k in KINDS.values() for a in k.artifacts)}:
        (out / name).unlink(missing_ok=True)
    for name, text in artifacts.items():
        _write(out / name, text)
    return status


def _reported(params, estimator):
    """Kind writing report.csv from an estimator that takes (spec, *params
    in schema order, n_rep, rng) and returns an ExperimentReport, judged at
    ACCEPT_SE."""
    def run(spec, p, n_rep, rng):
        report = estimator(spec, *p.values(), n_rep, rng)
        ok = report.within(ACCEPT_SE)
        status = STATUS_OK if ok is None or ok else STATUS_FAIL
        text = ExperimentReport.CSV_HEADER + "\n" + report.to_csv_row() + "\n"
        return status, {"report.csv": text}, {"block": report.block}
    return Kind(params, ("report.csv",), run)


def _recurrence_cdf(spec, p, n_rep, rng):
    rep = estimate_forward_recurrence_cdf(spec, p["t"], np.array(p["grid"]), n_rep, rng)
    gap = rep.max_target_gap
    status = STATUS_OK if gap is None or gap < p["tol"] else STATUS_FAIL
    return status, {"cdf.csv": rep.to_csv()}, {"block": rep.block}


def _renewal_function(spec, p, n_rep, rng):
    tab = estimate_renewal_function(spec, np.array(p["grid"]), n_rep, rng)
    return STATUS_OK, {"renewal.csv": tab.to_csv()}, {"block": tab.block}


def _coupling(spec, p, n_rep, rng):
    eps, cap = p["epsilon"], p["steps_cap"]
    runs, agreement = [], None
    for r in range(n_rep):
        stream = rng.substream(r)
        runs.append(run_coupling(spec, eps, cap, stream))
        # agreement is checked on the first run that coupled, reading on
        # from its walk; with none there is nothing to check and the
        # coupled fraction alone decides
        if agreement is None and not runs[-1].capped:
            agreement = post_coupling_agreement(spec, eps, p["k_checks"], stream, steps_cap=cap)
    finite = sum(1 for r in runs if not r.capped) / len(runs)
    agreed = agreement is None or agreement.passed
    ok = finite >= p["min_finite"] and agreed
    return (STATUS_OK if ok else STATUS_FAIL), {"coupling.csv": coupling_runs_to_csv(runs)}, {}


def _stationarity_check(spec, p, n_rep, rng):
    shifts = p["shifts"]
    jobs = [stationary_rows(spec, s, s + p["x"]) for s in shifts]
    block = min(b for _, b in jobs)  # that of the widest span
    samples = [
        replicate(fn, n_rep, rng.substream(i), block)[:, 0]
        for i, (fn, _) in enumerate(jobs)
    ]
    tests = [two_sample_ks(samples[0], s, p["alpha"]) for s in samples[1:]]
    rows = [(shifts[0], shift, ks.distance, ks.critical_value, ks.reject)
            for shift, ks in zip(shifts[1:], tests)]
    text = csv_text("shift_a,shift_b,distance,critical_value,reject", *zip(*rows))
    any_reject = any(ks.reject for ks in tests)
    return (STATUS_FAIL if any_reject else STATUS_OK), {"stationarity.csv": text}, {"block": block}


def _flip_test(spec, p, n_rep, rng):
    stop = rademacher_flip_test(
        p["n"], n_rep, rng.substream(0), p["ones_needed"], "stopping", p["alpha"]
    )
    peek = rademacher_flip_test(
        p["n"], n_rep, rng.substream(1), p["ones_needed"], "peek_ahead", p["alpha"]
    )
    ok = (not stop.reject) and peek.reject
    rows = [(rule, ks.distance, ks.critical_value, ks.reject)
            for rule, ks in (("stopping", stop), ("peek_ahead", peek))]
    text = csv_text("rule,distance,critical_value,reject", *zip(*rows))
    return (STATUS_OK if ok else STATUS_FAIL), {"flip.csv": text}, {}


def _simulate(spec, p, n_rep, rng):
    pattern = sample_renewal_cluster_process(spec, p["window.lo"], p["window.hi"], rng)
    head = {"points": len(pattern), "overflow": pattern.overflow}
    return STATUS_OK, {"pattern.csv": pattern.to_csv()}, head


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _fraction(closed: bool):
    """Parser of a verdict's level: a float in (0, 1), or (0, 1] when ``closed``."""
    def parse(s: str) -> float:
        if not (0.0 < (x := _finite(s)) < 1.0 or (closed and x == 1.0)):
            raise ValueError(f"must lie in (0, 1{']' if closed else ')'}")
        return x
    return parse


def _floats(s: str):
    return tuple(_finite(p) for p in s.split(",") if p.strip())


def _shifts(s: str):
    shifts = _floats(s)
    if len(shifts) < 2:
        raise ValueError("need at least two shifts to compare")
    return shifts


def _pieces(s: str) -> StepFunction:
    # "a:b:h;a:b:h" step-function pieces
    out = []
    for part in s.split(";"):
        a, b, h = part.split(":")
        out.append((_finite(a), _finite(b), _finite(h)))
    return StepFunction(tuple(out))


class Kind(NamedTuple):
    """An experiment kind.  ``params`` maps each parameter to its parser
    (required) or to (parser, default) (optional); ``artifacts`` names the
    files it writes; ``run(spec, params, n_rep, rng)`` returns (exit status,
    artifacts by file name, the manifest entries it computed, such as the
    block size).  A kind that is not ``replicated`` takes no ``n_rep`` key
    and is run with n_rep None."""

    params: dict
    artifacts: tuple
    run: Callable
    needs_spec: bool = True
    replicated: bool = True


KINDS = {
    "simulate": Kind(
        {"window.lo": _finite, "window.hi": _finite}, ("pattern.csv",), _simulate,
        replicated=False,
    ),
    "window_mean": _reported({"t": _finite, "x": _finite}, estimate_window_mean),
    "elementary": _reported({"t": _finite}, estimate_elementary_ratio),
    "recurrence_cdf": Kind(
        {"t": _finite, "grid": _floats, "tol": (_fraction(False), 0.01)}, ("cdf.csv",),
        _recurrence_cdf,
    ),
    "void_prob": _reported({"t": _finite, "x": _finite}, estimate_void_probability),
    "renewal_function": Kind({"grid": _floats}, ("renewal.csv",), _renewal_function),
    "key_renewal": _reported({"t": _finite, "g": _pieces}, estimate_key_renewal),
    "coupling": Kind(
        {"epsilon": _finite, "steps_cap": (int, 10**7), "k_checks": (int, 100),
         "min_finite": (_fraction(True), 0.99)}, ("coupling.csv",), _coupling,
    ),
    "stationarity_check": Kind(
        {"shifts": _shifts, "x": (_finite, 1.0), "alpha": (_fraction(False), 0.01)},
        ("stationarity.csv",),
        _stationarity_check,
    ),
    "flip_test": Kind(
        {"n": int, "ones_needed": (int, 2), "alpha": (_fraction(False), 0.01)}, ("flip.csv",),
        _flip_test, needs_spec=False,
    ),
}
