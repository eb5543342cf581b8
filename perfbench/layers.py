"""The package layers the traced run times, and the per-layer metrics
derived from its spans.

A layer is a package module (``runner`` also covers ``config`` and
``cli``).  Spans wrap each module's public callables, plus the private
size-biased sampler so that ``stationary.accept_ratio`` can count the
candidate gaps it draws.

What each layer metric should move (workloads: sw short-window,
lh long-horizon, cw coupling-walk):

- streams.*: sw reps_per_s and task_s_p50; flat on lh and cw.
- laws.*: lh reps_per_s; the variate count on sw.
- clusters.*: lh cpu_s; the point count on sw.
- process.* and kept_ratio (<< 1 on sw, ~1 on lh): sw reps_per_s and
  time_to_se_s, not lh; guard_band_s: setup_s.
- patterns.marked_arrivals and csv_*: lh cpu_s; point_patterns: sw
  reps_per_s.
- stationary.*: sw reps_per_s (stationarity tasks).
- coupling.*: cw cpu_s and task_s_tail; flat on sw and lh.
- estimators.*: sw reps_per_s and time_to_se_s; target_s: setup_s.
- stats.*: sw (KS of stationarity) and cw (flip test) cpu_s.
- runner.*: lh cpu_s.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np

from renewalcluster import (
    cli, clusters, config, coupling, estimators, laws, patterns, process,
    runner, stationary, stats, streams,
)

from harness import self_times

LAYERS = ("streams", "laws", "clusters", "process", "patterns", "stationary",
          "coupling", "estimators", "stats", "runner")


def _size(args, kwargs, out):
    return int(np.size(out))


def _cluster_points(args, kwargs, out):
    return int(np.size(out[1]))


def _kept_generated(args, kwargs, out):
    return len(out), len(out) + out.overflow


def _text_bytes(args, kwargs, out):
    return len(out.encode())


def _walk(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs, out):
        cap = sig.bind(*args, **kwargs)
        cap.apply_defaults()
        steps = cap.arguments["steps_cap"] if out.tau is None else out.tau
        path = len(out.v_path) if hasattr(out, "v_path") else 0
        return steps, out.tau is None, path

    return info


def _n_rep(args, kwargs, out):
    return len(out)


def _bytes_written(args, kwargs, out):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


_LAW_CLASSES = ("Exponential", "Uniform", "GammaLaw", "Mixture", "PoissonCount", "FixedCount")
_CLUSTER_CLASSES = ("EmptyCluster", "FixedOffsetsCluster", "CumulativeStepCluster",
                    "GatedNormalCluster")
_TARGETS = ("theoretical_blackwell_limit", "theoretical_mean_measure",
            "bartlett_lewis_void_probability", "bartlett_lewis_recurrence_cdf",
            "key_renewal_limit")
_SAMPLERS = ("sample_interarrival", "sample_cluster", "sample_delayed_marked_renewal",
             "sample_renewal_cluster_process")


def targets():
    """(layer, module, qualname, info_fn) for every wrapped callable."""
    t = [
        ("streams", streams, "stream_for", None),
        ("streams", streams, "RngStream.generator", None),
        ("streams", streams, "RngStream.substream", None),
    ]
    t += [("laws", laws, f"{c}.sample", _size) for c in _LAW_CLASSES]
    t += [("clusters", clusters, f"{c}.sample_batch", _cluster_points) for c in _CLUSTER_CLASSES]
    t += [("clusters", clusters, "ClusterModel.sample", None),
          ("clusters", clusters, "cluster_radius", None)]
    t += [
        ("process", process, "sample_interarrival", None),
        ("process", process, "sample_cluster", None),
        ("process", process, "sample_delayed_marked_renewal", None),
        ("process", process, "sample_renewal_cluster_process", _kept_generated),
        ("process", process, "guard_band", None),
        ("process", process, "bartlett_lewis_preset", None),
        ("process", process, "gated_cluster_preset", None),
    ]
    t += [
        ("patterns", patterns, "PointPattern.__post_init__", None),
        ("patterns", patterns, "PointPattern.to_csv", _text_bytes),
        ("patterns", patterns, "MarkedArrival.__post_init__", None),
        ("patterns", patterns, "MarkedPattern.__post_init__", None),
        ("patterns", patterns, "MarkedPattern.to_csv", _text_bytes),
    ]
    t += [("patterns", patterns, f, None) for f in ("shift", "count_in", "restrict", "flatten")]
    t += [("stationary", stationary, f, None) for f in stationary.__all__
          if inspect.isfunction(getattr(stationary, f))]
    t += [("stationary", stationary, "_size_biased_gaps", _size)]
    t += [
        ("coupling", coupling, "run_coupling", _walk(coupling.run_coupling)),
        ("coupling", coupling, "post_coupling_agreement",
         _walk(coupling.post_coupling_agreement)),
        ("coupling", coupling, "random_walk_path", None),
        ("coupling", coupling, "rademacher_flip_test", None),
        ("coupling", coupling, "coupling_runs_to_csv", None),
    ]
    t += [("estimators", estimators, f, _n_rep if f == "replicate" else None)
          for f in estimators.__all__ if inspect.isfunction(getattr(estimators, f))]
    t += [
        ("estimators", estimators, "CdfReport.to_csv", None),
        ("estimators", estimators, "RenewalFunctionTable.to_csv", None),
        ("estimators", estimators, "ExperimentReport.to_csv_row", None),
    ]
    t += [("stats", stats, f, None) for f in stats.__all__
          if inspect.isfunction(getattr(stats, f))]
    t += [
        ("runner", runner, "run_experiment", _bytes_written),
        ("runner", config, "parse_kv", None),
        ("runner", config, "build_process_spec", None),
        ("runner", config, "build_experiment_config", None),
        ("runner", cli, "main", None),
    ]
    return t


def layer_metrics(spans, replay_task_prefix: str) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Work counts and self times cover the replayed tasks (task ids starting
    with ``replay_task_prefix``); ``process.guard_band_s`` and
    ``estimators.target_s`` also cover set-up, whose cost they explain.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    incl = defaultdict(float)
    acc = defaultdict(float)
    for i, s in enumerate(spans):
        fn = s.name.split(".", 1)[1]
        dur = s.end - s.start
        parent = spans[s.parent] if s.parent >= 0 else None
        if fn == "guard_band":
            acc["guard_band_s"] += dur
        if fn in _TARGETS and (parent is None or parent.name.split(".", 1)[1] not in _TARGETS):
            acc["target_s"] += dur
        if not (s.task or "").startswith(replay_task_prefix):
            continue
        self_s[s.layer] += selfs[i]
        calls[s.layer] += not fn.startswith("_")
        incl[s.layer] += dur
        if s.layer == "laws" and s.info is not None and (parent is None or parent.layer != "laws"):
            acc["variates"] += s.info
            if parent is not None and parent.name.endswith("_size_biased_gaps"):
                acc["candidates"] += s.info
        elif fn.endswith("sample_batch"):
            acc["points"] += s.info
        elif fn in _SAMPLERS:
            acc["proc_calls"] += 1
            acc["proc_s"] += dur
            if s.info is not None:
                acc["kept"] += s.info[0]
                acc["generated"] += s.info[1]
        elif fn == "PointPattern.__post_init__":
            acc["point_patterns"] += 1
        elif fn == "MarkedArrival.__post_init__":
            acc["marked_arrivals"] += 1
        elif s.layer == "patterns" and fn.endswith("to_csv"):
            acc["csv_s"] += dur
            acc["csv_bytes"] += s.info
        elif fn == "_size_biased_gaps":
            acc["biased"] += s.info
        elif fn in ("run_coupling", "post_coupling_agreement"):
            steps, capped, path = s.info
            acc["walks"] += 1
            acc["walk_s"] += dur
            acc["steps"] += steps
            acc["capped"] += capped
            acc["path_points"] += path
        elif fn == "replicate":
            acc["reps"] += s.info
        elif fn == "run_experiment":
            acc["tasks"] += 1
            acc["bytes_written"] += s.info

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    m["streams.calls"] = (calls["streams"], "count")
    m["streams.us_per_call"] = (ratio(incl["streams"], calls["streams"], 1e6), "us")
    m["laws.variates"] = (int(acc["variates"]), "count")
    m["laws.ns_per_variate"] = (ratio(self_s["laws"], acc["variates"], 1e9), "ns")
    m["clusters.points"] = (int(acc["points"]), "count")
    m["clusters.ns_per_point"] = (ratio(self_s["clusters"], acc["points"], 1e9), "ns")
    m["process.calls"] = (int(acc["proc_calls"]), "count")
    m["process.us_per_call"] = (ratio(acc["proc_s"], acc["proc_calls"], 1e6), "us")
    m["process.kept_ratio"] = (ratio(acc["kept"], acc["generated"]), "ratio")
    m["process.guard_band_s"] = (acc["guard_band_s"], "s")
    m["patterns.point_patterns"] = (int(acc["point_patterns"]), "count")
    m["patterns.marked_arrivals"] = (int(acc["marked_arrivals"]), "count")
    m["patterns.csv_s"] = (acc["csv_s"], "s")
    m["patterns.csv_bytes"] = (int(acc["csv_bytes"]), "bytes")
    m["stationary.calls"] = (calls["stationary"], "count")
    m["stationary.accept_ratio"] = (ratio(acc["biased"], acc["candidates"]), "ratio")
    m["coupling.steps"] = (int(acc["steps"]), "count")
    m["coupling.ns_per_step"] = (ratio(acc["walk_s"], acc["steps"], 1e9), "ns")
    m["coupling.path_points"] = (int(acc["path_points"]), "count")
    m["coupling.capped_frac"] = (ratio(acc["capped"], acc["walks"]), "ratio")
    m["estimators.reps"] = (int(acc["reps"]), "count")
    m["estimators.target_s"] = (acc["target_s"], "s")
    m["stats.calls"] = (calls["stats"], "count")
    m["runner.tasks"] = (int(acc["tasks"]), "count")
    m["runner.bytes_written"] = (int(acc["bytes_written"]), "bytes")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m
