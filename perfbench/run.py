"""renewalcluster benchmark: end-to-end Monte Carlo cost per workload, and
per-layer timings from a separate traced run.

    python3 perfbench/run.py --workload short-window --seed 1 --trace 0

Each workload is a closed loop in one process: a task is one public call
(``config`` -> ``runner.run_experiment``, or a sampler of ``process``,
``stationary`` or ``coupling``) issued after the previous one returned.
Tasks come in rounds, whose inputs derive from ``--seed``; rounds run until
``--seconds`` have passed.  Every task's output is checked, and one task
per workload is run twice and compared byte for byte.

``--seconds`` defaults to BENCHMARK.json's run_seconds.  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` runs the same untraced loop,
then replays its first rounds, each task once untraced and once with a span
around every public callable of each package layer (see layers.py), and
prints the per-layer metrics; spans are written to .bench_build/perfbench/.
The last stdout line is the result object; the lines above it give the
environment, the tail percentile and every failed task.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import Ledger, Tracer

T_START = perf_counter()

# One BLAS/OpenMP thread: the loop is single-process on a 2-core budget.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("short-window", "long-horizon", "coupling-walk")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def setup_child(args) -> float:
    """Set-up time of a fresh process running this workload's set-up only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def commit() -> str | None:
    """The checked-out commit, or None outside a git work tree of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "renewalcluster").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit(), "src_sha256": digest.hexdigest(),
    }


def select(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists in ``section``, with its units.

    ``metrics`` maps name -> (value, unit or None); a listed metric that
    was not measured, or measured in another unit, is an error.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    out = {}
    for m in spec:
        value, unit = metrics[m["name"]]
        if unit not in (None, m["unit"]):
            raise ValueError(f"{m['name']} measured in {unit}, listed in {m['unit']}")
        if isinstance(value, float):
            value = float(value)  # a numpy scalar prints as np.float64(...)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "renewalcluster" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'renewalcluster'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    out = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    ledger = Ledger()
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    tracer = None
    if args.trace:
        tracer = Tracer("renewalcluster")
        tracer.install(layers.targets())
        tracer.task = "setup"
    workload.setup()
    setup_s = perf_counter() - T_START
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        workloads.determinism(workload, ledger)
        # Further set-up samples are spread over the run, between rounds, so
        # that one slow spell of the machine does not set their median.
        samples = [setup_s]
        due = [args.seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]

        def between_rounds(elapsed):
            while tracer is None and due and elapsed >= due[0]:
                due.pop(0)
                samples.append(setup_child(args))

        rounds = workloads.run_loop(workload, ledger, args.seconds, between_rounds)
        metrics, notes = workload.metrics(rounds)
        if tracer is None:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            samples += [setup_child(args) for _ in due]
            metrics["setup_s"] = statistics.median(samples)
            notes["setup_samples_s"] = samples
            metrics = {k: (v, None) for k, v in metrics.items()}
        else:
            # The first rounds are replayed task by task, each task untraced
            # and traced back to back (which goes first alternates), so that
            # trace.overhead_frac compares runs at the same machine speed.
            replay = min(len(rounds), workload.replay_rounds)
            plain_s = traced_s = 0.0
            for r in range(replay):
                for i, (plain, traced) in enumerate(zip(workload.tasks(r), workload.tasks(r))):
                    for on in ((False, True) if (r + i) % 2 == 0 else (True, False)):
                        if on:
                            tracer.install(layers.targets())
                            tracer.task = f"replay-{traced[0]}"
                            traced_s += ledger.run(f"{traced[0]}-traced", *traced[1:]).seconds
                            tracer.uninstall()
                        else:
                            plain_s += ledger.run(f"{plain[0]}-untraced", *plain[1:]).seconds
            per_layer = layers.layer_metrics(tracer.spans, "replay-")
            per_layer["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
            metrics = per_layer
            notes["replayed_rounds"] = replay
            notes["spans"] = len(tracer.spans)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result = select(metrics, "per_layer" if args.trace else "end_to_end")
    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        with gzip.open(WORK / f"spans-{stem}.csv.gz", "wt", encoding="utf-8") as fh:
            tracer.write(fh)
    env = environment(args)
    failures = [{"task": r.task_id, "kind": r.kind, "reason": r.reason}
                for r in ledger.failures]
    line = {"correct": not failures, "attempted": ledger.attempted,
            "failed": len(failures), "metrics": result}
    record = {"env": env, "notes": notes, "fail_frac": ledger.fail_frac,
              "failures": failures, **line}
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print("notes " + json.dumps(notes))
    print(f"fail_frac {ledger.fail_frac!r} ratio ({len(failures)} of {ledger.attempted} tasks)")
    for f in failures:
        print(f"FAILED {f['task']} ({f['kind']}): {f['reason']}")
    for k, m in result.items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
