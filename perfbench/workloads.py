"""The benchmark's three workloads: their set-up, rounds of tasks, output
checks and end-to-end metrics.

Importing this module imports renewalcluster, so run.py imports it only
after checking that the package source is present.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from renewalcluster import (config, coupling, estimators, patterns, process, runner,
                            streams)

from harness import expect, read_csv, tail, time_to_se

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

GATED = ("interarrival.kind = uniform\ninterarrival.lo = 0\ninterarrival.hi = 5\n"
         "cluster.kind = gated_normal\ndelay.kind = same\n")
BARTLETT_LEWIS = ("interarrival.kind = exponential\ninterarrival.rate = 1\n"
                  "cluster.kind = cumulative_steps\ncluster.size.kind = poisson\n"
                  "cluster.size.rate = 1\ncluster.step.kind = exponential\n"
                  "cluster.step.rate = 1\ninclude_parents = true\n")
REPORT_HEADER = "estimate,std_error,ci_low,ci_high,n_rep,target,seed,truncation_tally"


def task_seed(seed: int, round_no: int, kind: str) -> int:
    digest = hashlib.blake2b(f"{seed}/{round_no}/{kind}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class Workload:
    """One workload: set-up, its rounds of tasks, and its metrics."""

    replay_rounds = 1

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def task_dir(self, task_id: str) -> Path:
        path = self.out / task_id
        shutil.rmtree(path, ignore_errors=True)
        return path

    def experiment(self, task_id, kind, raw_text, seed, check):
        """A run_experiment task; ``check(path, status, raw)`` reads its artifacts."""
        raw = config.parse_kv(raw_text + f"seed = {seed}\n")
        cfg = config.build_experiment_config(raw)
        path = self.task_dir(task_id)

        def call():
            return runner.run_experiment(cfg, path, raw_config=raw)

        def checked(status):
            manifest = (path / "manifest.txt").read_text(encoding="utf-8")
            expect(f"experiment = {kind}\n" in manifest and f"seed = {seed}\n" in manifest,
                   "manifest does not record the experiment and seed")
            result = check(path, status, raw)
            shutil.rmtree(path)
            return result

        return task_id, kind, call, checked

    def report_row(self, path, status, n_rep, target, seed):
        expect(status == runner.STATUS_OK, f"exit status {status}")
        rows = read_csv(path / "report.csv", REPORT_HEADER)
        expect(len(rows) == 1, "report.csv must hold one row")
        est, se, lo, hi, n, tgt, row_seed, tally = rows[0]
        expect(n == n_rep and row_seed == seed, "report.csv n_rep or seed differs from config")
        expect(tgt is not None and close(tgt, target), f"target {tgt} != closed form {target}")
        expect(lo <= est <= hi and se > 0 and tally >= 0, "inconsistent report row")
        expect(abs(est - target) <= runner.ACCEPT_SE * se,
               f"estimate {est} more than {runner.ACCEPT_SE} SE from {target}")
        return est, se

    def measured(self, rounds, se_ref) -> tuple[dict, dict]:
        """Metrics of a loop whose task times are measured directly.

        Time and work are summed over the run before dividing: the machine's
        speed drifts over seconds, and a mean over the whole run cancels
        more of that drift than a median of rounds does.  cpu_s is the CPU
        time of one round; notes give cpu_over_wall, the share of the
        tasks' wall time in which they held the CPU.
        """
        tasks = [rec for rnd in rounds for rec in rnd]
        busy = sum(r.seconds for r in tasks)
        value, pct, n = tail([r.seconds for r in tasks])
        groups = defaultdict(list)
        for r in tasks:
            if r.ok and r.kind in se_ref:
                groups[r.kind].append((r.seconds, r.info["se"]))
        metrics = {
            "cpu_s": busy / len(rounds),
            "reps_per_s": sum(r.reps for r in tasks) / busy,
            "task_s_p50": statistics.median(r.seconds for r in tasks),
            "task_s_tail": value,
            "time_to_se_s": time_to_se(groups, se_ref),
        }
        notes = {"tail_percentile": pct, "tasks": n, "rounds": len(rounds),
                 "cpu_over_wall": busy / sum(r.wall for r in tasks)}
        return metrics, notes


class ShortWindow(Workload):
    """run_experiment at the acceptance-suite parameters, few hundred arrivals
    per replication, so per-replication overhead dominates."""

    name = "short-window"
    # Sizes give every task about the same time, so the tail percentile
    # does not jump between kinds as the number of rounds changes.
    # window_mean and void_prob carry the runner's fixed 4-SE verdict: at
    # 5000 replications it false-alarms ~7e-5 per task (~3e-4 for void_prob
    # at 500, from the plug-in binomial SE), two verdicts a round.
    # recurrence_cdf and key_renewal are left out while their artifacts do
    # not parse: CdfReport.to_csv and RenewalFunctionTable.to_csv write
    # fields as np.float64(x) under numpy 2, so every such task would fail.
    # tests/test_known_defects.py fails once they parse; put them back then.
    N_REP = {"window_mean": 5000, "void_prob": 5000, "stationarity_check": 1050}

    def setup(self):
        # The stationarity tolerance sits >= 6 SD of its verdict quantity at
        # this sample size; the acceptance suite keeps its own bounds.
        self.texts = {
            "window_mean": GATED + "experiment = window_mean\nt = 500\nx = 1\n",
            "void_prob": BARTLETT_LEWIS + "experiment = void_prob\nt = 200\nx = 1\n",
            "stationarity_check": GATED
            + "experiment = stationarity_check\nshifts = 0,37.7,200\nx = 1\nalpha = 1e-6\n",
        }
        for kind, text in self.texts.items():
            self.texts[kind] = text + f"n_rep = {self.N_REP[kind]}\n"
            cfg = config.build_experiment_config(config.parse_kv(self.texts[kind] + "seed = 0\n"))
            process.guard_band(cfg.spec)
        gated = process.gated_cluster_preset()
        survival = lambda y: float(np.exp(-y))  # noqa: E731  Exponential(1) steps
        self.targets = {
            "window_mean": estimators.theoretical_blackwell_limit(gated, 1.0),
            "void_prob": estimators.bartlett_lewis_void_probability(1.0, 1.0, survival, 1.0),
        }

    def tasks(self, r):
        for kind in self.texts:
            yield self.experiment(f"r{r}-{kind}", kind, self.texts[kind],
                                  task_seed(self.seed, r, kind), getattr(self, "check_" + kind))

    def determinism_task(self):
        kind = "void_prob"
        task = self.experiment(f"r0-{kind}", kind, self.texts[kind],
                               task_seed(self.seed, 0, kind), None)
        return task, ("report.csv", "manifest.txt")

    def check_report(self, path, status, raw):
        kind = raw["experiment"]
        n = self.N_REP[kind]
        _, se = self.report_row(path, status, n, self.targets[kind], int(raw["seed"]))
        return n, {"se": se}

    check_window_mean = check_void_prob = check_report

    def check_stationarity_check(self, path, status, raw):
        expect(status == runner.STATUS_OK, f"exit status {status}")
        rows = read_csv(path / "stationarity.csv",
                        "shift_a,shift_b,distance,critical_value,reject", text_cols=(4,))
        expect([(a, b) for a, b, *_ in rows] == [(0.0, 37.7), (0.0, 200.0)],
               "stationarity.csv shifts differ from config")
        for _, _, dist, crit, reject in rows:
            expect(reject == "false" and 0 <= dist <= crit, f"KS rejects: {dist} > {crit}")
        return 3 * self.N_REP["stationarity_check"], {}

    def metrics(self, rounds):
        return self.measured(rounds, {k: REFERENCE["se_ref"][k] for k in self.targets})


class LongHorizon(Workload):
    """A few replications with thousands of arrivals each: numpy kernels,
    per-arrival objects and CSV writing, nothing to batch across replications."""

    name = "long-horizon"
    # The elementary task carries the runner's 4-SE verdict, which ignores
    # the O(1/t) edge bias of count/t; that bias weighs more against the SE
    # as n_rep grows, so the acceptance size of 200 keeps a chance failure
    # near 1e-4 per task, one task a round.  The path horizons make each
    # path task take ~0.3 s, so that with ~50 tasks a run the tail
    # percentile is not set by a one-second slow spell of the host.
    N_REP = 200
    PATHS = 2  # marked paths and simulated patterns per round
    replay_rounds = 3
    T_ELEMENTARY = 10_000.0
    T_MARKED = 40_000.0
    T_SIMULATE = 400_000.0
    ARRIVAL_RATE = 0.4  # 1 / E[Uniform(0,5)]
    POINT_RATE = 0.56   # 1.4 points per cluster / 2.5 mean gap

    def setup(self):
        self.text = (GATED + f"experiment = elementary\nt = {self.T_ELEMENTARY!r}\n"
                     f"n_rep = {self.N_REP}\n")
        cfg = config.build_experiment_config(config.parse_kv(self.text + "seed = 0\n"))
        self.spec = process.gated_cluster_preset()
        expect(cfg.spec == self.spec, "config and preset specs differ")
        self.guard = process.guard_band(self.spec)
        self.target = estimators.theoretical_blackwell_limit(self.spec, 1.0)

    def tasks(self, r):
        seed = task_seed(self.seed, r, "elementary")
        yield self.experiment(f"r{r}-elementary", "elementary", self.text, seed,
                              self.check_elementary)
        for i in range(self.PATHS):
            yield self.marked_task(f"r{r}-marked{i}")
            yield self.simulate_task(f"r{r}-simulate{i}")

    def determinism_task(self):
        return self.simulate_task("r0-simulate0"), ("pattern.csv",)

    def check_elementary(self, path, status, raw):
        _, se = self.report_row(path, status, self.N_REP, self.target, int(raw["seed"]))
        return self.N_REP, {"se": se}

    def marked_task(self, task_id):
        stream = streams.stream_for(task_seed(self.seed, 0, task_id), "marked")

        def call():
            path = process.sample_delayed_marked_renewal(self.spec, self.T_MARKED, self.guard,
                                                         stream)
            flat = patterns.flatten(path, include_parents=self.spec.include_parents)
            return path, flat, path.to_csv()

        def check(result):
            path, flat, text = result
            lines = text.splitlines()
            expect(lines[0] == "epoch,interarrival,cluster_size,offsets", "bad header")
            expect(len(lines) == len(path) + 1, "CSV rows != arrivals")
            epochs = np.array([line.split(",", 1)[0] for line in lines[1:]], dtype=float)
            expect(np.array_equal(epochs, [a.epoch for a in path.arrivals]),
                   "CSV epochs differ from the pattern")
            sizes = sum(a.cluster_size for a in path.arrivals)
            expect(len(flat) + flat.overflow == sizes, "flatten lost points")
            horizon = self.T_MARKED + self.guard
            expect(abs(len(path) / horizon - self.ARRIVAL_RATE) < 0.1 * self.ARRIVAL_RATE,
                   f"{len(path)} arrivals on (0, {horizon}]")
            return 1, {}

        return task_id, "marked", call, check

    def simulate_task(self, task_id):
        stream = streams.stream_for(task_seed(self.seed, 0, task_id), "simulate")
        path = self.task_dir(task_id) / "pattern.csv"

        def call():
            pattern = process.sample_renewal_cluster_process(self.spec, 0.0, self.T_SIMULATE,
                                                             stream)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(pattern.to_csv(), encoding="utf-8", newline="\n")
            return pattern

        def check(pattern):
            lines = path.read_text(encoding="utf-8").splitlines()
            expect(lines[0] == "t", "pattern.csv header")
            points = np.array(lines[1:], dtype=float)
            expect(np.array_equal(points, pattern.points), "pattern.csv differs from pattern")
            expect(np.all(np.diff(points) >= 0) and points[0] > 0
                   and points[-1] <= self.T_SIMULATE, "points unsorted or outside (0, t]")
            rate = len(points) / self.T_SIMULATE
            expect(abs(rate - self.POINT_RATE) < 0.1 * self.POINT_RATE, f"point rate {rate}")
            expect(pattern.overflow >= 0, "negative overflow")
            shutil.rmtree(path.parent)
            return 1, {}

        return task_id, "simulate", call, check

    def metrics(self, rounds):
        return self.measured(rounds, {"elementary": REFERENCE["se_ref"]["elementary"]})


class CouplingWalk(Workload):
    """Coupling walks of criterion 8 plus one flip-test pair: only the
    coupling layer, with heavy-tailed task times."""

    name = "coupling-walk"
    replay_rounds = 100
    EPSILON = 0.1
    CAP = 10**7
    K_CHECKS = 100

    def setup(self):
        self.spec = process.gated_cluster_preset()
        self.flip_stream = streams.stream_for(task_seed(self.seed, 0, "flip"), "flip")

    def tasks(self, r):
        if r == 0:
            yield self.flip_task()
        yield self.walk_task(r)

    def determinism_task(self):
        return self.walk_task(0), None

    def flip_task(self):
        def call():
            stop = coupling.rademacher_flip_test(20, 100_000, self.flip_stream.substream(0),
                                                 2, "stopping", 1e-6)
            peek = coupling.rademacher_flip_test(20, 100_000, self.flip_stream.substream(1),
                                                 2, "peek_ahead", 1e-6)
            return stop, peek

        def check(result):
            stop, peek = result
            expect(not stop.reject, f"stopping-time flip rejected: {stop.distance}")
            expect(peek.reject, f"peek-ahead control accepted: {peek.distance}")
            return 0, {}

        return "r0-flip", "flip", call, check

    def walk_task(self, r):
        stream = streams.stream_for(task_seed(self.seed, r, "walk"), "walk")

        def call():
            run = coupling.run_coupling(self.spec, self.EPSILON, self.CAP, stream)
            agree = coupling.post_coupling_agreement(self.spec, self.EPSILON, self.K_CHECKS,
                                                     stream, steps_cap=self.CAP)
            return run, agree

        def check(result):
            run, agree = result
            if not run.capped:
                expect(0 <= run.v_tau < self.EPSILON, f"v_tau {run.v_tau} outside [0, eps)")
                expect(run.l_tau + run.l_tau_delayed == run.tau, "step split != tau")
                expect(run.coupling_time >= max(run.start_stationary, run.start_delayed),
                       "coupling before the start")
            expect(len(run.v_path) == len(run.v_path_indices)
                   and np.all(np.diff(run.v_path_indices) > 0), "walk path malformed")
            if not agree.capped:
                expect(agree.passed and agree.max_gap < self.EPSILON,
                       f"post-coupling violations at {agree.violations[:5]}")
            steps = sum(self.CAP if w.tau is None else w.tau for w in (run, agree))
            return 1, {"steps": steps, "capped": run.capped, "tau": run.tau}

        return f"r{r}-walk", "walk", call, check

    def metrics(self, rounds):
        """Walk times at the fixed step mix of criterion 8's 1000 walks.

        tau is null-recurrent (P(tau > n) ~ n^-1/2), so the raw time of a
        run's walks swings with the seed by more than any bound.  Task time
        is linear in steps walked; a least-squares fit over the run's walks
        gives the per-walk and per-step cost, applied to the reference mix
        (a control-variate estimate with the step count as control).  Each
        reference task walks its walk once in each of the two calls.  The
        median walk is short in any sample, so it is measured directly.

        time_to_se_s is for the run's estimate of P(tau <= m), m the median
        of the reference walks (1/2 there): the fitted time of the run's
        walks times (SE / SE_ref)^2, SE the binomial standard error over
        those walks and SE_ref the one criterion 8's 1000 walks reach.
        """
        walks = [rec for rnd in rounds for rec in rnd if rec.kind == "walk" and rec.ok]
        flips = [rec.seconds for rnd in rounds for rec in rnd if rec.kind == "flip"]
        per_step, per_walk = np.polyfit([w.info["steps"] for w in walks],
                                        [w.seconds for w in walks], 1)
        ref_steps = REFERENCE["coupling_walk_steps"]
        ref = [2 * n for n in ref_steps]
        mean_s = per_walk + per_step * statistics.fmean(ref)
        ref_tail, pct, n = tail(ref)
        median = statistics.median(ref_steps)
        p_ref = statistics.fmean(k <= median for k in ref_steps)
        p = statistics.fmean(w.info["tau"] is not None and w.info["tau"] <= median
                             for w in walks)
        se = math.sqrt(p * (1.0 - p) / len(walks))
        se_ref = math.sqrt(p_ref * (1.0 - p_ref) / len(ref_steps))
        metrics = {
            "cpu_s": len(ref) * mean_s + statistics.median(flips),
            "reps_per_s": 1.0 / mean_s,
            "task_s_p50": statistics.median(w.seconds for w in walks),
            "task_s_tail": per_walk + per_step * ref_tail,
            "time_to_se_s": time_to_se({"walk": [(len(walks) * mean_s, se)]},
                                       {"walk": se_ref}),
        }
        busy = sum(w.seconds for w in walks)
        notes = {
            "tail_percentile": pct, "tasks": n, "walks_run": len(walks),
            "p_coupled_by_median": p,
            "capped_run": sum(w.info["capped"] for w in walks),
            "per_walk_s": per_walk, "per_step_ns": per_step * 1e9,
            "raw_reps_per_s": len(walks) / busy,
            "cpu_over_wall": busy / sum(w.wall for w in walks),
            "raw_task_s_tail": tail([w.seconds for w in walks])[0],
        }
        return metrics, notes


WORKLOADS = {w.name: w for w in (ShortWindow, LongHorizon, CouplingWalk)}


def run_loop(workload, ledger, seconds, between_rounds=None):
    """Closed loop over whole rounds (at least one) until they have taken
    ``seconds``.

    ``between_rounds(elapsed)`` runs after each round; its own time does
    not count towards ``seconds``.
    """
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        t0 = perf_counter()
        rounds.append([ledger.run(*task) for task in workload.tasks(len(rounds))])
        elapsed += perf_counter() - t0
        if between_rounds is not None:
            between_rounds(elapsed)
    return rounds


def determinism(workload, ledger):
    """Run one task twice on the same seed; its outputs must match bytewise."""
    (task_id, kind, call, _), names = workload.determinism_task()
    path = workload.out / task_id
    blobs = []
    for attempt in range(2):
        rec = ledger.run(f"{task_id}-determinism{attempt}", kind,
                         lambda: snapshot(call(), path, names), lambda b: (0, b))
        blobs.append(rec.info)
        shutil.rmtree(path, ignore_errors=True)
    if not blobs[0] or blobs[0] != blobs[1]:
        ledger.fail(f"{task_id}-determinism", kind, "rerun on the same seed differs")


def snapshot(result, path, names) -> dict:
    """Artifact bytes by name; a coupling walk (names None) is compared by value."""
    if names is None:
        run, agree = result
        return {"coupling.csv": coupling.coupling_runs_to_csv([run]).encode(),
                "v_path": run.v_path.tobytes(), "agreement": repr(agree).encode()}
    return {n: (path / n).read_bytes() for n in names}
