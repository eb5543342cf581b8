"""Tests for the statistical harness, configuration parsing, the
experiment runner, and the command-line interface."""

import pickle

import numpy as np
import pytest

from renewalcluster import (
    PointPattern,
    RngStream,
    Uniform,
    sample_renewal_cluster_process,
    stream_for,
    theoretical_blackwell_limit,
    two_sample_ks,
)
from renewalcluster.cli import main
from renewalcluster.config import (
    build_experiment_config,
    build_process_spec,
    parse_kv,
)
from renewalcluster.errors import ConfigError
from renewalcluster.estimators import ExperimentReport, _report, _window_rows
from renewalcluster.runner import KINDS, Kind, run_experiment
from renewalcluster.stats import ks_critical_value


class TestKs:
    def test_identical_samples_distance_zero(self):
        xs = RngStream(131).generator().random(500)
        rep = two_sample_ks(xs, xs)
        assert rep.distance == 0.0
        assert not rep.reject

    def test_separated_samples_reject(self):
        g = RngStream(132).generator()
        rep = two_sample_ks(g.random(500), g.random(500) + 0.5, alpha=0.01)
        assert rep.reject

    def test_false_rejection_rate_calibrated(self):
        # at level alpha the rejection rate over null replications should
        # be near alpha (asymptotic critical value, slightly conservative)
        g = RngStream(133).generator()
        alpha = 0.05
        rejects = 0
        n_trials = 400
        for _ in range(n_trials):
            if two_sample_ks(g.random(400), g.random(400), alpha).reject:
                rejects += 1
        rate = rejects / n_trials
        assert rate < alpha + 3 * np.sqrt(alpha * (1 - alpha) / n_trials)

    def test_critical_value_formula(self):
        # c(alpha) = sqrt(-ln(alpha/2)/2) scaled by the sample sizes
        got = ks_critical_value(100, 400, 0.01)
        c = np.sqrt(-0.5 * np.log(0.005))
        assert got == pytest.approx(c * np.sqrt(500 / 40_000))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            two_sample_ks([], [1.0])

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 2.0, float("nan")])
    def test_level_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            ks_critical_value(100, 400, alpha)
        with pytest.raises(ValueError):
            two_sample_ks([0.0, 1.0], [0.5], alpha)


MASK64 = (1 << 64) - 1
KEY_WORDS = [0, 1, 2**63, 2**64 - 1, -1]


class TestStreams:
    def test_streams_independent(self):
        a = RngStream(7, 0).generator().random(1000)
        b = RngStream(7, 1).generator().random(1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_substream_deterministic(self):
        s = RngStream(7)
        assert s.substream(3) == s.substream(3)
        assert s.substream(3) != s.substream(4)

    def test_stream_for_separates_experiments(self):
        a = stream_for(0, "alpha")
        b = stream_for(0, "beta")
        assert a != b
        assert stream_for(0, "alpha") == a

    @pytest.mark.parametrize("seed", KEY_WORDS)
    @pytest.mark.parametrize("stream_id", KEY_WORDS)
    def test_generator_is_the_keyed_philox(self, seed, stream_id):
        """A generator is ``Philox(key=[seed, stream_id])`` modulo 2^64,
        word for word, whatever builds it."""
        key = np.array([seed & MASK64, stream_id & MASK64], dtype=np.uint64)
        got = RngStream(seed, stream_id).generator().bit_generator.random_raw(9)
        assert np.array_equal(got, np.random.Philox(key=key).random_raw(9))

    def test_generator_pickles(self):
        g = RngStream(7, 3).generator()
        g.random(5)
        h = pickle.loads(pickle.dumps(g))
        assert np.array_equal(h.bit_generator.random_raw(6), g.bit_generator.random_raw(6))


GATED_CONFIG = """
# gap-gated cluster model
experiment = window_mean
interarrival.kind = uniform
interarrival.lo = 0
interarrival.hi = 5
cluster.kind = gated_normal
delay.kind = same
t = 20
x = 1
n_rep = 200
seed = 3
"""

TINY_RATE_CONFIG = GATED_CONFIG.replace(
    "interarrival.kind = uniform\ninterarrival.lo = 0\ninterarrival.hi = 5\n",
    "interarrival.kind = exponential\ninterarrival.rate = 1e-320\n")


class TestConfigParsing:
    def test_parse_kv_comments_and_blanks(self):
        d = parse_kv("a = 1\n# note\n\nb = two # trailing\n")
        assert d == {"a": "1", "b": "two"}

    def test_parse_kv_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_kv("just words\n")

    def test_parse_kv_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_kv("a = 1\na = 2\n")

    def test_build_spec_round_trip(self):
        d = parse_kv(GATED_CONFIG)
        cfg = build_experiment_config(d)
        assert cfg.kind == "window_mean"
        assert cfg.spec.interarrival == Uniform(0.0, 5.0)
        assert cfg.spec.delay == Uniform(0.0, 5.0)
        assert cfg.n_rep == 200
        assert cfg.seed == 3
        assert cfg.params == {"t": 20.0, "x": 1.0}

    def test_unknown_key_is_hard_error(self):
        d = parse_kv(GATED_CONFIG + "mystery = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            build_experiment_config(d)

    def test_missing_required_key(self):
        d = parse_kv(GATED_CONFIG)
        del d["t"]
        with pytest.raises(ConfigError, match="'t'"):
            build_experiment_config(d)

    def test_missing_interarrival_kind(self):
        with pytest.raises(ConfigError, match="interarrival.kind"):
            build_process_spec({"cluster.kind": "empty"}, set())

    def test_unknown_experiment_kind(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"experiment": "novel"})

    def test_bad_law_parameters_become_config_errors(self):
        d = parse_kv(GATED_CONFIG.replace("interarrival.hi = 5", "interarrival.hi = -1"))
        with pytest.raises(ConfigError):
            build_experiment_config(d)

    def test_gap_law_with_infinite_mean_is_a_config_error(self):
        # the rate passes the law's own check; the mean 1 / rate overflows
        # to inf, which ProcessSpec rejects
        d = parse_kv(TINY_RATE_CONFIG)
        with pytest.raises(ConfigError, match="finite positive mean"):
            build_experiment_config(d)

    def test_explicit_delay_law(self):
        d = parse_kv(
            "interarrival.kind = exponential\ninterarrival.rate = 1\n"
            "cluster.kind = empty\ndelay.kind = gamma\n"
            "delay.shape = 2\ndelay.scale = 1\n"
        )
        spec = build_process_spec(d, set())
        assert spec.delay is not None
        assert spec.delay.mean() == pytest.approx(2.0)

    def test_cumulative_steps_cluster(self):
        d = parse_kv(
            "interarrival.kind = exponential\ninterarrival.rate = 1\n"
            "cluster.kind = cumulative_steps\ncluster.size.kind = poisson\n"
            "cluster.size.rate = 1\ncluster.step.kind = exponential\n"
            "cluster.step.rate = 1\ninclude_parents = true\n"
        )
        spec = build_process_spec(d, set())
        assert spec.include_parents
        assert spec.mean_cluster_size() == 1.0

    def test_flip_test_needs_no_process(self):
        cfg = build_experiment_config(parse_kv("experiment = flip_test\nn = 20\n"))
        assert cfg.spec is None
        assert cfg.params["n"] == 20

    @pytest.mark.parametrize("text", [
        GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
        .replace("t = 20\nx = 1\n", "shifts = 0,10\n"),
        "experiment = flip_test\nn = 20\n",
    ], ids=["stationarity_check", "flip_test"])
    def test_ks_level_checked_at_parse_time(self, text):
        for alpha in ("0", "1", "-0.5", "nan"):
            with pytest.raises(ConfigError, match="'alpha'"):
                build_experiment_config(parse_kv(text + f"alpha = {alpha}\n"))
        cfg = build_experiment_config(parse_kv(text + "alpha = 1e-6\n"))
        assert cfg.params["alpha"] == 1e-6

    def test_n_rep_below_one_rejected(self):
        d = parse_kv(GATED_CONFIG.replace("n_rep = 200", "n_rep = 0"))
        with pytest.raises(ConfigError, match="n_rep"):
            build_experiment_config(d)

    def test_new_kind_is_one_table_entry(self, tmp_path, monkeypatch):
        def run(spec, p, n_rep, rng):
            return 0, {"echo.csv": f"{p['k']!r},{n_rep}\n"}, {}

        kind = Kind({"k": (int, 7)}, ("echo.csv",), run, needs_spec=False)
        monkeypatch.setitem(KINDS, "echo", kind)
        cfg = build_experiment_config({"experiment": "echo", "n_rep": "3"})
        assert cfg.spec is None and cfg.params == {"k": 7}
        assert run_experiment(cfg, tmp_path) == 0
        assert (tmp_path / "echo.csv").read_text() == "7,3\n"


GATED_SPEC = ("interarrival.kind = uniform\ninterarrival.lo = 0\ninterarrival.hi = 5\n"
              "cluster.kind = gated_normal\ndelay.kind = same\n")

# small parameters for every kind
KIND_PARAMS = {
    "simulate": "window.lo = 0\nwindow.hi = 50\n",
    "window_mean": "t = 20\nx = 1\n",
    "elementary": "t = 20\n",
    "recurrence_cdf": "t = 20\ngrid = 0,1\n",
    "void_prob": "t = 20\nx = 1\n",
    "renewal_function": "grid = 1,2\n",
    "key_renewal": "t = 20\ng = 0:1:1\n",
    "coupling": "epsilon = 0.2\nsteps_cap = 1000\nk_checks = 5\n",
    "stationarity_check": "shifts = 0,10\n",
    "flip_test": "n = 20\n",
}

# a coupling whose walks are all capped at one step, and a recurrence CDF
# with a closed-form target: each verdict turns on its level alone
COUPLING_CAPPED = ("experiment = coupling\n" + GATED_SPEC
                   + "epsilon = 0.2\nsteps_cap = 1\nn_rep = 5\n")
BL_RECURRENCE = (
    "interarrival.kind = exponential\ninterarrival.rate = 1\n"
    "cluster.kind = cumulative_steps\ncluster.size.kind = poisson\n"
    "cluster.size.rate = 1\ncluster.step.kind = exponential\n"
    "cluster.step.rate = 1\ninclude_parents = true\n"
    "experiment = recurrence_cdf\nt = 20\ngrid = 0,1\nn_rep = 50\n"
)


class TestRunner:
    def test_window_mean_pass(self, tmp_path):
        cfg = build_experiment_config(parse_kv(GATED_CONFIG))
        status = run_experiment(cfg, tmp_path)
        assert status == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_runtime_error_writes_artifact(self, tmp_path):
        raw = parse_kv(GATED_CONFIG + "arrival_cap = 3\n")
        cfg = build_experiment_config(raw)
        status = run_experiment(cfg, tmp_path)
        assert status == 3
        assert "RunawayGenerationError" in (tmp_path / "error.txt").read_text()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_kind_writes_its_declared_artifacts(self, tmp_path, kind):
        spec = GATED_SPEC if KINDS[kind].needs_spec else ""
        n_rep = "n_rep = 20\n" if KINDS[kind].replicated else ""
        raw = parse_kv(f"experiment = {kind}\n" + n_rep + spec + KIND_PARAMS[kind])
        run_experiment(build_experiment_config(raw), tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(("manifest.txt", *KINDS[kind].artifacts))

    def test_passing_run_removes_earlier_error(self, tmp_path):
        failing = parse_kv(GATED_CONFIG + "arrival_cap = 3\n")
        assert run_experiment(build_experiment_config(failing), tmp_path) == 3
        assert run_experiment(build_experiment_config(parse_kv(GATED_CONFIG)), tmp_path) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.txt", "report.csv"]

    def test_failing_run_removes_earlier_artifacts(self, tmp_path):
        assert run_experiment(build_experiment_config(parse_kv(GATED_CONFIG)), tmp_path) == 0
        failing = parse_kv(GATED_CONFIG + "arrival_cap = 3\n")
        assert run_experiment(build_experiment_config(failing), tmp_path) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["error.txt"]

    def test_rerun_removes_only_runner_files(self, tmp_path):
        flip = parse_kv("experiment = flip_test\nn = 20\nn_rep = 20\n")
        run_experiment(build_experiment_config(flip), tmp_path)
        for name in ("plot.png", "notes.txt"):
            (tmp_path / name).write_text("kept\n")
        run_experiment(build_experiment_config(parse_kv(GATED_CONFIG)), tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["manifest.txt", "notes.txt", "plot.png", "report.csv"]

    def test_flip_test_run(self, tmp_path):
        cfg = build_experiment_config(
            parse_kv("experiment = flip_test\nn = 20\nn_rep = 20000\nseed = 1\n")
        )
        status = run_experiment(cfg, tmp_path)
        assert status == 0
        text = (tmp_path / "flip.csv").read_text()
        assert "stopping" in text and "peek_ahead" in text

    @pytest.mark.parametrize("t, g, status", [
        ("500", "0:1.5:1", 0),  # breakpoint 1.5 off any integer grid
        ("1", "0:1:1", 1),  # far from the limit: must fail
    ], ids=["settled", "unsettled"])
    def test_key_renewal_verdict(self, tmp_path, t, g, status):
        raw = parse_kv(GATED_CONFIG.replace("experiment = window_mean", "experiment = key_renewal")
                       .replace("t = 20\nx = 1\n", f"t = {t}\ng = {g}\n")
                       .replace("n_rep = 200\nseed = 3", "n_rep = 20000\nseed = 0"))
        assert run_experiment(build_experiment_config(raw), tmp_path) == status

    def test_block_order_byte_identical(self, tmp_path, reverse_blocks):
        raw = parse_kv(GATED_CONFIG.replace("t = 20", "t = 500"))
        cfg = build_experiment_config(raw)
        run_experiment(cfg, tmp_path / "a", raw_config=raw)
        run_experiment(cfg, tmp_path / "b", raw_config=raw)
        for name in ("report.csv", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        rng = stream_for(cfg.seed, cfg.kind)
        fn, block = _window_rows(cfg.spec, 500.0, 501.0)
        assert block < cfg.n_rep
        assert f"block = {block}\n" in (tmp_path / "a" / "manifest.txt").read_text()
        out = reverse_blocks(fn, cfg.n_rep, rng, block)
        target = theoretical_blackwell_limit(cfg.spec, 1.0)
        rep = _report(out[:, 0], out[:, 1], target, rng, block)
        text = ExperimentReport.CSV_HEADER + "\n" + rep.to_csv_row() + "\n"
        assert (tmp_path / "a" / "report.csv").read_bytes() == text.encode()

    @pytest.mark.parametrize("text, artifact", [
        ("interarrival.kind = exponential\ninterarrival.rate = 1\n"
         "cluster.kind = cumulative_steps\ncluster.size.kind = poisson\n"
         "cluster.size.rate = 1\ncluster.step.kind = exponential\n"
         "cluster.step.rate = 1\ninclude_parents = true\n"
         "experiment = recurrence_cdf\nt = 200\ngrid = 0,1.5,3\n", "cdf.csv"),
        (GATED_CONFIG.replace("experiment = window_mean", "experiment = renewal_function")
         .replace("t = 20\nx = 1\n", "grid = 496,498,499,500\n"),
         "renewal.csv"),
    ], ids=["recurrence_cdf", "renewal_function"])
    def test_csv_fields_parse_as_floats(self, tmp_path, text, artifact):
        raw = parse_kv(text)
        run_experiment(build_experiment_config(raw), tmp_path, raw_config=raw)
        header, *rows = (tmp_path / artifact).read_text().splitlines()
        assert rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == header.count(",") + 1
            assert all(np.isfinite(float(f)) for f in fields)


class TestCli:
    def _write(self, tmp_path, text, name="cfg.txt"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_verify_exit_zero(self, tmp_path):
        cfg = self._write(tmp_path, GATED_CONFIG)
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0

    def test_config_error_exit_two(self, tmp_path):
        cfg = self._write(tmp_path, GATED_CONFIG + "mystery = 1\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_gap_law_with_infinite_mean_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, TINY_RATE_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: the interarrival law needs" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_simulate_writes_pattern(self, tmp_path):
        text = (
            "interarrival.kind = uniform\ninterarrival.lo = 0\n"
            "interarrival.hi = 5\ncluster.kind = gated_normal\n"
            "delay.kind = same\nwindow.lo = 0\nwindow.hi = 50\nseed = 2\n"
        )
        cfg = self._write(tmp_path, text)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        pat = PointPattern.from_csv(
            (out / "pattern.csv").read_text(), (0.0, 50.0)
        )
        assert len(pat) > 0

    def test_reps_only_where_replicated(self, tmp_path, capsys):
        # simulate draws one realization: --reps is a usage error there
        cfg = self._write(tmp_path, GATED_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--reps", "5", "--out", str(tmp_path / "sim")])
        assert exc.value.code == 2
        assert "--reps" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--reps", "50", "--out", str(out)]) == 0
        assert "n_rep = 50" in (out / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("change", [
        ("window.hi = 50", "window.hi = abc"),
        ("seed = 2", "seed = x"),
        ("window.lo = 0\nwindow.hi = 50", "window.lo = 5\nwindow.hi = 1"),
        ("seed = 2", "seed = 2\narrival_cap = 0"),
    ], ids=["hi-not-a-number", "seed-not-an-int", "lo-above-hi", "arrival_cap-0"])
    def test_simulate_bad_value_exit_two(self, tmp_path, change, capsys):
        text = (
            "interarrival.kind = uniform\ninterarrival.lo = 0\n"
            "interarrival.hi = 5\ncluster.kind = gated_normal\n"
            "delay.kind = same\nwindow.lo = 0\nwindow.hi = 50\nseed = 2\n"
        )
        assert change[0] in text
        cfg = self._write(tmp_path, text.replace(*change))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
        assert "config error:" in capsys.readouterr().err

    SIMULATE_CONFIG = GATED_SPEC + "window.lo = 0\nwindow.hi = 50\nseed = 2\n"

    def _simulate(self, tmp_path, text, out):
        return main(["simulate", "--config", self._write(tmp_path, text, "sim.txt"),
                     "--out", str(out)])

    def test_simulate_failure_removes_earlier_pattern(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert self._simulate(tmp_path, self.SIMULATE_CONFIG, out) == 0
        assert self._simulate(tmp_path, self.SIMULATE_CONFIG + "arrival_cap = 3\n", out) == 3
        assert [p.name for p in out.iterdir()] == ["error.txt"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "RunawayGenerationError" in shown and "pattern.csv" not in shown

    def test_simulate_after_verify_removes_its_results(self, tmp_path):
        out = tmp_path / "o"
        cfg = self._write(tmp_path, GATED_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert self._simulate(tmp_path, self.SIMULATE_CONFIG, out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "pattern.csv"]
        assert "experiment = simulate" in (out / "manifest.txt").read_text().splitlines()

    def test_simulate_after_failed_verify_removes_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = self._write(tmp_path, GATED_CONFIG + "arrival_cap = 3\n")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert self._simulate(tmp_path, self.SIMULATE_CONFIG, out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "pattern.csv"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().out

    def test_simulate_manifest_records_points_and_overflow(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert self._simulate(tmp_path, self.SIMULATE_CONFIG, out) == 0
        pattern = sample_renewal_cluster_process(
            build_process_spec(parse_kv(GATED_SPEC), set()), 0.0, 50.0,
            stream_for(2, "simulate"))
        assert (out / "pattern.csv").read_text() == pattern.to_csv()
        head = (out / "manifest.txt").read_text().splitlines()[:5]
        assert head[1:] == ["experiment = simulate", "seed = 2", f"points = {len(pattern)}",
                            f"overflow = {pattern.overflow}"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert f"overflow = {pattern.overflow}" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", ["n_rep = 5\n", "experiment = window_mean\n"],
                             ids=["n_rep", "other-kind"])
    def test_simulate_rejects_key(self, tmp_path, extra, capsys):
        out = tmp_path / "o"
        assert self._simulate(tmp_path, self.SIMULATE_CONFIG + extra, out) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "pattern.csv").exists()

    @pytest.mark.parametrize("text", [
        GATED_CONFIG.replace("x = 1", "x = -1"),
        GATED_CONFIG.replace("n_rep = 200", "n_rep = 0"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = renewal_function")
        .replace("t = 20\nx = 1\n", "grid = 5,1\n"),
        "experiment = coupling\ninterarrival.kind = uniform\ninterarrival.lo = 0\n"
        "interarrival.hi = 5\ncluster.kind = gated_normal\ndelay.kind = same\n"
        "epsilon = 0.2\nn_rep = 0\n",
        # one replication gives no standard error to judge a verdict by
        GATED_CONFIG.replace("experiment = window_mean", "experiment = elementary")
        .replace("x = 1\n", "").replace("n_rep = 200", "n_rep = 1"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = renewal_function")
        .replace("t = 20\nx = 1\n", "grid = 1,5\n").replace("n_rep = 200", "n_rep = 1"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
        .replace("t = 20\nx = 1\n", "shifts = 0,10\n").replace("n_rep = 200", "n_rep = 1"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = key_renewal")
        .replace("x = 1\n", "g = 0:2:1;1:3:1\n"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = key_renewal")
        .replace("x = 1\n", "g = 0:1\n"),
        GATED_CONFIG + "arrival_cap = 0\n",
        GATED_CONFIG + "arrival_cap = -5\n",
        GATED_CONFIG.replace("experiment = window_mean", "experiment = recurrence_cdf")
        .replace("t = 20\nx = 1\n", "t = -5\ngrid = 0,1\n"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = key_renewal")
        .replace("t = 20\nx = 1\n", "t = -5\ng = 0:1:1\n"),
        # the stopping arm cannot flip more +1's than n steps hold
        "experiment = flip_test\nn = 20\nn_rep = 200\nones_needed = 50\n",
        "experiment = flip_test\nn = 20\nn_rep = 200\nones_needed = 0\n",
        # a KS level outside (0, 1) gives a check that cannot reject, or
        # one that always does
        "experiment = flip_test\nn = 20\nn_rep = 200\nalpha = 0\n",
        "experiment = flip_test\nn = 20\nn_rep = 200\nalpha = 2\n",
        GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
        .replace("t = 20\nx = 1\n", "shifts = 0,10\nalpha = 0\n"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
        .replace("t = 20\nx = 1\n", "shifts = 0,10\nalpha = -1\n"),
        # an empty or reversed window has no points at any shift, so its KS
        # distance is 0 and the check could not fail
        GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
        .replace("t = 20\nx = 1\n", "shifts = 0,10\nx = 0\n"),
        GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
        .replace("t = 20\nx = 1\n", "shifts = 0,10\nx = -1\n"),
        # a coupled fraction of at most 0 always passes, one above 1 never
        # does; every walk is capped at one step
        COUPLING_CAPPED + "min_finite = 0\n",
        COUPLING_CAPPED + "min_finite = -3\n",
        COUPLING_CAPPED + "min_finite = 1.5\n",
        # a CDF gap lies in [0, 1]: a tol of at most 0 always fails, one of
        # at least 1 always passes
        BL_RECURRENCE + "tol = 0\n",
        BL_RECURRENCE + "tol = -0.5\n",
        BL_RECURRENCE + "tol = 1\n",
    ], ids=["window_mean-x-negative", "window_mean-n_rep-0", "renewal_function-grid-unsorted",
            "coupling-n_rep-0", "elementary-n_rep-1", "renewal_function-n_rep-1",
            "stationarity_check-n_rep-1", "key_renewal-pieces-overlap",
            "key_renewal-piece-two-fields", "arrival_cap-0", "arrival_cap-negative",
            "recurrence_cdf-t-negative", "key_renewal-t-negative",
            "flip_test-ones_needed-above-n", "flip_test-ones_needed-0", "flip_test-alpha-0",
            "flip_test-alpha-2", "stationarity_check-alpha-0", "stationarity_check-alpha-negative",
            "stationarity_check-x-0", "stationarity_check-x-negative",
            "coupling-min_finite-0", "coupling-min_finite-negative", "coupling-min_finite-above-1",
            "recurrence_cdf-tol-0", "recurrence_cdf-tol-negative", "recurrence_cdf-tol-1"])
    def test_verify_bad_value_exit_two(self, tmp_path, text, capsys):
        # a rejected value leaves an earlier valid result as it was
        assert text != GATED_CONFIG
        out = tmp_path / "o"
        assert main(["verify", "--config", self._write(tmp_path, GATED_CONFIG, "good.txt"),
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["manifest.txt", "report.csv"]
        capsys.readouterr()
        cfg = self._write(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_seed_override_changes_result(self, tmp_path):
        text = (
            "interarrival.kind = exponential\ninterarrival.rate = 1\n"
            "cluster.kind = empty\ninclude_parents = true\n"
            "window.lo = 0\nwindow.hi = 50\n"
        )
        cfg = self._write(tmp_path, text)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["simulate", "--config", cfg, "--out", str(b), "--seed", "2"])
        assert (a / "pattern.csv").read_text() != (b / "pattern.csv").read_text()

    def test_coupling_subcommand(self, tmp_path):
        text = (
            "experiment = coupling\n"
            "interarrival.kind = uniform\ninterarrival.lo = 0\n"
            "interarrival.hi = 5\ncluster.kind = gated_normal\n"
            "delay.kind = same\nepsilon = 0.2\nsteps_cap = 1000000\n"
            "k_checks = 20\nn_rep = 20\nmin_finite = 0.9\nseed = 1\n"
        )
        cfg = self._write(tmp_path, text)
        out = tmp_path / "cpl"
        assert main(["coupling", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "coupling.csv").exists()

    COUPLING_CONFIG = (
        "experiment = coupling\ninterarrival.kind = uniform\ninterarrival.lo = 0\n"
        "interarrival.hi = 5\ncluster.kind = gated_normal\ndelay.kind = same\n"
        "epsilon = 0.1\nsteps_cap = 100\n"
    )

    def test_coupling_agreement_uses_the_configured_cap(self, tmp_path):
        # seed 1249 (the first of seeds 0-1499 whose one walk couples
        # between 10^7 and 2 10^7 steps): the run couples at tau
        # 12,276,611, past the agreement's default cap of 10^7, so only an
        # agreement that reads on at the configured cap passes; one walked
        # at the default cap is capped and the kind exits 1
        text = self.COUPLING_CONFIG.replace("steps_cap = 100\n", "steps_cap = 20000000\n")
        cfg = self._write(tmp_path, text + "min_finite = 1\nn_rep = 1\nseed = 1249\n")
        out = tmp_path / "cpl"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        row = (out / "coupling.csv").read_text().splitlines()[1]
        assert row == "0.1,12276611,15344639.058906183,false"
        assert 10**7 < int(row.split(",")[1]) <= 2 * 10**7

    def test_coupling_below_min_finite_exit_one(self, tmp_path):
        # negative control: at a cap of 100 steps most walks are capped
        cfg = self._write(tmp_path, self.COUPLING_CONFIG + "min_finite = 1\nn_rep = 20\nseed = 30\n")
        out = tmp_path / "cpl"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert "true" in (out / "coupling.csv").read_text()

    def test_stationarity_check_needs_two_shifts(self, tmp_path, capsys):
        text = (GATED_CONFIG.replace("experiment = window_mean", "experiment = stationarity_check")
                .replace("t = 20\nx = 1\n", "shifts = 0\n"))
        cfg = self._write(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "at least two shifts" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change", [
        ("t = 20", "t = inf"),
        ("t = 20", "t = -inf"),
        ("t = 20", "t = nan"),
        ("interarrival.hi = 5", "interarrival.hi = inf"),
    ], ids=["t-inf", "t-minus-inf", "t-nan", "interarrival-hi-inf"])
    def test_non_finite_float_exit_two(self, tmp_path, change, capsys):
        assert change[0] in GATED_CONFIG
        cfg = self._write(tmp_path, GATED_CONFIG.replace(*change))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_report_prints_directory(self, tmp_path, capsys):
        cfg = self._write(tmp_path, GATED_CONFIG)
        out = str(tmp_path / "out")
        main(["verify", "--config", cfg, "--out", out])
        assert main(["report", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "report.csv" in captured and "manifest.txt" in captured

    def test_report_prints_runtime_error(self, tmp_path, capsys):
        # a run that exits 3 leaves error.txt alone
        cfg = self._write(tmp_path, GATED_CONFIG + "arrival_cap = 3\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["error.txt"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "== error.txt\n" + (out / "error.txt").read_text()

    def test_recurrence_cdf_of_a_spec_without_points(self, tmp_path):
        # no clusters and no parents: every window (t, t + x] is empty, and
        # the exact CDF on the grid is 0
        text = ("experiment = recurrence_cdf\ninterarrival.kind = exponential\n"
                "interarrival.rate = 1\ncluster.kind = empty\nt = 20\ngrid = 0,1,2\n"
                "n_rep = 50\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        header, *rows = (out / "cdf.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))
        assert [float(v) for v in cols["cdf"] + cols["half_width"]] == [0.0] * 6

    def test_report_missing_directory(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "missing")]) == 2
