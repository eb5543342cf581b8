import copy
import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from renewalcluster import (
    EmptyCluster,
    Exponential,
    FixedCount,
    GammaLaw,
    Mixture,
    PoissonCount,
    RngStream,
    Uniform,
    gated_cluster_preset,
    post_coupling_agreement,
    rademacher_flip_test,
    run_coupling,
    two_sample_ks,
)
from renewalcluster import coupling
from renewalcluster.config import build_experiment_config, parse_kv
from renewalcluster.coupling import (
    _SharedSteps,
    _draw_starts,
    _kept_indices,
    coupling_runs_to_csv,
    random_walk_path,
)
from renewalcluster.process import ProcessSpec
from renewalcluster.runner import run_experiment
from renewalcluster.stats import KsReport


class TestRunCoupling:
    def test_equal_starts_couple_immediately(self, fix_starts):
        fix_starts((1.25, 1.25))
        spec = gated_cluster_preset()
        run = run_coupling(spec, 0.1, 1000, RngStream(91))
        assert run.tau == 0
        assert run.v_tau == 0.0
        assert run.l_tau == 0 and run.l_tau_delayed == 0
        assert run.coupling_time == pytest.approx(1.25)
        assert not run.capped

    def test_numpy_integer_cap_accepted(self, fix_starts):
        fix_starts((1.0, 1.0))
        spec = gated_cluster_preset()
        run = run_coupling(spec, 0.1, np.int64(1000), RngStream(98))
        assert run.tau == 0 and run.steps_cap == 1000

    def test_hit_is_inside_band(self):
        spec = gated_cluster_preset()
        runs = [run_coupling(spec, 0.1, 10**6, RngStream(s)) for s in range(90, 110)]
        hits = [run for run in runs if not run.capped]
        assert hits
        for run in hits:
            assert 0.0 <= run.v_tau < 0.1
            assert run.l_tau + run.l_tau_delayed == run.tau

    def test_cap_is_tracked_not_fatal(self, fix_starts):
        fix_starts((3.0, 0.0))
        spec = gated_cluster_preset()
        run = run_coupling(spec, 1e-9, 50, RngStream(93))
        assert run.capped
        assert run.tau is None and run.coupling_time is None

    def test_wider_band_couples_no_later(self):
        # same stream, so the walks are identical; a wider band can only
        # be entered earlier
        spec = gated_cluster_preset()
        coupled = 0
        for s in range(90, 110):
            narrow = run_coupling(spec, 0.05, 10**6, RngStream(s))
            wide = run_coupling(spec, 0.5, 10**6, RngStream(s))
            if not narrow.capped:
                coupled += 1
                assert wide.tau is not None and wide.tau <= narrow.tau
        assert coupled

    def test_path_starts_at_v0_and_is_thinned(self):
        spec = gated_cluster_preset()
        run = run_coupling(spec, 0.05, 10**6, RngStream(95))
        assert run.v_path_indices[0] == 0
        assert run.v_path[0] == pytest.approx(run.start_stationary - run.start_delayed)
        assert np.all(np.diff(run.v_path_indices) > 0)
        dense = run.v_path_indices[run.v_path_indices <= 10_000]
        assert np.array_equal(dense, np.arange(dense.size))

    def test_most_runs_finite_at_moderate_scale(self):
        spec = gated_cluster_preset()
        runs = [
            run_coupling(spec, 0.2, 10**6, RngStream(96, r)) for r in range(60)
        ]
        finite = sum(not r.capped for r in runs)
        assert finite >= 57

    def test_csv_serialization(self):
        spec = gated_cluster_preset()
        runs = [
            run_coupling(spec, 0.2, 10**5, RngStream(97, r)) for r in range(3)
        ]
        text = coupling_runs_to_csv(runs)
        lines = text.strip().splitlines()
        assert lines[0] == "epsilon,tau,coupling_time,capped"
        assert len(lines) == 4


class TestWalkInputs:
    """Arguments no walk can take are ValueErrors raised before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def generator(self):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(RngStream, "generator", generator)

    @pytest.mark.parametrize("eps, cap", [(0.1, 1e3), (0.1, 1000.0), (float("inf"), 1000)],
                             ids=["cap-1e3", "cap-float", "eps-inf"])
    def test_walk_rejects(self, eps, cap):
        spec = gated_cluster_preset()
        with pytest.raises(ValueError):
            run_coupling(spec, eps, cap, RngStream(98))
        with pytest.raises(ValueError):
            post_coupling_agreement(spec, eps, 10, RngStream(98), steps_cap=cap)

    def test_path_rejects_negative_steps(self):
        for n in (-1, 2.5):
            with pytest.raises(ValueError):
                random_walk_path(gated_cluster_preset(), n, RngStream(98))


class TestWalkDiagnostics:
    @pytest.mark.parametrize("n", [2**14 + 1, 3 * 2**14 + 7])
    @pytest.mark.parametrize(
        "law",
        [
            Exponential(0.4),
            Uniform(0.0, 5.0),
            GammaLaw(2.5, 1.0),
            Mixture(((0.5, Exponential(1.0)), (0.5, Uniform(0.0, 8.0)))),
        ],
        ids=lambda law: type(law).__name__,
    )
    def test_path_is_the_walks_own(self, law, n):
        # past the first block too, the path is the walk run_coupling
        # takes at steps_cap = n, at every index the walk stores
        spec = ProcessSpec(interarrival=law, cluster=EmptyCluster(), delay=law)
        run = run_coupling(spec, 1e-12, n, RngStream(104))
        path = random_walk_path(spec, n, RngStream(104))
        assert run.capped and path.size == n + 1
        assert np.array_equal(path[run.v_path_indices].view(np.uint64),
                              run.v_path.view(np.uint64))

    def test_martingale_mean(self):
        # E V_i = E V_0 = E T0 - E delay = 5/3 - 2.5 = -5/6 for the preset
        spec = gated_cluster_preset()
        paths = np.array(
            [random_walk_path(spec, 1000, RngStream(101, r)) for r in range(4000)]
        )
        for i in (10, 100, 1000):
            vals = paths[:, i]
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - (-5.0 / 6.0)) < 4 * se

    def test_increment_symmetry(self):
        # V_i - V_0 is symmetric: its law matches its mirror image
        spec = gated_cluster_preset()
        paths = [random_walk_path(spec, 200, RngStream(102, r)) for r in range(3000)]
        incs = np.array([p[-1] - p[0] for p in paths])
        assert not two_sample_ks(incs, -incs, alpha=0.001).reject

    def test_tau_grows_as_band_shrinks(self):
        spec = gated_cluster_preset()
        taus = {}
        for eps in (0.5, 0.05):
            t = [
                run_coupling(spec, eps, 10**6, RngStream(103, r)).tau
                for r in range(80)
            ]
            taus[eps] = np.mean([x for x in t if x is not None])
        assert taus[0.05] > taus[0.5]


class TestPostCouplingAgreement:
    def test_agreement_holds(self):
        spec = gated_cluster_preset()
        rep = post_coupling_agreement(spec, 0.2, 50, RngStream(104))
        assert rep.passed
        assert rep.max_gap < 0.2
        assert rep.violations == ()

    def test_zero_checks_still_validates_tau_gap(self):
        spec = gated_cluster_preset()
        rep = post_coupling_agreement(spec, 0.2, 0, RngStream(105))
        assert rep.passed
        assert 0.0 <= rep.max_gap < 0.2

    def test_capped_run_reported(self, fix_starts):
        fix_starts((3.0, 0.0))
        spec = gated_cluster_preset()
        rep = post_coupling_agreement(spec, 1e-9, 0, RngStream(106), steps_cap=50)
        assert rep.capped
        assert not rep.passed


def _bits(rep):
    """An agreement report to the bit."""
    gap = None if rep.max_gap is None else rep.max_gap.hex()
    return rep.tau, rep.violations, gap, rep.capped


@pytest.fixture
def walks(monkeypatch):
    """The argument tuples of every ``coupling._walk`` call, starting with
    an empty handoff slot."""
    monkeypatch.setattr(coupling, "_handoff", {})
    calls = []
    real = coupling._walk

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coupling, "_walk", counted)
    return calls


def _run_bits(run):
    """A coupling run to the bit."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float)
                 else v for v in vars(run).values())


def _fresh(spec, eps, k, rng, **kw):
    """The agreement of a fresh walk: no run_coupling before it."""
    coupling._handoff.clear()
    return post_coupling_agreement(spec, eps, k, rng, **kw)


class TestWalkHandoff:
    """run_coupling hands its walk, read up to tau, to the next matching
    post_coupling_agreement, whose report must equal a fresh one."""

    LAWS = [Uniform(0.0, 5.0), Exponential(0.4), GammaLaw(2.0, 1.25)]

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    @pytest.mark.parametrize(
        "cap, k, start",
        [
            (10**7, 100, None),
            # the continuation crosses the walk's last block end
            (10**7, 20_000, None),
            # tau = 0
            (10**7, 100, (1.0, 1.0)),
            # a block cut by the cap (every walk here couples within it)
            (5000, 50, None),
            # capped
            (50, 10, (3.0, 0.0)),
        ],
    )
    def test_handoff_equals_fresh_walk(self, walks, fix_starts, law, cap, k, start):
        fix_starts(start)
        spec = ProcessSpec(law, gated_cluster_preset().cluster)
        eps = 1e-9 if cap == 50 else 0.2
        for seed in range(3):
            rng = RngStream(120 + seed)
            fresh = _fresh(spec, eps, k, rng, steps_cap=cap)
            run = run_coupling(spec, eps, cap, rng)
            del walks[:]
            handed = post_coupling_agreement(spec, eps, k, rng, steps_cap=cap)
            assert walks == []
            assert _bits(handed) == _bits(fresh)
            assert handed.tau == run.tau
        if start == (1.0, 1.0):
            assert handed.tau == 0
        if cap == 50:
            assert handed.capped

    def test_one_walk_per_run_and_agreement(self, walks):
        spec = gated_cluster_preset()
        run_coupling(spec, 0.2, 10**7, RngStream(125))
        post_coupling_agreement(spec, 0.2, 100, RngStream(125))
        assert len(walks) == 1

    def test_second_agreement_walks_again(self, walks):
        spec = gated_cluster_preset()
        rng = RngStream(126)
        fresh = _fresh(spec, 0.2, 100, rng)
        run_coupling(spec, 0.2, 10**7, rng)
        first = post_coupling_agreement(spec, 0.2, 100, rng)
        del walks[:]
        second = post_coupling_agreement(spec, 0.2, 100, rng)
        assert len(walks) == 1
        assert _bits(first) == _bits(second) == _bits(fresh)

    def test_later_run_displaces_the_handoff(self, walks):
        spec = gated_cluster_preset()
        a, b = RngStream(127), RngStream(128)
        fresh = _fresh(spec, 0.2, 100, a)
        run_coupling(spec, 0.2, 10**7, a)
        run_coupling(spec, 0.2, 10**7, b)
        del walks[:]
        assert _bits(post_coupling_agreement(spec, 0.2, 100, a)) == _bits(fresh)
        assert len(walks) == 1

    def test_other_cap_misses(self, walks):
        spec = gated_cluster_preset()
        rng = RngStream(129)
        fresh = _fresh(spec, 0.2, 100, rng)
        run_coupling(spec, 0.2, 10**5, rng)
        del walks[:]
        assert _bits(post_coupling_agreement(spec, 0.2, 100, rng)) == _bits(fresh)
        assert len(walks) == 1
        assert walks[0][2] == 10**7

    def test_repeated_run_takes_the_handoff(self, walks):
        spec = gated_cluster_preset()
        fresh = _fresh(spec, 0.2, 100, RngStream(130))
        fresh_run = run_coupling(spec, 0.2, 10**7, RngStream(130))
        coupling._handoff.clear()
        del walks[:]
        first = run_coupling(spec, 0.2, 10**7, RngStream(130))
        again = run_coupling(spec, 0.2, 10**7, RngStream(130))
        handed = post_coupling_agreement(spec, 0.2, 100, RngStream(130))
        assert len(walks) == 1
        assert _run_bits(first) == _run_bits(again) == _run_bits(fresh_run)
        assert _bits(handed) == _bits(fresh)

    def test_coupling_kind_walks_each_run_once(self, walks, tmp_path):
        text = ("experiment = coupling\ninterarrival.kind = uniform\ninterarrival.lo = 0\n"
                "interarrival.hi = 5\ncluster.kind = gated_normal\ndelay.kind = same\n"
                "epsilon = 0.2\nsteps_cap = 100000\nk_checks = 20\nn_rep = 10\n")
        cfg = build_experiment_config(parse_kv(text))
        # 0 or 1 as the walks fall against min_finite; never a config error
        assert run_experiment(cfg, tmp_path) in (0, 1)
        assert len(walks) == 10

    @pytest.mark.parametrize("eps, cap", [(0.0, 10**7), (-1.0, 10**7), (float("nan"), 10**7),
                                          (0.2, 0)],
                             ids=["eps-0", "eps-negative", "eps-nan", "cap-0"])
    def test_agreement_rejects_what_run_coupling_rejects(self, walks, eps, cap):
        spec = gated_cluster_preset()
        with pytest.raises(ValueError):
            run_coupling(spec, eps, cap, RngStream(131))
        with pytest.raises(ValueError):
            post_coupling_agreement(spec, eps, 100, RngStream(131), steps_cap=cap)
        assert walks == []

    def test_rejected_agreement_keeps_the_handoff(self, walks):
        spec = gated_cluster_preset()
        rng = RngStream(132)
        fresh = _fresh(spec, 0.2, 100, rng)
        run_coupling(spec, 0.2, 10**7, rng)
        for eps, k in [(0.0, 100), (0.2, 2.5), (0.2, -1)]:
            with pytest.raises(ValueError):
                post_coupling_agreement(spec, eps, k, rng)
        handed = post_coupling_agreement(spec, 0.2, 100, rng)
        assert len(walks) == 2  # the fresh walk and run_coupling's
        assert _bits(handed) == _bits(fresh)


class TestFlipTest:
    def test_stopping_rule_accepts(self):
        rep = rademacher_flip_test(20, 50_000, RngStream(107), rule="stopping")
        assert not rep.reject

    def test_peek_ahead_rejects(self):
        rep = rademacher_flip_test(20, 50_000, RngStream(108), rule="peek_ahead")
        assert rep.reject
        assert rep.distance > rep.critical_value

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            rademacher_flip_test(10, 100, RngStream(109), rule="oracle")

    @pytest.mark.parametrize("n,ones_needed,rule", [
        (0, 1, "stopping"), (20, 0, "stopping"), (20, -1, "stopping"), (20, 21, "stopping"),
        (20, 50, "peek_ahead"), (20, 2, "oracle"),
    ])
    def test_bad_arguments_raise_before_any_draw(self, n, ones_needed, rule):
        class NoDraws:
            def substream(self, index):
                raise AssertionError("drew before checking its arguments")

        with pytest.raises(ValueError):
            rademacher_flip_test(n, 100_000, NoDraws(), ones_needed, rule)

    # KS reports of the whole-matrix flip test, recorded before it read its
    # rows in chunks of _FLIP_WORDS words: (n, n_rep, seed, ones_needed, rule,
    # distance, critical value).  The 100,000-row cases cross chunk seams,
    # the 70,000-step rows are each wider than a chunk, and 7 steps do not
    # divide the budget.
    @pytest.mark.parametrize("n,n_rep,seed,ones_needed,rule,distance,critical", [
        (20, 100000, 201, 2, "stopping", 0.0018500000000000183, 0.007278954160144188),
        (20, 100000, 202, 2, "peek_ahead", 0.58475, 0.007278954160144188),
        (1, 100000, 203, 1, "stopping", 0.0037499999999999756, 0.007278954160144188),
        (1, 100000, 204, 1, "peek_ahead", 0.0037800000000000056, 0.007278954160144188),
        (70000, 25, 205, 2, "stopping", 0.32000000000000006, 0.460361482600273),
        (70000, 25, 206, 2, "peek_ahead", 0.76, 0.460361482600273),
        (7, 30000, 207, 1, "stopping", 0.006000000000000005, 0.013289491295190144),
        (7, 30000, 208, 3, "stopping", 0.005866666666666687, 0.013289491295190144),
    ])
    def test_reports_match_the_whole_matrix_test(self, n, n_rep, seed, ones_needed, rule,
                                                 distance, critical):
        assert n * n_rep > coupling._FLIP_WORDS
        rep = rademacher_flip_test(n, n_rep, RngStream(seed), ones_needed, rule)
        assert rep == KsReport(distance, critical, n_rep, n_rep, 0.01)

    @pytest.mark.parametrize("rule", ["stopping", "peek_ahead"])
    def test_memory_stays_bounded(self, rule):
        # a whole (100,000, 20) sign matrix is 16 MB per array
        tracemalloc.start()
        try:
            rademacher_flip_test(20, 100_000, RngStream(110), rule=rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class _SpecialValues:
    """A stand-in law whose draws are the float64 values a sign rule can
    trip on; it consumes no randomness."""

    VALUES = np.array([0.0, -0.0, 5e-324, 1.0, np.inf, np.nan, 1.7976931348623157e308])

    def sample(self, rng, size=None):
        return np.resize(self.VALUES, size)


def _thin_mask(indices):
    """The per-step thinning rule of the earlier walk kernel (reference)."""
    dense = indices <= 10_000
    safe = np.maximum(indices, 10_001)
    stride = 2 ** np.ceil(np.log2(safe / 10_000)).astype(np.int64)
    return dense | (indices % stride == 0)


def _kept_top_open(a, b):
    """The arithmetic kept-index rule with each octave's upper end left
    out: an off-by-one the comparison must catch."""
    parts = [np.arange(a, min(b, 10_000) + 1)]
    lo, step = 10_000, 2
    while lo < b:
        first = -(-max(a, lo + 1) // step) * step
        parts.append(np.arange(first, min(b, 2 * lo), step))
        lo, step = 2 * lo, 2 * step
    return np.concatenate(parts)


def _mismatched_ranges(kept):
    """Ranges [a, b] on which ``kept(a, b)`` differs from the mask rule:
    each octave boundary 10^4 2^k +- 1 up to 10^7, and every block of
    2^14 steps a walk capped at 10^7 takes."""
    ranges = []
    for k in range(10):
        edge = 10_000 * 2**k
        for lo, hi in [(-1, -1), (0, 0), (1, 1), (-1, 1), (-(2**14), 2**14 - 1), (1, 2**14)]:
            ranges.append((max(1, edge + lo), edge + hi))
    ranges += [(s + 1, min(s + 2**14, 10**7)) for s in range(0, 10**7, 2**14)]
    bad = []
    for a, b in ranges:
        idx = np.arange(a, b + 1)
        if not np.array_equal(kept(a, b), idx[_thin_mask(idx)]):
            bad.append((a, b))
    return bad


class TestWalkKernel:
    """The block kernel against the per-step rules it replaced."""

    @pytest.mark.parametrize(
        "law",
        [
            Exponential(1.5),
            Uniform(0.0, 5.0),
            GammaLaw(2.5, 0.7),
            Mixture(((0.3, Exponential(2.0)), (0.7, Uniform(0.0, 4.0)))),
            PoissonCount(1.4),
            FixedCount(3),
            _SpecialValues(),
        ],
        ids=lambda law: type(law).__name__,
    )
    def test_signed_gaps_equal_where_rule(self, law):
        steps = _SharedSteps(law, RngStream(110).generator(), 5000)
        got = steps.take(5000)
        b = RngStream(110).generator()
        if type(law) is Uniform:
            # one word a step: the word's gap, negative when its bit 0 is set
            x = law.sample(RngStream(110).generator(), 5000)
            want = np.where(b.bit_generator.random_raw(5000) & 1, -x, x)
        else:
            x = np.asarray(law.sample(b, 5000), dtype=np.float64)
            want = np.where(b.random(5000) < 0.5, x, -x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # both rules leave the stream at the same position
        assert steps.g.random() == b.random()

    @pytest.mark.parametrize("cap", [300, 2**14 + 1])
    def test_uniform_walk_equals_numpy_reference(self, cap):
        # every step of the gated preset's Uniform(0, 5) gaps is one word:
        # Uniform.sample's gap for it, negative when its bit 0 is set; V
        # sums each block of 2^14 steps on from the block's starting V;
        # seeds 123 and 124 give the walks that couple within 300 steps
        spec = gated_cluster_preset()
        outcomes = set()
        for s in range(111, 125):
            g = RngStream(s).generator()
            t0, t_delayed = _draw_starts(spec, g)
            gap = spec.interarrival.sample(copy.deepcopy(g), cap)
            w = g.bit_generator.random_raw(cap)
            y = np.where(w & 1, -gap, gap)
            v = [np.array([t0 - t_delayed])]
            for lo in range(0, cap, 2**14):
                v.append(v[-1][-1] + y[lo : lo + 2**14].cumsum())
            v = np.concatenate(v)
            inside = np.flatnonzero((v >= 0.0) & (v < 0.1))
            run = run_coupling(spec, 0.1, cap, RngStream(s))
            if inside.size:
                assert run.tau == inside[0]
                assert run.v_tau.hex() == v[inside[0]].hex()
            else:
                assert run.capped
            outcomes.add(run.capped)
        assert outcomes == {True, False}

    def test_kept_indices_equal_mask_rule(self):
        assert _mismatched_ranges(_kept_indices) == []

    def test_off_by_one_kept_rule_is_caught(self):
        assert len(_mismatched_ranges(_kept_top_open)) > 0


# one line each demo must print, as a regex
DEMO_LINES = {
    "coupling_walk": r"walk entered \[0, 0\.1\) after tau = \d+ shared steps at V_tau = ",
    "limit_theorems": r"void probability: empirical 0\.\d{4}, closed form 0\.19551",
    "simulate_clusters": r"  epoch +\d+\.\d{3}  gap \d\.\d{3}  cluster size \d+",
    "stationary_construction": (r"origin arrival at \d\.\d{3}, predecessor at -\d\.\d{3}, "
                                r"straddling gap \d\.\d{3}"),
}


@pytest.mark.parametrize("name", sorted(DEMO_LINES))
def test_coupling_walk_demo_runs(name, capsys):
    path = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert re.search(DEMO_LINES[name], out, re.MULTILINE)
    if name == "coupling_walk":
        assert "violations []" in out
