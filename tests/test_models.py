import numpy as np
import pytest

from renewalcluster import (
    CumulativeStepCluster,
    EmptyCluster,
    Exponential,
    FixedCount,
    FixedOffsetsCluster,
    GatedNormalCluster,
    MarkedArrival,
    PoissonCount,
    ProcessSpec,
    RngStream,
    Uniform,
    bartlett_lewis_preset,
    cluster_radius,
    gated_cluster_preset,
    guard_band,
    sample_delayed_marked_renewal,
    sample_renewal_cluster_process,
    two_sample_ks,
)
from renewalcluster.errors import RunawayGenerationError
from renewalcluster.estimators import replicate
from renewalcluster.process import delayed_block
from renewalcluster.stationary import stationary_block


class TestClusterRadius:
    def test_empty_cluster_radius_zero(self):
        a = MarkedArrival(1.0, 0, np.empty(0), 1.0)
        assert cluster_radius(a) == 0.0

    def test_negative_offsets_counted_in_abs(self):
        a = MarkedArrival(1.0, 3, np.array([-2.5, 0.5, 1.0]), 1.0)
        assert cluster_radius(a) == 2.5


class TestGatedCluster:
    """Size law switches on the preceding gap; offsets are gap plus noise."""

    def test_mean_size_above_threshold(self):
        g = RngStream(11).generator()
        model = GatedNormalCluster()
        xs = np.full(200_000, 2.0)
        sizes, _ = model.sample_batch(xs, g)
        se = sizes.std() / np.sqrt(sizes.size)
        assert abs(sizes.mean() - 0.5) < 4 * se

    def test_mean_size_below_threshold(self):
        g = RngStream(12).generator()
        model = GatedNormalCluster()
        xs = np.full(100_000, 0.5)
        sizes, _ = model.sample_batch(xs, g)
        se = sizes.std() / np.sqrt(sizes.size)
        assert abs(sizes.mean() - 5.0) < 4 * se

    def test_mean_size_integrates_gap_law(self):
        # P(X <= 1) = 0.2 under Uniform(0,5): 0.5 * 0.8 + 5 * 0.2 = 1.4
        model = GatedNormalCluster()
        assert model.mean_size(Uniform(0.0, 5.0)) == pytest.approx(1.4)

    def test_offsets_center_on_gap(self):
        g = RngStream(13).generator()
        model = GatedNormalCluster()
        xs = np.full(50_000, 0.5)
        sizes, offs = model.sample_batch(xs, g)
        # offsets are x + standard normal, so offs - 0.5 should be N(0,1)
        d = two_sample_ks(offs - 0.5, g.standard_normal(offs.size), alpha=0.01)
        assert not d.reject


class TestCumulativeStepCluster:
    def test_offsets_nondecreasing_within_cluster(self):
        g = RngStream(21).generator()
        model = CumulativeStepCluster(PoissonCount(4.0), Exponential(1.0))
        xs = np.ones(500)
        sizes, offs = model.sample_batch(xs, g)
        pos = 0
        for k in sizes:
            seg = offs[pos : pos + k]
            assert np.all(np.diff(seg) >= 0)
            assert np.all(seg > 0)
            pos += k

    def test_first_offset_is_one_step(self):
        g = RngStream(22).generator()
        model = CumulativeStepCluster(FixedCount(3), Uniform(0.0, 1.0))
        sizes, offs = model.sample_batch(np.ones(10_000), g)
        firsts = offs.reshape(-1, 3)[:, 0]
        assert abs(firsts.mean() - 0.5) < 4 * firsts.std() / np.sqrt(firsts.size)

    def test_moment_accessors(self):
        model = CumulativeStepCluster(PoissonCount(2.0), Exponential(4.0))
        law = Uniform(0.0, 5.0)
        assert model.mean_size(law) == 2.0

    def test_offsets_are_exact_partial_sums(self):
        # bit for bit np.cumsum of each cluster's own steps, however large
        # the batch (a block holds tens of thousands of clusters)
        model = CumulativeStepCluster(PoissonCount(2.0), Exponential(1.0))
        sizes, offs = model.sample_batch(np.ones(20_000), RngStream(24).generator())
        g = RngStream(24).generator()
        model.size.sample(g, 20_000)
        steps = model.step.sample(g, int(sizes.sum()))
        ends = np.cumsum(sizes)
        expect = np.concatenate([np.cumsum(steps[e - k : e]) for k, e in zip(sizes, ends)])
        assert np.array_equal(offs, expect)

    def test_zero_size_gives_no_offsets(self):
        g = RngStream(23).generator()
        model = CumulativeStepCluster(FixedCount(0), Exponential(1.0))
        sizes, offs = model.sample_batch(np.ones(7), g)
        assert np.all(sizes == 0)
        assert offs.size == 0


class TestSimpleClusters:
    def test_empty_cluster(self):
        g = RngStream(31).generator()
        model = EmptyCluster()
        sizes, offs = model.sample_batch(np.ones(5), g)
        assert np.all(sizes == 0) and offs.size == 0
        assert model.mean_size(Exponential(1.0)) == 0.0

    def test_fixed_offsets(self):
        g = RngStream(32).generator()
        model = FixedOffsetsCluster((0.5, -1.0))
        sizes, offs = model.sample_batch(np.ones(3), g)
        assert np.all(sizes == 2)
        assert np.allclose(offs, [0.5, -1.0] * 3)
        assert model.mean_size(Exponential(2.0)) == 2.0


class TestDelayedRenewal:
    def test_poisson_count_matches_rate(self):
        # zero-delay exponential gaps: N(0, T] is Poisson(rate * T)
        spec = ProcessSpec(Exponential(2.0), EmptyCluster())
        horizon = 50.0
        counts = [
            len(sample_delayed_marked_renewal(spec, horizon, 0.0, RngStream(41, r)))
            for r in range(400)
        ]
        counts = np.array(counts, dtype=np.float64)
        se = counts.std() / np.sqrt(counts.size)
        assert abs(counts.mean() - 2.0 * horizon) < 4 * se

    def test_uniform_gap_rate(self):
        spec = ProcessSpec(Uniform(0.0, 5.0), EmptyCluster(), delay=Uniform(0.0, 5.0))
        horizon = 500.0
        m = sample_delayed_marked_renewal(spec, horizon, 0.0, RngStream(42))
        # long-run arrival rate 1/2.5 = 0.4
        assert len(m) == pytest.approx(0.4 * horizon, rel=0.1)

    def test_epoch_prefix_sum_invariant(self):
        spec = gated_cluster_preset()
        m = sample_delayed_marked_renewal(spec, 100.0, 5.0, RngStream(43))
        epochs = np.array([a.epoch for a in m.arrivals])
        gaps = np.array([a.interarrival for a in m.arrivals])
        assert np.allclose(np.diff(epochs), gaps[1:], rtol=1e-9)
        assert epochs[0] == pytest.approx(gaps[0])

    def test_first_cluster_uses_delay_model(self):
        spec = ProcessSpec(
            Exponential(1.0),
            FixedOffsetsCluster((1.0,)),
            delay=Exponential(1.0),
            delay_cluster=EmptyCluster(),
        )
        m = sample_delayed_marked_renewal(spec, 30.0, 0.0, RngStream(44))
        assert m.arrivals[0].cluster_size == 0
        assert all(a.cluster_size == 1 for a in m.arrivals[1:])

    def test_zero_horizon_keeps_only_the_zero_delay_arrival(self):
        spec = ProcessSpec(Exponential(1.0), EmptyCluster())
        m = sample_delayed_marked_renewal(spec, 0.0, 0.0, RngStream(45))
        # the window dips just below 0 so the zero-delay arrival is retained
        assert m.window == (-1e-12, 0.0)
        assert len(m) == 1
        assert m.arrivals[0].epoch == 0.0

    def test_bit_identical_reproducibility(self):
        spec = gated_cluster_preset()
        a = sample_delayed_marked_renewal(spec, 200.0, 3.0, RngStream(46))
        b = sample_delayed_marked_renewal(spec, 200.0, 3.0, RngStream(46))
        assert len(a) == len(b)
        for x, y in zip(a.arrivals, b.arrivals):
            assert x.epoch == y.epoch
            assert np.array_equal(x.offsets, y.offsets)

    def test_runaway_cap(self):
        spec = ProcessSpec(Exponential(1.0), EmptyCluster(), arrival_cap=100)
        with pytest.raises(RunawayGenerationError):
            sample_delayed_marked_renewal(spec, 10_000.0, 0.0, RngStream(47))


class TestGuardBand:
    def test_empty_clusters_need_no_guard(self):
        spec = ProcessSpec(Exponential(1.0), EmptyCluster())
        assert guard_band(spec) == 0.0

    def test_fixed_offsets_guard_covers_radius(self):
        spec = ProcessSpec(Exponential(1.0), FixedOffsetsCluster((0.5, -2.0)))
        assert guard_band(spec) >= 2.0

    def test_deterministic_per_spec(self):
        spec = gated_cluster_preset()
        assert guard_band(spec) == guard_band(gated_cluster_preset())


class TestClusterProcess:
    def test_window_and_overflow(self):
        spec = gated_cluster_preset()
        p = sample_renewal_cluster_process(spec, 10.0, 20.0, RngStream(51))
        assert p.window == (10.0, 20.0)
        assert np.all((p.points > 10.0) & (p.points <= 20.0))
        assert p.overflow >= 0

    def test_parent_toggle(self):
        size = FixedCount(0)
        spec = bartlett_lewis_preset(1.0, size, Exponential(1.0))
        p = sample_renewal_cluster_process(spec, 0.0, 100.0, RngStream(52))
        # parents only: count should track the Poisson rate
        assert 60 <= len(p) <= 140

    def test_no_parents_empty_clusters_empty_pattern(self):
        spec = ProcessSpec(Exponential(1.0), EmptyCluster())
        p = sample_renewal_cluster_process(spec, 0.0, 50.0, RngStream(53))
        assert len(p) == 0

    def test_gap_invariant_model_window_invariance(self):
        # when cluster law ignores the gap, counts far from 0 keep the rate
        size = PoissonCount(1.0)
        spec = bartlett_lewis_preset(1.0, size, Exponential(1.0))
        counts = np.array(
            [
                len(sample_renewal_cluster_process(spec, 300.0, 310.0, RngStream(54, r)))
                for r in range(300)
            ],
            dtype=np.float64,
        )
        target = 2.0 * 10.0  # rate * (E L + 1) * x
        se = counts.std() / np.sqrt(counts.size)
        assert abs(counts.mean() - target) < 4 * se


class TestPresets:
    def test_bartlett_lewis_structure(self):
        spec = bartlett_lewis_preset(2.0, PoissonCount(1.0), Exponential(1.0))
        assert isinstance(spec.interarrival, Exponential)
        assert spec.include_parents
        assert spec.delay is None
        assert spec.mean_cluster_size() == 1.0

    def test_gated_preset_rate_constants(self):
        spec = gated_cluster_preset()
        assert spec.mean_cluster_size() == pytest.approx(1.4)
        assert spec.interarrival.mean() == pytest.approx(2.5)
        assert not spec.include_parents


class TestBlockBookkeeping:
    """Each row's reductions of a block equal a brute-force recount from that
    row's own epochs; deterministic clusters make the recount exact."""

    # with zero delay, "delay-cluster" puts points at exactly -0.5 and 0.25
    # in every row, so each boundary's open or closed side is tested
    LO, HI, T, GRID_LO = 0.25, 12.0, 0.25, -0.5
    GRID = np.array([0.25, 4.5, 9.0, 12.0])
    # the recurrence estimator's windows (T, T + x]
    X = np.array([0.0, 0.25, 4.25, 11.75])
    B, N_REP = 7, 24  # odd block size, n_rep not a multiple of it

    SPECS = {
        "delay-parents": ProcessSpec(
            Exponential(1.0), FixedOffsetsCluster((-0.75, 0.5, 2.0)),
            delay=Exponential(1.0), include_parents=True,
        ),
        "delay-cluster": ProcessSpec(
            Exponential(1.0), FixedOffsetsCluster((-0.75, 0.5, 2.0)),
            delay_cluster=FixedOffsetsCluster((0.25, -0.5)),
        ),
        "stationary": ProcessSpec(
            Exponential(1.0), FixedOffsetsCluster((-0.75, 0.5, 2.0)), include_parents=True,
        ),
    }

    def _block(self, name, rows, g):
        spec = self.SPECS[name]
        if name == "stationary":
            return stationary_block(spec, rows, self.LO, self.HI, g)[0]
        return delayed_block(spec, rows, self.HI + guard_band(spec), g)

    def _mismatch(self, name, blk, r, shift):
        """Whether row r's reductions differ from a recount of its epochs,
        read with the row boundaries moved by ``shift``."""
        spec = self.SPECS[name]
        epochs = blk.epochs[blk.starts[r] + shift : blk.starts[r + 1] + shift]
        pts = []
        for j, e in enumerate(epochs):
            model = spec.cluster
            if j == 0 and name != "stationary":
                model = spec.delay_cluster or EmptyCluster()
            pts += [e + o for o in model.sample(0.0, None)]
            if spec.include_parents:
                pts.append(e)
        pts = np.array(pts)
        count = int(np.sum((pts > self.LO) & (pts <= self.HI)))
        after = pts[pts > self.T]
        first = after.min() if after.size else np.inf
        grid = [int(np.sum((pts > self.GRID_LO) & (pts <= u))) for u in self.GRID]
        got_count, got_overflow = blk.window_counts(self.LO, self.HI)
        return not (
            got_count[r] == count
            and got_overflow[r] == pts.size - count
            # the recurrence estimator's row: the windows (T, T + x] that
            # are empty, which are those ending before the first point
            and np.count_nonzero(blk.grid_counts(self.T, self.T + self.X)[r] == 0)
            == np.count_nonzero(first > self.T + self.X)
            and np.array_equal(blk.grid_counts(self.GRID_LO, self.GRID)[r], grid)
        )

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_rows_match_brute_force(self, name):
        calls = []

        def check(stream, rows):
            calls.append(rows)
            blk = self._block(name, rows, stream.generator())
            assert blk.rows == rows
            return np.array([
                [self._mismatch(name, blk, r, 0), self._mismatch(name, blk, r, 1)]
                for r in range(rows)
            ])

        out = replicate(check, self.N_REP, RngStream(55), self.B)
        assert calls == [7, 7, 7, 3]
        assert out.shape == (self.N_REP, 2)
        assert not out[:, 0].any()
        # negative control: row boundaries shifted by one arrival must fail
        assert out[:, 1].any()
