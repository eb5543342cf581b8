"""Monte Carlo estimators with closed-form long-run targets.

Each estimator simulates its replications in blocks of B rows (see
``replicate``), where block k draws from substream k of the experiment's
stream, so results depend only on the seed, B and the replication count,
never on the order in which blocks run.  Every estimator reads window
counts, the recurrence CDF too, as P(N(t, t + x] >= 1).  The scalar
estimators (window mean, elementary ratio, void probability, key renewal
sum) report an ``ExperimentReport``: a normal-approximation confidence
interval next to the closed-form limit.

The Bartlett-Lewis void-probability and recurrence-CDF targets read the
integral of the step survival function from the step law's
``limited_mean``, exactly.  A plain survival callable in its place is
integrated by a short adaptive Gauss-Legendre rule in numpy, so no target
needs ``scipy.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError
from .patterns import csv_text
from .process import ProcessSpec, _finite, block_size, delayed_block, guard_band
from .streams import RngStream

__all__ = [
    "ExperimentReport",
    "StepFunction",
    "CdfReport",
    "RenewalFunctionTable",
    "replicate",
    "theoretical_blackwell_limit",
    "estimate_window_mean",
    "estimate_elementary_ratio",
    "estimate_forward_recurrence_cdf",
    "bartlett_lewis_void_probability",
    "bartlett_lewis_recurrence_cdf",
    "estimate_void_probability",
    "estimate_renewal_function",
    "estimate_key_renewal",
    "key_renewal_limit",
]

# 99.7% two-sided normal CI; acceptance checks widen to 4 SE.
DEFAULT_Z = 3.0
# absolute and relative tolerance of a survival callable's quadrature
_QUAD_TOL = 1e-9
# panels the quadrature may evaluate before it gives up
_QUAD_PANELS = 2000
# Gauss-Legendre nodes and weights on [-1, 1] of the quadrature's two orders
_GAUSS = [[v.tolist() for v in np.polynomial.legendre.leggauss(n)] for n in (8, 16)]


@dataclass(frozen=True)
class ExperimentReport:
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    n_rep: int
    target: float | None
    seed: int
    truncation_tally: int = 0
    block: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (self.ci_low <= self.estimate <= self.ci_high):
            raise ValueError("CI must contain the estimate")

    def within(self, n_se: float) -> bool | None:
        """Whether |estimate - target| <= n_se * std_error."""
        if self.target is None:
            return None
        return abs(self.estimate - self.target) <= n_se * self.std_error

    CSV_HEADER = "estimate,std_error,ci_low,ci_high,n_rep,target,seed,truncation_tally"

    def to_csv_row(self) -> str:
        fields = (self.estimate, self.std_error, self.ci_low, self.ci_high, self.n_rep,
                  self.target, self.seed, self.truncation_tally)
        return csv_text(self.CSV_HEADER, *([f] for f in fields)).split("\n")[1]

    @classmethod
    def from_csv_row(cls, row: str) -> "ExperimentReport":
        est, se, lo, hi, n, target, seed, tally = row.split(",")
        return cls(
            float(est),
            float(se),
            float(lo),
            float(hi),
            int(n),
            float(target) if target else None,
            int(seed),
            int(tally),
        )


def _report(values, tallies, target, rng, block):
    values = np.asarray(values, dtype=np.float64)
    est = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    return ExperimentReport(
        estimate=est,
        std_error=se,
        ci_low=est - DEFAULT_Z * se,
        ci_high=est + DEFAULT_Z * se,
        n_rep=int(values.size),
        target=target,
        seed=rng.seed,
        truncation_tally=int(np.sum(tallies)),
        block=block,
    )


def replicate(fn, n_rep: int, rng: RngStream, block: int) -> np.ndarray:
    """Run fn(stream, rows) on consecutive blocks of at most ``block``
    replications and stack its per-replication rows in replication order.

    Block k holds replications k * block onwards and draws from
    rng.substream(k) alone, so blocks can run in any order.  Needs
    n_rep >= 2, so that every estimate has a standard error.
    """
    if n_rep < 2:
        raise ValueError(f"need n_rep >= 2, got {n_rep}")
    return np.concatenate([
        fn(rng.substream(k), min(block, n_rep - start))
        for k, start in enumerate(range(0, n_rep, block))
    ])


def _delayed_rows(spec: ProcessSpec, hi: float, read):
    """Block function applying ``read`` to a delayed_block on
    (0, hi + guard], and its block size."""
    t_max = hi + guard_band(spec)

    def rows_of(stream, rows):
        return read(delayed_block(spec, rows, t_max, stream.generator()))

    return rows_of, block_size(spec, t_max)


def _window_rows(spec: ProcessSpec, lo: float, hi: float):
    """Block function giving each row's (count in (lo, hi], overflow), and
    its block size."""
    return _delayed_rows(spec, hi, lambda b: np.column_stack(b.window_counts(lo, hi)))


def _rate_term(spec: ProcessSpec) -> float:
    """Long-run points per unit time: (E L (+1 with parents)) / E X."""
    mean_l = spec.mean_cluster_size()
    if spec.include_parents:
        mean_l = mean_l + 1.0
    return mean_l / spec.interarrival.mean()


def theoretical_blackwell_limit(spec: ProcessSpec, x: float) -> float:
    """Limit of the expected count in (t, t+x] as t grows."""
    if not x > 0:
        raise ValueError("x must be positive")
    return _rate_term(spec) * x


def estimate_window_mean(
    spec: ProcessSpec,
    t: float,
    x: float,
    n_rep: int,
    rng: RngStream,
) -> ExperimentReport:
    """Monte Carlo mean of the count in (t, t+x] over independent runs."""
    _finite(t=t, x=x)
    if t < 0 or not x > 0:
        raise ValueError("need t >= 0, x > 0")
    fn, block = _window_rows(spec, t, t + x)
    out = replicate(fn, n_rep, rng, block)
    return _report(out[:, 0], out[:, 1], theoretical_blackwell_limit(spec, x), rng, block)


def estimate_elementary_ratio(
    spec: ProcessSpec,
    t: float,
    n_rep: int,
    rng: RngStream,
) -> ExperimentReport:
    """Monte Carlo estimate of (count in (0, t]) / t."""
    _finite(t=t)
    if not t > 0:
        raise ValueError("t must be positive")
    fn, block = _window_rows(spec, 0.0, t)
    out = replicate(fn, n_rep, rng, block)
    return _report(out[:, 0] / t, out[:, 1], _rate_term(spec), rng, block)


@dataclass(frozen=True)
class CdfReport:
    """Pointwise empirical CDF with normal-approximation half-widths."""

    grid: np.ndarray
    values: np.ndarray
    half_widths: np.ndarray
    n_rep: int
    target: np.ndarray | None
    seed: int
    block: int | None = field(default=None, compare=False)

    @property
    def max_target_gap(self) -> float | None:
        if self.target is None:
            return None
        return float(np.max(np.abs(self.values - self.target)))

    CSV_HEADER = "x,cdf,half_width,target"

    def to_csv(self) -> str:
        target = [None] * len(self.grid) if self.target is None else self.target
        return csv_text(self.CSV_HEADER, self.grid, self.values, self.half_widths, target)


def estimate_forward_recurrence_cdf(
    spec: ProcessSpec,
    t: float,
    x_grid,
    n_rep: int,
    rng: RngStream,
) -> CdfReport:
    """Empirical CDF of the forward-recurrence time W_t on the grid, by the
    void identity P(W_t <= x) = P(N(t, t + x] >= 1).

    Per row, the grid values x with (t, t + x] empty are a prefix of the
    grid; a block holds its length, the row's zeros in ``Block.grid_counts``
    on (t, t + x], and the CDF at j is the fraction of rows whose prefix is
    at most j long.  The rows are those of ``_delayed_rows`` on
    (0, t + x_grid[-1]], the ones ``estimate_void_probability`` reads at
    x = x_grid[-1].  The target is the Bartlett-Lewis limit, or None.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    _finite(t=t, x_grid=x_grid)
    if t < 0:
        raise ValueError("need t >= 0")
    if x_grid.size == 0 or np.any(np.diff(x_grid) < 0) or np.any(x_grid < 0):
        raise ValueError("x_grid must be sorted and nonnegative")
    fn, block = _delayed_rows(
        spec, t + float(x_grid[-1]),
        lambda b: np.count_nonzero(b.grid_counts(t, t + x_grid) == 0, axis=1))
    k = replicate(fn, n_rep, rng, block)
    values = np.cumsum(np.bincount(k, minlength=x_grid.size + 1)[:x_grid.size]) / n_rep
    half = DEFAULT_Z * np.sqrt(np.maximum(values * (1.0 - values), 0.0) / n_rep)
    params = _bartlett_lewis_params(spec)
    target = None if params is None else bartlett_lewis_recurrence_cdf(*params, x_grid)
    return CdfReport(x_grid, values, half, n_rep, target, rng.seed, block)


def _integrate(survival, x: float) -> float:
    """Integral of ``survival`` over (0, x], x > 0, by adaptive
    Gauss-Legendre, calling it on one float at a time.

    A panel counts once its order-8 and order-16 sums agree within
    _QUAD_TOL, relative or per unit of x; otherwise it is halved.  Raises
    QuadratureError after _QUAD_PANELS panels.
    """
    total, panels = 0.0, [(0.0, x)]
    for _ in range(_QUAD_PANELS):
        a, b = panels.pop()
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        low, high = (half * sum(w * survival(mid + half * u) for u, w in zip(*rule))
                     for rule in _GAUSS)
        if abs(high - low) <= _QUAD_TOL * max(abs(high), (b - a) / x):
            total += high
        else:
            panels += [(a, mid), (mid, b)]
        if not panels:
            return float(total)
    raise QuadratureError(f"no convergence in {_QUAD_PANELS} panels on (0, {x}]")


def _limited_mean(step, x):
    """Integral of P(step > y) over (0, x] at each x: ``step.limited_mean``,
    or ``step`` itself integrated when it is a survival callable."""
    if hasattr(step, "limited_mean"):
        return step.limited_mean(x)
    return np.array([_integrate(step, v) if v > 0 else 0.0
                     for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def bartlett_lewis_void_probability(rate: float, mean_size: float, step, x: float) -> float:
    """Long-run probability of an empty length-x window for Poisson parents
    with forward-running step clusters.

    Evaluates exp(-rate * (x + mean_size * integral_0^x P(step > y) dy)).
    ``step`` is the step law, whose ``limited_mean`` gives the integral, or
    a survival function y -> P(step > y) on floats.
    """
    _finite(x=x)
    if not x > 0:
        raise ValueError("x must be positive")
    return float(np.exp(-rate * (x + mean_size * _limited_mean(step, x))))


def bartlett_lewis_recurrence_cdf(rate, mean_size, step, x_grid):
    """Closed-form limiting forward-recurrence CDF for the same model: one
    minus the void probability at each grid value, 0 at x <= 0."""
    x = np.asarray(x_grid, dtype=np.float64)
    _finite(x_grid=x)
    return np.where(x > 0, 1.0 - np.exp(-rate * (x + mean_size * _limited_mean(step, x))), 0.0)


def _bartlett_lewis_params(spec: ProcessSpec):
    """(rate, mean cluster size, step law) when the spec is Poisson parents
    with cumulative-step clusters, parents included and no delay, the model
    of the closed-form void and recurrence targets; else None."""
    from .clusters import CumulativeStepCluster
    from .laws import Exponential

    if (
        isinstance(spec.interarrival, Exponential)
        and isinstance(spec.cluster, CumulativeStepCluster)
        and spec.include_parents
        and spec.delay is None
    ):
        return spec.interarrival.rate, spec.cluster.size.mean(), spec.cluster.step
    return None


def estimate_void_probability(
    spec: ProcessSpec,
    t: float,
    x: float,
    n_rep: int,
    rng: RngStream,
) -> ExperimentReport:
    """Fraction of replications with an empty window (t, t+x]."""
    _finite(t=t, x=x)
    if t < 0 or not x > 0:
        raise ValueError("need t >= 0, x > 0")
    fn, block = _window_rows(spec, t, t + x)
    out = replicate(fn, n_rep, rng, block)
    params = _bartlett_lewis_params(spec)
    target = None if params is None else bartlett_lewis_void_probability(*params, x)
    return _report((out[:, 0] == 0).astype(np.float64), out[:, 1], target, rng, block)


@dataclass(frozen=True)
class RenewalFunctionTable:
    """Tabulated expected cumulative count up to each grid time.

    ``raw`` is the column mean of per-replication cumulative counts, so it
    is nondecreasing in the grid without any fit.
    """

    grid: np.ndarray
    raw: np.ndarray
    std_errors: np.ndarray
    n_rep: int
    seed: int
    block: int | None = field(default=None, compare=False)

    CSV_HEADER = "t,raw,std_error"

    def to_csv(self) -> str:
        return csv_text(self.CSV_HEADER, self.grid, self.raw, self.std_errors)


def estimate_renewal_function(
    spec: ProcessSpec,
    t_grid,
    n_rep: int,
    rng: RngStream,
) -> RenewalFunctionTable:
    """Monte Carlo estimate of the expected count of points at or below each
    grid time: per replication, the count in (-inf, u] for each grid time u."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    _finite(t_grid=t_grid)
    if t_grid.size == 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be sorted and nonempty")
    fn, block = _delayed_rows(spec, float(t_grid[-1]), lambda b: b.grid_counts(-np.inf, t_grid))
    counts = replicate(fn, n_rep, rng, block).astype(np.float64)
    raw = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(n_rep)
    return RenewalFunctionTable(t_grid, raw, se, n_rep, rng.seed, block)


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative step function: disjoint pieces ([a, b), height)."""

    pieces: tuple

    def __post_init__(self):
        pieces = tuple(tuple(p) for p in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        for a, b, h in pieces:
            if not (np.isfinite(a) and np.isfinite(b) and a < b and h >= 0):
                raise ValueError(f"invalid piece ({a}, {b}, {h})")
        spans = sorted((a, b) for a, b, _ in pieces)
        for (_, b1), (a2, _) in zip(spans, spans[1:]):
            if a2 < b1:
                raise ValueError("pieces must be pairwise disjoint")

    def integral(self) -> float:
        return float(sum(h * (b - a) for a, b, h in self.pieces))


def key_renewal_limit(spec: ProcessSpec, g: StepFunction) -> float:
    """Key renewal limit of E sum_y g(t - y) over the points y: rate times
    the integral of g."""
    return _rate_term(spec) * g.integral()


def estimate_key_renewal(
    spec: ProcessSpec,
    t: float,
    g: StepFunction,
    n_rep: int,
    rng: RngStream,
) -> ExperimentReport:
    """Monte Carlo mean of sum_y g(t - y) over the points y.

    Per replication, each piece ([a, b), h) of g adds h times the count in
    (t - b, t - a], all read from one delayed block on (0, t - min a]; the
    tally is the overflow of (t - max b, t - min a].  With g the indicator
    of [0, x) this is ``estimate_window_mean(spec, t - x, x, ...)``, draw
    for draw.
    """
    _finite(t=t)
    if t < 0:
        raise ValueError("need t >= 0")
    lo = t - max(b for _, b, _ in g.pieces)
    hi = t - min(a for a, _, _ in g.pieces)

    def read(blk):
        value = sum(h * blk.window_counts(t - b, t - a)[0] for a, b, h in g.pieces)
        return np.column_stack([value, blk.window_counts(lo, hi)[1]])

    fn, block = _delayed_rows(spec, hi, read)
    out = replicate(fn, n_rep, rng, block)
    return _report(out[:, 0], out[:, 1], key_renewal_limit(spec, g), rng, block)
