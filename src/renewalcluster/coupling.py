"""Executable coupling of the delayed and stationary marked renewal
processes, driven by a shared gap sequence and an independent Rademacher
sign sequence.

The two copies consume the shared gaps: the stationary copy takes those
with sign +1, the delayed copy those with sign -1, so the difference
between their current epochs performs a symmetric nonarithmetic random
walk.  The walk is recurrent, so it eventually enters [0, epsilon); from
that step on the two processes stay epsilon-close with identical marks.

Draw order: after the two starting epochs, each block of 2^14 shared steps
draws its 2^14 gaps from the interarrival law, then 2^14 raw 64-bit words.
A step is +1 when its word's top bit is clear (the event ``random() < 0.5``
at that stream position).  The stored path keeps V_i for every i <= 10^4,
then in octave k, 10^4 2^(k-1) < i <= 10^4 2^k, the i divisible by 2^k.
Walks, paths and the draws left after tau are bit-identical to those of
the earlier kernel that masked every step (tests/data/walk_parity.json).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import ProcessSpec
from .stationary import DEFAULT_POOL, _size_biased_gaps
from .stats import KsReport, two_sample_ks
from .streams import RngStream

__all__ = [
    "CouplingRun",
    "AgreementReport",
    "run_coupling",
    "post_coupling_agreement",
    "rademacher_flip_test",
    "random_walk_path",
    "coupling_runs_to_csv",
]

_BLOCK = 1 << 14
_DENSE_PATH = 10_000
_SIGN = np.uint64(1 << 63)


@dataclass(frozen=True)
class CouplingRun:
    """Outcome of one coupling attempt.

    ``tau`` is the number of shared steps until the walk first enters
    [0, epsilon), or None when the cap was hit (a tracked value, not a
    failure).  ``coupling_time`` is the later of the two epochs at which
    the processes meet.  ``v_path`` holds the walk thinned beyond 10^4
    steps; detection itself is exact at every step.
    """

    epsilon: float
    steps_cap: int
    tau: int | None
    v_tau: float | None
    l_tau: int | None
    l_tau_delayed: int | None
    coupling_time: float | None
    start_stationary: float
    start_delayed: float
    v_path: np.ndarray
    v_path_indices: np.ndarray

    @property
    def capped(self) -> bool:
        return self.tau is None


@dataclass(frozen=True)
class AgreementReport:
    """Post-coupling bookkeeping check: epoch gaps in [0, epsilon) and
    identical marks at matched indices.  A violation is an implementation
    bug, never expected."""

    epsilon: float
    tau: int | None
    k_checks: int
    violations: tuple
    max_gap: float | None
    capped: bool

    @property
    def passed(self) -> bool:
        return (not self.capped) and not self.violations


def _signed_gaps(law, g, n):
    """n shared gaps, each carrying its Rademacher sign in the sign bit.

    Draws the gaps, then n raw words; a word with its top bit set makes its
    step -1.  That is the stream position of ``g.random(n) < 0.5`` (true
    exactly when the top bit is clear) and, bit for bit, ``np.where(plus,
    x, -x)``.
    """
    x = np.asarray(law.sample(g, n), dtype=np.float64)
    bits = x.view(np.uint64)
    bits ^= g.bit_generator.random_raw(n) & _SIGN
    return x


def _kept_indices(a, b):
    """Path indices in [a, b] kept by the thinning: every index up to 10^4,
    then in octave k, (10^4 2^(k-1), 10^4 2^k], the multiples of 2^k."""
    parts = [np.arange(a, min(b, _DENSE_PATH) + 1)]
    lo, step = _DENSE_PATH, 2
    while lo < b:
        first = -(-max(a, lo + 1) // step) * step
        parts.append(np.arange(first, min(b, 2 * lo) + 1, step))
        lo, step = 2 * lo, 2 * step
    return np.concatenate(parts)


def _draw_starts(spec, g, pool_size, start_override):
    if start_override is not None:
        return float(start_override[0]), float(start_override[1])
    law = spec.interarrival
    x_star = float(_size_biased_gaps(law, 1, g, pool_size)[0])
    u = g.random()
    t0 = u * x_star
    t_delayed = float(spec.delay.sample(g)) if spec.delay is not None else 0.0
    return t0, t_delayed


def _walk(spec, epsilon, steps_cap, g, t0, t_delayed):
    """Run the shared walk until it enters [0, epsilon) or the cap.

    Returns (tau, v_tau, plus_count, sum_plus, sum_minus, path, path_idx,
    leftover) where leftover holds the unconsumed signed gaps of the final
    block: those draws are part of the shared sequence and feed the
    post-coupling reconstruction.
    """
    law = spec.interarrival
    v0 = t0 - t_delayed
    path = [np.array([v0])]
    path_idx = [np.array([0])]
    if 0.0 <= v0 < epsilon:
        return 0, v0, 0, 0.0, 0.0, path, path_idx, np.empty(0)
    v = v0
    done = 0
    total = 0.0
    minus = 0
    while done < steps_cap:
        n = min(_BLOCK, steps_cap - done)
        steps = _signed_gaps(law, g, n)
        vs = np.cumsum(steps)
        vs += v
        hits = np.flatnonzero((vs >= 0.0) & (vs < epsilon))
        stop = int(hits[0]) if hits.size else n - 1
        idx = _kept_indices(done + 1, done + stop + 1)
        path.append(vs[idx - (done + 1)])
        path_idx.append(idx)
        head = steps[: stop + 1]
        total += float(np.abs(head).sum())
        minus += int(np.count_nonzero(np.signbit(head)))
        if hits.size:
            tau = done + stop + 1
            v_tau = float(vs[stop])
            # plus and minus sums from the total |gap| and V_tau - V_0
            d = v_tau - v0
            sums = (total + d) / 2, (total - d) / 2
            return tau, v_tau, tau - minus, *sums, path, path_idx, steps[stop + 1 :]
        v = float(vs[-1])
        done += n
    return None, None, None, None, None, path, path_idx, np.empty(0)


def run_coupling(
    spec: ProcessSpec,
    epsilon: float,
    steps_cap: int,
    rng: RngStream,
    start_override: tuple | None = None,
    pool_size: int = DEFAULT_POOL,
) -> CouplingRun:
    """Couple the stationary and delayed processes on one stream.

    ``start_override`` substitutes the two initial epochs (stationary,
    delayed); with equal values the walk starts at 0 and tau = 0.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if steps_cap < 1:
        raise ValueError("steps_cap must be >= 1")
    g = rng.generator()
    t0, t_delayed = _draw_starts(spec, g, pool_size, start_override)
    tau, v_tau, plus_count, sum_plus, sum_minus, path, path_idx, _ = _walk(
        spec, epsilon, steps_cap, g, t0, t_delayed
    )
    coupled = tau is not None
    return CouplingRun(
        epsilon=epsilon,
        steps_cap=steps_cap,
        tau=tau,
        v_tau=v_tau,
        l_tau=plus_count,
        l_tau_delayed=tau - plus_count if coupled else None,
        coupling_time=max(t0 + sum_plus, t_delayed + sum_minus) if coupled else None,
        start_stationary=t0,
        start_delayed=t_delayed,
        v_path=np.concatenate(path),
        v_path_indices=np.concatenate(path_idx),
    )


def post_coupling_agreement(
    spec: ProcessSpec,
    epsilon: float,
    k_checks: int,
    rng: RngStream,
    steps_cap: int = 10**7,
    start_override: tuple | None = None,
    pool_size: int = DEFAULT_POOL,
) -> AgreementReport:
    """Verify that after the coupling step the matched arrivals of the two
    processes stay within [0, epsilon) with identical marks.

    The post-coupling arrivals of both processes are rebuilt from the
    shared sequence: each +1-signed gap advances both copies by the same
    value, and the attached mark is the same draw, so mark equality is
    exact by construction; the epoch gap is checked numerically.
    """
    if k_checks < 0:
        raise ValueError("k_checks must be >= 0")
    g = rng.generator()
    t0, t_delayed = _draw_starts(spec, g, pool_size, start_override)
    tau, v_tau, plus_count, sum_plus, sum_minus, _, _, leftover = _walk(
        spec, epsilon, steps_cap, g, t0, t_delayed
    )
    if tau is None:
        return AgreementReport(epsilon, None, k_checks, (), None, capped=True)

    # shared +1-signed gaps continuing past tau
    ys = leftover[~np.signbit(leftover)]
    while ys.size < k_checks:
        more = _signed_gaps(spec.interarrival, g, _BLOCK)
        ys = np.concatenate([ys, more[~np.signbit(more)]])
    ys = ys[:k_checks]
    # np.cumsum adds in sequence, as the arrivals do one by one
    stationary_epochs = np.cumsum(np.concatenate(([t0 + sum_plus], ys)))
    delayed_epochs = np.cumsum(np.concatenate(([t_delayed + sum_minus], ys)))
    gaps = stationary_epochs - delayed_epochs
    violations = tuple(np.flatnonzero(~((gaps >= 0.0) & (gaps < epsilon))).tolist())
    return AgreementReport(epsilon, tau, k_checks, violations, float(gaps.max()), capped=False)


def random_walk_path(
    spec: ProcessSpec,
    n_steps: int,
    rng: RngStream,
    start_override: tuple | None = None,
    pool_size: int = DEFAULT_POOL,
) -> np.ndarray:
    """Dense walk path V_0..V_n for diagnostics (no stopping)."""
    g = rng.generator()
    t0, t_delayed = _draw_starts(spec, g, pool_size, start_override)
    steps = _signed_gaps(spec.interarrival, g, n_steps)
    return (t0 - t_delayed) + np.concatenate(([0.0], np.cumsum(steps)))


def rademacher_flip_test(
    n: int,
    n_rep: int,
    rng: RngStream,
    ones_needed: int = 2,
    rule: str = "stopping",
    alpha: float = 0.01,
) -> KsReport:
    """KS-compare partial sums of sign sequences flipped after a rule index
    against unflipped ones.

    ``rule="stopping"`` flips after the index at which ``ones_needed`` +1's
    have accumulated (a stopping time: distributions agree).
    ``rule="peek_ahead"`` flips after the argmax of the partial sums, which
    looks into the future; it is a deliberate negative control and the test
    is expected to reject.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ga = rng.substream(1).generator()
    gb = rng.substream(2).generator()
    signs = np.where(ga.random((n_rep, n)) < 0.5, 1, -1)
    if rule == "stopping":
        reached = np.cumsum(signs == 1, axis=1) >= ones_needed
        found = reached.any(axis=1)
        first = np.argmax(reached, axis=1)
        first[~found] = n  # never reached: nothing flipped
        flip = np.arange(n) > first[:, None]
    elif rule == "peek_ahead":
        s = np.cumsum(signs, axis=1)
        flip = np.arange(n) > np.argmax(s, axis=1)[:, None]
    else:
        raise ValueError(f"unknown rule {rule!r}")
    flipped_sums = np.where(flip, -signs, signs).sum(axis=1)
    plain_sums = np.where(gb.random((n_rep, n)) < 0.5, 1, -1).sum(axis=1)
    return two_sample_ks(flipped_sums, plain_sums, alpha)


def coupling_runs_to_csv(runs) -> str:
    lines = ["epsilon,tau,coupling_time,capped"]
    for r in runs:
        tau = "" if r.tau is None else str(r.tau)
        ct = "" if r.coupling_time is None else repr(r.coupling_time)
        lines.append(f"{r.epsilon!r},{tau},{ct},{str(r.capped).lower()}")
    return "\n".join(lines) + "\n"
