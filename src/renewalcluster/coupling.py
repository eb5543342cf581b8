"""Executable coupling of the delayed and stationary marked renewal
processes, driven by a shared gap sequence and an independent Rademacher
sign sequence.

The two copies consume the shared gaps: the stationary copy takes those
with sign +1, the delayed copy those with sign -1, so the difference
between their current epochs performs a symmetric nonarithmetic random
walk.  The walk is recurrent, so it eventually enters [0, epsilon); from
that step on the two processes stay epsilon-close with identical marks.

Draw order: first the two starting epochs, U X* for the stationary copy
((X*, U) from ``stationary._straddle``, as a stationary row draws them,
X* from the gap law's own ``size_biased()`` law) and a delay draw for the
delayed one; then the shared steps come in blocks.
A block starting at step s holds min(2^14, cap - s) steps while the walk
runs, and 2^14 steps in the continuation past tau.  On Uniform(lo, hi)
gaps a step is one raw 64-bit word w: the gap lo + (hi - lo) (w >> 11)
2^-53, ``Generator.uniform``'s value for that word, signed -1 when w's bit
0 (which the gap does not read) is set.  Other laws draw a block's gaps
from the law, then as many raw words, and a step is +1 when its word's
top bit is clear (the event ``random() < 0.5`` at that stream position).
The stored path keeps V_i for every i <= 10^4, then in octave k,
10^4 2^(k-1) < i <= 10^4 2^k, the i divisible by 2^k.

The layout is fixed; only the reading is lazy.  ``_SharedSteps`` hands the
steps out in chunks, from the one generator, and materializes only those
the walk reads: on Uniform gaps the words of a chunk as it is read, for
other laws a block's gaps when it opens and its sign words as read.
Walks, paths and the draws left after tau do not depend on the chunks
(tests/data/walk_parity.json, walk_parity_laws.json).

Each walk is walked once.  ``run_coupling`` leaves the finished walk, its
reader positioned just past tau, in a one-shot module-private slot keyed
by its arguments (spec, epsilon, steps_cap, rng).  ``_walked``, the one
entry of ``run_coupling`` and ``post_coupling_agreement``, clears the slot
and, when the key matches, takes that walk, the one a fresh walk would
rebuild: a repeated ``run_coupling`` returns it again, and an agreement
reads on from its reader, so each equals a fresh walk's bit for bit.

``rademacher_flip_test`` reads its n_rep x n signs row-major, one raw word
each, +1 when the top bit is clear, in chunks of at most ``_FLIP_WORDS``
words (one row when a row is wider): the stream positions of one (n_rep, n)
draw, held in O(n_rep + chunk) words.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .laws import Uniform
from .patterns import csv_text
from .process import ProcessSpec
from .stationary import _straddle
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
# The walk's first chunk, near the median tau of criterion 8's walks
# (1040 steps).  A chunk costs about 9 us of numpy calls besides its
# draws (2 cores, numpy 2.4.6).  With one word a Uniform step, a walk and
# its agreement on the gated preset cost the same at 1024 and 2048 in the
# median and the mean (within 5%, the host's noise), and 1.2-1.7% more at
# 2048 in the median of per-walk ratios.
_FIRST_CHUNK = 1024
_DENSE_PATH = 10_000
_SIGN = np.uint64(1 << 63)
# The flip test's chunk: 0.5 MB per uint64 array.
_FLIP_WORDS = 1 << 16
# The walk handoff: "walk" -> the (spec, key, run, epochs, reader) of the
# last run_coupling.  A reader can be read on only once, so every _walked
# pops it (an atomic take).
_handoff = {}


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


class _SharedSteps:
    """The shared signed steps of one walk and its continuation, read in
    stream order and materialized only as far as they are read.

    The one reader of the layout: a block starting at step s holds
    min(2^14, cap - s) steps (2^14 once s >= cap or the walk has ended).
    On Uniform gaps each step is one raw word; otherwise a block draws its
    gaps first, then as many sign words.  ``take`` never crosses a block
    end; ``block[:drawn]`` are the current block's steps so far.
    """

    def __init__(self, law, g, cap):
        self.law, self.g, self.cap = law, g, cap
        self.start = self.size = self.read = self.drawn = 0
        self.block = None
        if type(law) is Uniform:
            # Generator.uniform's value for a word w is lo + (hi - lo) (w >> 11) 2^-53;
            # (hi - lo) 2^-53 is exact (for hi - lo >= 2^-969), so one product
            # rounds as its two do
            self.lo, self.scale = float(law.lo), (float(law.hi) - float(law.lo)) * 2.0**-53
        else:
            self.scale = None

    def end_walk(self, read):
        """The walk stopped after step ``read`` of the current block: the
        continuation reads on from there, in blocks the cap never cuts."""
        self.read = read
        self.cap = 0

    def take(self, n):
        """The next min(n, steps left in the block) steps, opening the next
        block when the current one is used up."""
        if self.read == self.size:
            self._open()
        a, b = self.read, min(self.read + n, self.size)
        if b > self.drawn:
            x = self.block[self.drawn : b]
            w = self.g.bit_generator.random_raw(x.size)
            if self.scale is None:
                w &= _SIGN  # the sign word's top bit
            else:
                np.multiply(w >> 11, self.scale, out=x)
                x += self.lo
                w <<= 63  # bit 0, which the gap does not read
            bits = x.view(np.uint64)
            bits ^= w
            self.drawn = b
        self.read = b
        return self.block[a:b]

    def _open(self):
        self.start += self.size
        self.size = min(_BLOCK, self.cap - self.start) if self.start < self.cap else _BLOCK
        self.read = self.drawn = 0
        if self.scale is None:
            self.block = np.asarray(self.law.sample(self.g, self.size), dtype=np.float64)
        else:
            self.block = np.empty(self.size)


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


def _draw_starts(spec, g):
    x_star, u = _straddle(spec.interarrival, 1, g)
    t0 = float(u[0] * x_star[0])
    t_delayed = float(spec.delay.sample(g)) if spec.delay is not None else 0.0
    return t0, t_delayed


def _count(name, n, least):
    """n as an int >= least; ValueError for anything else, a float included."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _walk(spec, epsilon, steps_cap, g):
    """Draw the starting epochs from g, then run the shared walk until it
    enters [0, epsilon) or the cap.

    Returns (run, epochs, steps): the ``CouplingRun``, the stationary and
    delayed epochs at tau (None when capped), and the walk's
    ``_SharedSteps``, positioned just past tau: the draws after it are
    part of the shared sequence and feed the post-coupling reconstruction.

    Chunks grow with the steps done (1024, 1024, 2048, ... up to a
    block), so they tile each block.  Partial sums restart at every block and run
    on sequentially inside it, so V_i and the |gap| sums match a kernel
    that summed whole blocks, bit for bit.
    """
    t0, t_delayed = _draw_starts(spec, g)
    v0 = t0 - t_delayed
    path = [np.array([v0])]
    path_idx = [np.array([0])]
    steps = _SharedSteps(spec.interarrival, g, steps_cap)
    tau = None
    if 0.0 <= v0 < epsilon:
        tau = 0
        steps.end_walk(0)
    v = v0  # V at the start of the current block
    c = 0.0  # partial sum of the current block so far
    done = 0
    total = 0.0
    minus = 0
    while tau is None and done < steps_cap:
        x = steps.take(min(max(_FIRST_CHUNK, done), steps_cap - done))
        n = x.size
        at = steps.read - n  # where the chunk starts in its block
        if at == 0:
            vs = x.cumsum()
        else:
            vs = x.copy()
            vs[0] += c
            vs.cumsum(out=vs)
        c = vs[-1]
        vs += v
        inside = (vs >= 0.0) & (vs < epsilon)
        stop = int(inside.argmax())
        hit = bool(inside[stop])
        if not hit:
            stop = n - 1
        if done + stop < _DENSE_PATH:
            path.append(vs[: stop + 1])
            path_idx.append(np.arange(done + 1, done + stop + 2))
        else:
            idx = _kept_indices(done + 1, done + stop + 1)
            path.append(vs[idx - (done + 1)])
            path_idx.append(idx)
        if hit or steps.read == steps.size:
            # |gap| sum and minus count per block, up to tau in the last one
            head = steps.block[: at + stop + 1]
            total += float(np.abs(head).sum())
            minus += int(np.count_nonzero(np.signbit(head)))
            v = float(vs[stop])
        if hit:
            steps.end_walk(at + stop + 1)
            tau = done + stop + 1
        done += n
    epochs = None
    if tau is not None:
        # plus and minus sums from the total |gap| and V_tau - V_0
        d = v - v0
        epochs = t0 + (total + d) / 2, t_delayed + (total - d) / 2
    run = CouplingRun(
        epsilon=epsilon,
        steps_cap=steps_cap,
        tau=tau,
        v_tau=None if tau is None else v,
        l_tau=None if tau is None else tau - minus,
        l_tau_delayed=None if tau is None else minus,
        coupling_time=None if tau is None else max(epochs),
        start_stationary=t0,
        start_delayed=t_delayed,
        v_path=np.concatenate(path),
        v_path_indices=np.concatenate(path_idx),
    )
    return run, epochs, steps


def _walked(spec, epsilon, steps_cap, rng):
    """(spec, key, run, epochs, steps) of the walk these arguments fix, after
    checking that epsilon is positive and finite and steps_cap an integer
    >= 1: the walk the last ``run_coupling`` left in the slot when it had
    the same spec object and the same key (epsilon, steps_cap, rng), else
    ``_walk`` on a new generator of rng.  Either way the slot is emptied."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    key = epsilon, _count("steps_cap", steps_cap, 1), rng
    slot = _handoff.pop("walk", None)
    if slot is not None and slot[0] is spec and slot[1] == key:
        return slot
    return spec, key, *_walk(spec, epsilon, key[1], rng.generator())


def run_coupling(
    spec: ProcessSpec,
    epsilon: float,
    steps_cap: int,
    rng: RngStream,
) -> CouplingRun:
    """Couple the stationary and delayed processes on one stream.

    A repeated call with the same arguments, and the same spec object,
    returns the run the last call left behind instead of walking again.
    """
    _handoff["walk"] = walk = _walked(spec, epsilon, steps_cap, rng)
    return walk[2]


def post_coupling_agreement(
    spec: ProcessSpec,
    epsilon: float,
    k_checks: int,
    rng: RngStream,
    steps_cap: int = 10**7,
) -> AgreementReport:
    """Verify that after the coupling step the matched arrivals of the two
    processes stay within [0, epsilon) with identical marks.

    The post-coupling arrivals of both processes are rebuilt from the
    shared sequence: each +1-signed gap advances both copies by the same
    value, and the attached mark is the same draw, so mark equality is
    exact by construction; the epoch gap is checked numerically.

    Every call whose arguments pass the checks (``run_coupling``'s, and
    k_checks an integer >= 0) takes and clears the walk ``run_coupling``
    left behind.  When that run had the same spec (the same object),
    epsilon, steps_cap and rng, the continuation is read from its reader,
    positioned past tau, instead of walking again; otherwise the walk is
    walked here.  Either way the report equals that of a fresh walk, bit
    for bit.
    """
    k_checks = _count("k_checks", k_checks, 0)
    *_, run, epochs, steps = _walked(spec, epsilon, steps_cap, rng)
    if run.capped:
        return AgreementReport(epsilon, None, k_checks, (), None, capped=True)

    # rows: the stationary and delayed epochs at tau, then the shared
    # +1-signed gaps continuing past it
    rows = np.empty((2, k_checks + 1))
    rows[:, 0] = epochs
    got = 0
    while got < k_checks:
        x = steps.take(3 * (k_checks - got))  # about half the steps are +1
        y = x[~np.signbit(x)][: k_checks - got]
        rows[:, 1 + got : 1 + got + y.size] = y
        got += y.size
    # cumsum adds along each row in sequence, as the arrivals do one by one
    rows.cumsum(axis=1, out=rows)
    gaps = rows[0] - rows[1]
    violations = tuple(np.flatnonzero(~((gaps >= 0.0) & (gaps < epsilon))).tolist())
    return AgreementReport(epsilon, run.tau, k_checks, violations, float(gaps.max()),
                           capped=False)


def random_walk_path(spec: ProcessSpec, n_steps: int, rng: RngStream) -> np.ndarray:
    """Dense walk path V_0..V_n for diagnostics (no stopping): the walk
    ``run_coupling`` takes at ``steps_cap = n``, block by block, each V_i
    its block's starting V plus the block's partial sum, as the walk forms it."""
    n_steps = _count("n_steps", n_steps, 0)
    g = rng.generator()
    t0, t_delayed = _draw_starts(spec, g)
    steps = _SharedSteps(spec.interarrival, g, n_steps)
    v = [np.array([t0 - t_delayed])]
    for _ in range(0, n_steps, _BLOCK):  # each take reads one whole block
        v.append(v[-1][-1] + steps.take(_BLOCK).cumsum())
    return np.concatenate(v)


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
    have accumulated (a stopping time: distributions agree); ``ones_needed``
    must lie in 1..n.  ``rule="peek_ahead"`` flips after the argmax of the
    partial sums, which looks into the future; it is a deliberate negative
    control and the test is expected to reject.  ``n``, ``ones_needed`` and
    ``rule`` are checked before any draw.
    """
    if not 1 <= ones_needed <= n:
        raise ValueError(f"need 1 <= ones_needed <= n, got ones_needed = {ones_needed}, n = {n}")
    if rule not in ("stopping", "peek_ahead"):
        raise ValueError(f"unknown rule {rule!r}")
    ga = rng.substream(1).generator().bit_generator
    gb = rng.substream(2).generator().bit_generator
    sums = np.empty((2, n_rep), dtype=np.int64)  # flipped, plain
    i = np.arange(1, n + 1)
    rows = max(1, _FLIP_WORDS // n)
    for lo in range(0, n_rep, rows):
        m = min(rows, n_rep - lo)
        # S_i = i - 2 (the -1's among the first i steps); flipping after
        # step j gives 2 S_j - S_n
        s = i - 2 * np.cumsum((ga.random_raw((m, n)) >> 63).view(np.int64), axis=1)
        if rule == "peek_ahead":
            s_j = s.max(axis=1)
        else:
            # ones_needed +1's among the first i steps: S_i >= 2 ones_needed - i,
            # with equality at the first such i; never reached, nothing flips
            reached = s >= 2 * ones_needed - i
            s_j = np.where(reached[:, -1], 2 * ones_needed - 1 - np.argmax(reached, axis=1),
                           s[:, -1])
        sums[0, lo:lo + m] = 2 * s_j - s[:, -1]
        sums[1, lo:lo + m] = n - 2 * np.count_nonzero(gb.random_raw((m, n)) >= _SIGN, axis=1)
    return two_sample_ks(*sums, alpha)


def coupling_runs_to_csv(runs) -> str:
    return csv_text("epsilon,tau,coupling_time,capped",
                    *zip(*((r.epsilon, r.tau, r.coupling_time, r.capped) for r in runs)))
