"""The shared-step layout of the coupling walk, read lazily.

``data/walk_parity_laws.json`` was written by renewalcluster at commit
6f4976f, whose walk drew every block whole (its gaps, then as many sign
words).  It holds walks at epsilon 0.1 for Uniform(0, 5),
Exponential(0.4), Gamma(2.5, 1) and a 1:1 mixture of
Exponential(1) and Uniform(0, 8) gaps (each law's own delay, no clusters),
substreams 0-9 of ``stream_for(5, law)`` at caps 1, 300, 2^14, 2^14 + 1
and 20,000 and substreams 0-5 at 10^5; and for each cap two agreements on
walks that coupled (one with k_checks 20,000, more plus-gaps than a block
holds), one on a capped walk, and two from equal starts (tau 0), each
with the sha256 of the first 40,000 signed steps after tau.  Every
recorded float, the coupling time and the agreement's max gap included,
must match to the bit.

The mixture's walks start from a size-biased gap, which 6f4976f drew from
a weighted pool.  Their rows were recorded again on 6f4976f with only that
pool branch replaced by composition, the exact draw the package makes now
(``stationary._size_biased_gaps``); the equal-start rows and the capped
walks that stayed capped did not change.  The new starts cap three mixture
agreements whose walks coupled before (substream 0 at caps 2^14, 2^14 + 1
and 20,000); they keep a continuation hash, of the 40,000 steps after the
cap.  The three at substream 4 were capped and now couple.

The Uniform rows were recorded again when a Uniform step came to read one
word: the gap from its top 53 bits, the sign from its bit 0 (before, a
block drew its gaps, then a sign word per step).  Their seeds, substreams,
caps and k_checks are those of 6f4976f; every Uniform agreement now has a
continuation hash, after the cap for the capped ones.  Under the new words
the agreement walks at substreams 0 and 6, cap 300, traded places: 0
couples (tau 49) and 6 is capped.  No row of another law changed.

The Uniform and mixture rows were recorded again when X* of a Uniform
law (and so of the mixture's Uniform component) came to be drawn as the
square root of one Uniform(lo^2, hi^2) word instead of by rejection: their
walks start from other words.  Seeds, substreams, caps and k_checks are
unchanged, every one of their agreements has a continuation hash, and the
equal-start rows, which draw no start, did not change.  Walks traded
places again: at cap 300 the agreements at Uniform substreams 0 and 5 and
at mixture substreams 0 and 1 are now capped, and Uniform substream 6
couples (tau 93); at caps 2^14 to 20,000 Uniform substream 2 is capped
and mixture substream 0 couples (tau 60).  No Exponential or Gamma row
changed.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from renewalcluster import Exponential, GammaLaw, Mixture, Uniform, stream_for
from renewalcluster.clusters import EmptyCluster
from renewalcluster.coupling import (
    _FIRST_CHUNK,
    _SharedSteps,
    _walk,
    post_coupling_agreement,
    run_coupling,
)
from renewalcluster.process import ProcessSpec

TABLE = json.loads((Path(__file__).parent / "data" / "walk_parity_laws.json").read_text())
EPS = TABLE["epsilon"]
LAWS = {
    "uniform": Uniform(0.0, 5.0),
    "exponential": Exponential(0.4),
    "gamma": GammaLaw(2.5, 1.0),
    "mixture": Mixture(((0.5, Exponential(1.0)), (0.5, Uniform(0.0, 8.0)))),
}


def _spec(name):
    law = LAWS[name]
    return ProcessSpec(interarrival=law, cluster=EmptyCluster(), delay=law)


def _rng(rec):
    return stream_for(TABLE["stream_seed"], rec["law"]).substream(rec["substream"])


def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def _hex(x):
    return None if x is None else x.hex()


@pytest.mark.parametrize(
    "rec", TABLE["walks"], ids=[f"{w['law']}-s{w['substream']}-cap{w['cap']}" for w in TABLE["walks"]]
)
def test_walk_matches_recorded(rec):
    run = run_coupling(_spec(rec["law"]), EPS, rec["cap"], _rng(rec))
    assert run.tau == rec["tau"]
    assert _hex(run.v_tau) == rec["v_tau"]
    assert run.l_tau == rec["l_tau"]
    assert _hex(run.coupling_time) == rec["coupling_time"]
    assert run.v_path.size == rec["path_points"]
    assert _sha(run.v_path) == rec["v_path_sha256"]
    assert _sha(run.v_path_indices) == rec["v_path_indices_sha256"]


@pytest.mark.parametrize(
    "rec",
    TABLE["agreements"],
    ids=[f"{a['law']}-s{a['substream']}-cap{a['cap']}-k{a['k_checks']}"
         + ("-equal" if a["start_override"] else "") for a in TABLE["agreements"]],
)
def test_agreement_matches_recorded(rec, fix_starts):
    fix_starts(rec["start_override"])
    rep = post_coupling_agreement(_spec(rec["law"]), EPS, rec["k_checks"], _rng(rec),
                                  steps_cap=rec["cap"])
    assert rep.tau == rec["tau"]
    assert list(rep.violations) == rec["violations"]
    assert _hex(rep.max_gap) == rec["max_gap"]


def _read_unevenly(steps, n):
    """The next n steps of a ``_SharedSteps``, taken in chunks of 1, 4, 13, ..."""
    parts, chunk = [], 1
    while n:
        parts.append(steps.take(min(chunk, n)).copy())
        n -= parts[-1].size
        chunk = 3 * chunk + 1
    return np.concatenate(parts)


def _continuation(rec, n=40_000):
    """The first n shared steps after tau (after the cap for a capped
    walk), read in uneven chunks."""
    *_, steps = _walk(_spec(rec["law"]), EPS, rec["cap"], _rng(rec).generator())
    return _read_unevenly(steps, n)


@pytest.mark.parametrize(
    "rec",
    [a for a in TABLE["agreements"] if a["continuation_sha256"] is not None],
    ids=lambda a: f"{a['law']}-s{a['substream']}-cap{a['cap']}"
    + ("-equal" if a["start_override"] else ""),
)
def test_continuation_matches_recorded(rec, fix_starts):
    fix_starts(rec["start_override"])
    assert _sha(_continuation(rec)) == rec["continuation_sha256"]


def test_table_covers_the_layout():
    """The recorded walks hit in the first chunk, later in the first
    block, in a later block, and get capped; agreements read past a block."""
    taus = [w["tau"] for w in TABLE["walks"]]
    assert any(t is not None and 0 < t <= _FIRST_CHUNK for t in taus)
    assert any(t is not None and 2 * _FIRST_CHUNK < t <= 2**14 for t in taus)
    assert any(t is not None and t > 2**14 for t in taus)
    assert None in taus
    assert any(a["tau"] is not None and a["k_checks"] > 2**14 for a in TABLE["agreements"])


KEY = [0x243F6A8885A308D3, 0x13198A2E03707344]


@pytest.mark.parametrize("lo, hi", [(0.0, 5.0), (0.2, 3.0)])
def test_uniform_step_is_one_word(lo, hi):
    """On Uniform gaps step i reads word i of the stream alone: its gap is
    ``Uniform.sample``'s value for that word, lo + (hi - lo) times the top
    53 bits over 2^53, and it is negative when the word's bit 0 is set.
    A numpy stream change that moved either would change walks silently,
    so it fails here."""
    n = 10**6
    law = Uniform(lo, hi)
    words = np.random.Philox(key=KEY).random_raw(n)
    gaps = law.sample(np.random.Generator(np.random.Philox(key=KEY)), n)
    top = lo + (hi - lo) * ((words >> 11) * 2.0**-53)
    assert np.array_equal(gaps.view(np.uint64), top.view(np.uint64))
    steps = _SharedSteps(law, np.random.Generator(np.random.Philox(key=KEY)), n)
    x = _read_unevenly(steps, n)
    assert np.array_equal(np.abs(x).view(np.uint64), gaps.view(np.uint64))
    assert np.array_equal(np.signbit(x), (words & 1).astype(bool))


OFFSETS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 16383, 16384, 16385]
LAW = Uniform(0.0, 5.0)


def _signed_uniform_steps(words):
    """The Uniform(0, 5) steps that ``words`` make under the one-word rule:
    the gap from the top 53 bits, negative where bit 0 is set."""
    x = 5.0 * ((words >> 11) * 2.0**-53)
    x.view(np.uint64)[:] ^= (words & np.uint64(1)) << np.uint64(63)
    return x


def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))


@pytest.mark.parametrize("base", [0, 2**64 - 3], ids=["counter0", "carry"])
@pytest.mark.parametrize("buffer_pos", [0, 1, 2, 3, 4])
def test_ahead_reads_the_straight_stream(base, buffer_pos):
    """Step d of a Uniform walk on g reads word d past g's next one, for
    every buffer position and across counter (and 64-bit carry) boundaries,
    and the walk leaves g just past its last step's word."""
    n = OFFSETS[-1] + 6
    ref = np.random.Philox(counter=base, key=KEY).random_raw(n + 16)
    for drawn in (1, 4, 5, 8):
        g = np.random.Generator(np.random.Philox(counter=base, key=KEY))
        g.bit_generator.random_raw(drawn)
        nxt = drawn
        state = g.bit_generator.state
        if buffer_pos == 0:
            if state["buffer_pos"] != 1:
                continue
            state["buffer_pos"] = 0  # lane 0 of the loaded counter, read again
            g.bit_generator.state = state
            nxt = drawn - 1
        elif state["buffer_pos"] != buffer_pos:
            g.bit_generator.random_raw((buffer_pos - state["buffer_pos"]) % 4)
            nxt = drawn + (buffer_pos - state["buffer_pos"]) % 4
        assert g.bit_generator.state["buffer_pos"] == buffer_pos
        x = _read_unevenly(_SharedSteps(LAW, g, n), n)
        for d in OFFSETS:
            assert _same_bits(x[d : d + 6], _signed_uniform_steps(ref[nxt + d : nxt + d + 6]))
        assert np.array_equal(g.bit_generator.random_raw(2), ref[nxt + n : nxt + n + 2])


def _philox_ahead(g, words):
    """The bit generator ``Philox(counter=, key=)`` placed ``words`` words
    past g's next one, the constructor that makes (and drops) a
    SeedSequence."""
    state = g.bit_generator.state
    counter = int.from_bytes(state["state"]["counter"].astype("<u8").tobytes(), "little")
    w = 4 * (counter - 1) + state["buffer_pos"] + words
    h = np.random.Philox(counter=w // 4, key=state["state"]["key"])
    h.random_raw(w % 4)
    return h


@pytest.mark.parametrize("counter", [[1, 0, 0, 0], [2**64 - 1, 0, 0, 0], [2**64 - 1, 5, 0, 0]],
                         ids=["counter1", "carry", "carry-high"])
@pytest.mark.parametrize("buffer_pos", [0, 1, 2, 3])
@pytest.mark.parametrize("words", [0, 1, 3, 2**14])
def test_ahead_state_equals_the_philox_constructor(counter, buffer_pos, words):
    """After ``words`` steps of a Uniform walk on g, the next steps read the
    words of the bit generator that ``Philox(counter=, key=)`` places
    ``words`` ahead of g; a low counter word of 2^64 - 1 carries into the
    next word."""
    g = np.random.Generator(np.random.Philox(key=KEY))
    state = g.bit_generator.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["buffer_pos"] = buffer_pos
    # the buffer the counter loaded: words 4 (counter - 1) to 4 counter - 1
    c = int.from_bytes(np.array(counter, dtype="<u8").tobytes(), "little")
    state["buffer"] = np.random.Philox(counter=c - 1, key=KEY).random_raw(4)
    g.bit_generator.state = state
    want = _signed_uniform_steps(_philox_ahead(g, words).random_raw(9))
    got = _read_unevenly(_SharedSteps(LAW, g, words + 9), words + 9)[words:]
    assert _same_bits(got, want)


@pytest.mark.parametrize("n", [1, 3, 256, 1000])
def test_uniform_takes_one_word_per_variate_and_is_prefix_consistent(n):
    """A Uniform walk step is ``Uniform.sample``'s value for one word, so
    the walk is that law's sampler only while ``Uniform.sample`` takes one
    word per variate, whatever the split of its draws; a numpy stream change
    that broke either would part the walk from its law silently, so it
    fails here."""
    whole = np.random.Generator(np.random.Philox(key=KEY))
    x = LAW.sample(whole, n)
    words = np.random.Philox(key=KEY).random_raw(n + 1)
    assert whole.bit_generator.random_raw() == words[n]
    parts = np.random.Generator(np.random.Philox(key=KEY))
    k = n // 3
    y = np.concatenate([LAW.sample(parts, k), LAW.sample(parts, n - k)])
    assert _same_bits(x, y)
