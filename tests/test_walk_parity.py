"""Coupling walks against a recorded table.

``data/walk_parity.json`` was first written by renewalcluster at commit
83303af, whose walk masked every step for the thinned path and signed the
gaps with ``np.where(g.random(n) < 0.5, x, -x)``.  It holds criterion 8's
gated preset at epsilon 0.1: substreams 0-39 at a cap of 10^5, substreams
335 and 102 at a cap of 10^7, eight post-coupling agreements that draw
beyond the walk's last block, and three dense diagnostic paths of 50,000
steps; since the last re-record below, also substreams 307 and 51 at a
cap of 10^7.  The draws, tau, V_tau, L_tau and the stored path must match
exactly; the coupling time matches to 1e-12 relative and the agreement's
max gap to 1e-6.

Every entry was recorded again when a step on the preset's Uniform gaps
came to read one word, its gap from the top 53 bits and its sign from bit
0 (before, a block drew its gaps, then a sign word per step), with the
substreams, caps and sizes unchanged.  Substream 335 (tau 2,049,890 before,
past the eighth thinning octave) now couples at tau 393, and substream 102
(capped at 10^7 before) at tau 225; substream 33 is capped at 10^5.

Every entry was recorded again when the walk's start U X* on Uniform gaps
came to draw X* as the square root of one Uniform(lo^2, hi^2) word instead
of by rejection, with the same substreams, caps and sizes.  Substream 335
now couples at tau 7,177 and 102 at tau 2; substreams 8 and 14 are capped
at 10^5.  No walk then coupled past 10^5 steps or was capped at 10^7, so
two walks at a cap of 10^7 were added: substream 307, which couples at
tau 5,829,405 (in the tenth thinning octave), and substream 51, which is
capped.
"""

import hashlib
import json
from pathlib import Path

import pytest

from renewalcluster import gated_cluster_preset, stream_for
from renewalcluster.coupling import post_coupling_agreement, random_walk_path, run_coupling

TABLE = json.loads((Path(__file__).parent / "data" / "walk_parity.json").read_text())
SPEC = gated_cluster_preset()
RNG = stream_for(*TABLE["stream"])
EPS = TABLE["epsilon"]


def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def _hex(x):
    return None if x is None else x.hex()


@pytest.mark.parametrize(
    "rec", TABLE["walks"], ids=[f"s{w['substream']}-cap{w['cap']}" for w in TABLE["walks"]]
)
def test_walk_matches_recorded(rec):
    run = run_coupling(SPEC, EPS, rec["cap"], RNG.substream(rec["substream"]))
    assert run.tau == rec["tau"]
    assert _hex(run.v_tau) == rec["v_tau"]
    assert run.l_tau == rec["l_tau"]
    assert run.v_path.size == rec["path_points"]
    assert _sha(run.v_path) == rec["v_path_sha256"]
    assert _sha(run.v_path_indices) == rec["v_path_indices_sha256"]
    if rec["coupling_time"] is None:
        assert run.coupling_time is None
    else:
        assert run.coupling_time == pytest.approx(
            float.fromhex(rec["coupling_time"]), rel=1e-12
        )


@pytest.mark.parametrize("rec", TABLE["agreements"], ids=lambda a: f"s{a['substream']}")
def test_agreement_matches_recorded(rec):
    rep = post_coupling_agreement(
        SPEC, EPS, rec["k_checks"], RNG.substream(rec["substream"]), steps_cap=rec["cap"]
    )
    assert rep.tau == rec["tau"]
    assert list(rep.violations) == rec["violations"]
    if rec["max_gap"] is None:
        assert rep.max_gap is None
    else:
        assert rep.max_gap == pytest.approx(float.fromhex(rec["max_gap"]), abs=1e-6)


@pytest.mark.parametrize("rec", TABLE["paths"], ids=lambda p: f"s{p['substream']}")
def test_diagnostic_path_matches_recorded(rec):
    path = random_walk_path(SPEC, rec["n_steps"], RNG.substream(rec["substream"]))
    assert _sha(path) == rec["sha256"]
