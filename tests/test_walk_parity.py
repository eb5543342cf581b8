"""Coupling walks against a table recorded from the earlier walk kernel.

``data/walk_parity.json`` was written by renewalcluster at commit 83303af,
whose walk masked every step for the thinned path and signed the gaps with
``np.where(g.random(n) < 0.5, x, -x)``.  It holds criterion 8's gated preset
at epsilon 0.1: substreams 0-39 at a cap of 10^5, substream 335 (tau =
2,049,890, past the eighth thinning octave) and substream 102 (capped at
10^7), eight post-coupling agreements that draw beyond the walk's last
block, and three dense diagnostic paths.  The draws, tau, V_tau, L_tau and
the stored path must match exactly; the plus/minus sums behind the coupling
time are formed differently, so it matches to 1e-12 relative.

The three paths, of 50,000 steps each, were recorded again when
``random_walk_path`` came to read the walk's own blocks of 2^14 steps
(before, it drew all n gaps, then n sign words, in one block); each is now
the path of the walk ``run_coupling`` takes at ``steps_cap = 50,000``.  No
other entry changed.
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
