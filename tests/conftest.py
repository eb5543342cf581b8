"""Shared fixtures."""

import numpy as np
import pytest

from renewalcluster import coupling


def _reverse_blocks(fn, n_rep, rng, block):
    """What ``replicate(fn, n_rep, rng, block)`` returns, computed with the
    blocks evaluated from the last to the first and put back by index."""
    starts = list(enumerate(range(0, n_rep, block)))
    parts = {k: fn(rng.substream(k), min(block, n_rep - s)) for k, s in reversed(starts)}
    return np.concatenate([parts[k] for k in range(len(starts))])


@pytest.fixture
def reverse_blocks():
    return _reverse_blocks


@pytest.fixture
def fix_starts(monkeypatch):
    """``fix_starts((t0, t_delayed))`` starts every walk from those epochs
    (stationary, delayed): ``coupling._draw_starts`` returns them without
    drawing.  ``fix_starts(None)`` keeps the drawn starts."""
    def fix(start):
        if start is not None:
            t0, t_delayed = map(float, start)
            monkeypatch.setattr(coupling, "_draw_starts", lambda spec, g: (t0, t_delayed))
    return fix
