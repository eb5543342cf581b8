"""Byte pins: sha256 of seeded outputs, recorded from commit 8b8c1f6.

The ``key_renewal`` pins were re-recorded when the kind became a reported
estimator (one ``report.csv`` format, no ``grid``, no ``renewal.csv``), and
``renewal_function/renewal.csv`` when its no-op ``corrected`` column went.
``coupling/coupling.csv`` was re-recorded when a coupling-walk step on
Uniform gaps came to read one word (gap from the top 53 bits, sign from
bit 0) instead of a gap and a sign word.

``gated/stationary.csv``, ``stationarity_check/stationarity.csv`` and
``coupling/coupling.csv`` were re-recorded when the size-biased gap X* of
a Uniform law came to be drawn as the square root of one Uniform(lo^2,
hi^2) word instead of by rejection: the gated preset's stationary rows and
walk starts read other words.  Two of the coupling kind's ten walks are
now capped at 10^5 steps, so ``coupling/status`` is 1 (the kind's
min_finite of 0.99 needs all ten).  ``recurrence_cdf/cdf.csv`` and its
manifest (block 442 -> 511) were re-recorded when the CDF came to read the
void estimator's rows on (0, t + x_grid[-1]] instead of its own block on a
padded horizon from each block's substream 0.

The marked-path CSVs, both ``flatten`` outputs, the stationary path with
its origin index, and every artifact plus the manifest of each experiment
kind must hash exactly as recorded there.  A refactor that changes one
byte of any of them fails here; a change that is meant to alter seeded
output must record new pins and say why.

Every ``pattern.csv`` pin was recorded from commit 4ba2e37, where the
``simulate`` subcommand wrote that file itself; the runner must write the
same bytes.  ``simulate/manifest.txt`` was first recorded when the kind
joined the runner's table.
"""

import hashlib

import pytest

from renewalcluster import (
    Exponential,
    PoissonCount,
    RngStream,
    bartlett_lewis_preset,
    flatten,
    gated_cluster_preset,
    guard_band,
    sample_delayed_marked_renewal,
    sample_stationary_marked_renewal,
)
from renewalcluster.cli import main
from renewalcluster.config import build_experiment_config, parse_kv
from renewalcluster.estimators import ExperimentReport
from renewalcluster.runner import run_experiment

GATED = ("interarrival.kind = uniform\ninterarrival.lo = 0\ninterarrival.hi = 5\n"
         "cluster.kind = gated_normal\ndelay.kind = same\n")
BARTLETT_LEWIS = ("interarrival.kind = exponential\ninterarrival.rate = 1\n"
                  "cluster.kind = cumulative_steps\ncluster.size.kind = poisson\n"
                  "cluster.size.rate = 1\ncluster.step.kind = exponential\n"
                  "cluster.step.rate = 1\ninclude_parents = true\n")

KIND_CONFIGS = {
    "window_mean": GATED + "t = 20\nx = 1\nn_rep = 50\n",
    "elementary": GATED + "t = 100\nn_rep = 50\n",
    "recurrence_cdf": BARTLETT_LEWIS + "t = 50\ngrid = 0,1.5,3\nn_rep = 50\n",
    "void_prob": BARTLETT_LEWIS + "t = 50\nx = 1\nn_rep = 50\n",
    "renewal_function": GATED + "grid = 1,2,5\nn_rep = 50\n",
    "key_renewal": GATED + "t = 50\ng = 0:1:1;2:4:0.5\nn_rep = 50\n",
    "coupling": GATED + "epsilon = 0.2\nsteps_cap = 100000\nk_checks = 20\nn_rep = 10\n",
    "stationarity_check": GATED + "shifts = 0,10\nx = 1\nn_rep = 100\n",
    "flip_test": "n = 20\nn_rep = 500\n",
    "simulate": GATED + "window.lo = 0\nwindow.hi = 50\n",
}

PRESETS = {
    "gated": gated_cluster_preset,
    "bartlett_lewis": lambda: bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0)),
}

PINS = {
    "bartlett_lewis/delayed.csv": "d0666caae711eaed1598520cb84783b063e645b11ea5423fbfa2c7079708f22a",
    "bartlett_lewis/flatten": "6f629e1ba081f8aaf08750d7cda19377cd5044c571989c3b9a34526ac917a37d",
    "bartlett_lewis/flatten_parents": "c4fcba69f695fa810386c319112b0a9541188e41198d4e87cde7dda939b39558",
    "bartlett_lewis/stationary.csv": "c4f1898892180bf28cad1b58e2d4a256762fc9343e02c5f4c71b4a30507e5bec",
    "gated/delayed.csv": "a2c290c08c0607c3dbfbc67c789a1c236db12dafbfd1a0de5dac718d7577663d",
    "gated/flatten": "25294fced5f8c910ed3116b298831d2ed7285293582f60deecc089c873cd7e37",
    "gated/flatten_parents": "c28bf6b04e3eabd8d766c807aab7e437ca9884338177327678e8a451ee1ef599",
    "gated/stationary.csv": "448e377f189ab84f6cad737e29b81a7aa2c2b0a466041f786547ec29d32c788f",
    "coupling/status": "1",
    "coupling/coupling.csv": "3c0a8615ef38cf92ce41ec491a69679dc89d1f9b659ae309bf95fa7c79593ea9",
    "coupling/manifest.txt": "603118e644a28c5e3a93bbf93f028e33645d4ce3cf6a9e17be904f98173b1444",
    "elementary/status": "0",
    "elementary/manifest.txt": "584b386cf72b3b81ab32b1cf8a3254464ed370021c5d2c54c073692b9e04dc88",
    "elementary/report.csv": "bcd09952c882872a712ae0012aec3b1c257de55a5277cb9bf76ee2e4a370ade1",
    "flip_test/status": "0",
    "flip_test/flip.csv": "ce1d2f306a674bffa03cffaf52426d17f28d7b7019ee20be8501b9a26e401310",
    "flip_test/manifest.txt": "ced6105ba386df8e60c7dc27f2c838d30a2fed03e42fbc2a5bcde0d3bcb397c0",
    "key_renewal/status": "0",
    "key_renewal/manifest.txt": "ec7ba61afdbbfe82c0ec8d7ce58f3d62576a5d30539f5642762d8c3a83cd30a8",
    "key_renewal/report.csv": "618dfc9b78566b133fc860b6b19d6e2bf7a09c0058b012ea77352fe798de4aed",
    "recurrence_cdf/status": "1",
    "recurrence_cdf/cdf.csv": "7cd6f5b70114ec9906f0a070b2efda68200f15fff30846cdd33cd07aca70161e",
    "recurrence_cdf/manifest.txt": "2c9ee31e194fc8885d1ae8e7dd429eaf6441aef97273a14bf0efb3df8d69daa6",
    "renewal_function/status": "0",
    "renewal_function/manifest.txt": "4b51966f282a977ca173642a06fa86f8ef7e1bf398f1d0aa83876f1844ab2263",
    "renewal_function/renewal.csv": "85661946cae0edb48c4450b411b06ffeaaccc073ae2fb7e23579209f3b38aa2d",
    "stationarity_check/status": "0",
    "stationarity_check/manifest.txt": "dcc964061890399676d05f318ee0908f71254c1ceefc932e27f8475d5c21a860",
    "stationarity_check/stationarity.csv": "36bfc9ecbf8be290f8bb1e4ce7313fef920eac127f8b798cd435921cbca2eede",
    "void_prob/status": "0",
    "void_prob/manifest.txt": "e7d1ca86fb85515a063fc0984edb918c2766cd832e2229eb4cbb94be1edcd47c",
    "void_prob/report.csv": "32123e693c39daff76a2d6bb991e825f9f337d9350a8f25203d8627aa609528f",
    "simulate/status": "0",
    "simulate/manifest.txt": "74e0f7db510d343fb636ec44cf53e9eaae8ec56f3b8fa0d2b729db1a59e31292",
    "simulate/pattern.csv": "54384efea51e3ac1963c3479085ebecad22d1063b273377240eaba7bbb6473e4",
    "window_mean/status": "0",
    "window_mean/manifest.txt": "4d334e303b6206fdf21a16109cc1da21be5b69128c5a60feddaf3476cf3488d0",
    "window_mean/report.csv": "7f3de4540e70d267b0c31bf2c036cdafb5747de92b954329c23ae9589347a071",
}


# `rcluster simulate` on the config of test_harness's simulate tests, and
# on a Bartlett-Lewis config with a window off the origin
SIMULATE_CONFIGS = {
    "gated": (GATED + "window.lo = 0\nwindow.hi = 50\nseed = 2\n",
              "6c4c30f050fe0d3c783d235f660852f2b8b16afa050cff4d125e8044fcf154de"),
    "bartlett_lewis": (BARTLETT_LEWIS + "window.lo = 10\nwindow.hi = 60\nseed = 1\n",
                       "e6fdc8e6ae1496538f0008468cfd44a4a3ac89c15643650dca89eeb9829a4bf2"),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def point_text(p) -> str:
    return f"{p.window!r} {p.overflow}\n" + p.to_csv()


def path_outputs(preset):
    """Hashes of a delayed marked path, its two flattenings, and a
    stationary path with its origin index."""
    spec = PRESETS[preset]()
    m = sample_delayed_marked_renewal(spec, 300.0, guard_band(spec), RngStream(11))
    s = sample_stationary_marked_renewal(spec, -20.0, 20.0, RngStream(12))
    return {
        f"{preset}/delayed.csv": sha(f"{m.window!r}\n" + m.to_csv()),
        f"{preset}/flatten": sha(point_text(flatten(m, include_parents=False))),
        f"{preset}/flatten_parents": sha(point_text(flatten(m, include_parents=True))),
        f"{preset}/stationary.csv": sha(f"{s.window!r} {s.origin_index}\n" + s.to_csv()),
    }


def run_kind(kind, out_dir):
    """Run this kind's pinned config at seed 1; return its exit status."""
    raw = parse_kv(f"experiment = {kind}\n" + KIND_CONFIGS[kind] + "seed = 1\n")
    return run_experiment(build_experiment_config(raw), out_dir, raw_config=raw)


def kind_outputs(kind, out_dir):
    """Hashes of every file run_experiment writes for this kind at seed 1,
    and its exit status."""
    out = {f"{kind}/status": str(run_kind(kind, out_dir))}
    for f in sorted(out_dir.iterdir()):
        out[f"{kind}/{f.name}"] = sha(f.read_text(encoding="utf-8"))
    return out


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_marked_paths_match_pins(preset):
    got = path_outputs(preset)
    assert got == {k: v for k, v in PINS.items() if k.startswith(f"{preset}/")}


@pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
def test_experiment_artifacts_match_pins(kind, tmp_path):
    got = kind_outputs(kind, tmp_path)
    assert got == {k: v for k, v in PINS.items() if k.startswith(f"{kind}/")}


@pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
def test_report_csv_has_one_format(kind, tmp_path):
    """A kind that writes report.csv writes ExperimentReport's header and
    one row that reads back to the same report."""
    run_kind(kind, tmp_path)
    path = tmp_path / "report.csv"
    if path.exists():
        header, row = path.read_text(encoding="utf-8").splitlines()
        assert header == ExperimentReport.CSV_HEADER
        assert ExperimentReport.from_csv_row(row).to_csv_row() == row


@pytest.mark.parametrize("name", sorted(SIMULATE_CONFIGS))
def test_simulate_subcommand_pattern_matches_pin(name, tmp_path):
    text, pin = SIMULATE_CONFIGS[name]
    (tmp_path / "sim.txt").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "sim.txt"), "--out", str(out)]) == 0
    assert sha((out / "pattern.csv").read_text(encoding="utf-8")) == pin
