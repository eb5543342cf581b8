"""Import budget of a fresh process: scipy loads only where it is used.

``import renewalcluster`` loads numpy alone, without ``numpy.random``,
which the first generator loads.  No path loads ``scipy.integrate``: the
Bartlett-Lewis void and recurrence targets read the step law's closed-form
limited mean, or integrate a survival callable in numpy, and load no scipy
module at all unless the step law is a Gamma law, whose limited mean, like
its CDF, loads ``scipy.special`` alone.  Each case runs in a new
interpreter, since this test process has already imported scipy through
other test modules.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

GATED = (
    "interarrival.kind = uniform\ninterarrival.lo = 0\ninterarrival.hi = 5\n"
    "cluster.kind = gated_normal\ndelay.kind = same\nseed = 3\n"
)
SIMULATE = GATED + "window.lo = 0\nwindow.hi = 50\n"
VERIFY = GATED + "experiment = window_mean\nt = 500\nx = 1\nn_rep = 50\n"
BARTLETT_LEWIS = (
    "interarrival.kind = exponential\ninterarrival.rate = 1\n"
    "cluster.kind = cumulative_steps\ncluster.size.kind = poisson\ncluster.size.rate = 1\n"
    "include_parents = true\nseed = 3\nn_rep = 50\nt = 50\ncluster.step.kind = "
)
UNIFORM_STEP = BARTLETT_LEWIS + "uniform\ncluster.step.lo = 0.2\ncluster.step.hi = 3\n"
CONFIGS = {
    "simulate.txt": SIMULATE,
    "verify.txt": VERIFY,
    "void.txt": UNIFORM_STEP + "experiment = void_prob\nx = 1\n",
    "cdf.txt": UNIFORM_STEP + "experiment = recurrence_cdf\ngrid = 0,1.5,3.5\ntol = 0.5\n",
    "gamma.txt": BARTLETT_LEWIS + "gamma\ncluster.step.shape = 0.5\ncluster.step.scale = 2\n"
                 "experiment = void_prob\nx = 1\n",
}


def write_configs(directory: Path):
    for name, text in CONFIGS.items():
        (directory / name).write_text(text, encoding="utf-8")


def modules_after(code: str, cwd: Path, package: str) -> set[str]:
    """The modules of ``package`` (a dotted name) loaded once ``code`` has
    run in a fresh interpreter."""
    probe = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if (m + ".").startswith({package!r} + "."))))
    """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import renewalcluster, renewalcluster.cli",
    """
    from renewalcluster.cli import main
    assert main(["simulate", "--config", "simulate.txt", "--out", "sim"]) == 0
    assert main(["verify", "--config", "verify.txt", "--out", "ver"]) == 0
    """,
    """
    from renewalcluster.cli import main
    assert main(["verify", "--config", "void.txt", "--out", "void"]) == 0
    """,
    """
    from renewalcluster.cli import main
    assert main(["verify", "--config", "cdf.txt", "--out", "cdf"]) == 0
    """,
], ids=["import", "simulate-and-verify", "verify-void-prob", "verify-recurrence-cdf"])
def test_no_scipy_without_a_scipy_target(tmp_path, code):
    write_configs(tmp_path)
    assert modules_after(code, tmp_path, "scipy") == set()


def test_import_loads_no_numpy_random(tmp_path):
    assert modules_after("import renewalcluster, renewalcluster.cli", tmp_path,
                         "numpy.random") == set()


def test_bartlett_lewis_targets_load_no_scipy(tmp_path):
    # both targets, with the step law and with a survival callable
    assert modules_after("""
        from renewalcluster import Mixture, Uniform, Exponential
        from renewalcluster.estimators import (
            bartlett_lewis_recurrence_cdf, bartlett_lewis_void_probability)
        step = Mixture(((0.5, Uniform(0.2, 3.0)), (0.5, Exponential(1.0))))
        for s in (step, lambda y: 1.0 - min(y, 1.0)):
            bartlett_lewis_void_probability(1.0, 2.0, s, 1.0)
            bartlett_lewis_recurrence_cdf(1.0, 2.0, s, [0.0, 0.5, 1.5])
    """, tmp_path, "scipy") == set()


def test_gamma_step_target_loads_special_only(tmp_path):
    write_configs(tmp_path)
    loaded = modules_after("""
        from renewalcluster.cli import main
        assert main(["verify", "--config", "gamma.txt", "--out", "gamma"]) == 0
    """, tmp_path, "scipy")
    public = {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")}
    assert public == {"special", "version"}


def test_gamma_cdf_loads_special_only(tmp_path):
    loaded = modules_after("""
        from renewalcluster import GammaLaw
        GammaLaw(2.0, 1.0).cdf(1.0)
    """, tmp_path, "scipy")
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
