"""Import budget of a fresh process: scipy loads only where it is used.

``import renewalcluster`` loads numpy alone, without ``numpy.random``,
which the first generator loads; ``scipy.integrate`` loads on the first
Bartlett-Lewis void or recurrence target and ``scipy.special`` on the
first Gamma-law CDF.  Each case runs in a new interpreter, since
this test process has already imported scipy through other test modules.
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
], ids=["import", "simulate-and-verify"])
def test_no_scipy_without_a_scipy_target(tmp_path, code):
    (tmp_path / "simulate.txt").write_text(SIMULATE, encoding="utf-8")
    (tmp_path / "verify.txt").write_text(VERIFY, encoding="utf-8")
    assert modules_after(code, tmp_path, "scipy") == set()


def test_import_loads_no_numpy_random(tmp_path):
    assert modules_after("import renewalcluster, renewalcluster.cli", tmp_path,
                         "numpy.random") == set()


def test_void_target_loads_integrate(tmp_path):
    loaded = modules_after("""
        from renewalcluster.estimators import bartlett_lewis_void_probability
        bartlett_lewis_void_probability(1.0, 2.0, lambda y: 1.0 - min(y, 1.0), 1.0)
    """, tmp_path, "scipy")
    assert "scipy.integrate" in loaded


def test_gamma_cdf_loads_special_only(tmp_path):
    loaded = modules_after("""
        from renewalcluster import GammaLaw
        GammaLaw(2.0, 1.0).cdf(1.0)
    """, tmp_path, "scipy")
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
