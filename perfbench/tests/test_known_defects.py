"""Program defects that keep task kinds out of the benchmark's workloads.

    python3 -m pytest perfbench/tests -q

Each test reads an artifact as strictly as the benchmark does and is
expected to fail while the defect stands.  When one passes (strict xfail
turns that into a failure), put the kind back into its workload.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from harness import CheckError, read_csv  # noqa: E402

pytest.importorskip("renewalcluster")
from renewalcluster import config, runner  # noqa: E402

from workloads import BARTLETT_LEWIS, GATED  # noqa: E402

NUMPY_REPR = pytest.mark.xfail(
    strict=True, raises=CheckError,
    reason="to_csv writes fields as np.float64(x) under numpy 2 (estimators.py)")


@NUMPY_REPR
@pytest.mark.parametrize("text, artifact, header", [
    (BARTLETT_LEWIS + "experiment = recurrence_cdf\nt = 200\ngrid = 0,1.5,3\n",
     "cdf.csv", "x,cdf,half_width,target"),
    (GATED + "experiment = key_renewal\nt = 500\ngrid = 496,498,499,500\ng = 0:1:1;2:4:0.5\n",
     "renewal.csv", "t,raw,corrected,std_error"),
], ids=["recurrence_cdf", "key_renewal"])
def test_artifact_parses(tmp_path, text, artifact, header):
    raw = config.parse_kv(text + "n_rep = 50\nseed = 1\n")
    runner.run_experiment(config.build_experiment_config(raw), tmp_path, raw_config=raw)
    assert read_csv(tmp_path / artifact, header)
