"""Run one workload under several seeds and print each end-to-end metric's
median and spread (distance between first and third quartile, as a share
of the median).

    python3 perfbench/spread.py --workload short-window --seeds 1-10

Each run's result line is appended to .bench_build/perfbench/spread-*.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spread

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    log = ROOT / ".bench_build" / "perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        line = json.loads(proc.stdout.splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, **line}) + "\n")
        if not line["correct"]:
            print(f"seed {seed}: {line['failed']} failed\n{proc.stdout}", file=sys.stderr)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        sp = spread(vs) if len(vs) >= 2 and med else float("nan")
        print(f"{name:28s} median {med:.6g}  spread {sp:.4f}  n={len(vs)}")


if __name__ == "__main__":
    main()
