"""Per-task, per-layer self time from a traced run's span file.

    python3 perfbench/split.py .bench_build/perfbench/spans-short-window-seed1-trace1.csv.gz

Prints, for each task, each layer's span count and self time (span
duration minus the time its child spans cover).
"""

import csv
import gzip
import sys
from collections import defaultdict

from harness import Span, self_times


def main(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = [Span(r["layer"], r["name"], float(r["start"]), float(r["end"]),
                      int(r["parent"]), r["task"]) for r in csv.DictReader(fh)]
    totals = defaultdict(lambda: [0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.task, s.layer]
        t[0] += 1
        t[1] += own
    print("task,layer,spans,self_s")
    for (task, layer), (n, own) in sorted(totals.items()):
        print(f"{task},{layer},{n},{own:.6f}")


if __name__ == "__main__":
    main(sys.argv[1])
