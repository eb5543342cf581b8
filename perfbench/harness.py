"""Helpers of the renewalcluster benchmark: task ledger, summary statistics,
and the span tracer that times each package layer from outside.

Nothing here imports renewalcluster; the tracer is handed the modules to
wrap, so the helpers can be tested without the package.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter, process_time


# ---------------------------------------------------------------- checking


class CheckError(Exception):
    """An output of the program is wrong."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def parse_float(text: str, artifact: str) -> float:
    """Parse one CSV number; a field that ``float`` does not read fails the task."""
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"{artifact}: field {text!r} is not a number") from None


def read_csv(path, header: str, text_cols=()) -> list[list]:
    """Rows of a CSV artifact whose first line must equal header.

    Fields are numbers (an empty field is None) except the columns listed
    in ``text_cols``, which stay strings.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(lines and lines[0] == header, f"{path.name}: header {lines[:1]} != {header!r}")
    width = header.count(",") + 1
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        expect(len(fields) == width, f"{path.name}: row {line!r} has {len(fields)} fields")
        rows.append([f if i in text_cols else parse_float(f, path.name) if f else None
                     for i, f in enumerate(fields)])
    return rows


@dataclass
class TaskRecord:
    task_id: str
    kind: str
    seconds: float  # process CPU time of the call
    wall: float     # wall time of the call
    reps: int
    ok: bool
    reason: str = ""
    info: dict = field(default_factory=dict)


class Ledger:
    """Runs tasks, times the call alone, then checks its output.

    A task's time is the process CPU time (user + system) of its call.  The
    loop is single-threaded and does not block, so on a core of its own
    that equals the call's wall time; on a shared virtual machine the wall
    time also holds the spells in which the host runs other work, which
    swing a run's wall time by tens of percent.  The wall time is kept
    beside it.

    ``call`` is the timed public call; ``check(result)`` raises on a wrong
    output and returns (replications, info).  An exception from either is
    a failed task, never a lost one.
    """

    def __init__(self):
        self.records: list[TaskRecord] = []

    def run(self, task_id, kind, call, check) -> TaskRecord:
        c0, t0 = process_time(), perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing task is counted, not fatal
            rec = TaskRecord(task_id, kind, process_time() - c0, perf_counter() - t0, 0, False,
                             f"{type(exc).__name__}: {exc}")
        else:
            times = process_time() - c0, perf_counter() - t0
            try:
                reps, info = check(result)
                rec = TaskRecord(task_id, kind, *times, reps, True, "", info)
            except Exception as exc:
                rec = TaskRecord(task_id, kind, *times, 0, False,
                                 f"{type(exc).__name__}: {exc}")
        self.records.append(rec)
        return rec

    def fail(self, task_id, kind, reason):
        self.records.append(TaskRecord(task_id, kind, 0.0, 0.0, 0, False, reason))

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> list[TaskRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def fail_frac(self) -> float:
        return len(self.failures) / self.attempted if self.records else 0.0


# ---------------------------------------------------------------- statistics


def tail(values, beyond: int = 10):
    """Highest order statistic that leaves ``beyond`` samples above it.

    Returns (value, percentile, n).  With ``beyond`` or fewer samples the
    maximum is returned at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - beyond - 1 if n > beyond else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def time_to_se(groups, se_ref: dict) -> float:
    """Work-normalised time to reach each kind's reference standard error.

    ``groups`` maps kind -> list of (task seconds, task standard error).
    Tasks of one kind are pooled by inverse variance, so the result is
    sum over kinds of T_k * SE_pool_k^2 / SE_ref_k^2; for a single task
    that is seconds * (SE / SE_ref)^2.
    """
    total = 0.0
    for kind, tasks in groups.items():
        seconds = sum(t for t, _ in tasks)
        precision = sum(1.0 / se**2 for _, se in tasks)
        total += seconds / precision / se_ref[kind] ** 2
    return total


def spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------- tracing


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int
    task: str | None
    info: object = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records a span around every wrapped callable while installed.

    ``install(targets)`` takes (layer, module, qualname, info_fn) entries.
    The wrapper replaces the callable on its class, or on every loaded
    module of the package that bound the same function object by name, so
    calls made between modules are seen too.  ``info_fn(args, kwargs,
    result)`` may attach a count to the span.  Single-threaded use only.
    """

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, name, fn, info_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(layer, name, 0.0, 0.0, parent, tracer.task)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if info_fn is not None:
                span.info = info_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == self.package or k.startswith(self.package + "."))]
        for layer, module, qualname, info_fn in targets:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, name, original, info_fn))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(layer, name, original, info_fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, fh):
        """Write the spans as CSV to an open text file."""
        fh.write("id,layer,name,start,end,parent,task\n")
        for i, s in enumerate(self.spans):
            fh.write(f"{i},{s.layer},{s.name},{s.start!r},{s.end!r},{s.parent},{s.task}\n")
