"""Flat key = value experiment configuration.

The format is UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment.  Every key must be recognized and consumed; an unknown key is a
hard parse error rather than a silent ignore.  The experiment kinds and
their parameters come from ``runner.KINDS``.  See README for the full key
schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clusters import (
    CumulativeStepCluster,
    EmptyCluster,
    GatedNormalCluster,
)
from .errors import ConfigError, LawError
from .laws import Exponential, FixedCount, GammaLaw, PoissonCount, Uniform
from .process import ProcessSpec
from .runner import KINDS, _finite

__all__ = ["ExperimentConfig", "parse_kv", "build_process_spec", "build_experiment_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    spec: ProcessSpec | None
    n_rep: int | None
    seed: int
    params: dict = field(default_factory=dict)


def parse_kv(text: str) -> dict:
    """Parse ``key = value`` lines into an ordered dict of strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _take(d, used, key, parser, default=None, required=False):
    if key in d:
        used.add(key)
        try:
            return parser(d[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {d[key]!r} ({exc})") from exc
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(s)


def _law(d, used, prefix):
    kind = _take(d, used, f"{prefix}.kind", str, required=True)
    try:
        if kind == "exponential":
            return Exponential(_take(d, used, f"{prefix}.rate", _finite, required=True))
        if kind == "uniform":
            return Uniform(
                _take(d, used, f"{prefix}.lo", _finite, required=True),
                _take(d, used, f"{prefix}.hi", _finite, required=True),
            )
        if kind == "gamma":
            return GammaLaw(
                _take(d, used, f"{prefix}.shape", _finite, required=True),
                _take(d, used, f"{prefix}.scale", _finite, required=True),
            )
    except LawError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown {prefix}.kind {kind!r}")


def _count_law(d, used, prefix):
    kind = _take(d, used, f"{prefix}.kind", str, required=True)
    try:
        if kind == "poisson":
            return PoissonCount(_take(d, used, f"{prefix}.rate", _finite, required=True))
        if kind == "fixed":
            return FixedCount(_take(d, used, f"{prefix}.value", int, required=True))
    except LawError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown {prefix}.kind {kind!r}")


def _cluster(d, used, prefix):
    kind = _take(d, used, f"{prefix}.kind", str, required=True)
    if kind == "empty":
        return EmptyCluster()
    if kind == "cumulative_steps":
        size = _count_law(d, used, f"{prefix}.size")
        step = _law(d, used, f"{prefix}.step")
        return CumulativeStepCluster(size, step)
    if kind == "gated_normal":
        return GatedNormalCluster(
            threshold=_take(d, used, f"{prefix}.threshold", _finite, default=1.0),
            rate_above=_take(d, used, f"{prefix}.rate_above", _finite, default=0.5),
            rate_below=_take(d, used, f"{prefix}.rate_below", _finite, default=5.0),
        )
    raise ConfigError(f"unknown {prefix}.kind {kind!r}")


def build_process_spec(d: dict, used: set) -> ProcessSpec:
    interarrival = _law(d, used, "interarrival")
    cluster = _cluster(d, used, "cluster")

    delay_kind = _take(d, used, "delay.kind", str, default="zero")
    if delay_kind == "zero":
        delay = None
    elif delay_kind == "same":
        delay = interarrival
    else:
        delay = _law(d, used, "delay")

    dc_kind = _take(d, used, "delay_cluster.kind", str, default="empty")
    if dc_kind == "empty":
        delay_cluster = None
    elif dc_kind == "same":
        delay_cluster = cluster
    else:
        raise ConfigError(f"unknown delay_cluster.kind {dc_kind!r}")

    arrival_cap = _take(d, used, "arrival_cap", int, default=10**8)
    if arrival_cap < 1:
        raise ConfigError(f"arrival_cap must be at least 1, got {arrival_cap}")
    return ProcessSpec(
        interarrival=interarrival,
        cluster=cluster,
        delay=delay,
        delay_cluster=delay_cluster,
        include_parents=_take(d, used, "include_parents", _bool, default=False),
        arrival_cap=arrival_cap,
    )


def build_experiment_config(d: dict) -> ExperimentConfig:
    """Validate the full mapping against ``runner.KINDS`` and build an
    ExperimentConfig.

    Raises ConfigError on any unknown, missing, or malformed key, before
    any sampling starts.
    """
    used = set()
    name = _take(d, used, "experiment", str, required=True)
    kind = KINDS.get(name)
    if kind is None:
        raise ConfigError(f"unknown experiment kind {name!r}")
    spec = build_process_spec(d, used) if kind.needs_spec else None
    n_rep = _take(d, used, "n_rep", int, default=1000) if kind.replicated else None
    if n_rep is not None and n_rep < 1:
        raise ConfigError(f"n_rep must be at least 1, got {n_rep}")
    seed = _take(d, used, "seed", int, default=0)
    params = {}
    for key, schema in kind.params.items():
        optional = isinstance(schema, tuple)
        parser, default = schema if optional else (schema, None)
        params[key] = _take(d, used, key, parser, default, required=not optional)
    unknown = set(d) - used
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return ExperimentConfig(kind=name, spec=spec, n_rep=n_rep, seed=seed, params=params)
