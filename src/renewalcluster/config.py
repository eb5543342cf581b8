"""Flat key = value experiment configuration.

The format is UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment.  Every key must be recognized and consumed; an unknown key is a
hard parse error rather than a silent ignore.  See README for the full key
schema.

Every key is read through one schema format, that of ``runner.Kind.params``:
a name maps to its parser (required) or to (parser, default) (optional).  A
table of model kinds (``LAWS``, ``COUNT_LAWS``, ``CLUSTERS``) may stand in
for a parser: the model is then the kind that ``<key>.kind`` names, built
from its own fields under ``<key>.``.  ``_read`` is the one loop over a
schema, for the experiment kind's parameters (``runner.KINDS``), every
model's fields and the process keys (``SPEC``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


def _bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(s)


def _at_least_one(key):
    def parse(s: str) -> int:
        n = int(s)
        if n < 1:
            raise ConfigError(f"{key} must be at least 1, got {n}")
        return n
    return parse


# tables of model kinds: each kind maps to its class and its field schema
LAWS = {
    "exponential": (Exponential, {"rate": _finite}),
    "uniform": (Uniform, {"lo": _finite, "hi": _finite}),
    "gamma": (GammaLaw, {"shape": _finite, "scale": _finite}),
}
COUNT_LAWS = {
    "poisson": (PoissonCount, {"rate": _finite}),
    "fixed": (FixedCount, {"value": int}),
}
CLUSTERS = {
    "empty": (EmptyCluster, {}),
    "cumulative_steps": (CumulativeStepCluster, {"size": COUNT_LAWS, "step": LAWS}),
    "gated_normal": (GatedNormalCluster,
                     {f.name: (_finite, f.default) for f in fields(GatedNormalCluster)}),
}

# the process keys; a special name of ``delay`` or ``delay_cluster`` stands
# for no model (None) or for the model read under the key it names, and
# the default of a table is the kind an absent ``<key>.kind`` names
SPEC = {
    "interarrival": LAWS,
    "cluster": CLUSTERS,
    "delay": ({"zero": None, "same": "interarrival", **LAWS}, "zero"),
    "delay_cluster": ({"empty": None, "same": "cluster"}, "empty"),
    "arrival_cap": (_at_least_one("arrival_cap"), 10**8),
    "include_parents": (_bool, False),
}


def _read(d: dict, used: set, schema: dict, prefix: str = "") -> dict:
    """Read each key of ``schema`` in order from ``d`` into {name: value},
    adding the keys read to ``used``; a table of model kinds in place of a
    parser reads the model its ``.kind`` key names."""
    got = {}
    for name, entry in schema.items():
        optional = isinstance(entry, tuple)
        parser, default = entry if optional else (entry, None)
        key = prefix + name
        if isinstance(parser, dict):
            got[name] = _model(d, used, key, parser, default, got)
        elif key in d:
            used.add(key)
            try:
                got[name] = parser(d[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {d[key]!r} ({exc})") from exc
        elif optional:
            got[name] = default
        else:
            raise ConfigError(f"missing required key {key!r}")
    return got


def _model(d, used, key, table, default, got):
    """The model of the kind ``<key>.kind`` names in ``table``."""
    kind = _read(d, used, {".kind": (str, default) if default else str}, key)[".kind"]
    if kind not in table:
        raise ConfigError(f"unknown {key}.kind {kind!r}")
    entry = table[kind]
    if not isinstance(entry, tuple):  # a special name
        return None if entry is None else got[entry]
    cls, schema = entry
    return _built(cls, _read(d, used, schema, key + "."))


def _built(cls, values):
    """cls(**values), a LawError raised as the ConfigError it is here."""
    try:
        return cls(**values)
    except LawError as exc:
        raise ConfigError(str(exc)) from exc


def build_process_spec(d: dict, used: set) -> ProcessSpec:
    return _built(ProcessSpec, _read(d, used, SPEC))


def build_experiment_config(d: dict) -> ExperimentConfig:
    """Validate the full mapping against ``runner.KINDS`` and build an
    ExperimentConfig.

    Raises ConfigError on any unknown, missing, or malformed key, before
    any sampling starts.
    """
    used = set()
    name = _read(d, used, {"experiment": str})["experiment"]
    kind = KINDS.get(name)
    if kind is None:
        raise ConfigError(f"unknown experiment kind {name!r}")
    spec = build_process_spec(d, used) if kind.needs_spec else None
    n_rep = {"n_rep": (_at_least_one("n_rep"), 1000)} if kind.replicated else {}
    head = _read(d, used, {**n_rep, "seed": (int, 0)})
    params = _read(d, used, kind.params)
    unknown = set(d) - used
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return ExperimentConfig(kind=name, spec=spec, n_rep=head.get("n_rep"), seed=head["seed"],
                            params=params)
