"""Strict run configuration: JSON in, validated RunConfig out.

Unknown keys are rejected and every validation failure names the offending
field, so a config typo can never silently change an experiment.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

from .eigensolve import MAX_K, MIN_TOL
from .potentials import KINDS


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    potential_kind: str = "model_quadratic"
    potential_params: tuple = ()
    extent_L: float = 6.0
    n_per_side: int = 129
    k: int = 12
    tol: float = 1e-6
    seed: int = 0
    cluster_tol: float = 0.25
    max_level: int = 5
    restarts: int = 8
    m_count: int = 9
    h_list: tuple = (0.5, 0.25, 0.125)
    q_list: tuple = ((1.5, 0.0),)
    out_dir: str = "out"
    compare_sigma: float | str = "auto"
    compare_m_max: int = 5


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _number(cast):
    """Parser of one JSON number for a named field, never a bool or a string:
    an integral value for an int field, a finite one for a float field."""
    def parse(value, name):
        out = None
        if type(value) in (int, float):
            with contextlib.suppress(ValueError, OverflowError):  # int(inf), float(10**400)
                out = cast(value)
        _require(out is not None and (out == value if cast is int else math.isfinite(out)),
                 f"{name} must be a number ({'integral' if cast is int else 'finite'}), "
                 f"got {value!r}")
        return out
    return parse


_INT, _FLOAT = _number(int), _number(float)


def _list(item, nonempty=True):
    """Parser of a list whose entries `item` parses, into a tuple."""
    def parse(value, name):
        _require(isinstance(value, (list, tuple)) and (value or not nonempty),
                 f"{name} must be a {'non-empty ' if nonempty else ''}list")
        return tuple(item(v, f"{name} entries") for v in value)
    return parse


def _pair(value, name):
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"{name} must be [q1, q2] pairs")
    return tuple(_FLOAT(x, name) for x in value)


# (section, key, RunConfig field, parser, (rule on the parsed value, its
# wording) or None); a key absent from the config keeps the field's default
_FIELDS = (
    ("potential", "kind", "potential_kind", lambda v, name: v,
     (lambda v: v in KINDS, f"must be one of {KINDS}")),
    ("potential", "params", "potential_params", _list(_FLOAT, nonempty=False), None),
    ("grid", "extent_L", "extent_L", _FLOAT, (lambda v: v > 0, "must be positive")),
    ("grid", "n_per_side", "n_per_side", _INT,
     (lambda v: v >= 9 and v % 2 == 1, "must be odd and >= 9")),
    ("solve", "k", "k", _INT, (lambda v: 1 <= v <= MAX_K, f"must be in [1, {MAX_K}]")),
    ("solve", "tol", "tol", _FLOAT, (lambda v: v >= MIN_TOL, f"must be >= {MIN_TOL:g}")),
    ("solve", "seed", "seed", _INT,
     (lambda v: 0 <= v <= 2**32 - 1, "must be in [0, 2^32 - 1]")),
    ("solve", "cluster_tol", "cluster_tol", _FLOAT, (lambda v: v > 0, "must be positive")),
    ("sweep", "max_level", "max_level", _INT, (lambda v: v >= 0, "must be >= 0")),
    ("sweep", "restarts", "restarts", _INT, (lambda v: v >= 8, "must be >= 8")),
    ("sweep", "m_count", "m_count", _INT, (lambda v: v >= 1, "must be >= 1")),
    ("lemmas", "h_list", "h_list", _list(_FLOAT),
     (lambda v: min(v) > 0, "entries must be positive")),
    ("lemmas", "q_list", "q_list", _list(_pair), None),
    ("compare", "sigma", "compare_sigma",
     lambda v, name: v if v == "auto" else _FLOAT(v, name), None),
    ("compare", "m_max", "compare_m_max", _INT, (lambda v: v >= 0, "must be >= 0")),
    ("output", "directory", "out_dir", lambda v, name: v,
     (lambda v: isinstance(v, str) and v != "", "must be a non-empty string")),
)

_SECTIONS = {s: {k for s2, k, *_ in _FIELDS if s2 == s} for s, *_ in _FIELDS}


def parse_config(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    _require(not unknown, f"unknown config section(s): {sorted(unknown)}")
    for section, allowed in _SECTIONS.items():
        sub = doc.get(section, {})
        _require(isinstance(sub, dict), f"config section {section} must be an object")
        bad = set(sub) - allowed
        _require(not bad, f"unknown key(s) in {section}: {sorted(bad)}")

    cfg = RunConfig()
    for section, key, *_ in _FIELDS:
        if key in doc.get(section, {}):
            set_field(cfg, f"{section}.{key}", doc[section][key])
    return cfg


def set_field(cfg: RunConfig, key: str, value) -> None:
    """Parse `value` as the config key "section.key" does, check its rule and
    set the matching RunConfig field."""
    name, parse, rule = next(f[2:] for f in _FIELDS if f"{f[0]}.{f[1]}" == key)
    value = parse(value, key)
    if rule is not None:
        _require(rule[0](value), f"{key} {rule[1]}")
    setattr(cfg, name, value)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    return parse_config(doc)
