"""Strict run configuration: JSON in, validated RunConfig out.

Unknown keys are rejected and every validation failure names the offending
field, so a config typo can never silently change an experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    formats: tuple = ("json", "csv")
    compare_sigma: float | str = "auto"
    compare_m_max: int = 5


_SECTIONS = {
    "potential": {"kind", "params"},
    "grid": {"extent_L", "n_per_side"},
    "solve": {"k", "tol", "seed", "cluster_tol"},
    "sweep": {"max_level", "restarts", "m_count"},
    "lemmas": {"h_list", "q_list"},
    "compare": {"sigma", "m_max"},
    "output": {"directory", "formats"},
}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _number(value, cast, name):
    """cast(value) for the field `name`: an int, or a finite float."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    _require(cast is int or math.isfinite(out), f"{name} must be finite, got {value!r}")
    return out


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
    pot = doc.get("potential", {})
    cfg.potential_kind = pot.get("kind", cfg.potential_kind)
    _require(cfg.potential_kind in KINDS,
             f"potential.kind must be one of {KINDS}, got {cfg.potential_kind!r}")
    params = pot.get("params", list(cfg.potential_params))
    _require(isinstance(params, (list, tuple)), "potential.params must be a list")
    cfg.potential_params = tuple(_number(p, float, "potential.params entries")
                                 for p in params)

    g = doc.get("grid", {})
    cfg.extent_L = _number(g.get("extent_L", cfg.extent_L), float, "grid.extent_L")
    cfg.n_per_side = _number(g.get("n_per_side", cfg.n_per_side), int, "grid.n_per_side")
    _require(cfg.extent_L > 0, "grid.extent_L must be positive")
    _require(cfg.n_per_side >= 9 and cfg.n_per_side % 2 == 1,
             "grid.n_per_side must be odd and >= 9")

    s = doc.get("solve", {})
    cfg.k = _number(s.get("k", cfg.k), int, "solve.k")
    cfg.tol = _number(s.get("tol", cfg.tol), float, "solve.tol")
    cfg.seed = _number(s.get("seed", cfg.seed), int, "solve.seed")
    cfg.cluster_tol = _number(s.get("cluster_tol", cfg.cluster_tol), float,
                              "solve.cluster_tol")
    _require(1 <= cfg.k <= 200, "solve.k must be in [1, 200]")
    _require(cfg.tol >= 1e-8, "solve.tol must be >= 1e-8")
    _require(cfg.cluster_tol > 0, "solve.cluster_tol must be positive")

    w = doc.get("sweep", {})
    cfg.max_level = _number(w.get("max_level", cfg.max_level), int, "sweep.max_level")
    cfg.restarts = _number(w.get("restarts", cfg.restarts), int, "sweep.restarts")
    cfg.m_count = _number(w.get("m_count", cfg.m_count), int, "sweep.m_count")
    _require(cfg.max_level >= 0, "sweep.max_level must be >= 0")
    _require(cfg.restarts >= 8, "sweep.restarts must be >= 8")
    _require(cfg.m_count >= 1, "sweep.m_count must be >= 1")

    lm = doc.get("lemmas", {})
    h_list = lm.get("h_list", list(cfg.h_list))
    _require(isinstance(h_list, (list, tuple)) and len(h_list) > 0,
             "lemmas.h_list must be a non-empty list")
    cfg.h_list = tuple(_number(h, float, "lemmas.h_list entries") for h in h_list)
    _require(all(h > 0 for h in cfg.h_list), "lemmas.h_list entries must be positive")
    q_list = lm.get("q_list", [list(q) for q in cfg.q_list])
    _require(isinstance(q_list, (list, tuple)) and len(q_list) > 0,
             "lemmas.q_list must be a non-empty list")
    qt = []
    for q in q_list:
        _require(isinstance(q, (list, tuple)) and len(q) == 2,
                 "lemmas.q_list entries must be [q1, q2] pairs")
        qt.append(tuple(_number(x, float, "lemmas.q_list entries") for x in q))
    cfg.q_list = tuple(qt)

    c = doc.get("compare", {})
    sigma = c.get("sigma", cfg.compare_sigma)
    if sigma == "auto":
        cfg.compare_sigma = "auto"
    else:
        cfg.compare_sigma = _number(sigma, float, "compare.sigma")
    cfg.compare_m_max = _number(c.get("m_max", cfg.compare_m_max), int, "compare.m_max")
    _require(cfg.compare_m_max >= 0, "compare.m_max must be >= 0")

    o = doc.get("output", {})
    cfg.out_dir = str(o.get("directory", cfg.out_dir))
    formats = o.get("formats", list(cfg.formats))
    _require(isinstance(formats, (list, tuple)) and formats,
             "output.formats must be a non-empty list")
    _require(all(f in ("json", "csv") for f in formats),
             "output.formats entries must be 'json' or 'csv'")
    cfg.formats = tuple(formats)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    return parse_config(doc)
