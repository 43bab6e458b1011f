"""The four benchmark workloads: one landaulab CLI command each, at a fixed config.

`config` is the measured size; `smoke` is a small grid on which every check of
the workload still applies, used by `run.py --smoke` and the benchmark's own
test. The workload seed is never part of a config: the benchmark passes it to
the command as `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    smoke: dict


TRIG = {"kind": "quadratic_plus_trig", "params": [0.1]}
MODEL = {"kind": "model_quadratic", "params": []}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep",
        command="bounds",
        config={"potential": TRIG,
                "grid": {"extent_L": 6.5, "n_per_side": 129},
                "sweep": {"max_level": 3, "restarts": 8, "m_count": 9}},
        smoke={"potential": TRIG,
               "grid": {"extent_L": 6.5, "n_per_side": 97},
               "sweep": {"max_level": 3, "restarts": 8, "m_count": 3}},
    ),
    Workload(
        name="band",
        command="oracle-compare",
        config={"potential": MODEL,
                "grid": {"extent_L": 5.2, "n_per_side": 257},
                "solve": {"k": 130},
                "compare": {"sigma": "auto", "m_max": 5}},
        # coarser grids need a wider window than k = 100 to contain m <= 3
        smoke={"potential": MODEL,
               "grid": {"extent_L": 5.2, "n_per_side": 161},
               "solve": {"k": 100},
               "compare": {"sigma": "auto", "m_max": 3}},
    ),
    Workload(
        name="lemmas",
        command="lemmas",
        # q = 1.25 is 16 nodes from the origin (spacing 20/256), so the gauge
        # rows are produced and the center is admissible at every h
        config={"potential": TRIG,
                "grid": {"extent_L": 10.0, "n_per_side": 257},
                "lemmas": {"h_list": [0.5, 0.25, 0.125], "q_list": [[1.25, 0.0]]}},
        # at this spacing the cutoff rate holds down to h = 0.25 only
        smoke={"potential": TRIG,
               "grid": {"extent_L": 10.0, "n_per_side": 129},
               "lemmas": {"h_list": [0.5, 0.25], "q_list": [[1.25, 0.0]]}},
    ),
    Workload(
        name="spectrum",
        command="spectrum",
        # the CLI defaults: model potential, L = 6, n = 129, k = 12
        config={},
        smoke={"grid": {"extent_L": 6.0, "n_per_side": 65}},
    ),
)}
