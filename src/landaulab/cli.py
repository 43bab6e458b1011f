"""Command-line entry point: spectrum, bounds, lemmas, oracle-compare.

Exit codes: 0 when every pass flag is true, 2 when any check fails or the
solver gives up, 1 on configuration or usage errors. Reports are written
atomically (temp name + rename); identical config + seed gives byte-identical
CSV output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config, set_field
from .cutoffs import SUPPORT_RADIUS, center_inside
from .eigensolve import (SolverError, eigenpairs_near, gap_groups,
                         lowest_eigenpairs, principal_angles,
                         resolution_warning)
from .grid import Grid, atomic_write_text, rescale, save_grid_function
from .oracle import null_state
from .operators import build_operator
from .potentials import make_potential
from .verify import (SCHEMA_VERSION, check_cutoff_lemma, check_energy_lemma,
                     check_gauge_lemma, ladder_level_clusters, rayleigh_residual,
                     sweep_bounds)


def _dump_json(doc, path):
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _setup(cfg: RunConfig, manifest: str):
    """The potential, the grid and the manifest's path. An older manifest is
    removed: it is written last, so a failed run leaves none by a partial set."""
    potential = make_potential(cfg.potential_kind, cfg.potential_params)
    grid = Grid(extent_L=cfg.extent_L, n_per_side=cfg.n_per_side)
    path = os.path.join(cfg.out_dir, manifest)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {cfg.out_dir!r} cannot be created: {exc}") from exc
    try:
        if os.path.lexists(path):
            os.remove(path)
    except OSError as exc:
        raise ConfigError(f"output {path!r} cannot be written: {exc}") from exc
    return potential, grid, path


def run_spectrum(cfg: RunConfig) -> int:
    potential, grid, manifest_path = _setup(cfg, "spectrum.json")
    H = build_operator("H", potential, grid)
    warn = resolution_warning(potential, grid)
    if warn:
        print(f"warning: {warn}", file=sys.stderr)
    solver = {}
    pairs = lowest_eigenpairs(H, k=cfg.k, tol=cfg.tol, seed=cfg.seed, info=solver)
    groups = gap_groups([p[0] for p in pairs], cfg.cluster_tol)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "eigenvalues": [p[0] for p in pairs],
        "residuals": [p[2] for p in pairs],
        "cluster_labels": [label for label, run in enumerate(groups) for _ in run],
        "solver": solver,
        "warnings": [warn] if warn else [],
    }
    for i, (_, gf, _) in enumerate(pairs):
        save_grid_function(gf, os.path.join(cfg.out_dir, f"eig_{i:03d}.csv"))
    _dump_json(manifest, manifest_path)
    print(f"spectrum: {cfg.k} eigenpairs in {len(groups)} cluster(s); "
          f"eigenvalue range [{pairs[0][0]:.6g}, {pairs[-1][0]:.6g}]")
    return 0


def run_bounds(cfg: RunConfig) -> int:
    potential, grid, manifest_path = _setup(cfg, "bounds.json")
    report = sweep_bounds(potential, grid, cfg.max_level,
                          m_count=cfg.m_count, restarts=cfg.restarts,
                          seed=cfg.seed)
    atomic_write_text(os.path.join(cfg.out_dir, "bounds.csv"), report.to_csv())
    _dump_json(report.to_dict(), manifest_path)
    for row in report.rows:
        print(f"level {row.level}: lambda^2={row.lambda_sq:+.4f} dim={row.cluster_dim} "
              f"ratio_linf={row.ratio_linf:.5f} scaled_l6={row.scaled_l6:.5f}")
    for i, t in enumerate((report.theorem1, report.theorem2), 1):
        if t:
            print(f"theorem-{i} surrogate: max={t.max_value:.5f} bound={t.bound:.5f} "
                  f"slope={t.slope:+.5f} -> {'PASS' if t.passed else 'FAIL'}")
    levels = [r.level for r in report.rows]
    if levels != list(range(cfg.max_level + 1)):
        print(f"error: levels 0..{cfg.max_level} requested, the report holds {levels}; "
              f"missing {sorted(set(range(cfg.max_level + 1)) - set(levels))}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 2


def run_lemmas(cfg: RunConfig) -> int:
    potential, grid, manifest_path = _setup(cfg, "lemmas.json")
    skipped = []

    def admissible(q, g, on_node=False, **entry):
        """Whether the check can use center q on grid g; a skip is recorded
        in lemmas.json and warned about, never dropped silently."""
        if on_node and g.node_shift(q) is None:
            reason = f"center not on a grid node (spacing {g.spacing:g})"
        elif not center_inside(q, g):
            reason = (f"center outside the interior margin {SUPPORT_RADIUS:g} "
                      f"of the box of extent {g.extent_L:g}")
        else:
            return True
        skipped.append({**entry, "q": list(q), "reason": reason})
        where = ", ".join(f"{k}={v}" for k, v in entry.items())
        print(f"warning: skipped {where}, q={list(q)}: {reason}", file=sys.stderr)
        return False

    # energy identity on ladder clusters of the unscaled operator, which no
    # name keeps alive past their rows
    rows = [row for c in ladder_level_clusters(potential, grid, min(cfg.max_level, 2),
                                               m_count=min(cfg.m_count, 6))
            for row in check_energy_lemma(potential, grid, c)]
    # semiclassical cutoff rows: level 1/(2h) ladder state, rescaled
    for h in cfg.h_list:
        level = max(1, round(1.0 / (2.0 * h)))
        cl = ladder_level_clusters(potential, grid, level, m_count=1)
        uh = rescale(cl[-1].basis[0], h)
        centers = [q for q in cfg.q_list if admissible(q, uh.grid, check="cutoff", h=h)]
        if centers:
            rows += check_cutoff_lemma(potential, uh.grid, uh, h, centers)
    # gauge rows on the ground state for node-aligned centers
    cl0 = ladder_level_clusters(potential, grid, 0, m_count=1)
    ground = cl0[0].basis[0]
    for q in cfg.q_list:
        if admissible(q, grid, on_node=True, check="gauge"):
            rows += check_gauge_lemma(potential, grid, ground, q)
    polluted = sorted({r.detail["h"] for r in rows
                       if r.detail.get("input_guard_ok") is False})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rows": [asdict(r) for r in rows],
        "skipped": skipped,
        "warnings": [f"cutoff rows at h={h:g} rest on an input state above the "
                     "||Pu||/||u|| guard (input_guard_ok false)" for h in polluted],
    }
    _dump_json(doc, manifest_path)
    n_pass = sum(r.passed for r in rows)
    print(f"lemmas: {n_pass}/{len(rows)} rows passed, {len(skipped)} skipped")
    return 0 if rows and n_pass == len(rows) else 2


def run_oracle_compare(cfg: RunConfig) -> int:
    if cfg.potential_kind != "model_quadratic":
        raise ConfigError("oracle-compare requires potential.kind = model_quadratic")
    if cfg.k <= cfg.compare_m_max:
        raise ConfigError(f"solve.k = {cfg.k} must exceed compare.m_max = {cfg.compare_m_max}: "
                          f"the solved span must be able to hold the {cfg.compare_m_max + 1} "
                          "oracle states")
    potential, grid, manifest_path = _setup(cfg, "oracle_compare.json")
    H = build_operator("H", potential, grid)
    oracle_basis = [null_state(m, grid) for m in range(cfg.compare_m_max + 1)]
    oracle_rows = []
    for m, state in enumerate(oracle_basis):
        ray, res = rayleigh_residual(H, state)
        oracle_rows.append({"m": m, "rayleigh": ray, "residual": res})
    # center the shift on the oracle band so the window covers its content
    sigma = cfg.compare_sigma
    if sigma == "auto":
        sigma = float(np.mean([r["rayleigh"] for r in oracle_rows]))
    solver = {}
    pairs = eigenpairs_near(H, k=cfg.k, sigma=sigma, tol=cfg.tol, seed=cfg.seed,
                            info=solver)
    span = [p[1] for p in pairs]
    angles = principal_angles(span, oracle_basis)
    max_angle = float(np.max(angles))
    passed = bool(max_angle <= 1e-2)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "solver": {"k": cfg.k, "sigma": sigma,
                   "eigenvalue_range": [pairs[0][0], pairs[-1][0]],
                   "max_residual": max(p[2] for p in pairs), **solver},
        "oracle": oracle_rows,
        "principal_angles_rad": [float(a) for a in np.sort(angles)],
        "max_angle_rad": max_angle,
        "passed": passed,
    }
    _dump_json(doc, manifest_path)
    print(f"oracle-compare: max principal angle {max_angle:.2e} rad "
          f"({'PASS' if passed else 'FAIL'} at 1e-2)")
    return 0 if passed else 2


COMMANDS = {
    "spectrum": run_spectrum,
    "bounds": run_bounds,
    "lemmas": run_lemmas,
    "oracle-compare": run_oracle_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landaulab",
        description="Numerical laboratory for the generalized Landau magnetic Laplacian")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for check
        # failures and reports usage problems as 1
        return 0 if exc.code in (0, None) else 1

    # a warning prints as one "warning: <message>" line; the state is restored on return
    with warnings.catch_warnings():
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            cfg = load_config(args.config) if args.config else RunConfig()
            if args.out is not None:
                set_field(cfg, "output.directory", args.out)
            if args.seed is not None:
                set_field(cfg, "solve.seed", args.seed)
            nodes = cfg.n_per_side ** 2
            if args.command in ("spectrum", "oracle-compare") and cfg.k >= nodes - 1:
                raise ConfigError(f"solve.k = {cfg.k} must be below {nodes - 1}: "
                                  f"the grid has {nodes} nodes")
            return COMMANDS[args.command](cfg)
        except ValueError as exc:   # the error class of every module but eigensolve
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
