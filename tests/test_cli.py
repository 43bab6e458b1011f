import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import landaulab.cli as cli
from landaulab import (Grid, build_operator, check_cutoff_lemma, check_gauge_lemma,
                       make_potential)
from landaulab.cli import main
from landaulab.config import ConfigError, RunConfig, parse_config
from landaulab.eigensolve import BLOCK_MARGIN, arnoldi_ncv, lowest_eigenpairs
from landaulab.grid import GridFunction
from landaulab.verify import VerifyError, translate_samples
from helpers import savetxt_reference


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "potential": {"kind": "model_quadratic", "params": []},
    "grid": {"extent_L": 6.5, "n_per_side": 97},
    "solve": {"k": 6, "tol": 1e-6, "seed": 0, "cluster_tol": 0.25},
    "sweep": {"max_level": 1, "restarts": 8, "m_count": 4},
    "lemmas": {"h_list": [0.5], "q_list": [[1.5, 0.0]]},
}


def _assert_solver_blocks(solver, size):
    # the four sublattice blocks are listed, a block with no pair asked of it
    # (a lowest-solve block with no eigenvalue below tau) with no factor
    blocks = solver["blocks"]
    assert len(blocks) == 4
    assert sum(b["size"] for b in blocks) == size
    for b in blocks:
        assert set(b) == {"size", "k", "ncv", "op_solves", "lu_fill_nnz", "resolves",
                          "diagonal_pivots"}
        if b["k"]:
            assert b["ncv"] == arnoldi_ncv(b["k"], b["size"])
            assert b["op_solves"] >= b["ncv"] - 1
            assert b["lu_fill_nnz"] > 0
        else:
            assert (b["ncv"], b["op_solves"], b["lu_fill_nnz"], b["resolves"],
                    b["diagonal_pivots"]) == (0, 0, 0, 0, None)
    assert solver["ncv"] == max(b["ncv"] for b in blocks)
    assert solver["op_solves"] == sum(b["op_solves"] for b in blocks)
    assert solver["lu_fill_nnz"] == sum(b["lu_fill_nnz"] for b in blocks)
    if "inertia" in solver:
        inertia = solver["inertia"]
        assert set(inertia) == {"tau", "counts", "factors"}
        # each block is asked for its count, and a block solved again for
        # BLOCK_MARGIN more
        assert inertia["counts"] == [b["k"] - BLOCK_MARGIN * b["resolves"] for b in blocks]
        assert inertia["factors"] >= len(blocks)


def test_parse_config_defaults():
    cfg = parse_config({})
    assert cfg.potential_kind == "model_quadratic"
    assert cfg.k == 12


def test_parse_config_rejects_unbuildable_potential_kind():
    # a config names only make_potential's kinds; "custom" is not one
    with pytest.raises(ConfigError, match="potential.kind"):
        parse_config({"potential": {"kind": "custom"}})


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config({"potentials": {}})


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"grid": {"extent": 6.0}})


def test_parse_config_validates_fields():
    with pytest.raises(ConfigError, match="n_per_side"):
        parse_config({"grid": {"n_per_side": 10}})
    with pytest.raises(ConfigError, match="solve.tol"):
        parse_config({"solve": {"tol": 1e-12}})
    with pytest.raises(ConfigError, match="lemmas.h_list"):
        parse_config({"lemmas": {"h_list": []}})


def test_parse_config_rejects_seed_outside_randomstate_range():
    for seed in (-1, 2**32):
        with pytest.raises(ConfigError, match="solve.seed"):
            parse_config({"solve": {"seed": seed}})
    assert parse_config({"solve": {"seed": 2**32 - 1}}).seed == 2**32 - 1


# config texts whose values are not numbers where numbers are due: 1e400
# parses to inf, an int field takes no fractional value, and no field takes
# a bool or a numeric string
NON_NUMBERS = ['{"solve": {"k": null}}', '{"compare": {"sigma": null}}',
               '{"potential": {"params": [null]}}', '{"sweep": {"max_level": 1e400}}',
               '{"grid": {"n_per_side": 65.9}}', '{"sweep": {"max_level": 1.7}}',
               '{"solve": {"k": true}}', '{"grid": {"n_per_side": "129"}}',
               '{"grid": {"extent_L": "6.5"}}', '{"lemmas": {"h_list": [false]}}',
               '{"compare": {"sigma": "0.5"}}']


# config texts whose output directory is not a non-empty string; str() used
# to turn them into the directories 'None', '5', "['a']" and ''
BAD_DIRECTORIES = ['{"output": {"directory": null}}', '{"output": {"directory": 5}}',
                   '{"output": {"directory": ["a"]}}', '{"output": {"directory": ""}}']


@pytest.mark.parametrize("text", BAD_DIRECTORIES)
def test_parse_config_rejects_bad_output_directory(text):
    with pytest.raises(ConfigError, match="output.directory must be a non-empty string"):
        parse_config(json.loads(text))


def test_parse_config_accepts_integral_floats():
    cfg = parse_config({"grid": {"n_per_side": 65.0, "extent_L": 6}})
    assert cfg.n_per_side == 65 and type(cfg.n_per_side) is int
    assert cfg.extent_L == 6.0 and type(cfg.extent_L) is float


def _run_cli(args, **env_vars):
    """The CLI in a subprocess, importing the package from this checkout,
    with `env_vars` added to its environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/src"
    env = {**os.environ, **env_vars,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "landaulab.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("text", NON_NUMBERS)
def test_parse_config_rejects_non_numbers(text):
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(json.loads(text))


@pytest.mark.parametrize("text", NON_NUMBERS + BAD_DIRECTORIES + [None])
def test_cli_bad_config_exits_1_without_traceback(tmp_path, text):
    path = tmp_path / "cfg.json"
    if text is not None:     # None: the config file does not exist
        path.write_text(text)
    out = _run_cli(["bounds", "--config", str(path), "--out", str(tmp_path / "out")])
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ")


@pytest.mark.parametrize("command, seed", [("bounds", "-1"), ("spectrum", str(2**32))])
def test_cli_bad_seed_exits_1_before_any_work(tmp_path, command, seed):
    out_dir = tmp_path / "out"
    out = _run_cli([command, "--out", str(out_dir), "--seed", seed])
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: solve.seed must be in")
    assert not out_dir.exists()


def test_cli_empty_out_exits_1(capsys):
    assert main(["spectrum", "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("error: output.directory must be")


def test_cli_out_on_a_file_exits_1_without_traceback(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["spectrum", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {str(path)!r} cannot be created")
    assert "Traceback" not in err


def test_cli_oracle_compare_non_model_exits_1_before_any_work(tmp_path):
    path = _write_config(tmp_path, {"potential": {"kind": "quadratic_plus_trig",
                                                  "params": [0.1]}})
    out_dir = tmp_path / "out"
    out = _run_cli(["oracle-compare", "--config", path, "--out", str(out_dir)])
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr == ("error: oracle-compare requires potential.kind = "
                          "model_quadratic\n")
    assert not out_dir.exists()


def test_cli_empty_h_list_exits_1(tmp_path, capsys):
    doc = dict(BASE)
    doc["lemmas"] = {"h_list": [], "q_list": [[1.5, 0.0]]}
    cfg = _write_config(tmp_path, doc)
    code = main(["lemmas", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "lemmas.h_list" in capsys.readouterr().err


# valid configs whose ladder outgrows the grid: h = 0.001 asks the lemmas
# for a level-500 ladder, and 100 states per tier do not fit on 9^2 nodes.
# The last two ask for more ladder vectors than the grid has nodes, a stack
# of terabytes, which is refused before it is allocated
RANK_DEFICIENT = [
    ("lemmas", {"grid": {"extent_L": 6.0, "n_per_side": 33},
                "lemmas": {"h_list": [0.001], "q_list": [[1.5, 0.0]]}},
     "m_count 1 and max_level 500 is rank-deficient on n_per_side 33"),
    ("bounds", {"grid": {"n_per_side": 9}, "sweep": {"m_count": 100}},
     "m_count 100 and max_level 5 is rank-deficient on n_per_side 9"),
    ("lemmas", {"grid": {"extent_L": 6.0, "n_per_side": 33},
                "lemmas": {"h_list": [1e-9], "q_list": [[1.5, 0.0]]}},
     "m_count 1 and max_level 500000000 is rank-deficient on n_per_side 33"),
    ("bounds", {"grid": {"n_per_side": 33}, "sweep": {"max_level": 1000000000}},
     "m_count 9 and max_level 1000000000 is rank-deficient on n_per_side 33"),
]


@pytest.mark.parametrize("command, doc, names", RANK_DEFICIENT,
                         ids=["lemmas", "bounds", "lemmas-beyond-grid", "bounds-beyond-grid"])
def test_cli_rank_deficient_ladder_says_what_to_change(tmp_path, command, doc, names):
    cfg = _write_config(tmp_path, doc)
    out = _run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr == (f"error: ladder basis of {names}: lower m_count or "
                          "max_level, or refine the grid\n")


def test_cli_usage_error_exits_1(capsys):
    assert main(["not-a-command"]) == 1


def test_output_formats_is_not_a_config_key(tmp_path, capsys):
    # every command writes all of its files; there is no format switch
    assert "formats" not in {f.name for f in dataclasses.fields(RunConfig)}
    cfg = _write_config(tmp_path, {"output": {"formats": ["json"]}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: unknown key(s) in output: ['formats']\n"


def test_cli_bounds_reproducible(tmp_path, capsys):
    doc = dict(BASE)
    cfg = _write_config(tmp_path, doc)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    assert main(["bounds", "--config", cfg, "--out", out1]) == 0
    assert main(["bounds", "--config", cfg, "--out", out2]) == 0
    b1 = open(os.path.join(out1, "bounds.csv"), "rb").read()
    b2 = open(os.path.join(out2, "bounds.csv"), "rb").read()
    assert b1 == b2
    doc_json = json.loads(open(os.path.join(out1, "bounds.json")).read())
    assert doc_json["schema_version"] == 1
    assert doc_json["theorem1"]["passed"] is True
    assert doc_json["warnings"] == []
    assert capsys.readouterr().err == ""


def test_cli_seed_override_changes_nothing_deterministic(tmp_path):
    # the sweep is deterministic per seed; different seeds still pass
    cfg = _write_config(tmp_path, BASE)
    out = str(tmp_path / "outs")
    assert main(["bounds", "--config", cfg, "--out", out, "--seed", "5"]) == 0


def test_cli_bounds_level0_only(tmp_path, capsys):
    import math
    doc = dict(BASE)
    doc["sweep"] = {"max_level": 0, "restarts": 8, "m_count": 6}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "out0")
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "bounds.csv")).read().strip().split("\n")
    assert len(lines) == 2  # header + the single level-0 row
    # the level-0 winner has a flat magnetic-translation direction, whose
    # round-off Hessian eigenvalue is not below the certificate's tolerance
    warns = json.loads(open(os.path.join(out, "bounds.json")).read())["warnings"]
    assert len(warns) == 1
    assert warns[0].startswith("level 0: the L^6 ascent's tangent Hessian")
    assert warns[0].endswith(">= -1e-10; the winner is not certified as a strict local maximum")
    assert capsys.readouterr().err == f"warning: {warns[0]}\n"
    ratio_linf = float(lines[1].split(",")[3])
    assert abs(ratio_linf - math.sqrt(2.0 / math.pi)) <= 0.02 * math.sqrt(2.0 / math.pi)


TRIG = {"kind": "quadratic_plus_trig", "params": [0.1]}


def test_cli_bounds_sweep_workload_reports_every_level(tmp_path, capsys):
    # the config of the benchmark's sweep workload
    doc = {"potential": TRIG, "grid": {"extent_L": 6.5, "n_per_side": 129},
           "sweep": {"max_level": 3, "restarts": 8, "m_count": 9}}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    assert json.loads(open(os.path.join(out, "bounds.json")).read())["warnings"] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n, missing", [(49, [2, 3]), (25, [1, 2, 3])], ids=["n49", "n25"])
def test_cli_bounds_missing_level_exits_2(tmp_path, capsys, n, missing):
    # an under-resolved level takes its neighbour's label and is then
    # excluded by the residual guard; at n = 25 no theorem check fails, so
    # only the missing levels set the exit code
    doc = {"potential": TRIG, "grid": {"extent_L": 6.5, "n_per_side": n},
           "sweep": {"max_level": 3, "restarts": 8, "m_count": 3}}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    code = main(["bounds", "--config", cfg, "--out", out, "--seed", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert any(line.startswith("warning: label ") and "is held by the clusters" in line
               for line in err.splitlines())
    assert f"missing {missing}" in err
    rows = json.loads(open(os.path.join(out, "bounds.json")).read())["rows"]
    assert [r["level"] for r in rows] == [lev for lev in range(4) if lev not in missing]


def test_cli_spectrum_manifest(tmp_path):
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 5.0, "n_per_side": 65}
    # splits the 6 eigenvalues into two clusters (a 0.17 gap), so the labels
    # are not all equal
    doc["solve"] = {**BASE["solve"], "cluster_tol": 0.1}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "spec_out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    manifest = json.loads(open(os.path.join(out, "spectrum.json")).read())
    assert manifest["schema_version"] == 1
    assert len(manifest["eigenvalues"]) == 6
    assert all(r <= 1e-6 for r in manifest["residuals"])
    vals, labels = manifest["eigenvalues"], manifest["cluster_labels"]
    # a new label starts exactly where the gap to the previous eigenvalue
    # exceeds cluster_tol
    assert labels[0] == 0 and labels[-1] > 0
    assert np.diff(labels).tolist() == [int(b - a > 0.1) for a, b in zip(vals, vals[1:])]


def test_cli_spectrum_reproducible(tmp_path):
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 4.0, "n_per_side": 33}
    cfg = _write_config(tmp_path, doc)
    outs = [str(tmp_path / f"rep{i}") for i in range(2)]
    for out in outs:
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(outs[0]))
    assert "spectrum.json" in names and "eig_005.csv" in names
    assert sorted(os.listdir(outs[1])) == names
    for name in names:
        a, b = (open(os.path.join(out, name), "rb").read() for out in outs)
        assert a == b, name
    solver = json.loads(open(os.path.join(outs[0], "spectrum.json")).read())["solver"]
    assert set(solver) == {"ncv", "op_solves", "lu_fill_nnz", "blocks", "inertia"}
    _assert_solver_blocks(solver, 33 * 33)
    # the count brackets tau = 0 (more than 6 + 4 BLOCK_MARGIN eigenvalues
    # below it), then bisects to -0.5 (fewer than 6) and -0.25: three shifts
    # of four factors. Block (1, 1) holds none of the 6 and is not solved;
    # the two copies of -0.285523 lie on blocks (0, 1) and (1, 0)
    assert solver["inertia"] == {"tau": -0.25, "counts": [4, 2, 2, 0], "factors": 12}
    assert [b["resolves"] for b in solver["blocks"]] == [0, 0, 0, 0]
    assert all(b["diagonal_pivots"] for b in solver["blocks"][:3])
    vals = json.loads(open(os.path.join(outs[0], "spectrum.json")).read())["eigenvalues"]
    assert max(vals) < solver["inertia"]["tau"]
    assert vals[-1] - vals[-2] <= 1e-12



def test_cli_solver_failure_exits_2(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 4.0, "n_per_side": 33}
    cfg = _write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "fail")]) == 2
    err = capsys.readouterr().err
    assert "exactly singular" in err
    assert "Traceback" not in err


def test_cli_spectrum_writes_eigenfunctions(tmp_path):
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 5.0, "n_per_side": 65}
    doc["solve"] = {"k": 2, "tol": 1e-6, "seed": 0, "cluster_tol": 0.25}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "dump_out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "eig_000.csv"), delimiter=",", skiprows=1)
    assert rows.shape == (65 * 65, 4)
    meta = json.loads(open(os.path.join(out, "eig_000.csv.meta.json")).read())
    assert meta == {"extent_L": 5.0, "n_per_side": 65, "format": "csv"}


@pytest.mark.parametrize("blocked", ["spectrum.json", "eig_002.csv"])
def test_cli_unwritable_output_exits_1_naming_it(tmp_path, capsys, blocked):
    out = tmp_path / "out"
    (out / f"{blocked}.tmp").mkdir(parents=True)
    (out / "spectrum.json").write_text("{}\n")   # an older run's manifest
    cfg = _write_config(tmp_path, {"grid": {"extent_L": 6.0, "n_per_side": 33},
                                   "solve": {"k": 4}})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = [ln for ln in err.splitlines() if ln.startswith("error: ")]
    assert len(line) == 1
    assert line[0].startswith(f"error: output {str(out / blocked)!r} cannot be written: ")
    # the manifest is written last, so no manifest stands beside a partial set
    assert not (out / "spectrum.json").exists()


def test_cli_spectrum_csv_bytes_match_savetxt(tmp_path):
    # every dump of a run, against np.savetxt of the same solve
    doc = {"grid": {"extent_L": 6.0, "n_per_side": 33}, "solve": {"k": 12, "seed": 3}}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    c = parse_config(doc)
    pairs = lowest_eigenpairs(
        build_operator("H", make_potential(c.potential_kind, c.potential_params),
                       Grid(c.extent_L, c.n_per_side)), k=c.k, tol=c.tol, seed=c.seed)
    assert sorted(os.listdir(out)) == sorted(
        ["spectrum.json"] + [f"eig_{i:03d}.csv{ext}" for i in range(len(pairs))
                             for ext in ("", ".meta.json")])
    for i, (_, u, _) in enumerate(pairs):
        savetxt_reference(u, str(tmp_path / "ref.csv"))
        assert (out / f"eig_{i:03d}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cli_lemmas_runs(tmp_path):
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 6.5, "n_per_side": 97}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "lem_out")
    code = main(["lemmas", "--config", cfg, "--out", out])
    assert code == 0
    doc = json.loads(open(os.path.join(out, "lemmas.json")).read())
    rows = doc["rows"]
    assert rows and all(r["passed"] for r in rows)
    # the row keys are the LemmaRow fields: pinned, so that a new field
    # cannot change the output unnoticed
    assert all(set(r) == {"lemma_id", "lhs", "rhs", "passed", "detail"} for r in rows)
    assert set(doc) == {"schema_version", "rows", "skipped", "warnings"}
    # the h = 0.5 input state fails the ||Pu||/||u|| guard (see
    # test_cutoff_lemma_input_guard_flag): the report says so
    assert any("h=0.5" in w for w in doc["warnings"])


def test_cli_lemmas_reproducible(tmp_path):
    # spacing 12/96 puts q = (1.5, 0) on a node, so the gauge rows run too
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 6.0, "n_per_side": 97}
    doc["lemmas"] = {"h_list": [0.5, 0.25], "q_list": [[1.5, 0.0]]}
    cfg = _write_config(tmp_path, doc)
    outs = [str(tmp_path / f"lem{i}") for i in range(2)]
    codes = [main(["lemmas", "--config", cfg, "--out", out, "--seed", "3"]) for out in outs]
    assert codes == [0, 0]
    a, b = (open(os.path.join(out, "lemmas.json"), "rb").read() for out in outs)
    assert a == b
    assert any(r["lemma_id"].startswith("gauge") for r in json.loads(a)["rows"])


def test_cli_lemmas_factor_builds(tmp_path, monkeypatch):
    # the ~20 unscaled handles of one run (ladder, energy and gauge checks)
    # share one matrix per label, and each P handle composes its own: one,
    # since the center is outside the h = 0.25 box's margin. A change in
    # call order that broke the sharing shows here.
    from landaulab import operators
    composed = []
    compose = operators._compose
    monkeypatch.setattr(operators, "_compose",
                        lambda label, *a: composed.append(label) or compose(label, *a))
    monkeypatch.setattr(operators, "_unscaled", None)
    doc = dict(BASE)
    doc["grid"] = {"extent_L": 6.0, "n_per_side": 97}
    doc["lemmas"] = {"h_list": [0.5, 0.25], "q_list": [[1.5, 0.0]]}
    cfg = _write_config(tmp_path, doc)
    assert main(["lemmas", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sorted(composed) == ["A", "B", "D_star", "H", "P"]


def test_cli_lemmas_samples_laplacian_sup_once(tmp_path, monkeypatch):
    # the sup |lap phi| of the cutoff bound does not depend on h, so one run
    # with 3 h values samples its ball once
    from landaulab import potentials
    radii = []
    ball_sup = potentials.ball_sup
    monkeypatch.setattr(potentials, "ball_sup", lambda fn, radius, samples:
                        radii.append(radius) or ball_sup(fn, radius, samples))
    doc = dict(BASE)
    doc["potential"] = {"kind": "quadratic_plus_trig", "params": [0.1]}
    doc["grid"] = {"extent_L": 10.0, "n_per_side": 65}
    doc["lemmas"] = {"h_list": [0.5, 0.25, 0.125], "q_list": [[1.25, 0.0]]}
    out = str(tmp_path / "out")
    main(["lemmas", "--config", _write_config(tmp_path, doc), "--out", out])
    rows = json.loads(open(os.path.join(out, "lemmas.json")).read())["rows"]
    assert {r["detail"]["h"] for r in rows if r["lemma_id"].startswith("cutoff")} \
        == {0.5, 0.25, 0.125}
    assert radii.count(potentials.LAP_SUP_RADIUS) == 1


# spacing 12/48 = 0.25 on the box of extent 6; h = 1 keeps that box for the
# cutoff rows, so both checks have the margin 6 - SUPPORT_RADIUS = 4, a node
CENTER_GRID = {"extent_L": 6.0, "n_per_side": 49}
CENTER_CASES = {   # q -> (why the cutoff check skips q, why the gauge check does)
    (4.0, -4.0): (None, None),                                # on the margin
    (4.25, 0.0): ("interior margin", "interior margin"),      # a node beyond it
    (1.0 + 2e-9 * 0.25, 0.0): (None, "not on a grid node"),   # 2e-9 spacings off a node
    (1.0 + 0.5e-9 * 0.25, 0.0): (None, None),                 # within the 1e-9 tolerance
}


@pytest.fixture(scope="module")
def center_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("centers")
    doc = {**BASE, "grid": CENTER_GRID,
           "lemmas": {"h_list": [1.0], "q_list": [list(q) for q in CENTER_CASES]}}
    # a center that run_lemmas admits and a check rejects would exit 1
    assert main(["lemmas", "--config", _write_config(tmp, doc), "--out", str(tmp / "out")]) == 0
    return json.loads((tmp / "out" / "lemmas.json").read_text())


@pytest.mark.parametrize("q", list(CENTER_CASES),
                         ids=["on_margin", "node_beyond_margin", "off_node", "within_node_tol"])
def test_cli_and_checks_share_the_center_rules(center_report, model, q):
    # run_lemmas skips, with its reason, exactly the centers the checks reject
    g = Grid(**CENTER_GRID)
    X1, X2 = g.mesh()
    u = GridFunction(np.exp(-(X1 ** 2 + X2 ** 2)), g)
    checks = {"cutoff": lambda: check_cutoff_lemma(model, g, u, 1.0, [q]),
              "gauge": lambda: check_gauge_lemma(model, g, u, q)}
    for (check, run), reason in zip(checks.items(), CENTER_CASES[q]):
        skips = [s for s in center_report["skipped"] if s["check"] == check and s["q"] == list(q)]
        rows = [r for r in center_report["rows"]
                if r["lemma_id"].startswith(check) and r["detail"].get("q") == list(q)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # input guards; not under test here
            if reason is None:
                assert not skips and rows and run()
            else:
                assert len(skips) == 1 and reason in skips[0]["reason"] and not rows
                with pytest.raises(VerifyError):
                    run()
    if CENTER_CASES[q][1] == "not on a grid node":
        with pytest.raises(VerifyError, match="not node-aligned"):
            translate_samples(u, q)
    else:
        assert translate_samples(u, q).grid == g


def test_cli_model_params_exit_1_naming_the_kind(tmp_path, capsys):
    # the model takes no amplitude: a stray one stops the run instead of
    # running the plain model
    doc = {**BASE, "potential": {"kind": "model_quadratic", "params": [0.3]}}
    out = tmp_path / "out"
    assert main(["spectrum", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: model_quadratic takes 0 parameter")
    assert not out.exists()


def test_cli_lemmas_records_skipped_rows(tmp_path, capsys):
    # q = (1.5, 0) is not a node of the n = 97 grid (spacing 13/96), so the
    # gauge rows are skipped; the run still exits 0 but says so
    cfg = _write_config(tmp_path, BASE)
    out = str(tmp_path / "lem_skip")
    assert main(["lemmas", "--config", cfg, "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "lemmas.json")).read())
    assert not any(r["lemma_id"].startswith("gauge") for r in doc["rows"])
    gauge = [s for s in doc["skipped"] if s["check"] == "gauge"]
    assert len(gauge) == 1
    assert gauge[0]["q"] == [1.5, 0.0]
    assert "not on a grid node" in gauge[0]["reason"]
    assert "not on a grid node" in capsys.readouterr().err


def test_cli_warnings_print_one_line_without_path(tmp_path, capsys):
    # the h = 0.5 input state of BASE fails the ||Pu||/||u|| guard; the
    # library's warning reaches stderr as one line, with no source location
    cfg = _write_config(tmp_path, BASE)
    assert main(["lemmas", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if "||Pu||/||u||" in line]
    assert len(lines) == 1
    assert lines[0].startswith("warning: input state has ||Pu||/||u|| = ")
    assert "landaulab" not in err and ".py" not in err
    assert all(line.startswith("warning: ") for line in err.splitlines())


def test_cli_oracle_compare_small(tmp_path):
    doc = {
        "grid": {"extent_L": 6.0, "n_per_side": 129},
        "solve": {"k": 60, "tol": 1e-6, "seed": 0},
        "compare": {"sigma": 0.0, "m_max": 2},
    }
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "oc_out")
    code = main(["oracle-compare", "--config", cfg, "--out", out])
    doc_json = json.loads(open(os.path.join(out, "oracle_compare.json")).read())
    assert "max_angle_rad" in doc_json
    assert code in (0, 2)  # pass threshold checked in the acceptance suite
    # the averaged-coefficient H splits over the four sublattices
    solver = doc_json["solver"]
    _assert_solver_blocks(solver, 129 * 129)
    assert "inertia" not in solver
    assert all(b["k"] >= 60 * b["size"] / 129 ** 2 for b in solver["blocks"])


def test_cli_oracle_compare_reproducible(tmp_path):
    doc = {
        "grid": {"extent_L": 5.2, "n_per_side": 65},
        "solve": {"k": 30, "tol": 1e-6, "seed": 4},
        "compare": {"sigma": "auto", "m_max": 2},
    }
    cfg = _write_config(tmp_path, doc)
    outs = [str(tmp_path / f"oc{i}") for i in range(2)]
    # the pass threshold is checked in the acceptance suite; this window is
    # too narrow to meet it, and the test asks only that the run repeats
    codes = [main(["oracle-compare", "--config", cfg, "--out", out]) for out in outs]
    assert codes[0] == codes[1]
    a, b = (open(os.path.join(out, "oracle_compare.json"), "rb").read() for out in outs)
    assert a == b


def test_cli_oracle_compare_auto_sigma_independent_of_blas_threads(tmp_path):
    # at 129^2 an oracle row holds 16,641 entries, enough for a BLAS dot
    # product to split its sum by thread count
    doc = {
        "grid": {"extent_L": 5.2, "n_per_side": 129},
        "solve": {"k": 12, "tol": 1e-6, "seed": 3},
        "compare": {"sigma": "auto", "m_max": 2},
    }
    cfg = _write_config(tmp_path, doc)
    docs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"oc{threads}")
        proc = _run_cli(["oracle-compare", "--config", cfg, "--out", out],
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode in (0, 2), proc.stderr
        docs.append(json.loads(open(os.path.join(out, "oracle_compare.json")).read()))
    a, b = docs
    assert a["solver"]["sigma"] == b["solver"]["sigma"]
    assert a["oracle"] == b["oracle"]


# at 129^2 a grid vector holds 16,641 nodes, enough for a BLAS dot product to
# split its sum by thread count
BLAS_THREAD_CONFIGS = {
    "bounds": {"potential": {"kind": "quadratic_plus_trig", "params": [0.1]},
               "grid": {"extent_L": 6.5, "n_per_side": 129},
               "sweep": {"max_level": 1}, "solve": {"seed": 5}},
    "lemmas": {"potential": {"kind": "quadratic_plus_trig", "params": [0.1]},
               "grid": {"extent_L": 10.0, "n_per_side": 129},
               "lemmas": {"h_list": [0.5, 0.25], "q_list": [[1.25, 0.0]]}},
}


@pytest.mark.parametrize("command", sorted(BLAS_THREAD_CONFIGS))
def test_cli_ladder_and_energy_rows_independent_of_blas_threads(tmp_path, command):
    # bounds: every ladder field of each level (the ascent's fields still
    # move); lemmas: every energy identity row. Each rests on discrete L^2
    # sums over the grid (tier norms, Ritz residuals, basis norms, the
    # energy identity's sides), which must not depend on the thread count
    cfg = _write_config(tmp_path, BLAS_THREAD_CONFIGS[command])
    docs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"{command}{threads}")
        proc = _run_cli([command, "--config", cfg, "--out", out],
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode in (0, 2), proc.stderr
        docs.append(json.loads(open(os.path.join(out, f"{command}.json")).read()))
    if command == "bounds":
        fields = ("level", "lambda_sq", "ratio_linf", "max_residual", "l6_cut_bound")
        a, b = ([{f: r[f] for f in fields} for r in doc["rows"]] for doc in docs)
        assert len(a) == 2
    else:
        a, b = ([r for r in doc["rows"] if r["lemma_id"] == "energy_identity"]
                for doc in docs)
        assert len(a) == 18
    assert a == b


def test_cli_spectrum_independent_of_blas_threads(tmp_path):
    # every byte of spectrum.json and of the eigenvector dumps: the real-form
    # Lanczos vectors are orthonormal as returned, so no Gram-Schmidt pass
    # of threaded BLAS dot products reaches them
    cfg = _write_config(tmp_path, {"grid": {"extent_L": 6.0, "n_per_side": 65},
                                   "solve": {"k": 12, "seed": 3}})
    outs = []
    for threads in ("1", "2"):
        outs.append(str(tmp_path / f"sp{threads}"))
        proc = _run_cli(["spectrum", "--config", cfg, "--out", outs[-1]],
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(outs[0]))
    assert "spectrum.json" in names and "eig_011.csv" in names
    assert sorted(os.listdir(outs[1])) == names
    for name in names:
        a, b = (open(os.path.join(out, name), "rb").read() for out in outs)
        assert a == b, name


def test_cli_oracle_compare_rank_deficient_span_exits_2(tmp_path, monkeypatch, capsys):
    # a dependent eigenvector span fails the Cholesky factorization of its
    # Gram matrix: a solver failure (exit 2), not a config error
    def dependent_pairs(H, k, sigma, tol, seed, info):
        e = np.eye(H.grid.size, 3, dtype=complex)
        vecs = [e[:, 0], e[:, 1], e[:, 2], e[:, 0] + e[:, 1]]
        return [(0.0, GridFunction(v, H.grid), 0.0) for v in vecs]

    monkeypatch.setattr(cli, "eigenpairs_near", dependent_pairs)
    doc = {
        "grid": {"extent_L": 5.2, "n_per_side": 65},
        "solve": {"k": 4, "tol": 1e-6, "seed": 0},
        "compare": {"sigma": "auto", "m_max": 2},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "oc")]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "Cholesky" in err
    assert "Traceback" not in err
