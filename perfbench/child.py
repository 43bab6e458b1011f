"""One fresh interpreter per measurement; run.py starts it and waits for it.

    python3 child.py run <command> <config> <out_dir> <seed> <result_file>
        times landaulab.cli.main on the command, from parsed arguments to
        output files written, and writes {"run_s", "rc"} to result_file;
    python3 child.py setup <config> <t0> <result_file>
        imports landaulab, parses the config, builds the potential, the grid
        and the H handle, and writes {"setup_s"}: the time since the parent
        stamped t0 on the monotonic clock just before starting this process.

The package is imported from the checkout's src/ (PYTHONPATH, set by run.py).
"""

import json
import sys
import time


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def run(command, config, out_dir, seed, result_file):
    from landaulab import cli
    argv = [command, "--config", config, "--out", out_dir, "--seed", seed]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    _write(result_file, {"run_s": time.perf_counter() - t0, "rc": rc})
    return 0


def setup(config, t0, result_file):
    import landaulab as ll
    cfg = ll.load_config(config)
    potential = ll.make_potential(cfg.potential_kind, cfg.potential_params)
    grid = ll.Grid(extent_L=cfg.extent_L, n_per_side=cfg.n_per_side)
    ll.build_operator("H", potential, grid)
    _write(result_file, {"setup_s": time.monotonic() - float(t0)})
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"run": run, "setup": setup}[mode](*args))
