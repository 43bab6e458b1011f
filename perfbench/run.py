"""landaulab benchmark: one CLI command per workload, in a closed loop.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout: the package is imported from the
checkout's src/, and scratch files go to .perfbench_work/<workload>/.

--trace 0 (timed run): five fresh interpreters measure set-up, then the
command runs in its own process, one at a time, until --seconds have passed
(at least once). Every run's outputs are checked. Reports the medians of
run_s, setup_s and peak_rss_mb.

--trace 1 (traced run): each round runs the command once untraced, as above,
then once in this process with every public landaulab function traced
(spans.py). Reports each layer's self time and counts, the CSR and LU
figures reproduced outside the program (reproduce.py), and the tracing
overhead: traced run_s minus untraced run_s.

--smoke runs one round of the workload on its small grid, with one set-up
probe. The BLAS thread count is pinned to --blas-threads (default: the
available cores, at most 2) for this process and every child.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it records the run's machine facts and raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "operators.apply_ms", "operators.csr_matvec_ms", "operators.assemble_s",
    "operators.matrix_nnz", "eigensolve.solve_s", "eigensolve.lu_s",
    "eigensolve.lu_fill_nnz", "eigensolve.lu_solve_ms", "eigensolve.cluster_s",
    "eigensolve.principal_angles_s", "oracle.null_states_s", "verify.ladder_s",
    "verify.sweep_s", "verify.energy_lemma_s", "verify.cutoff_lemma_s",
    "verify.gauge_lemma_s", "norms.extremal_l6_s", "norms.l6_iterations",
    "norms.l6_converged_levels", "norms.extremal_linf_s", "grid.orthonormalize_s",
    "grid.save_csv_s", "cutoffs.make_cutoff_s", "cutoffs.overlap_sup_s",
    "potentials.sup_norm_s", "trace.overhead_s",
)


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def blas_threads(requested):
    cores = len(os.sched_getaffinity(0))
    return max(1, min(requested or 2, cores))


class Runner:
    """Starts one child interpreter at a time and waits for it to end."""

    def __init__(self, work):
        self.work = work
        self.n = 0

    def _spawn(self, args, stamp=False):
        self.n += 1
        log = os.path.join(self.work, f"child_{self.n:03d}.log")
        result = os.path.join(self.work, f"child_{self.n:03d}.json")
        with open(log, "w") as fh:
            if stamp:   # the child measures its set-up from this instant
                args = args + [repr(time.monotonic())]
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), *args, result],
                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        doc = {}
        if proc.returncode == 0 and os.path.exists(result):
            with open(result) as fh:
                doc = json.load(fh)
        return proc.returncode, doc, usage.ru_maxrss / 1024.0

    def setup(self, config):
        rc, doc, _ = self._spawn(["setup", config], stamp=True)
        if rc != 0 or "setup_s" not in doc:
            raise RuntimeError(f"set-up probe failed (exit {rc}); see {self.work}")
        return doc["setup_s"]

    def command(self, command, config, out, seed):
        """(exit code, run_s, peak RSS in MB) of one CLI run."""
        rc, doc, rss_mb = self._spawn(["run", command, config, out, str(seed)])
        if rc == 0:
            rc = doc.get("rc", 1)
        return rc, doc.get("run_s"), rss_mb


class Tally:
    """Operations attempted and failed, and check failures of the others."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok

    def checked(self, fails):
        self.problems += fails
        for name, ok in fails.ops.items():
            self.op(ok, name)


def timed(wl, config, seed, seconds, probes, work, tally):
    from checks import Checker
    from landaulab import load_config

    checker = Checker(wl.name, load_config(config))
    runner = Runner(work)
    setups = [runner.setup(config) for _ in range(probes)]
    out = os.path.join(work, "out")
    run_s, rss = [], []
    t_end = time.monotonic() + seconds
    while True:
        rc, secs, rss_mb = runner.command(wl.command, config, out, seed)
        if tally.op(rc == 0, f"{wl.command} exited {rc}"):
            run_s.append(secs)
            rss.append(rss_mb)
            tally.checked(checker.outputs(out))
        if time.monotonic() >= t_end:
            break
    if not run_s:
        raise RuntimeError("no run of the command succeeded")
    metrics = {"run_s": statistics.median(run_s),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    raw = {"run_s": run_s, "setup_s": setups, "peak_rss_mb": rss}
    return metrics, raw


def traced(wl, config, seed, seconds, work, tally):
    import reproduce
    import spans
    from checks import Checker
    from landaulab import cli, load_config

    cfg = load_config(config)
    checker = Checker(wl.name, cfg)
    runner = Runner(work)
    out, traced_out = os.path.join(work, "out"), os.path.join(work, "traced")
    rounds = []
    t_end = time.monotonic() + seconds
    while True:
        rc, untraced_s, _ = runner.command(wl.command, config, out, seed)
        if tally.op(rc == 0, f"{wl.command} exited {rc}"):
            tally.checked(checker.outputs(out))
        cfg.out_dir, cfg.seed = traced_out, seed
        rec = spans.Recorder()
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with spans.instrument(rec), contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                rc_traced = rec.wrap(f"cli.{wl.command}", cli.COMMANDS[wl.command])(cfg)
        except Exception:   # a failed operation is counted, not fatal
            rc_traced = 1
            captured.write(traceback.format_exc())
        traced_s = time.perf_counter() - t0
        with open(os.path.join(work, "traced.log"), "w") as fh:
            fh.write(captured.getvalue())
        if tally.op(rc_traced == 0, f"traced {wl.command} exited {rc_traced}") and rc == 0:
            tally.checked(checker.outputs(traced_out))
            tally.checked(checker.traced(rec, traced_out))
            layers = spans.layer_metrics(rec)
            layers["trace.overhead_s"] = traced_s - untraced_s
            rounds.append(layers)
            rec.write(os.path.join(work, "trace.json"))
            last = rec
        if time.monotonic() >= t_end:
            break
    if not rounds:
        raise RuntimeError("no traced round succeeded")
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}

    # figures reproduced outside the program on the matrix it assembles
    mat = checker.csr[0]
    metrics["operators.csr_matvec_ms"] = reproduce.csr_matvec_ms(mat, seed)
    sigma = None
    if "eigensolve.eigenpairs_near" in last.calls:
        sigma = last.calls["eigensolve.eigenpairs_near"][0][1]["sigma"]
    elif "eigensolve.lowest_eigenpairs" in last.calls:
        sigma = -1.0   # lowest_eigenpairs shift-inverts at -1
    lu = reproduce.lu_figures(mat, sigma, seed) if sigma is not None else (0.0, 0, 0.0)
    metrics["eigensolve.lu_s"], metrics["eigensolve.lu_fill_nnz"], \
        metrics["eigensolve.lu_solve_ms"] = lu
    self_times = {name: {"self_s": t, "spans": n}
                  for name, (t, n) in sorted(last.self_times().items())}
    return metrics, {"rounds": rounds, "lu_sigma": sigma, "self_times": self_times}


def machine(threads):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--blas-threads", type=int, default=None)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "landaulab", "__init__.py")):
        print(f"error: no landaulab package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 1
    threads = blas_threads(args.blas_threads)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)   # before numpy is imported, so the pin holds here too

    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.json")
    with open(config, "w") as fh:
        json.dump(wl.smoke if args.smoke else wl.config, fh)
    seconds = 0.0 if args.smoke else args.seconds

    tally = Tally()
    if args.trace:
        metrics, raw = traced(wl, config, args.seed, seconds, work, tally)
    else:
        metrics, raw = timed(wl, config, args.seed, seconds,
                             1 if args.smoke else SETUP_PROBES, work, tally)
    names = PER_LAYER if args.trace else END_TO_END
    result = {"correct": not tally.problems,
              "attempted": tally.attempted, "failed": len(tally.failed),
              "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names}}
    info = {"workload": wl.name, "command": wl.command, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            **machine(threads), "raw": raw, "failed_ops": tally.failed,
            "problems": tally.problems}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for p in tally.failed + tally.problems:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
