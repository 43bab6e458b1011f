"""Span recorder for the traced run, and the per-layer metrics read from it.

Spans are recorded from the benchmark's side: `instrument` wraps the public
functions of each landaulab module in every module namespace that holds them
(the package imports them by name), and restores the originals on exit. The
program's code is not modified. Spans are kept in memory and written by
`Recorder.write` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# module -> public functions timed as spans named "<module>.<function>"
FUNCTIONS = {
    "grid": ("mgs_orthonormalize", "rescale", "save_grid_function"),
    "operators": ("build_operator", "assemble_sparse", "gauge_multiplier"),
    "oracle": ("null_state",),
    "eigensolve": ("resolution_warning", "lowest_eigenpairs", "eigenpairs_near",
                   "cluster", "principal_angles"),
    "norms": ("extremal_linf", "extremal_l6"),
    "cutoffs": ("make_cutoff", "lattice_window", "overlap_sup_factors"),
    "verify": ("ladder_level_clusters", "sweep_bounds", "check_energy_lemma",
               "check_cutoff_lemma", "check_gauge_lemma"),
}
# methods of potentials.Potential timed as "potentials.<method>"
POTENTIAL_METHODS = ("grad_sup_norm", "laplacian_sup_norm")
# every matrix-free OperatorHandle.apply_array call is a span of this name
APPLY = "operators.apply"
# spans whose arguments and results the output checks read afterwards
CAPTURED = ("norms.extremal_linf", "norms.extremal_l6",
            "eigensolve.lowest_eigenpairs", "eigensolve.eigenpairs_near",
            "verify.check_cutoff_lemma")


class Recorder:
    """In-memory spans [name, start, end, parent index] plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.calls = {}   # captured span name -> [(args, kwargs, result)]
        self._stack = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
            if after is not None:
                after(out)
            if name in CAPTURED:
                self.calls.setdefault(name, []).append((args, kwargs, out))
            return out
        return traced

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self):
        """name -> (summed self time in seconds, span count). Self time is a
        span's duration minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total, n = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - covered[i]), n + 1)
        return out

    def write(self, path):
        doc = {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                         for n, s, e, p in self.spans],
               "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(doc, fh)


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Route every call into the traced landaulab functions through `rec`."""
    import landaulab.potentials as potentials

    modules = [m for name, m in list(sys.modules.items())
               if name == "landaulab" or name.startswith("landaulab.")]
    patched = []   # (owner, attribute, original)

    def wrap_handle(handle):
        handle.apply_array = rec.wrap(APPLY, handle.apply_array)

    def count_nnz(mat):
        rec.count("operators.matrix_nnz", int(mat.nnz))

    after = {"operators.build_operator": wrap_handle,
             "operators.assemble_sparse": count_nnz}
    try:
        for mod_name, names in FUNCTIONS.items():
            mod = sys.modules[f"landaulab.{mod_name}"]
            for fname in names:
                original = getattr(mod, fname)
                span = f"{mod_name}.{fname}"
                traced = rec.wrap(span, original, after.get(span))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patched.append((m, attr, original))
                            setattr(m, attr, traced)
        for meth in POTENTIAL_METHODS:
            original = getattr(potentials.Potential, meth)
            patched.append((potentials.Potential, meth, original))
            setattr(potentials.Potential, meth,
                    rec.wrap(f"potentials.{meth}", original))
        yield rec
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# per-layer metric -> spans whose summed self time (seconds) it reports
SELF_TIME_S = {
    "operators.assemble_s": ("operators.assemble_sparse",),
    "eigensolve.solve_s": ("eigensolve.lowest_eigenpairs", "eigensolve.eigenpairs_near"),
    "eigensolve.cluster_s": ("eigensolve.cluster",),
    "eigensolve.principal_angles_s": ("eigensolve.principal_angles",),
    "oracle.null_states_s": ("oracle.null_state",),
    "verify.ladder_s": ("verify.ladder_level_clusters",),
    "verify.sweep_s": ("verify.sweep_bounds",),
    "verify.energy_lemma_s": ("verify.check_energy_lemma",),
    "verify.cutoff_lemma_s": ("verify.check_cutoff_lemma",),
    "verify.gauge_lemma_s": ("verify.check_gauge_lemma",),
    "norms.extremal_l6_s": ("norms.extremal_l6",),
    "norms.extremal_linf_s": ("norms.extremal_linf",),
    "grid.orthonormalize_s": ("grid.mgs_orthonormalize",),
    "grid.save_csv_s": ("grid.save_grid_function",),
    "cutoffs.make_cutoff_s": ("cutoffs.make_cutoff",),
    "cutoffs.overlap_sup_s": ("cutoffs.overlap_sup_factors",),
    "potentials.sup_norm_s": tuple(f"potentials.{m}" for m in POTENTIAL_METHODS),
}


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer figures of one traced run, read from its spans and counts.
    A layer the workload never calls reads 0."""
    st = rec.self_times()
    out = {name: sum(st.get(s, (0.0, 0))[0] for s in spans)
           for name, spans in SELF_TIME_S.items()}
    apply_s, applies = st.get(APPLY, (0.0, 0))
    out["operators.apply_ms"] = 1e3 * apply_s / applies if applies else 0.0
    out["operators.matrix_nnz"] = rec.counts.get("operators.matrix_nnz", 0)
    ascents = [res for _, _, res in rec.calls.get("norms.extremal_l6", [])]
    out["norms.l6_iterations"] = sum(a.iterations for a in ascents)
    out["norms.l6_converged_levels"] = sum(bool(a.converged) for a in ascents)
    return out
