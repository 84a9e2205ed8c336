"""Layer spans and counters, recorded from outside the package.

``Tracer.installed()`` replaces each traced function under every name its
callers look it up by (``recovery`` imports ``build_resultant``,
``left_nullspace``, ``backward_error`` and others by name) and restores the
originals on exit, so untraced passes run unmodified code.  Spans are kept in
memory as ``[name, start, end, parent]`` and written out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Hot helpers (``MonomialBasis.index_of``, ``shifted_submatrix``,
``monomial_basis``, ``eigsh``, ``eig``, ``jacobian``, ``random_config``) are
counted, not spanned, so their time stays with the span that calls them.
"""

import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (span name, defining module, function)
SPANS = [
    ("tensors.st_hosvd", "tensors", "st_hosvd"),
    ("tensors.reshape_group", "tensors", "reshape_group"),
    ("tensors.backward_error", "tensors", "backward_error"),
    ("bigraded.select_degree", "bigraded", "select_degree"),
    ("polysys.kernel_flattening", "polysys", "kernel_flattening"),
    ("polysys.build_resultant", "polysys", "build_resultant"),
    ("polysys.left_nullspace", "polysys", "left_nullspace"),
    ("normalform.prenormal", "normalform", "prenormal_general"),
    ("normalform.prenormal", "normalform", "pencil_prenormal"),
    ("normalform.multiplication_matrices", "normalform", "multiplication_matrices"),
    ("normalform.simultaneous_diagonalize", "normalform", "simultaneous_diagonalize"),
    ("recovery.solve_gamma", "recovery", "solve_gamma"),
    ("recovery.newton_refine", "recovery", "newton_refine"),
    ("recovery.solve_alpha", "recovery", "solve_alpha"),
    ("recovery.driver", "recovery", "decompose_with_info"),
    ("regcert.fp_rank", "regcert", "fp_rank"),
    ("regcert.hilbert_from_points", "regcert", "hilbert_from_points"),
    ("regcert.certify_regularity", "regcert", "certify_regularity"),
]

# (counter name, defining module, function, only when called inside this span)
COUNTS = [
    ("bigraded.monomial_basis.calls", "bigraded", "monomial_basis", None),
    ("normalform.shifted_submatrix.calls", "normalform", "shifted_submatrix", None),
    ("recovery.newton_steps", "polysys", "jacobian", "recovery.newton_refine"),
    ("regcert.certify_regularity.trials", "regcert", "random_config",
     "regcert.certify_regularity"),
]

STAGES = ["grouping", "compression", "kernel", "resultant", "cokernel",
          "multiplication", "diagonalization", "recovery", "refinement"]

# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("tensors.st_hosvd.ms", "ms"),
    ("tensors.reshape_group.ms", "ms"),
    ("tensors.backward_error.ms", "ms"),
    ("tensors.backward_error.calls", "count"),
    ("bigraded.select_degree.ms", "ms"),
    ("bigraded.monomial_basis.calls", "count"),
    ("bigraded.index_of.calls", "count"),
    ("polysys.kernel_flattening.ms", "ms"),
    ("polysys.build_resultant.ms", "ms"),
    ("polysys.resultant.rows", "count"),
    ("polysys.resultant.cols", "count"),
    ("polysys.resultant.nnz", "count"),
    ("polysys.left_nullspace.ms", "ms"),
    ("polysys.left_nullspace.calls", "count"),
    ("polysys.eigsh.calls", "count"),
    ("polysys.eigs_share", "1"),
    ("polysys.left_nullspace.peak_mb", "MiB"),
    ("normalform.prenormal.ms", "ms"),
    ("normalform.multiplication_matrices.ms", "ms"),
    ("normalform.shifted_submatrix.calls", "count"),
    ("normalform.simultaneous_diagonalize.ms", "ms"),
    ("normalform.eig.calls", "count"),
    ("recovery.solve_gamma.ms", "ms"),
    ("recovery.solve_gamma.calls", "count"),
    ("recovery.newton_refine.ms", "ms"),
    ("recovery.newton_steps", "count"),
    ("recovery.solve_alpha.ms", "ms"),
    ("recovery.candidates", "count"),
    ("recovery.driver.ms", "ms"),
    ("regcert.fp_rank.ms", "ms"),
    ("regcert.fp_rank.calls", "count"),
    ("regcert.fp_rank.entries", "count"),
    ("regcert.fp_rank.elim_ops", "count"),
    ("regcert.hilbert_from_points.ms", "ms"),
    ("regcert.certify_regularity.trials", "count"),
] + [(f"stage.{name}.ms", "ms") for name in STAGES] + [
    ("berr_excess_log10", "log10"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self, cp):
        self.cp = cp
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.peak_mb = 0.0     # tracemalloc peak above entry, worst left_nullspace call
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _count(self, name, fn, inside=None):
        def counted(*args, **kwargs):
            if inside is None or self._current() == inside:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _resultant_sizes(self, fn):
        def sized(*args, **kwargs):
            res = fn(*args, **kwargs)
            rows, cols = res.shape
            self.counts["polysys.resultant.rows"] += rows
            self.counts["polysys.resultant.cols"] += cols
            self.counts["polysys.resultant.nnz"] += res.matrix.nnz
            return res
        return sized

    def _nullspace_method(self, fn):
        def counted(*args, **kwargs):
            eigsh_before = self.counts["polysys.eigsh.calls"]
            try:
                return fn(*args, **kwargs)
            finally:
                if self.counts["polysys.eigsh.calls"] > eigsh_before:
                    self.counts["polysys.left_nullspace.eigs_calls"] += 1
        return counted

    def _nullspace_memory(self, fn):
        # tracemalloc sees numpy buffers allocated in the call, not SuperLU
        # or ARPACK workspace
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 2**20)
        return measured

    def _rank_work(self, fn):
        def counted(M, *args, **kwargs):
            rank = fn(M, *args, **kwargs)
            rows, cols = np.atleast_2d(np.asarray(M)).shape
            self.counts["regcert.fp_rank.entries"] += rows * cols
            self.counts["regcert.fp_rank.elim_ops"] += int(rank) * rows * cols
            return rank
        return counted

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind every cpdhnf module attribute bound to ``original``."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cpdhnf" or mod_name.startswith("cpdhnf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no cpdhnf module binds {original!r}")

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import scipy.sparse.linalg
        cp = self.cp
        module = {name: getattr(cp, name) for name in
                  ("tensors", "bigraded", "polysys", "normalform", "recovery", "regcert")}
        for name, mod, fn, inside in COUNTS:
            original = getattr(module[mod], fn)
            self._replace(original, self._count(name, original, inside))
        for name, mod, fn in SPANS:
            original = getattr(module[mod], fn)
            inner = original
            if name == "polysys.build_resultant":
                inner = self._resultant_sizes(inner)
            elif name == "polysys.left_nullspace":
                inner = self._nullspace_method(inner)
            elif name == "regcert.fp_rank":
                inner = self._rank_work(inner)
            self._replace(original, self._span(name, inner))
        basis = module["bigraded"].MonomialBasis
        self._patch(basis, "index_of",
                    self._count("bigraded.index_of.calls", basis.index_of))
        self._patch(scipy.sparse.linalg, "eigsh",
                    self._count("polysys.eigsh.calls", scipy.sparse.linalg.eigsh))
        self._patch(np.linalg, "eig",
                    self._count("normalform.eig.calls", np.linalg.eig,
                                inside="normalform.simultaneous_diagonalize"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def memory_probe(self):
        """Only ``left_nullspace`` wrapped, in ``tracemalloc``.

        Tracing every allocation triples the call's time on small inputs,
        so the peak is taken in a pass of its own, which is not timed.
        """
        original = self.cp.polysys.left_nullspace
        self._replace(original, self._nullspace_memory(original))
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ---------------------------------------------------------

    def layer_totals(self):
        """Self time (ms) and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms, calls = Counter(), Counter()
        for (name, start, end, parent), covered in zip(self.spans, child):
            self_ms[name] += (end - start - covered) * 1e3
            calls[name] += 1
        return self_ms, calls

    def candidates(self):
        """backward_error calls made by decompose_with_info to rank its candidates."""
        return sum(1 for name, _, _, parent in self.spans
                   if name == "tensors.backward_error" and parent >= 0
                   and self.spans[parent][0] == "recovery.driver")

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]



def layer_metrics(tracer, passes, stages):
    """Per-pass per-layer metrics of ``passes`` traced passes.

    ``stages`` holds the ``info["stage_timings_ms"]`` of every traced
    decomposition.  Layers that did not run read 0.
    """
    self_ms, calls = tracer.layer_totals()
    span_names = {name for name, _, _ in SPANS}
    values = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name.startswith("stage."):
            stage = base[len("stage."):]
            values[name] = sum(s.get(stage, 0.0) for s in stages) / passes
        elif kind == "ms":
            values[name] = self_ms[base] / passes
        elif kind == "calls" and base in span_names:
            values[name] = calls[base] / passes
        else:
            values[name] = tracer.counts[name] / passes
    nullspace_calls = calls["polysys.left_nullspace"]
    values["polysys.eigs_share"] = (
        tracer.counts["polysys.left_nullspace.eigs_calls"] / nullspace_calls
        if nullspace_calls else 0.0)
    values["polysys.left_nullspace.peak_mb"] = tracer.peak_mb
    values["recovery.candidates"] = tracer.candidates() / passes
    return values
