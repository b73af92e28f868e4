"""Per-layer tracing of kernelmix from outside the program.

``Tracer.install`` wraps the public functions named in ``TARGETS`` and puts
each wrapper on the name in every kernelmix module that imported the
function (``kernelmix.mmd.kernel_matrix`` as well as
``kernelmix.kernels.kernel_matrix``), so calls between modules are seen.
Spans (name, start, end, parent, operation id, work) are kept in memory and
written out when the run ends.

A layer is the module part of a span name. A span's self time is its
duration minus that of its direct children, so per operation the layers'
self times plus ``bench.unaccounted_s`` (the root span's self time) add up
to the traced operation time exactly.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("cli", "data", "kernels", "mmd", "rff", "svm", "select", "diagnostics")


def _entries(args, kwargs, result):
    return result.size


def _shape(args, kwargs, result):
    return list(result.shape)


def _rows(args, kwargs, result):
    return result.n


def _kernel(args, kwargs, result):
    kernel = args[0] if args else kwargs["kernel"]
    return [kernel.family, kernel.rho]


#: (span name, module, attribute, what to record as the span's work)
TARGETS = (
    ("cli.main", "kernelmix.cli", "main", None),
    ("data.load_dataset", "kernelmix.data", "load_dataset", _rows),
    ("data.standardize", "kernelmix.data", "standardize", None),
    ("data.apply_standardization", "kernelmix.data", "apply_standardization", None),
    ("kernels.kernel_matrix", "kernelmix.kernels", "kernel_matrix", _entries),
    ("kernels.mixture_gram", "kernelmix.kernels", "mixture_gram", None),
    ("mmd.mixing_weights", "kernelmix.mmd", "mixing_weights", None),
    ("mmd.mmd_score", "kernelmix.mmd", "mmd_score", _kernel),
    ("rff.FeatureBank.generate", "kernelmix.rff", "FeatureBank.generate", None),
    ("rff.build_feature_matrix", "kernelmix.rff", "build_feature_matrix", _shape),
    ("svm.train", "kernelmix.svm", "train", None),
    ("svm.hinge_subgradient", "kernelmix.svm", "hinge_subgradient", None),
    ("svm.hinge_objective", "kernelmix.svm", "hinge_objective", None),
    ("svm.decision_values", "kernelmix.svm", "decision_values", None),
    ("svm.save_model", "kernelmix.svm", "save_model", None),
    ("svm.load_model", "kernelmix.svm", "load_model", None),
    ("select.compare_selection", "kernelmix.select", "compare_selection", None),
    ("select.cv_bandwidth_select", "kernelmix.select", "cv_bandwidth_select", None),
    ("select.mmd_bandwidth_select", "kernelmix.select", "mmd_bandwidth_select", None),
    ("diagnostics.complexity_bounds", "kernelmix.diagnostics", "complexity_bounds", None),
    ("diagnostics.frobenius_concentration", "kernelmix.diagnostics", "frobenius_concentration", None),
    ("diagnostics.spectral_concentration", "kernelmix.diagnostics", "spectral_concentration", None),
    ("diagnostics.empirical_sup_error", "kernelmix.diagnostics", "empirical_sup_error", None),
)

#: Per-layer metrics with their units, in report order.
METRICS = {
    "cli.command_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "data.load_s": "s", "data.rows_parsed": "count", "data.standardize_s": "s", "data.self_s": "s",
    "kernels.kernel_matrix_s": "s", "kernels.kernel_matrix_calls": "count", "kernels.entries": "count",
    "kernels.bytes_computed": "bytes", "kernels.mixture_gram_s": "s", "kernels.self_s": "s",
    "mmd.score_s": "s", "mmd.self_s": "s", "mmd.score_calls": "count", "mmd.scores_per_kernel": "ratio",
    "rff.bank_s": "s", "rff.phi_s": "s", "rff.phi_builds": "count", "rff.phi_bytes": "bytes",
    "rff.phi_rows_per_input_row": "ratio", "rff.self_s": "s",
    "svm.train_s": "s", "svm.steps": "count", "svm.subgradient_s": "s", "svm.objective_s": "s",
    "svm.decision_s": "s", "svm.model_io_s": "s", "svm.self_s": "s",
    "select.cv_s": "s", "select.mmd_s": "s", "select.trainings": "count", "select.final_fits_s": "s",
    "select.self_s": "s",
    "diagnostics.complexity_s": "s", "diagnostics.frobenius_s": "s", "diagnostics.spectral_s": "s",
    "diagnostics.sup_error_s": "s", "diagnostics.mixture_gram_builds": "count", "diagnostics.self_s": "s",
    # the ROADMAP baseline stages, under their function names
    "mixing_weights": "s", "build_feature_matrix": "s", "train": "s", "decision_values": "s",
    "bench.unaccounted_s": "s", "trace.op_s": "s", "trace.spans": "count",
}

#: Metrics that count work; they must repeat exactly from one operation to the next.
COUNTS = tuple(name for name, unit in METRICS.items() if unit in ("count", "bytes", "ratio"))

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, work]
        self.stack = []
        self.installed = []
        self.op_id = -1

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                record[5] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kernelmix" or n.startswith("kernelmix.")]
        for name, module_name, attr, work in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:  # a classmethod: wrap the function, keep the binding
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, classmethod(self._wrap(name, original.__func__, work)), original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def _set(self, owner, key, value, original):
        self.installed.append((owner, key, original))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed.clear()

    def run_op(self, op):
        """Run ``op`` traced under a root span; return (result, index of the root span)."""
        self.op_id += 1
        first = len(self.spans)
        self.install()
        try:
            return self._wrap(ROOT, op, None)(), first
        finally:
            self.uninstall()

    def dump(self):
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "work": s[5]}
            for s in self.spans
        ]


def layer_metrics(spans, first_index, input_rows, output_bytes):
    """Per-layer metrics of one operation from its spans (``first_index`` is
    the global index of the operation's root span)."""
    dur = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            children[s[3] - first_index] += d
    names = [s[0] for s in spans]

    def total(*wanted):
        return sum(d for n, d in zip(names, dur) if n in wanted)

    def calls(wanted):
        return sum(1 for n in names if n == wanted)

    def parent_name(s):
        return names[s[3] - first_index] if s[3] >= 0 else ""

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if names[p - first_index] == ancestor:
                return True
            p = spans[p - first_index][3]
        return False

    self_time = {layer: 0.0 for layer in LAYERS}
    unaccounted = 0.0
    for n, d, c in zip(names, dur, children):
        if n == ROOT:
            unaccounted += d - c
        else:
            self_time[n.split(".")[0]] += d - c

    entries = sum(s[5] for s in spans if s[0] == "kernels.kernel_matrix")
    phi = [s[5] for s in spans if s[0] == "rff.build_feature_matrix"]
    kernels_scored = {tuple(s[5]) for s in spans if s[0] == "mmd.mmd_score"}
    score_calls = calls("mmd.mmd_score")
    m = {
        "cli.command_s": total("cli.main"),
        "cli.output_bytes": output_bytes,
        "data.load_s": total("data.load_dataset"),
        "data.rows_parsed": sum(s[5] for s in spans if s[0] == "data.load_dataset"),
        "data.standardize_s": total("data.standardize", "data.apply_standardization"),
        "kernels.kernel_matrix_s": total("kernels.kernel_matrix"),
        "kernels.kernel_matrix_calls": calls("kernels.kernel_matrix"),
        "kernels.entries": entries,
        "kernels.bytes_computed": 8 * entries,
        "kernels.mixture_gram_s": total("kernels.mixture_gram"),
        "mmd.score_s": total("mmd.mmd_score"),
        "mmd.score_calls": score_calls,
        "mmd.scores_per_kernel": score_calls / len(kernels_scored) if kernels_scored else 0.0,
        "rff.bank_s": total("rff.FeatureBank.generate"),
        "rff.phi_s": total("rff.build_feature_matrix"),
        "rff.phi_builds": len(phi),
        "rff.phi_bytes": sum(8 * r * c for r, c in phi),
        "rff.phi_rows_per_input_row": sum(r for r, _ in phi) / input_rows,
        "svm.train_s": total("svm.train"),
        "svm.steps": calls("svm.hinge_subgradient"),
        "svm.subgradient_s": total("svm.hinge_subgradient"),
        "svm.objective_s": total("svm.hinge_objective"),
        "svm.decision_s": total("svm.decision_values"),
        "svm.model_io_s": total("svm.save_model", "svm.load_model"),
        "select.cv_s": total("select.cv_bandwidth_select"),
        "select.mmd_s": total("select.mmd_bandwidth_select"),
        "select.trainings": sum(
            1 for i, n in enumerate(names) if n == "svm.train" and under(i, "select.compare_selection")
        ),
        "select.final_fits_s": total("select.compare_selection")
        - total("select.cv_bandwidth_select", "select.mmd_bandwidth_select"),
        "diagnostics.complexity_s": total("diagnostics.complexity_bounds"),
        "diagnostics.frobenius_s": total("diagnostics.frobenius_concentration"),
        "diagnostics.spectral_s": total("diagnostics.spectral_concentration"),
        "diagnostics.sup_error_s": total("diagnostics.empirical_sup_error"),
        "diagnostics.mixture_gram_builds": sum(
            1 for s in spans if s[0] == "kernels.mixture_gram" and parent_name(s).startswith("diagnostics.")
        ),
        "mixing_weights": total("mmd.mixing_weights"),
        "build_feature_matrix": total("rff.build_feature_matrix"),
        "train": total("svm.train"),
        "decision_values": total("svm.decision_values"),
        "bench.unaccounted_s": unaccounted,
        "trace.op_s": total(ROOT),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    accounted = sum(self_time.values()) + unaccounted
    if abs(accounted - m["trace.op_s"]) > 1e-9 * max(1.0, m["trace.op_s"]):
        raise AssertionError(f"self times add to {accounted}, operation took {m['trace.op_s']}")
    return m
