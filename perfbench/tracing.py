"""Spans around the package's public calls, installed from outside.

`Tracer` replaces module attributes of gridsynth with wrappers that record a
span per call (name, start, end, parent span, run id) plus the counts the
per-layer metrics need, and puts the originals back on `restore`. Nothing
under src/ changes and untraced runs install no wrapper. Memory peaks come
from a separate `PeakProbe` pass, because tracemalloc slows allocation-heavy
code and would distort the span times.
"""
from __future__ import annotations

import functools
import json
import time
import tracemalloc
import weakref
from datetime import datetime
from zoneinfo import ZoneInfo

from gridsynth import autodiff, cli, datapipe, metrics, nets, synth, trainer

# (owner, attribute) pairs wrapped by the traced run; the span name is
# "<module>.<attribute>" with the module's short name.
TRACED = [
    (autodiff, "forward"), (autodiff, "backward"),
    (trainer.AdamOptimizer, "step"), (trainer, "train_vaegan"), (trainer, "train_gan"),
    (nets, "build_vaegan_graph"), (nets, "build_gan_graph"), (nets, "generate"),
    (nets, "save_checkpoint"), (nets, "load_checkpoint"),
    (synth, "sample"), (synth, "export"), (synth, "load_exported"),
    (datapipe, "load_csv"), (datapipe, "resample"), (datapipe, "clean_days"),
    (datapipe, "normalize"), (datapipe, "save_day_matrix"), (datapipe, "load_day_matrix"),
    (metrics, "kl_divergence"), (metrics, "wasserstein1"), (metrics, "median_heuristic_sigma"),
    (metrics, "mmd_rbf"), (metrics, "aggregate_stats"), (metrics, "dump_histograms"),
    (cli, "main"), (cli, "cmd_ingest"), (cli, "cmd_train"), (cli, "cmd_generate"),
    (cli, "cmd_evaluate"), (cli, "cmd_report"),
]
PEAKED = [(nets, "generate"), (metrics, "median_heuristic_sigma"), (metrics, "mmd_rbf")]

# loss-node names of nets.build_*_graph -> training phase
PHASE_OF_LOSS = {"l_D": "D", "d_loss": "D", "l_reconstruction": "E",
                 "l_generator": "G", "g_loss": "G"}
MB = 2.0**20


def span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class _Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        wrapper = functools.wraps(original)(make_wrapper(original, span_name(owner, attr)))
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(_Patches):
    """Span recorder for one traced repetition."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._graph_sizes = weakref.WeakKeyDictionary()  # root -> (nodes, conv nodes)
        self._phase_of_root = weakref.WeakKeyDictionary()  # loss root -> "D" | "E" | "G"
        self._phase = None
        self.counts = {
            "forward_nodes": 0, "backward_nodes": 0, "train_conv_nodes": 0, "steps": 0,
            "rows_parsed": 0, "kept_days": 0, "calendar_days": 0,
        }
        self.phase_s = {"D": 0.0, "E": 0.0, "G": 0.0}
        self.phase_runs = {"D": 0, "E": 0, "G": 0}
        self._hooks = {
            "autodiff.forward": self._on_forward,
            "autodiff.backward": self._on_backward,
            "trainer.AdamOptimizer.step": self._on_adam,
            "nets.build_vaegan_graph": self._on_graph,
            "nets.build_gan_graph": self._on_graph,
            "trainer.train_vaegan": self._on_train,
            "trainer.train_gan": self._on_train,
            "datapipe.load_csv": self._on_load_csv,
            "datapipe.clean_days": self._on_clean_days,
        }

    def install(self):
        for owner, attr in TRACED:
            self.patch(owner, attr, self._wrap)
        return self

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None,
                    "run": run_id, "start": time.perf_counter(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    # -- counts taken at the call boundaries --------------------------------

    def _sizes(self, root):
        sizes = self._graph_sizes.get(root)
        if sizes is None:
            order = autodiff.topo_order(root)
            conv = sum(isinstance(n, autodiff.DilatedCausalConv1d) for n in order)
            sizes = self._graph_sizes[root] = (len(order), conv)
        return sizes

    def _on_forward(self, span, args, kwargs, result):
        root = args[0]
        nodes, conv = self._sizes(root)
        self.counts["forward_nodes"] += nodes
        self._phase = self._phase_of_root.get(root)
        if self._phase is not None:
            self.counts["train_conv_nodes"] += conv
            self.phase_runs[self._phase] += 1
            self.phase_s[self._phase] += span["end"] - span["start"]

    def _on_backward(self, span, args, kwargs, result):
        root = args[0]
        self.counts["backward_nodes"] += self._sizes(root)[0]
        phase = self._phase_of_root.get(root)
        if phase is not None:
            self.phase_s[phase] += span["end"] - span["start"]

    def _on_adam(self, span, args, kwargs, result):
        # the optimizer step that follows a phase's backward belongs to it
        if self._phase is not None:
            self.phase_s[self._phase] += span["end"] - span["start"]

    def _on_graph(self, span, args, kwargs, graph):
        for loss_name, node in graph.nodes.items():
            if loss_name in PHASE_OF_LOSS:
                self._phase_of_root[node] = PHASE_OF_LOSS[loss_name]

    def _on_train(self, span, args, kwargs, result):
        self.counts["steps"] += len(result[1].steps)
        self._phase = None

    def _on_load_csv(self, span, args, kwargs, series):
        self.counts["rows_parsed"] += len(series)

    def _on_clean_days(self, span, args, kwargs, matrix):
        series = args[0]
        zone = ZoneInfo(kwargs.get("tz", args[1] if len(args) > 1 else "UTC"))
        first, last = (datetime.fromtimestamp(int(t), tz=zone).date()
                       for t in (series.timestamps[0], series.timestamps[-1]))
        self.counts["calendar_days"] += (last - first).days + 1
        self.counts["kept_days"] += matrix.n_days

    # -- output ---------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child[span["id"]]
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + own
            calls[span["name"]] = calls.get(span["name"], 0) + 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit) for this repetition."""
        self_s, calls = self.self_times()
        c = self.counts

        def s(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def phase_ms(p):
            return 1e3 * self.phase_s[p] / self.phase_runs[p] if self.phase_runs[p] else 0.0

        out = {
            "autodiff.forward_s": (s("autodiff.forward"), "s"),
            "autodiff.backward_s": (s("autodiff.backward"), "s"),
            "autodiff.forward_calls": (calls.get("autodiff.forward", 0), "count"),
            "autodiff.backward_calls": (calls.get("autodiff.backward", 0), "count"),
            "autodiff.forward_nodes": (c["forward_nodes"], "count"),
            "autodiff.backward_nodes": (c["backward_nodes"], "count"),
            "autodiff.conv_nodes_per_step": (
                c["train_conv_nodes"] / c["steps"] if c["steps"] else 0.0, "count"),
            "trainer.phase_D_ms": (phase_ms("D"), "ms"),
            "trainer.phase_E_ms": (phase_ms("E"), "ms"),
            "trainer.phase_G_ms": (phase_ms("G"), "ms"),
            "trainer.adam_s": (s("trainer.AdamOptimizer.step"), "s"),
            "trainer.adam_calls": (calls.get("trainer.AdamOptimizer.step", 0), "count"),
            "trainer.self_s": (s("trainer.train_vaegan", "trainer.train_gan"), "s"),
            "trainer.steps": (c["steps"], "count"),
            "nets.build_graph_s": (s("nets.build_vaegan_graph", "nets.build_gan_graph"), "s"),
            "nets.generate_s": (s("nets.generate"), "s"),
            "nets.save_checkpoint_s": (s("nets.save_checkpoint"), "s"),
            "nets.load_checkpoint_s": (s("nets.load_checkpoint"), "s"),
            "synth.sample_s": (s("synth.sample"), "s"),
            "synth.export_s": (s("synth.export"), "s"),
            "synth.load_exported_s": (s("synth.load_exported"), "s"),
            "datapipe.load_csv_s": (s("datapipe.load_csv"), "s"),
            "datapipe.rows_parsed": (c["rows_parsed"], "count"),
            "datapipe.resample_s": (s("datapipe.resample"), "s"),
            "datapipe.clean_days_s": (s("datapipe.clean_days"), "s"),
            "datapipe.kept_day_ratio": (
                c["kept_days"] / c["calendar_days"] if c["calendar_days"] else 0.0,
                "fraction"),
            "datapipe.normalize_s": (s("datapipe.normalize"), "s"),
            "datapipe.save_day_matrix_s": (s("datapipe.save_day_matrix"), "s"),
            "datapipe.load_day_matrix_s": (s("datapipe.load_day_matrix"), "s"),
            "metrics.kl_divergence_s": (s("metrics.kl_divergence"), "s"),
            "metrics.wasserstein1_s": (s("metrics.wasserstein1"), "s"),
            "metrics.median_heuristic_sigma_s": (s("metrics.median_heuristic_sigma"), "s"),
            "metrics.mmd_rbf_s": (s("metrics.mmd_rbf"), "s"),
            "metrics.aggregate_stats_s": (s("metrics.aggregate_stats"), "s"),
            "metrics.dump_histograms_s": (s("metrics.dump_histograms"), "s"),
            "cli.self_s": (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s"),
        }
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class PeakProbe(_Patches):
    """tracemalloc peak of each call to the PEAKED functions, in MB."""

    def __init__(self):
        super().__init__()
        self.peak_mb: dict[str, float] = {}

    def install(self):
        for owner, attr in PEAKED:
            self.patch(owner, attr, self._wrap)
        return self

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

        return wrapper

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "nets.generate_peak_mb": (self.peak_mb.get("nets.generate", 0.0), "MB"),
            "metrics.median_heuristic_sigma_peak_mb": (
                self.peak_mb.get("metrics.median_heuristic_sigma", 0.0), "MB"),
            "metrics.mmd_rbf_peak_mb": (self.peak_mb.get("metrics.mmd_rbf", 0.0), "MB"),
        }
