"""Spans around netdecide's public functions, recorded from outside the package.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent). The wrappers are installed
in the namespace of the module that *calls* the function, because the
loops bind their collaborators with ``from .x import y``: wrapping
``netdecide.labeling.view_from_closeness`` would miss the calls the
switch stage makes through ``netdecide.decision.view_from_closeness``.

Spans stay in compact arrays in memory and are written out once, by
:meth:`Tracer.dump`, after the run.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

# (calling module, attribute, span name). The trial-level spans split a
# trial into world build, export and round loop; every run records them,
# which costs three clock pairs per trial.
TRIAL_SPANS = [
    ("harness", "run_single_trial", "harness.trial"),
    ("harness", "network_to_json", "network.export"),
    ("harness", "run_decision", "loop"),
    ("harness", "run_follow", "loop"),
]

# Per-layer spans, recorded only by the traced run. Names are the module
# whose public function is timed, then the layer.
LAYER_SPANS = [
    ("harness", "summarize", "harness.summarize"),
    ("harness", "generate_topology", "network.topology"),
    ("harness", "rebuild_topology", "network.topology"),
    ("harness", "build_streams", "network.streams"),
    ("records", "save_record", "records.save"),
    ("mobility", "step_motion", "mobility.motion"),
    ("mobility", "rebuild_topology", "mobility.rebuild"),
    ("decision", "view_from_closeness", "labeling.view"),
    ("decision", "apply_switching", "decision.switch"),
    ("decision", "update_desired_matrices", "decision.desired"),
    ("follow", "spread_anchor", "follow.relay"),
    ("follow", "follow_matrices", "follow.matrices"),
]
for _loop in ("decision", "follow"):
    LAYER_SPANS += [
        (_loop, "component_count", "network.component_count"),
        (_loop, "pairwise_close", "network.pairwise_close"),
        (_loop, "adapt", "diffusion.adapt"),
        (_loop, "check_divergence", "diffusion.adapt"),
        (_loop, "update_cluster_matrices", "diffusion.cluster"),
        (_loop, "believed_neighborhoods", "diffusion.combine"),
        (_loop, "combination_weights", "diffusion.combine"),
        (_loop, "aggregate", "diffusion.combine"),
        (_loop, "agreement_vector", "labeling.agreement"),
        (_loop, "update_estimate", "decision.desired"),
        (_loop, "observed_msd", "metrics.msd"),
        (_loop, "evaluate_success", "metrics.msd"),
    ]


class Tracer:
    """In-memory span store; one instance per execution of a batch."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stream_bytes = 0
        self._open = [-1]

    def wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        observe = self._count_stream_bytes if name == "network.streams" else None

        def span(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._open.pop()
            if observe is not None:
                observe(result)
            return result

        return span

    def _count_stream_bytes(self, streams):
        self.stream_bytes += streams.data.u.nbytes + streams.data.v.nbytes

    def spans(self):
        """Yield ``(index, name, parent, start, end)`` in call order."""
        for i in range(len(self.name)):
            yield i, self.names[self.name[i]], self.parent[i], self.start[i], self.end[i]

    def totals(self):
        """Per span name: ``(calls, inclusive seconds, self seconds)``.

        Self time is a span's duration minus the durations of its direct
        children; calls nest, so children never overlap.
        """
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            acc = out[self.names[self.name[i]]]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - covered[i]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end\n")
            for i, name, parent, start, end in self.spans():
                fh.write(f"{i},{name},{parent},{start!r},{end!r}\n")


@contextmanager
def installed(tracer, spans):
    """Install ``tracer`` wrappers for ``spans``; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, span_name in spans:
            module = importlib.import_module(f"netdecide.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
