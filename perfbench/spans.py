"""In-memory spans recorded by wrappers around sfattack's public functions.

Nothing under ``src/`` is changed: each wrapper replaces a function at the
place its caller looks it up (a module global, a name imported into another
module, or a class attribute) and puts the original back when the traced
block ends.  A span is ``[name, start, end, parent, run_id, attrs]``; the
parent is the index of the enclosing span (-1 at the top), and ``run_id``
tags every span of one benchmark job.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import statistics
import time

from sfattack import autodiff, cli, estimators, harness, synth


def _tape_attrs(args):
    graph = args[0].graph
    # node values as stored on the tape; views are counted at full size
    return {"nodes": len(graph),
            "bytes": sum(node.value.nbytes for node in graph._nodes)}


def _flow_attrs(args):
    _, pos1, col1, pair = args
    h = hashlib.blake2b(pair.id.encode(), digest_size=16)
    h.update(pos1.data.tobytes())
    if col1 is not None:
        h.update(col1.data.tobytes())
    return {"key": h.hexdigest()}


def _bytes_attrs(args):
    return {"bytes": len(args[0])}


# (owner, attribute, span name, attrs(args) or None).  Owners are the
# modules and classes where the callers resolve each name at call time.
CELL_SITE = (harness, "_run_cell", "harness.cell", None)
ALL_SITES = (
    CELL_SITE,
    (autodiff, "backward", "autodiff.backward", _tape_attrs),
    (estimators, "sinkhorn", "estimators.sinkhorn", None),
    (estimators, "median_scale", "estimators.median_scale", None),
    (estimators, "knn_indices", "estimators.knn_indices", None),
    (estimators, "tiny_flow", "estimators.tiny_flow", None),
    (estimators.OTEstimator, "flow_tensor", "estimators.flow_tensor", _flow_attrs),
    (estimators.TinyNetEstimator, "flow_tensor", "estimators.flow_tensor", _flow_attrs),
    (harness, "fgsm_sf", "attacks.fgsm", None),
    (harness, "pgd_sf", "attacks.pgd", None),
    (harness, "random_attack", "attacks.random", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (cli, "train_tiny", "estimators.train_tiny", None),
    (cli, "load_dataset", "synth.load_dataset", None),
    (synth, "make_dataset", "synth.make_dataset", None),
    (synth, "write_dataset", "synth.write_dataset", None),
    (synth, "load_dataset", "synth.load_dataset", None),
    (synth, "load_sfp", "scene.load_sfp", _bytes_attrs),
)
ATTACK_KINDS = ("fgsm", "pgd", "random")


class Tracer:
    """Collects spans; ``installed(sites)`` wraps the sites for one block."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []

    def _enter(self, name, attrs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.run_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, attrs(args) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return wrapper

    @contextlib.contextmanager
    def installed(self, sites):
        saved = []
        try:
            for owner, attr, name, attrs in sites:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, attrs))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around ``cli_main``."""
        span = self._enter(name, None)
        try:
            yield
        finally:
            self._exit(span)

    def durations(self, name, run_ids):
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] in run_ids]


def _self_times(spans):
    """Span duration minus the time its child spans cover.

    Children of one span run one after another (``--jobs 1``), so the time
    they cover is the sum of their durations.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _attack_of(spans, i):
    while i >= 0:
        name = spans[i][0]
        if name.startswith("attacks."):
            return name.split(".", 1)[1]
        i = spans[i][3]
    return None


def job_layers(tracer: Tracer, run_id) -> dict:
    """Per-layer numbers of one traced job (one ``run_id``)."""
    spans = tracer.spans
    idx = [i for i, s in enumerate(spans) if s[4] == run_id]
    own = _self_times(spans)
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    count: dict[str, int] = {}
    for i in idx:
        name = spans[i][0]
        total[name] = total.get(name, 0.0) + spans[i][2] - spans[i][1]
        self_t[name] = self_t.get(name, 0.0) + own[i]
        count[name] = count.get(name, 0) + 1

    tapes = [spans[i][5] for i in idx if spans[i][0] == "autodiff.backward"]
    flows = [spans[i][5]["key"] for i in idx if spans[i][0] == "estimators.flow_tensor"]
    cells = count.get("harness.cell", 0)
    backward_by_attack = {k: 0 for k in ATTACK_KINDS}
    for i in idx:
        if spans[i][0] == "autodiff.backward":
            kind = _attack_of(spans, spans[i][3])
            if kind is not None:
                backward_by_attack[kind] += 1

    out = {
        "autodiff.backward_s": self_t.get("autodiff.backward", 0.0),
        "autodiff.backward_calls": len(tapes),
        "autodiff.tape_nodes_max": max((t["nodes"] for t in tapes), default=0),
        "autodiff.tape_nodes_sum": sum(t["nodes"] for t in tapes),
        "autodiff.tape_mb": max((t["bytes"] for t in tapes), default=0) / 2**20,
        "estimators.flow_calls": len(flows),
        "estimators.flow_calls_per_cell": len(flows) / cells if cells else 0.0,
        "estimators.repeat_flow_share":
            (len(flows) - len(set(flows))) / len(flows) if flows else 0.0,
        "estimators.flow_s": self_t.get("estimators.flow_tensor", 0.0),
        "estimators.sinkhorn_s": self_t.get("estimators.sinkhorn", 0.0),
        "estimators.median_scale_s": self_t.get("estimators.median_scale", 0.0),
        "estimators.knn_s": self_t.get("estimators.knn_indices", 0.0),
        "estimators.tiny_flow_s": self_t.get("estimators.tiny_flow", 0.0),
        "estimators.train_tiny_s": self_t.get("estimators.train_tiny", 0.0),
    }
    for kind in ATTACK_KINDS:
        name = f"attacks.{kind}"
        n = count.get(name, 0)
        out[f"{name}_s"] = total.get(name, 0.0)
        out[f"{name}_self_s"] = self_t.get(name, 0.0)
        out[f"{name}_backward_per_cell"] = backward_by_attack[kind] / n if n else 0.0
    out["harness.run_experiment_s"] = self_t.get("harness.run_experiment", 0.0)
    out["harness.cells"] = cells
    out["cli.cli_main_s"] = self_t.get("cli.cli_main", 0.0)
    return out


def setup_layers(tracer: Tracer, run_id) -> dict:
    """Set-up path numbers of one traced set-up (one ``run_id``)."""
    spans = tracer.spans
    own = _self_times(spans)
    out = {"synth.make_dataset_s": 0.0, "synth.write_dataset_s": 0.0,
           "synth.load_dataset_s": 0.0, "scene.load_sfp_s": 0.0,
           "scene.bytes_read": 0}
    for i, s in enumerate(spans):
        if s[4] != run_id:
            continue
        key = s[0] + "_s"
        if key in out:
            out[key] += own[i]
        if s[0] == "scene.load_sfp":
            out["scene.bytes_read"] += s[5]["bytes"]
    return out


def median_of(rows: list[dict]) -> dict:
    """Per-key median; a value every row shares (an exact count) is kept as is."""
    out = {}
    for k in rows[0]:
        vals = [r[k] for r in rows]
        out[k] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    return out


# counts that must repeat exactly from one job to the next
EXACT_COUNTS = ("autodiff.tape_nodes_max", "autodiff.tape_nodes_sum",
                "autodiff.backward_calls", "estimators.flow_calls",
                "estimators.repeat_flow_share", "attacks.fgsm_backward_per_cell",
                "attacks.pgd_backward_per_cell", "attacks.random_backward_per_cell")
