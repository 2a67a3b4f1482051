"""Span tracing of svt from outside: wraps public functions, records spans.

``Tracer.install`` replaces public functions of the svt modules with timing
wrappers, at the module attribute each caller looks the name up in (names
bound by ``from ... import`` are patched in the importing module too), and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Every wrapped call becomes a span: id, name, start, end, parent span and the
id of the benchmark op (train step, sampled video, ...) that was current
when it started.  Spans stay in memory until ``write_spans``.  A tensor op
that returns a graph node also gets its ``_backward`` closure wrapped, so
backward time is attributed to the op family that created the node.
"""

import json
import time

import numpy as np

from svt import cli, connectivity, data, metrics, model, optim, sampler, subscale
from svt import attention, tensor

TENSOR_OPS = ("conv3d", "masked_conv3d", "gather", "matmul", "softmax", "layernorm")

# Per-layer metrics, in the order BENCHMARK.json lists them.  Each entry:
# metric name -> (unit, workloads on which the layer runs, so a zero call
# count there means a wrapper was bypassed; end-to-end metric it should
# move).  Every "_ms" metric also has a "_calls" twin (".self_ms" -> ".calls").
DESK = ("desk-train", "desk-sample")
ALL = ("desk-train", "desk-sample", "canonical")
LAYERS = {
    "tensor.conv3d.fwd_ms": ("ms", ALL, "train_slices_per_s on desk-train"),
    "tensor.conv3d.bwd_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "tensor.masked_conv3d.fwd_ms": ("ms", ALL, "train_slices_per_s, sample_ms_per_pixel"),
    "tensor.masked_conv3d.bwd_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "tensor.gather.fwd_ms": ("ms", ALL, "sample_ms_per_pixel on desk-sample"),
    "tensor.gather.bwd_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "tensor.matmul.fwd_ms": ("ms", ALL, "canonical_fwd_s_per_slice on canonical"),
    "tensor.matmul.bwd_ms": ("ms", ("desk-train",), "canonical_fwd_s_per_slice, train_slices_per_s"),
    "tensor.softmax.fwd_ms": ("ms", ALL, "sample_ms_per_pixel on desk-sample"),
    "tensor.softmax.bwd_ms": ("ms", ("desk-train",), "sample_ms_per_pixel, train_slices_per_s"),
    "tensor.layernorm.fwd_ms": ("ms", ALL, "sample_ms_per_pixel on desk-sample"),
    "tensor.layernorm.bwd_ms": ("ms", ("desk-train",), "sample_ms_per_pixel, train_slices_per_s"),
    "tensor.backward.self_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    **{f"attention.{stack}_l{i}.fwd_ms": ("ms", ALL if i < 2 else ("canonical",),
                                          "all three workloads")
       for stack in ("enc", "dec") for i in range(8)},
    "attention.relative_bias_matrix_ms": ("ms", ALL, "sample_ms_per_pixel on desk-sample"),
    "attention.causal_mask_ms": ("ms", ALL, "sample_ms_per_pixel on desk-sample"),
    "attention.attention_layer.self_ms": ("ms", ALL, "sample_ms_per_pixel on desk-sample"),
    "model.encode_slices_ms": ("ms", ALL, "train/eval/canonical"),
    "model.decode_slices_ms": ("ms", ALL, "train/eval/canonical"),
    "model.head_logits_ms": ("ms", ("desk-train", "canonical"), "train/eval/canonical"),
    "model.nll_loss_ms": ("ms", ("desk-train", "canonical"), "train/eval/canonical"),
    "model.save_checkpoint_ms": ("ms", DESK, "train_slices_per_s on desk-train"),
    "model.load_checkpoint_ms": ("ms", ("desk-sample",), "setup_s"),
    "optim.step.fwd_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "optim.step.bwd_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "optim.step.opt_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "optim.step.other_ms": ("ms", ("desk-train",), "train_slices_per_s on desk-train"),
    "sampler.sample_slice.self_ms": ("ms", ("desk-sample",), "sample_ms_per_pixel on desk-sample"),
    "sampler.sample_categorical_ms": ("ms", ("desk-sample",), "sample_ms_per_pixel on desk-sample"),
    "metrics.evaluate_ms": ("ms", ("desk-train",), "eval_ms_per_video on desk-train"),
    "connectivity.dependency_graph_ms": ("ms", ("canonical",), "analyze_s on canonical"),
    "connectivity.blind_count_ms": ("ms", ("canonical",), "analyze_s on canonical"),
    "connectivity.find_blind_spots_ms": ("ms", ("canonical",), "analyze_s on canonical"),
    "connectivity.verify_encoder_connectivity_ms": ("ms", ("canonical",), "analyze_s on canonical"),
    "data.gen_sprites_ms": ("ms", ALL, "setup_s"),
    "data.write_container_ms": ("ms", ALL, "setup_s"),
    "data.read_container_ms": ("ms", ALL, "setup_s"),
    "cli.config_ms": ("ms", ALL, "setup_s"),
    "subscale.merge_slice_ms": ("ms", ("desk-sample",), "sample_ms_per_pixel on desk-sample"),
    "subscale.visibility_mask_ms": ("ms", ALL, "sample/train"),
}
COUNTS = {
    "tensor.matmul.gflop": ("count", ALL, "canonical_fwd_s_per_slice on canonical"),
    "tensor.matmul.gflops_s": ("GFLOP/s", ALL, "canonical_fwd_s_per_slice on canonical"),
    "sampler.decoder_calls_per_pixel": ("count", ("desk-sample",), "sample_ms_per_pixel"),
    "sampler.encoder_calls_per_slice": ("count", ("desk-sample",), "sample_ms_per_pixel"),
    "metrics.forward_calls_per_video": ("count", ("desk-train",), "eval_ms_per_video"),
    "connectivity.reach_mb": ("count", ("canonical",), "analyze_s on canonical"),
    "trace.overhead_pct": ("%", ALL, "traced minus plain wall time of the same work"),
}

# Op kinds whose ops must all make the same calls; the families compared.
REPEATING_KINDS = ("train_step", "eval_video", "sample_video", "analyze", "forward")
REPEATING_PREFIXES = ("tensor.", "attention.", "model.encode_slices", "model.decode_slices",
                      "model.head_logits", "model.nll_loss", "model.forward_slices",
                      "connectivity.", "sampler.")


def calls_name(ms_name):
    if ms_name.endswith(".self_ms"):
        return ms_name[:-len(".self_ms")] + ".calls"
    return ms_name[:-len("_ms")] + "_calls"


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for name, (unit, _, _) in LAYERS.items():
        out += [(name, unit), (calls_name(name), "count")]
    out += [(name, unit) for name, (unit, _, _) in COUNTS.items()]
    return out


class Tracer:
    """Wraps svt's public functions and keeps one span per call."""

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.spans = []          # (id, name, start_ns, end_ns, parent_id, op_id, self_ns)
        self.op_kinds = {}       # op id -> kind
        self.op_flop = {}        # op id -> matmul forward flop
        self.op_id = -1
        self.reach_bytes = 0
        self._open = []          # [span id, child ns] of the open spans
        self._next_id = 0
        self._layer_names = {}   # id(w_qkv Tensor) -> "enc_l0", ...
        self._saved = []

    # -- ops --------------------------------------------------------------

    def start_op(self, kind):
        self.op_id += 1
        self.op_kinds[self.op_id] = kind

    def relabel_op(self, kind):
        self.op_kinds[self.op_id] = kind

    # -- wrapping ---------------------------------------------------------

    def timed(self, fn, name):
        """``fn`` recording a span; ``name`` is a string or f(args) -> string."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = tracer._next_id
            tracer._next_id += 1
            op = tracer.op_id
            frame = [sid, 0]
            parent = tracer._open[-1] if tracer._open else None
            tracer._open.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._open.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((sid, label, start - tracer.t0, end - tracer.t0,
                                     -1 if parent is None else parent[0], op,
                                     end - start - frame[1]))

        return wrapper

    def _tensor_op(self, fn, op):
        fwd = self.timed(fn, f"tensor.{op}.fwd")
        bwd_name = f"tensor.{op}.bwd"
        tracer = self

        def wrapper(*args, **kwargs):
            if op == "matmul":
                tracer._count_flop(args[0].data.shape, args[1].data.shape)
            out = fwd(*args, **kwargs)
            if out._backward is not None:
                out._backward = tracer.timed(out._backward, bwd_name)
            return out

        return wrapper

    def _count_flop(self, a, b):
        flop = 2 * int(np.prod(np.broadcast_shapes(a[:-2], b[:-2]))) * a[-2] * a[-1] * b[-1]
        self.op_flop[self.op_id] = self.op_flop.get(self.op_id, 0) + flop

    def _layer_label(self, args):
        return f"attention.{self._layer_names.get(id(args[1]['w_qkv']), 'unnamed')}.fwd"

    def _registering(self, fn):
        """Wrap a ParamStore factory so attention layers can be named by
        matching the parameter dict they receive."""
        def wrapper(*args, **kwargs):
            store = fn(*args, **kwargs)
            for name, t in store.items():
                if name.endswith("/w_qkv"):
                    self._layer_names[id(t)] = name[:-len("/w_qkv")].replace("/", "_")
            return store
        return wrapper

    def _reach(self, fn):
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.reach_bytes = max(self.reach_bytes, report.reach.nbytes)
            return report
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        T = tensor
        for op in TENSOR_OPS:
            self._patch(T, op, self._tensor_op(getattr(T, op), op))
        self._patch(T, "backward", self.timed(T.backward, "tensor.backward"))
        for owner in (attention, model):   # model binds it by from-import
            self._patch(owner, "attention_layer",
                        self.timed(owner.attention_layer, self._layer_label))
        for attr in ("relative_bias_matrix", "causal_mask"):
            self._patch(attention, attr, self.timed(getattr(attention, attr), f"attention.{attr}"))
        for attr in ("encode_slices", "decode_slices", "head_logits", "nll_loss",
                     "forward_slices", "save_checkpoint", "load_checkpoint"):
            self._patch(model, attr, self.timed(getattr(model, attr), f"model.{attr}"))
        for attr in ("init_params", "params_from_checkpoint"):
            self._patch(model, attr, self._registering(getattr(model, attr)))
        for owner in (subscale, model):    # model binds it by from-import
            self._patch(owner, "visibility_mask",
                        self.timed(owner.visibility_mask, "subscale.visibility_mask"))
        for owner in (subscale, sampler):  # sampler binds it by from-import
            self._patch(owner, "merge_slice", self.timed(owner.merge_slice, "subscale.merge_slice"))
        for attr in ("train", "rmsprop_step"):
            self._patch(optim, attr, self.timed(getattr(optim, attr), f"optim.{attr}"))
        for attr in ("sample_video", "sample_slice", "sample_categorical"):
            self._patch(sampler, attr, self.timed(getattr(sampler, attr), f"sampler.{attr}"))
        self._patch(metrics, "evaluate", self.timed(metrics.evaluate, "metrics.evaluate"))
        self._patch(connectivity, "dependency_graph", self._reach(self.timed(
            connectivity.dependency_graph, "connectivity.dependency_graph")))
        for attr in ("find_blind_spots", "verify_encoder_connectivity", "report_text"):
            self._patch(connectivity, attr,
                        self.timed(getattr(connectivity, attr), f"connectivity.{attr}"))
        report = connectivity.DependencyReport
        self._patch(report, "blind_count",
                    self.timed(report.blind_count, "connectivity.blind_count"))
        for attr in ("gen_sprites", "write_container", "read_container"):
            self._patch(data, attr, self.timed(getattr(data, attr), f"data.{attr}"))
        for attr in ("load_config", "model_config_from"):
            self._patch(cli, attr, self.timed(getattr(cli, attr), "cli.config"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def aggregate(self, kinds=None):
        """name -> [calls, total_ns, self_ns] over spans of ops of ``kinds``."""
        out = {}
        for _, name, start, end, _, op, self_ns in self.spans:
            if kinds is not None and self.op_kinds.get(op) not in kinds:
                continue
            a = out.setdefault(name, [0, 0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += self_ns
        return out

    def repeat_errors(self):
        """Ops of one kind must make identical calls; list the kinds that do not."""
        per_op = {}
        for _, name, _, _, _, op, _ in self.spans:
            if name.startswith(REPEATING_PREFIXES):
                counts = per_op.setdefault(op, {})
                counts[name] = counts.get(name, 0) + 1
        errors = []
        for kind in REPEATING_KINDS:
            ops = [op for op, k in self.op_kinds.items() if k == kind]
            signatures = {(tuple(sorted(per_op.get(op, {}).items())), self.op_flop.get(op, 0))
                          for op in ops}
            if len(signatures) > 1:
                errors.append(f"{len(ops)} {kind} ops made {len(signatures)} different call sets")
        return errors

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write(json.dumps({"op_kinds": {str(k): v for k, v in self.op_kinds.items()}}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span[:6]) + "\n")


def layer_metrics(tracer, workload, units, overhead_pct):
    """Per-layer metric values, plus the names of layers expected on
    ``workload`` that recorded no calls (the coverage guard).

    ``units`` holds the benchmark's own counts: sampled pixels and slices,
    evaluated videos.
    """
    agg = tracer.aggregate()
    train = tracer.aggregate(("train_step", "train_ckpt"))

    def total(a, name, field=1):
        return a.get(name, [0, 0, 0])[field]

    # "x.self_ms" is the self time of span "x"; any other "x_ms" the total of span "x".
    values = {}   # ms metric -> (ns, calls)
    for name in LAYERS:
        if name.endswith(".self_ms"):
            span, field = name[:-len(".self_ms")], 2
        else:
            span, field = name[:-len("_ms")], 1
        values[name] = (total(agg, span, field), total(agg, span, 0))
    layer_spans = [n for n in agg if n.startswith("attention.") and n.endswith(".fwd")]
    values["attention.attention_layer.self_ms"] = (
        sum(total(agg, n, 2) for n in layer_spans), sum(total(agg, n, 0) for n in layer_spans))
    fwd = total(train, "model.forward_slices")
    bwd = total(train, "tensor.backward")
    opt = total(train, "optim.rmsprop_step")
    values["optim.step.fwd_ms"] = (fwd, total(train, "model.forward_slices", 0))
    values["optim.step.bwd_ms"] = (bwd, total(train, "tensor.backward", 0))
    values["optim.step.opt_ms"] = (opt, total(train, "optim.rmsprop_step", 0))
    values["optim.step.other_ms"] = (total(agg, "optim.train") - fwd - bwd - opt,
                                     units.get("train_steps", 0))

    out = {}
    missing = []
    for name, (_, runs_on, _) in LAYERS.items():
        ns, calls = values[name]
        out[name] = ns / 1e6
        out[calls_name(name)] = calls
        if workload in runs_on and calls == 0:
            missing.append(name)
    gflop = sum(tracer.op_flop.values()) / 1e9
    matmul_s = total(agg, "tensor.matmul.fwd") / 1e9
    sample = tracer.aggregate(("sample_video",))
    evaluate = tracer.aggregate(("eval_video",))
    out["tensor.matmul.gflop"] = gflop
    out["tensor.matmul.gflops_s"] = gflop / matmul_s if matmul_s else 0.0
    out["sampler.decoder_calls_per_pixel"] = _ratio(total(sample, "model.decode_slices", 0),
                                                    units.get("sampled_pixels", 0))
    out["sampler.encoder_calls_per_slice"] = _ratio(total(sample, "model.encode_slices", 0),
                                                    units.get("sampled_slices", 0))
    out["metrics.forward_calls_per_video"] = _ratio(total(evaluate, "model.forward_slices", 0),
                                                    units.get("eval_videos", 0))
    out["connectivity.reach_mb"] = tracer.reach_bytes / 1e6
    out["trace.overhead_pct"] = overhead_pct
    for name, (_, runs_on, _) in COUNTS.items():
        if workload in runs_on and out[name] == 0 and name != "trace.overhead_pct":
            missing.append(name)
    return out, missing


def _ratio(a, b):
    return a / b if b else 0.0
