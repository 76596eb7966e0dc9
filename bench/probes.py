"""Where the traced run puts its wrappers, and how spans and counters
become the per-layer metrics.

Each wrapper is installed at the attribute its callers look the function up
in: ``tbje.model`` and ``tbje.training`` import ``multi_head_attention``,
``forward_logits``, ``read_model`` and ``make_rng`` by name, ``tbje.cli``
imports the feature and data functions by name, and tensor primitives are
reached as ``T.matmul`` and so can be patched on ``tbje.tensor``. Times are
seconds per workload operation, counts are per operation, and sizes are the
median of the values seen.
"""

from __future__ import annotations

import os
from pathlib import Path

import tbje.cli
import tbje.features
import tbje.layers
import tbje.model
import tbje.rng
import tbje.tensor
import tbje.training

import inputs
import spans


# Spans reported as inclusive seconds per operation, as <span>_s.
TIMED_SPANS = (
    "tensor.backward", "tensor.matmul", "tensor.layer_norm", "tensor.dropout",
    "tensor.softmax", "layers.mha", "layers.mlp", "model.forward_train",
    "model.forward_eval", "model.glimpse", "model.init_model",
    "model.read_model", "model.model_bytes", "training.step",
    "training.adam_step", "training.evaluate_accuracy",
    "training.save_train_state", "training.load_train_state",
    "training.ensemble_predict", "features.take", "rng.make_rng",
    "features.mel_spectrogram", "features.load_waveform",
    "features.build_vocabulary", "data.write_bundle", "data.read_bundle",
    "metrics.evaluation_report",
)
# Spans that contain other traced spans; their self time is also reported,
# as <span>_self_s (sublayer-level attention contains matmul and softmax,
# read_model contains the init_model it discards, and so on).
NESTING_SPANS = (
    "layers.mha", "layers.mlp", "model.forward_train", "model.forward_eval",
    "model.glimpse", "model.read_model", "training.step",
    "training.evaluate_accuracy", "training.load_train_state",
    "training.ensemble_predict",
)
# Counters reported per operation.
COUNTERS = (
    "tensor.matmul_calls", "rng.make_rng_calls",
    "features.mel_frames_computed", "features.tokens_seen",
    "features.embedding_lines_parsed",
)
# Values reported as the median of those seen.
SAMPLED = {
    "tensor.tape_records": "count", "model.checkpoint_bytes": "B",
    "model.param_tensors": "count", "training.state_bytes": "B",
    "data.bundle_bytes": "B",
}
# Useful-work ratios: (metric, useful counter, base counter).
RATIOS = (
    ("features.mel_frames_kept_ratio", "features.mel_frames_kept",
     "features.mel_frames_computed"),
    ("features.tokens_kept_ratio", "features.tokens_kept",
     "features.tokens_seen"),
    ("features.embedding_lines_kept_ratio", "features.embedding_rows_kept",
     "features.embedding_lines_parsed"),
)


def _dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def trace_patches(tracer: spans.Tracer, workload) -> list:
    """Wrappers for every traced layer, each at the attribute its callers
    look it up in."""
    T, M, TR, F, C = (tbje.tensor, tbje.model, tbje.training, tbje.features,
                      tbje.cli)
    wrap = tracer.wrap
    lengths = inputs.MODALITY_SHAPES
    embedding_lines = (workload.corpus or {}).get("embedding_lines", 0)

    def calls(counter):
        return lambda args, kwargs: tracer.count(counter)

    def mel_frames(result, args, kwargs):
        tracer.count("features.mel_frames_computed", result.shape[0])
        tracer.count("features.mel_frames_kept",
                     min(result.shape[0], lengths["A"][0]))

    def tokens(result, args, kwargs):
        tracer.count("features.tokens_seen", len(result))
        tracer.count("features.tokens_kept", min(len(result), lengths["L"][0]))

    def embedding_rows(result, args, kwargs):
        tracer.count("features.embedding_lines_parsed", embedding_lines)
        tracer.count("features.embedding_rows_kept", len(result))

    def forward_name(args, kwargs):
        return ("model.forward_train" if kwargs.get("training")
                else "model.forward_eval")

    make_rng = wrap(tbje.rng.make_rng, "rng.make_rng",
                    on_call=calls("rng.make_rng_calls"))
    read_model = {owner: wrap(owner.read_model, "model.read_model")
                  for owner in (M, TR)}
    return [
        (T.Tape, "backward", wrap(
            T.Tape.backward, "tensor.backward",
            on_call=lambda a, k: tracer.sample("tensor.tape_records",
                                               len(a[0])))),
        (T, "matmul", wrap(T.matmul, "tensor.matmul",
                           on_call=calls("tensor.matmul_calls"))),
        (T, "layer_norm", wrap(T.layer_norm, "tensor.layer_norm")),
        (T, "dropout", wrap(T.dropout, "tensor.dropout")),
        (T, "softmax", wrap(T.softmax, "tensor.softmax")),
        (M, "multi_head_attention", wrap(M.multi_head_attention,
                                         "layers.mha")),
        (tbje.layers.MlpParams, "apply", wrap(tbje.layers.MlpParams.apply,
                                              "layers.mlp")),
        (TR, "forward_logits", wrap(TR.forward_logits, forward_name)),
        (M, "glimpse", wrap(M.glimpse, "model.glimpse")),
        (M, "init_model", wrap(
            M.init_model, "model.init_model",
            on_result=lambda r, a, k: tracer.sample(
                "model.param_tensors", len(list(r.named_parameters()))))),
        (M, "read_model", read_model[M]),
        (TR, "read_model", read_model[TR]),
        (C, "load_model", wrap(
            C.load_model, "model.load_model",
            on_call=lambda a, k: tracer.sample("model.checkpoint_bytes",
                                               os.path.getsize(a[0])))),
        (TR, "model_bytes", wrap(
            TR.model_bytes, "model.model_bytes",
            on_result=lambda r, a, k: tracer.sample("model.checkpoint_bytes",
                                                    len(r)))),
        (TR, "adam_step", wrap(TR.adam_step, "training.adam_step")),
        (TR, "evaluate_accuracy", wrap(TR.evaluate_accuracy,
                                       "training.evaluate_accuracy")),
        (TR, "save_train_state", wrap(
            TR.save_train_state, "training.save_train_state",
            on_result=lambda r, a, k: tracer.sample("training.state_bytes",
                                                    os.path.getsize(a[0])))),
        (TR, "load_train_state", wrap(TR.load_train_state,
                                      "training.load_train_state")),
        (C, "ensemble_predict", wrap(C.ensemble_predict,
                                     "training.ensemble_predict")),
        (F.ModalityBatch, "take", wrap(F.ModalityBatch.take,
                                       "features.take")),
        (tbje.rng, "make_rng", make_rng),
        (M, "make_rng", make_rng),
        (TR, "make_rng", make_rng),
        (C, "make_rng", make_rng),
        (C, "mel_spectrogram", wrap(C.mel_spectrogram,
                                    "features.mel_spectrogram",
                                    on_result=mel_frames)),
        (C, "load_waveform", wrap(C.load_waveform, "features.load_waveform")),
        (C, "build_vocabulary", wrap(C.build_vocabulary,
                                     "features.build_vocabulary")),
        (C, "tokenize", wrap(C.tokenize, "features.tokenize",
                             on_result=tokens)),
        (F, "read_embedding_file", wrap(F.read_embedding_file,
                                        "features.read_embedding_file",
                                        on_result=embedding_rows)),
        (C, "write_bundle", wrap(
            C.write_bundle, "data.write_bundle",
            on_result=lambda r, a, k: tracer.sample("data.bundle_bytes",
                                                    _dir_bytes(a[0])))),
        (C, "read_bundle", wrap(C.read_bundle, "data.read_bundle")),
        (C, "evaluation_report", wrap(C.evaluation_report,
                                      "metrics.evaluation_report")),
    ]


def add_step_spans(tracer: spans.Tracer) -> None:
    """fit() has no step function to wrap, so a training step is taken as
    the interval from a training forward pass to the end of the Adam update
    that follows it; the spans inside it become its children."""
    recorded = list(tracer.spans)
    start_index = None
    for i, (label, start, end, parent) in enumerate(recorded):
        if label == "model.forward_train" and parent == -1:
            start_index = i
        elif label == "training.adam_step" and start_index is not None:
            step = len(tracer.spans)
            tracer.spans.append(("training.step", recorded[start_index][1],
                                 end, -1))
            for j in range(start_index, i + 1):
                if recorded[j][3] == -1:
                    name, s, e, _ = recorded[j]
                    tracer.spans[j] = (name, s, e, step)
            start_index = None


def per_layer(tracer: spans.Tracer, ops: int, op_s: float,
              untraced_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}. ``op_s`` is the median
    traced operation time and ``untraced_s`` the time of the untraced
    operation the run makes first; the tracing overhead is their
    difference over the untraced time."""
    add_step_spans(tracer)
    inclusive, own = tracer.totals()
    out = {}
    for span in TIMED_SPANS:
        out[span + "_s"] = (inclusive.get(span, 0.0) / ops, "s")
    for span in NESTING_SPANS:
        out[span + "_self_s"] = (own.get(span, 0.0) / ops, "s")
    for name in COUNTERS:
        out[name] = (tracer.counts.get(name, 0) / ops, "count")
    for name, unit in SAMPLED.items():
        out[name] = (tracer.median_sample(name), unit)
    for name, useful, base in RATIOS:
        b = tracer.counts.get(base, 0)
        out[name] = (tracer.counts.get(useful, 0) / b if b else 0.0, "ratio")
    out["trace.overhead_ratio"] = ((op_s - untraced_s) / untraced_s, "ratio")
    return out
