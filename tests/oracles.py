"""Straight-line reference implementations used as independent oracles.

Deliberately dumb: explicit Python loops, no shared code with the package
beyond reading parameter values out of the dataclasses. If a test compares
against one of these, the implementation and the oracle can only agree by
computing the same math.
"""

import dataclasses

import numpy as np


def drawn(params, rng):
    """``params`` with every 2-D array of the container, nested ones too,
    overwritten by a uniform draw from ``rng`` limited as Xavier by its
    shape; biases and layer-norm parameters keep their init values."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            drawn(value, rng)
        elif getattr(value, "data", None) is not None and value.data.ndim == 2:
            limit = np.sqrt(6.0 / sum(value.data.shape))
            value.data[...] = rng.uniform(-limit, limit, value.data.shape)
    return params


def softmax_row(row):
    row = np.asarray(row, dtype=np.float64)
    e = np.exp(row - row.max())
    return e / e.sum()


def layer_norm_row(row, gain, bias, eps=1e-5):
    row = np.asarray(row, dtype=np.float64)
    mu = row.mean()
    var = row.var()
    return gain * (row - mu) / np.sqrt(max(var, eps)) + bias


def attention_ref(q, k, c, keep=None):
    q, k, c = (np.asarray(a, dtype=np.float64) for a in (q, k, c))
    out = np.zeros((q.shape[0], c.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] for j in range(k.shape[0])])
        scores = scores / np.sqrt(q.shape[1])
        if keep is not None:
            scores = np.where(np.asarray(keep, dtype=bool), scores, -np.inf)
        weights = softmax_row(scores)
        acc = np.zeros(c.shape[1])
        for j in range(c.shape[0]):
            acc += weights[j] * c[j]
        out[i] = acc
    return out


def affine_ref(params, x):
    return np.asarray(x, dtype=np.float64) @ params.weight.data + params.bias.data


def head_affine_ref(params, x, cols):
    """The columns ``cols`` of an affine map: one head's projection. A
    bias-free map adds nothing."""
    out = np.asarray(x, dtype=np.float64) @ params.weight.data[:, cols]
    if params.bias is not None:
        out = out + params.bias.data[cols]
    return out


def mha_ref(params, q, k, c, keep=None):
    sub = params.query.weight.data.shape[1] // params.heads
    head_outs = []
    for i in range(params.heads):
        cols = slice(i * sub, (i + 1) * sub)
        head_outs.append(attention_ref(head_affine_ref(params.query, q, cols),
                                       head_affine_ref(params.key, k, cols),
                                       head_affine_ref(params.content, c, cols),
                                       keep))
    return affine_ref(params.out, np.concatenate(head_outs, axis=-1))


def mlp_ref(params, x):
    hidden = affine_ref(params.hidden, x)
    return affine_ref(params.out, np.maximum(hidden, 0.0))


def sublayer_ref(x, fx, params):
    x = np.asarray(x, dtype=np.float64)
    summed = x + np.asarray(fx, dtype=np.float64)
    out = np.zeros_like(summed)
    for i in range(summed.shape[0]):
        out[i] = layer_norm_row(summed[i], params.gain.data, params.bias.data)
    return out


def glimpse_ref(m, embed_weight, score_vectors, keep=None):
    """Score each row of m through the shared 2k embedding, softmax the
    per-glimpse scores over rows, and return the stacked weighted sums."""
    m = np.asarray(m, dtype=np.float64)
    embedded = m @ np.asarray(embed_weight, dtype=np.float64)
    out = np.zeros((len(score_vectors), m.shape[1]))
    for g, v in enumerate(score_vectors):
        scores = np.array([np.asarray(v) @ embedded[j] for j in range(m.shape[0])])
        if keep is not None:
            scores = np.where(np.asarray(keep, dtype=bool), scores, -np.inf)
        weights = softmax_row(scores)
        acc = np.zeros(m.shape[1])
        for j in range(m.shape[0]):
            acc += weights[j] * m[j]
        out[g] = acc
    return out


def recover_attention_weights(output, content):
    """Solve W from output = W @ content for square invertible content; lets a
    test confirm convex-combination structure without peeking at internals."""
    return np.asarray(output) @ np.linalg.inv(np.asarray(content, dtype=np.float64))


def positional_ref(n, k):
    out = np.zeros((n, k))
    for p in range(n):
        for j in range(k):
            angle = p / 10000.0 ** ((j - j % 2) / k)
            out[p, j] = np.sin(angle) if j % 2 == 0 else np.cos(angle)
    return out


def _project_ref(model, tag, x):
    h = affine_ref(model.input_proj[tag], x)
    if model.config.uses_positional(tag):
        h = h + positional_ref(x.shape[0], model.config.width)
    return h


def _block_ref(block, state, key, key_keep, own_keep):
    """One encoder block in eval mode: attention, MLP, optional glimpse, each
    wrapped in residual + layer norm."""
    state = sublayer_ref(state, mha_ref(block.mha, state, key, key, key_keep),
                         block.mha_norm)
    state = sublayer_ref(state, mlp_ref(block.mlp, state), block.mlp_norm)
    if block.glimpse is not None:
        pooled = glimpse_ref(state, block.glimpse.embed.data,
                             block.glimpse.scores.data, own_keep)
        state = sublayer_ref(state, pooled, block.glimpse.norm)
    return state


def monomodal_forward_ref(model, tag, x, keep):
    """Eval-mode monomodal encoder for one example (no glimpse in blocks)."""
    state = _project_ref(model, tag, x)
    for block in model.blocks[tag]:
        state = sublayer_ref(state,
                             mha_ref(block.mha, state, state, state, keep),
                             block.mha_norm)
        state = sublayer_ref(state, mlp_ref(block.mlp, state), block.mlp_norm)
    return state


def joint_encode_ref(model, feats, keeps):
    """Eval-mode joint encoder for one example: per block the primary runs
    first, then every other modality cross-attends to that block output."""
    cfg = model.config
    states = {m: _project_ref(model, m, feats[m]) for m in cfg.modalities}
    for b in range(cfg.blocks):
        p = cfg.primary
        states[p] = _block_ref(model.blocks[p][b], states[p], states[p],
                               keeps[p], keeps[p])
        for m in cfg.modalities:
            if m != p:
                states[m] = _block_ref(model.blocks[m][b], states[m],
                                       states[p], keeps[p], keeps[m])
    return states


def classify_ref(model, states, keeps):
    cfg = model.config
    pooled = np.zeros(cfg.width)
    for m in cfg.modalities:
        fin = model.final_glimpse[m]
        pooled = pooled + glimpse_ref(states[m], fin.embed.data,
                                      fin.scores.data, keeps[m])[0]
    normed = layer_norm_row(pooled, model.head_norm.gain.data,
                            model.head_norm.bias.data)
    return normed @ model.head.weight.data + model.head.bias.data


def joint_logits_ref(model, feats, keeps):
    return classify_ref(model, joint_encode_ref(model, feats, keeps), keeps)


# ---------------------------------------------------------------------------
# metric oracles: integer counting by explicit loop, then the textbook
# formulas; sharing the final float expressions with the implementation is
# what makes exact equality a meaningful assertion
# ---------------------------------------------------------------------------

def confusion_oracle(pred, gold, positive):
    tp = fp = fn = tn = 0
    for p, g in zip(list(pred), list(gold)):
        if p == positive and g == positive:
            tp += 1
        elif p == positive:
            fp += 1
        elif g == positive:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def f1_from_counts(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def accuracy_oracle(pred, gold):
    hits = 0
    for p, g in zip(list(pred), list(gold)):
        if p == g:
            hits += 1
    return hits / len(list(pred))


def multilabel_accuracy_oracle(pred, gold):
    per_class = [accuracy_oracle(pred[:, c], gold[:, c])
                 for c in range(pred.shape[1])]
    total = 0.0
    for v in per_class:
        total += v
    return total / len(per_class)


def f1_unweighted_oracle(pred, gold, positive=1):
    tp, fp, fn, _ = confusion_oracle(pred, gold, positive)
    return f1_from_counts(tp, fp, fn)


def f1_weighted_oracle(pred, gold):
    tp, fp, fn, _ = confusion_oracle(pred, gold, 1)
    tp0, fp0, fn0, _ = confusion_oracle(pred, gold, 0)
    support_pos = tp + fn
    support_neg = tp0 + fn0
    if support_neg == 0:
        return f1_from_counts(tp, fp, fn)
    if support_pos == 0:
        return f1_from_counts(tp0, fp0, fn0)
    return (support_pos * f1_from_counts(tp, fp, fn)
            + support_neg * f1_from_counts(tp0, fp0, fn0)) \
        / (support_pos + support_neg)


def naive_dft_magnitudes(wave, cfg):
    """O(n^2) windowed DFT, one explicit correlation per bin."""
    n = wave.size
    window = np.array([0.5 * (1 - np.cos(2 * np.pi * i / cfg.window))
                       for i in range(cfg.window)])
    frames = 1 + (n - cfg.window) // cfg.hop
    n_bins = cfg.n_fft // 2 + 1
    out = np.zeros((frames, n_bins))
    for f in range(frames):
        chunk = np.zeros(cfg.n_fft)
        chunk[:cfg.window] = wave[f * cfg.hop:f * cfg.hop + cfg.window] * window
        for k in range(n_bins):
            angles = -2j * np.pi * k * np.arange(cfg.n_fft) / cfg.n_fft
            out[f, k] = np.abs(np.sum(chunk * np.exp(angles)))
    return out


def triangle_bank_ref(cfg):
    """Mel filter bank built band by band, bin by bin, from first principles."""
    n_bins = cfg.n_fft // 2 + 1
    top = 2595.0 * np.log10(1.0 + (cfg.sample_rate / 2) / 700.0)
    edges = [700.0 * (10.0 ** (top * i / (cfg.bands + 1) / 2595.0) - 1.0)
             for i in range(cfg.bands + 2)]
    bank = np.zeros((cfg.bands, n_bins))
    for b in range(cfg.bands):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        for j in range(n_bins):
            f = j * cfg.sample_rate / cfg.n_fft
            rising = (f - lo) / (center - lo)
            falling = (hi - f) / (hi - center)
            bank[b, j] = max(0.0, min(rising, falling))
    return bank
