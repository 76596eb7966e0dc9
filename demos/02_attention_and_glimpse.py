"""Scaled dot-product attention, heads, and glimpse pooling, step by step.

Run with:  python3 demos/02_attention_and_glimpse.py
"""

import numpy as np

from tbje.layers import (MhaParams, attention, multi_head_attention,
                         named_tensors)
from tbje.model import GlimpseParams, glimpse
from tbje.rng import make_rng
from tbje.tensor import Tensor

rng = make_rng(5, "demo-attention")


def drawn(params):
    """Fill the weights a parameter ``init`` leaves unset (``init_model``
    fills a whole model's from its own stream)."""
    for _, t in named_tensors(params, "demo"):
        if t.data.ndim == 2:
            t.data[...] = rng.uniform(-0.5, 0.5, t.data.shape)
    return params


# ---------------------------------------------------------------------------
# attention returns convex combinations of the content rows
# ---------------------------------------------------------------------------

print("=== attention is row mixing ===")
# three content rows that are easy to recognize by eye
content = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, -10.0]])
key = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])

query = np.array([[5.0, 0.0]])          # points hard at key row 0
out = attention(Tensor(query), Tensor(key), Tensor(content))
print("query aligned with key 0  ->", np.round(out.data, 3))

query = np.array([[0.0, 5.0]])          # now at key row 1
out = attention(Tensor(query), Tensor(key), Tensor(content))
print("query aligned with key 1  ->", np.round(out.data, 3))

# ---------------------------------------------------------------------------
# masking removes padded rows from the mixture entirely
# ---------------------------------------------------------------------------

print()
print("=== masking ===")
keep = np.array([True, False, True])    # row 1 is padding
out = attention(Tensor(np.array([[0.0, 5.0]])), Tensor(key), Tensor(content),
                key_mask=keep)
print("same query, row 1 masked  ->", np.round(out.data, 3))
print("(row 1's content can no longer appear in the output)")

# ---------------------------------------------------------------------------
# heads attend independently, then a projection merges them
# ---------------------------------------------------------------------------

print()
print("=== multi-head attention ===")
width, heads = 8, 2
params = drawn(MhaParams.init(width, heads))
x = Tensor(rng.uniform(-1, 1, size=(4, width)))
out = multi_head_attention(params, x, x, x)
print(f"{heads} heads of width {width // heads}, merged back to", out.data.shape)

# ---------------------------------------------------------------------------
# glimpse pooling: attention where the queries are learned constants
# ---------------------------------------------------------------------------

print()
print("=== glimpse pooling ===")
n, width, count = 6, 8, 3
params = drawn(GlimpseParams.init(width, count, with_norm=False))
seq = rng.uniform(-1, 1, size=(n, width))
pooled = glimpse(Tensor(seq), params)
print(f"{n} rows in, {count} glimpses out:", pooled.data.shape)

# each glimpse is a weighted average, so it lives inside the row envelope
lo, hi = seq.min(axis=0), seq.max(axis=0)
inside = ((pooled.data >= lo - 1e-12) & (pooled.data <= hi + 1e-12)).all()
print("every glimpse stays within the per-column row envelope:", inside)

# a single glimpse with a mask is how each modality becomes one vector
keep = np.array([True, True, True, False, False, False])
final = drawn(GlimpseParams.init(width, 1, with_norm=False))
vec = glimpse(Tensor(seq), final, mask=keep)
print("masked single glimpse  ->", vec.data.shape, "summary vector")
