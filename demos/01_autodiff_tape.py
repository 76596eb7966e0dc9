"""A tour of the reverse-mode tape that powers every gradient in tbje.

Run with:  python3 demos/01_autodiff_tape.py
"""

import numpy as np

import tbje.tensor as T
from tbje.tensor import Tape, Tensor

# ---------------------------------------------------------------------------
# 1. a scalar chain rule, by hand and by tape
# ---------------------------------------------------------------------------

print("=== scalar chain rule ===")
x = Tensor(np.array([[2.0]]), requires_grad=True)

# y = relu(3x)^2 = 36 at x = 2; dy/dx = 2 * (3x) * 3 = 36
with Tape() as tape:
    y = T.tsum(T.mul(T.relu(T.scale(x, 3.0)), T.relu(T.scale(x, 3.0))))
    tape.backward(y)
print("value     ", y.data)
print("gradient  ", x.grad, " (expected 36)")

# ---------------------------------------------------------------------------
# 2. gradients of a matrix product against central finite differences
# ---------------------------------------------------------------------------

print()
print("=== matmul gradient vs finite differences ===")
rng = np.random.default_rng(0)
a_data = rng.normal(size=(3, 4))
b_data = rng.normal(size=(4, 2))

a = Tensor(a_data.copy(), requires_grad=True)
b = Tensor(b_data.copy(), requires_grad=True)
with Tape() as tape:
    prod = T.matmul(a, b)
    tape.backward(T.tsum(T.mul(prod, prod)))

eps = 1e-6
probe = np.zeros_like(a_data)
probe[1, 2] = eps
up = (((a_data + probe) @ b_data) ** 2).sum()
down = (((a_data - probe) @ b_data) ** 2).sum()
fd = (up - down) / (2 * eps)
print(f"tape grad a[1,2]  {a.grad[1, 2]:+.8f}")
print(f"fd   grad a[1,2]  {fd:+.8f}")

# ---------------------------------------------------------------------------
# 3. softmax + masking, the pattern attention is built from
# ---------------------------------------------------------------------------

print()
print("=== masked softmax ===")
scores = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]), requires_grad=True)
keep = np.array([[True, True, False, True]])

with Tape() as tape:
    weights = T.softmax(scores, axis=-1, keep=keep)
    tape.backward(T.tsum(T.mul(weights, weights)))
print("weights       ", np.round(weights.data, 4))
print("masked column gets exactly zero weight:", weights.data[0, 2] == 0.0)
# the gradient never leaks through the masked entry either
print("grad          ", np.round(scores.grad, 4))
print("masked grad is zero:", scores.grad[0, 2] == 0.0)

# ---------------------------------------------------------------------------
# 4. sixty steps of plain gradient descent on least squares
# ---------------------------------------------------------------------------

print()
print("=== gradient descent ===")
target = rng.normal(size=(5, 3))
w = Tensor(np.zeros((5, 3)), requires_grad=True)
for step in range(60):
    with Tape() as tape:
        diff = T.add(w, Tensor(-target))
        loss = T.tsum(T.mul(diff, diff))
        tape.backward(loss)
    w.data -= 0.05 * w.grad
    w.grad = None
    if step % 20 == 0:
        print(f"step {step:2d}  loss {loss.data.item():.6f}")
print(f"final      loss {float(((w.data - target) ** 2).sum()):.6f}")
