"""Autodiff walkthrough: tensors on a tape, backward, finite differences.

Every differentiable op run inside ``with Tape() as tape:`` records a node on
that tape; backward() is a single reverse sweep that accumulates gradients
by summation.  The same machinery that trains the models also verifies
itself: finite_diff_check compares tape gradients with central differences
in float64.
"""

import numpy as np

from stdinet import Tape, Tensor, finite_diff_check
import stdinet.tensor as T

# Parameters require a gradient, constants do not.
x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
y = Tensor(np.array([0.5, 0.5, 0.5]))

# loss = sum((x * y)^2): expected gradient 2 * x * y^2 = x/2
with Tape() as tape:
    prod = T.hadamard(x, y)
    loss = T.sum_all(T.hadamard(prod, prod))
    tape.backward(loss)
    # backward() consumed the tape: it is empty again, and only the leaf x
    # kept a gradient (prod and loss handed theirs on).
    assert tape.nodes == [] and prod.grad is None
print("loss:", loss.item())
print("grad:", x.grad, "(expected x/2 =", x.data / 2, ")")

# The 3x3 convolution preserves spatial dims via zero padding.
img = Tensor(np.ones((1, 3, 3)))
kernel = Tensor(np.ones((1, 1, 3, 3)))
out = T.conv2d(img, kernel, Tensor(np.zeros(1)))
print("\nconv of all ones counts in-bounds neighbors:")
print(out.data[0])

# Gradient checking runs in float64, on a tape of its own, and reports the
# max relative error.
rng = np.random.default_rng(0)
flat = Tensor(rng.normal(size=(2, 4, 4)), dtype=np.float64, requires_grad=True)
k = Tensor(rng.normal(size=(3, 2, 3, 3)), dtype=np.float64, requires_grad=True)
b = Tensor(rng.normal(size=3), dtype=np.float64, requires_grad=True)

def conv_mse(v):
    d = T.conv2d(flat, k, b)
    return T.mean_all(T.hadamard(d, d))

err = finite_diff_check(conv_mse, flat)
print(f"\nconv2d gradient max relative error vs finite differences: {err:.2e}")
assert err < 1e-5
print("within 1e-5: the backward rule is consistent with the forward pass")
