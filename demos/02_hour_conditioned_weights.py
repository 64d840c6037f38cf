"""Inside the dynamic prediction head: weights generated from the hour.

The model never stores one fixed output layer.  A small generator maps the
hour-of-day embedding V to a vector w and a bias, and the prediction weights
come out as W = O' @ diag(w) @ O, a factorization that keeps the per-hour
parameters low-dimensional and the matrix rank at most the factorization
rank.
"""

import numpy as np

from stdinet import ModelDims, Tensor, build_model

dims = ModelDims(rows=2, cols=2, seq_len=3, channels=4, lstm_hidden=16,
                 rank=4, embed_dim=8)
model = build_model("STDI", dims, seed=7)
net = model.head

print(f"feature dim d={net.feat_dim}, outputs k={dims.output_dim}, rank a={dims.rank}")
print(f"hour table: {net.embedding.data.shape}, frozen={not net.embedding.requires_grad}")

# Each hour gets its own prediction layer.
w8, b8 = net.generate(8)
w17, b17 = net.generate(17)
print(f"\n|W(8am) - W(5pm)| mean: {np.abs(w8.data - w17.data).mean():.4f}")
print(f"rank of W(8am): {np.linalg.matrix_rank(w8.data)} (bounded by a={dims.rank})")

# The factorization is exactly sum_r O'[:, r] * w[r] * O[r, :].
v = net.embedding.data[8]
w_vec = net.lin_w.weight.data @ v + net.lin_w.bias.data
w_vec = np.where(w_vec >= 0, w_vec, 0.01 * w_vec)  # leaky relu
manual = np.zeros_like(w8.data)
for r in range(dims.rank):
    manual += np.outer(net.o_prime.data[:, r], net.o_mat.data[r, :]) * w_vec[r]
print(f"generated vs triple-loop construction: {np.abs(w8.data - manual).max():.2e}")

# Parameter budget: the generator grows linearly with the output count,
# instead of the k*d it would take to emit a dense matrix per hour.
dense_per_hour = dims.output_dim * net.feat_dim + dims.output_dim
generator = sum(p.data.size for name, p in model.named_tensors()
                if name.startswith("interval.") and "embedding" not in name)
print(f"\ndense layer per hour would need {dense_per_hour} values x 24 hours")
print(f"the generator holds {generator} parameters total for all hours")

# Predictions react to the hour; the spatial-temporal encoding is shared.
rng = np.random.default_rng(0)
window = rng.integers(0, 4, size=(3, 2, 2, 2)).astype(np.float32)
for hour in (3, 8, 17):
    pred = model.forward_batch(Tensor(window[None]), [hour], mode="eval")  # a batch of one
    print(f"hour {hour:2d}: prediction sum {pred.data.sum():.3f}")
