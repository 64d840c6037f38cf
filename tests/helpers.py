"""Shared test utilities: toy tasks, plain training loops, checkpoint edits."""

import json

import numpy as np

from stdinet.model import TOY_DIMS
from stdinet.tensor import Tape, Tensor
from stdinet.training import Adam, mse_loss


def copy_task_windows(n=20, dims=TOY_DIMS, seed=0):
    """(inputs, hours, targets) of windows whose target is a copy of the last input frame.

    Counts are 0/1: the generated prediction weights have rank at most
    ``rank`` (4 at toy dims) against 8 outputs, so larger-magnitude random
    frames cannot be memorized exactly by construction.
    """
    rng = np.random.default_rng(seed)
    inputs = np.stack([rng.integers(0, 2, size=(dims.seq_len, 2, dims.rows, dims.cols))
                       for _ in range(n)]).astype(np.float32)
    return inputs, np.arange(n) % 24, inputs[:, -1].copy()


def memorize_windows(n, seed, dims=TOY_DIMS):
    """(inputs, hours, targets) of arbitrary (window -> positive frame) pairs."""
    rng = np.random.default_rng(seed)
    pairs = [(rng.integers(0, 5, size=(dims.seq_len, 2, dims.rows, dims.cols)),
              rng.integers(1, 4, size=(2, dims.rows, dims.cols))) for _ in range(n)]
    inputs, targets = (np.stack(part).astype(np.float32) for part in zip(*pairs))
    return inputs, np.arange(n) % 24, targets


def manual_steps(model, batch, steps, lr=1e-3, weight_decay=0.0, stop_below=None):
    """Full-batch train-mode loop over ``batch`` = (inputs, hours, targets);
    optionally stop once the loss crosses a bar."""
    inputs, hours, targets = batch
    tape = Tape()
    model.attach_tape(tape)
    adam = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    losses = []
    for _ in range(steps):
        tape.reset()
        loss = mse_loss(model.forward_batch(Tensor(inputs), hours, mode="train"),
                        Tensor(targets))
        losses.append(loss.item())
        if stop_below is not None and losses[-1] < stop_below:
            break
        tape.backward(loss)
        adam.step()
        adam.zero_grad()
    return losses


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a checkpoint's manifest dict and write it back."""
    raw = path.read_bytes()
    mlen = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12:12 + mlen])
    edit(manifest)
    payload = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + len(payload).to_bytes(4, "little") + payload + raw[12 + mlen:])
