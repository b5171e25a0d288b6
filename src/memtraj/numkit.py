"""Small multilayer perceptrons with analytic gradients and plain SGD.

Every network in this package is an :class:`Mlp`: a stack of affine layers
with ReLU or Tanh hidden activations and an identity output layer.  All
parameters and activations are float64 numpy arrays.  Backward passes are
hand-derived chain rule, validated against central finite differences in the
tests; there is no autodiff framework anywhere.

Forward and backward take and return row batches ``(n, dim)``; a single
input is a one-row batch.  The frozen :func:`mlp_forward` also takes an
``(s, n, dim)`` stack of row batches, and gives each slice the bits a call
on that slice alone gives: numpy's ``matmul`` makes one BLAS call per slice,
with the routine and arguments of the 2-D product.  Parameter gradients are
summed over the rows, which is what the mini-batch trainers need (they
scale the upstream signal by ``1/n`` themselves).  A batch may have zero
rows: its forward pass is empty and its parameter gradients are exact zeros.
"""

from __future__ import annotations

import logging
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import FormatError, NumericError

logger = logging.getLogger(__name__)

RELU = "relu"
TANH = "tanh"

_MAGIC = b"MTNN"
_VERSION = 1
_ACT_TO_CODE = {RELU: 0, TANH: 1}
_CODE_TO_ACT = {code: act for act, code in _ACT_TO_CODE.items()}


@dataclass
class Mlp:
    """Feed-forward net: affine layers, hidden activation, identity output.

    ``weights[l]`` has shape ``(layer_dims[l+1], layer_dims[l])`` and
    ``biases[l]`` has shape ``(layer_dims[l+1],)``.  Instances are treated as
    frozen once training finishes; forward passes on a frozen net are safe
    from multiple threads, training mutates a net from a single thread only.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = RELU

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            hidden_activation=self.hidden_activation,
        )


@dataclass
class GradBundle:
    """Gradients from one backward pass: per-layer weights/biases plus input."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_input: np.ndarray | None


@dataclass
class ForwardCache:
    """Intermediate activations kept around for a cheap backward pass.

    ``activations[0]`` is the input batch, ``activations[l+1]`` the output
    of layer ``l`` after its activation; ``preacts[l]`` is layer ``l`` before
    the activation.
    """

    activations: list[np.ndarray]
    preacts: list[np.ndarray]


def _check_activation(name: str) -> None:
    if name not in _ACT_TO_CODE:
        raise ValueError(f"unknown hidden activation {name!r}; expected one of {sorted(_ACT_TO_CODE)}")


def mlp_init(seed: int, layer_dims: Sequence[int], hidden_activation: str = RELU) -> Mlp:
    """Build an Mlp with uniform Glorot weights and zero biases.

    Weights for a layer with fan_in/fan_out are drawn uniformly from
    ``[-s, s]`` with ``s = sqrt(6 / (fan_in + fan_out))``.  The draw order is
    fixed (layer by layer), so a seed pins every parameter.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer dims must be >= 1, got {dims}")
    _check_activation(hidden_activation)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(layer_dims=dims, weights=weights, biases=biases, hidden_activation=hidden_activation)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _as_batch(x, dim: int, what: str, stacks: bool = False) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in ((2, 3) if stacks else (2,)) or arr.shape[-1] != dim:
        stack = f"an (s, n, {dim}) stack or " if stacks else ""
        raise ValueError(f"{what} must be {stack}an (n, {dim}) row batch, got shape {arr.shape}")
    return arr


def mlp_forward_cached(net: Mlp, x) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass of an ``(n, in_dim)`` batch that also returns the activations needed for backward."""
    a = _as_batch(x, net.in_dim, "input")
    activations = [a]
    preacts = []
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        preacts.append(z)
        a = z if l == last else _activate(z, net.hidden_activation)
        activations.append(a)
    return a, ForwardCache(activations=activations, preacts=preacts)


def mlp_forward(net: Mlp, x) -> np.ndarray:
    """Map an ``(n, in_dim)`` row batch, or an ``(s, n, in_dim)`` stack of them, through a frozen network.

    Keeps no activations: each layer's product takes its bias and activation
    in place, which rounds as :func:`mlp_forward_cached` does. Slice ``i`` of
    a stack's output equals, bit for bit, the output for ``x[i]`` alone.
    """
    a = _as_batch(x, net.in_dim, "input", stacks=True)
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T
        a += b
        if l < last:
            if net.hidden_activation == RELU:
                np.maximum(a, 0.0, out=a)
            else:
                np.tanh(a, out=a)
    return a


def mlp_backward_from_cache(net: Mlp, cache: ForwardCache, upstream, input_grad: bool = True) -> GradBundle:
    """Backward pass reusing a forward cache.

    ``upstream`` is the ``(n, out_dim)`` gradient of some scalar with respect
    to the network output; the bundle holds that scalar's gradients with
    respect to every weight, bias, and the ``(n, in_dim)`` input. A caller
    that has no use for the input gradient passes ``input_grad=False`` and
    gets ``d_input=None``, saving the first layer's input product.
    """
    delta = _as_batch(upstream, net.out_dim, "upstream")
    if delta.shape[0] != cache.activations[0].shape[0]:
        raise ValueError(
            f"upstream batch shape {delta.shape} does not match forward input shape {cache.activations[0].shape}"
        )
    d_weights: list[np.ndarray] = [None] * net.n_layers  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * net.n_layers  # type: ignore[list-item]
    for l in range(net.n_layers - 1, -1, -1):
        d_weights[l] = delta.T @ cache.activations[l]
        d_biases[l] = delta.sum(axis=0)
        if l == 0 and not input_grad:
            return GradBundle(d_weights=d_weights, d_biases=d_biases, d_input=None)
        delta = delta @ net.weights[l]
        if l > 0:
            delta = delta * _activate_grad(cache.preacts[l - 1], net.hidden_activation)
    return GradBundle(d_weights=d_weights, d_biases=d_biases, d_input=delta)


def sgd_step(net: Mlp, grads: GradBundle, learning_rate: float) -> Mlp:
    """Apply one plain SGD update in place and return the net."""
    if len(grads.d_weights) != net.n_layers or len(grads.d_biases) != net.n_layers:
        raise ValueError("gradient bundle does not match the network's layer count")
    for w, dw in zip(net.weights, grads.d_weights):
        if w.shape != dw.shape:
            raise ValueError(f"weight gradient shape {dw.shape} != {w.shape}")
        if not np.all(np.isfinite(dw)):
            raise NumericError("non-finite weight gradient in sgd_step")
    for b, db in zip(net.biases, grads.d_biases):
        if b.shape != db.shape:
            raise ValueError(f"bias gradient shape {db.shape} != {b.shape}")
        if not np.all(np.isfinite(db)):
            raise NumericError("non-finite bias gradient in sgd_step")
    for w, dw in zip(net.weights, grads.d_weights):
        w -= learning_rate * dw
    for b, db in zip(net.biases, grads.d_biases):
        b -= learning_rate * db
    return net


def shuffled_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering ``range(n)`` in shuffled mini-batches."""
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


def sgd_loop(
    name: str,
    n: int,
    batch_size: int,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
    step: Callable[[np.ndarray], tuple[float, list[tuple[Mlp, GradBundle]]]],
) -> None:
    """Mini-batch SGD over ``n`` samples for ``epochs`` epochs at one learning rate.

    Every epoch draws its batches from ``rng`` with :func:`shuffled_batches`.
    ``step(idx)`` returns the batch's summed loss and the ``(net, grads)``
    pairs to update; a non-finite loss raises NumericError before any of
    them is applied. The mean loss per sample is logged for the first epoch
    and every 25th.
    """
    for epoch in range(1, epochs + 1):
        total = 0.0
        for idx in shuffled_batches(n, batch_size, rng):
            loss, updates = step(idx)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite {name} loss at epoch {epoch}")
            total += loss
            for net, grads in updates:
                sgd_step(net, grads, learning_rate)
        if epoch == 1 or epoch % 25 == 0:
            logger.info("%s epoch %d: mean loss %.6f", name, epoch, total / n)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """``open(path, mode)`` for writing through a temporary file beside ``path``, renamed over it on success.

    Readers see the old file or the whole new one. When the block raises,
    the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_mlp(net: Mlp, path) -> None:
    """Write a network as versioned little-endian binary.

    Layout: magic ``MTNN``, format version u32, layer-dim count u32, hidden
    activation code u32, the dims as u32s, then for each layer its row-major
    float64 weight matrix followed by its float64 bias vector.
    """
    parts = [
        _MAGIC,
        struct.pack("<III", _VERSION, len(net.layer_dims), _ACT_TO_CODE[net.hidden_activation]),
        struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims),
    ]
    for w, b in zip(net.weights, net.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with atomic_open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_mlp(raw: bytes) -> Mlp:
    """Parse the bytes of a network written by :func:`save_mlp`, validating as it goes."""
    if len(raw) < 16:
        raise FormatError("file too short for a net header", offset=len(raw))
    if raw[:4] != _MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {_MAGIC!r}", offset=0)
    version, n_dims, act_code = struct.unpack_from("<III", raw, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    if n_dims < 2:
        raise FormatError(f"layer-dim count {n_dims} < 2", offset=8)
    if act_code not in _CODE_TO_ACT:
        raise FormatError(f"unknown activation code {act_code}", offset=12)
    offset = 16
    if len(raw) < offset + 4 * n_dims:
        raise FormatError("truncated layer dims", offset=len(raw))
    dims = list(struct.unpack_from(f"<{n_dims}I", raw, offset))
    offset += 4 * n_dims
    if any(d < 1 for d in dims):
        raise FormatError(f"non-positive layer dim in {dims}", offset=16)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        n_bytes = 8 * fan_out * fan_in
        if len(raw) < offset + n_bytes:
            raise FormatError("truncated weight matrix", offset=len(raw))
        weights.append(np.frombuffer(raw, dtype="<f8", count=fan_out * fan_in, offset=offset).reshape(fan_out, fan_in).copy())
        offset += n_bytes
        n_bytes = 8 * fan_out
        if len(raw) < offset + n_bytes:
            raise FormatError("truncated bias vector", offset=len(raw))
        biases.append(np.frombuffer(raw, dtype="<f8", count=fan_out, offset=offset).copy())
        offset += n_bytes
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes after parameters", offset=offset)
    return Mlp(layer_dims=dims, weights=weights, biases=biases, hidden_activation=_CODE_TO_ACT[act_code])
