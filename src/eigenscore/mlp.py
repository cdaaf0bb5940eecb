"""A small fully-connected denoiser trained on the denoising objective.

The network maps (x_t, log sigma) to an estimate of the clean x.  Forward,
backward, and the Adam update are written out in numpy so the gradient can
be checked against finite differences; training is sequential and
deterministic given (dataset, config, seed).

All parameters live in one float64 vector, `MlpDenoiser.params`: layer by
layer, W (row-major, shape out x in) then b.  `weights` and `biases` are
tuples of views into it, so no entry can be rebound away from it; gradients
and Adam moments share its layout.

Checkpoint format: magic "MLPD", then little-endian u32 version, u32 layer
count L, L+1 u32 layer widths, followed by the parameter vector as
little-endian float64 in the same order.  A JSON sidecar with the
architecture and training config is written next to it.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensorio
from .errors import (
    BadRangeError,
    CheckpointFormatError,
    DimMismatchError,
    DivergedLossError,
    EmptyDatasetError,
    NonFiniteParametersError,
)
from .rng import LANE_TRAIN, RngStream
from .schedule import NoiseSchedule

CKPT_MAGIC = b"MLPD"
CKPT_VERSION = 1
DEFAULT_HIDDEN = (128, 128)


@dataclass
class TrainConfig:
    steps: int = 20000
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _param_count(widths) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def _layer_views(widths, vec: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer (W, b) views of a vector laid out like `MlpDenoiser.params`."""
    ws, bs, offset = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        end = offset + fan_out * fan_in
        ws.append(vec[offset:end].reshape(fan_out, fan_in))
        bs.append(vec[end:end + fan_out])
        offset = end + fan_out
    return tuple(ws), tuple(bs)


class MlpDenoiser:
    """tanh MLP denoiser conditioned on log sigma.

    Hidden widths default to DEFAULT_HIDDEN; input width is dim + 1 for the
    log-sigma channel and the output is linear with width dim.
    """

    def __init__(self, dim: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN, seed: int = 0):
        if dim < 1:
            raise BadRangeError(f"dim must be >= 1, got {dim}")
        if any(h < 1 for h in hidden):
            raise BadRangeError(f"hidden widths must be >= 1, got {hidden}")
        widths = (int(dim) + 1, *map(int, hidden), int(dim))
        self._bind(widths, np.zeros(_param_count(widths)))
        gen = RngStream(seed, (LANE_TRAIN, 0)).generator()
        for w in self.weights:
            w[...] = np.sqrt(2.0 / sum(w.shape)) * gen.standard_normal(w.shape)

    def _bind(self, widths, params: np.ndarray) -> None:
        self.dim = widths[-1]
        self.widths = tuple(widths)
        self.params = params
        self.weights, self.biases = _layer_views(self.widths, params)

    # -- forward ----------------------------------------------------------

    def _check_params(self) -> None:
        if not np.all(np.isfinite(self.params)):
            raise NonFiniteParametersError("parameters contain non-finite values")

    def _features(self, x2: np.ndarray, sigma) -> np.ndarray:
        logs = np.log(np.broadcast_to(np.asarray(sigma, dtype=float), (x2.shape[0],)))
        return np.concatenate([x2, logs[:, None]], axis=1)

    def _forward(self, feats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [feats]
        h = feats
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # bias and tanh in place: one new array per layer, not three
            h = h @ w.T
            h += b
            if i < last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def forward(self, x, sigma):
        """Denoise x_t at noise level sigma; batched over a leading axis."""
        a = np.asarray(x, dtype=float)
        single = a.ndim == 1
        if single:
            a = a[None, :]
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise DimMismatchError(f"expected points of dim {self.dim}, got shape {np.shape(x)}")
        if np.any(np.asarray(sigma, dtype=float) <= 0.0):
            raise BadRangeError("sigma must be positive")
        self._check_params()
        out, _ = self._forward(self._features(a, sigma))
        return out[0] if single else out

    # denoiser contract used by the spectral engine
    denoise = forward

    # -- loss and gradients ----------------------------------------------

    def loss_and_grads(self, x_t: np.ndarray, sigma: np.ndarray, target: np.ndarray):
        """Mean over the batch of ||target - out||^2, and its gradient laid out like `params`."""
        feats = self._features(np.asarray(x_t, dtype=float), sigma)
        out, acts = self._forward(feats)
        err = out - np.asarray(target, dtype=float)
        n = x_t.shape[0]
        loss = float(np.sum(err * err) / n)
        grads = np.empty_like(self.params)
        grad_w, grad_b = _layer_views(self.widths, grads)
        delta = 2.0 * err / n
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.T, acts[i], out=grad_w[i])
            delta.sum(axis=0, out=grad_b[i])
            if i > 0:
                # acts[i] holds tanh output of layer i for i < last layer
                delta = (delta @ self.weights[i]) * (1.0 - acts[i] * acts[i])
        return loss, grads

    def train(self, data: np.ndarray, schedule: NoiseSchedule, config: TrainConfig) -> list[float]:
        """Minimize the denoising objective; returns the per-step loss trace.

        Each step draws a batch with replacement, a uniform timestep per
        sample, and fresh noise, all from one sequential stream keyed by
        config.seed.
        """
        x = np.asarray(data, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimMismatchError(f"expected dataset of dim {self.dim}, got shape {data.shape}")
        if x.shape[0] == 0:
            raise EmptyDatasetError("training dataset is empty")
        if config.steps < 1 or config.batch_size < 1:
            raise BadRangeError("steps and batch_size must be >= 1")

        gen = RngStream(config.seed, (LANE_TRAIN, 1)).generator()
        n = x.shape[0]
        p = self.params
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        # reused buffers: parameter-sized temporaries can page-fault every step
        upd, den = np.empty_like(p), np.empty_like(p)
        b1, b2, eps, lr = config.beta1, config.beta2, config.eps, config.lr
        trace: list[float] = []
        for step in range(1, config.steps + 1):
            idx = gen.integers(0, n, size=config.batch_size)
            t = gen.integers(1, schedule.t_max + 1, size=config.batch_size)
            sig = schedule.sigmas[t - 1]
            clean = x[idx]
            noisy = clean + sig[:, None] * gen.standard_normal((config.batch_size, self.dim))
            loss, g = self.loss_and_grads(noisy, sig, clean)
            if not np.isfinite(loss):
                raise DivergedLossError(f"loss became non-finite at step {step}")
            trace.append(loss)
            c1 = 1.0 - b1**step
            c2 = 1.0 - b2**step
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=upd)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=upd), g, out=upd)
            np.multiply(np.divide(m, c1, out=upd), lr, out=upd)
            np.sqrt(np.divide(v, c2, out=den), out=den)
            den += eps
            p -= np.divide(upd, den, out=upd)
        return trace

    # -- checkpoints ------------------------------------------------------

    def save(self, path, train_config: TrainConfig | None = None) -> None:
        self._check_params()
        header = struct.pack(f"<II{len(self.widths)}I", CKPT_VERSION, len(self.weights), *self.widths)
        tensorio.atomic_write_bytes(path, CKPT_MAGIC + header + self.params.astype("<f8").tobytes())
        sidecar = {
            "widths": list(self.widths),
            "hidden": list(self.widths[1:-1]),
            "dim": self.dim,
            "activation": "tanh",
            "input": "x_t concatenated with log sigma",
            "train": train_config.to_dict() if train_config else None,
        }
        tensorio.atomic_write_text(str(path) + ".json", json.dumps(sidecar, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "MlpDenoiser":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != CKPT_MAGIC:
            raise CheckpointFormatError(f"bad magic {blob[:4]!r}, expected {CKPT_MAGIC!r}")
        if len(blob) < 12:
            raise CheckpointFormatError("checkpoint truncated")
        version, n_layers = struct.unpack_from("<II", blob, 4)
        if version != CKPT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        offset = 12 + 4 * (n_layers + 1)
        if len(blob) < offset:
            raise CheckpointFormatError("checkpoint truncated")
        widths = struct.unpack_from(f"<{n_layers + 1}I", blob, 12)
        if min(widths) < 1:
            # a zero-width layer would load as a denoiser that ignores its input
            raise CheckpointFormatError(f"layer widths {list(widths)} must all be >= 1")
        if widths[0] != widths[-1] + 1:
            raise CheckpointFormatError(f"input width {widths[0]} does not match output dim {widths[-1]} + 1")
        extra = len(blob) - offset - 8 * _param_count(widths)
        if extra:
            raise CheckpointFormatError(
                "checkpoint truncated" if extra < 0 else "checkpoint has trailing bytes"
            )
        model = cls.__new__(cls)
        model._bind(widths, np.frombuffer(blob, dtype="<f8", offset=offset).astype(float))
        model._check_params()
        return model
