import hashlib
import struct

import numpy as np
import pytest

from eigenscore.errors import (
    BadRangeError,
    CheckpointFormatError,
    DimMismatchError,
    DivergedLossError,
    EmptyDatasetError,
    NonFiniteParametersError,
)
from eigenscore.mlp import CKPT_MAGIC, CKPT_VERSION, MlpDenoiser, TrainConfig, _layer_views
from eigenscore.schedule import build_schedule


def tiny_net():
    return MlpDenoiser(2, hidden=(5, 4), seed=3)


def test_widths_include_log_sigma_channel():
    net = tiny_net()
    assert net.widths == (3, 5, 4, 2)
    assert net.weights[0].shape == (5, 3)
    assert net.biases[-1].shape == (2,)


def test_forward_shapes_and_batch_consistency():
    net = tiny_net()
    x = np.array([0.5, -1.0])
    single = net.forward(x, 0.7)
    batch = net.forward(np.stack([x, x]), 0.7)
    assert single.shape == (2,)
    assert batch.shape == (2, 2)
    assert np.array_equal(batch[0], batch[1])
    assert np.allclose(single, batch[0])


def test_forward_depends_on_sigma_channel():
    net = tiny_net()
    x = np.zeros(2)
    assert not np.allclose(net.forward(x, 0.5), net.forward(x, 2.0))


def test_forward_validates():
    net = tiny_net()
    with pytest.raises(DimMismatchError):
        net.forward(np.zeros(3), 1.0)
    with pytest.raises(BadRangeError):
        net.forward(np.zeros(2), 0.0)
    net.weights[0][0, 0] = np.nan
    with pytest.raises(NonFiniteParametersError):
        net.forward(np.zeros(2), 1.0)


def test_init_validates():
    with pytest.raises(BadRangeError):
        MlpDenoiser(0)
    with pytest.raises(BadRangeError):
        MlpDenoiser(2, hidden=(4, 0))


def test_init_deterministic_in_seed():
    a = MlpDenoiser(3, hidden=(8,), seed=9)
    b = MlpDenoiser(3, hidden=(8,), seed=9)
    c = MlpDenoiser(3, hidden=(8,), seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_gradients_match_finite_differences():
    net = tiny_net()
    gen = np.random.default_rng(0)
    x_t = gen.standard_normal((6, 2))
    sigma = np.full(6, 0.9)
    target = gen.standard_normal((6, 2))
    loss, grads = net.loss_and_grads(x_t, sigma, target)
    assert grads.shape == net.params.shape
    grad_w, grad_b = _layer_views(net.widths, grads)

    def loss_at():
        out = net.forward(x_t, sigma)
        err = out - target
        return float(np.sum(err * err) / 6)

    h = 1e-6
    worst = 0.0
    for params, grads in ((net.weights, grad_w), (net.biases, grad_b)):
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                keep = flat[idx]
                flat[idx] = keep + h
                up = loss_at()
                flat[idx] = keep - h
                down = loss_at()
                flat[idx] = keep
                fd = (up - down) / (2 * h)
                denom = max(1.0, abs(fd))
                worst = max(worst, abs(fd - g.reshape(-1)[idx]) / denom)
    assert worst < 1e-4


def test_train_reduces_loss_and_is_deterministic():
    sched = build_schedule("geometric", 0.1, 2.0, 16)
    data = np.random.default_rng(1).standard_normal((256, 1))
    cfg = TrainConfig(steps=300, batch_size=32, lr=3e-3, seed=4)
    net_a = MlpDenoiser(1, hidden=(16,), seed=4)
    trace_a = net_a.train(data, sched, cfg)
    net_b = MlpDenoiser(1, hidden=(16,), seed=4)
    trace_b = net_b.train(data, sched, cfg)
    assert trace_a == trace_b
    assert all(np.array_equal(x, y) for x, y in zip(net_a.weights, net_b.weights))
    assert np.mean(trace_a[-50:]) < np.mean(trace_a[:50])


def test_train_validates():
    sched = build_schedule("geometric", 0.1, 2.0, 8)
    net = MlpDenoiser(1, hidden=(4,))
    with pytest.raises(EmptyDatasetError):
        net.train(np.empty((0, 1)), sched, TrainConfig(steps=5))
    with pytest.raises(DimMismatchError):
        net.train(np.zeros((4, 3)), sched, TrainConfig(steps=5))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_raises_on_diverged_loss():
    sched = build_schedule("geometric", 0.1, 3.0, 12)
    data = np.random.default_rng(0).standard_normal((16, 2))
    net = MlpDenoiser(2, hidden=(4,), seed=0)
    with pytest.raises(DivergedLossError, match="at step 2"):
        net.train(data, sched, TrainConfig(steps=5, batch_size=4, lr=1e200))


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = tiny_net()
    path = tmp_path / "net.ckpt"
    net.save(path, train_config=TrainConfig(steps=123))
    loaded = MlpDenoiser.load(path)
    assert loaded.widths == net.widths
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, net.weights))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, net.biases))
    x = np.array([[0.1, -0.2], [1.0, 2.0]])
    assert np.array_equal(loaded.forward(x, 0.5), net.forward(x, 0.5))
    sidecar = path.with_name(path.name + ".json")
    assert sidecar.exists()


def test_trained_checkpoint_bytes_pinned(tmp_path):
    # recorded before the parameters moved into one vector; Adam's elementwise
    # update and the payload order must keep every bit (x86-64, OpenBLAS)
    sched = build_schedule("geometric", 0.1, 2.0, 16)
    data = np.random.default_rng(1).standard_normal((64, 2))
    net = tiny_net()
    net.train(data, sched, TrainConfig(steps=40, batch_size=16, lr=3e-3, seed=4))
    path = tmp_path / "net.ckpt"
    net.save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "3cfe1353baf9820a97cc89b5d577f7c77f63526b9e80e0941a02c93c76ef1187"


def test_params_vector_is_the_checkpoint_payload(tmp_path):
    net = tiny_net()
    path = tmp_path / "net.ckpt"
    net.save(path)
    loaded = MlpDenoiser.load(path)
    header = 12 + 4 * len(net.widths)
    for model in (net, loaded):
        assert model.params.dtype == np.float64 and model.params.ndim == 1
        for arr in (*model.weights, *model.biases):
            assert np.shares_memory(arr, model.params)
        flat = [a.ravel() for w, b in zip(model.weights, model.biases) for a in (w, b)]
        assert np.array_equal(np.concatenate(flat), model.params)
        assert model.params.astype("<f8").tobytes() == path.read_bytes()[header:]


def test_weights_cannot_be_rebound():
    net = tiny_net()
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((5, 3))
    with pytest.raises(TypeError):
        net.biases[0] = np.zeros(5)


def test_checkpoint_short_header(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(CKPT_MAGIC + b"\x01\x00")
    with pytest.raises(CheckpointFormatError, match="truncated"):
        MlpDenoiser.load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(CheckpointFormatError):
        MlpDenoiser.load(path)


def test_checkpoint_truncated(tmp_path):
    net = tiny_net()
    path = tmp_path / "net.ckpt"
    net.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        MlpDenoiser.load(path)


def test_checkpoint_trailing_bytes(tmp_path):
    net = tiny_net()
    path = tmp_path / "net.ckpt"
    net.save(path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(CheckpointFormatError, match="trailing bytes"):
        MlpDenoiser.load(path)


def test_checkpoint_version_rejected(tmp_path):
    net = tiny_net()
    path = tmp_path / "net.ckpt"
    net.save(path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        MlpDenoiser.load(path)


def zero_width_checkpoint(path):
    """A hand-built checkpoint with widths (3, 0, 2): layer 2 sees nothing."""
    widths = (3, 0, 2)
    header = struct.pack("<II3I", CKPT_VERSION, len(widths) - 1, *widths)
    path.write_bytes(CKPT_MAGIC + header + np.array([0.5, -0.5]).astype("<f8").tobytes())
    return path


def test_checkpoint_zero_width_rejected(tmp_path):
    # it would load as a constant denoiser returning its last bias
    with pytest.raises(CheckpointFormatError, match=r"widths \[3, 0, 2\] must all be >= 1"):
        MlpDenoiser.load(zero_width_checkpoint(tmp_path / "zero.ckpt"))


def test_denoise_alias_used_by_spectral_engine():
    from eigenscore.rng import RngStream
    from eigenscore.spectral import SpectralConfig, subspace_iteration

    net = tiny_net()
    res = subspace_iteration(
        net, np.zeros(2), 0.5, SpectralConfig(top_k=1, n_iters=3), rng=RngStream(0)
    )
    assert np.isfinite(res.eigenvalues).all()
