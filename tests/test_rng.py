import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenscore import pipeline, rng
from eigenscore.errors import BadRangeError, DimMismatchError
from eigenscore.gmm import GaussianMixture
from eigenscore.pipeline import FeatureConfig
from eigenscore.rng import (
    LANE_NOISE,
    LANE_SPECTRAL,
    RngStream,
    gaussian_vec,
)
from eigenscore.schedule import build_schedule


def test_same_stream_same_draws():
    a = RngStream(7, (3, 1, 4)).generator().standard_normal(16)
    b = RngStream(7, (3, 1, 4)).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_different_components_different_draws():
    base = RngStream(7, (3, 1, 4)).generator().standard_normal(8)
    for other in [(3, 1, 5), (3, 2, 4), (4, 1, 4), (3, 1)]:
        alt = RngStream(7, other).generator().standard_normal(8)
        assert not np.array_equal(base, alt)


def test_seed_changes_draws():
    a = RngStream(1, (0,)).generator().standard_normal(8)
    b = RngStream(2, (0,)).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_child_appends_components():
    child = RngStream(9, (5,)).child(2, LANE_SPECTRAL)
    assert child.stream == (5, 2, LANE_SPECTRAL)
    assert child.seed == 9
    direct = RngStream(9, (5, 2, LANE_SPECTRAL))
    assert np.array_equal(
        child.generator().standard_normal(4), direct.generator().standard_normal(4)
    )


def test_lanes_are_distinct_streams():
    s = RngStream(0, (1, 2, 3))
    a = gaussian_vec(s.child(LANE_NOISE), 6, 1.0)
    b = gaussian_vec(s.child(LANE_SPECTRAL), 6, 1.0)
    assert not np.array_equal(a, b)


def test_gaussian_vec_restarts_stream():
    s = RngStream(11, (0, 0))
    first = gaussian_vec(s, 10, 2.0)
    second = gaussian_vec(s, 10, 2.0)
    assert np.array_equal(first, second)


def test_gaussian_vec_scales_by_std():
    s = RngStream(11, (0, 1))
    unit = gaussian_vec(s, 10, 1.0)
    scaled = gaussian_vec(s, 10, 2.5)
    assert np.allclose(scaled, 2.5 * unit)


def test_gaussian_vec_zero_std():
    assert np.array_equal(gaussian_vec(RngStream(0), 4, 0.0), np.zeros(4))


def test_gaussian_vec_rejects_bad_args():
    with pytest.raises(BadRangeError):
        gaussian_vec(RngStream(0), 0, 1.0)
    with pytest.raises(BadRangeError):
        gaussian_vec(RngStream(0), 4, -1.0)


def test_negative_stream_component_rejected():
    with pytest.raises(BadRangeError):
        RngStream(0, (1, -2))


def test_negative_seed_rejected_at_construction():
    # numpy's SeedSequence would only fail at the first draw, with a ValueError
    for stream in [(), (0,)]:
        with pytest.raises(BadRangeError, match="seed"):
            RngStream(-1, stream)


def test_draw_independent_of_construction_order():
    # building streams in any order must not change what each one yields
    late = RngStream(3, (8, 0)).generator().standard_normal(5)
    RngStream(3, (0, 0)).generator().standard_normal(1000)
    again = RngStream(3, (8, 0)).generator().standard_normal(5)
    assert np.array_equal(late, again)


def test_gaussian_vec_shapes_and_std_per_stream():
    streams = [RngStream(4, (i,)) for i in range(3)]
    assert gaussian_vec(streams[0], 5, 1.0).shape == (5,)
    rows = gaussian_vec(streams, 5, [1.0, 0.0, 2.0])
    assert rows.shape == (3, 5)
    assert np.array_equal(rows[0], gaussian_vec(streams[0], 5, 1.0))
    assert np.array_equal(rows[2], gaussian_vec(streams[2], 5, 2.0))
    assert gaussian_vec([], 5, 1.0).shape == (0, 5)
    with pytest.raises(DimMismatchError):
        gaussian_vec(streams, 5, [1.0, 2.0])
    with pytest.raises(BadRangeError):
        gaussian_vec(streams, 5, [1.0, -1.0, 1.0])


# seeds of one, two to four, and more than four 32-bit words
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**200),
)
COMPONENTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    other_seed=SEEDS,
    four=st.tuples(*[COMPONENTS] * 4),
    five=st.tuples(*[COMPONENTS] * 5),
    extra=st.lists(st.lists(COMPONENTS, max_size=6).map(tuple), max_size=3),
    dim=st.sampled_from([1, 2, 64]),
    stds=st.lists(st.sampled_from([0.0, 1.0, 0.37, 2.5]), min_size=16, max_size=16),
)
def test_keyed_draws_match_generator_bytes(seed, other_seed, four, five, extra, dim, stds):
    # an empty id, four- and five-part ids and two seeds share one call
    streams = [
        RngStream(seed, four),
        RngStream(seed, five),
        RngStream(seed, ()),
        RngStream(other_seed, four),
        RngStream(other_seed, ()),
        *(RngStream(seed, ids) for ids in extra),
    ]
    keys = rng._philox_keys(streams)
    for s, key in zip(streams, keys):
        want = np.random.SeedSequence(s.seed, spawn_key=s.stream).generate_state(2, np.uint64)
        assert key.tobytes() == want.tobytes()
    std = stds[: len(streams)]
    rows = gaussian_vec(streams, dim, std)
    for s, sd, row in zip(streams, std, rows):
        # std 0 gives +0.0 zeros, never the -0.0 of 0.0 * a negative draw
        want = np.zeros(dim) if sd == 0.0 else sd * s.generator().standard_normal(dim)
        assert row.tobytes() == want.tobytes()
        assert gaussian_vec(s, dim, sd).tobytes() == want.tobytes()


def test_threads_interleaving_draws_match_a_serial_run():
    # numpy fills a long draw with the GIL released, so another thread runs
    # while a generator is mid-draw: a shared one would be re-keyed under it
    n_threads = 3
    calls = [[RngStream(c % 2, (c, j, 2)) for j in range(5)] for c in range(60)]
    serial = [gaussian_vec(c, 2048, 1.5).tobytes() for c in calls]
    got = [None] * len(calls)
    gens = [None] * n_threads
    barrier = threading.Barrier(n_threads, timeout=60)

    def work(t):
        barrier.wait()
        for i in range(t, len(calls), n_threads):
            got[i] = gaussian_vec(calls[i], 2048, 1.5).tobytes()
        gens[t] = rng._local.gen
        barrier.wait()  # all threads alive, so distinct objects are distinct generators

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == serial
    assert len({id(g) for g in gens}) == n_threads


def test_feature_passes_build_no_generator(monkeypatch):
    built = []
    original = RngStream.generator

    def counting(self):
        built.append(self.stream)
        return original(self)

    monkeypatch.setattr(RngStream, "generator", counting)
    means = np.array([[0.0, 0.0], [2.0, 1.0]])
    model = GaussianMixture([0.5, 0.5], means, [np.eye(2), 0.5 * np.eye(2)])
    xs = model.sample(RngStream(3, (9,)), 2)
    assert len(built) == 1  # the guard sees a generator when one is built
    built.clear()
    sched = build_schedule("geometric", 0.05, 5.0, 50)
    cfg = FeatureConfig(timesteps=(5, 30), top_k=2, n_reps=4)
    pipeline.eigen_feature(model, xs[0], sched, cfg, seed=1, sample_id=0)
    pipeline.extract_features(model, xs, sched, cfg, seed=1, metric="mse")
    assert built == []
