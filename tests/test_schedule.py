import warnings

import numpy as np
import pytest

from eigenscore.errors import BadRangeError, IndexOutOfRangeError
from eigenscore.schedule import (
    build_schedule,
    default_timesteps,
    nearest_timestep,
    sigma_at,
    validate_timesteps,
)


def test_geometric_oracle():
    s = build_schedule("geometric", 0.01, 100.0, 5)
    assert np.allclose(s.sigmas, [0.01, 0.1, 1.0, 10.0, 100.0])


def test_linear_oracle():
    s = build_schedule("linear", 1.0, 3.0, 5)
    assert np.allclose(s.sigmas, [1.0, 1.5, 2.0, 2.5, 3.0])


def test_endpoints_exact():
    s = build_schedule("geometric", 0.02, 10.0, 1000)
    assert sigma_at(s, 1) == pytest.approx(0.02, rel=1e-12)
    assert sigma_at(s, 1000) == pytest.approx(10.0, rel=1e-12)


def test_strictly_increasing():
    for kind in ("geometric", "linear"):
        s = build_schedule(kind, 0.05, 5.0, 64)
        assert np.all(np.diff(s.sigmas) > 0.0)


def test_sigma_at_is_one_indexed():
    s = build_schedule("linear", 1.0, 2.0, 3)
    assert sigma_at(s, 1) == 1.0
    assert sigma_at(s, 2) == 1.5
    assert sigma_at(s, 3) == 2.0
    for t in (0, 4):
        with pytest.raises(IndexOutOfRangeError):
            sigma_at(s, t)


def test_sigmas_write_protected():
    s = build_schedule("linear", 1.0, 2.0, 3)
    with pytest.raises(ValueError):
        s.sigmas[0] = 5.0


def test_build_rejects_bad_args():
    with pytest.raises(BadRangeError):
        build_schedule("cosine", 0.1, 1.0, 10)
    with pytest.raises(BadRangeError):
        build_schedule("linear", 1.0, 0.5, 10)
    with pytest.raises(BadRangeError):
        build_schedule("linear", 0.0, 1.0, 10)
    with pytest.raises(BadRangeError):
        build_schedule("linear", 0.1, 1.0, 1)
    # an infinite sigma_max would give sigmas [sigma_min, inf, ...] or a NaN
    for kind in ("geometric", "linear"):
        for lo, hi in ((0.1, np.inf), (0.1, np.nan), (np.nan, 1.0)):
            with pytest.raises(BadRangeError, match="sigma_max < inf"):
                build_schedule(kind, lo, hi, 10)
    # finite bounds whose sigmas overflow float64, with no RuntimeWarning
    for kind, hi in (("geometric", 1e300), ("linear", 1.7e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadRangeError, match="overflow float64"):
                build_schedule(kind, 1e-10, hi, 5)


def test_validate_timesteps():
    s = build_schedule("linear", 0.1, 1.0, 10)
    assert validate_timesteps(s, [2, 5, 9]) == (2, 5, 9)
    with pytest.raises(BadRangeError):
        validate_timesteps(s, [])
    with pytest.raises(BadRangeError):
        validate_timesteps(s, [3, 3])
    with pytest.raises(BadRangeError):
        validate_timesteps(s, [5, 2])
    with pytest.raises(IndexOutOfRangeError):
        validate_timesteps(s, [1, 11])


def test_nearest_timestep():
    s = build_schedule("linear", 1.0, 3.0, 5)  # sigmas 1, 1.5, 2, 2.5, 3
    assert nearest_timestep(s, 1.6) == 2
    assert nearest_timestep(s, 100.0) == 5
    assert nearest_timestep(s, 0.001) == 1
    with pytest.raises(BadRangeError):
        nearest_timestep(s, 0.0)


def test_default_timesteps_for_default_schedule():
    s = build_schedule("geometric", 0.02, 10.0, 1000)
    ts = default_timesteps(s)
    assert ts == (518, 630, 695, 741, 777)
    targets = (0.5, 1.0, 1.5, 2.0, 2.5)
    for t, target in zip(ts, targets):
        # nearest grid point is within half a log step, about 0.31 percent
        assert sigma_at(s, t) == pytest.approx(target, rel=4e-3)


def test_default_timesteps_collapse_out_of_range():
    # a narrow schedule pushes all targets to the high end; duplicates drop
    s = build_schedule("linear", 0.01, 0.05, 8)
    ts = default_timesteps(s)
    assert ts == (8,)
