"""Noise level schedules indexed by integer timestep.

Timesteps are 1-indexed: t runs from 1 to t_max and sigma is strictly
increasing in t.  The noise model throughout is additive, x_t = x + sigma_t z
with z standard normal, so sigma is the only schedule quantity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRangeError, IndexOutOfRangeError

KINDS = ("geometric", "linear")

# Default sigma targets for feature timesteps; see default_timesteps().
DEFAULT_SIGMA_TARGETS = (0.5, 1.0, 1.5, 2.0, 2.5)


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str
    sigma_min: float
    sigma_max: float
    t_max: int
    sigmas: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "t_max": self.t_max,
        }


def build_schedule(kind: str, sigma_min: float, sigma_max: float, t_max: int) -> NoiseSchedule:
    """Construct a schedule with t_max levels from sigma_min to sigma_max.

    geometric: sigma_t = sigma_min * (sigma_max/sigma_min)^((t-1)/(t_max-1))
    linear:    sigma_t = sigma_min + (t-1) * (sigma_max-sigma_min)/(t_max-1)
    """
    if kind not in KINDS:
        raise BadRangeError(f"unknown schedule kind {kind!r}, expected one of {KINDS}")
    if not (0.0 < sigma_min < sigma_max < np.inf):
        raise BadRangeError(
            f"need 0 < sigma_min < sigma_max < inf, got ({sigma_min}, {sigma_max})"
        )
    if t_max < 2:
        raise BadRangeError(f"t_max must be >= 2, got {t_max}")
    t = np.arange(t_max, dtype=float)
    with np.errstate(over="ignore"):
        if kind == "geometric":
            sigmas = sigma_min * (sigma_max / sigma_min) ** (t / (t_max - 1))
        else:
            sigmas = sigma_min + t * (sigma_max - sigma_min) / (t_max - 1)
    if not np.isfinite(sigmas).all():
        raise BadRangeError(f"sigmas from {sigma_min} to {sigma_max} overflow float64")
    sigmas.setflags(write=False)
    return NoiseSchedule(kind, float(sigma_min), float(sigma_max), int(t_max), sigmas)


def sigma_at(schedule: NoiseSchedule, t: int) -> float:
    """Noise level at 1-indexed timestep t."""
    if not 1 <= t <= schedule.t_max:
        raise IndexOutOfRangeError(f"t={t} outside [1, {schedule.t_max}]")
    return float(schedule.sigmas[t - 1])


def validate_timesteps(schedule: NoiseSchedule, timesteps) -> tuple[int, ...]:
    """Check a timestep selection: non-empty, strictly increasing, in range."""
    ts = tuple(int(t) for t in timesteps)
    if not ts:
        raise BadRangeError("timestep selection must be non-empty")
    for t in ts:
        if not 1 <= t <= schedule.t_max:
            raise IndexOutOfRangeError(f"t={t} outside [1, {schedule.t_max}]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise BadRangeError(f"timesteps must be strictly increasing, got {ts}")
    return ts


def nearest_timestep(schedule: NoiseSchedule, sigma: float) -> int:
    """1-indexed timestep whose sigma is closest to the target."""
    if sigma <= 0:
        raise BadRangeError(f"sigma must be positive, got {sigma}")
    return int(np.argmin(np.abs(schedule.sigmas - sigma))) + 1


def default_timesteps(schedule: NoiseSchedule) -> tuple[int, ...]:
    """Default feature timesteps: indices nearest sigma = 0.5, 1, ..., 2.5.

    Targets outside the schedule range collapse to the endpoints; duplicates
    are dropped so the result is strictly increasing.
    """
    seen: list[int] = []
    for target in DEFAULT_SIGMA_TARGETS:
        t = nearest_timestep(schedule, target)
        if t not in seen:
            seen.append(t)
    return validate_timesteps(schedule, sorted(seen))
