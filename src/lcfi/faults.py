"""Error-bounded fault models.

Errors are drawn in normalized units (|e| <= 1) and scaled by the configured
bound -- times |value| in relative mode -- so the compressor-style guarantee
|error| <= bound holds for every activation; apply_fault keeps it for the
rounded value the program sees. The normal shape defaults to
sigma = bound/3 and is resampled into the bound; empirical shapes come from
histogram files, read once when the fault type is parsed, and are sampled by
piecewise-linear inverse CDF.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ir.nodes import to_f32, wrap_int

_MASK64 = (1 << 64) - 1


class FaultError(Exception):
    pass


class FaultSpecError(FaultError):
    pass


class EmpiricalFileError(FaultError):
    pass


class NonFiniteValue(FaultError):
    pass


def mix64(*parts: int) -> int:
    """Combine integers into one 64-bit seed (splitmix64 finalizer per part)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h + (p & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


# The largest sigma / bound of a normal. Sampler.raw keeps a draw with
# probability erf(1 / (r * sqrt(2))): 8% at r = 10, where the kept shape is
# within 0.5% of flat, but one in 125,000 at r = 1e5, so a large r would
# stall a run.
MAX_SIGMA_RATIO = 10.0


@dataclass(frozen=True)
class FaultSpec:
    """What to inject: error-bound mode, distribution shape, and bound; an
    empirical spec carries its histogram."""

    mode: str                  # "absolute" | "relative"
    distribution: str          # "uniform" | "normal" | "empirical"
    bound: float
    sigma_ratio: float = 1.0 / 3.0
    histogram: EmpiricalDistribution | None = None

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise FaultSpecError(f"unknown mode {self.mode!r}")
        if self.distribution not in ("uniform", "normal", "empirical"):
            raise FaultSpecError(f"unknown distribution {self.distribution!r}")
        if not (self.bound > 0) or not math.isfinite(self.bound):
            raise FaultSpecError(f"bound must be a positive finite number, got {self.bound}")
        if self.distribution == "normal" and not (0 < self.sigma_ratio <= MAX_SIGMA_RATIO):
            raise FaultSpecError(
                f"sigma_ratio must be a positive number up to {MAX_SIGMA_RATIO:g}, got "
                f"{self.sigma_ratio}; for a flatter shape use uniform_abs or uniform_rel")
        if (self.distribution == "empirical") != (self.histogram is not None):
            raise FaultSpecError("a histogram is required for, and only for, "
                                 "the empirical distribution")

    @property
    def warnings(self) -> tuple[str, ...]:
        return self.histogram.warnings if self.histogram else ()


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Histogram over normalized error units: rows of (edge_low, edge_high,
    mass). Compares and hashes on its bins."""

    bins: tuple[tuple[float, float, float], ...]
    warnings: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        masses = np.array([b[2] for b in self.bins], dtype=float)
        total = masses.sum()
        if total <= 0:
            raise EmpiricalFileError("histogram has no mass")
        cum = np.cumsum(masses / total)
        cum[-1] = 1.0
        object.__setattr__(self, "warnings", (
            () if math.isclose(total, 1.0, rel_tol=1e-9) else
            (f"histogram mass {total:g} normalized to 1",)))
        object.__setattr__(self, "_lows", np.array([b[0] for b in self.bins]))
        object.__setattr__(self, "_highs", np.array([b[1] for b in self.bins]))
        object.__setattr__(self, "_cum", cum)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.bins) - 1)
        prev = np.where(idx > 0, self._cum[idx - 1], 0.0)
        frac = (u - prev) / (self._cum[idx] - prev)
        return self._lows[idx] + frac * (self._highs[idx] - self._lows[idx])


def load_empirical(path: str) -> EmpiricalDistribution:
    """Read a histogram file: one "edge_low edge_high mass" row per line."""
    bins = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise EmpiricalFileError(f"cannot read {path}: {e}") from e
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise EmpiricalFileError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            lo, hi, mass = (float(p) for p in parts)
        except ValueError as e:
            raise EmpiricalFileError(f"{path}:{lineno}: {e}") from e
        if not (lo < hi):
            raise EmpiricalFileError(f"{path}:{lineno}: edge_low must be below edge_high")
        if lo < -1.0 or hi > 1.0:
            raise EmpiricalFileError(
                f"{path}:{lineno}: support [{lo}, {hi}] outside normalized [-1, 1]")
        if mass < 0:
            raise EmpiricalFileError(f"{path}:{lineno}: negative mass")
        bins.append((lo, hi, mass))
    if not bins:
        raise EmpiricalFileError(f"{path}: no histogram rows")
    return EmpiricalDistribution(tuple(bins))


class Sampler:
    """Deterministic error stream for one (FaultSpec, seed) pair."""

    def __init__(self, spec: FaultSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed & _MASK64))

    def raw(self, n: int) -> np.ndarray:
        """n normalized draws, each within [-1, 1]."""
        spec = self.spec
        if spec.distribution == "uniform":
            return self._rng.uniform(-1.0, 1.0, n)
        if spec.distribution == "normal":
            out = self._rng.normal(0.0, spec.sigma_ratio, n)
            bad = np.abs(out) > 1.0
            while bad.any():
                out[bad] = self._rng.normal(0.0, spec.sigma_ratio, int(bad.sum()))
                bad = np.abs(out) > 1.0
            return out
        return spec.histogram.sample(self._rng, n)


def make_sampler(spec: FaultSpec, seed: int) -> Sampler:
    return Sampler(spec, seed)


def sample_error(sampler: Sampler, value: float) -> float:
    """One error for the given target value, honoring the spec's bound mode."""
    return float(sample_errors(sampler, value, 1)[0])


def sample_errors(sampler: Sampler, value: float, n: int) -> np.ndarray:
    """n errors for the given target value, honoring the spec's bound mode."""
    if not math.isfinite(value):
        raise NonFiniteValue(f"cannot perturb non-finite value {value!r}")
    raw = sampler.raw(n)
    if sampler.spec.mode == "absolute":
        return raw * sampler.spec.bound
    return raw * sampler.spec.bound * abs(value)


def draw_bound(spec: FaultSpec, value: float) -> float:
    """Largest |error| one draw for `value` may have: the product the draws
    are scaled by."""
    if spec.mode == "absolute":
        return spec.bound
    return spec.bound * abs(value)


_FLOAT_MAX = {"f32": float(np.finfo(np.float32).max), "f64": sys.float_info.max}


def _past(faulted: float, value, bound: float) -> bool:
    """Whether faulted lies more than `bound` from `value`, exactly. IEEE
    subtraction rounds monotonically and the bound is a float, so for a float
    `value` a rounded distance above or below the bound settles it; only a
    tie needs exact arithmetic."""
    gap = abs(faulted - value)
    if gap != bound and type(value) is float:
        return gap > bound
    return abs(Fraction(faulted) - Fraction(value)) > Fraction(bound)


def apply_fault(value, error: float, value_kind: str, bound: float):
    """Perturb a value so that it moves by at most `bound`.

    Float kinds add and re-round, saturate at the largest finite value of
    their width, then step one unit in the last place back toward `value` if
    rounding overshot the bound. Int kinds round the error half-to-even, clamp
    it to +-floor(bound) and wrap at the type width.
    """
    if value_kind in ("f32", "f64"):
        faulted = float(value) + error
        if value_kind == "f32":
            faulted = to_f32(faulted)
        if math.isinf(faulted) and math.isfinite(value):
            # The exact sum lies past the largest finite value, so that value
            # lies between it and `value`, within the bound.
            faulted = math.copysign(_FLOAT_MAX[value_kind], faulted)
        # One step suffices: the float next to the rounded sum, toward a
        # representable `value`, lies between `value` and the exact sum.
        if bound < math.inf and math.isfinite(faulted) and _past(faulted, value, bound):
            faulted = (math.nextafter(faulted, value) if value_kind == "f64" else
                       float(np.nextafter(np.float32(faulted), np.float32(value))))
        return faulted
    if value_kind in ("i32", "i64"):
        bits = 32 if value_kind == "i32" else 64
        delta = round(error)  # Python rounds halves to even
        if bound < math.inf:
            cap = math.floor(bound)
            delta = max(-cap, min(cap, delta))
        return wrap_int(int(value) + delta, bits)
    raise FaultError(f"cannot inject into value kind {value_kind!r}")


def _parse_bound(text: str) -> float:
    text = text.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError as e:
        raise FaultSpecError(f"bad bound {text!r}") from e


def parse_fault_type(text: str, base_dir: str = ".") -> FaultSpec:
    """Parse a fault-type string like "uniform_rel(10%)" or
    "empirical_abs(hist.txt, 0.1)" into a FaultSpec. An empirical type's
    histogram file is read here; a missing or malformed one raises
    EmpiricalFileError."""
    import os

    text = text.strip()
    m = text.find("(")
    if m < 0 or not text.endswith(")"):
        raise FaultSpecError(f"expected name(args), got {text!r}")
    name = text[:m].strip()
    args = [a.strip() for a in text[m + 1:-1].split(",")] if text[m + 1:-1].strip() else []

    def expect_args(lo: int, hi: int):
        if not (lo <= len(args) <= hi):
            raise FaultSpecError(f"{name} takes {lo}..{hi} arguments, got {len(args)}")

    if name in ("uniform_abs", "uniform_rel"):
        expect_args(1, 1)
        mode = "absolute" if name.endswith("_abs") else "relative"
        return FaultSpec(mode, "uniform", _parse_bound(args[0]))
    if name in ("normal_abs", "normal_rel"):
        expect_args(1, 2)
        mode = "absolute" if name.endswith("_abs") else "relative"
        ratio = _parse_bound(args[1]) if len(args) == 2 else 1.0 / 3.0
        return FaultSpec(mode, "normal", _parse_bound(args[0]), sigma_ratio=ratio)
    if name in ("empirical_abs", "empirical_rel"):
        expect_args(2, 2)
        mode = "absolute" if name.endswith("_abs") else "relative"
        path = args[0]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return FaultSpec(mode, "empirical", _parse_bound(args[1]),
                         histogram=load_empirical(path))
    raise FaultSpecError(f"unknown fault type {name!r}")
