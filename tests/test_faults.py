import math
import pickle
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcfi.faults import (EmpiricalFileError, FaultError, FaultSpec,
                         FaultSpecError, NonFiniteValue, Sampler, apply_fault,
                         load_empirical, mix64, parse_fault_type, sample_error,
                         sample_errors)
from lcfi.ir.nodes import to_f32

from conftest import fixture_path


class TestMix64:
    def test_published_splitmix64_vectors(self):
        # single-part mixing must agree with the splitmix64 reference stream
        assert mix64(0) == 0xE220A8397B1DCDAF
        assert mix64(1) == 0x910A2DEC89025CC1

    def test_independent_reimplementation(self):
        mask = (1 << 64) - 1

        def oracle(*parts):
            h = 0x9E3779B97F4A7C15
            for p in parts:
                h = (h + (p & mask)) & mask
                h ^= h >> 30
                h = (h * 0xBF58476D1CE4E5B9) & mask
                h ^= h >> 27
                h = (h * 0x94D049BB133111EB) & mask
                h ^= h >> 31
            return h

        rng = np.random.default_rng(11)
        for _ in range(50):
            parts = tuple(int(x) for x in rng.integers(0, 1 << 63, size=3))
            assert mix64(*parts) == oracle(*parts)

    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_negative_parts_masked(self):
        assert mix64(-1) == mix64((1 << 64) - 1)


class TestSpecValidation:
    def test_bad_mode(self):
        with pytest.raises(FaultSpecError):
            FaultSpec("sideways", "uniform", 1.0)

    def test_bad_distribution(self):
        with pytest.raises(FaultSpecError):
            FaultSpec("absolute", "triangular", 1.0)

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_bad_bound(self, bound):
        with pytest.raises(FaultSpecError):
            FaultSpec("absolute", "uniform", bound)

    def test_bad_sigma_ratio(self):
        with pytest.raises(FaultSpecError):
            FaultSpec("absolute", "normal", 1.0, sigma_ratio=0.0)

    @pytest.mark.parametrize("dist,histogram", [
        ("empirical", None),
        ("uniform", load_empirical(fixture_path("hist_sym.txt"))),
    ])
    def test_histogram_only_and_always_for_empirical(self, dist, histogram):
        with pytest.raises(FaultSpecError, match="histogram"):
            FaultSpec("absolute", dist, 1.0, histogram=histogram)


class TestDistributionShapes:
    def test_uniform_ks(self):
        s = Sampler(FaultSpec("absolute", "uniform", 1.0), seed=mix64(3))
        x = np.sort(s.raw(20_000))
        n = len(x)
        cdf = (x + 1.0) / 2.0
        ks = max(np.max(np.arange(1, n + 1) / n - cdf),
                 np.max(cdf - np.arange(n) / n))
        assert ks < 0.02

    def test_truncated_normal_moments(self):
        # oracle: N(0, 1/3) conditioned on |x| <= 1, moments via erf
        sigma = 1.0 / 3.0
        alpha = 1.0 / sigma
        phi = math.exp(-alpha * alpha / 2) / math.sqrt(2 * math.pi)
        z = math.erf(alpha / math.sqrt(2))
        true_std = sigma * math.sqrt(1 - 2 * alpha * phi / z)

        s = Sampler(FaultSpec("absolute", "normal", 1.0), seed=mix64(4))
        x = s.raw(200_000)
        assert np.all(np.abs(x) <= 1.0)
        assert abs(float(np.mean(x))) < 5e-3
        assert abs(float(np.std(x)) - true_std) < 0.01 * true_std

    def test_custom_sigma_ratio(self):
        spec = FaultSpec("absolute", "normal", 1.0, sigma_ratio=0.05)
        x = Sampler(spec, seed=mix64(6)).raw(100_000)
        # effectively no clipping at 20 sigma, so the sample std is sigma
        assert abs(float(np.std(x)) - 0.05) < 0.002


class TestEmpirical:
    def test_symmetric_histogram(self):
        dist = load_empirical(fixture_path("hist_sym.txt"))
        rng = np.random.default_rng(9)
        x = dist.sample(rng, 100_000)
        assert np.all((x >= -1.0) & (x <= 1.0))
        assert abs(float(np.mean(x))) < 0.01
        # piecewise-linear inverse CDF: uniform inside each bin
        assert abs(float(np.mean(x <= 0.0)) - 0.5) < 0.01
        assert abs(float(np.mean(x <= -0.5)) - 0.25) < 0.01

    def test_single_bin_histogram(self):
        dist = load_empirical(fixture_path("hist_push.txt"))
        rng = np.random.default_rng(10)
        x = dist.sample(rng, 50_000)
        assert np.all((x >= 0.92) & (x <= 1.0))
        assert abs(float(np.mean(x)) - 0.96) < 0.002

    def test_mass_normalized_with_warning(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("-1 0 1.0\n0 1 3.0\n")
        dist = load_empirical(str(p))
        assert any("normalized" in w for w in dist.warnings)
        rng = np.random.default_rng(12)
        x = dist.sample(rng, 40_000)
        assert abs(float(np.mean(x <= 0.0)) - 0.25) < 0.01

    def test_compares_and_hashes_on_its_bins(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text(Path(fixture_path("hist_sym.txt")).read_text())
        a, b = load_empirical(fixture_path("hist_sym.txt")), load_empirical(str(p))
        assert a == b and hash(a) == hash(b)
        assert a != load_empirical(fixture_path("hist_push.txt"))
        spec = FaultSpec("absolute", "empirical", 0.5, histogram=a)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(FaultSpec("absolute", "empirical", 0.5, histogram=b))

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("# header\n\n-1 1 1.0  # body\n")
        assert load_empirical(str(p)).bins == ((-1.0, 1.0, 1.0),)

    @pytest.mark.parametrize("body,fragment", [
        ("-1 1\n", "expected 3 fields"),
        ("-1 1 x\n", "could not convert"),
        ("0.5 0.5 1\n", "edge_low must be below"),
        ("-2 0 1\n", "outside normalized"),
        ("0 1 -1\n", "negative mass"),
        ("0 1 0\n", "no mass"),
        ("# only comments\n", "no histogram rows"),
    ])
    def test_malformed_files(self, tmp_path, body, fragment):
        p = tmp_path / "h.txt"
        p.write_text(body)
        with pytest.raises(EmpiricalFileError, match=fragment):
            load_empirical(str(p))

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("-1 0 0.5\n0 2 0.5\n")
        with pytest.raises(EmpiricalFileError, match=r"h\.txt:2"):
            load_empirical(str(p))

    def test_missing_file(self):
        with pytest.raises(EmpiricalFileError, match="cannot read"):
            load_empirical("/nonexistent/h.txt")


class TestSampling:
    def test_deterministic_stream(self):
        spec = FaultSpec("relative", "normal", 0.5)
        a = Sampler(spec, seed=99).raw(64)
        b = Sampler(spec, seed=99).raw(64)
        assert np.array_equal(a, b)
        c = Sampler(spec, seed=100).raw(64)
        assert not np.array_equal(a, c)

    def test_scalar_matches_batch(self):
        spec = FaultSpec("relative", "uniform", 0.5)
        s1, s2 = Sampler(spec, seed=7), Sampler(spec, seed=7)
        singles = [sample_error(s1, 3.0) for _ in range(8)]
        batch = sample_errors(s2, 3.0, 8)
        assert np.allclose(singles, batch, rtol=0, atol=0)

    def test_relative_scaling(self):
        spec = FaultSpec("relative", "uniform", 0.1)
        s = Sampler(spec, seed=13)
        errs = sample_errors(s, -40.0, 1000)
        assert np.all(np.abs(errs) <= 0.1 * 40.0)
        assert sample_error(Sampler(spec, seed=13), 0.0) == 0.0

    def test_non_finite_value_rejected(self):
        s = Sampler(FaultSpec("relative", "uniform", 1.0), seed=1)
        for v in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteValue):
                sample_error(s, v)

    @pytest.mark.parametrize("dist,kwargs", [
        ("uniform", {}),
        ("normal", {}),
        ("empirical", {"histogram": load_empirical(fixture_path("hist_sym.txt"))}),
    ])
    @pytest.mark.parametrize("mode,bound", [
        ("absolute", 0.01), ("absolute", 1.0), ("relative", 0.1)])
    def test_bound_always_respected(self, dist, kwargs, mode, bound):
        spec = FaultSpec(mode, dist, bound, **kwargs)
        s = Sampler(spec, seed=mix64(hash((dist, mode)) & ((1 << 63) - 1)))
        value = 7.25
        errs = sample_errors(s, value, 20_000)
        limit = bound if mode == "absolute" else bound * abs(value)
        assert np.all(np.abs(errs) <= limit)


class TestApplyFault:
    def test_f64_reproduces_frozen_faulty_trace_value(self):
        target_bits = 0x4014E8D25119F5E3
        faulty = struct.unpack(">d", target_bits.to_bytes(8, "big"))[0]
        err = faulty - 4.0
        got = apply_fault(4.0, err, "f64", math.inf)
        assert struct.unpack(">Q", struct.pack(">d", got))[0] == target_bits

    def test_f32_rounds_to_single_precision(self):
        got = apply_fault(1.5, 0.1, "f32", math.inf)
        assert got == struct.unpack("f", struct.pack("f", 1.6))[0]
        assert got != 1.6  # double 1.6 is not representable in f32

    @pytest.mark.parametrize("value,error,expected", [
        (10, 0.5, 10),    # half to even: round(0.5) == 0
        (10, 1.5, 12),
        (10, 2.5, 12),
        (10, -0.5, 10),
        (10, -1.5, 8),
        (10, 0.4999, 10),
        (10, 3.0, 13),
    ])
    def test_int_rounding(self, value, error, expected):
        assert apply_fault(value, error, "i32", math.inf) == expected

    def test_i32_wraps(self):
        assert apply_fault(2**31 - 1, 1.0, "i32", math.inf) == -(2**31)
        assert apply_fault(-(2**31), -1.0, "i32", math.inf) == 2**31 - 1

    def test_i64_wraps(self):
        assert apply_fault(2**63 - 1, 1.0, "i64", math.inf) == -(2**63)

    def test_unknown_kind(self):
        with pytest.raises(FaultError):
            apply_fault(1, 1.0, "i8", math.inf)

    @given(st.floats(min_value=-1e12, max_value=1e12),
           st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=200)
    def test_f64_is_plain_addition(self, value, error):
        assert apply_fault(value, error, "f64", math.inf) == value + error

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1),
           st.floats(min_value=-1e9, max_value=1e9))
    @settings(max_examples=200)
    def test_i32_stays_in_range(self, value, error):
        got = apply_fault(value, error, "i32", math.inf)
        assert -(2**31) <= got <= 2**31 - 1


def _ulp(value, kind: str) -> float:
    if kind == "f32":
        with np.errstate(over="ignore"):  # the spacing above FLT_MAX is inf
            return float(np.spacing(np.float32(abs(value))))
    return math.ulp(value) if kind == "f64" else 1.0


_KIND_VALUES = {
    "i32": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "i64": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "f32": st.floats(width=32, allow_nan=False, allow_infinity=False),
    "f64": st.floats(allow_nan=False, allow_infinity=False),
}


def _exact_apply_fault(value: float, error: float, kind: str, bound: float) -> float:
    """apply_fault on a float kind with its bound checked in exact
    arithmetic on every call."""
    from fractions import Fraction
    faulted = value + error
    if kind == "f32":
        faulted = to_f32(faulted)
    if math.isinf(faulted):
        faulted = math.copysign(float(np.finfo(np.float32 if kind == "f32"
                                               else np.float64).max), faulted)
    if abs(Fraction(faulted) - Fraction(value)) > Fraction(bound):
        faulted = (math.nextafter(faulted, value) if kind == "f64" else
                   float(np.nextafter(np.float32(faulted), np.float32(value))))
    return faulted


def _nudged_distance(value: float, error: float, kind: str, nudge: int) -> float:
    """The rounded distance that apply_fault without a bound moves `value`
    by, or the float next to it below (nudge -1) or above (+1)."""
    tie = abs(apply_fault(value, error, kind, math.inf) - value)
    return tie if nudge == 0 else math.nextafter(tie, nudge * math.inf)


def _check_exact(value: float, error: float, kind: str, bound: float) -> None:
    got = apply_fault(value, error, kind, bound)
    assert struct.pack(">d", got) == struct.pack(">d", _exact_apply_fault(
        value, error, kind, bound))


class TestRealizedBound:
    """The value the program sees stays within the bound, not just the draw."""

    @pytest.mark.parametrize("kind", ["i32", "i64", "f32", "f64"])
    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    @given(data=st.data(), raw=st.floats(min_value=-1.0, max_value=1.0),
           ulps=st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=200, deadline=None)
    def test_faulted_value_within_bound(self, kind, mode, data, raw, ulps):
        from fractions import Fraction

        from lcfi.faults import draw_bound
        value = data.draw(_KIND_VALUES[kind])
        # bounds near one unit in the last place are where rounding can overshoot
        bound = ulps * _ulp(value, kind)
        if mode == "relative" and value != 0:
            bound /= abs(value)
        if not (0 < bound < math.inf):
            return
        spec = FaultSpec(mode, "uniform", bound)
        limit = bound if mode == "absolute" else bound * abs(value)
        assert draw_bound(spec, value) == limit
        error = raw * bound if mode == "absolute" else raw * bound * abs(value)
        faulted = apply_fault(value, error, kind, limit)
        if kind.startswith("i"):
            bits = int(kind[1:])
            assert -(2**(bits - 1)) <= faulted < 2**(bits - 1)
            delta = (faulted - value + 2**(bits - 1)) % 2**bits - 2**(bits - 1)
            assert abs(delta) <= limit
        else:
            assert abs(Fraction(faulted) - Fraction(value)) <= Fraction(limit)

    def test_normal_bound_is_the_scaled_bound(self):
        from lcfi.faults import draw_bound
        assert draw_bound(FaultSpec("relative", "normal", 0.5), -4.0) == 2.0

    @pytest.mark.parametrize("value,error,bound,expected", [
        (10, 1.6, 1.7, 11),    # round(1.6) == 2 would break the bound
        (10, -1.6, 1.7, 9),
        (10, 2.5, 2.5, 12),    # half to even stays within a bound of 2.5
        (10, 0.5, 0.7, 10),
    ])
    def test_int_delta_clamped(self, value, error, bound, expected):
        assert apply_fault(value, error, "i32", bound) == expected

    def test_f32_sub_ulp_bound_steps_back(self):
        one_ulp = float(np.spacing(np.float32(1.0)))
        # 0.55 ulp rounds to 1 ulp, beyond a bound of 0.6 ulp
        got = apply_fault(1.0, 0.55 * one_ulp, "f32", 0.6 * one_ulp)
        assert got == 1.0
        assert apply_fault(1.0, 0.55 * one_ulp, "f32", math.inf) == 1.0 + one_ulp

    @pytest.mark.parametrize("kind", ["f32", "f64"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sum_past_largest_finite_saturates(self, kind, sign):
        top = float(np.finfo(np.float32 if kind == "f32" else np.float64).max)
        got = apply_fault(sign * top, sign * top / 2, kind, top / 2)
        assert got == sign * top

    @pytest.mark.parametrize("kind", ["f32", "f64"])
    @given(data=st.data(), error=st.floats(allow_nan=False, allow_infinity=False),
           nudge=st.sampled_from([-1, 0, 1, None]))
    @settings(max_examples=300, deadline=None)
    def test_bound_check_matches_exact_arithmetic(self, kind, data, error, nudge):
        """apply_fault decides from the rounded distance unless it ties the
        bound; that gives what checking every bound exactly gives. Bounds are
        the rounded distance itself (a tie), the floats next to it, or
        random."""
        value = data.draw(_KIND_VALUES[kind])
        if nudge is None:
            bound = data.draw(st.floats(min_value=0.0, exclude_min=True,
                                        allow_infinity=False))
        else:
            bound = _nudged_distance(value, error, kind, nudge)
        if 0 < bound < math.inf:
            _check_exact(value, error, kind, bound)

    @pytest.mark.parametrize("kind,value,error", [
        ("f64", 1.0, 1e300),  # the distance 1e300 - 1 rounds to 1e300
        ("f64", -3.0, 2.0 ** 60),
        ("f64", 1e-300, -1.0),
        ("f32", 1.0, 1e30),
        ("f32", 2.0 ** -100, -1e10),
    ])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_ties_of_an_inexact_distance(self, kind, value, error, nudge):
        """The rounded distance is not the exact one, so only exact
        arithmetic tells the tie apart."""
        from fractions import Fraction
        reached = apply_fault(value, error, kind, math.inf)
        assert abs(reached - value) != abs(Fraction(reached) - Fraction(value))
        _check_exact(value, error, kind, _nudged_distance(value, error, kind, nudge))


class TestParseFaultType:
    def test_uniform(self):
        spec = parse_fault_type("uniform_abs(0.5)")
        assert (spec.mode, spec.distribution, spec.bound) == ("absolute", "uniform", 0.5)
        spec = parse_fault_type("uniform_rel(10%)")
        assert (spec.mode, spec.bound) == ("relative", 0.1)

    def test_normal_default_and_explicit_ratio(self):
        spec = parse_fault_type("normal_abs(2.0)")
        assert spec.sigma_ratio == pytest.approx(1.0 / 3.0)
        spec = parse_fault_type("normal_rel(1.0, 0.25)")
        assert spec.sigma_ratio == 0.25

    def test_empirical_path_resolution(self, tmp_path):
        (tmp_path / "h.txt").write_text("-1 0 1\n")
        (tmp_path / "abs.txt").write_text("0 1 1\n")
        spec = parse_fault_type("empirical_abs(h.txt, 0.1)", base_dir=str(tmp_path))
        assert spec.histogram.bins == ((-1.0, 0.0, 1.0),)
        spec = parse_fault_type(f"empirical_rel({tmp_path}/abs.txt, 1%)",
                                base_dir="/nonexistent")
        assert spec.histogram.bins == ((0.0, 1.0, 1.0),)
        assert spec.bound == 0.01

    def test_seed_salt_carried(self):
        assert parse_fault_type("uniform_abs(1)", seed_salt=42).seed_salt == 42

    def test_whitespace_tolerated(self):
        spec = parse_fault_type("  normal_abs( 1.0 , 0.5 )  ")
        assert spec.sigma_ratio == 0.5

    @pytest.mark.parametrize("text", [
        "uniform_abs",
        "uniform_abs(",
        "wibble(1)",
        "uniform_abs()",
        "uniform_abs(x)",
        "uniform_abs(1, 2)",
        "normal_abs(1, 2, 3)",
        "empirical_abs(h.txt)",
        "uniform_abs(0)",
        "uniform_abs(-1)",
        "normal_abs(1, nan)",
        "normal_abs(1, inf)",
        "normal_abs(1, 11)",  # past 10, most draws of the normal are rejected
        "normal_abs(1, 1e9)",
        "custom(x, 1)",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FaultSpecError):
            parse_fault_type(text)

    def test_missing_empirical_file_fails_at_parse(self):
        with pytest.raises(EmpiricalFileError):
            parse_fault_type("empirical_abs(missing.txt, 1)", base_dir="/nonexistent")
