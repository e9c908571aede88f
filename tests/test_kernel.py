"""Tests for the kernel symbol evaluations.

The high-precision reference lives here (50-digit mpmath), never in the
shipping library.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from mhdlab import kernel as kr

mp.mp.dps = 50


def mp_sinch(z, t):
    z, t = mp.mpf(z), mp.mpf(t)
    if z == 0:
        return t
    s = mp.sqrt(abs(z))
    return mp.sinh(t * s) / s if z > 0 else mp.sin(t * s) / s


def mp_coshc(z, t):
    z, t = mp.mpf(z), mp.mpf(t)
    if z == 0:
        return mp.mpf(1)
    s = mp.sqrt(abs(z))
    return mp.cosh(t * s) if z > 0 else mp.cos(t * s)


def mp_dd(fam, b, c, t):
    f = mp_sinch if fam == "sinch" else mp_coshc
    b, c, t = mp.mpf(b), mp.mpf(c), mp.mpf(t)
    if c == 0:
        eps = mp.mpf("1e-30") * (1 + abs(b))
        return (f(b + eps, t) - f(b - eps, t)) / (2 * eps)
    return (f(b + c, t) - f(b - c, t)) / (2 * c)


def mp_k_hat(t, xi, eta):
    a2 = mp.mpf(xi) ** 2 + mp.mpf(eta) ** 2
    A = mp.sqrt(a2)
    b = a2 * a2 / 4 - a2
    c = A * abs(mp.mpf(eta))
    return mp.e ** (-a2 * mp.mpf(t) / 2) * mp_dd("sinch", b, c, t)


def mp_k1_hat(t, xi, eta):
    a2 = mp.mpf(xi) ** 2 + mp.mpf(eta) ** 2
    A = mp.sqrt(a2)
    b = a2 * a2 / 4 - a2
    c = A * abs(mp.mpf(eta))
    return mp.e ** (-a2 * mp.mpf(t) / 2) * (mp_coshc(b + c, t) + mp_coshc(b - c, t)) / 2


class TestSinchCoshc:
    def test_sinch_at_zero_argument(self):
        assert kr._undamped(0.0, 2.5, 0) == 2.5

    def test_sinch_sin_zero(self):
        assert abs(kr._undamped(-math.pi**2, 1.0, 0)) < 1e-15

    def test_sinch_positive(self):
        assert kr._undamped(1.0, 1.0, 0) == pytest.approx(math.sinh(1.0), rel=1e-14)

    def test_coshc_at_t_zero(self):
        assert kr._undamped(7.3, 0.0, 1) == 1.0

    def test_coshc_cos_pi(self):
        assert kr._undamped(-math.pi**2, 1.0, 1) == pytest.approx(-1.0, rel=1e-14)

    def test_coshc_positive(self):
        assert kr._undamped(4.0, 0.5, 1) == pytest.approx(math.cosh(1.0), rel=1e-14)

    def test_nan_argument_gives_nan(self):
        # a NaN z fails both branch tests, falls to the positive branch and
        # gives NaN, never the contents of uninitialized memory
        assert math.isnan(kr._undamped(math.nan, 1.0, 0))
        assert math.isnan(kr._undamped(math.nan, 1.0, 1))
        kv = kr.kernel_values(1.0, np.array([math.nan, 1.0]), 0.5)
        assert all(math.isnan(getattr(kv, f)[0]) for f in kr.KERNEL_FIELDS)

    def test_against_high_precision(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            t = 10.0 ** rng.uniform(-2, 3)
            z = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, 6)
            if t * math.sqrt(abs(z)) > 600:
                continue
            got_g, got_h = kr._undamped(z, t, 0), kr._undamped(z, t, 1)
            ref_g, ref_h = float(mp_sinch(z, t)), float(mp_coshc(z, t))
            # oscillatory branch tolerance is absolute in the t-scale
            tol_g = 1e-13 * (abs(ref_g) + (1.0 + t if z < 0 else 0.0))
            tol_h = 1e-13 * (abs(ref_h) + (1.0 if z < 0 else 0.0))
            assert abs(got_g - ref_g) <= tol_g
            assert abs(got_h - ref_h) <= tol_h

    def test_branch_continuity_at_threshold(self):
        # at |z| t^2 = 1e-2 the truncated series and the transcendental form
        # must agree (same point, both representations)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            t = 10.0 ** rng.uniform(-2, 2)
            z = rng.choice([-1.0, 1.0]) * 1e-2 / t**2
            x = z * t * t
            series = t * (1.0 + x / 6.0 * (1.0 + x / 20.0 * (1.0 + x / 42.0 * (1.0 + x / 72.0))))
            s = math.sqrt(abs(z))
            transc = math.sinh(t * s) / s if z > 0 else math.sin(t * s) / s
            assert abs(series - transc) <= 1e-12 * (1.0 + abs(transc))
            # and the shipped function agrees with both
            assert abs(kr._undamped(z, t, 0) - transc) <= 1e-12 * (1.0 + abs(transc))


class TestDividedDiff:
    """The divided difference (f(b+c,t) - f(b-c,t)) / (2c) of the kernel, undamped."""

    def test_limit_is_derivative_sinch(self):
        t = 2.0
        got = float(kr._dd_damped("sinch", 0.0, 0.0, t, 0.0))
        assert got == pytest.approx(t**3 / 6.0, rel=1e-14)

    def test_limit_is_derivative_coshc(self):
        t = 2.0
        got = float(kr._dd_damped("coshc", 0.0, 0.0, t, 0.0))
        assert got == pytest.approx(t**2 / 2.0, rel=1e-14)

    def test_matches_naive_two_point_when_c_large(self):
        b, c, t = -0.75, 0.3, 1.0
        naive = (kr._undamped(b + c, t, 0) - kr._undamped(b - c, t, 0)) / (2 * c)
        assert float(kr._dd_damped("sinch", b, c, t, 0.0)) == pytest.approx(naive, rel=1e-11)

    @pytest.mark.parametrize("fam", ["sinch", "coshc"])
    def test_against_high_precision(self, fam):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(600):
            t = 10.0 ** rng.uniform(-2, 3)
            b = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-8, 2)
            c = 10.0 ** rng.uniform(-12, 2)
            if t * math.sqrt(abs(b) + c) > 600:
                continue
            got = float(kr._dd_damped(fam, b, c, t, 0.0))
            ref = float(mp_dd(fam, b, c, t))
            if abs(ref) < 1e-280:
                continue
            checked += 1
            assert abs(got - ref) <= 1e-11 * abs(ref) + 1e-280
        assert checked > 300

    def test_series_stop_keeps_the_bits_of_48_terms(self):
        def all_48_terms(orders, b, t):
            term = np.array([t ** (2 * j + 1) for j in orders])
            for row, j in zip(term, orders):
                for i in range(1, 2 * j + 2):
                    row /= i
                for i in range(1, j + 1):
                    row *= i
            k = np.arange(48.0)
            m = k + np.array(orders, dtype=float)[:, None] + 1.0
            total = np.zeros_like(term)
            for ratio in (m / ((k + 1.0) * (2.0 * m) * (2.0 * m + 1.0))).T:
                total += term
                term *= t * t
                term *= b
                term *= ratio[:, None]
            return total

        rng = np.random.default_rng(8)
        for _ in range(100):
            t = 10.0 ** rng.uniform(-3, 3, 300)
            scale = rng.choice([1.0, 1e-4, 1e-12, 0.0], 300)
            b = rng.uniform(-1.0, 1.0, 300) * scale * kr._DD_SMALL_BT2 / t**2
            orders = sorted(rng.choice(8, rng.integers(1, 5), replace=False).tolist())
            got = kr._sinch_series(orders, b, t)
            assert got.tobytes() == all_48_terms(orders, b, t).tobytes()


class TestKernelSymbols:
    def test_k_vanishes_at_t_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi, eta = rng.uniform(-20, 20, 2)
            assert kr.k_hat(0.0, xi, eta) == 0.0

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_k_zero_mode_is_cubic(self, t):
        assert kr.k_hat(t, 0.0, 0.0) == pytest.approx(t**3 / 6.0, rel=1e-12)

    def test_k1_is_one_at_t_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi, eta = rng.uniform(-20, 20, 2)
            assert kr.k1_hat(0.0, xi, eta) == 1.0

    def test_k1_zero_mode(self):
        assert kr.k1_hat(5.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_k_hat_high_precision_point(self):
        got = kr.k_hat(1.0, 3.0, 4.0)
        ref = float(mp_k_hat(1.0, 3.0, 4.0))
        assert got == pytest.approx(ref, rel=1e-11)

    def test_k1_hat_high_precision_point(self):
        got = kr.k1_hat(1.0, 3.0, 4.0)
        ref = float(mp_k1_hat(1.0, 3.0, 4.0))
        assert got == pytest.approx(ref, rel=1e-11)

    def test_k_hat_high_precision_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            xi = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-4, 3)
            eta = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-4, 3)
            t = 10.0 ** rng.uniform(-2, 3)
            ref = float(mp_k_hat(t, xi, eta))
            if abs(ref) < 1e-290:
                continue
            assert kr.k_hat(t, xi, eta) == pytest.approx(ref, rel=5e-11)

    def test_c_zero_series_path_matches_limit(self):
        # eta -> 0 along 2^-j: first-order convergence in eta^2 to the
        # on-axis value
        t, xi = 1.0, 1.0
        base = kr.k_hat(t, xi, 0.0)
        errs = [abs(kr.k_hat(t, xi, 2.0**-j) - base) for j in range(6, 12)]
        rates = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(3.0 < r < 5.0 for r in rates)

    def test_on_axis_value_is_derivative(self):
        t, xi = 1.0, 1.0
        b = 0.25 * xi**4 - xi**2
        ref = math.exp(-0.5 * xi**2 * t) * float(mp_dd("sinch", b, 0.0, t))
        assert kr.k_hat(t, xi, 0.0) == pytest.approx(ref, rel=1e-11)


class TestKernelValues:
    def test_t_zero_assembly(self):
        kv = kr.kernel_values(0.0, 1.7, -2.2)
        assert kv.K == 0.0 and kv.dtK == 0.0 and kv.ddtK == 0.0
        assert kv.comp == 0.0 and kv.comp_x == 0.0
        assert kv.K1 == 1.0 and kv.dt_comp == 1.0

    def test_comp_x_identity_exact(self):
        rng = np.random.default_rng(2)
        xi, eta = rng.uniform(-8, 8, (2, 128))
        kv = kr.kernel_values(1.3, xi, eta)
        assert np.array_equal(kv.comp_x, kv.comp - eta**2 * kv.K)

    def test_dt_comp_identity(self):
        # dt_comp = -(A^2/2) comp + K1 on a random scan
        rng = np.random.default_rng(4)
        xi = rng.uniform(-10, 10, 10000)
        eta = rng.uniform(-10, 10, 10000)
        t = 10.0 ** rng.uniform(-2, 2, 10000)
        kv = kr.kernel_values(t, xi, eta)
        a2 = xi**2 + eta**2
        resid = kv.dt_comp - (-0.5 * a2 * kv.comp + kv.K1)
        scale = np.abs(kv.dt_comp) + np.abs(kv.K1) + 1e-300
        assert np.max(np.abs(resid) / scale) <= 1e-10

    def test_all_values_real_and_finite(self):
        rng = np.random.default_rng(6)
        xi = rng.uniform(-50, 50, 2000)
        eta = rng.uniform(-50, 50, 2000)
        kv = kr.kernel_values(3.0, xi, eta)
        for name in ("K", "K1", "dtK", "ddtK", "comp", "comp_x", "dt_comp", "ddt_comp"):
            vals = getattr(kv, name)
            assert vals.dtype == np.float64
            assert np.all(np.isfinite(vals))

    def _fd(self, fn, t, h=1e-5):
        return (fn(t + h) - fn(t - h)) / (2 * h)

    @pytest.mark.parametrize("xi,eta", [(0.7, -1.3), (3.0, 0.2), (0.05, 0.02)])
    def test_time_derivatives_by_finite_differences(self, xi, eta):
        t = 1.7
        kv = lambda tt: kr.kernel_values(tt, xi, eta)
        assert self._fd(lambda s: kv(s).K, t) == pytest.approx(kv(t).dtK, rel=1e-7, abs=1e-9)
        assert self._fd(lambda s: kv(s).dtK, t) == pytest.approx(kv(t).ddtK, rel=1e-6, abs=1e-8)
        assert self._fd(lambda s: kv(s).comp, t) == pytest.approx(kv(t).dt_comp, rel=1e-7, abs=1e-9)
        assert self._fd(lambda s: kv(s).dt_comp, t) == pytest.approx(
            kv(t).ddt_comp, rel=1e-6, abs=1e-8)

    def test_dt_k1_by_finite_differences(self):
        # step 1e-5, tolerance 1e-7 against the termwise derivative
        for xi, eta in [(0.7, -1.3), (2.0, 1.0), (0.1, 0.3)]:
            t = 1.1
            fd = (kr.k1_hat(t + 1e-5, xi, eta) - kr.k1_hat(t - 1e-5, xi, eta)) / 2e-5
            kv = kr.kernel_values(t, xi, eta)
            assert abs(fd - kv.dtK1) <= 1e-7 * (1.0 + abs(kv.dtK1))


class TestBoundEnvelope:
    def test_est1_example_at_t_zero(self):
        # A = 2: high-frequency term 1/16; anisotropic term 1/16 since
        # |xi| = sqrt(2) <= A^2 = 4; the A <= 1 branch is off
        val = kr.bound_envelope(1, 0.0, math.sqrt(2.0), math.sqrt(2.0))
        assert val == pytest.approx(1.0 / 16.0 + 1.0 / 16.0, rel=1e-12)

    def test_est1_low_frequency_min_branch(self):
        xi = eta = 0.1
        val = kr.bound_envelope(1, 2.0, xi, eta)
        A = math.hypot(xi, eta)
        # |xi| > A^2 here, so the anisotropic indicator is off
        lo = min(1.0 / (A * xi * eta), 1.0 / A**4) * math.exp(-0.25 * A**2 * 2.0)
        assert val == pytest.approx(lo, rel=1e-12)

    def test_est4_finite_positive(self):
        # |xi| = 0.3 > A^2 = 0.25, so only the low-frequency branch is active
        val = kr.bound_envelope(4, 4.0, 0.3, 0.4)
        xi = 0.3
        A2 = 0.25
        expect = min(1.0 / xi, 1.0 / A2) * math.exp(-0.25 * A2 * 4.0)
        assert val == pytest.approx(expect, rel=1e-12)
        assert np.isfinite(val) and val > 0
        # a point with the anisotropic branch active carries both terms
        val2 = kr.bound_envelope(4, 4.0, 0.2, 0.6)
        A2b = 0.04 + 0.36
        expect2 = min(1.0 / 0.2, 1.0 / A2b) * math.exp(-0.25 * A2b * 4.0) \
            + (1.0 / A2b) * math.exp(-0.5 * 0.04 / A2b * 4.0)
        assert val2 == pytest.approx(expect2, rel=1e-12)

    def test_unknown_estimate_rejected(self):
        with pytest.raises(ValueError):
            kr.bound_envelope(9, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kr.bound_envelope(1, 1.0, 1.0, 1.0, c_decay=0.0)

    @pytest.mark.parametrize("c_decay", [math.nan, math.inf, -math.inf])
    def test_nonfinite_c_decay_rejected(self, c_decay):
        with pytest.raises(ValueError, match="c_decay must be positive and finite"):
            kr.bound_envelope(1, 1.0, 1.0, 1.0, c_decay=c_decay)

    def test_zero_mode_is_inf_for_singular_items(self):
        assert kr.bound_envelope(1, 1.0, 0.0, 0.0) == np.inf

    def test_zero_mode_finite_for_item5(self):
        assert kr.bound_envelope(5, 1.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)


class TestSelectiveEvaluation:
    """Every partial evaluation is bitwise the all-field, single-block one."""

    @staticmethod
    def _reference(t, xi, eta):
        # all fields over the whole batch in one block, with t broadcast
        t_, xi_, eta_ = kr._broadcast(t, xi, eta)
        one_block = kr._Workspace(max(t_.size, 1))
        values = kr._evaluate(t_, xi_, eta_, ("A",) + kr.KERNEL_FIELDS, one_block)
        return kr.KernelValues(t=t_, xi=xi_, eta=eta_, **values)

    @staticmethod
    def _assert_same(got, want, what):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what

    def _check_batch(self, t, xi, eta):
        from mhdlab import linear as ln

        ref = self._reference(t, xi, eta)
        full = kr.kernel_values(t, xi, eta)
        for name in kr.KernelValues.__slots__:
            self._assert_same(getattr(full, name), getattr(ref, name), name)
        for name, fn in ln.SYMBOLS.items():
            got = fn(t, xi, eta)
            # the same expression fed the all-field values; the symbol looks
            # kernel_values up in linear at call time, where this replaces it
            declared = []

            def all_fields(t_, xi_, eta_, fields):
                declared.append(fields)
                return ref

            with pytest.MonkeyPatch.context() as mp_:
                mp_.setattr(ln, "kernel_values", all_fields)
                want = fn(t, xi, eta)
            self._assert_same(got, want, name)
            part = kr.kernel_values(t, xi, eta, fields=declared[0])
            for f in declared[0]:
                self._assert_same(getattr(part, f), getattr(ref, f), f"{name}:{f}")
        kv, floors = kr.noise_floors(t, xi, eta)
        for name in kr.KernelValues.__slots__:
            self._assert_same(getattr(kv, name), getattr(ref, name), f"floors:{name}")
        assert all(f.shape == ref.A.shape for f in floors.values())
        self._assert_same(kr.k_hat(t, xi, eta), ref.K, "k_hat")
        self._assert_same(kr.k1_hat(t, xi, eta), ref.K1, "k1_hat")

    # one point short of a block, one block, one point over; and the same
    # around 65,536, which is four blocks of 16,384 points
    @pytest.mark.parametrize("n", sorted({kr._CHUNK - 1, kr._CHUNK, kr._CHUNK + 1,
                                          65535, 65536, 65537}))
    @pytest.mark.parametrize("t", [0.0, 1.0, 1e4])
    def test_flat_batches_around_one_block(self, n, t):
        rng = np.random.default_rng(n)
        xi, eta = rng.uniform(-8.0, 8.0, (2, n))
        xi[:3] = 0.0
        eta[3:6] = 0.0
        xi[6:9] = eta[6:9] = 0.0
        xi[-3:] = 0.0  # the last, partial block too
        self._check_batch(t, xi, eta)

    def test_broadcast_two_dimensional_batch(self):
        t = np.array([[0.0], [1.0], [1e4]])
        xi = np.linspace(-6.0, 6.0, 30001)[None, :]  # three blocks with t
        eta = 0.4
        assert np.broadcast(t, xi, eta).size > kr._CHUNK
        self._check_batch(t, xi, eta)
        assert kr.kernel_values(t, xi, eta, fields=("K",)).K.shape == (3, 30001)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e4])
    @pytest.mark.parametrize("xi,eta", [(0.0, 0.0), (0.0, 1.3), (0.7, 0.0), (0.7, -1.3)])
    def test_scalar_inputs(self, t, xi, eta):
        self._check_batch(t, xi, eta)
        assert isinstance(kr.k_hat(t, xi, eta), float)
        assert isinstance(kr.k1_hat(t, xi, eta), float)
        assert kr.kernel_values(t, xi, eta, fields=("K1",)).K1.shape == ()

    def test_unrequested_field_raises(self):
        kv = kr.kernel_values(1.0, np.ones(4), 0.5, fields=("K",))
        assert kv.A.shape == kv.K.shape == (4,)
        with pytest.raises(AttributeError, match="'K1'"):
            kv.K1

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel fields"):
            kr.kernel_values(1.0, 0.5, 0.5, fields=("K", "Kone"))

    def test_expression_reading_undeclared_field_fails(self):
        from mhdlab import linear as ln

        # an expression must name what it reads: a KernelValues parameter is
        # not a field, and a declared field cannot stand in for another
        with pytest.raises(ValueError, match="unknown kernel fields"):
            ln._symbol(lambda kv: kv.K)(1.0, 0.5, 0.5)
        with pytest.raises(AttributeError, match="'comp'"):
            ln._symbol(lambda K: kr.kernel_values(1.0, 0.5, 0.5, fields=("K",)).comp)(
                1.0, 0.5, 0.5)


def _golden_batch():
    """Fixed inputs reaching every branch; three times over 160 x 160 modes."""
    axis = np.concatenate([[0.0, 1e-12, 1e-6, 0.05, 2.0], np.linspace(-8.0, 8.0, 155)])
    return np.array([0.0, 1.0, 1e4])[:, None, None], axis[:, None], axis[None, :]


def _branch_counts(t, xi, eta):
    """How many points of the batch take each branch of the evaluation."""
    t, xi, eta = np.broadcast_arrays(t, xi, eta)
    A = np.hypot(xi, eta)
    b, c = 0.25 * A**4 - A * A, A * np.abs(eta)
    counts = {"xi=0": np.sum(xi == 0), "eta=0": np.sum(eta == 0), "A=0": np.sum(A == 0)}
    for side, z in (("plus", b + c), ("minus", b - c)):
        series = np.abs(z * t * t) <= kr._SERIES_Z
        counts[f"{side}.series"] = np.sum(series)
        counts[f"{side}.osc"] = np.sum(~series & (z < 0))
        counts[f"{side}.pos"] = np.sum(~series & (z >= 0))
    absb = np.abs(b)
    w = t * np.sqrt(absb + c)
    two = c * t * t / (1 + w) > kr._DD_V_REL * (1 + w)
    small = ~two & ((absb + c) * t * t <= kr._DD_SMALL_BT2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rec = ~two & ~small & (c * t / np.sqrt(absb) <= kr._DD_REC_RATIO) & (absb > 0)
    counts.update({"dd.two": np.sum(two | (~small & ~rec)), "dd.small": np.sum(small),
                   "dd.rec": np.sum(rec)})
    return {k: int(v) for k, v in counts.items()}


class TestGoldenDigests:
    """The bits of every kernel field, pinned as they were before the block
    evaluation shared its intermediates and work arrays."""

    DIGESTS = {
        "A": "b8f44eede3923c9636da99a469a8652d3727b8939c3e2a21666969507cd6bfd7",
        "K": "79f677018e42b199177ee95c013e7e57841f264ff29abfa2a2bec70436754baa",
        "K1": "8a8bd127584510e7d139b80fdcca1465f5c79eeb67d6d4446f5c26ea91c4719e",
        "dtK": "d5f87e33ccd2018db15f31dc64013b79710ea8fa48e166147db804c6a473eb9d",
        "ddtK": "40b4d8d5ebceb3b5e7e1d4df59762a96fdc38a9d07011bd8d56c84344077d1bc",
        "comp": "4c7a237dd5411b29291675c4a3f78fd061a65da35c073911395c66d35d3dfef3",
        "comp_x": "f1de2961ecb037971480de731e4a94d5e27af8827065b86a53c74af880659810",
        "dt_comp": "9217f92eb618d7132584b03affc8adc12237513a26ecbe9be4271e5f45409cda",
        "ddt_comp": "a14a501d643d1dc6e481fa4208ba48e5d6b455cb4650347f2569bd0aa5f96252",
        "dtK1": "8bdf174eff3f5dd7f79244c9dfa29e845659662b4de9dc04edc0978b8a5fffdc",
    }

    def test_inputs_reach_every_branch(self):
        t, xi, eta = _golden_batch()
        counts = _branch_counts(t, xi, eta)
        assert all(n > 0 for n in counts.values()), counts
        assert set(np.ravel(t)) == {0.0, 1.0, 1e4}
        assert np.broadcast(t, xi, eta).size > kr._CHUNK

    def test_every_field_matches_its_digest(self, recorded_math):
        import hashlib

        kv = kr.kernel_values(*_golden_batch())
        got = {f: hashlib.sha256(np.ascontiguousarray(getattr(kv, f)).tobytes()).hexdigest()
               for f in self.DIGESTS}
        assert got == self.DIGESTS


class TestBlockEvaluation:
    """A 0-d t, a broadcast t and a reused workspace give the same bytes."""

    @staticmethod
    def _fields(kv):
        return {f: np.asarray(getattr(kv, f)).tobytes() for f in ("A",) + kr.KERNEL_FIELDS}

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e4])
    def test_scalar_t_equals_broadcast_t(self, t):
        _, xi, eta = _golden_batch()
        xi, eta = np.broadcast_arrays(xi, eta)
        scalar = kr.kernel_values(t, xi, eta)
        full = kr.kernel_values(np.full(xi.shape, t), xi, eta)
        assert self._fields(scalar) == self._fields(full)
        assert scalar.t.shape == xi.shape and np.all(scalar.t == t)

    def test_t_keeps_its_broadcast_shape(self):
        kv = kr.kernel_values(np.array([[1.0], [2.0]]), np.linspace(0.0, 3.0, 5), 0.5,
                              fields=("K",))
        assert kv.t.shape == kv.xi.shape == kv.eta.shape == kv.K.shape == (2, 5)
        assert kr.kernel_values(1.0, np.ones(4), 0.5, fields=("K1",)).t.shape == (4,)

    def test_reused_workspace_gives_the_same_bytes(self):
        t, xi, eta = kr._broadcast(*_golden_batch())
        names = ("A",) + kr.KERNEL_FIELDS + kr._SIDES
        fresh = kr._evaluate(t, xi, eta, names)
        ws = kr._Workspace(kr._CHUNK)
        # dirty the workspace with other inputs and other fields first
        kr._evaluate(2.5, -xi[:, ::3], eta[:, ::3] + 0.25, ("K1", "dtK"), ws)
        for _ in range(2):
            reused = kr._evaluate(t, xi, eta, names, ws)
            assert {f: a.tobytes() for f, a in reused.items()} == \
                {f: a.tobytes() for f, a in fresh.items()}
