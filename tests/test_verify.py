"""Tests for the inequality scanners and the aggregated report."""

import hashlib
import json
import math
from functools import partial

import numpy as np
import pytest

from mhdlab import kernel as kr
from mhdlab import verify as vf


def parent_scan_kernel_bounds(which, n_t=12, n_a=24, n_angle=32,
                              c_decay=kr.DEFAULT_C_DECAY, cap=1e3):
    """Reference: one estimate's scan on its own, one noise_floors call per
    estimate and time."""
    symbol, floor_key = vf._ESTIMATES[which]

    def max_ratio(nt, na, nang):
        ts = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, nt - 1)])
        AA, TH = np.meshgrid(np.geomspace(1e-4, 1e3, na), np.linspace(0.0, np.pi / 2, nang),
                             indexing="ij")
        xi, eta = AA * np.cos(TH), AA * np.sin(TH)
        best, worst = 0.0, {}
        for t in ts:
            kv, floors = kr.noise_floors(t, xi, eta)
            lhs = np.maximum(np.abs(symbol(kv)) - floors[floor_key], 0.0)
            rhs = kr.bound_envelope(which, t, xi, eta, c_decay)
            r, w = vf._ratio_scan(lhs, rhs, {"t": t * np.ones_like(xi), "xi": xi, "eta": eta})
            if r > best:
                best, worst = r, w
        return best, worst

    coarse, _ = max_ratio(n_t, n_a, n_angle)
    fine, worst = max_ratio(2 * n_t - 1, 2 * n_a, 2 * n_angle)
    samples = (2 * n_t - 1) * 2 * n_a * 2 * n_angle
    return vf._finish(f"prop31_est{which}", samples, coarse, fine, worst, cap,
                      extra={"c_decay": c_decay})


def parent_check_elem1(samples=20000, seed=0, cap=20.0):
    """Reference: the elem1 scan with every draw evaluated at once."""
    def max_ratio(n, seed_):
        rng = np.random.default_rng(seed_)
        b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 2, n)
        c = 10.0 ** rng.uniform(-6, 2, n)
        t = 10.0 ** rng.uniform(-3, 2, n)
        ratio = vf.elem1_ratio(b, c, t)
        idx = int(np.argmax(ratio))
        worst = {"b": float(b[idx]), "c": float(c[idx]), "t": float(t[idx]),
                 "ratio": float(ratio[idx])}
        return float(ratio[idx]), worst

    return vf._seeded_scan("elem1", max_ratio, samples, seed, cap)


def parent_check_sin_ratio(samples=50000, seed=0, cap=10.0):
    """Reference: the sin-ratio scan with every draw evaluated at once."""
    def max_ratio(n, seed_):
        rng = np.random.default_rng(seed_)
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 6, n)
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 6, n)
        lhs = np.abs(np.sinc(x / np.pi) - np.sinc(y / np.pi))
        s = np.abs(x) + np.abs(y)
        rhs = np.abs(np.abs(x) - np.abs(y)) * np.minimum(s, 1.0 / s)
        return vf._ratio_scan(lhs, rhs, {"x": x, "y": y})

    return vf._seeded_scan("sin_ratio", max_ratio, samples, seed, cap)


# Reference: the quadrature integrands as one expression of (t, xi, eta) each,
# evaluated whole at every time.
def parent_heat(p, t, xi, eta):
    return np.hypot(xi, eta) ** p["beta"] * np.exp(-vf._QUAD_C * (xi**2 + eta**2) * t)


def parent_aniso(p, t, xi, eta):
    A = np.hypot(xi, eta)
    return np.abs(xi)**p["beta"] / A**p["alpha"] * np.exp(-vf._QUAD_C * xi**2 / A**2 * t)


def parent_aniso_cut(p, t, xi, eta):
    A = np.hypot(xi, eta)
    w = np.where(A > 0, np.abs(xi)**p["beta_prime"] / np.where(A > 0, A, 1)**p["alpha"]
                 * np.exp(-vf._QUAD_C * xi**2 / np.where(A > 0, A, 1)**2 * t), 0.0)
    return w * (np.abs(xi) <= A**2)


PARENT_INTEGRANDS = {vf._heat: parent_heat, vf._aniso: parent_aniso,
                     vf._aniso_cut: parent_aniso_cut}


def parent_quad_claim(claim, times, mult):
    params, integrand, region, norms, _ = vf.BASIC_QUAD_CLAIMS[claim]
    fn = vf._linear._per_time(partial(PARENT_INTEGRANDS[integrand], params))
    return sum(vf._linear._mixed_cartesian(fn, times, region, q_xi, q_eta, mult)
               for q_xi, q_eta in norms)


def parent_check_charpoly(kmax=8.0, n=64):
    """Reference: the diagonalization scan as one scalar check per mode."""
    worstv, worst = 0.0, {}
    for xi in np.linspace(-kmax, kmax, n):
        for eta in np.linspace(-kmax, kmax, n):
            a8 = (xi * xi + eta * eta) ** 4
            r = vf._linear.char_poly_check(xi, eta) / (1e-10 * (1.0 + a8))
            if r > worstv:
                worstv, worst = r, {"xi": float(xi), "eta": float(eta), "ratio": r}
    verdict = "PASS" if worstv <= 1.0 else "FAIL"
    return vf.ScanResult(claim_id="charpoly", samples=n * n, max_ratio=worstv,
                         fitted_C=worstv, worst=worst, verdict=verdict,
                         refine_stable=True, cap=1.0)


def as_json(res):
    return json.dumps(res.to_dict(), sort_keys=True)


class TestKernelBoundScans:
    @pytest.mark.parametrize("which", range(1, 9))
    def test_scan_passes(self, which):
        res = vf.scan_kernel_bounds(which, n_t=8, n_a=16, n_angle=16)
        assert res.verdict == "PASS"
        assert res.fitted_C <= 1e3
        assert res.refine_stable

    def test_ratio_zero_at_t_zero_for_kernel(self):
        # the t = 0 row contributes nothing for the plain kernel estimate
        kv = kr.kernel_values(0.0, 1.3, 0.7)
        assert kv.K == 0.0

    def test_spot_high_frequency(self):
        # A = 1e3, t = 10: dominated by the anisotropic branch, finite ratio
        kv = kr.kernel_values(10.0, 30.0, math.sqrt(1e6 - 900.0))
        rhs = kr.bound_envelope(1, 10.0, 30.0, math.sqrt(1e6 - 900.0))
        assert np.isfinite(kv.K) and np.isfinite(rhs)
        assert abs(kv.K) <= 1e3 * rhs

    @pytest.mark.parametrize("t", [0.0, 0.5, 30.0])
    def test_scan_symbols_are_kernel_values(self, t):
        # the scans read their symbols from noise_floors' single evaluation
        AA, TH = np.meshgrid(np.geomspace(1e-4, 1e3, 12), np.linspace(0, np.pi / 2, 7),
                             indexing="ij")
        xi, eta = AA * np.cos(TH), AA * np.sin(TH)
        kv, floors = kr.noise_floors(t, xi, eta)
        ref = kr.kernel_values(t, xi, eta)
        for name in kr.KernelValues.__slots__:
            assert getattr(kv, name).tobytes() == getattr(ref, name).tobytes(), name
        assert all(f.shape == xi.shape for f in floors.values())

    def test_bitwise_reproducible(self):
        a = vf.scan_kernel_bounds(2, n_t=6, n_a=8, n_angle=8)
        b = vf.scan_kernel_bounds(2, n_t=6, n_a=8, n_angle=8)
        assert a.fitted_C == b.fitted_C
        assert a.worst == b.worst

    @pytest.mark.parametrize("grid", [{}, {"n_t": 5, "n_a": 6, "n_angle": 4, "c_decay": 0.05}],
                             ids=["default", "small-c0.05"])
    def test_shared_scan_equals_per_estimate_scans(self, grid):
        scans = {}
        for which in range(1, 9):
            got = vf.scan_kernel_bounds(which, **grid, scans=scans)
            assert as_json(got) == as_json(parent_scan_kernel_bounds(which, **grid)), which
        assert len(scans) == 1

    def test_one_envelope_call_per_scan_time(self, monkeypatch):
        calls = []
        be = kr.bound_envelope
        monkeypatch.setattr(kr, "bound_envelope", lambda *a: calls.append(a[0]) or be(*a))
        scans = {}
        for which in range(1, 9):
            vf.scan_kernel_bounds(which, scans=scans)
        assert calls == [tuple(range(1, 9))] * (12 + 23)  # coarse and fine scan times

    def test_without_a_dict_each_call_scans(self):
        a = vf.scan_kernel_bounds(3, n_t=4, n_a=4, n_angle=4)
        assert as_json(a) == as_json(parent_scan_kernel_bounds(3, n_t=4, n_a=4, n_angle=4))

    def test_dict_keyed_by_scan_arguments(self, monkeypatch):
        calls = []
        nf = kr.noise_floors
        monkeypatch.setattr(kr, "noise_floors", lambda *a: calls.append(a[0]) or nf(*a))
        small = {"n_t": 3, "n_a": 4, "n_angle": 4}
        grids = [small, {**small, "n_angle": 5}, {**small, "c_decay": 0.05}, {**small, "cap": 1.0}]
        scans = {}
        got = [vf.scan_kernel_bounds(1, **grid, scans=scans) for grid in grids]
        assert len(calls) == 4 * (3 + 5) and len(scans) == 4  # each grid scans once
        again = vf.scan_kernel_bounds(2, **small, scans=scans)
        assert len(calls) == 4 * (3 + 5)
        assert again is scans[(3, 4, 4, kr.DEFAULT_C_DECAY, 1e3)][2]
        monkeypatch.undo()
        for grid, res in zip(grids, got):
            assert as_json(res) == as_json(parent_scan_kernel_bounds(1, **grid)), grid

    @pytest.mark.parametrize("kw", [{"n_t": 1}, {"n_t": 0}, {"n_a": 0}, {"n_angle": 0},
                                    {"c_decay": 0.0}, {"c_decay": -1.0},
                                    {"c_decay": math.nan}, {"c_decay": math.inf}])
    def test_rejects_empty_or_vacuous_scan(self, kw):
        # n_t = 1 scans only t = 0, where every lhs is 0: a vacuous PASS
        with pytest.raises(ValueError, match="invalid-budget"):
            vf.scan_kernel_bounds(1, **{"n_t": 3, "n_a": 4, "n_angle": 4, **kw})

    def test_unknown_estimate(self):
        with pytest.raises(ValueError, match="unknown estimate id 9"):
            vf.scan_kernel_bounds(9, n_t=3, n_a=4, n_angle=4)


class TestElem1:
    def test_pass(self):
        res = vf.check_elem1(samples=8000, seed=0)
        assert res.verdict == "PASS"
        assert res.fitted_C <= 20.0

    def test_small_t_negative_branch(self):
        # b + c < 0 with small t: the cubic alternative dominates
        ratio = vf.elem1_ratio(-2.0, 1.0, 0.01)
        assert 0 < float(ratio) <= 20.0

    def test_c_to_zero_limit_finite(self):
        vals = [float(vf.elem1_ratio(-0.5, 10.0**-j, 1.0)) for j in range(3, 10)]
        assert all(np.isfinite(v) for v in vals)
        assert max(vals) - min(vals) <= 0.1 * max(vals)

    def test_heavily_damped_zero_safe(self):
        # a = 10, t = 10 kills I entirely; the factored ratio stays finite
        assert np.isfinite(float(vf.elem1_ratio(-50.0, 1.0, 10.0)))


    @pytest.mark.parametrize("seed", [0, 3])
    def test_blocks_keep_the_whole_batch_result(self, seed):
        # 20,000 and 40,000 draws: two and three blocks of kernel._CHUNK
        assert as_json(vf.check_elem1(seed=seed)) == as_json(parent_check_elem1(seed=seed))


class TestSinRatio:
    def test_pass(self):
        res = vf.check_sin_ratio(samples=30000, seed=0)
        assert res.verdict == "PASS"
        assert res.fitted_C <= 10.0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_blocks_keep_the_whole_batch_result(self, seed):
        assert as_json(vf.check_sin_ratio(seed=seed)) \
            == as_json(parent_check_sin_ratio(seed=seed))

    def test_equal_arguments_zero(self):
        x = 1.234
        lhs = abs(np.sinc(x / np.pi) - np.sinc(x / np.pi))
        assert lhs == 0.0

    def test_sin_zeros(self):
        lhs = abs(math.sin(math.pi) / math.pi - math.sin(2 * math.pi) / (2 * math.pi))
        assert lhs <= 1e-16

    def test_small_argument_taylor_ratio(self):
        # |sin x/x - sin y/y| ~ |x^2 - y^2|/6 to leading order, so the ratio
        # against ||x|-|y|| (|x|+|y|) approaches 1/6 and stays well under cap
        x, y = 0.1, 0.2
        lhs = abs(math.sin(x) / x - math.sin(y) / y)
        rhs = abs(x - y) * (x + y)
        assert lhs == pytest.approx(abs(x**2 - y**2) / 6.0, rel=0.01)
        assert lhs / rhs == pytest.approx(1.0 / 6.0, rel=0.05)


class TestBasicQuadrature:
    @pytest.mark.parametrize("claim", sorted(vf.BASIC_QUAD_CLAIMS))
    def test_claim_passes(self, claim):
        res = vf.check_basic_quadrature(claim)
        assert res.verdict == "PASS", (claim, res.extra)
        assert abs(res.extra["fitted_slope"] - res.extra["target_slope"]) <= 0.1

    @pytest.mark.parametrize("mult", [1, 2])
    @pytest.mark.parametrize("claim", sorted(vf.BASIC_QUAD_CLAIMS))
    def test_bound_integrands_keep_the_bits(self, claim, mult):
        # the check's default grid, and t = 0 where every exponent vanishes
        times = np.concatenate([[0.0], np.geomspace(100.0, 1e4, 10)])
        got = vf._quad_claim(claim, times, mult)
        want = parent_quad_claim(claim, times, mult)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_one_bind_per_level_and_norm(self, monkeypatch):
        binds = []
        table = {}
        for claim, (params, integrand, *rest) in vf.BASIC_QUAD_CLAIMS.items():
            def counted(p, xi, eta, integrand=integrand):
                binds.append(xi.size)
                return integrand(p, xi, eta)
            table[claim] = (params, counted, *rest)
        monkeypatch.setattr(vf, "BASIC_QUAD_CLAIMS", table)
        for claim, (*_, norms, _) in table.items():
            binds.clear()
            vf.check_basic_quadrature(claim)
            assert len(binds) == 2 * len(norms), claim  # levels 1 and 2

    def test_t_zero_plain_area(self):
        # without decay the est_At integrand reduces to the area integral
        val = vf._quad_claim("est_At", [0.0], 1)[0]
        assert val == pytest.approx(math.pi, rel=1e-3)

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            vf.check_basic_quadrature("nope")

    @pytest.mark.parametrize("checker", [partial(vf.check_basic_quadrature, "est_At"),
                                         vf.check_kn3_open], ids=["est_At", "kn3_open"])
    @pytest.mark.parametrize("t_grid,message", [
        ([np.nan, 100.0, 1000.0], "t_grid must be finite, got nan at index 0"),
        ([100.0, np.inf, 1000.0], "t_grid must be finite, got inf at index 1"),
        ([-1.0, 100.0, 1000.0], "t_grid must be positive, got -1.0 at index 0"),
        ([0.0, 100.0, 1000.0], "t_grid must be positive, got 0.0 at index 0"),
        ([], "t_grid must hold at least 3 times, got 0"),
        ([100.0, 1000.0], "t_grid must hold at least 3 times, got 2"),
        ([[100.0, 300.0, 1000.0]], r"t_grid must be a 1-D array, got shape \(1, 3\)"),
    ], ids=["nan", "inf", "negative", "zero", "empty", "two", "2-d"])
    def test_bad_time_grid_is_a_value_error(self, checker, t_grid, message):
        with pytest.raises(ValueError, match=message):
            checker(t_grid=t_grid)

    def test_no_claim_reaches_the_polar_engine(self, monkeypatch):
        def polar(*args, **kwargs):
            raise AssertionError("a basic quadrature claim reached linear._lq_polar")

        monkeypatch.setattr(vf._linear, "_lq_polar", polar)
        for claim in vf.BASIC_QUAD_CLAIMS:
            assert vf.check_basic_quadrature(claim, t_grid=[100.0, 300.0, 1000.0]).verdict \
                == "PASS", claim

    # Relative distance of each L^1 claim's level 2 from the polar level it
    # replaced (20 rho panels with the oscillatory band, 14 theta levels).
    # The smooth integrands agree to 4.6e-7 or better.  aniso_cut jumps at
    # |xi| = A^2, which neither mesh follows: 1.06e-3 at t = 100 and 3.4e-4
    # at t = 1e4 were measured, and the Cartesian levels 3 and up settle
    # within 3e-4 of the polar value.
    POLAR_RTOL = {"est_At": 1e-6, "est_At_b1": 1e-6, "est_Axit1": 1e-6, "est_Axit2": 2e-3}

    @pytest.mark.parametrize("t", [100.0, 1e4])
    @pytest.mark.parametrize("claim", sorted(POLAR_RTOL))
    def test_l1_levels_agree_with_the_polar_engine(self, claim, t):
        params, integrand, region, norms, _ = vf.BASIC_QUAD_CLAIMS[claim]
        assert norms == ((1.0, 1.0),)
        polar = vf._linear._lq_polar(lambda t_, xi, eta: integrand(params, xi, eta)(t_),
                                     t, region, 1.0, 20, 14)
        assert vf._quad_claim(claim, [t], 2)[0] == pytest.approx(polar, rel=self.POLAR_RTOL[claim])


class TestProjectorDerivative:
    def test_pass(self):
        res = vf.check_projector_derivative(samples=30, seed=0)
        assert res.verdict == "PASS"
        assert res.fitted_C <= 10.0

    def test_beta_zero_cutoff_is_static(self):
        # <s>^0 = 1: the moving cutoff freezes and the difference vanishes
        from mhdlab import grid as gr
        g = gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        s, h = 7.0, 0.7
        n_plus = math.sqrt(1.0 + (s + h) ** 2) ** 0.0
        n_minus = math.sqrt(1.0 + (s - h) ** 2) ** 0.0
        sym = gr.bump_chi(g.A / n_plus) - gr.bump_chi(g.A / n_minus)
        assert np.max(np.abs(sym)) == 0.0

    def test_disjoint_support_zero_safe(self):
        # fields away from the moving band contribute nothing
        from mhdlab import grid as gr
        g = gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        coeffs = np.zeros(g.shape, complex)
        coeffs[1, 0] = coeffs[-1, 0] = 1.0  # A = 1
        s = 100.0  # cutoff ~ <s> = 100, far above A = 1
        h = 0.1 * math.sqrt(1 + s * s)
        n_plus = math.sqrt(1.0 + (s + h) ** 2)
        n_minus = math.sqrt(1.0 + (s - h) ** 2)
        sym = (gr.bump_chi(g.A / n_plus) - gr.bump_chi(g.A / n_minus)) / (2 * h)
        lhs = np.max(np.abs(sym * coeffs))
        assert lhs == 0.0


class TestNash:
    def test_pass(self):
        res = vf.check_nash_anisotropic(samples=60, seed=0)
        assert res.verdict == "PASS"
        assert res.fitted_C <= 100.0

    def test_single_mode_closed_form(self):
        from mhdlab import grid as gr
        g = gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        coeffs = np.zeros(g.shape, complex)
        coeffs[1, 1] = g.area / 2.0  # psi = cos(x + y); the mode (-1, -1) is implied
        psi = gr.SpectralField(g, coeffs)
        gamma, gamma_bar = 0.75, 1.0
        A = math.sqrt(2.0)
        lhs = A**gamma_bar * math.sqrt(1.0 + A**2) * 1.0  # sup of weighted cos
        r1 = (1.0 + A**2) ** 2 * A**gamma * gr.l2_norm(psi)
        r2 = A * 1.0 * gr.l2_norm(psi)  # |xi| * A * ||psi||
        got_lhs = gr.sobolev_norm(
            gr.apply_multiplier(psi, gr.homog_weight(g, gamma_bar)), 1, p=np.inf)
        assert got_lhs == pytest.approx(lhs, rel=1e-12)
        ratio = got_lhs / (math.sqrt(r1) * math.sqrt(r2))
        assert 0.0 < ratio < 100.0


class TestSeededScan:
    @pytest.mark.parametrize("checker", [vf.check_elem1, vf.check_sin_ratio,
                                         vf.check_projector_derivative,
                                         vf.check_nash_anisotropic],
                             ids=["elem1", "sin_ratio", "projector_dt", "nash"])
    def test_rejects_empty_budget(self, checker):
        with pytest.raises(ValueError, match="invalid-budget"):
            checker(samples=0)

    def test_coarse_then_twice_as_many_from_one_seed(self):
        calls = []

        def run(n, seed):
            calls.append((n, seed))
            return 0.5 + 0.5 * len(calls), {"pass": len(calls)}

        res = vf._seeded_scan("demo", run, 7, 5, cap=10.0)
        assert calls == [(7, 5), (14, 5)]
        assert (res.samples, res.max_ratio, res.worst) == (14, 1.5, {"pass": 2})
        assert res.verdict == "PASS" and res.refine_stable


class TestBlockedMax:
    @pytest.mark.parametrize("ratio", [
        [1.0, 3.0, 2.0, 3.0, 0.5, 3.0, 1.0],
        [1.0, 2.0, np.nan, 5.0, np.nan, 1.0, 0.0],
        [np.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [0.0] * 7,
    ], ids=["ties", "nan", "nan-first", "zeros"])
    def test_is_argmax_over_all_draws(self, ratio, monkeypatch):
        monkeypatch.setattr(kr, "_CHUNK", 2)
        ratio = np.array(ratio)

        def block_max(block):
            idx = block.start + int(np.argmax(ratio[block]))
            return float(ratio[idx]), {"at": idx}

        r, worst = vf._blocked_max(ratio.size, block_max)
        idx = int(np.argmax(ratio))
        assert worst == {"at": idx} and r.hex() == float(ratio[idx]).hex()


class TestCharpoly:
    def test_equals_scalar_loop(self):
        assert as_json(vf.check_charpoly()) == as_json(parent_check_charpoly())

    @pytest.mark.parametrize("kmax,n", [(4.0, 8), (8.0, 1), (3.0, 100)])
    def test_other_grids_equal_scalar_loop(self, kmax, n):
        # n = 100 builds its symbol matrices in 20 row blocks, the default in 8
        got = vf.check_charpoly(kmax=kmax, n=n)
        assert as_json(got) == as_json(parent_check_charpoly(kmax=kmax, n=n))

    @pytest.mark.parametrize("kw", [{"n": 0}, {"n": -3}, {"kmax": 0.0}, {"kmax": -8.0},
                                    {"kmax": math.nan}, {"kmax": math.inf}])
    def test_rejects_empty_or_degenerate_grid(self, kw):
        with pytest.raises(ValueError, match="invalid-budget"):
            vf.check_charpoly(**kw)


class TestRunClaim:
    def test_seed_not_passed_to_unseeded_claims(self, monkeypatch):
        calls = []
        monkeypatch.setitem(vf.CLAIMS, "charpoly", lambda **kw: calls.append(kw) or "ok")
        assert vf.run_claim("charpoly", seed=5) == "ok"
        assert calls == [{}]

    def test_type_error_inside_checker_propagates(self, monkeypatch):
        calls = []

        def broken(seed=0):
            calls.append(seed)
            if len(calls) == 1:
                raise TypeError("inside the checker")
            return vf.check_sin_ratio(samples=10)

        monkeypatch.setattr(vf, "CLAIMS", {"elem1": broken})
        with pytest.raises(TypeError, match="inside the checker"):
            vf.run_all(seed=1)
        assert calls == [1]  # not rerun without its seed


# sha256 of the report entries (run_all's JSON layout) of the 8 quad: and the
# 8 prop31_est claims, one shared kernel scan, as recorded before the
# quadrature integrands bound their mesh and the scan shared its envelopes
_QUAD_AND_SCAN_DIGEST = "1fddc0ef3a78751106864dc38fc122b69fcfe5a958c8c9ff67df9378beffa52a"


class TestRunAll:
    def test_quad_and_kernel_scan_claims_keep_their_bytes(self, recorded_math):
        scans = {}
        cids = sorted(c for c in vf.CLAIMS if c.startswith(("quad:", "prop31_est")))
        assert len(cids) == 16
        payload = {cid: vf.run_claim(cid, scans=scans).to_dict() for cid in cids}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == _QUAD_AND_SCAN_DIGEST

    def test_kernel_claims_share_one_scan(self, monkeypatch):
        calls, passed = [], {}
        nf = kr.noise_floors
        monkeypatch.setattr(kr, "noise_floors", lambda *a: calls.append(a[0]) or nf(*a))
        for cid, fn in list(vf.CLAIMS.items()):
            def recorded(cid=cid, fn=fn, **kw):
                passed[cid] = sorted(kw)
                return fn(**kw) if cid in vf.KERNEL_SCAN_CLAIMS else cid
            monkeypatch.setitem(vf.CLAIMS, cid, recorded)
        results = vf.run_all(seed=0)
        assert len(calls) == 12 + 23  # one call per coarse and fine scan time
        for which in range(1, 9):
            cid = f"prop31_est{which}"
            assert passed[cid] == ["scans"]
            assert as_json(results[cid]) == as_json(parent_scan_kernel_bounds(which))
        assert all(passed[cid] == (["seed"] if cid in vf.SEEDED_CLAIMS else [])
                   for cid in set(vf.CLAIMS) - vf.KERNEL_SCAN_CLAIMS)

    @pytest.mark.slow
    def test_full_report(self, tmp_path):
        report = tmp_path / "report.json"
        results = vf.run_all(report_path=report, seed=0)
        payload = json.loads(report.read_text())
        assert sorted(payload) == sorted(results)
        failed = [cid for cid, r in results.items() if r.verdict == "FAIL"]
        assert failed == []
        assert payload["elem1"]["verdict"] == "PASS"
        # info-only claims are reported but not gated
        assert payload["kn3_open"]["verdict"] == "INFO"
