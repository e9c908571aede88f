"""Tests for the mode matrix, oracle, diagonalization, semigroup, and the
quadrature-based decay machinery."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from mhdlab import grid as gr
from mhdlab import kernel as kn
from mhdlab import linear as ln

mp.mp.dps = 40


class TestSymbolMatrix:
    def test_zero_mode(self):
        m = ln.symbol_matrix(0.0, 0.0, 0.7)
        nz = np.argwhere(np.abs(m) > 0)
        assert nz.tolist() == [[3, 2]]
        assert m[3, 2] == -1.0

    def test_unit_x_mode(self):
        m = ln.symbol_matrix(1.0, 0.0, 0.0)
        assert m[1, 1] == -1.0
        assert m[2, 3] == 1.0

    def test_viscosity_cross_terms(self):
        m = ln.symbol_matrix(1.0, 2.0, 0.5)
        assert m[1, 1] == pytest.approx(-5.0 - 0.5)
        assert m[1, 2] == pytest.approx(-0.5 * 2.0)
        assert np.trace(m) == pytest.approx(-2.0 * 5.0 - 0.5 * 5.0)

    def test_matches_spec_layout_at_lambda_zero(self):
        xi, eta = 0.3, -0.8
        a2 = xi**2 + eta**2
        expect = np.array([
            [0, -1j * xi, -1j * eta, 0],
            [-1j * xi, -a2, 0, 0],
            [-1j * eta, 0, -a2, a2],
            [0, 0, -1, 0],
        ])
        assert np.allclose(ln.symbol_matrix(xi, eta, 0.0), expect)

    def test_broadcast_equals_stacked_scalar_calls(self):
        rng = np.random.default_rng(11)
        xi = np.concatenate([[0.0, -0.0, 1.0, -3.0], rng.uniform(-8, 8, 60)])
        eta = np.concatenate([[0.0, 2.0, -0.0, 0.5], rng.uniform(-8, 8, 60)])
        for lam in (0.0, 0.35):
            got = ln.symbol_matrix(xi[:, None], eta[None, :], lam)
            assert got.shape == (64, 64, 4, 4)
            want = np.array([[ln.symbol_matrix(x, e, lam) for e in eta] for x in xi])
            # bitwise, signed zeros included
            assert got.tobytes() == want.tobytes()


class TestMatexp:
    def test_identity_at_t_zero(self):
        m = np.random.default_rng(0).standard_normal((4, 4))
        assert np.allclose(ln.matexp(m, 0.0), np.eye(4))

    def test_diagonal(self):
        m = np.diag([-1.0, -2.0, -3.0, -4.0])
        got = ln.matexp(m, 1.0)
        assert np.allclose(np.diag(got), np.exp([-1, -2, -3, -4]), rtol=1e-13)

    def test_nilpotent(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        assert np.allclose(ln.matexp(m, 1.0), np.eye(4) + m)

    def test_rejects_nonfinite(self):
        m = np.zeros((4, 4))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            ln.matexp(m, 1.0)

    def test_against_high_precision(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            xi, eta = rng.uniform(-8, 8, 2)
            lam = rng.uniform(-0.9, 0.9)
            t = 10.0 ** rng.uniform(-1, 1.5)
            m = ln.symbol_matrix(xi, eta, lam)
            got = ln.matexp(m, t)
            ref = mp.expm(mp.matrix((t * m).tolist()))
            ref = np.array([[complex(ref[i, j]) for j in range(4)] for i in range(4)])
            scale = np.max(np.abs(ref)) + 1e-300
            assert np.max(np.abs(got - ref)) <= 1e-11 * scale

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(7)
        mats = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
        mats *= 3.0
        batch = ln.expm_batch(mats)
        for k in range(40):
            assert np.allclose(batch[k], ln.matexp(mats[k], 1.0), rtol=1e-11, atol=1e-12)



def mp_expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of one matrix by mpmath at 40 digits, rounded to complex."""
    e = mp.expm(mp.matrix(m.tolist()))
    return np.array([[complex(e[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])])


def rel_err(got, ref):
    """max |got - ref| over max |ref|, matrix by matrix."""
    return np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))


def within_three_scipy(ms: np.ndarray) -> tuple:
    """The worst errors of expm_batch and of scipy's expm against mpmath over
    the stack ms; the first must be at most three times the second (or a few
    ulp where scipy is exact)."""
    ref = np.array([mp_expm(m) for m in ms])
    ours = np.max(rel_err(ln.expm_batch(ms), ref))
    theirs = np.max(rel_err(scipy.linalg.expm(ms), ref))
    assert ours <= max(3.0 * theirs, 4 * np.finfo(float).eps), (ours, theirs)
    return ours, theirs


def taylor_theta(m: int):
    """The largest x with sum_{k>m} |l_k| x^(k-1) <= 2^-53, where sum_k l_k x^k
    = log(exp(-x) T_m(x)) and T_m is the degree-m Taylor polynomial of exp:
    the 1-norm up to which the truncated series has a backward error of at
    most the unit roundoff (Al-Mohy & Higham 2011), by bisection."""
    n = m + 60  # the terms past it are below 1e-30 of the sum at x < 4
    g = [mp.fsum((-1) ** (k - j) / (mp.factorial(k - j) * mp.factorial(j))
                 for j in range(min(k, m) + 1)) for k in range(n + 1)]  # exp(-x) T_m(x)
    log = [mp.mpf(0)] * (n + 1)
    for k in range(1, n + 1):
        log[k] = g[k] - mp.fsum(j * log[j] * g[k - j] for j in range(1, k)) / k
    lo, hi = mp.mpf(0), mp.mpf(8)
    for _ in range(40):
        mid = (lo + hi) / 2
        bound = mp.fsum(abs(log[k]) * mid ** (k - 1) for k in range(m + 1, n + 1))
        lo, hi = (mid, hi) if bound <= mp.mpf(2) ** -53 else (lo, mid)
    return lo


def oracle_generators(samples: int = 1000, seed: int = 0) -> np.ndarray:
    """The symbol matrices oracle_scan draws for (samples, seed), box 8."""
    rng = np.random.default_rng(seed)
    modes = np.empty((samples, 2))
    for k in range(samples):
        modes[k] = rng.uniform(-8.0, 8.0, size=2)
        rng.standard_normal(4), rng.standard_normal(4)  # the oracle's vector
    return ln.symbol_matrix(modes[:, 0], modes[:, 1], 0.0)


class TestExpmBatch:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nonfinite_matrix_is_named(self, bad, dtype):
        ms = np.zeros((5, 4, 4), dtype=dtype)
        ms[3, 1, 2] = bad
        ms[4, 0, 0] = np.nan  # a later one is not the first
        with pytest.raises(ValueError, match=r"^expm_batch: matrix 3 of 5 has a non-finite entry$"):
            ln.expm_batch(ms)
        with pytest.raises(ValueError, match=r"matrix 3 of 5"):
            ln.matexp(ms, 0.5)

    def test_overflowing_time_is_named(self):
        m = np.zeros((2, 4, 4))
        m[1, 0, 1] = 1e300
        with pytest.raises(ValueError, match=r"matrix 1 of 2"):
            ln.matexp(m, 1e10)

    def test_theta_table(self):
        # each theta is the derived one rounded down, and each degree m is p*q
        # with p = isqrt(m), costing one product more than the one before
        costs = []
        for m, theta in ln._TAYLOR:
            derived = float(taylor_theta(m))
            assert derived * (1 - 1e-3) <= theta <= derived, (m, theta, derived)
            p = math.isqrt(m)
            assert m % p == 0
            costs.append(p + m // p - 2)
        assert costs == list(range(costs[0], costs[0] + len(costs)))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_dtype_and_shape_kept(self, dtype):
        ms = np.random.default_rng(3).standard_normal((2, 3, 4, 4)).astype(dtype)
        got = ln.expm_batch(ms)
        assert got.dtype == dtype and got.shape == ms.shape
        assert np.array_equal(got[1, 2], ln.expm_batch(ms[1, 2]))
        assert ln.expm_batch(np.eye(3, dtype=int)).dtype == np.float64

    def test_one_by_one(self):
        x = np.array([0.0, 1e-3, -0.5, 1.0, 3.0, -20.0, 40.0, -300.0])
        got = ln.expm_batch(x[:, None, None])[:, 0, 0]
        ref = np.array([float(mp.exp(v)) for v in x])
        assert np.all(np.abs(got - ref) <= 2e-13 * ref)
        z = np.array([2.0 + 3.0j, -7.5j])
        got = ln.expm_batch(z[:, None, None])[:, 0, 0]
        assert np.all(np.abs(got - np.exp(z)) <= 1e-14 * np.abs(np.exp(z)))

    def test_zero_is_the_identity(self):
        for dtype in (float, complex):
            got = ln.expm_batch(np.zeros((3, 5, 5), dtype=dtype))
            assert np.array_equal(got, np.broadcast_to(np.eye(5), (3, 5, 5)))

    def test_diagonal(self):
        d = np.array([[-3.0, 0.1, 2.0, -40.0], [0.0, 1e-8, -1e-3, 5.0]])
        ms = np.zeros((2, 4, 4))
        ms[:, range(4), range(4)] = d
        got = ln.expm_batch(ms)
        assert not np.any(got[:, ~np.eye(4, dtype=bool)])
        assert np.allclose(got[:, range(4), range(4)], np.exp(d), rtol=1e-13, atol=0.0)

    def test_ten_or_more_squarings(self):
        # 1-norms of 4000 and 3397.5 take s = 11 and 10 halvings to the last
        # theta: a rotation by 4000 radians and a stiff symbol at t = 30
        theta = ln._TAYLOR[-1][1]
        rot = np.array([[0.0, 4000.0], [-4000.0, 0.0]])
        gen = 30.0 * ln.symbol_matrix(7.5, -7.0, 0.0)
        for m in (rot, gen):
            assert np.abs(m).sum(axis=0).max() / theta > 2.0 ** 9
            within_three_scipy(m[None])
        got = ln.expm_batch(rot)
        c, s = float(mp.cos(4000)), float(mp.sin(4000))
        assert np.allclose(got, [[c, s], [-s, c]], rtol=0.0, atol=1e-12)

    def test_each_matrix_has_the_bits_of_its_own_call(self):
        rng = np.random.default_rng(5)
        for d, n in ((1, 37), (3, 50), (5, 41), (12, 30)):
            ms = rng.standard_normal((n, d, d)) * 10.0 ** rng.uniform(-2, 1.5, (n, 1, 1))
            ms = ms + 1j * rng.standard_normal((n, d, d)) if d % 2 else ms
            got = ln.expm_batch(ms)
            for k in range(n):
                assert got[k].tobytes() == ln.expm_batch(ms[k]).tobytes()

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_oracle_matrices(self, t):
        # the oracle's seed-0 batch: all of it against scipy, and against
        # mpmath its 20 largest 1-norms, 20 more at random and its worst mode
        gen = t * oracle_generators()
        assert np.max(rel_err(ln.expm_batch(gen), scipy.linalg.expm(gen))) <= 5e-13
        norms = np.abs(gen).sum(axis=-2).max(axis=-1)
        picked = np.argsort(norms)[-20:].tolist() + list(range(0, 1000, 50))
        worst = ln.oracle_scan(samples=1000, seed=0)["worst"]
        m = t * ln.symbol_matrix(worst["xi"], worst["eta"], 0.0)
        ours, theirs = within_three_scipy(np.concatenate([gen[picked], m[None]]))
        assert ours <= 1e-13


def char_poly_roots(xi, eta):
    """Reference: the four exponential-branch rates -A^2/2 +- sqrt(b +- c),
    one scalar square root each, from kernel._split_bc."""
    A, b, c = (float(v) for v in kn._split_bc(xi, eta))
    roots = []
    for sgn_c in (+1.0, -1.0):
        z = b + sgn_c * c
        root = complex(math.sqrt(z)) if z >= 0 else 1j * math.sqrt(-z)
        a = 0.5 * A**2
        roots.extend([-a + root, -a - root])
    return np.array(roots)


def scalar_char_poly_check(xi, eta):
    """Reference: det(sI - M) of one mode by scalar Leverrier-Faddeev, its max
    coefficient residual against the factorized quartic target."""
    m = ln.symbol_matrix(xi, eta, 0.0)
    coeffs = np.empty(5, dtype=complex)
    coeffs[0] = 1.0
    mk = np.array(m, dtype=complex)
    for k in range(1, 5):
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        if k < 4:
            mk = m @ (mk + ck * np.eye(4))
    a2 = xi * xi + eta * eta
    target = np.array([1.0, 2.0 * a2, a2 * a2 + 2.0 * a2, 2.0 * a2 * a2,
                       a2 * a2 - a2 * eta * eta], dtype=complex)
    return float(np.max(np.abs(coeffs - target)))


class TestCharPoly:
    def test_batch_equals_scalar_reference(self):
        ks = np.linspace(-8.0, 8.0, 64)
        XI, ETA = np.meshgrid(ks, ks, indexing="ij")
        got = ln.char_poly_check(XI, ETA)
        assert got.shape == (64, 64)
        want = np.array([[scalar_char_poly_check(xi, eta) for eta in ks] for xi in ks])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("xi,eta", [(3.0, 4.0), (np.float64(-2.5), np.float64(0.75))])
    def test_scalar_gives_float(self, xi, eta):
        got = ln.char_poly_check(xi, eta)
        assert type(got) is float
        assert got == scalar_char_poly_check(xi, eta)

    def test_zero_mode_residual_zero(self):
        assert ln.char_poly_check(0.0, 0.0) == 0.0

    def test_eta_zero_hand_expansion(self):
        # target (s^2+s+1)^2 at A = 1
        assert ln.char_poly_check(1.0, 0.0) <= 1e-12

    def test_generic_mode(self):
        a8 = (3.0**2 + 4.0**2) ** 4
        assert ln.char_poly_check(3.0, 4.0) <= 1e-10 * (1.0 + a8)

    def test_full_scan(self):
        for xi in np.linspace(-8, 8, 64):
            for eta in np.linspace(-8, 8, 64):
                cap = 1e-10 * (1.0 + (xi * xi + eta * eta) ** 4)
                assert ln.char_poly_check(xi, eta) <= cap

    def test_branch_rates_are_roots(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            xi, eta = rng.uniform(-8, 8, 2)
            a2 = xi * xi + eta * eta
            for root in char_poly_roots(xi, eta):
                p = (root**2 + a2 * root + a2) ** 2 - a2 * eta * eta
                assert abs(p) <= 1e-8 * (1.0 + a2**4)

    def test_roots_built_from_split_bc(self):
        rng = np.random.default_rng(6)
        for xi, eta in rng.uniform(-8, 8, (500, 2)):
            A, b, c = (float(v) for v in kn._split_bc(xi, eta))
            want = []
            for z in (b + c, b - c):
                root = complex(math.sqrt(z)) if z >= 0 else 1j * math.sqrt(-z)
                want += [-0.5 * A**2 + root, -0.5 * A**2 - root]
            assert char_poly_roots(xi, eta).tobytes() == np.array(want).tobytes()


class TestKernelSemigroup:
    def test_identity_at_t_zero(self):
        u0 = np.array([0.3 + 0.1j, -0.2, 0.7j, 1.0])
        got = ln.semigroup_matrix(0.0, 0.7, -1.3) @ u0
        assert np.max(np.abs(got - u0)) <= 1e-12

    def test_constant_density_mode(self):
        got = ln.semigroup_matrix(5.0, 0.0, 0.0) @ np.array([1.0, 0, 0, 0])
        assert np.allclose(got, [1.0, 0, 0, 0])

    def test_zero_mode_full_flow(self):
        # at zero frequency the generator is nilpotent: psi picks up -t*v
        u0 = np.array([0.2, -0.4, 0.5, 1.0])
        got = ln.semigroup_matrix(3.0, 0.0, 0.0) @ u0
        assert np.allclose(got, [0.2, -0.4, 0.5, 1.0 - 3.0 * 0.5], atol=1e-12)

    def test_matches_matexp_oracle(self):
        res = ln.oracle_scan(samples=300, seed=123)
        assert res["max_rel_err"] <= 1e-8

    def test_oracle_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="invalid-budget"):
            ln.oracle_scan(samples=0)

    def test_field_matches_mode_on_single_mode(self):
        g = gr.make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        coeffs = np.zeros((4, *g.shape), complex)
        amp = np.array([0.1, -0.2, 0.3, 0.15])
        coeffs[:, 2, 3] = amp  # the conjugate mode (-2, -3) is implied
        state = gr.PerturbationState(g, coeffs)
        out = ln.kernel_semigroup_field(state, 1.5)
        expect = ln.semigroup_matrix(1.5, g.xi[2], g.eta[3]) @ amp
        assert np.allclose(out.coeffs[:, 2, 3], expect, atol=1e-12)

    def test_field_zero_state(self):
        g = gr.make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        out = ln.kernel_semigroup_field(gr.PerturbationState.zeros(g), 2.0)
        assert all(np.max(np.abs(f.coeffs)) == 0.0 for f in out.fields)

    def test_semigroup_composition(self):
        g = gr.make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(3)
        fields = []
        for _ in range(4):
            f = gr.SpectralField.from_physical(g, rng.standard_normal((16, 16)))
            fields.append(gr.apply_multiplier(f, np.exp(-0.5 * g.A**2)))
        state = gr.PerturbationState.from_fields(*fields)
        one = ln.kernel_semigroup_field(state, 1.0)
        two = ln.kernel_semigroup_field(ln.kernel_semigroup_field(state, 0.5), 0.5)
        scale = max(np.max(np.abs(one.coeffs)), 1e-300)
        assert np.max(np.abs(one.coeffs - two.coeffs)) <= 1e-8 * scale

    def test_output_survives_physical_roundtrip(self):
        # column 0 and the Nyquist column of the output stay self-conjugate along
        # xi, so the output is a real field
        g = gr.make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(4)
        fields = [gr.SpectralField.from_physical(g, rng.standard_normal((16, 16)))
                  for _ in range(4)]
        out = ln.kernel_semigroup_field(gr.PerturbationState.from_fields(*fields), 0.7)
        for f in out.fields:
            back = gr.SpectralField.from_physical(g, f.to_physical()).coeffs
            assert np.max(np.abs(back - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_mean_density_mode_conserved(self):
        g = gr.make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(6)
        fields = [gr.SpectralField.from_physical(g, rng.standard_normal((16, 16)))
                  for _ in range(4)]
        state = gr.PerturbationState.from_fields(*fields)
        before = state.n.coeffs[0, 0]
        after = ln.kernel_semigroup_field(state, 4.0).n.coeffs[0, 0]
        assert after == pytest.approx(before, rel=1e-12)


def per_sample_oracle_scan(samples, seed, t_values=(0.1, 1.0, 10.0), box=8.0):
    """Reference oracle scan: one scalar semigroup and one scalar matrix
    exponential per sample and time, worst case by strict comparison."""
    rng = np.random.default_rng(seed)
    worst, worst_case = 0.0, None
    for _ in range(samples):
        xi, eta = rng.uniform(-box, box, size=2)
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u0 /= np.linalg.norm(u0)
        for t in t_values:
            ref = ln.matexp(ln.symbol_matrix(xi, eta, 0.0), t) @ u0
            got = ln.semigroup_matrix(t, xi, eta) @ u0
            err = np.linalg.norm(got - ref) / (1.0 + np.linalg.norm(ref))
            if err > worst:
                worst, worst_case = err, {"xi": xi, "eta": eta, "t": t}
    return {"samples": samples, "seed": seed, "max_rel_err": worst, "worst": worst_case}


class TestBatchedOracle:
    @pytest.mark.parametrize("seed", [0, 9, 123, 2024])
    def test_matches_per_sample_reference(self, seed):
        got = ln.oracle_scan(samples=300, seed=seed)
        ref = per_sample_oracle_scan(300, seed)
        assert got["max_rel_err"].tobytes() == ref["max_rel_err"].tobytes()
        assert repr(got["worst"]) == repr(ref["worst"])
        assert got["samples"] == 300 and got["seed"] == seed

    @pytest.mark.parametrize("t_values", [(), (np.inf,), (0.1, np.nan), (1.0, -np.inf)])
    def test_rejects_empty_or_nonfinite_times(self, t_values):
        with pytest.raises(ValueError, match="invalid-budget"):
            ln.oracle_scan(samples=5, t_values=t_values)

    @pytest.mark.parametrize("box", [0.0, -2.0, np.inf, np.nan])
    def test_rejects_degenerate_box(self, box):
        with pytest.raises(ValueError, match="invalid-budget"):
            ln.oracle_scan(samples=5, box=box)

    def test_nonfinite_discrepancy_is_named(self, monkeypatch):
        original = ln.SEMIGROUP_TERMS[("u", "v")]
        monkeypatch.setitem(ln.SEMIGROUP_TERMS, ("u", "v"),
                            lambda *args: original(*args) * np.nan)
        with pytest.raises(ValueError, match=r"oracle-nonfinite: .*\(xi, eta\) = .*t = 0\.1"):
            ln.oracle_scan(samples=5, seed=1)

    def test_one_semigroup_and_one_expm_batch_per_time(self, monkeypatch):
        calls = []
        for name in ("semigroup_matrix", "expm_batch"):
            fn = getattr(ln, name)
            monkeypatch.setattr(ln, name, lambda *a, _fn=fn, _name=name:
                                calls.append(_name) or _fn(*a))
        ln.oracle_scan(samples=20, seed=0, t_values=(0.5, 2.0))
        assert sorted(calls) == ["expm_batch"] * 2 + ["semigroup_matrix"] * 2


class TestMutationSensitivity:
    """Flipping any single transcribed multiplier sign must break the oracle."""

    MUTATIONS = [("n", "psi"), ("u", "u"), ("psi", "v")]

    @pytest.mark.parametrize("entry", MUTATIONS)
    def test_sign_flip_breaks_oracle(self, entry, monkeypatch):
        original = ln.SEMIGROUP_TERMS[entry]
        monkeypatch.setitem(ln.SEMIGROUP_TERMS, entry,
                            lambda *args, **kw: -original(*args, **kw))
        res = ln.oracle_scan(samples=60, seed=9)
        assert res["max_rel_err"] > 1e-8

    def test_restored_table_passes(self):
        res = ln.oracle_scan(samples=60, seed=9)
        assert res["max_rel_err"] <= 1e-8


class TestSymbolRegistry:
    def test_propagator_symbols_registered(self):
        missing = {p: sym for p, (sym, _, _) in ln.PROPAGATORS.items()
                   if sym not in ln.SYMBOLS}
        assert missing == {}

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e4])
    @pytest.mark.parametrize("name", sorted(ln.SYMBOLS))
    def test_finite_real_on_degenerate_modes(self, name, t):
        # A = 0, xi = 0 and eta = 0 rows next to generic modes
        xi = np.array([[0.0, 0.0, 1.3, 1e-4], [0.0, 2.0, -0.7, 40.0]])
        eta = np.array([[0.0, 0.5, 0.0, 1e-4], [-3.0, 0.0, 0.2, -15.0]])
        vals = ln.SYMBOLS[name](t, xi, eta)
        assert vals.shape == xi.shape
        assert vals.dtype == np.float64
        assert np.all(np.isfinite(vals))


class TestSymbolNorms:
    def test_sup_norm_zero_at_t_zero(self):
        assert ln.symbol_norm("A4K", "le1", np.inf, np.inf, 0.0) == 0.0

    def test_finite_at_t_zero(self):
        val = ln.symbol_norm("K1", "le1", 1.0, 1.0, 0.0)
        # K1(0) = 1: the L1 norm over the unit disk is its area
        assert val == pytest.approx(math.pi, rel=2e-2)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ln.symbol_norm("A4K", "le1", 1.0, 1.0, -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_time(self, t):
        with pytest.raises(ValueError, match=f"t must be finite, got {float(t)!r}"):
            ln.symbol_norm("A4K", "le1", 1.0, 1.0, t)

    @pytest.mark.parametrize("q_xi,q_eta,bad", [
        (0.0, 0.0, "q_xi"), (-1.0, 2.0, "q_xi"), (1.0, 0.5, "q_eta"),
        (np.nan, 1.0, "q_xi"), (np.inf, np.nan, "q_eta"), (-np.inf, -np.inf, "q_xi")])
    def test_rejects_exponent_outside_one_to_inf(self, q_xi, q_eta, bad):
        with pytest.raises(ValueError, match=rf"{bad} must be in \[1, inf\]"):
            ln.symbol_norm("A4K", "le1", q_xi, q_eta, 1.0)

    def test_region_parsing(self):
        assert ln.parse_region("le1") == "le1"
        assert ln.parse_region("sim2") == ("annulus", 2.0)
        with pytest.raises(ValueError):
            ln.parse_region("blah")
        with pytest.raises(ValueError, match="N must be finite, got inf"):
            ln.parse_region("sim" + "9" * 400)

    @pytest.mark.slow
    def test_acceptance_slopes(self):
        ts = np.geomspace(10, 1000, 12)
        targets = {"A4K": ("le1", -0.5), "xietaK": (("annulus", 1.0), -1.0),
                   "AetadtK": ("le1", -1.0)}
        for sym, (region, target) in targets.items():
            vals = [ln.symbol_norm(sym, region, 1.0, 1.0, t) for t in ts]
            slope, r2 = ln.fit_loglog(ts, vals)
            assert abs(slope - target) <= 0.1, (sym, slope)
            assert r2 >= 0.98


def xi_edges(lo, hi, n_base):
    """Reference panel edges of one [lo, hi]: the per-node builder that
    linear._panel_edges batches."""
    span = hi - lo
    edges = [lo]
    scale = span * 1e-8
    while scale < span:
        edges.append(lo + scale)
        scale *= 4.0
    edges.extend(lo + np.linspace(0, span, n_base + 1)[1:])
    return np.unique(np.clip(np.array(edges), lo, hi))


def per_node_mixed_cartesian(symbol_fn, t, region, q_xi, q_eta, mult):
    """Reference mixed norm: one symbol call per xi node."""
    rho_lo, rho_hi = ln._region_rho_range(region)
    a_lo, a_hi = math.exp(rho_lo), math.exp(rho_hi)
    if region == "le1" or region == "all":
        a_lo = 0.0
    xi_nodes, xi_w = ln._gauss_panels(xi_edges(0.0, a_hi, 12 * mult), 6)
    inner = np.empty_like(xi_nodes)
    for i, x in enumerate(xi_nodes):
        e_hi2 = a_hi**2 - x * x
        if e_hi2 <= 0:
            inner[i] = 0.0
            continue
        e_hi = math.sqrt(e_hi2)
        e_lo = math.sqrt(max(a_lo**2 - x * x, 0.0))
        if e_hi <= e_lo:
            inner[i] = 0.0
            continue
        eta_nodes, eta_w = ln._gauss_panels(xi_edges(e_lo, e_hi, 10 * mult), 6)
        vals = np.abs(symbol_fn(t, np.full_like(eta_nodes, x), eta_nodes))
        if np.isinf(q_eta):
            inner[i] = float(np.max(vals))
        else:
            inner[i] = (2.0 * float(np.sum(eta_w * vals**q_eta))) ** (1.0 / q_eta)
    if np.isinf(q_xi):
        return float(np.max(inner))
    return (2.0 * float(np.sum(xi_w * inner**q_xi))) ** (1.0 / q_xi)


def _heat(t, xi, eta):
    return np.hypot(xi, eta) * np.exp(-0.25 * (xi**2 + eta**2) * t)


def _aniso_cut(t, xi, eta):
    A = np.hypot(xi, eta)
    safe = np.where(A > 0, A, 1)
    w = np.where(A > 0, np.abs(xi) / safe**1.25 * np.exp(-0.25 * xi**2 / safe**2 * t), 0.0)
    return w * (np.abs(xi) <= A**2)


MIXED_INTEGRANDS = {"heat": _heat, "aniso_cut": _aniso_cut, "xicomp": ln.SYMBOLS["xicomp"]}


class TestBatchedMixedNorms:
    @pytest.mark.parametrize("mult", [1, 2])
    @pytest.mark.parametrize("region", ["le1", ("annulus", 1.0)])
    @pytest.mark.parametrize("q", [(1.0, np.inf), (np.inf, 1.0), (2.0, np.inf)])
    @pytest.mark.parametrize("name", sorted(MIXED_INTEGRANDS))
    def test_matches_per_node_reference(self, name, q, region, mult):
        fn = MIXED_INTEGRANDS[name]
        for t in (0.0, 10.0, 1e3):
            got = ln._mixed_cartesian(ln._per_time(fn), [t], region, *q, mult)[0]
            want = per_node_mixed_cartesian(fn, t, region, *q, mult)
            assert got.hex() == want.hex(), t

    @pytest.mark.parametrize("q", [(1.0, np.inf), (np.inf, 1.0), (2.0, np.inf)])
    def test_skipped_nodes_stay_zero(self, q, monkeypatch):
        # Gauss nodes lie strictly inside (0, a_hi), so no node is skipped in
        # practice; add xi nodes on and beyond the rim to reach both skips
        panels = ln._gauss_panels
        first = []

        def with_rim_nodes(edges, n_gl):
            nodes, w = panels(edges, n_gl)
            if not first:
                first.append(True)
                nodes = np.concatenate([nodes, [1.0, 1.5]])
                w = np.concatenate([w, [0.01, 0.01]])
            return nodes, w

        monkeypatch.setattr(ln, "_gauss_panels", with_rim_nodes)
        got = ln._mixed_cartesian(ln._per_time(_heat), [1.0], ("annulus", 1.0), *q, 1)[0]
        first.clear()
        want = per_node_mixed_cartesian(_heat, 1.0, ("annulus", 1.0), *q, 1)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("mult", [1, 2])
    def test_no_per_node_panel_calls(self, mult, monkeypatch):
        calls = {"_gauss_panels": 0, "_panel_edges": 0}

        def counted(name):
            fn = getattr(ln, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ln, name, counted(name))
        ln._mixed_cartesian(ln._per_time(_heat), [10.0], ("annulus", 1.0), 1.0, np.inf, mult)
        # one build for the xi axis, one for every xi node's eta panels
        assert calls == {"_gauss_panels": 2, "_panel_edges": 2}
        # and no more for more times: the mesh is built once per call
        calls.update(dict.fromkeys(calls, 0))
        ln._mixed_cartesian(ln._per_time(_heat), np.geomspace(1.0, 1e3, 10), ("annulus", 1.0),
                            1.0, np.inf, mult)
        assert calls == {"_gauss_panels": 2, "_panel_edges": 2}

    def test_subnormal_scale_raises(self):
        with pytest.raises(ValueError, match="panel-underflow: the span 1e-320"):
            ln.symbol_norm("K", ("annulus", 1e-320), 1.0, np.inf, 1.0)

    @pytest.mark.parametrize("region", ["le1", ("annulus", 1.0)])
    def test_one_symbol_call_per_time(self, region):
        calls = []

        def counted(t, xi, eta):
            calls.append((t, np.shape(xi)))
            return _heat(t, xi, eta)

        times = [0.0, 10.0, 1e3]
        ln._mixed_cartesian(ln._per_time(counted), times, region, 2.0, np.inf, 2)
        assert [t for t, _ in calls] == times
        assert len({shape for _, shape in calls}) == 1

    @pytest.mark.parametrize("region", ["le1", ("annulus", 1.0)])
    def test_one_bind_per_level(self, region):
        binds, times_seen = [], []

        def bind(xi, eta):
            binds.append(xi.shape)
            at = ln._per_time(_heat)(xi, eta)
            return lambda t: times_seen.append(t) or at(t)

        times = np.geomspace(1.0, 1e3, 10)
        for mult in (1, 2):
            binds.clear()
            times_seen.clear()
            ln._mixed_cartesian(bind, times, region, 1.0, np.inf, mult)
            assert len(binds) == 1
            assert times_seen == times.tolist()

    @pytest.mark.parametrize("q", [(1.0, 1.0), (2.0, np.inf), (np.inf, 1.0), (1.0, np.inf)])
    @pytest.mark.parametrize("region", ["le1", ("annulus", 1.0), "all"])
    @pytest.mark.parametrize("name", ["heat", "xicomp"])
    def test_each_time_keeps_the_bits_of_a_one_time_call(self, name, region, q):
        fn = MIXED_INTEGRANDS[name]
        times = [0.0, 0.5, 10.0, 1e3]
        got = ln._mixed_cartesian(ln._per_time(fn), times, region, *q, 1)
        want = [ln._mixed_cartesian(ln._per_time(fn), [t], region, *q, 1)[0] for t in times]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("times,message", [
        ([0.0, np.nan], "t must be finite, got nan at index 1"),
        ([1.0, -np.inf], "t must be finite, got -inf at index 1"),
        ([-1.0, 1.0], "t must be nonnegative, got -1.0 at index 0"),
        ([], "t must hold at least 1 times, got 0"),
        (1.0, r"t must be a 1-D array, got shape \(\)"),
    ], ids=["nan", "-inf", "negative", "empty", "scalar"])
    def test_bad_times_raise(self, times, message):
        with pytest.raises(ValueError, match=message):
            ln._mixed_cartesian(ln._per_time(_heat), times, "le1", 1.0, np.inf, 1)

    def test_gauss_legendre_nodes_cached_read_only(self):
        x, w = ln._leggauss(6)
        assert ln._leggauss(6)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(6)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        with pytest.raises(ValueError):
            x[0] = 0.0


class TestPanelEdges:
    # lo + 1e-8 span rounds to lo (1.0, 1e8) or the geometric edge count is
    # not 14 (subnormal spans), so rows differ in length
    LO = [0.0, 0.0, 0.2, 1.0, 0.0, 0.0, 1e8, 0.0, 5.0]
    HI = [1.0, 0.3, 0.9, 1.0 + 1e-12, 1e-310, 3e-316, 1e8 + 1e-6, 1e-300, 5.0 + 1e300]

    @pytest.mark.parametrize("n_base", [10, 24])
    def test_rows_match_per_row_builder(self, n_base):
        groups = ln._panel_edges(np.array(self.LO), np.array(self.HI), n_base)
        assert len(groups) >= 3
        seen = []
        for rows, edges in groups:
            assert edges.shape[0] == rows.size
            for i, row in zip(rows.tolist(), edges):
                assert row.tobytes() == xi_edges(self.LO[i], self.HI[i], n_base).tobytes(), i
                seen.append(i)
        assert sorted(seen) == list(range(len(self.LO)))

    def test_equal_counts_form_one_group(self):
        lo, hi = np.array([0.0, 0.5]), np.array([1.0, 2.0])
        [(rows, edges)] = ln._panel_edges(lo, hi, 12)
        assert rows.tolist() == [0, 1] and edges.shape == (2, 27)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1e-320), (0.0, 2e-316), (0.0, np.inf)])
    def test_unrefinable_span_raises(self, lo, hi):
        with pytest.raises(ValueError, match="panel-underflow"):
            ln._panel_edges(np.array([0.0, lo]), np.array([1.0, hi]), 10)


class TestDecayExperiments:
    def test_zero_data_degenerate(self):
        rep = ln.propagator_decay_experiment("kn1L", init="zero")
        assert rep.degenerate
        assert not rep.passes(0.05)

    def test_unknown_propagator(self):
        with pytest.raises(KeyError):
            ln.propagator_decay_experiment("nope")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ln.default_decay_times(5.0, 100.0)
        with pytest.raises(ValueError):
            ln.default_decay_times(10.0, 100.0)
        with pytest.raises(ValueError, match="1.5 decades"):
            ln.propagator_decay_experiment("kn5L", times=[10.0, 50.0, 100.0])

    @pytest.mark.parametrize("bad,at", [(np.nan, 1), (np.inf, 2), (-np.inf, 0)])
    def test_rejects_nonfinite_time(self, bad, at):
        times = [10.0, 100.0, 1000.0]
        times[at] = bad
        with pytest.raises(ValueError, match=f"finite, got {bad!r} at index {at}"):
            ln.propagator_decay_experiment("kn5L", times=times)

    def test_report_serializes(self):
        times = np.geomspace(10, 10**2.6, 6)
        rep = ln.propagator_decay_experiment("kn5L", times=times)
        d = rep.to_dict()
        assert d["quantity_id"] == "kn5L"
        assert len(d["values"]) == 6

    # the band-limited profile jumps to 0 at A = 2; without a radial edge
    # there, seeds 0 and 2 did not converge at t = 316
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("prop", ["kn1L", "k1L"])
    def test_band_limited_data_converges(self, prop, seed):
        rep = ln.propagator_decay_experiment(prop, init="band-limited random",
                                             times=np.geomspace(316.0, 1e4, 3), seed=seed)
        assert np.all(rep.values > 0)
        assert abs(rep.fitted_slope - rep.target_slope) <= 0.05

    def test_profile_jumps_are_radial_edges(self):
        _, breaks = ln._init_profile("band-limited random")
        assert breaks == (2.0,)
        assert ln._init_profile("gaussian")[1] == ()
        edges = ln._rho_edges("all", 14, 316.0, 2.0, breaks)
        assert math.log(2.0) in edges
        assert edges.size == ln._rho_edges("all", 14, 316.0, 2.0).size + 1
        assert ln._rho_edges("le1", 14, 316.0, 2.0, breaks).tobytes() == \
            ln._rho_edges("le1", 14, 316.0, 2.0).tobytes()

    # the values of the benchmark's two decay experiments at three times of the
    # criterion-6 window, as float.hex, recorded when each level's terms came
    # to be summed pairwise; they pin the kernel and the quadrature together,
    # bit for bit
    PINNED = {
        "kn1L": ["0x1.466bf682669c5p-3", "0x1.a4c0c83f3daa0p-4", "0x1.10c526dbdc902p-4"],
        "k1L": ["0x1.7d0dee97c9380p-4", "0x1.c575b5faec045p-5", "0x1.1a1dd798902bcp-5"],
    }

    @pytest.mark.parametrize("prop", sorted(PINNED))
    def test_values_pinned(self, prop, recorded_math):
        rep = ln.propagator_decay_experiment(prop, times=np.geomspace(316.0, 1e4, 3))
        assert [float(v).hex() for v in rep.values] == self.PINNED[prop]

    @pytest.mark.slow
    def test_kn5L_slope(self):
        rep = ln.propagator_decay_experiment("kn5L")
        assert abs(rep.fitted_slope + 1.0) <= 0.1
        assert rep.r_squared >= 0.98


def fresh_lq_polar(symbol_fn, t, region, q, n_rho, theta_levels, carry=None, breaks=()):
    """Reference quadrature level: the whole polar mesh built as one 2-D
    product and evaluated in one call; `carry` is ignored."""
    rho, w_rho = ln._gauss_panels(ln._rho_edges(region, n_rho, t, q, breaks), ln._POLAR_GL)
    theta, w_theta = ln._gauss_panels(ln._theta_edges(theta_levels), ln._POLAR_GL)
    A = np.exp(rho)[:, None]
    xi = A * np.cos(theta)[None, :]
    eta = A * np.sin(theta)[None, :]
    w2d = 4.0 * (np.exp(2.0 * rho) * w_rho)[:, None] * w_theta[None, :]
    vals = np.abs(symbol_fn(t, xi, eta))
    if np.isinf(q):
        best = float(np.max(vals))
        if best == 0.0:
            return best
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        rho0 = math.log(math.hypot(xi[i, j], eta[i, j]))
        theta0 = math.atan2(eta[i, j], xi[i, j])
        return ln._polish_max(symbol_fn, t, region, rho0, theta0, best)
    return float((w2d * vals**q).sum()) ** (1.0 / q)


def gaussian_integrand(sym_id):
    """|S| |f0| of a registered symbol on gaussian data: the integrand of a
    decay experiment."""
    symbol_fn, (profile, _) = ln.SYMBOLS[sym_id], ln._init_profile("gaussian")

    def weighted(t, xi, eta):
        return np.abs(symbol_fn(t, xi, eta)) * np.abs(profile(xi, eta))
    return weighted


def shared_panels(edges, prev_edges):
    """Number of panels of `edges` whose two edges are a panel of `prev_edges`."""
    prev = set(zip(prev_edges[:-1].tolist(), prev_edges[1:].tolist()))
    return sum(p in prev for p in zip(edges[:-1].tolist(), edges[1:].tolist()))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ln.QuadratureError as err:
        return str(err)


def test_level_sum_near_exactly_rounded():
    # the level a decay value of kn1L stops at, at the end of the criterion-6
    # window: its terms summed pairwise and exactly rounded
    carry = []
    got = ln._lq_polar(gaussian_integrand("A4K"), 1e4, "all", 2.0, 28, 20, carry=carry)
    terms = carry[2]
    assert terms.size > 100_000 and terms.min() >= 0.0
    assert got == pytest.approx(math.fsum(terms.ravel().tolist()) ** 0.5, rel=1e-14, abs=0)


class TestCarriedLevels:
    """A level that copies the previous level's shared panels gives the bits
    of a level built from scratch."""

    @pytest.mark.parametrize("prop", sorted(ln.PROPAGATORS))
    def test_decay_values_match_fresh_levels(self, prop, monkeypatch):
        times = [10.0, 1000.0]
        got = ln.propagator_decay_experiment(prop, times=times).values
        monkeypatch.setattr(ln, "_lq_polar", fresh_lq_polar)
        want = ln.propagator_decay_experiment(prop, times=times).values
        assert got.tobytes() == want.tobytes()

    def test_band_limited_decay_matches_fresh_levels(self, monkeypatch):
        def run():
            return ln.propagator_decay_experiment("kn1L", init="band-limited random",
                                                  times=[10.0, 1000.0]).values

        got = run()
        monkeypatch.setattr(ln, "_lq_polar", fresh_lq_polar)
        assert got.tobytes() == run().tobytes()

    @pytest.mark.parametrize("region", ["le1", "all", ("annulus", 2.0)])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    def test_symbol_norm_matches_fresh_levels(self, q, region, monkeypatch):
        for sym, t in (("A4K", 100.0), ("xicomp", 10.0)):
            got = _outcome(ln.symbol_norm, sym, region, q, q, t)
            with monkeypatch.context() as m:
                m.setattr(ln, "_lq_polar", fresh_lq_polar)
                want = _outcome(ln.symbol_norm, sym, region, q, q, t)
            assert repr(got) == repr(want), (sym, t)

    @pytest.mark.parametrize("q", [2.0, np.inf])
    @pytest.mark.parametrize("owned", [False, True])
    def test_without_previous_level_matches_fresh(self, owned, q):
        sym = ln.SYMBOLS["A4K"]
        carry = [] if owned else None
        got = ln._lq_polar(sym, 300.0, "all", q, 14, 14, carry=carry)
        assert got.hex() == fresh_lq_polar(sym, 300.0, "all", q, 14, 14).hex()
        if carry is not None:
            rho_edges, theta_edges, terms = carry
            assert rho_edges.tobytes() == ln._rho_edges("all", 14, 300.0, q).tobytes()
            assert theta_edges.tobytes() == ln._theta_edges(14).tobytes()
            assert terms.shape == (8 * (rho_edges.size - 1), 8 * (theta_edges.size - 1))

    @pytest.mark.parametrize("t", [316.0, 1e4])
    def test_second_level_evaluates_only_new_panels(self, t, monkeypatch):
        sym = ln.SYMBOLS["A4K"]
        carry = []
        ln._lq_polar(sym, t, "all", 2.0, 14, 14, carry=carry)
        points = []
        kv = ln.kernel_values
        monkeypatch.setattr(ln, "kernel_values", lambda t, xi, eta, **kw:
                            points.append(np.size(xi)) or kv(t, xi, eta, **kw))
        ln._lq_polar(sym, t, "all", 2.0, 28, 20, carry=carry)
        rho1, rho2 = ln._rho_edges("all", 14, t, 2.0), ln._rho_edges("all", 28, t, 2.0)
        theta1, theta2 = ln._theta_edges(14), ln._theta_edges(20)
        mesh = (rho2.size - 1) * (theta2.size - 1)
        shared = shared_panels(rho2, rho1) * shared_panels(theta2, theta1)
        assert sum(points) == 64 * (mesh - shared)
        assert 0 < sum(points) < 64 * mesh
        assert max(points) <= ln._LEVEL_BLOCK


class TestBlockedLevels:
    """A level evaluates its new nodes in blocks of whole theta rows; the
    block size changes neither the result nor a byte of the terms, and a
    level's temporaries do not grow with it."""

    @staticmethod
    def level(carried, q, block, monkeypatch):
        monkeypatch.setattr(ln, "_LEVEL_BLOCK", block)
        sym, carry = ln.SYMBOLS["A4K"], []
        if carried:
            ln._lq_polar(sym, 10.0, "all", q, 14, 14, carry=carry)
        value = ln._lq_polar(sym, 10.0, "all", q, 28, 20, carry=carry)
        return value, carry[2]

    @pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    def test_same_bits_at_any_block_size(self, q, carried, monkeypatch):
        row = 8 * (ln._theta_edges(20).size - 1)
        small, large = (self.level(carried, q, block, monkeypatch)
                        for block in (row // 3, 10**9))
        assert large[1].size < 10**9
        assert small[0].hex() == large[0].hex()
        assert small[1].tobytes() == large[1].tobytes()

    def test_rows_longer_than_a_block_go_one_at_a_time(self, monkeypatch):
        monkeypatch.setattr(ln, "_LEVEL_BLOCK", 5)
        rows = np.arange(7)
        chunks = ln._row_chunks(rows, 12)
        assert [c.tolist() for c in chunks] == [[r] for r in range(7)]
        monkeypatch.setattr(ln, "_LEVEL_BLOCK", 30)
        assert [c.size for c in ln._row_chunks(rows, 12)] == [2, 2, 2, 1]

    @pytest.mark.parametrize("levels", [(10, 14), (14, 20), (20, 32), (14, 14), (20, 14)])
    def test_shared_theta_nodes_are_the_carried_ones(self, levels):
        prev, edges = (ln._theta_edges(n) for n in levels)
        k = ln._shared_theta_nodes(edges, prev)
        src = ln._carried_nodes(edges, prev)
        assert k > 0
        assert src[:k].tolist() == list(range(k))
        assert np.all(src[k:] < 0)

    def test_peak_memory_of_a_large_level(self):
        # level 1 of kn1L's integrand at t = 1e4, taken in L^1 to keep the
        # narrow band: 1.1 M nodes, 9.0 MB of terms; one symbol call for the
        # whole level held 36 MB above the terms
        weighted = gaussian_integrand("A4K")
        carry = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ln._lq_polar(weighted, 1e4, "all", 1.0, 14, 14, carry=carry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        terms = carry[2]
        assert terms.size > 10**6
        assert peak - start - terms.nbytes < 8e6


class TestBandLimit:
    """A time whose oscillatory band needs more radial panels than the mesh
    allows is an input error, raised before any node is evaluated.  The
    limit follows the band's panel width: pi/t for q = 2, pi/(4t) else."""

    # exponent, a time the mesh resolves, one past the limit, the message
    LIMITS = [
        (2.0, 6e7, 7e7, r"t = 7e\+07 needs 21168 radial panels.*resolves t up to 6\.245e\+07"),
        (1.0, 3e6, 4e6, r"t = 4e\+06 needs 20340 radial panels.*resolves t up to 3\.867e\+06"),
        (np.inf, 3e6, 4e6, r"t = 4e\+06 needs 20340 radial panels.*resolves t up to 3\.867e\+06"),
    ]

    @pytest.mark.parametrize("region", ["le1", "all"])
    def test_band_past_the_cap_raises(self, region):
        for q, below, above, message in self.LIMITS:
            assert ln._rho_edges(region, 14, below, q).size > 17000
            with pytest.raises(ValueError, match=message):
                ln._rho_edges(region, 14, above, q)

    def test_decay_rejects_the_time_before_any_level(self, monkeypatch):
        monkeypatch.setattr(ln, "kernel_values", None)  # any evaluation would fail
        with pytest.raises(ValueError, match=r"t = 7e\+07 needs"):
            ln.propagator_decay_experiment("kn1L", times=[10.0, 100.0, 7e7])
        with pytest.raises(ValueError, match=r"t = 4e\+06 needs"):
            ln.propagator_decay_experiment("kn5L", times=[10.0, 100.0, 4e6])


class TestBandWidth:
    """The panel width of the oscillatory band, against the same level on a
    band twice as fine.  The levels of _refined share one band, so their
    agreement says nothing about it; this bounds the band's own error."""

    @staticmethod
    def level1(prop, t):
        sym, kind, _ = ln.PROPAGATORS[prop]
        q = 2.0 if kind == "l2" else 1.0
        return ln._lq_polar(gaussian_integrand(sym), t, "all", q, 14, 14)

    # |S|^2 is as smooth as S; |S| of the L^1 rate kn5L kinks at each zero
    @pytest.mark.parametrize("prop,bound", [("kn1L", 1e-6), ("k1L", 1e-6), ("kn5L", 2e-4)])
    @pytest.mark.parametrize("t", [316.0, 1e4])
    def test_level_one_against_a_twice_finer_band(self, prop, bound, t, monkeypatch):
        got = self.level1(prop, t)
        monkeypatch.setattr(ln, "_BAND_WIDTH_SMOOTH", ln._BAND_WIDTH_SMOOTH / 2.0)
        monkeypatch.setattr(ln, "_BAND_WIDTH_KINKED", ln._BAND_WIDTH_KINKED / 2.0)
        want = self.level1(prop, t)
        assert abs(got - want) <= bound * want


class TestFitLoglog:
    def test_pure_power(self):
        ts = np.geomspace(10, 1000, 12)
        slope, r2 = ln.fit_loglog(ts, 3.0 * ts**-0.75)
        assert slope == pytest.approx(-0.75, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_handles_zeros(self):
        slope, r2 = ln.fit_loglog([10, 100, 1000], [0.0, 0.0, 0.0])
        assert slope == 0.0 and r2 == 0.0
