"""Tests for the periodic Fourier discretization, projectors, and norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhdlab import grid as gr


@pytest.fixture
def grid32():
    return gr.make_grid(32, 32, 2 * np.pi, 4 * np.pi)


def roundtrip_defect(f):
    """Relative change of f under to_physical then from_physical: 0 to rounding
    only if column 0 and the Nyquist column are self-conjugate along xi."""
    back = gr.SpectralField.from_physical(f.grid, f.to_physical()).coeffs
    return float(np.max(np.abs(back - f.coeffs)) / (np.max(np.abs(f.coeffs)) or 1.0))


def smooth_cutoff(f, N, kind="le"):
    """f times the smooth cutoff chi(A/N) ('le') or the dyadic annulus
    chi(A/N) - chi(2A/N) ('eq'): band-limited test data."""
    chi = gr.bump_chi(f.grid.A / N)
    if kind == "eq":
        chi = chi - gr.bump_chi(f.grid.A / (N / 2.0))
    return gr.SpectralField(f.grid, f.coeffs * chi)


def random_field(grid, seed=0, rough=0.2):
    rng = np.random.default_rng(seed)
    f = gr.SpectralField.from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    return gr.apply_multiplier(f, np.exp(-rough * grid.A**2))


class TestMakeGrid:
    def test_small_box_wavenumbers(self):
        g = gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi)
        assert g.xi.tolist() == [0.0, 1.0, -2.0, -1.0]
        assert g.eta.tolist() == [0.0, 1.0, 2.0]
        assert g.xi_d.tolist() == [0.0, 1.0, 0.0, -1.0]
        assert g.eta_d.tolist() == [0.0, 1.0, 0.0]
        assert g.shape == (4, 3)

    def test_column_multiplicity(self):
        for ny in (4, 6, 32):
            g = gr.make_grid(8, ny, 2 * np.pi, 2 * np.pi)
            assert g.multiplicity.tolist() == [1.0] + [2.0] * (ny // 2 - 1) + [1.0]
            assert g.multiplicity.size == g.shape[1]
            assert not g.multiplicity.flags.writeable

    def test_coeff_norm_weights_columns_by_multiplicity(self, grid32):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((4, 32, 17)) + 1j * rng.standard_normal((4, 32, 17))
        want = math.sqrt(float(np.sum(grid32.multiplicity * np.abs(coeffs) ** 2)))
        assert grid32.coeff_norm(coeffs) == pytest.approx(want, rel=1e-13)
        assert grid32.coeff_norm(coeffs[1]) == pytest.approx(
            math.sqrt(float(np.sum(grid32.multiplicity * np.abs(coeffs[1]) ** 2))), rel=1e-13)
        # a strided view (every other row of a larger array, stack reversed)
        big = np.zeros((4, 64, 17), complex)
        big[:, ::2] = coeffs
        assert grid32.coeff_norm(big[::-1, ::2]) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_coeff_norm_nonfinite(self, grid32, bad):
        coeffs = np.zeros((4, 32, 17), complex)
        coeffs[2, 5, 16] = complex(0.0, bad)
        assert not math.isfinite(grid32.coeff_norm(coeffs))

    def test_mode_radius(self):
        g = gr.make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        assert g.A[1, 1] == pytest.approx(math.sqrt(2.0))
        assert g.A[0, 0] == 0.0

    def test_mode_radius_cached_read_only(self):
        g = gr.make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        assert g.A is g.A
        assert not g.A.flags.writeable
        assert g.A.shape == g.shape == (8, 5)

    @pytest.mark.parametrize("name", ["A", "ikx", "iky"])
    def test_symbols_cached_read_only(self, grid32, name):
        sym = getattr(grid32, name)
        assert sym is getattr(grid32, name)
        with pytest.raises(ValueError, match="read-only"):
            sym[0, 0] = 1.0

    def test_derivative_symbols_zero_nyquist(self):
        g = gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi)
        assert g.ikx.shape == (4, 1) and g.iky.shape == (1, 3)
        assert g.ikx[:, 0].tolist() == [0j, 1j, 0j, -1j]
        assert g.iky[0].tolist() == [0j, 1j, 0j]

    def test_grids_equal_by_dimensions(self):
        a, b = gr.make_grid(8, 8, 1.0, 2.0), gr.make_grid(8, 8, 1.0, 2.0)
        assert a == b and hash(a) == hash(b)
        assert a != gr.make_grid(8, 8, 1.0, 3.0)

    def test_spacing_scales_with_box(self):
        g = gr.make_grid(4, 4, 4 * np.pi, 4 * np.pi)
        assert g.xi[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("nx,ny", [(3, 4), (4, 5), (2, 4), (0, 4)])
    def test_rejects_bad_sizes(self, nx, ny):
        with pytest.raises(gr.GridError, match="invalid-dimension"):
            gr.make_grid(nx, ny, 1.0, 1.0)

    def test_rejects_bad_lengths(self):
        with pytest.raises(gr.GridError, match="invalid-dimension"):
            gr.make_grid(4, 4, -1.0, 1.0)

    def test_dimension_problems_name_each_field(self):
        assert gr.dimension_problems(16, 8, 1.0, 2.0) == []
        problems = ["nx: 3 must be an even integer >= 4", "ny: 2 must be an even integer >= 4",
                    "Ly: 0.0 must be positive"]
        assert gr.dimension_problems(3, 2, 1.0, 0.0) == problems
        with pytest.raises(gr.GridError) as err:
            gr.make_grid(3, 2, 1.0, 0.0)
        assert str(err.value) == "invalid-dimension: " + "; ".join(problems)

    def test_zero_wavenumber_unique(self, grid32):
        assert np.count_nonzero(grid32.xi == 0.0) == 1
        assert np.count_nonzero(grid32.eta == 0.0) == 1

    def test_antisymmetry_off_nyquist(self, grid32):
        n = grid32.nx
        for k in range(1, n):
            if k == n // 2:
                continue
            assert grid32.xi[(-k) % n] == -grid32.xi[k]
        assert grid32.xi_d[n // 2] == 0.0


class TestTransforms:
    def test_roundtrip_random(self, grid32):
        rng = np.random.default_rng(1)
        phys = rng.standard_normal((32, 32))
        f = gr.SpectralField.from_physical(grid32, phys)
        err = np.linalg.norm(f.to_physical() - phys) / np.linalg.norm(phys)
        assert err <= 1e-12

    def test_constant_field_single_mode(self, grid32):
        f = gr.SpectralField.from_physical(grid32, np.ones((32, 32)))
        nz = np.abs(f.coeffs) > 1e-10
        assert nz.sum() == 1 and nz[0, 0]
        assert f.coeffs[0, 0].real == pytest.approx(grid32.area)

    def test_cosine_two_conjugate_modes(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        f = gr.SpectralField.from_physical(grid32, np.cos(x))
        idx = np.argwhere(np.abs(f.coeffs) > 1e-8)
        assert sorted(map(tuple, idx.tolist())) == [(1, 0), (31, 0)]
        assert abs(f.coeffs[1, 0]) == pytest.approx(abs(f.coeffs[31, 0]))

    def test_roundtrip_of_real_fields(self, grid32):
        f = random_field(grid32, seed=5)
        assert f.coeffs.shape == grid32.shape == (32, 17)
        assert roundtrip_defect(f) <= 1e-12
        # a half spectrum whose column 0 is not self-conjugate is no real field
        bad = f.coeffs.copy()
        bad[3, 0] += 1j * np.max(np.abs(bad))
        assert roundtrip_defect(gr.SpectralField(grid32, bad)) > 0.1

    def test_parseval(self, grid32):
        rng = np.random.default_rng(2)
        phys = rng.standard_normal((32, 32))
        f = gr.SpectralField.from_physical(grid32, phys)
        direct = math.sqrt(grid32.dx * grid32.dy * np.sum(phys**2))
        assert gr.l2_norm(f) == pytest.approx(direct, rel=1e-12)


class TestMultipliers:
    def test_identity(self, grid32):
        f = random_field(grid32)
        out = gr.apply_multiplier(f, lambda XI, ETA: np.ones_like(XI * ETA))
        assert np.allclose(out.coeffs, f.coeffs)

    def test_derivative_of_cosine(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        f = gr.SpectralField.from_physical(grid32, np.cos(x))
        d = gr.deriv_x(f)
        assert np.max(np.abs(d.to_physical() + np.sin(x))) <= 1e-12

    def test_bessel_weight_on_single_mode(self, grid32):
        coeffs = np.zeros(grid32.shape, complex)
        k = round(1.0 / grid32.xi[1])
        ky = round(1.0 / grid32.eta[1])
        coeffs[k, ky] = 1.0  # the conjugate mode (-k, -ky) is implied
        f = gr.SpectralField(grid32, coeffs)
        out = gr.apply_multiplier(f, lambda XI, ETA: 1.0 + XI**2 + ETA**2)
        assert out.coeffs[k, ky] == pytest.approx(3.0)

    def test_rejects_nonfinite_at_populated_mode(self, grid32):
        f = random_field(grid32)
        with np.errstate(divide="ignore"):
            with pytest.raises(gr.GridError, match="non-finite"):
                gr.apply_multiplier(f, lambda XI, ETA: 1.0 / (XI**2 + ETA**2))

    def test_composition_commutes(self, grid32):
        f = random_field(grid32, seed=9)
        m1 = lambda XI, ETA: 1j * XI
        m2 = lambda XI, ETA: 1.0 + XI**2 + ETA**2
        a = gr.apply_multiplier(gr.apply_multiplier(f, m1), m2)
        b = gr.apply_multiplier(gr.apply_multiplier(f, m2), m1)
        both = gr.apply_multiplier(f, lambda XI, ETA: m1(XI, ETA) * m2(XI, ETA))
        scale = np.max(np.abs(a.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * scale
        assert np.max(np.abs(a.coeffs - both.coeffs)) <= 1e-14 * scale

    @settings(max_examples=20, deadline=None)
    @given(s=st.floats(min_value=-2.0, max_value=4.0))
    def test_weight_monotone_in_mode(self, s):
        g = gr.make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        w = (1.0 + g.A**2) ** (0.5 * s)
        assert np.all(np.isfinite(w))


class TestProjectors:
    def test_dyadic_telescoping(self, grid32):
        f = random_field(grid32, seed=6)
        n0 = 0.25
        total = smooth_cutoff(f, n0, "le").coeffs.copy()
        n = n0
        while n < 4.0 * grid32.nyquist:
            n *= 2.0
            total = total + smooth_cutoff(f, n, "eq").coeffs
        err = np.max(np.abs(total - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert err <= 1e-12

    def test_band_separation(self, grid32):
        # a field supported at A = 4N is annihilated by the N-band annulus
        coeffs = np.zeros(grid32.shape, complex)
        k = 8
        coeffs[k, 0] = 1.0
        coeffs[-k, 0] = 1.0
        f = gr.SpectralField(grid32, coeffs)
        band = smooth_cutoff(f, grid32.xi[k] / 4.0, "eq")
        assert np.max(np.abs(band.coeffs)) == 0.0

    def test_bump_profile(self):
        assert gr.bump_chi(np.array([0.5]))[0] == 1.0
        assert gr.bump_chi(np.array([1.0]))[0] == 1.0
        assert gr.bump_chi(np.array([1.0 + 2e-4]))[0] == 0.0
        mid = gr.bump_chi(np.array([1.0 + 5e-5]))[0]
        assert 0.0 < mid < 1.0


def mixed_norm(f):
    z = gr.SpectralField.zeros(f.grid)
    state = gr.PerturbationState.from_fields(z, z, f, z)
    return gr.x_norm_snapshot(state, 0.0).entries["v:L2xLinfy"]


def assert_fsum_matches(values, reference=None):
    """`gr.fsum` gives the float `math.fsum` gives, sign of zero included, or
    raises the same exception type."""
    if reference is None:
        reference = np.asarray(values, dtype=float).ravel().tolist()
    try:
        want = math.fsum(reference)
    except (OverflowError, ValueError) as err:
        with pytest.raises(type(err)):
            gr.fsum(values)
        return
    got = gr.fsum(values)
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (got, want)


def spread_floats():
    """Finite doubles of every scale: subnormals and signed zeros, 1e-300 to
    1e300, and any finite double (which reaches the overflow cases)."""
    tiny = st.floats(min_value=-1e-306, max_value=1e-306)
    scaled = st.builds(lambda s, m, p: s * m * 10.0 ** p, st.sampled_from([-1.0, 1.0]),
                       st.floats(1.0, 10.0), st.integers(-300, 299))
    return st.one_of(tiny, scaled, st.floats(allow_nan=False, allow_infinity=False))


class TestExactSum:
    """`grid.fsum` is exactly rounded: bit for bit the result of `math.fsum`."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(spread_floats(), max_size=60))
    def test_matches_math_fsum(self, xs):
        assert_fsum_matches(xs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(spread_floats(), min_size=1, max_size=30), st.randoms(use_true_random=False))
    def test_exact_cancellation(self, xs, rnd):
        both = xs + [-x for x in xs]
        rnd.shuffle(both)
        assert_fsum_matches(both)
        assert_fsum_matches(both + [5e-324])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(spread_floats(), min_size=1, max_size=20),
           st.sampled_from([65535, 65536, 65537, 3 * 65536 + 5]))
    def test_across_block_boundaries(self, xs, size):
        assert_fsum_matches(np.resize(np.array(xs), size))

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0, -0.0],
        np.zeros(70000), -np.zeros(70000),
        [5e-324], [5e-324, 5e-324, -5e-324], [5e-324, -5e-324], [-5e-324],
        [2.2250738585072014e-308, -5e-324], [1e-300, 1e300, -1e300],
        [1.0, -0.5, -0.5], [1e-16, 1.0, 1e16], [2.0**53, 1.0, 1e-300],
        [1e300] * 1000, [-1e-300] * 1000,
    ])
    def test_fixed_cases(self, values):
        assert_fsum_matches(values)

    @pytest.mark.parametrize("values", [
        [np.nan, 1.0], [np.inf], [-np.inf, 1e308], [np.inf, -np.inf],
        [1e308, 1e308, -1e308], [1e308, -1e308, 1e308],
        [1.7976931348623157e308, 1e292], [1.7976931348623157e308] * 2,
        [-1.7976931348623157e308, 1.7976931348623157e308],
    ])
    def test_nonfinite_and_overflow(self, values):
        assert_fsum_matches(values)

    def test_nonfinite_in_a_later_block(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.ones(70000)
            x[69000] = bad
            assert_fsum_matches(x)

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 2**21 + 3])
    def test_sizes(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size)
        assert_fsum_matches(x)
        # every value with the largest mantissa of one exponent: the fullest bins
        assert_fsum_matches(np.full(size, 1.0 - 2.0**-53))

    def test_views_lists_and_ints(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((300, 400)) * 1e10
        assert_fsum_matches(a)
        assert_fsum_matches(a[::3, 1::2])
        assert_fsum_matches(a.T)
        assert_fsum_matches(np.asfortranarray(a))
        assert_fsum_matches(a.tolist()[5], reference=a.tolist()[5])
        assert_fsum_matches([1, 2, 3, -7], reference=[1, 2, 3, -7])
        assert_fsum_matches(7, reference=[7])
        assert_fsum_matches(np.arange(100000, dtype=np.int64))

    def test_not_a_plain_sum(self):
        x = [1e16, 1.0, -1e16]
        assert gr.fsum(x) == 1.0
        assert np.sum(x) != 1.0
        big = np.resize([1e16, 1.0, -1e16], 3 * 65536)
        assert gr.fsum(big) == 65536.0 != np.sum(big)


def parametrized_values(test):
    """The `values` a parametrized test of `TestExactSum` runs on."""
    return next(m.args[1] for m in test.pytestmark if m.name == "parametrize")


@pytest.fixture
def list_sizes(monkeypatch):
    """Lengths of the lists handed to `math.fsum`, one entry per call."""
    sizes, real = [], math.fsum

    def spy(xs):
        sizes.append(len(xs))
        return real(xs)

    monkeypatch.setattr(math, "fsum", spy)
    return sizes


class TestExtractedSum:
    """Above `_FSUM_SMALL` values `grid.fsum` decides by extraction passes;
    from one value past that cutoff to past one block it still returns the
    float of `math.fsum`."""

    sizes = st.integers(gr._FSUM_SMALL + 1, gr._FSUM_BLOCK + 100)

    @settings(max_examples=60, deadline=None)
    @given(sizes, st.integers(0, 2**32 - 1), st.booleans())
    def test_one_signed(self, n, seed, wide):
        # wide: 350 binades; narrow: every value in [1, 2), so a block's heads
        # come close to the bound the extraction unit allows
        rng = np.random.default_rng(seed)
        if wide:
            x = np.abs(rng.standard_normal(n)) * np.exp(-rng.uniform(0, 800, n))
        else:
            x = 1.0 + rng.random(n)
        assert_fsum_matches(x)

    @settings(max_examples=60, deadline=None)
    @given(sizes, st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_exact_cancellation(self, n, seed, n_left):
        # pairs x, -x cancel exactly; n_left values of any scale are left over
        rng = np.random.default_rng(seed)
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-300, 300, n // 2)
        left = rng.standard_normal(n_left) * 10.0 ** rng.uniform(-320, 300, n_left)
        x = np.concatenate([half, -half, left])
        rng.shuffle(x)
        assert_fsum_matches(x)

    @pytest.mark.parametrize("size", [gr._FSUM_SMALL + 1, gr._FSUM_BLOCK + 1])
    @pytest.mark.parametrize("values",
                             parametrized_values(TestExactSum.test_fixed_cases)
                             + parametrized_values(TestExactSum.test_nonfinite_and_overflow))
    def test_fixed_cases_tiled(self, values, size):
        assert_fsum_matches(np.resize(np.asarray(values, dtype=float), size))

    def test_decay_like_sum_needs_no_list(self, list_sizes):
        rng = np.random.default_rng(16)
        x = np.abs(rng.standard_normal(100_000)) * np.exp(-rng.uniform(0, 800, 100_000))
        got = gr.fsum(x)
        assert list_sizes and max(list_sizes) < x.size  # the block heads and a bound only
        assert got == math.fsum(x.tolist())

    def test_tie_with_a_tiny_tail_takes_the_list(self, list_sizes):
        # the heads sum to 1 + 2**-53, exactly halfway between two floats, and
        # the tail 2**-1000 decides the rounding, which the bound cannot
        x = [1.0, 2.0**-53, 2.0**-1000] + [0.0] * gr._FSUM_SMALL
        assert gr.fsum(x) == 1.0000000000000002
        assert list_sizes[-1] == len(x)


class TestNorms:
    def test_constant_norm(self):
        # unit-area-normalized box: ||1||_2 = 1
        g = gr.make_grid(16, 16, 1.0, 1.0)
        one = gr.SpectralField.from_physical(g, np.ones((16, 16)))
        assert gr.sobolev_norm(one, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneous_weight_on_unit_frequency(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        f = gr.SpectralField.from_physical(grid32, np.cos(x))
        for gamma in (0.6, 0.75, 1.0):
            assert gr.sobolev_norm(f, gamma, "homogeneous") == pytest.approx(
                gr.l2_norm(f), rel=1e-12)

    def test_sobolev_identity(self, grid32):
        # band-limited below Nyquist so derivative arrays are exact
        f = smooth_cutoff(random_field(grid32, seed=8), grid32.nyquist / 2.0, "le")
        lhs = gr.sobolev_norm(f, 2.0) ** 2
        lap = gr.apply_multiplier(f, lambda XI, ETA: -(XI**2 + ETA**2))
        rhs = (gr.l2_norm(f) ** 2
               + 2.0 * (gr.l2_norm(gr.deriv_x(f)) ** 2 + gr.l2_norm(gr.deriv_y(f)) ** 2)
               + gr.l2_norm(lap) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("s,zero_mode", [(-0.5, 0.0), (0.0, 1.0), (0.75, 0.0)])
    def test_homogeneous_weight_zero_mode(self, grid32, s, zero_mode):
        w = gr.homog_weight(grid32, s)
        assert w[0, 0] == zero_mode
        assert np.all(np.isfinite(w))

    def test_bessel_weight_is_one_at_order_zero(self, grid32):
        assert np.all(gr.bessel_weight(grid32, 0) == 1.0)
        assert gr.bessel_weight(grid32, 2)[1, 1] == 1.0 + grid32.A[1, 1] ** 2

    def test_sup_norm_takes_only_numpy_inf(self, grid32):
        f = random_field(grid32)
        assert gr.sobolev_norm(f, 1, p=np.inf) == np.max(np.abs(
            gr.apply_multiplier(f, gr.bessel_weight(grid32, 1)).to_physical()))
        with pytest.raises(gr.GridError, match="unsupported p"):
            gr.sobolev_norm(f, 1, p="inf")

    def test_homogeneous_negative_order_needs_zero_mean(self, grid32):
        one = gr.SpectralField.from_physical(grid32, np.ones((32, 32)))
        with pytest.raises(gr.GridError, match="homogeneous-symbol-singularity"):
            gr.sobolev_norm(one, -0.5, "homogeneous")

    # the mixed norm || sup_y |v| ||_{L^2_x} is the snapshot's v:L2xLinfy entry
    def test_mixed_norm_constant(self, grid32):
        one = gr.SpectralField.from_physical(grid32, np.ones((32, 32)))
        assert mixed_norm(one) == pytest.approx(math.sqrt(grid32.Lx))

    def test_mixed_norm_y_independent(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        f = gr.SpectralField.from_physical(grid32, np.cos(x))
        expect = math.sqrt(grid32.dx * np.sum(np.cos(np.arange(32) * grid32.dx) ** 2))
        assert mixed_norm(f) == pytest.approx(expect, rel=1e-12)

    def test_mixed_norm_separable(self, grid32):
        gx = np.cos(2 * np.arange(32) * grid32.dx) + 0.3
        hy = np.sin(3 * np.arange(32) * grid32.dy) + 2.0
        f = gr.SpectralField.from_physical(grid32, gx[:, None] * hy[None, :])
        expect = math.sqrt(grid32.dx * np.sum(gx**2)) * np.max(np.abs(hy))
        assert mixed_norm(f) == pytest.approx(expect, rel=1e-12)

    def test_bernstein_ratio_bounded(self):
        # band-limited ratios ||P_M f||_q / (M^(d/p-d/q) ||P_M f||_p) stay
        # below a common constant for (p,q) = (1,2) and (2,inf)
        g = gr.make_grid(64, 64, 2 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(123)
        for trial in range(100):
            m_scale = 2.0 ** rng.integers(1, 4)
            f = gr.SpectralField.from_physical(g, rng.standard_normal((64, 64)))
            f = smooth_cutoff(f, m_scale, "eq")
            l1 = g.dx * g.dy * gr.fsum(np.abs(f.to_physical()))
            l2 = gr.l2_norm(f)
            linf = gr.sobolev_norm(f, 0.0, p=np.inf)
            if l2 == 0.0:
                continue
            assert l2 / (m_scale * l1) < 10.0
            assert linf / (m_scale * l2) < 10.0


class TestXNormSnapshot:
    def test_zero_state(self, grid32):
        snap = gr.x_norm_snapshot(gr.PerturbationState.zeros(grid32), 0.0)
        assert all(v == 0.0 for v in snap.entries.values())

    def test_single_component_localization(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        n = gr.SpectralField.from_physical(grid32, 1e-3 * np.cos(x))
        z = gr.SpectralField.zeros(grid32)
        snap = gr.x_norm_snapshot(gr.PerturbationState.from_fields(n, z, z, z), 1.0)
        for key, val in snap.entries.items():
            if key.startswith("n:"):
                assert val > 0.0
            else:
                assert val == 0.0

    def test_parameter_validation(self, grid32):
        state = gr.PerturbationState.zeros(grid32)
        with pytest.raises(gr.GridError):
            gr.x_norm_snapshot(state, 0.0, gamma=0.4)
        with pytest.raises(gr.GridError):
            gr.x_norm_snapshot(state, 0.0, gamma_bar=2.0)
        with pytest.raises(gr.GridError):
            gr.x_norm_snapshot(state, 0.0, M=4)

    def test_dual_path_recomputation(self, grid32):
        """Manufactured state: every L^2 entry re-derived through a second,
        physical-space route to 1e-10."""
        rng = np.random.default_rng(77)
        fields = []
        for seed in range(4):
            f = random_field(grid32, seed=seed + 40, rough=0.4)
            fields.append(gr.SpectralField(grid32, f.coeffs * 1e-2))
        state = gr.PerturbationState.from_fields(*fields)
        snap = gr.x_norm_snapshot(state, 2.0, M=8, gamma=0.75, gamma_bar=1.0)

        def phys_l2(field, weight):
            shaped = gr.apply_multiplier(field, weight)
            phys = shaped.to_physical()
            return math.sqrt(grid32.dx * grid32.dy * np.sum(phys**2))

        n, u, v, psi = state.fields
        bessel = lambda s: (lambda XI, ETA: (1.0 + XI**2 + ETA**2) ** (s / 2.0))
        checks = {
            "n:HM_L2": phys_l2(n, bessel(8)),
            "n:H3_L2": phys_l2(n, bessel(3)),
            "u:L2": math.sqrt(phys_l2(u, bessel(0)) ** 2 + phys_l2(v, bessel(0)) ** 2),
            "psi:dx_L2": phys_l2(psi, lambda XI, ETA: 1j * XI * np.ones_like(ETA + XI)),
        }
        for key, expect in checks.items():
            assert snap.entries[key] == pytest.approx(expect, rel=1e-10), key

    def test_time_weights_reported_separately(self, grid32):
        state = gr.PerturbationState.zeros(grid32)
        snap = gr.x_norm_snapshot(state, 3.0, eps=0.01)
        assert snap.weights["n:H3_L2"] == 0.25
        assert snap.weights["n:HM_L2"] == -0.01
        assert snap.weighted("n:H3_L2") == 0.0


def per_entry_snapshot(state, M=8, gamma=0.75, gamma_bar=1.0):
    """The route that measured an observation before the one-pass snapshot: one
    `sobolev_norm` (or transform) per entry, then the H^M energy and the sup
    norms recomputed from the state.  Returns (entries, energy, sups)."""
    n, u, v, psi = state.fields
    g = state.grid
    inf = np.inf

    def vec_l2(*vals):
        return math.sqrt(gr.fsum([x * x for x in vals]))

    def mixed(f):
        col_sup = np.max(np.abs(f.to_physical()), axis=1)
        return math.sqrt(f.grid.dx * gr.fsum(col_sup**2))

    dxu, dxn, dxpsi = gr.deriv_x(u), gr.deriv_x(n), gr.deriv_x(psi)
    grad_psi = (gr.deriv_x(psi), gr.deriv_y(psi))
    grad_v = (gr.deriv_x(v), gr.deriv_y(v))
    entries = {
        "n:HM_L2": gr.sobolev_norm(n, M),
        "n:H3_L2": gr.sobolev_norm(n, 3),
        "n:H3half_inf": gr.sobolev_norm(n, 1.5, p=inf),
        "n:dx_H1_L2": gr.sobolev_norm(dxn, 1),
        "u:HM_L2": vec_l2(gr.sobolev_norm(u, M), gr.sobolev_norm(v, M)),
        "u:L2": vec_l2(gr.l2_norm(u), gr.l2_norm(v)),
        "u:H1_inf": max(gr.sobolev_norm(u, 1, p=inf), gr.sobolev_norm(v, 1, p=inf)),
        "v:L2xLinfy": mixed(v),
        "u:hgamma_L2": vec_l2(gr.sobolev_norm(u, gamma, "homogeneous"),
                              gr.sobolev_norm(v, gamma, "homogeneous")),
        "u:dx_H1_L2": gr.sobolev_norm(dxu, 1),
        "v:grad_H1_L2": vec_l2(*(gr.sobolev_norm(d, 1) for d in grad_v)),
        "psi:HM_grad_L2": vec_l2(*(gr.sobolev_norm(d, M) for d in grad_psi)),
        "psi:H4hgamma_L2": gr.sobolev_norm(
            gr.apply_multiplier(psi, gr.homog_weight(g, gamma)), 4),
        "psi:dx_L2": gr.l2_norm(dxpsi),
        "psi:dx_grad_L2": vec_l2(gr.l2_norm(gr.deriv_x(dxpsi)),
                                 gr.l2_norm(gr.deriv_y(dxpsi))),
        "psi:hgammabar_H1_inf": gr.sobolev_norm(
            gr.apply_multiplier(psi, gr.homog_weight(g, gamma_bar)), 1, p=inf),
    }
    comps = [n, u, v, *grad_psi]
    energy = math.sqrt(gr.fsum([gr.sobolev_norm(f, M) ** 2 for f in comps]))
    nphys, uphys, vphys = n.to_physical(), u.to_physical(), v.to_physical()
    gx, gy = (d.to_physical() for d in grad_psi)
    sups = (float(np.max(np.abs(nphys))),
            float(np.max(np.sqrt(uphys**2 + vphys**2))),
            float(np.max(np.sqrt(gx**2 + gy**2))))
    return entries, energy, sups


def observation_states(grid):
    """Zero; rough with nonzero means and every mode, Nyquist included,
    populated; psi alone, band-limited so that most modes are exactly zero."""
    rng = np.random.default_rng(2024)

    def rough(mean):
        return gr.SpectralField.from_physical(
            grid, mean + 1e-2 * rng.standard_normal((grid.nx, grid.ny)))

    z = gr.SpectralField.zeros(grid)
    psi = smooth_cutoff(rough(0.3), 4.0, "le")
    return {"zero": gr.PerturbationState.zeros(grid),
            "rough": gr.PerturbationState.from_fields(
                rough(0.02), rough(-0.01), rough(0.05), rough(0.3)),
            "psi_only": gr.PerturbationState.from_fields(z, z, z, psi)}


class TestOnePassSnapshot:
    @pytest.mark.parametrize("params", [(8, 0.75, 1.0), (10, 0.9, 0.6)])
    @pytest.mark.parametrize("which", ["zero", "rough", "psi_only"])
    def test_bitwise_equal_to_per_entry_route(self, grid32, which, params):
        M, gamma, gamma_bar = params
        state = observation_states(grid32)[which]
        snap = gr.x_norm_snapshot(state, 1.5, M=M, gamma=gamma, gamma_bar=gamma_bar)
        entries, energy, sups = per_entry_snapshot(state, M, gamma, gamma_bar)
        assert list(snap.entries) == list(gr.X_ENTRY_WEIGHTS)
        for key in gr.X_ENTRY_WEIGHTS:
            assert snap.entries[key] == entries[key], key
        assert snap.energy == energy
        assert (snap.sup_n, snap.sup_u, snap.sup_grad_psi) == sups

    def test_states_cover_the_cases(self, grid32):
        states = observation_states(grid32)
        rough = states["rough"]
        assert all(f.coeffs[0, 0] != 0 for f in rough.fields)
        assert all(np.all(f.coeffs[16, :] != 0) for f in rough.fields)
        psi = states["psi_only"].psi.coeffs
        assert 0 < np.count_nonzero(psi) < psi.size // 2

    def test_one_inverse_transform_per_array(self, grid32, monkeypatch):
        state = observation_states(grid32)["rough"]
        calls = []
        for name in ("ifft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(calls, name))
        gr.x_norm_snapshot(state, 1.0)
        assert calls == [("ifft", grid32.shape), ("irfft", grid32.shape)] * 9

    def test_physical_values_stream_through_two_planes(self, grid32, monkeypatch):
        # n^3/2, (u^1, v^1), psi^1, n, (u, v), (psi_x, psi_y), all into one
        # two-plane array
        state = observation_states(grid32)["rough"]
        calls = []

        def recorded(grid, spectra, out=None, scratch=None):
            calls.append((len(spectra), out.base if out.base is not None else out))
            return to_physical(grid, spectra, out, scratch)

        to_physical = gr.to_physical
        monkeypatch.setattr(gr, "to_physical", recorded)
        gr.x_norm_snapshot(state, 1.0)
        assert [k for k, _ in calls] == [1, 2, 1, 1, 2, 2]
        assert all(base is calls[0][1] and base.shape == (2, 32, 32) for _, base in calls)


def counted(calls, name):
    """np.fft.<name> recording (name, shape of the array transformed) per call."""
    fn = getattr(np.fft, name)

    def wrapper(a, *args, **kwargs):
        calls.append((name, np.shape(a)))
        return fn(a, *args, **kwargs)
    return wrapper


# 32^2, a non-square box with Lx != Ly, no dealiasing (every column, Nyquist
# included), and the smallest grid
_TRANSFORM_CASES = [
    (gr.make_grid(32, 32, 2 * np.pi, 4 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 48, 2 * np.pi, 5 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 32, 2 * np.pi, 4 * np.pi), 1.0),
    (gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi), 2.0 / 3.0),
    (gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi), 1.0),
]
_TRANSFORM_IDS = ["32x32", "32x48", "32x32-no-dealias", "4x4", "4x4-no-dealias"]


@pytest.mark.parametrize("grid,fraction", _TRANSFORM_CASES, ids=_TRANSFORM_IDS)
class TestBandTransforms:
    def test_dealias_columns_hold_the_band(self, grid, fraction):
        mask = grid.dealias_mask(fraction)
        nc = grid.dealias_columns(fraction)
        assert mask[:, :nc].any(axis=0).all() and not mask[:, nc:].any()
        if fraction == 1.0:
            assert nc == grid.shape[1]

    def test_inverse_on_the_band_columns_is_irfft2(self, grid, fraction):
        rng = np.random.default_rng(7)
        mask = grid.dealias_mask(fraction)
        nc = grid.dealias_columns(fraction)
        coeffs = (rng.standard_normal((3, *grid.shape))
                  + 1j * rng.standard_normal((3, *grid.shape))) * mask
        ref = np.fft.irfft2(coeffs, s=(grid.nx, grid.ny)) / (grid.dx * grid.dy)
        assert np.array_equal(gr.to_physical(grid, coeffs[..., :nc]), ref)
        assert np.array_equal(gr.to_physical(grid, coeffs), ref)
        assert np.array_equal(gr.SpectralField(grid, coeffs[0]).to_physical(), ref[0])

    def test_forward_on_the_band_columns_is_rfft2(self, grid, fraction):
        values = np.random.default_rng(8).standard_normal((3, grid.nx, grid.ny))
        nc = grid.dealias_columns(fraction)
        ref = np.fft.rfft2(values) * (grid.dx * grid.dy)
        assert np.array_equal(gr.to_spectral(grid, values, nc), ref[..., :nc])
        assert np.array_equal(gr.to_spectral(grid, values), ref)
        assert np.array_equal(gr.SpectralField.from_physical(grid, values[0]).coeffs, ref[0])

    def test_out_and_scratch_arrays_give_the_same_bits(self, grid, fraction):
        rng = np.random.default_rng(9)
        nc = grid.dealias_columns(fraction)
        coeffs = rng.standard_normal((3, grid.nx, nc)) + 1j * rng.standard_normal((3, grid.nx, nc))
        values = rng.standard_normal((3, grid.nx, grid.ny))
        out = np.empty((3, grid.nx, grid.ny))
        got = gr.to_physical(grid, coeffs, out, np.empty((grid.nx, nc), complex))
        assert got is out and np.array_equal(out, gr.to_physical(grid, coeffs))
        out = np.empty((3, grid.nx, nc), complex)
        got = gr.to_spectral(grid, values, nc, out, np.empty(grid.shape, complex))
        assert got is out and np.array_equal(out, gr.to_spectral(grid, values, nc))

    def test_x_pass_runs_on_the_band_columns_only(self, grid, fraction, monkeypatch):
        nc = grid.dealias_columns(fraction)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(calls, name))
        gr.to_physical(grid, np.zeros((2, grid.nx, nc), complex))
        gr.to_spectral(grid, np.zeros((2, grid.nx, grid.ny)), nc)
        assert calls == [("ifft", (grid.nx, nc)), ("irfft", (grid.nx, nc))] * 2 + [
            ("rfft", (grid.nx, grid.ny)), ("fft", (grid.nx, nc))] * 2


class TestSerialization:
    def test_roundtrip(self, tmp_path, grid32):
        f = random_field(grid32, seed=13)
        gr.save_field(f, tmp_path / "field", name="density", time=2.5)
        back, meta = gr.load_field(tmp_path / "field")
        assert meta["name"] == "density" and meta["time"] == 2.5
        assert meta["nx"] == 32 and meta["Ly"] == pytest.approx(4 * np.pi)
        assert np.max(np.abs(back.to_physical() - f.to_physical())) <= 1e-12

    def test_layout_x_fastest(self, tmp_path, grid32):
        # byte stream iterates x fastest: value at (x_i, y_j) sits at j*nx + i
        phys = np.arange(32 * 32, dtype=float).reshape(32, 32)
        f = gr.SpectralField.from_physical(grid32, phys)
        gr.save_field(f, tmp_path / "f")
        raw = np.frombuffer((tmp_path / "f.bin").read_bytes(), dtype="<f8")
        i, j = 3, 5
        assert raw[j * 32 + i] == pytest.approx(phys[i, j])


class TestPerturbationState:
    def test_shared_grid_enforced(self, grid32):
        other = gr.make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        with pytest.raises(gr.GridError, match="share one grid"):
            gr.PerturbationState.from_fields(
                gr.SpectralField.zeros(grid32), gr.SpectralField.zeros(grid32),
                gr.SpectralField.zeros(grid32), gr.SpectralField.zeros(other))

    @pytest.mark.parametrize("shape", [(3, 32, 17), (4, 32, 32), (32, 17)])
    def test_rejects_wrong_shape(self, grid32, shape):
        with pytest.raises(gr.GridError, match=rf"shape \({', '.join(map(str, shape))}\)"):
            gr.PerturbationState(grid32, np.zeros(shape, complex))

    def test_casts_to_one_contiguous_complex_array(self, grid32):
        real = np.ones((32, 17, 4)).transpose(2, 0, 1)
        state = gr.PerturbationState(grid32, real)
        assert state.coeffs.dtype == complex and state.coeffs.flags.c_contiguous
        again = gr.PerturbationState(grid32, state.coeffs)
        assert again.coeffs is state.coeffs  # no copy of a conforming array

    def test_fields_are_views_of_the_rows(self, grid32):
        state = gr.PerturbationState.zeros(grid32)
        views = (state.n, state.u, state.v, state.psi)
        for i, (f, g) in enumerate(zip(views, state.fields)):
            assert f.grid is grid32 and np.shares_memory(f.coeffs, state.coeffs[i])
            assert np.shares_memory(g.coeffs, state.coeffs[i])

    def test_scaled_and_zeros_act_on_the_array(self, grid32):
        state = gr.PerturbationState(grid32, np.arange(4 * 32 * 17).reshape(4, 32, 17))
        assert np.array_equal(state.scaled(0.5).coeffs, state.coeffs * 0.5)
        zero = gr.PerturbationState.zeros(grid32)
        assert zero.coeffs.shape == (4, 32, 17) and not np.any(zero.coeffs)

    def test_stack_roundtrip(self, grid32):
        fields = [random_field(grid32, seed=s) for s in range(4)]
        state = gr.PerturbationState.from_fields(*fields)
        back = gr.PerturbationState(grid32, state.coeffs)
        for f, a, b in zip(fields, state.fields, back.fields):
            assert np.array_equal(f.coeffs, a.coeffs) and np.array_equal(a.coeffs, b.coeffs)
        again = gr.PerturbationState.from_fields(*state.fields)
        assert again.coeffs.tobytes() == state.coeffs.tobytes()
