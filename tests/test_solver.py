"""Tests for the pseudo-spectral integrator: nonlinear terms, exponential
stepping, diagnostics, and conservation."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mhdlab import grid as gr
from mhdlab import linear as ln
from mhdlab import solver as sv
from test_linear import rel_err, within_three_scipy


@pytest.fixture
def grid32():
    return gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi)


def roundtrip_defect(f):
    """Relative change of f under to_physical then from_physical: 0 to rounding
    only if column 0 and the Nyquist column are self-conjugate along xi."""
    back = gr.SpectralField.from_physical(f.grid, f.to_physical()).coeffs
    return float(np.max(np.abs(back - f.coeffs)) / (np.max(np.abs(f.coeffs)) or 1.0))


def full_wavenumbers(grid):
    """xi and eta of the full (nx, ny) spectrum in FFT layout, built apart from
    the grid's half lattice."""
    return (2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.Lx / grid.nx),
            2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.Ly / grid.ny))


def full_dealias_mask(grid, fraction=2.0 / 3.0):
    """The dealias band on the full spectrum: |k| < fraction * N / 2 along each
    axis of N points, every mode at fraction 1."""
    kx, ky = (np.abs(np.rint(np.fft.fftfreq(n) * n)) for n in (grid.nx, grid.ny))
    if fraction == 1.0:
        return np.ones((grid.nx, grid.ny), dtype=bool)
    return (kx[:, None] < fraction * grid.nx / 2) & (ky[None, :] < fraction * grid.ny / 2)


def full_spectrum(f):
    """The (nx, ny) coefficients of a field, from its physical values."""
    return np.fft.fft2(f.to_physical()) * (f.grid.dx * f.grid.dy)


def padded(coeffs, grid):
    """Band-column coefficients (..., nx, nc) on the whole half spectrum."""
    out = np.zeros(coeffs.shape[:-1] + (grid.shape[1],), complex)
    out[..., :coeffs.shape[-1]] = coeffs
    return out


def single_field_state(grid, which, values):
    fields = [gr.SpectralField.zeros(grid) for _ in range(4)]
    fields[which] = gr.SpectralField.from_physical(grid, values)
    return gr.PerturbationState.from_fields(*fields)


class TestConfig:
    def test_defaults_valid(self):
        sv.SolverConfig().validate()

    def test_lambda_bound(self):
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(lam=1.0).validate()
        assert any("lambda" in p for p in err.value.problems)

    def test_all_problems_listed(self):
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(lam=2.0, dt=-1.0, nx=7).validate()
        joined = " ".join(err.value.problems)
        assert "lambda" in joined and "dt" in joined and "nx" in joined

    def test_from_json_renames(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lambda": 0.2, "init": "random", "nx": 8, "ny": 8, '
                        '"T": 1.0, "Lx": 6.283, "Ly": 6.283}')
        cfg = sv.SolverConfig.from_json(path)
        assert cfg.lam == 0.2 and cfg.init_spec == "random"

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(eps=eps).validate()
        assert any(p.startswith("eps") for p in err.value.problems)
        with pytest.raises(sv.ConfigError, match="eps"):
            sv.SolverConfig.from_json({"eps": eps})

    def test_working_space_problems_listed_together(self):
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(gamma=0.4, gamma_bar=2.0, M=4, eps=0.0).validate()
        fields = sorted(p.split(":")[0] for p in err.value.problems)
        assert fields == ["M", "eps", "gamma", "gamma_bar"]

    def test_nonfinite_fields_named(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(dt=nan, lam=nan, cadence=nan, delta=nan,
                            T=inf, Lx=inf).validate()
        fields = sorted(p.split(":")[0] for p in err.value.problems)
        assert fields == ["Lx", "T", "cadence", "delta", "dt", "lambda"]
        assert all("must be finite" in p for p in err.value.problems)

    @pytest.mark.parametrize("field,value,dt", [("T", 1.0, 0.3), ("cadence", 0.5, 0.3),
                                                ("T", 0.04, 0.1), ("cadence", 0.01, 0.05)])
    def test_times_must_be_whole_steps(self, field, value, dt):
        # T = 1 with dt = 0.3 used to end at 0.9; T = 0.04 with dt = 0.1 ran
        # no step at all
        kwargs = {"T": 0.9, "cadence": 0.3, field: value}
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(dt=dt, **kwargs).validate()
        assert err.value.problems == [
            f"{field}: {value} is not an integer multiple of dt = {dt}"]

    def test_shipped_configs_are_whole_steps(self):
        # the README schema example, the benchmark run and the test runs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert example.keys() == sv.SolverConfig().to_json().keys()
        cfg = sv.SolverConfig.from_json(example)
        assert sv.SolverConfig.from_json(cfg.to_json()) == cfg
        for T, dt, cadence in ((5.0, 0.05, 0.25), (100.0, 0.05, 1.0), (0.5, 0.1, 0.1),
                               (2.0, 0.05, 1.0), (20.0, 0.2, 1.0), (1.0, 0.1, 0.5)):
            sv.SolverConfig(T=T, dt=dt, cadence=cadence).validate()

    def test_field_types(self):
        # JSON 5 for a float field and numpy scalars stay valid
        sv.SolverConfig(T=5, nx=np.int64(16), ny=16, dt=np.float64(0.05)).validate()
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig(nx=16.0, M=True, eps="0.01", nonlinear=0).validate()
        assert [p.split(":")[0] for p in err.value.problems] == ["nx", "M", "eps", "nonlinear"]

    def test_from_json_unknown_field(self):
        with pytest.raises(sv.ConfigError, match="unknown field"):
            sv.SolverConfig.from_json({"bogus": 1})

    @pytest.mark.parametrize("payload", [[1, 2], "16", 3.5, None])
    def test_from_json_top_level_not_an_object(self, payload, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig.from_json(path)
        assert err.value.problems == [
            f"config: the top level must be a JSON object, got {type(payload).__name__}"]

    @pytest.mark.parametrize("first,second", [("lambda", "lam"), ("lam", "lambda"),
                                              ("init", "init_spec")])
    def test_from_json_field_given_twice(self, first, second):
        value = "random" if first.startswith("init") else 0.1
        other = "gaussian" if first.startswith("init") else 0.2
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig.from_json({first: value, second: other})
        assert err.value.problems == [f"{first}: given twice, as {first!r} and {second!r}"]

    @pytest.mark.parametrize("text,twice", [
        ('{"lam": 0.1, "lam": 0.2}', ["lam"]),
        ('{"T": 1.0, "nx": 8, "T": 2.0, "nx": 8, "T": 3.0}', ["T", "nx"]),
    ])
    def test_from_json_file_repeats_a_key(self, tmp_path, text, twice):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(sv.ConfigError) as err:
            sv.SolverConfig.from_json(path)
        assert err.value.problems == [f"{key}: given twice" for key in twice]

    def test_digest_stable(self):
        a, b = sv.SolverConfig(), sv.SolverConfig()
        assert a.digest() == b.digest()
        assert a.digest() != sv.SolverConfig(dt=0.01).digest()


def per_field_x0_surrogate(state, M=8):
    """The initial-data size as computed before the one-pass observation: one
    transform per component and a separate H^M energy."""
    n, u, v, psi = state.fields
    comps = [n, u, v, gr.deriv_x(psi), gr.deriv_y(psi)]
    mags = np.sqrt(sum(
        gr.apply_multiplier(f, (1.0 + f.grid.A**2) ** 2.5).to_physical() ** 2
        for f in comps))
    l1 = state.grid.dx * state.grid.dy * float(mags.sum())
    energy = math.sqrt(math.fsum([gr.sobolev_norm(f, M) ** 2 for f in comps]))
    return energy + l1


class TestInitialData:
    @pytest.mark.parametrize("spec", ["gaussian", "random"])
    def test_bitwise_equal_to_per_field_route(self, grid32, monkeypatch, spec):
        one_pass = sv.x0_surrogate
        got = sv.initial_data(spec, grid32, 1e-3, seed=4, M=9)
        monkeypatch.setattr(sv, "x0_surrogate", per_field_x0_surrogate)
        ref = sv.initial_data(spec, grid32, 1e-3, seed=4, M=9)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()
        for state in (got, random_real_state(grid32, 6, 0.2)):
            assert one_pass(state, M=9) == per_field_x0_surrogate(state, M=9)

    def test_surrogate_near_exactly_rounded(self, monkeypatch, fsum_l2):
        g = gr.make_grid(64, 64, 2 * np.pi, 2 * np.pi)
        state = rough_state(g, 5, 0.1)
        got = sv.x0_surrogate(state)
        comps = gr.energy_components(state)
        mags = np.sqrt(sum(gr.to_physical(g, gr.bessel_weight(g, 5) * comps) ** 2))
        monkeypatch.setattr(gr, "_l2", fsum_l2)
        want = gr.hm_energy(g, comps, 8)[0] + g.dx * g.dy * math.fsum(mags.ravel().tolist())
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_zero_delta(self, grid32):
        state = sv.initial_data("gaussian", grid32, 0.0)
        assert all(np.max(np.abs(f.coeffs)) == 0.0 for f in state.fields)

    def test_scaled_to_delta(self, grid32):
        for spec in ("gaussian", "random"):
            state = sv.initial_data(spec, grid32, 1e-3, seed=2)
            assert sv.x0_surrogate(state) == pytest.approx(1e-3, rel=1e-12)

    def test_band_limited(self, grid32):
        state = sv.initial_data("random", grid32, 1e-2, seed=1)
        outside = grid32.A > grid32.nyquist / 3.0
        for f in state.fields:
            assert np.max(np.abs(f.coeffs[outside])) == 0.0

    def test_deterministic(self, grid32):
        a = sv.initial_data("random", grid32, 1e-3, seed=42)
        b = sv.initial_data("random", grid32, 1e-3, seed=42)
        for fa, fb in zip(a.fields, b.fields):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_gaussian_nonzero_mean_density(self, grid32):
        state = sv.initial_data("gaussian", grid32, 1e-3)
        assert abs(state.n.coeffs[0, 0]) > 0.0

    def test_physical_roundtrip(self, grid32):
        for spec in ("gaussian", "random"):
            state = sv.initial_data(spec, grid32, 1e-3, seed=5)
            for f in state.fields:
                assert f.coeffs.shape == grid32.shape
                assert roundtrip_defect(f) <= 1e-12


class TestNonlinearTerms:
    def test_zero_state(self, grid32):
        nl = sv.nonlinear_terms(gr.PerturbationState.zeros(grid32))
        assert np.max(np.abs(nl)) == 0.0

    def test_velocity_self_advection(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        state = single_field_state(grid32, 1, np.cos(x))
        nl = padded(sv.nonlinear_terms(state, lam=0.4), grid32)
        n1 = gr.SpectralField(grid32, nl[1]).to_physical()
        assert np.max(np.abs(n1 - 0.5 * np.sin(2 * x))) <= 1e-12
        for k in (0, 2, 3):
            assert np.max(np.abs(nl[k])) <= 1e-14

    def test_parallel_shear_does_not_advect_itself(self, grid32):
        # (u.grad)u = 0 for u = (sin y, 0), while grad Q and the vorticity are
        # not: the Lamb form's two parts must cancel, which a wrong sign of
        # the vorticity or a wrong factor 1/2 in Q would not
        y = (np.arange(32) * grid32.dy)[None, :] * np.ones((32, 1))
        state = single_field_state(grid32, 1, np.sin(y))
        nl = sv.nonlinear_terms(state, lam=0.4)
        for k in range(4):
            assert np.max(np.abs(nl[k])) <= 1e-14

    def test_density_self_transport(self, grid32):
        # -n dx n = sin(2x) / 2 for n = cos x: the n^2 in Q
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        state = single_field_state(grid32, 0, 0.5 * np.cos(x))
        nl = padded(sv.nonlinear_terms(state, lam=0.4), grid32)
        n1 = gr.SpectralField(grid32, nl[1]).to_physical()
        assert np.max(np.abs(n1 - 0.125 * np.sin(2 * x))) <= 1e-12
        for k in (0, 2, 3):
            assert np.max(np.abs(nl[k])) <= 1e-14

    def test_transport_of_flat_potential(self, grid32):
        y = (np.arange(32) * grid32.dy)[None, :] * np.ones((32, 1))
        fields = [gr.SpectralField.zeros(grid32) for _ in range(4)]
        fields[1] = gr.SpectralField.from_physical(grid32, np.ones((32, 32)))
        fields[3] = gr.SpectralField.from_physical(grid32, np.cos(y))
        nl = sv.nonlinear_terms(gr.PerturbationState.from_fields(*fields))
        assert np.max(np.abs(nl[3])) <= 1e-14

    def test_density_collapse_guard(self, grid32):
        x = (np.arange(32) * grid32.dx)[:, None] * np.ones((1, 32))
        state = single_field_state(grid32, 0, 1.2 * np.cos(x))
        with pytest.raises(sv.DensityCollapseError, match="density-collapse"):
            sv.nonlinear_terms(state)
        # n is transformed and checked before any other factor
        with pytest.raises(sv.DensityCollapseError,
                           match=r"^density-collapse: max\|n\| = 1\.200 >= 0\.99$"):
            sv.Stepper(grid32, 0.1).step(state)

    def test_mean_of_density_rhs_vanishes(self, grid32):
        rng = np.random.default_rng(3)
        fields = []
        for s in range(4):
            f = gr.SpectralField.from_physical(grid32, rng.standard_normal((32, 32)))
            fields.append(gr.apply_multiplier(f, 0.01 * np.exp(-0.5 * grid32.A**2)))
        nl = sv.nonlinear_terms(gr.PerturbationState.from_fields(*fields))
        assert abs(nl[0][0, 0]) <= 1e-18

    def test_workspace_results_alternate(self, grid32):
        # a result stays intact through the next call on the same workspace,
        # and equals the result of a fresh workspace bit for bit
        work = sv._Workspace(grid32, 2.0 / 3.0)
        one, two = random_real_state(grid32, 1, 0.2), random_real_state(grid32, 2, 0.2)
        first = sv.nonlinear_terms(one, 0.3, work=work)
        kept = first.tobytes()
        second = sv.nonlinear_terms(two, 0.3, work=work)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept == sv.nonlinear_terms(one, 0.3).tobytes()
        assert second.tobytes() == sv.nonlinear_terms(two, 0.3).tobytes()

    @pytest.mark.parametrize("grid,fraction", [
        (gr.make_grid(32, 32, 4 * np.pi, 4 * np.pi), 2.0 / 3.0),
        (gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi), 1.0)])
    def test_workspace_of_another_grid_or_band_is_refused(self, grid32, grid, fraction):
        with pytest.raises(ValueError, match="another grid or band"):
            sv.nonlinear_terms(gr.PerturbationState.zeros(grid32),
                               work=sv._Workspace(grid, fraction))

    def test_output_dealiased(self, grid32):
        rng = np.random.default_rng(4)
        fields = [gr.apply_multiplier(
            gr.SpectralField.from_physical(grid32, rng.standard_normal((32, 32))),
            0.05 * np.exp(-0.1 * grid32.A**2)) for _ in range(4)]
        nl = padded(sv.nonlinear_terms(gr.PerturbationState.from_fields(*fields)), grid32)
        outside = ~grid32.dealias_mask()
        for k in range(4):
            assert np.max(np.abs(nl[k][outside])) == 0.0


def random_real_state(grid, seed, size):
    """Random real fields band-limited to the 2/3 band, each of max |value| = size."""
    rng = np.random.default_rng(seed)
    mask = full_dealias_mask(grid)
    fields = []
    for _ in range(4):
        phys = np.fft.ifft2(np.fft.fft2(rng.standard_normal((grid.nx, grid.ny))) * mask).real
        fields.append(gr.SpectralField.from_physical(grid, size * phys / np.max(np.abs(phys))))
    return gr.PerturbationState.from_fields(*fields)


def per_field_nonlinear_terms(state, lam, dealias_fraction=2.0 / 3.0):
    """Reference right-hand side on the full (nx, ny) spectrum, with the
    advection in its textbook form: every factor and product through its own
    complex transform, with the viscous terms combined in physical space.
    Returns the stored half, columns [:, :ny//2 + 1]."""
    g = state.grid
    mask = full_dealias_mask(g, dealias_fraction)
    xi, eta = full_wavenumbers(g)
    xi_d, eta_d = xi.copy(), eta.copy()
    xi_d[g.nx // 2] = eta_d[g.ny // 2] = 0.0
    ikx = 1j * xi_d[:, None]
    iky = 1j * eta_d[None, :]
    lap = -(xi[:, None]**2 + eta[None, :]**2)

    def phys(coeffs):
        return np.fft.ifft2(coeffs * mask).real / (g.dx * g.dy)

    def hat(values):
        return np.fft.fft2(values) * (g.dx * g.dy)

    cn, cu, cv, cp = (full_spectrum(f) for f in state.fields)
    n, u, v = phys(cn), phys(cu), phys(cv)
    n_x, n_y = phys(ikx * cn), phys(iky * cn)
    u_x, u_y = phys(ikx * cu), phys(iky * cu)
    v_x, v_y = phys(ikx * cv), phys(iky * cv)
    psi_x, psi_y = phys(ikx * cp), phys(iky * cp)
    lap_u, lap_v, lap_psi = phys(lap * cu), phys(lap * cv), phys(lap * cp)
    div_visc_x = phys(ikx * ikx * cu + ikx * iky * cv)
    div_visc_y = phys(ikx * iky * cu + iky * iky * cv)
    rho = 1.0 + n
    n1 = (-(u * u_x + v * u_y) - (n * lap_u + n * lam * div_visc_x) / rho
          - psi_x * lap_psi / rho - n * n_x)
    n2 = (-(u * v_x + v * v_y) - (n * lap_v + n * lam * div_visc_y - n * lap_psi) / rho
          - psi_y * lap_psi / rho - n * n_y)
    n3 = -(u * psi_x + v * psi_y)
    out = np.stack([ikx * hat(-(n * u)) + iky * hat(-(n * v)), hat(n1), hat(n2), hat(n3)])
    return (out * mask)[..., :g.ny // 2 + 1]


def batched_nonlinear_terms(state, lam, dealias_fraction=2.0 / 3.0):
    """The right-hand side with one batched irfft2 over the 9 factors and one
    batched rfft2 over the 6 products, on the whole half spectrum: the
    transform layout the per-array, band-column one replaces, kept here as its
    bitwise reference.  The momentum rows are in Lamb form, -grad Q + (v w, -u w)."""
    g = state.grid
    mask = g.dealias_mask(dealias_fraction)
    cn, cu, cv, cp = (f.coeffs * mask for f in state.fields)
    ikx = 1j * g.xi_d[:, None]
    iky = 1j * g.eta_d[None, :]
    lap = -(g.XI**2 + g.ETA**2)
    visc_x = lap * cu + lam * (ikx * ikx * cu + ikx * iky * cv)
    visc_y = lap * cv + lam * (ikx * iky * cu + iky * iky * cv) - lap * cp
    spec = np.stack([cn, cu, cv, ikx * cp, iky * cp, lap * cp, ikx * cv - iky * cu,
                     visc_x, visc_y])
    phys = np.fft.irfft2(spec, s=(g.nx, g.ny))
    phys /= g.dx * g.dy
    n, u, v, psi_x, psi_y, lap_psi, omega, visc_x, visc_y = phys
    rho = 1.0 + n
    products = np.stack([
        -(n * u),
        -(n * v),
        -(u * psi_x + v * psi_y),
        0.5 * (u * u + v * v + n * n),
        v * omega - (n * visc_x + psi_x * lap_psi) / rho,
        -(u * omega) - (n * visc_y + psi_y * lap_psi) / rho,
    ])
    hat = np.fft.rfft2(products) * (g.dx * g.dy)
    out = np.stack([ikx * hat[0] + iky * hat[1], hat[4] - ikx * hat[3],
                    hat[5] - iky * hat[3], hat[2]])
    out *= mask
    return out


def rough_state(grid, seed, size):
    """Random real fields with every mode populated, Nyquist included, each of
    max |value| = size."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(4):
        phys = rng.standard_normal((grid.nx, grid.ny))
        fields.append(gr.SpectralField.from_physical(grid, size * phys / np.max(np.abs(phys))))
    return gr.PerturbationState.from_fields(*fields)


def band_part(state, fraction=2.0 / 3.0):
    """The state's truncation to the dealias band.  Fields made from physical
    values keep rounding residue outside it, which `simulate` refuses."""
    return gr.PerturbationState(state.grid, state.coeffs * state.grid.dealias_mask(fraction))


# 32^2, a non-square box with Lx != Ly, no dealiasing (every column, Nyquist
# included), and the smallest grid
_BAND_CASES = [
    (gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 48, 2 * np.pi, 5 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi), 1.0),
    (gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi), 2.0 / 3.0),
]
_BAND_IDS = ["32x32", "32x48", "32x32-no-dealias", "4x4"]


# Bands on which no quadratic product aliases: every kept |k| < N/3 along its
# axis.  Two square boxes, two non-square boxes with Lx != Ly (48 = 3 * 16, so
# the 2/3 band stops short of the index 16) and a narrower band.
_ALIAS_FREE_CASES = [
    (gr.make_grid(16, 16, 4 * np.pi, 4 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 32, 4 * np.pi, 4 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 40, 4 * np.pi, 6 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 48, 2 * np.pi, 5 * np.pi), 2.0 / 3.0),
    (gr.make_grid(32, 32, 4 * np.pi, 4 * np.pi), 0.5),
]


class TestBatchedNonlinearTerms:
    @pytest.mark.parametrize("grid,fraction", _ALIAS_FREE_CASES,
                             ids=["16", "32", "32x40", "32x48", "32-half"])
    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_matches_per_field_reference(self, grid, fraction, lam):
        for seed in range(3):
            state = random_real_state(grid, seed, 0.3)
            nl = padded(sv.nonlinear_terms(state, lam, fraction), grid)
            ref = per_field_nonlinear_terms(state, lam, fraction)
            assert np.max(np.abs(nl - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_output_is_a_real_spectrum(self, grid32):
        state = random_real_state(grid32, 5, 0.3)
        nl = sv.nonlinear_terms(state, 0.4)
        assert nl.shape == (4, grid32.nx, grid32.dealias_columns())
        for coeffs in padded(nl, grid32):
            assert roundtrip_defect(gr.SpectralField(grid32, coeffs)) <= 1e-12


class TestBandNonlinearTerms:
    @pytest.mark.parametrize("grid,fraction", _BAND_CASES, ids=_BAND_IDS)
    def test_bitwise_equal_to_batched_transforms(self, grid, fraction):
        state = rough_state(grid, 3, 0.3)
        nl = sv.nonlinear_terms(state, 0.4, fraction)
        ref = batched_nonlinear_terms(state, 0.4, fraction)
        nc = grid.dealias_columns(fraction)
        assert nl.shape == (4, grid.nx, nc)
        assert np.array_equal(nl, ref[..., :nc])
        assert not np.any(ref[..., nc:])
        assert np.any(nl)

    def test_one_transform_per_array_on_the_band_columns(self, grid32, monkeypatch):
        # streamed: n, u, then -(n u) back; v, then -(n v) back; psi_x, psi_y,
        # then -(u psi_x + v psi_y) back; Q back; lap psi, the vorticity and
        # visc_x, then the first momentum row back; visc_y, then the second
        state = random_real_state(grid32, 0, 0.3)
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        sv.nonlinear_terms(state, lam=0.4)
        band = (32, grid32.dealias_columns())
        inverse, forward = [("ifft", band), ("irfft", band)], [("rfft", (32, 32)), ("fft", band)]
        assert calls == (inverse * 2 + forward + inverse + forward + inverse * 2 + forward
                         + forward + inverse * 3 + forward + inverse + forward)


class TestStepper:
    def test_linear_step_is_exact(self, grid32):
        state = sv.initial_data("random", grid32, 0.01, seed=3)
        one = sv.Stepper(grid32, 0.3, lam=0.2).step(state, nonlinear=False)
        ref = np.empty((4, *grid32.shape), complex)
        u = state.coeffs
        for i, j in np.ndindex(grid32.shape):
            m = ln.symbol_matrix(grid32.xi[i], grid32.eta[j], 0.2)
            ref[:, i, j] = ln.matexp(m, 0.3) @ u[:, i, j]
        assert np.max(np.abs(one.coeffs - ref)) <= 1e-12

    @pytest.mark.parametrize("dt,lam", [(0.3, 0.2), (0.05, 0.05), (0.01, 0.0)])
    def test_phi_blocks_closed_form(self, grid32, dt, lam):
        # P1 = M^-1 (E - I) and P2 = M^-2 (E - I - dt M) need M invertible
        # (xi != 0); the closed forms lose accuracy as cond(M) grows, so the
        # check stays on the low band A <= 4
        stepper = sv.Stepper(grid32, dt, lam=lam)
        E, P1, P2 = (all_rows(stepper, m) for m in (stepper.E, stepper.P1, stepper.P2))
        eye = np.eye(4)
        for i, j in zip(*np.nonzero((grid32.A <= 4.0) & (grid32.XI != 0.0))):
            m = ln.symbol_matrix(grid32.xi[i], grid32.eta[j], lam)
            minv = np.linalg.inv(m)
            e = E[:, :, i, j]
            p1 = minv @ (e - eye)
            p2 = minv @ minv @ (e - eye - dt * m)
            assert np.max(np.abs(P1[:, :, i, j] - p1)) <= 1e-8 * np.max(np.abs(p1))
            assert np.max(np.abs(P2[:, :, i, j] - p2)) <= 1e-8 * np.max(np.abs(p2))

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_nonfinite_state_rejected(self, grid32, nonlinear):
        state = sv.initial_data("random", grid32, 1e-3, seed=3)
        u = state.coeffs.copy()
        u[1, 2, 3] = np.nan
        bad = gr.PerturbationState(grid32, u)
        with pytest.raises(sv.StepRejectedError, match="^non-finite-state"):
            sv.Stepper(grid32, 0.1).step(bad, nonlinear=nonlinear)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_nonfinite_state_between_the_band_rows_rejected(self, grid32, nonlinear):
        # row 2 above is a band row of 32^2; row 16, the Nyquist row, lies
        # between the band's two row slices, where no phi block is applied
        stepper = sv.Stepper(grid32, 0.1)
        assert stepper.rows[0].stop <= 16 < stepper.rows[1].start
        u = sv.initial_data("random", grid32, 1e-3, seed=3).coeffs.copy()
        u[1, 16, 3] = np.nan
        with pytest.raises(sv.StepRejectedError,
                           match="^non-finite-state: coefficient norm is nan"):
            stepper.step(gr.PerturbationState(grid32, u), nonlinear=nonlinear)

    @staticmethod
    def _column0_and_interior(grid):
        """n = cos(x), whose two modes sit in column 0, and n = cos(y), whose
        stored mode sits in column 1 (its conjugate is implied); the
        coefficients are set exactly, so every other mode is 0."""
        def density(*modes):
            coeffs = np.zeros((4, *grid.shape), complex)
            for mode in modes:
                coeffs[(0, *mode)] = grid.area / 2.0
            return gr.PerturbationState(grid, coeffs)

        return density((1, 0), (-1, 0)), density((0, 1))

    def test_coefficient_norm_counts_the_full_spectrum(self, grid32):
        for state in self._column0_and_interior(grid32):
            full = np.linalg.norm(np.stack([full_spectrum(f) for f in state.fields]))
            assert grid32.coeff_norm(state.coeffs) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("grows,from_column0", [(12.0, True), (8.0, False)])
    def test_growth_guard_reads_full_spectrum_norms(self, grid32, monkeypatch, grows,
                                                    from_column0):
        # energy moving between column 0 and the interior: the plain norm of the
        # half array misreads the growth by sqrt(2), so it would pass x12 and
        # reject x8
        col0, interior = self._column0_and_interior(grid32)
        before, after = (col0, interior) if from_column0 else (interior, col0)
        target = grows * after.coeffs
        stepper = sv.Stepper(grid32, 0.1)
        nc = stepper.P1.shape[-1]
        # both states sit inside the band, so nl does too
        assert not np.any(target[..., nc:]) and not np.any(before.coeffs[..., nc:])
        eye = np.eye(4)[:, :, None, None]
        stepper.E = np.broadcast_to(eye, stepper.E.shape)  # a step returns u + nl
        stepper.P1 = stepper.P2 = np.broadcast_to(eye, stepper.P1.shape)
        monkeypatch.setattr(sv, "nonlinear_terms",
                            lambda state, *args, **kwargs: (target - before.coeffs)[..., :nc])

        def full_norm(coeffs):
            return np.linalg.norm([full_spectrum(gr.SpectralField(grid32, c)) for c in coeffs])

        ratio = full_norm(target) / full_norm(before.coeffs)
        assert ratio == pytest.approx(grows, rel=1e-12)
        half_ratio = np.linalg.norm(target) / np.linalg.norm(before.coeffs)
        assert (half_ratio > 10.0) != (ratio > 10.0)
        if ratio > 10.0:
            with pytest.raises(sv.StepRejectedError, match=f"norm grew x{grows:.1f}"):
                stepper.step(before)
        else:
            out = stepper.step(before).coeffs
            assert np.max(np.abs(out - target)) <= 1e-14 * np.max(np.abs(target))

    def test_propagator_layout(self, grid32):
        # the band rows |k| <= 10 of 32: k = 0..10, then k = -10..-1
        stepper = sv.Stepper(grid32, 0.1)
        nc = grid32.dealias_columns()
        assert stepper.rows == (slice(0, 11), slice(22, 32))
        assert stepper.E.shape == stepper.P1.shape == stepper.P2.shape == (4, 4, 21, nc) \
            == (4, 4, 21, 11)
        assert all(m.flags.c_contiguous for m in (stepper.E, stepper.P1, stepper.P2))

    @pytest.mark.parametrize("grid,fraction", _BAND_CASES, ids=_BAND_IDS)
    def test_a_step_returns_the_band_truncation(self, grid, fraction):
        # every coefficient outside the band is +0 after a step, whatever the
        # state held there; inside it the step is the whole-lattice one
        stepper = sv.Stepper(grid, 0.05, 0.3, fraction)
        state = rough_state(grid, 4, 0.05)
        band = grid.dealias_mask(fraction)
        assert np.all(state.coeffs[:, ~band] != 0) or band.all()
        out = stepper.step(state).coeffs
        linear = stepper.step(state, nonlinear=False).coeffs
        for coeffs in (out, linear):
            assert coeffs[:, ~band].tobytes() == bytes(coeffs[:, ~band].nbytes)
        ref = full_lattice_step(stepper, state)
        assert out[:, band].tobytes() == ref[:, band].tobytes()
        assert not np.array_equal(out[:, band], linear[:, band])

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_real_coefficient_arrays_step_as_complex(self, grid32, nonlinear):
        state = sv.initial_data("random", grid32, 1e-3, seed=2)
        real = gr.PerturbationState(grid32, state.coeffs.real)
        cast = gr.PerturbationState(grid32, state.coeffs.real.astype(complex))
        stepper = sv.Stepper(grid32, 0.1, lam=0.05)
        out = stepper.step(real, nonlinear).coeffs
        assert out.dtype == complex
        assert np.array_equal(out, stepper.step(cast, nonlinear).coeffs)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_step_leaves_its_input_unchanged(self, grid32, nonlinear):
        state = sv.initial_data("random", grid32, 1e-2, seed=4)
        before = state.coeffs.tobytes()
        stepper = sv.Stepper(grid32, 0.1, lam=0.05)
        out = stepper.step(state, nonlinear)
        assert state.coeffs.tobytes() == before
        assert not np.shares_memory(out.coeffs, state.coeffs)

    def test_held_states_are_not_changed_by_later_steps(self, grid32):
        stepper = sv.Stepper(grid32, 0.1, lam=0.05)
        states = [sv.initial_data("random", grid32, 1e-2, seed=4)]
        held = [states[0].coeffs.tobytes()]
        for _ in range(4):
            states.append(stepper.step(states[-1]))
            held.append(states[-1].coeffs.tobytes())
        assert [st.coeffs.tobytes() for st in states] == held
        assert len({id(st.coeffs) for st in states}) == len(states)

    def test_stepping_one_state_twice_gives_the_same_bytes(self, grid32):
        state = sv.initial_data("random", grid32, 1e-2, seed=6)
        stepper = sv.Stepper(grid32, 0.1, lam=0.05)
        first = stepper.step(state).coeffs.tobytes()
        stepper.step(stepper.step(state))
        assert stepper.step(state).coeffs.tobytes() == first
        assert sv.Stepper(grid32, 0.1, lam=0.05).step(state).coeffs.tobytes() == first

    def test_steppers_do_not_share_work_arrays(self, grid32):
        a, b = sv.Stepper(grid32, 0.1, lam=0.05), sv.Stepper(grid32, 0.1, lam=0.05)

        def arrays(stepper):
            w = stepper._work
            return [w.band, w.spec, w.wide, w.planes, *w.results]

        assert not any(np.shares_memory(x, y) for x in arrays(a) for y in arrays(b))
        # interleaved steps of a and b give what one stepper alone gives
        sa = sb = alone = sv.initial_data("random", grid32, 1e-2, seed=2)
        stepper = sv.Stepper(grid32, 0.1, lam=0.05)
        for _ in range(3):
            sa, sb, alone = a.step(sa), b.step(sb), stepper.step(alone)
        assert sa.coeffs.tobytes() == sb.coeffs.tobytes() == alone.coeffs.tobytes()

    def test_zero_state_fixed_point(self, grid32):
        out = sv.Stepper(grid32, 0.1).step(gr.PerturbationState.zeros(grid32))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_second_order_convergence(self):
        g = gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        state = sv.initial_data("random", g, 0.05, seed=1)

        def run(dt, T=0.5):
            stepper = sv.Stepper(g, dt, lam=0.1)
            x = state
            for _ in range(round(T / dt)):
                x = stepper.step(x)
            return x.coeffs

        ref = run(1.0 / 128)
        e1 = np.linalg.norm(run(1.0 / 8) - ref)
        e2 = np.linalg.norm(run(1.0 / 16) - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


def all_rows(stepper, mats):
    """A propagator on every row of the lattice, 0 on the rows between the
    stepper's two band-row slices."""
    out = np.zeros(mats.shape[:2] + (stepper.grid.nx, mats.shape[-1]), complex)
    out[:, :, np.r_[stepper.rows]] = mats
    return out


def full_lattice_step(stepper, state):
    """One step with E, P1, P2 on the whole half lattice in the [xi, eta, i, j]
    layout, 0 outside the band, and einsum applies: the step the band-row,
    band-column applies replace, kept here as their reference."""
    g = stepper.grid
    E, P1, P2 = (padded(all_rows(stepper, m), g).transpose(2, 3, 0, 1)
                 for m in (stepper.E, stepper.P1, stepper.P2))

    def apply(mats, coeffs):
        return np.einsum("xyij,jxy->ixy", mats, coeffs)

    def rhs(st):
        return padded(sv.nonlinear_terms(st, stepper.lam, stepper.dealias_fraction), g)

    u = state.coeffs
    nl = rhs(state)
    mid = apply(E, u) + apply(P1, nl)
    nl_mid = rhs(gr.PerturbationState(g, mid))
    return mid + apply(P2, (nl_mid - nl) / stepper.dt)


def reference_propagators(grid, dt, lam):
    """E, P1, P2 from one complex 12x12 augmented exponential per stored mode
    of the whole lattice: the build the real, reflected, band-limited one
    replaces, kept here as its reference."""
    gen = ln.symbol_matrix(grid.XI, grid.ETA, lam).reshape(-1, 4, 4)
    aug = np.zeros((gen.shape[0], 12, 12), dtype=complex)
    aug[:, 0:4, 0:4] = gen
    aug[:, 0:4, 4:8] = np.eye(4)
    aug[:, 4:8, 8:12] = np.eye(4)
    aug *= dt
    full = ln.expm_batch(aug).reshape(grid.shape + (12, 12))
    return tuple(full[..., :4, k:k + 4] for k in (0, 4, 8))


def blocks(mats):
    """A propagator indexed [xi, eta, i, j]: a view of its (4, 4, rows, ncols) array."""
    return mats.transpose(2, 3, 0, 1)


def per_mode_error(got, ref):
    """max |got - ref| of each mode's 4x4 block over the block's max |ref|."""
    return np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))


# xi and eta up to 4 with dt = 0.05, as on the default 256^2 run; the stiff
# grid reaches dt*|A| ~ 25, where expm squares several times
_MILD = gr.make_grid(64, 48, 16 * np.pi, 12 * np.pi)
_STIFF = gr.make_grid(64, 48, 4 * np.pi, 3 * np.pi)
_LAMS = [0.0, 0.05, 0.3]
_LAM_IDS = [f"lam{lam}" for lam in _LAMS]


class TestStepperBuild:
    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.3])
    def test_phase_times_real_generator_is_the_symbol(self, lam):
        g = gr.make_grid(256, 256, 64 * np.pi, 64 * np.pi)
        m = ln.symbol_matrix(g.XI, g.ETA, lam)
        real = m / sv._PHASE
        assert not np.any(real.imag)
        assert np.array_equal(sv._PHASE * real.real, m)

    @pytest.mark.parametrize("grid", [gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi), _MILD],
                             ids=["32x32", "64x48"])
    def test_lambda_block_is_the_nonlinear_viscous_operator(self, grid):
        # lam enters the propagators through symbol_matrix alone, as lam grad div
        # u on the velocity block: the operator nonlinear_terms applies inside
        # n (lap u + lam grad div u) / rho.  ikx and iky are zero on the Nyquist
        # row and column, which the 2/3 band leaves out.
        lam = 0.3
        w = sv._Workspace(grid, 2.0 / 3.0)
        nc = w.mask.shape[1]
        xi, eta = grid.XI[:, :nc], grid.ETA[:, :nc]
        m = ln.symbol_matrix(xi, eta, lam)
        ref = np.zeros_like(m)
        ref[..., 1, 1], ref[..., 2, 2] = lam * w.ikx2, lam * w.iky2
        ref[..., 1, 2] = ref[..., 2, 1] = lam * w.ikxiky
        band = grid.dealias_mask()[:, :nc]
        err = np.abs(m - ln.symbol_matrix(xi, eta, 0.0) - ref)[band]
        assert np.max(err) <= 1e-15 * np.max(np.abs(m[band]))

    @pytest.mark.parametrize("grid", [_MILD, _STIFF], ids=["mild", "stiff"])
    @pytest.mark.parametrize("lam", _LAMS, ids=_LAM_IDS)
    def test_reflected_rows_equal_a_direct_build(self, grid, lam):
        # the band rows xi < 0, from -1 down
        stepper = sv.Stepper(grid, 0.05, lam)
        head, nc = stepper.rows[0].stop, stepper.E.shape[-1]
        built = [blocks(m)[head:][::-1] for m in (stepper.E, stepper.P1, stepper.P2)]
        direct = [np.empty_like(m) for m in built]
        sv._propagators(*direct, grid.xi[stepper.rows[1]][::-1], grid.eta[:nc], 0.05, lam)
        for got, ref in zip(built, direct):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("grid,fraction", [
        (_MILD, 2.0 / 3.0), (_MILD, 1.0),
        (gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi), 2.0 / 3.0),
        (gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi), 1.0),
    ], ids=["mild", "mild-no-dealias", "4x4", "4x4-no-dealias"])
    @pytest.mark.parametrize("lam", _LAMS, ids=_LAM_IDS)
    def test_matches_complex_full_lattice_build(self, grid, fraction, lam):
        stepper = sv.Stepper(grid, 0.05, lam, fraction)
        band = grid.dealias_mask(fraction)
        nc = grid.dealias_columns(fraction)
        assert not np.any(band[:, nc:])
        band = band[:, :nc]
        for got, ref in zip((stepper.E, stepper.P1, stepper.P2),
                            reference_propagators(grid, 0.05, lam)):
            got = blocks(all_rows(stepper, got))
            assert np.max(per_mode_error(got, ref[:, :nc])[band]) <= 1e-15
            assert not np.any(got[~band])

    # at 256^2 the 2/3 band holds 86 x 86 modes with xi >= 0 in 86 rows; at
    # fraction 1 the 128 rows with xi >= 0 and the -Nyquist row are built,
    # 129 x 129 modes; each block holds at most _BUILD_ROWS of the rows
    @pytest.mark.parametrize("fraction,n_rows,modes", [(2.0 / 3.0, 86, 7396), (1.0, 129, 16641)],
                             ids=["two-thirds", "no-dealias"])
    def test_one_real_expm_batch_per_block(self, monkeypatch, fraction, n_rows, modes):
        calls = []

        def recorded(ms):
            calls.append((ms.dtype, ms.shape))
            return ln.expm_batch(ms)

        monkeypatch.setattr(sv, "expm_batch", recorded)
        g = gr.make_grid(256, 256, 64 * np.pi, 64 * np.pi)
        sv.Stepper(g, 0.05, 0.05, fraction)
        assert len(calls) == -(-n_rows // sv._BUILD_ROWS)
        assert all(dtype == np.float64 and shape[1:] == (12, 12) for dtype, shape in calls)
        assert sum(shape[0] for _, shape in calls) == modes

    def test_build_batches_against_scipy_and_mpmath(self, monkeypatch):
        # the 256^2 build's real 12x12 batches, all against scipy and the four
        # of largest 1-norm against mpmath
        batches = []
        monkeypatch.setattr(sv, "expm_batch", lambda ms: batches.append(ms) or ln.expm_batch(ms))
        sv.Stepper(gr.make_grid(256, 256, 64 * np.pi, 64 * np.pi), 0.05, 0.05)
        ms = np.concatenate(batches)
        assert ms.dtype == np.float64 and ms.shape == (7396, 12, 12)
        assert np.max(rel_err(ln.expm_batch(ms), scipy.linalg.expm(ms))) <= 1e-15
        norms = np.abs(ms).sum(axis=-2).max(axis=-1)
        within_three_scipy(ms[np.argsort(norms)[-4:]])

    @pytest.mark.parametrize("lam", [0.0, 0.3], ids=["lam0", "lam0.3"])
    def test_stiff_complex_batch_against_scipy_and_mpmath(self, lam):
        # the complex augmented batch of reference_propagators on _STIFF, 1-norms
        # up to 13.7 at lam 0 and 34.1 at lam 0.3, squared back 2 and 4 times:
        # all against scipy, and its three largest 1-norms and three more
        # against mpmath
        gen = ln.symbol_matrix(_STIFF.XI, _STIFF.ETA, lam).reshape(-1, 4, 4)
        aug = np.zeros((gen.shape[0], 12, 12), dtype=complex)
        aug[:, 0:4, 0:4] = gen
        aug[:, 0:4, 4:8] = aug[:, 4:8, 8:12] = np.eye(4)
        aug *= 0.05
        assert np.max(rel_err(ln.expm_batch(aug), scipy.linalg.expm(aug))) <= 1e-14
        norms = np.abs(aug).sum(axis=-2).max(axis=-1)
        assert norms.max() / ln._TAYLOR[-1][1] > 2.0
        within_three_scipy(aug[np.argsort(norms)[-3:].tolist() + [1, 100, 777]])


class TestSimulate:
    def test_mass_conservation_and_energy(self, tmp_path):
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=8 * np.pi, Ly=8 * np.pi,
                              T=5.0, dt=0.05, cadence=0.5, delta=1e-3, lam=0.05)
        rec = sv.simulate(cfg, out_dir=tmp_path)
        assert rec.aborted is None
        mass = np.array(rec.mass)
        assert np.max(np.abs(mass - mass[0])) <= 1e-10 * abs(mass[0])
        energy = np.array(rec.energy)
        weights = (1.0 + np.array(rec.times) ** 2) ** (0.01 / 2.0)
        assert np.all(energy <= (1.0 + 10.0 * cfg.delta) * weights * energy[0])
        assert (tmp_path / "trajectory.csv").exists()

    def test_linear_limit_matches_semigroup(self):
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=8 * np.pi, Ly=8 * np.pi,
                              T=2.0, dt=0.05, cadence=1.0, delta=1e-3,
                              lam=0.0, nonlinear=False)
        g = gr.make_grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
        state0 = sv.initial_data(cfg.init_spec, g, cfg.delta, cfg.seed)
        rec_states = []
        stepper = sv.Stepper(g, cfg.dt, 0.0)
        x = state0
        for k in range(round(cfg.T / cfg.dt)):
            x = stepper.step(x, nonlinear=False)
            if (k + 1) % 20 == 0:
                rec_states.append(((k + 1) * cfg.dt, x))
        for t, state in rec_states:
            ref = ln.kernel_semigroup_field(state0, t)
            scale = max(np.max(np.abs(ref.coeffs)), 1e-300)
            assert np.max(np.abs(state.coeffs - ref.coeffs)) <= 1e-10 * scale

    def test_out_of_regime_aborts_gracefully(self):
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=2 * np.pi, Ly=2 * np.pi,
                              T=20.0, dt=0.2, cadence=1.0, delta=0.5, lam=0.05)
        g = gr.make_grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
        x = (np.arange(32) * g.dx)[:, None] * np.ones((1, 32))
        big = single_field_state(g, 0, 0.95 * np.cos(x))
        fields = list(big.fields)
        fields[1] = gr.SpectralField.from_physical(g, 0.5 * np.sin(x))
        rec = sv.simulate(cfg, state0=band_part(gr.PerturbationState.from_fields(*fields)))
        assert rec.aborted is not None
        assert "density-collapse" in rec.aborted or "step-rejected" in rec.aborted

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_nonfinite_state_aborts(self, grid32, nonlinear):
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=2 * np.pi, Ly=2 * np.pi,
                              T=0.5, dt=0.1, cadence=0.1, delta=1e-3,
                              nonlinear=nonlinear)
        u = sv.initial_data("random", grid32, 1e-3, seed=3).coeffs.copy()
        u[0, 1, 1] = np.nan
        rec = sv.simulate(cfg, state0=gr.PerturbationState(grid32, u))
        assert rec.aborted is not None and rec.aborted.startswith("non-finite-state")
        assert rec.times == [0.0]

    def test_nonfinite_initial_state_aborts_without_steps(self, grid32):
        # T = 0 runs no step, so only the initial check can see the NaN
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=2 * np.pi, Ly=2 * np.pi,
                              T=0.0, dt=0.1, cadence=0.1, delta=1e-3)
        u = sv.initial_data("random", grid32, 1e-3, seed=3).coeffs.copy()
        u[0, 1, 1] = np.nan
        rec = sv.simulate(cfg, state0=gr.PerturbationState(grid32, u))
        assert rec.aborted == "non-finite-state: coefficient norm is nan in the initial state"

    def test_checkpoints_keep_fractional_times(self, tmp_path):
        cfg = sv.SolverConfig(nx=16, ny=16, Lx=4 * np.pi, Ly=4 * np.pi,
                              T=0.5, dt=0.1, cadence=0.1, delta=1e-4,
                              checkpoint_fields=True)
        rec = sv.simulate(cfg, out_dir=tmp_path)
        assert rec.aborted is None
        written = {p.name for p in tmp_path.iterdir()} - {"run_manifest.json"}
        names = {f"{f}_t{t}.{ext}" for f in ("n", "u", "v", "psi")
                 for t in ("0", "0.5") for ext in ("bin", "json")}
        assert written == names | {"trajectory.csv"}
        for t in (0.0, 0.5):
            field, meta = gr.load_field(tmp_path / f"n_t{t:g}")
            assert meta["time"] == t
        assert not np.array_equal(gr.load_field(tmp_path / "n_t0")[0].coeffs,
                                  gr.load_field(tmp_path / "n_t0.5")[0].coeffs)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert set(manifest["outputs"]) == written
        for name, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    def test_trajectory_csv_shape(self, tmp_path):
        cfg = sv.SolverConfig(nx=16, ny=16, Lx=4 * np.pi, Ly=4 * np.pi,
                              T=2.0, dt=0.1, cadence=1.0, delta=1e-4)
        sv.simulate(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + t = 0, 1, 2

    def test_one_snapshot_per_observation_and_no_transform_outside_it(self, grid32,
                                                                        monkeypatch):
        # linear steps make no transform, so every transform of the run
        # belongs to an observation
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=grid32.Lx, Ly=grid32.Ly, T=1.0, dt=0.1,
                              cadence=0.2, nonlinear=False)
        state0 = band_part(random_real_state(grid32, 3, 0.1))
        snaps, inside, outside = [], [], []

        def observed(*args, **kwargs):
            inside.append(True)
            snaps.append(gr.x_norm_snapshot(*args, **kwargs))
            inside.pop()
            return snaps[-1]

        def counted(fn):
            def wrapper(*args, **kwargs):
                if not inside:
                    outside.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sv, "x_norm_snapshot", observed)
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        rec = sv.simulate(cfg, state0=state0)
        assert len(rec.times) == len(snaps) == 6
        assert outside == []
        assert rec.energy == [s.energy for s in snaps]
        assert rec.sup_n == [s.sup_n for s in snaps]

    @pytest.mark.parametrize("n,L", [(32, 4 * np.pi), (16, 8 * np.pi), (32, 8.0 * np.pi + 1e-9)])
    def test_state_on_another_grid_is_a_config_error(self, tmp_path, n, L):
        # a 4 pi state under an 8 pi config ran to the end under the wrong box;
        # a 16^2 state died in a numpy broadcast
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=8 * np.pi, Ly=8 * np.pi,
                              T=0.5, dt=0.05, cadence=0.25, delta=1e-3)
        state0 = sv.initial_data("gaussian", gr.make_grid(n, n, L, L), 1e-3)
        with pytest.raises(sv.ConfigError, match="^state0: grid nx=") as err:
            sv.simulate(cfg, state0=state0, out_dir=tmp_path)
        assert err.value.problems == [
            f"state0: grid nx={n}, ny={n}, Lx={L!r}, Ly={L!r} differs from the config's "
            f"nx=32, ny=32, Lx={8 * np.pi!r}, Ly={8 * np.pi!r}"]
        assert list(tmp_path.iterdir()) == []

    def test_state_outside_the_band_is_a_config_error(self, tmp_path):
        # a rough state0 ran, and its first step dropped every mode outside the
        # band without a word
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=8 * np.pi, Ly=8 * np.pi,
                              T=0.1, dt=0.05, cadence=0.05, delta=1e-3)
        state0 = rough_state(gr.make_grid(32, 32, 8 * np.pi, 8 * np.pi), 1, 1e-3)
        with pytest.raises(sv.ConfigError) as err:
            sv.simulate(cfg, state0=state0, out_dir=tmp_path)
        assert err.value.problems == [
            "state0: nonzero coefficients outside the dealias band |kx| < 10.6667, "
            "|ky| < 10.6667 (dealias = 0.666667)"]
        assert list(tmp_path.iterdir()) == []
        assert sv.simulate(cfg, state0=band_part(state0)).aborted is None

    def test_band_narrower_than_the_initial_data_is_a_config_error(self, tmp_path):
        # initial_data keeps |k| <= N/6 = 5.33 at 32^2; dealias = 0.25 keeps
        # |k| < 4, and 1/3 keeps |k| < 5.33
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=8 * np.pi, Ly=8 * np.pi,
                              T=0.1, dt=0.05, cadence=0.05, delta=1e-3, dealias=0.25)
        with pytest.raises(sv.ConfigError) as err:
            sv.simulate(cfg, out_dir=tmp_path)
        assert err.value.problems == [
            "init: nonzero coefficients outside the dealias band |kx| < 4, |ky| < 4 "
            "(dealias = 0.25)"]
        assert list(tmp_path.iterdir()) == []
        assert sv.simulate(replace(cfg, dealias=1.0 / 3.0)).aborted is None

    def test_state_on_the_config_grid_runs(self):
        cfg = sv.SolverConfig(nx=32, ny=32, Lx=8 * np.pi, Ly=8 * np.pi,
                              T=0.1, dt=0.05, cadence=0.05, delta=1e-3)
        grid = gr.make_grid(32, 32, 8 * np.pi, 8 * np.pi)
        rec = sv.simulate(cfg, state0=sv.initial_data("gaussian", grid, 1e-3))
        assert rec.aborted is None and len(rec.times) == 3

    def test_deterministic_trajectory(self, tmp_path):
        cfg = sv.SolverConfig(nx=16, ny=16, Lx=4 * np.pi, Ly=4 * np.pi,
                              T=1.0, dt=0.1, cadence=0.5, delta=1e-4,
                              init_spec="random", seed=11)
        sv.simulate(cfg, out_dir=tmp_path / "a")
        sv.simulate(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()


# sha256 of the states of 20 steps with dt = 0.05, one after the other,
# recorded with the momentum advection in Lamb form, lambda in the
# propagators, E on the dealias band and the propagators from the Taylor
# exponential of linear.expm_batch: a step must keep every bit, the sign
# of every zero included.  Each case starts once from rough_state(grid, 7,
# 0.05), every mode populated, and once from band-limited random data; either
# way every coefficient outside the band is +0 from the first step on.
# Cases: a 32^2 box, a non-square box at lambda = 0.3, no dealiasing (every
# mode in the band) and the smallest grid.
_STEP_DIGESTS = [
    (gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi), 0.4, 2.0 / 3.0,
     "8b42501c301e72fe424e6b8bcd19cb30abefc60674a9232f95bcf113373c674b",
     "18880fe5f38d7eefbb52bea7c9e00e5e4425e11bb4bd934cc94383d385989a97"),
    (gr.make_grid(64, 48, 16 * np.pi, 12 * np.pi), 0.3, 2.0 / 3.0,
     "e5157c5d67502f5420383d524cde96f9784dfbe67b2ea20d9f2fc04e1a1624f1",
     "686e3c96366fbb5b3c5e72a0386bd79079baf08aa073ff162638267db3572df9"),
    (gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi), 0.2, 1.0,
     "0d867b96145cba749b4a79833dc31d76bd46a8d7db7dc60651399ee3ff13d26c",
     "c032ef8ad0d6200b24d5d6ec8e70011e64daec1268ccec56fad516f90d72200f"),
    (gr.make_grid(4, 4, 2 * np.pi, 2 * np.pi), 0.2, 2.0 / 3.0,
     "cda1e4658d030f1b2289336dd61f42f90339934ab0910067eeebcb7a912b13d4",
     "64a691dffb6df71029e74998b22871fa599195eb6f4bdfe6ab3df7a5c2302db0"),
]

# sha256 of every file but the manifest of a 64^2 run to T = 1 with field
# checkpoints; the fields kept their bytes through the Lamb form, whose
# change of the right-hand side is at the rounding level, and were recorded
# again with the Taylor exponential of linear.expm_batch
_RUN_DIGESTS = {
    "trajectory.csv": "296c552b084a6314a02eefb03a379e937797708b2ae74877df1a6967b640009c",
    "n_t0.bin": "3bca4a29cb248a34658a64164372b330886ac28a44f12684f22dd061ba438eb6",
    "u_t0.bin": "b0b24e36b64ef793beaa0ac5f0d347ce31aa394e42ae8eb37ae7b8e37d6f9e79",
    "v_t0.bin": "780f45c66c11921851876473a3902259d29107e6ab7672b205a405be5f60b3e9",
    "psi_t0.bin": "09d2437373669eae5db82e5e9941dfd21aeca62cf7784fd7fd1a3828e242ad92",
    "n_t1.bin": "811e9dddcf550b37251d4ebbffa884ea90b29112b86f579ee209351e83ce429d",
    "u_t1.bin": "496f78a76f82bb4a2c3d3448493779b6a7390725e25157a0ddfb8f72c10e58d6",
    "v_t1.bin": "31851c526101425eb394a3902b1dbf9535ccbd7fc25fdb6215e2a6fa87eef766",
    "psi_t1.bin": "c80c03e3174a06529a74833d16d3005ff1ac0ee21bef90743b4e2e388214c30e",
}


class TestGoldenStepDigests:
    @pytest.mark.parametrize("grid,lam,fraction,rough,band_limited", _STEP_DIGESTS,
                             ids=["32x32-lam0.4", "64x48-lam0.3", "32x32-no-dealias", "4x4"])
    def test_twenty_steps(self, recorded_math, grid, lam, fraction, rough, band_limited):
        stepper = sv.Stepper(grid, 0.05, lam, fraction)
        for state, digest in ((rough_state(grid, 7, 0.05), rough),
                              (sv.initial_data("random", grid, 1e-2, seed=3), band_limited)):
            states = hashlib.sha256()
            for _ in range(20):
                state = stepper.step(state)
                states.update(state.coeffs.tobytes())
            assert states.hexdigest() == digest

    def test_run_with_checkpoints(self, recorded_math, tmp_path):
        cfg = sv.SolverConfig(nx=64, ny=64, Lx=16 * np.pi, Ly=16 * np.pi, T=1.0, dt=0.05,
                              cadence=0.5, delta=1e-2, lam=0.1, checkpoint_fields=True)
        assert sv.simulate(cfg, out_dir=tmp_path).aborted is None
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.suffix in (".bin", ".csv")}
        assert got == _RUN_DIGESTS


_GRID16 = gr.make_grid(16, 16, 4 * np.pi, 4 * np.pi)
_STEPPER16 = sv.Stepper(_GRID16, 0.1, lam=0.05)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.floats(1e-6, 0.05),
       nonlinear=st.booleans())
def test_step_keeps_real_fields_and_mass(seed, size, nonlinear):
    state = random_real_state(_GRID16, seed, size)
    out = _STEPPER16.step(state, nonlinear=nonlinear)
    for f in out.fields:
        assert roundtrip_defect(f) <= 1e-12
    mass0 = state.n.coeffs[0, 0].real
    assert abs(out.n.coeffs[0, 0].real - mass0) <= 1e-12 * abs(mass0)
