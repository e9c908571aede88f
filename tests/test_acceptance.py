"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The nonlinear-solver criterion drives the full default run once
(a few minutes) and shares it across its sub-checks.
"""

import time

import numpy as np
import pytest

from mhdlab import grid as gr
from mhdlab import kernel as kr
from mhdlab import linear as ln
from mhdlab import solver as sv
from mhdlab import verify as vf

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1Oracle:
    def test_kernel_oracle_equivalence(self):
        t0 = time.time()
        res = ln.oracle_scan(samples=1000, seed=2024, t_values=(0.1, 1.0, 10.0), box=8.0)
        elapsed = time.time() - t0
        ok = res["max_rel_err"] <= 1e-8 and elapsed < 10.0
        report("criterion 1 (kernel-oracle equivalence)", ok,
               f"max rel err {res['max_rel_err']:.3e} over 1000 modes, {elapsed:.1f}s")


class TestCriterion2Diagonalization:
    def test_char_poly_scan(self):
        t0 = time.time()
        worst = 0.0
        for xi in np.linspace(-8.0, 8.0, 64):
            for eta in np.linspace(-8.0, 8.0, 64):
                cap = 1e-10 * (1.0 + (xi * xi + eta * eta) ** 4)
                worst = max(worst, ln.char_poly_check(xi, eta) / cap)
        elapsed = time.time() - t0
        ok = worst <= 1.0 and elapsed < 1.0
        report("criterion 2 (diagonalization)", ok,
               f"worst residual ratio {worst:.3e}, {elapsed:.2f}s")


class TestCriterion3SpecialValues:
    def test_kernel_special_values(self):
        rng = np.random.default_rng(5)
        xi, eta = rng.uniform(-30, 30, (2, 200))
        k0 = np.max(np.abs(kr.k_hat(0.0, xi, eta)))
        k10 = np.max(np.abs(kr.k1_hat(0.0, xi, eta) - 1.0))
        cubic = max(abs(kr.k_hat(t, 0.0, 0.0) - t**3 / 6.0) / (t**3 / 6.0)
                    for t in (0.1, 1.0, 10.0))
        ok = k0 == 0.0 and k10 == 0.0 and cubic <= 1e-12
        report("criterion 3 (kernel special values)", ok,
               f"K(0)={k0}, K1(0)-1={k10}, zero-mode cubic rel err {cubic:.2e}")


class TestCriterion4PointwiseScans:
    def test_all_eight_estimates(self):
        t0 = time.time()
        worst, scans = {}, {}
        ok = True
        for which in range(1, 9):
            res = vf.scan_kernel_bounds(which, scans=scans)
            worst[which] = res.fitted_C
            ok &= res.verdict == "PASS" and res.fitted_C <= 1e3 and res.refine_stable
        elapsed = time.time() - t0
        ok &= elapsed < 60.0
        detail = ", ".join(f"est{k}: C={c:.3g}" for k, c in worst.items())
        report("criterion 4 (pointwise estimate scans)", ok, f"{detail}; {elapsed:.1f}s")


class TestCriterion5SymbolNormRates:
    CASES = [
        ("A4K", "le1", -0.5),
        ("xietaK", ("annulus", 1.0), -1.0),
        ("AetadtK", "le1", -1.0),
    ]

    def test_lp_symbol_norm_slopes(self):
        ts = np.geomspace(10.0, 1000.0, 12)
        details = []
        ok = True
        for sym, region, target in self.CASES:
            vals = [ln.symbol_norm(sym, region, 1.0, 1.0, t) for t in ts]
            slope, r2 = ln.fit_loglog(ts, vals)
            good = abs(slope - target) <= 0.1 and r2 >= 0.98
            ok &= good
            details.append(f"{sym}: {slope:+.3f} (target {target:+.1f}, r2={r2:.3f})")
        report("criterion 5 (L^p symbol-norm rates)", ok, "; ".join(details))


class TestCriterion6PropagatorDecay:
    # the asymptotic windows start late: the transient mixing of the
    # faster-decaying isotropic component biases slopes on [10, 1e3]
    # (see decisions ledger); preconditions (>= 1.5 decades, >= 10) hold
    WINDOW = (316.0, 10000.0)
    PROPS = ["kn1L", "ku1L", "kn2L", "kn5L", "k1L"]

    def test_five_propagator_rates(self):
        t0 = time.time()
        times = np.geomspace(*self.WINDOW, 12)
        details = []
        ok = True
        for pid in self.PROPS:
            rep = ln.propagator_decay_experiment(pid, init="gaussian", times=times)
            good = rep.passes(tol=0.05, r2_min=0.98)
            ok &= good
            details.append(f"{pid}: {rep.fitted_slope:+.3f} (target {rep.target_slope:+.2f})")
        elapsed = time.time() - t0
        ok &= elapsed < 300.0
        report("criterion 6 (propagator decay rates)", ok,
               f"{'; '.join(details)}; {elapsed:.0f}s")


class TestCriterion7AppendixSuites:
    def test_appendix_checks(self):
        parts = []
        ok = True

        res = vf.check_elem1(samples=20000, seed=0)
        ok &= res.verdict == "PASS" and res.fitted_C <= 20.0
        parts.append(f"elem1 C={res.fitted_C:.2f}")

        res = vf.check_sin_ratio(samples=50000, seed=0)
        ok &= res.verdict == "PASS" and res.fitted_C <= 10.0
        parts.append(f"sin_ratio C={res.fitted_C:.2f}")

        worst_slope_err = 0.0
        for claim in sorted(vf.BASIC_QUAD_CLAIMS):
            res = vf.check_basic_quadrature(claim)
            err = abs(res.extra["fitted_slope"] - res.extra["target_slope"])
            worst_slope_err = max(worst_slope_err, err)
            ok &= res.verdict == "PASS"
        parts.append(f"quadrature worst slope err {worst_slope_err:.3f}")
        ok &= worst_slope_err <= 0.1

        res = vf.check_projector_derivative(samples=40, seed=0)
        ok &= res.verdict == "PASS" and res.fitted_C <= 10.0
        parts.append(f"projector C={res.fitted_C:.2f}")

        res = vf.check_nash_anisotropic(samples=100, seed=0)
        ok &= res.verdict == "PASS" and res.fitted_C <= 100.0
        parts.append(f"nash C={res.fitted_C:.2f}")

        report("criterion 7 (appendix suites)", ok, "; ".join(parts))


@pytest.fixture(scope="module")
def default_run():
    cfg = sv.SolverConfig()  # 256^2, L = 64 pi, T = 100, delta = 1e-3
    t0 = time.time()
    record = sv.simulate(cfg)
    return cfg, record, time.time() - t0


class TestCriterion8Solver:
    def test_a_linear_limit_exactness(self):
        cfg = sv.SolverConfig(nx=64, ny=64, Lx=16 * np.pi, Ly=16 * np.pi,
                              T=5.0, dt=0.05, delta=1e-3, lam=0.0, nonlinear=False)
        g = gr.make_grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
        state0 = sv.initial_data(cfg.init_spec, g, cfg.delta, cfg.seed)
        stepper = sv.Stepper(g, cfg.dt, 0.0)
        x = state0
        worst = 0.0
        for k in range(1, round(cfg.T / cfg.dt) + 1):
            x = stepper.step(x, nonlinear=False)
            if k % 20 == 0:
                ref = ln.kernel_semigroup_field(state0, k * cfg.dt)
                scale = max(np.max(np.abs(ref.stack())), 1e-300)
                worst = max(worst, np.max(np.abs(x.stack() - ref.stack())) / scale)
        # and the viscous case against the matrix-exponential flow
        lam = 0.05
        stepper_v = sv.Stepper(g, 0.1, lam)
        xv = state0
        for _ in range(10):
            xv = stepper_v.step(xv, nonlinear=False)
        # the reference flows the full (nx, ny) spectrum, built apart from the
        # grid's half lattice, and is compared on the stored columns
        xi = 2.0 * np.pi * np.fft.fftfreq(g.nx, d=g.Lx / g.nx)
        eta = 2.0 * np.pi * np.fft.fftfreq(g.ny, d=g.Ly / g.ny)
        mats = np.zeros((g.nx * g.ny, 4, 4), complex)
        for idx, (xx, ee) in enumerate(zip(np.repeat(xi, g.ny), np.tile(eta, g.nx))):
            mats[idx] = ln.symbol_matrix(xx, ee, lam)
        flow = ln.expm_batch(mats * 1.0).reshape(g.nx, g.ny, 4, 4)
        full0 = np.stack([np.fft.fft2(f.to_physical()) * (g.dx * g.dy) for f in state0.fields])
        ref_v = np.einsum("xyij,jxy->ixy", flow, full0)[..., :g.ny // 2 + 1]
        scale_v = max(np.max(np.abs(ref_v)), 1e-300)
        worst_v = np.max(np.abs(xv.stack() - ref_v)) / scale_v
        ok = worst <= 1e-10 and worst_v <= 1e-10
        report("criterion 8a (linear-limit exactness)", ok,
               f"semigroup dev {worst:.2e}, viscous matexp dev {worst_v:.2e}")

    def test_b_dt_halving_order(self):
        g = gr.make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        state = sv.initial_data("random", g, 0.05, seed=1)

        def run(dt, T=1.0):
            stepper = sv.Stepper(g, dt, lam=0.1)
            x = state
            for _ in range(round(T / dt)):
                x = stepper.step(x)
            return x.stack()

        ref = run(1.0 / 128)
        e1 = np.linalg.norm(run(1.0 / 8) - ref)
        e2 = np.linalg.norm(run(1.0 / 16) - ref)
        ratio = e1 / e2
        ok = abs(ratio - 4.0) <= 1.0
        report("criterion 8b (dt-halving order)", ok, f"error ratio {ratio:.2f}")

    def test_c_mass_conservation(self, default_run):
        _, record, _ = default_run
        mass = np.array(record.mass)
        drift = np.max(np.abs(mass - mass[0])) / abs(mass[0])
        ok = record.aborted is None and drift <= 1e-10
        report("criterion 8c (mass conservation)", ok, f"relative drift {drift:.2e}")

    def test_d_energy_bound(self, default_run):
        cfg, record, _ = default_run
        energy = np.array(record.energy)
        times = np.array(record.times)
        bound = (1.0 + 10.0 * cfg.delta) * (1.0 + times**2) ** (0.01 / 2.0) * energy[0]
        margin = np.max(energy / bound)
        ok = record.aborted is None and np.all(energy <= bound)
        report("criterion 8d (small-data energy bound)", ok,
               f"max energy/bound {margin:.6f}")

    def test_e_decay_ordering(self, default_run):
        cfg, record, elapsed = default_run
        times = np.array(record.times)
        window = (times >= 5.0) & (times <= 50.0)
        slopes = {}
        for name, series in (("n", record.sup_n), ("u", record.sup_u),
                             ("grad_psi", record.sup_grad_psi)):
            slopes[name], _ = ln.fit_loglog(times[window], np.array(series)[window])
        gap_n = slopes["n"] - slopes["u"]
        gap_psi = slopes["grad_psi"] - slopes["u"]
        ok = gap_n >= 0.3 and gap_psi >= 0.3 and elapsed < 1800.0
        report("criterion 8e (decay ordering)", ok,
               f"slopes n {slopes['n']:+.3f}, u {slopes['u']:+.3f}, "
               f"grad_psi {slopes['grad_psi']:+.3f}; gaps {gap_n:.2f}/{gap_psi:.2f}; "
               f"run {elapsed:.0f}s")


class TestCriterion9MutationSensitivity:
    MUTATIONS = [("n", "psi"), ("v", "n"), ("psi", "u")]

    def test_sign_flips_break_oracle(self):
        details = []
        ok = True
        for entry in self.MUTATIONS:
            original = ln.SEMIGROUP_TERMS[entry]
            ln.SEMIGROUP_TERMS[entry] = (
                lambda *args, _orig=original, **kw: -_orig(*args, **kw))
            try:
                res = ln.oracle_scan(samples=80, seed=31)
            finally:
                ln.SEMIGROUP_TERMS[entry] = original
            broke = res["max_rel_err"] > 1e-8
            ok &= broke
            details.append(f"{entry[0]}<-{entry[1]}: err {res['max_rel_err']:.1e}")
        clean = ln.oracle_scan(samples=80, seed=31)
        ok &= clean["max_rel_err"] <= 1e-8
        report("criterion 9 (mutation sensitivity)", ok,
               f"{'; '.join(details)}; restored err {clean['max_rel_err']:.1e}")
