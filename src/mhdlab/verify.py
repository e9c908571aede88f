"""Property scanners for every inequality-style claim: pointwise kernel
estimate envelopes, the elementary exponential-difference and sin-ratio
inequalities, the basic quadrature bounds, the projector time-derivative
bound, the anisotropic Nash interpolation, plus the cross-module oracle and
diagonalization suites.  All verdicts are fitted-constant checks: PASS means
the max observed lhs/rhs ratio stays under the claim's cap and is stable
(< x2) under refinement of the sample grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import grid as _grid
from . import kernel as _kernel
from . import linear as _linear

__all__ = [
    "ScanResult",
    "scan_kernel_bounds",
    "check_elem1",
    "check_sin_ratio",
    "check_basic_quadrature",
    "check_projector_derivative",
    "check_nash_anisotropic",
    "sample_axis",
    "run_all",
    "run_claim",
    "CLAIMS",
    "SEEDED_CLAIMS",
    "KERNEL_SCAN_CLAIMS",
    "BASIC_QUAD_CLAIMS",
]


@dataclass
class ScanResult:
    claim_id: str
    samples: int
    max_ratio: float
    fitted_C: float
    worst: dict
    verdict: str
    refine_stable: bool
    cap: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        return d


def _finish(claim_id, samples, ratios_c, ratios_f, worst, cap, extra=None) -> ScanResult:
    """Assemble a result from coarse/fine max ratios against a cap."""
    stable = ratios_f < 2.0 * max(ratios_c, 1e-300) and ratios_c < 2.0 * max(ratios_f, 1e-300)
    if cap is None:
        verdict = "INFO"
    else:
        verdict = "PASS" if (ratios_f <= cap and stable) else "FAIL"
    return ScanResult(claim_id=claim_id, samples=samples, max_ratio=ratios_f,
                      fitted_C=ratios_f, worst=worst, verdict=verdict,
                      refine_stable=stable, cap=cap, extra=extra or {})


def _seeded_scan(claim_id, run, samples, seed, cap) -> ScanResult:
    """The refinement check of a seeded checker.

    `run(n, seed)` draws n random samples from `seed` and returns their max
    lhs/rhs ratio and its worst location.  The coarse pass draws `samples`,
    the fine pass 2 * samples from the same seed, and the fine pass's result
    is the claim's.
    """
    if samples <= 0:
        raise ValueError("invalid-budget: samples must be positive")
    coarse, _ = run(samples, seed)
    fine, worst = run(2 * samples, seed)
    return _finish(claim_id, 2 * samples, coarse, fine, worst, cap)


def _ratio_scan(lhs, rhs, coords) -> tuple[float, dict]:
    """Max lhs/rhs with 0-safe and inf-safe semantics, plus worst location."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lhs == 0.0, 0.0, lhs / rhs)
    ratio = np.where(np.isfinite(ratio), ratio, 0.0)
    idx = int(np.argmax(ratio))
    worst = {k: float(np.ravel(np.broadcast_to(v, ratio.shape))[idx]) for k, v in coords.items()}
    worst["ratio"] = float(np.ravel(ratio)[idx])
    return float(np.ravel(ratio)[idx]), worst


# ---------------------------------------------------------------------------
# Pointwise kernel estimates

# estimate id -> (left-hand-side symbol of the kernel values, key of its
# rounding floor in kernel.noise_floors)
_ESTIMATES = {
    1: (lambda kv: kv.K, "K"),
    2: (lambda kv: kv.dtK, "dtK"),
    3: (lambda kv: kv.ddtK, "ddtK"),
    4: (lambda kv: kv.comp, "comp"),
    5: (lambda kv: kv.dt_comp, "dt_comp"),
    6: (lambda kv: kv.ddt_comp, "ddt_comp"),
    7: (lambda kv: kv.comp_x, "comp_x"),
    8: (lambda kv: kv.dt_comp - kv.eta**2 * kv.dtK, "est8"),
}


def _kernel_scans(n_t: int, n_a: int, n_angle: int, c_decay: float,
                  cap: float) -> dict[int, ScanResult]:
    """The results of all eight estimates from one log-log scan.

    Each scan time makes one kernel.noise_floors call; every estimate takes
    its symbol, less its rounding floor, from that call.
    """
    if n_t < 2:
        raise ValueError(f"invalid-budget: n_t must be at least 2 (t = 0 and one "
                         f"positive time), got {n_t}")
    if n_a < 1 or n_angle < 1:
        raise ValueError(f"invalid-budget: n_a and n_angle must be positive, "
                         f"got {n_a} and {n_angle}")
    if not (math.isfinite(c_decay) and c_decay > 0):
        raise ValueError(f"invalid-budget: c_decay must be finite and positive, got {c_decay}")

    def max_ratios(nt, na, nang):
        ts = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, nt - 1)])
        As = np.geomspace(1e-4, 1e3, na)
        angles = np.linspace(0.0, np.pi / 2, nang)
        AA, TH = np.meshgrid(As, angles, indexing="ij")
        xi = AA * np.cos(TH)
        eta = AA * np.sin(TH)
        best = {which: (0.0, {}) for which in _ESTIMATES}
        for t in ts:
            kv, floors = _kernel.noise_floors(t, xi, eta)
            lhs = {which: np.maximum(np.abs(symbol(kv)) - floors[floor_key], 0.0)
                   for which, (symbol, floor_key) in _ESTIMATES.items()}
            # the kernel values go, and each lhs after its envelope, so fewer
            # arrays are live beside an envelope's temporaries (peak RSS)
            del kv, floors
            coords = {"t": t * np.ones_like(xi), "xi": xi, "eta": eta}
            for which in _ESTIMATES:
                rhs = _kernel.bound_envelope(which, t, xi, eta, c_decay)
                r, w = _ratio_scan(lhs.pop(which), rhs, coords)
                if r > best[which][0]:
                    best[which] = (r, w)
        return best

    coarse = max_ratios(n_t, n_a, n_angle)
    fine = max_ratios(2 * n_t - 1, 2 * n_a, 2 * n_angle)
    samples = (2 * n_t - 1) * 2 * n_a * 2 * n_angle
    return {which: _finish(f"prop31_est{which}", samples, coarse[which][0], *fine[which],
                           cap, extra={"c_decay": c_decay})
            for which in _ESTIMATES}


def scan_kernel_bounds(which: int, n_t: int = 12, n_a: int = 24, n_angle: int = 32,
                       c_decay: float = _kernel.DEFAULT_C_DECAY,
                       cap: float = 1e3, scans: dict | None = None) -> ScanResult:
    """Fit the prefactor of pointwise estimate `which` over a log-log grid.

    Measured magnitudes are reduced by their rounding floors (see
    `kernel.noise_floors`) before the ratio against the envelope is taken;
    this only affects samples whose symbol has cancelled to within ~1e-10 of
    its assembly intermediates, far below any genuine violation of the cap.

    The scan computes all eight estimates.  `scans` is an optional
    caller-owned dict that keeps them, keyed by the scan's arguments, so the
    eight claims of one pass scan once.
    """
    if which not in _ESTIMATES:
        raise ValueError(f"unknown estimate id {which}; expected 1..8")
    scans = {} if scans is None else scans
    key = (n_t, n_a, n_angle, c_decay, cap)
    if key not in scans:
        scans[key] = _kernel_scans(*key)
    return scans[key][which]


# ---------------------------------------------------------------------------
# Appendix: elementary exponential-difference inequality

def elem1_ratio(b, c, t):
    """Ratio |I| / bound with the common exponential factored analytically.

    Both sides of the bound carry exp(-a t) (oscillatory branch) or
    exp((-a + sqrt(b+c)) t) (growing branch) exactly, so the ratio is
    a-independent; factoring it out keeps every sample finite.
    """
    b, c, t = np.broadcast_arrays(np.asarray(b, float), np.asarray(c, float),
                                  np.asarray(t, float))
    bc = b + c
    neg = bc < 0.0
    out = np.empty(b.shape, dtype=float)
    if neg.any():
        bb, cc, tt = b[neg], c[neg], t[neg]
        lhs = np.abs(4.0 * _kernel._dd_damped("sinch", bb, cc, tt, 0.0))
        rhs = np.minimum(tt**3, tt / cc)
        out[neg] = np.where(lhs == 0.0, 0.0, lhs / rhs)
    pos = ~neg
    if pos.any():
        bb, cc, tt = b[pos], c[pos], t[pos]
        sq = np.sqrt(bb + cc)
        # damping a = sqrt(b+c) cancels the growing exponential; a^2-b = c
        lhs = np.abs(4.0 * _kernel._dd_damped("sinch", bb, cc, tt, sq, a2mb=cc))
        with np.errstate(divide="ignore"):
            m1 = np.where(sq > 0, 1.0 / (cc * np.where(sq > 0, sq, 1.0)), np.inf)
            m2 = np.where(bb + cc > 0, np.sqrt(1.0 + tt * tt)
                          / np.where(bb + cc > 0, bb + cc, 1.0), np.inf)
        rhs = np.minimum(tt**3, np.minimum(m1, m2))
        out[pos] = np.where(lhs == 0.0, 0.0, lhs / rhs)
    return out


def check_elem1(samples: int = 20000, seed: int = 0, cap: float = 20.0) -> ScanResult:
    """Scan the exponential-difference bound over (b, c, t) (a factors out)."""

    def max_ratio(n, seed_):
        rng = np.random.default_rng(seed_)
        b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 2, n)
        c = 10.0 ** rng.uniform(-6, 2, n)
        t = 10.0 ** rng.uniform(-3, 2, n)
        ratio = elem1_ratio(b, c, t)
        idx = int(np.argmax(ratio))
        worst = {"b": float(b[idx]), "c": float(c[idx]), "t": float(t[idx]),
                 "ratio": float(ratio[idx])}
        return float(ratio[idx]), worst

    return _seeded_scan("elem1", max_ratio, samples, seed, cap)


# ---------------------------------------------------------------------------
# Appendix: sin-ratio inequality

def check_sin_ratio(samples: int = 50000, seed: int = 0, cap: float = 10.0) -> ScanResult:
    def max_ratio(n, seed_):
        rng = np.random.default_rng(seed_)
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 6, n)
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 6, n)
        lhs = np.abs(np.sinc(x / np.pi) - np.sinc(y / np.pi))
        s = np.abs(x) + np.abs(y)
        rhs = np.abs(np.abs(x) - np.abs(y)) * np.minimum(s, 1.0 / s)
        return _ratio_scan(lhs, rhs, {"x": x, "y": y})

    return _seeded_scan("sin_ratio", max_ratio, samples, seed, cap)


# ---------------------------------------------------------------------------
# Basic quadrature bounds

def _quad_claim(claim: str, t: float, params: dict, mult: int,
                carry: list | None = None) -> float:
    """Left-hand side of one basic quadrature claim at time t.

    `carry` goes to the claim's one L^1 integral (see linear._lq_polar), so a
    caller that keeps it across the levels of one t evaluates only new panels.
    """
    beta = params.get("beta", 0.0)
    alpha = params.get("alpha", 0.0)
    beta_p = params.get("beta_prime", beta)
    c = params.get("c", 0.25)
    annulus = ("annulus", params.get("N", 1.0))

    def heat(tt, xi, eta):  # |k|^beta e^{-c|k|^2 t}
        return np.hypot(xi, eta) ** beta * np.exp(-c * (xi**2 + eta**2) * tt)

    def aniso(tt, xi, eta):  # |xi|^beta / A^alpha e^{-c xi^2/A^2 t}
        A = np.hypot(xi, eta)
        return np.abs(xi)**beta / A**alpha * np.exp(-c * xi**2 / A**2 * tt)

    def aniso_cut(tt, xi, eta):  # the same with beta', cut to |xi| <= A^2, 0 at A = 0
        A = np.hypot(xi, eta)
        w = np.where(A > 0, np.abs(xi)**beta_p / np.where(A > 0, A, 1)**alpha
                     * np.exp(-c * xi**2 / np.where(A > 0, A, 1)**2 * tt), 0.0)
        return w * (np.abs(xi) <= A**2)

    def l1(fn, region):
        return _linear._lq_polar(fn, t, region, 1.0, 10 * mult, 6 + 4 * mult, carry=carry)

    def mixed(fn, region, qx, qe):
        return _linear._mixed_cartesian(fn, t, region, qx, qe, mult)

    if claim == "est_At":
        return l1(heat, "le1")
    if claim == "est_At2":
        return mixed(heat, "le1", np.inf, 1.0) + mixed(heat, "le1", 1.0, np.inf)
    if claim == "est_Axit1":
        return l1(aniso, annulus)
    if claim == "est_Axit3":
        return mixed(aniso, annulus, 1.0, np.inf)
    if claim == "est_Axit4":
        return mixed(aniso, annulus, np.inf, 1.0)
    if claim == "est_Axit2":
        return l1(aniso_cut, "le1")
    if claim == "est_Axit5":
        qx, qe = (1.0, np.inf) if params.get("variant", "L1xLinfy") == "L1xLinfy" else (np.inf, 1.0)
        return mixed(aniso_cut, "le1", qx, qe)
    raise KeyError(f"unknown quadrature claim {claim!r}")


# claim -> (params, target t-exponent, N-exponent)
BASIC_QUAD_CLAIMS = {
    "est_At": ({"beta": 0.0}, -1.0, 0.0),
    "est_At_b1": ({"beta": 1.0, "_claim": "est_At"}, -1.5, 0.0),
    "est_Axit1": ({"beta": 2.0, "alpha": 0.0, "N": 1.0}, -1.5, 4.0),
    "est_Axit2": ({"beta": 1.0, "beta_prime": 1.0, "alpha": 2.0}, -1.0, 0.0),
    "est_At2": ({"beta": 0.0}, -0.5, 0.0),
    "est_Axit3": ({"beta": 1.0, "alpha": 1.0, "N": 1.0}, -1.0, 1.0),
    "est_Axit4": ({"beta": 1.0, "alpha": 1.0, "N": 1.0}, -0.5, 1.0),
    # alpha < beta'+1 keeps the dyadic block sum convergent (the bound's
    # strict hypothesis 2b'-b+1-alpha > 0) and the stated rate sharp
    "est_Axit5": ({"beta": 1.0, "beta_prime": 1.0, "alpha": 1.25}, -1.0, 0.0),
}

# a passing claim's fitted t-slope is within this of its target
_QUAD_SLOPE_TOL = 0.1


def check_basic_quadrature(claim: str, params: dict | None = None,
                           t_grid=None, cap: float = 1e3) -> ScanResult:
    """Measure one basic quadrature bound: fitted prefactor and t-slope."""
    if claim not in BASIC_QUAD_CLAIMS:
        raise KeyError(f"unknown quadrature claim {claim!r}; known: {sorted(BASIC_QUAD_CLAIMS)}")
    default_params, t_slope, _ = BASIC_QUAD_CLAIMS[claim]
    p = dict(default_params)
    if params:
        p.update(params)
    real_claim = p.pop("_claim", claim)
    if t_grid is None:
        # late window: the indicator-cut integrands approach their stated
        # rates with O(t^{-1/2}) transients
        t_grid = np.geomspace(100.0, 1e4, 10)
    t_grid = np.asarray(t_grid, dtype=float)

    def levels(t):
        carry = []  # level 1's L^1 terms, reused by level 2 of the same t
        return [_quad_claim(real_claim, t, p, mult, carry) for mult in (1, 2)]

    v1, v2 = map(np.array, zip(*[levels(t) for t in t_grid]))
    slope, r2 = _linear.fit_loglog(t_grid, v2)
    rhs = (1.0 + t_grid**2) ** (t_slope / 2.0)
    ratios1 = v1 / rhs
    ratios2 = v2 / rhs
    cmax1, cmax2 = float(np.max(ratios1)), float(np.max(ratios2))
    worst_i = int(np.argmax(ratios2))
    worst = {"t": float(t_grid[worst_i]), "ratio": cmax2}
    result = _finish(f"quad:{claim}", 2 * len(t_grid), cmax1, cmax2, worst, cap,
                     extra={"fitted_slope": slope, "target_slope": t_slope,
                            "r_squared": r2, "params": p})
    if result.verdict == "PASS" and abs(slope - t_slope) > _QUAD_SLOPE_TOL:
        result.verdict = "FAIL"
        result.extra["slope_mismatch"] = abs(slope - t_slope)
    return result


# ---------------------------------------------------------------------------
# Projector time-derivative bound

def check_projector_derivative(samples: int = 40, seed: int = 0,
                               cap: float = 10.0, n: int = 64) -> ScanResult:
    """Finite-difference bound ||d_s P_{<= <s>^beta} f|| <~ <s>^{-1} ||P_~ f||.

    The s-derivative is a central difference with relative step h = 0.1<s>;
    the right-hand projector annulus is widened to cover the band swept by
    the moving cutoff (the instantaneous derivative of a transition band this
    sharp has a profile-dependent constant ~1/width, which no O(1) cap could
    accommodate; the swept-band form is what the time-integrated estimates
    use).
    """
    g = _grid.make_grid(n, n, 2 * np.pi, 2 * np.pi)

    def run(n_samples, seed_):
        rng = np.random.default_rng(seed_)
        best, worst = 0.0, {}
        for _ in range(n_samples):
            beta = rng.uniform(-1.0, 1.0)
            s = 10.0 ** rng.uniform(0.0, 2.0)
            white = rng.standard_normal((n, n))
            f = _grid.SpectralField.from_physical(g, white)
            f = _grid.apply_multiplier(f, np.exp(-0.15 * g.A**2))
            sbr = math.sqrt(1.0 + s * s)
            h = 0.1 * sbr
            n_plus = math.sqrt(1.0 + (s + h) ** 2) ** beta
            n_minus = math.sqrt(1.0 + (s - h) ** 2) ** beta
            sym = (_grid.bump_chi(g.A / n_plus) - _grid.bump_chi(g.A / n_minus)) / (2.0 * h)
            lhs = _grid.l2_norm(_grid.SpectralField(g, f.coeffs * sym))
            lo = min(n_plus, n_minus) / 2.0
            hi = max(n_plus, n_minus) * 2.0
            annulus = _grid.bump_chi(g.A / hi) - _grid.bump_chi(g.A / lo)
            rhs = _grid.l2_norm(_grid.SpectralField(g, f.coeffs * annulus)) / sbr
            if lhs == 0.0:
                continue
            ratio = lhs / rhs if rhs > 0 else math.inf
            if ratio > best:
                best, worst = ratio, {"beta": beta, "s": s, "ratio": ratio}
        return best, worst

    return _seeded_scan("projector_dt", run, samples, seed, cap)


# ---------------------------------------------------------------------------
# Anisotropic Nash interpolation

def check_nash_anisotropic(samples: int = 100, seed: int = 0, cap: float = 100.0,
                           n: int = 64, gamma: float = 0.75,
                           gamma_bar: float = 1.0) -> ScanResult:
    """||grad^{gbar}<grad> psi||_inf <= C ||<grad>^4 |grad|^g psi||_2^1/2 ||grad dx psi||_2^1/2."""
    g = _grid.make_grid(n, n, 2 * np.pi, 2 * np.pi)

    def run(n_samples, seed_):
        rng = np.random.default_rng(seed_)
        best, worst = 0.0, {}
        for k in range(n_samples):
            white = rng.standard_normal((n, n))
            psi = _grid.SpectralField.from_physical(g, white)
            rough = rng.uniform(0.05, 0.8)
            psi = _grid.apply_multiplier(psi, np.exp(-rough * g.A**2))
            psi = _grid.SpectralField(g, psi.coeffs * (g.A > 0))  # zero mean
            lhs = _grid.sobolev_norm(
                _grid.apply_multiplier(psi, _grid.homog_weight(g, gamma_bar)), 1, p=np.inf)
            r1 = _grid.sobolev_norm(_grid.apply_multiplier(psi, _grid.homog_weight(g, gamma)), 4)
            dx = _grid.deriv_x(psi)
            r2 = math.sqrt(_grid.l2_norm(_grid.deriv_x(dx)) ** 2
                           + _grid.l2_norm(_grid.deriv_y(dx)) ** 2)
            rhs = math.sqrt(r1) * math.sqrt(r2)
            if lhs == 0.0:
                continue
            ratio = lhs / rhs if rhs > 0 else 0.0
            if ratio > best:
                best, worst = ratio, {"sample": k, "rough": rough, "ratio": ratio}
        return best, worst

    return _seeded_scan("nash", run, samples, seed, cap)


# ---------------------------------------------------------------------------
# Cross-module suites and the empirical open-question norms

def check_oracle(samples: int = 1000, seed: int = 0, tol: float = 1e-8) -> ScanResult:
    res = _linear.oracle_scan(samples=samples, seed=seed)
    ratio = res["max_rel_err"] / tol
    verdict = "PASS" if ratio <= 1.0 else "FAIL"
    return ScanResult(claim_id="oracle", samples=samples, max_ratio=res["max_rel_err"],
                      fitted_C=ratio, worst=res["worst"] or {}, verdict=verdict,
                      refine_stable=True, cap=1.0, extra={"tolerance": tol})


def sample_axis(kmax: float, n: int) -> np.ndarray:
    """n equispaced samples of [-kmax, kmax]; an empty or degenerate axis is
    a named error, not a scan of nothing."""
    if n < 1:
        raise ValueError(f"invalid-budget: n must be positive, got {n}")
    if not (math.isfinite(kmax) and kmax > 0):
        raise ValueError(f"invalid-budget: kmax must be finite and positive, got {kmax}")
    return np.linspace(-kmax, kmax, n)


def check_charpoly(kmax: float = 8.0, n: int = 64) -> ScanResult:
    ks = sample_axis(kmax, n)
    # blocks of about 512 modes (one row when n > 512): stacked 4x4 complex
    # arrays of about 128 KiB leave the heap as small as a scalar loop (peak RSS)
    rows = max(1, 512 // n)
    resid = np.concatenate([
        _linear.char_poly_check(*np.meshgrid(ks[lo:lo + rows], ks, indexing="ij"))
        for lo in range(0, n, rows)])
    worstv, worst = 0.0, {}
    for i, xi in enumerate(ks):
        for j, eta in enumerate(ks):
            a8 = (xi * xi + eta * eta) ** 4  # a scalar power: an array one rounds differently
            r = resid[i, j] / (1e-10 * (1.0 + a8))
            if r > worstv:
                worstv, worst = r, {"xi": float(xi), "eta": float(eta), "ratio": r}
    verdict = "PASS" if worstv <= 1.0 else "FAIL"
    return ScanResult(claim_id="charpoly", samples=n * n, max_ratio=worstv,
                      fitted_C=worstv, worst=worst, verdict=verdict,
                      refine_stable=True, cap=1.0)


def check_kn3_open(t_grid=None) -> ScanResult:
    """Empirical decay of the two mixed norms stated without right-hand sides."""
    if t_grid is None:
        t_grid = np.geomspace(10.0, 1000.0, 8)

    def sym(t, xi, eta):
        kv = _kernel.kernel_values(t, xi, eta, fields=("comp",))
        return kv.A * np.abs(kv.xi) * kv.comp

    vals_le1 = [_linear._mixed_cartesian(sym, t, "le1", 2.0, np.inf, 2) for t in t_grid]
    vals_ann = [_linear._mixed_cartesian(sym, t, ("annulus", 1.0), 2.0, np.inf, 2) for t in t_grid]
    s1, r1 = _linear.fit_loglog(t_grid, vals_le1)
    s2, r2 = _linear.fit_loglog(t_grid, vals_ann)
    return ScanResult(claim_id="kn3_open", samples=2 * len(t_grid), max_ratio=0.0,
                      fitted_C=0.0, worst={}, verdict="INFO", refine_stable=True,
                      extra={"le1_slope": s1, "le1_r2": r1,
                             "annulus1_slope": s2, "annulus1_r2": r2})


CLAIMS = {
    **{f"prop31_est{k}": partial(scan_kernel_bounds, k) for k in range(1, 9)},
    "elem1": check_elem1,
    "sin_ratio": check_sin_ratio,
    **{f"quad:{c}": partial(check_basic_quadrature, c) for c in BASIC_QUAD_CLAIMS},
    "projector_dt": check_projector_derivative,
    "nash": check_nash_anisotropic,
    "oracle": check_oracle,
    "charpoly": check_charpoly,
    "kn3_open": check_kn3_open,
}

# Claims whose checker draws random samples and takes a `seed`.
SEEDED_CLAIMS = frozenset({"elem1", "sin_ratio", "projector_dt", "nash", "oracle"})
# Claims whose checker shares one kernel scan through a `scans` dict.
KERNEL_SCAN_CLAIMS = frozenset(f"prop31_est{k}" for k in _ESTIMATES)


def run_claim(claim_id: str, seed: int = 0, scans: dict | None = None,
              **kwargs) -> ScanResult:
    """Run one claim; `seed` reaches the checkers of SEEDED_CLAIMS only, and
    `scans` (see scan_kernel_bounds) those of KERNEL_SCAN_CLAIMS only."""
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim {claim_id!r}; known: {sorted(CLAIMS)}")
    if claim_id in SEEDED_CLAIMS:
        kwargs["seed"] = seed
    if claim_id in KERNEL_SCAN_CLAIMS and scans is not None:
        kwargs["scans"] = scans
    return CLAIMS[claim_id](**kwargs)


def run_all(report_path=None, seed: int = 0) -> dict:
    """Execute every checker; returns {claim_id: ScanResult}, sorted by id.

    The eight kernel-estimate claims share one scan, kept for this pass only.
    Exit-status semantics are the caller's: any FAIL verdict means failure.
    """
    scans = {}
    results = {cid: run_claim(cid, seed, scans) for cid in sorted(CLAIMS)}
    if report_path is not None:
        payload = {cid: res.to_dict() for cid, res in results.items()}
        Path(report_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return results
