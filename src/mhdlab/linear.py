"""Exact linear theory: per-mode symbol matrix, matrix-exponential oracle,
kernel-based semigroup, characteristic-polynomial diagonalization check, and
quadrature engines measuring symbol-norm and propagator decay rates.

The mode matrix couples (density, velocity, stream potential) through first
derivatives and dissipates the velocity block; its exponential is the exact
linear flow.  The kernel semigroup reproduces that flow from the scalar
kernels alone, which pins every sign in the transcribed multipliers against
the matrix-exponential oracle.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg

from . import grid as _grid
from .kernel import _CHUNK, kernel_values

__all__ = [
    "DecayReport",
    "symbol_matrix",
    "matexp",
    "char_poly_check",
    "kernel_semigroup_field",
    "semigroup_matrix",
    "symbol_norm",
    "propagator_decay_experiment",
    "oracle_scan",
    "fit_loglog",
    "SYMBOLS",
    "PROPAGATORS",
    "default_decay_times",
]


class QuadratureError(RuntimeError):
    pass


def symbol_matrix(xi, eta, lam: float = 0.0) -> np.ndarray:
    """Linearized generator at mode (xi, eta) with viscosity cross-term lam:
    the complex 4x4 Fourier-side matrix, or a stack of them, shape
    (..., 4, 4), over array-valued (xi, eta)."""
    ixi, ieta = 1j * xi, 1j * eta
    a2 = xi * xi + eta * eta
    m = np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(eta)) + (4, 4), dtype=complex)
    m[..., 0, 1] = m[..., 1, 0] = -ixi
    m[..., 0, 2] = m[..., 2, 0] = -ieta
    m[..., 1, 1] = -a2 - lam * xi * xi
    m[..., 1, 2] = m[..., 2, 1] = -lam * xi * eta
    m[..., 2, 2] = -a2 - lam * eta * eta
    m[..., 2, 3] = a2
    m[..., 3, 2] = -1.0
    return m


def matexp(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t*m) of a finite matrix, or of each matrix in a stack (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matexp requires finite entries")
    return expm_batch(t * m)


def expm_batch(ms: np.ndarray) -> np.ndarray:
    """exp(M) for a batch of small matrices, shape (..., d, d), in the input's
    dtype: a real batch stays real, a complex one complex.

    scipy's expm chooses the Pade order and the squaring count per matrix
    (Al-Mohy & Higham 2009), so low modes are not over-squared.
    """
    return scipy.linalg.expm(np.asarray(ms))


def _charpoly_coeffs(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(sI - m), descending, via Leverrier-Faddeev; for a
    stack (..., d, d) the coefficients are on the last axis."""
    d = m.shape[-1]
    coeffs = np.empty(m.shape[:-2] + (d + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    mk = np.array(m, dtype=complex)
    for k in range(1, d + 1):
        ck = -np.trace(mk, axis1=-2, axis2=-1) / k
        coeffs[..., k] = ck
        if k < d:
            mk = m @ (mk + ck[..., None, None] * np.eye(d))
    return coeffs


def char_poly_check(xi, eta):
    """Residual between det(sI - M) and the factorized quartic target.

    The target is (s^2 + A^2 s + A^2)^2 - A^2 eta^2, i.e. the two quadratic
    factors s^2 + A^2 s + A^2 -+ A|eta|.  Returns the max absolute coefficient
    difference, a float for scalar (xi, eta) and an array over array-valued
    ones; diagonalization holds when it is <= 1e-10 * (1 + A^8).
    """
    a2 = xi * xi + eta * eta
    got = _charpoly_coeffs(symbol_matrix(xi, eta, 0.0))
    target = np.stack([np.ones(np.shape(a2)), 2.0 * a2, a2 * a2 + 2.0 * a2,
                       2.0 * a2 * a2, a2 * a2 - a2 * eta * eta], axis=-1)
    resid = np.max(np.abs(got - target), axis=-1)
    return float(resid) if resid.ndim == 0 else resid


# ---------------------------------------------------------------------------
# Kernel semigroup: one multiplier term per kernel-and-derivative combination
# appearing in the component representations.  Keeping the terms in a flat
# table makes every transcribed sign individually addressable (the mutation
# tests flip single entries and expect the oracle suite to fail).

def _sgt_n_psi(kv, xi, eta, A, A2):
    return -1j * eta * A2 * A2 * kv.K - 1j * eta * A2 * kv.dtK


def _sgt_n_u(kv, xi, eta, A, A2):
    return -1j * xi * kv.comp


def _sgt_n_v(kv, xi, eta, A, A2):
    return -1j * eta * (kv.comp - A2 * kv.K)


def _sgt_n_n(kv, xi, eta, A, A2):
    return 0.5 * A2 * kv.comp + kv.K1


def _sgt_u_psi(kv, xi, eta, A, A2):
    return -xi * eta * A2 * kv.K


def _sgt_u_u(kv, xi, eta, A, A2):
    return eta * eta * kv.dtK - 0.5 * A2 * kv.comp + kv.K1


def _sgt_u_v(kv, xi, eta, A, A2):
    return -xi * eta * kv.dtK


def _sgt_u_n(kv, xi, eta, A, A2):
    return -1j * xi * kv.comp


def _sgt_v_u(kv, xi, eta, A, A2):
    return -xi * eta * kv.dtK


def _sgt_v_v(kv, xi, eta, A, A2):
    return -eta * eta * kv.dtK - 0.5 * A2 * kv.comp + kv.K1


def _sgt_v_psi(kv, xi, eta, A, A2):
    return A2 * kv.comp_x


def _sgt_v_n(kv, xi, eta, A, A2):
    return -1j * eta * (kv.comp - A2 * kv.K)


def _sgt_psi_n(kv, xi, eta, A, A2):
    return 1j * eta * (A2 * kv.K + kv.dtK)


def _sgt_psi_u(kv, xi, eta, A, A2):
    return xi * eta * kv.K


def _sgt_psi_v(kv, xi, eta, A, A2):
    return -kv.comp_x


def _sgt_psi_psi(kv, xi, eta, A, A2):
    return 0.5 * A2 * kv.comp + kv.K1


SEMIGROUP_TERMS = {
    ("n", "n"): _sgt_n_n,
    ("n", "u"): _sgt_n_u,
    ("n", "v"): _sgt_n_v,
    ("n", "psi"): _sgt_n_psi,
    ("u", "n"): _sgt_u_n,
    ("u", "u"): _sgt_u_u,
    ("u", "v"): _sgt_u_v,
    ("u", "psi"): _sgt_u_psi,
    ("v", "n"): _sgt_v_n,
    ("v", "u"): _sgt_v_u,
    ("v", "v"): _sgt_v_v,
    ("v", "psi"): _sgt_v_psi,
    ("psi", "n"): _sgt_psi_n,
    ("psi", "u"): _sgt_psi_u,
    ("psi", "v"): _sgt_psi_v,
    ("psi", "psi"): _sgt_psi_psi,
}

def semigroup_matrix(t, xi, eta) -> np.ndarray:
    """Complex 4x4 multiplier matrix of the kernel semigroup; broadcasts to
    shape (..., 4, 4) over array-valued (xi, eta)."""
    kv = kernel_values(t, xi, eta)
    xi_, eta_, A = kv.xi, kv.eta, kv.A
    A2 = A * A
    shape = np.broadcast(xi_, eta_).shape
    out = np.empty(shape + (4, 4), dtype=complex)
    for i, row in enumerate(_grid.COMPONENTS):
        for j, col in enumerate(_grid.COMPONENTS):
            out[..., i, j] = SEMIGROUP_TERMS[(row, col)](kv, xi_, eta_, A, A2)
    return out


def kernel_semigroup_field(state: _grid.PerturbationState, t: float) -> _grid.PerturbationState:
    """Gridwise application of the kernel semigroup (viscosity cross-term 0).

    Acts on the Nyquist-free band: the unpaired Nyquist modes (row nx/2, last
    column) have no conjugate partner, so they are projected away to keep
    physical fields real (band-limited states are unaffected).
    """
    g = state.grid
    m = semigroup_matrix(t, np.broadcast_to(g.XI, g.shape), np.broadcast_to(g.ETA, g.shape))
    u = state.coeffs.copy()
    u[:, g.nx // 2, :] = 0.0
    u[:, :, -1] = 0.0
    return _grid.PerturbationState(g, np.einsum("xyij,jxy->ixy", m, u))


def _apply(ms: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products ms[k] @ us[k], bitwise as one by one."""
    return np.matmul(ms, us[..., None])[..., 0]


def oracle_scan(samples: int = 1000, seed: int = 0, t_values=(0.1, 1.0, 10.0),
                box: float = 8.0) -> dict:
    """Compare the kernel semigroup against the matrix-exponential oracle.

    Draws `samples` uniform modes in [-box, box]^2, random unit 4-vectors,
    and reports the worst relative discrepancy over the listed times (the
    first maximum in sample-major order).  Each time costs one semigroup
    batch and one expm batch over all modes.  A non-finite discrepancy
    raises ValueError("oracle-nonfinite: ...") naming its mode and time.
    """
    if samples <= 0:
        raise ValueError("invalid-budget: samples must be positive")
    t_values = tuple(t_values)
    if not t_values or not all(math.isfinite(t) for t in t_values):
        raise ValueError(f"invalid-budget: t_values must be nonempty and finite, got {t_values}")
    if not (math.isfinite(box) and box > 0):
        raise ValueError(f"invalid-budget: box must be finite and positive, got {box}")
    rng = np.random.default_rng(seed)
    modes = np.empty((samples, 2))
    u0s = np.empty((samples, 4), dtype=complex)
    for k in range(samples):
        modes[k] = rng.uniform(-box, box, size=2)
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u0 /= np.linalg.norm(u0)
        u0s[k] = u0
    xi, eta = modes[:, 0], modes[:, 1]
    gen = symbol_matrix(xi, eta, 0.0)
    errs = np.empty((samples, len(t_values)))
    for j, t in enumerate(t_values):
        ref = _apply(matexp(gen, t), u0s)
        got = _apply(semigroup_matrix(t, xi, eta), u0s)
        for k in range(samples):
            errs[k, j] = np.linalg.norm(got[k] - ref[k]) / (1.0 + np.linalg.norm(ref[k]))
        bad = np.flatnonzero(~np.isfinite(errs[:, j]))
        if bad.size:
            k = bad[0]
            raise ValueError(f"oracle-nonfinite: discrepancy {errs[k, j]} at mode "
                             f"(xi, eta) = ({xi[k]!r}, {eta[k]!r}), t = {t!r}")
    k, j = divmod(int(np.argmax(errs)), len(t_values))
    worst = errs[k, j]
    worst_case = {"xi": xi[k], "eta": eta[k], "t": t_values[j]} if worst > 0 else None
    return {"samples": samples, "seed": seed, "max_rel_err": worst, "worst": worst_case}


# ---------------------------------------------------------------------------
# Quadrature engine: log-polar product grid over one quadrant (all measured
# symbols are even in xi and in eta), Gauss-Legendre panels, dyadic angular
# refinement toward the eta-axis where the anisotropic factor concentrates.

_LOG_A_MIN = -12.0
_LOG_A_MAX = 6.0
# Gauss-Legendre nodes per panel of the polar mesh, on both axes.
_POLAR_GL = 8
# Radial panel widths of the oscillatory band, times t (see _band): |S|^2 is
# as smooth as S, while |S|^q for any other q has a kink at each zero of S.
_BAND_WIDTH_SMOOTH = math.pi
_BAND_WIDTH_KINKED = math.pi / 4.0
# Most radial panels of the oscillatory band (see _rho_edges).
_BAND_PANELS_MAX = 20000
# Most nodes per symbol_fn call of a polar level (a block holds at least one
# theta row), so a level's temporaries do not grow with the level.
_LEVEL_BLOCK = 4 * _CHUNK


@cache
def _leggauss(n_gl: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(n_gl)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_panels(edges: np.ndarray, n_gl: int):
    """Gauss-Legendre nodes and weights of the panels between consecutive
    edges along the last axis; 2-D edges give one row of nodes per row."""
    x, w = _leggauss(n_gl)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = (*edges.shape[:-1], -1)
    nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
    weights = (half[..., None] * w).reshape(shape)
    return nodes, weights


def _theta_edges(levels: int) -> np.ndarray:
    """Panel edges on [0, pi/2], refined dyadically toward pi/2 (xi -> 0)."""
    half = np.pi / 2.0
    edges = [0.0, half / 4, half / 2]
    gap = half / 2
    for _ in range(levels):
        gap *= 0.5
        edges.append(half - gap)
    edges.append(half)
    return np.unique(np.array(edges))


def _region_rho_range(region) -> tuple[float, float]:
    if region == "le1":
        return (_LOG_A_MIN, 0.0)
    if region == "all":
        return (_LOG_A_MIN, _LOG_A_MAX)
    if isinstance(region, tuple) and region[0] == "annulus":
        n = float(region[1])
        return (math.log(n / 2.0), math.log(n))
    raise ValueError(f"unknown region {region!r}")


def parse_region(text: str):
    if text in ("le1", "all"):
        return text
    if text.startswith("sim") and text[3:].replace(".", "", 1).isdigit():
        n = float(text[3:])
        if n == math.inf:
            raise ValueError(f"region sim<N>: N must be finite, got {n!r}")
        if n > 0:
            return ("annulus", n)
    raise ValueError(f"unknown region {text!r}; expected le1, all or sim<N>")


def _band(region, t: float, q: float) -> tuple[float, float, int]:
    """The oscillatory band's A range (a_lo, a_cap) and its number of radial
    panels at time t for the L^q integrand |S|^q, 0 when there is no band.

    The panels are _BAND_WIDTH_SMOOTH / t wide for q = 2 and
    _BAND_WIDTH_KINKED / t for every other q, where |S|^q kinks at each
    zero of S and Gauss panels need to be narrow.  A band of more than
    _BAND_PANELS_MAX panels is a ValueError naming the largest t the mesh
    resolves."""
    rho_lo, rho_hi = _region_rho_range(region)
    a_lo = math.exp(rho_lo)
    width = _BAND_WIDTH_SMOOTH if q == 2.0 else _BAND_WIDTH_KINKED

    def band(t):
        a_cap = min(math.exp(rho_hi), 2.5, 8.0 / math.sqrt(max(t, 1.0)))
        count = 0
        if t > 0 and a_cap > a_lo:
            count = int((a_cap - a_lo) / (width / max(t, 1.0)))
        return a_cap, count

    a_cap, count = band(t)
    if count > _BAND_PANELS_MAX:
        # the count rises with t up to its peak, so bisect for where it crosses
        lo, hi = 1.0, float(t)
        for _ in range(64):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if band(mid)[1] <= _BAND_PANELS_MAX else (lo, mid)
        raise ValueError(
            f"t = {t:g} needs {count} radial panels for the oscillatory band, more "
            f"than {_BAND_PANELS_MAX}; the polar mesh resolves t up to {lo:.4g}")
    return a_lo, a_cap, count


def _rho_edges(region, n_rho: int, t: float, q: float, breaks=()) -> np.ndarray:
    """Radial panel edges in rho = log A.

    A uniform log mesh is unioned with a linear-in-A mesh over the oscillatory
    band, which serves the kernel symbols, the only integrands of the polar
    mesh: for A below ~2 their branches are dispersive and they oscillate
    radially with wavelength ~pi/t, which a pure log mesh cannot resolve at
    large t.  The linear band is capped where exp(-A^2 t/4) damping makes the
    contribution negligible, and its panel width follows the exponent q of
    the integrand; a band too fine for the mesh is a ValueError (see _band).
    `breaks` are radii A where the integrand jumps (see _init_profile); each
    one inside the region is an edge too.
    """
    rho_lo, rho_hi = _region_rho_range(region)
    edges = np.linspace(rho_lo, rho_hi, n_rho + 1)
    a_lo, a_cap, count = _band(region, t, q)
    if count:
        lin = np.log(np.linspace(a_lo, a_cap, count + 1)[1:])
        edges = np.union1d(edges, lin)
    jumps = [rho for rho in map(math.log, breaks) if rho_lo < rho < rho_hi]
    if jumps:
        edges = np.union1d(edges, jumps)
    return edges


def _carried_nodes(edges: np.ndarray, prev_edges: np.ndarray) -> np.ndarray:
    """For each Gauss node on `edges`, the index of the same node on the
    previous level's `prev_edges`, or -1.

    A node is carried when its panel has both edges equal to those of a
    previous panel bit for bit, so its coordinate and weight are bitwise the
    same.
    """
    j = np.minimum(np.searchsorted(prev_edges, edges[:-1]), prev_edges.size - 2)
    same = (prev_edges[j] == edges[:-1]) & (prev_edges[j + 1] == edges[1:])
    nodes = j[:, None] * _POLAR_GL + np.arange(_POLAR_GL)
    return np.where(same[:, None], nodes, -1).ravel()


def _shared_theta_nodes(edges: np.ndarray, prev_edges: np.ndarray) -> int:
    """The number of leading theta nodes that `edges` shares with the previous
    level's `prev_edges`: those of the leading panels whose edges are equal
    bit for bit.  _theta_edges refines only its last panel, so these are all
    of the carried theta nodes, at the same indices on both levels."""
    m = min(edges.size, prev_edges.size)
    same = edges[:m] == prev_edges[:m]
    equal = m if same.all() else int(np.argmin(same))
    return max(equal - 1, 0) * _POLAR_GL


def _row_chunks(rows: np.ndarray, n_cols: int) -> list:
    """`rows` cut into consecutive chunks of at most _LEVEL_BLOCK nodes across
    `n_cols` columns, each holding at least one row."""
    step = max(1, _LEVEL_BLOCK // max(n_cols, 1))
    return [rows[i:i + step] for i in range(0, rows.size, step)]


def _lq_polar(symbol_fn, t: float, region, q: float, n_rho: int,
              theta_levels: int, carry: list | None = None, breaks=()) -> float:
    """One quadrature level of the L^q norm of symbol_fn(t, .) over a region.

    The mesh is a Gauss-Legendre product in (rho = log A, theta) over one
    quadrant, with _POLAR_GL nodes per panel, and radial edges at the jumps
    `breaks` (see _rho_edges).  `carry` is an optional
    caller-owned list for the successive levels of one integral.  It holds
    the previous level's rho edges, theta edges and per-node terms
    (w * |S|^q, or |S| for q = inf) in row-major (rho, theta) layout.  A
    node whose rho and theta panels both have a previous panel's edges
    copies its term; every other node goes to symbol_fn in blocks of whole
    theta rows, at most _LEVEL_BLOCK nodes each (see _row_chunks), through
    two work arrays the level owns.  The list is then set to this level.
    Each node is computed elementwise and the same terms array is summed
    once, so the result is bitwise that of a level without a carry, at any
    block size.
    """
    rho_edges, theta_edges = _rho_edges(region, n_rho, t, q, breaks), _theta_edges(theta_levels)
    rho, w_rho = _gauss_panels(rho_edges, _POLAR_GL)
    theta, w_theta = _gauss_panels(theta_edges, _POLAR_GL)
    A = np.exp(rho)
    cos, sin = np.cos(theta), np.sin(theta)
    # dA dxi deta = A^2 drho dtheta on the quadrant; factor 4 for symmetry
    w_r = 4.0 * (np.exp(2.0 * rho) * w_rho)
    terms = np.empty((rho.size, theta.size))
    new_r, old_r, k = np.arange(rho.size), np.arange(0), 0
    if carry:
        prev_rho, prev_theta, prev_terms = carry
        k = _shared_theta_nodes(theta_edges, prev_theta)
        if k:
            src_r = _carried_nodes(rho_edges, prev_rho)
            old_r, new_r = np.flatnonzero(src_r >= 0), np.flatnonzero(src_r < 0)
            for r in _row_chunks(old_r, k):
                terms[r, :k] = prev_terms[src_r[r], :k]
    # The new nodes form two blocks, new rows by every column and carried
    # rows by the columns from k on; each is walked in chunks of whole rows.
    blocks = [(r, c0) for rows, c0 in ((new_r, 0), (old_r, k)) if c0 < theta.size
              for r in _row_chunks(rows, theta.size - c0)]
    work = np.empty((2, max((r.size * (theta.size - c0) for r, c0 in blocks), default=0)))
    for r, c0 in blocks:
        n_c = theta.size - c0
        xi, eta = work[0, :r.size * n_c], work[1, :r.size * n_c]
        np.multiply(A[r, None], cos[c0:], out=xi.reshape(r.size, n_c))
        np.multiply(A[r, None], sin[c0:], out=eta.reshape(r.size, n_c))
        vals = np.abs(symbol_fn(t, xi, eta))
        if not np.isinf(q):
            vals **= q
            vals *= (w_r[r, None] * w_theta[c0:]).ravel()
        terms[r, c0:] = vals.reshape(r.size, n_c)
    if carry is not None:
        carry[:] = [rho_edges, theta_edges, terms]
    if np.isinf(q):
        best = float(np.max(terms))
        if best == 0.0:
            return best
        i, j = np.unravel_index(np.argmax(terms), terms.shape)
        xi0, eta0 = A[i] * cos[j], A[i] * sin[j]
        rho0 = math.log(math.hypot(xi0, eta0))
        theta0 = math.atan2(eta0, xi0)
        return _polish_max(symbol_fn, t, region, rho0, theta0, best)
    return float(terms.sum()) ** (1.0 / q)


def _polish_max(symbol_fn, t, region, rho0, theta0, best) -> float:
    """Golden-section refinement of a polar-grid maximum, one axis at a time."""
    rho_lo, rho_hi = _region_rho_range(region)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def value(rho, theta):
        a = math.exp(min(max(rho, rho_lo), rho_hi))
        return float(np.abs(symbol_fn(t, a * math.cos(theta), a * math.sin(theta))))

    point = [rho0, theta0]
    spans = [0.2 * (rho_hi - rho_lo) / 12.0 + 0.05, 0.05]
    for _ in range(3):
        for axis in (0, 1):
            lo = point[axis] - spans[axis]
            hi = point[axis] + spans[axis]
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            for _ in range(20):
                pc, pd = list(point), list(point)
                pc[axis], pd[axis] = c, d
                if value(*pc) >= value(*pd):
                    hi = d
                else:
                    lo = c
                c = hi - invphi * (hi - lo)
                d = lo + invphi * (hi - lo)
            point[axis] = 0.5 * (lo + hi)
            spans[axis] *= 0.5
    return max(best, value(*point))


def symbol_norm(symbol_id: str, region, q_xi: float, q_eta: float, t: float) -> float:
    """L^{q_xi}_xi L^{q_eta}_eta norm of a registered symbol over a region.

    `region` is "le1", "all", or ("annulus", N) with N the dyadic scale; the
    exponents lie in [1, inf].  The result is refinement-checked (see
    _refined).
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {float(t)!r}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    for name, q in (("q_xi", q_xi), ("q_eta", q_eta)):
        if not 1.0 <= q <= math.inf:
            raise ValueError(f"{name} must be in [1, inf], got {float(q)!r}")
    symbol_fn = SYMBOLS[symbol_id]
    if q_xi == q_eta:
        carry = []  # each level evaluates only the panels new since the last

        def eval_at(mult):
            return _lq_polar(symbol_fn, t, region, q_xi, n_rho=12 * mult,
                             theta_levels=8 + 6 * mult, carry=carry)
    else:
        def eval_at(mult):
            return _mixed_cartesian(symbol_fn, t, region, q_xi, q_eta, mult)
    return _refined(eval_at, f"symbol_norm({symbol_id}, t={t})")


def _refined(eval_at, what: str) -> float:
    """eval_at(mult) at mult = 1, 2, 4, 8 until two consecutive results agree
    to 1 %, else QuadratureError."""
    coarse = eval_at(1)
    for mult in (2, 4, 8):
        fine = eval_at(mult)
        scale = max(abs(fine), 1e-300)
        if abs(fine - coarse) / scale <= 0.01:
            return fine
        coarse = fine
    raise QuadratureError(f"quadrature-nonconvergence in {what}")


def _panel_edges(lo: np.ndarray, hi: np.ndarray, n_base: int) -> list:
    """Panel edges on each row's [lo, hi], geometrically refined toward lo
    when lo ~ 0, as [(rows, edges)] with one pair per distinct edge count.

    Row i holds lo_i, the edges lo_i + s_i 4^k (s_i = 1e-8 (hi_i - lo_i)) for
    every s_i 4^k < hi_i - lo_i, and n_base uniform edges, clipped to
    [lo_i, hi_i], sorted, with equal neighbours dropped (np.unique row by
    row), so each row's edges are bitwise those of the row built alone.
    `edges` has shape (rows.size, count).
    """
    span = hi - lo
    scale = span * 1e-8
    bad = np.flatnonzero(~(np.isfinite(span) & (scale > 0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"panel-underflow: the span {float(span[i])!r} of "
                         f"[{float(lo[i])!r}, {float(hi[i])!r}] is too small to refine "
                         "(1e-8 * span rounds to 0)")
    cols = [lo]
    inside = scale < span
    while inside.any():
        cols.append(np.where(inside, lo + scale, lo))  # a finished row repeats lo
        scale = scale * 4.0
        inside = scale < span
    uniform = lo[:, None] + np.linspace(0, span, n_base + 1, axis=1)[:, 1:]
    edges = np.concatenate([np.stack(cols, axis=1), uniform], axis=1)
    np.clip(edges, lo[:, None], hi[:, None], out=edges)
    edges.sort(axis=1)
    keep = np.ones(edges.shape, dtype=bool)
    np.not_equal(edges[:, 1:], edges[:, :-1], out=keep[:, 1:])
    counts = keep.sum(axis=1)
    if counts.min() == edges.shape[1]:
        return [(np.arange(edges.shape[0]), edges)]
    groups = []
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        groups.append((rows, edges[rows][keep[rows]].reshape(rows.size, count)))
    return groups


def _mixed_cartesian(symbol_fn, t: float, region, q_xi: float, q_eta: float,
                     mult: int) -> float:
    """Nested norm: inner over eta for fixed xi, outer over xi (quadrant x4
    via evenness, i.e. x2 per axis for finite exponents).

    The eta panels of every xi node are built at once, one array per group
    of nodes with equal edge counts, and go to symbol_fn in one call; each
    group reduces its nodes' inner norms row by row, which gives each node
    the value of its own slice reduced alone.
    """
    rho_lo, rho_hi = _region_rho_range(region)
    a_lo, a_hi = math.exp(rho_lo), math.exp(rho_hi)
    if region == "le1" or region == "all":
        a_lo = 0.0
    [(_, xi_edges)] = _panel_edges(np.array([0.0]), np.array([a_hi]), 12 * mult)
    xi_nodes, xi_w = _gauss_panels(xi_edges[0], 6)
    x2 = xi_nodes * xi_nodes
    e_hi2 = a_hi**2 - x2
    e_hi = np.sqrt(np.maximum(e_hi2, 0.0))
    e_lo = np.sqrt(np.maximum(a_lo**2 - x2, 0.0))
    live = np.flatnonzero((e_hi2 > 0) & (e_hi > e_lo))
    inner = np.zeros_like(xi_nodes)  # a node whose eta chord is empty stays 0
    if live.size:
        groups = [(live[rows], *_gauss_panels(edges, 6))
                  for rows, edges in _panel_edges(e_lo[live], e_hi[live], 10 * mult)]
        xi_b = np.concatenate([np.repeat(xi_nodes[i], eta.shape[1]) for i, eta, _ in groups])
        eta_b = np.concatenate([eta.ravel() for _, eta, _ in groups])
        vals = np.abs(symbol_fn(t, xi_b, eta_b))
        del xi_b, eta_b
        stop = 0
        for i, eta, eta_w in groups:
            start, stop = stop, stop + eta.size
            v = vals[start:stop].reshape(eta.shape)
            if np.isinf(q_eta):
                inner[i] = np.max(v, axis=1)
            else:
                sums = np.sum(eta_w * v**q_eta, axis=1)
                # Python's pow, not np.power, whose SIMD loops may round differently
                inner[i] = [(2.0 * s) ** (1.0 / q_eta) for s in sums.tolist()]
    if np.isinf(q_xi):
        return float(np.max(inner))
    return (2.0 * float(np.sum(xi_w * inner**q_xi))) ** (1.0 / q_xi)


# Registered symbols.  Each entry maps a name to an expression whose
# parameters name the kernel fields it reads (see kernel.KernelValues); the
# registry wraps it as a plain function of (t, xi, eta) returning the real
# symbol, and evaluates only those fields.  Names describe the operator
# combination they front.  Two spellings of A^2 are in use, hypot squared
# (A * A) and xi^2 + eta^2, which can differ in the last bit; each entry keeps
# its own so that its values stay unchanged.
def _a2(xi, eta):
    return xi**2 + eta**2


def _symbol(expr):
    fields = tuple(inspect.signature(expr).parameters)

    def fn(t, xi, eta):
        kv = kernel_values(t, xi, eta, fields=fields)
        return expr(*(getattr(kv, f) for f in fields))
    return fn


SYMBOLS = {name: _symbol(expr) for name, expr in {
    "K": lambda K: K,
    "A4K": lambda A, K: A**4 * K,
    "xietaK": lambda xi, eta, K: np.abs(xi * eta) * K,
    "xietaAK": lambda xi, eta, A, K: np.abs(xi * eta) * A * K,
    "Axi2etaK": lambda A, xi, eta, K: A * xi * xi * np.abs(eta) * K,
    "visc_wave_K": lambda A, eta, K: A * A * (A * A - A * np.abs(eta)) * K,
    "etadtK": lambda eta, dtK: np.abs(eta) * dtK,
    "AetadtK": lambda A, eta, dtK: A * np.abs(eta) * dtK,
    "A2etadtK": lambda xi, eta, dtK: _a2(xi, eta) * np.abs(eta) * dtK,
    "Aeta_wavetK": lambda A, eta, comp, K: A * np.abs(eta) * (comp - A * A * K),
    "A2_wavetK": lambda xi, eta, comp, K: _a2(xi, eta) * (comp - _a2(xi, eta) * K),
    "comp": lambda comp: comp,
    "A2comp": lambda A, comp: A * A * comp,
    "xicomp": lambda xi, comp: np.abs(xi) * comp,
    "xi2comp": lambda xi, comp: xi * xi * comp,
    "comp_x": lambda comp_x: comp_x,
    "Acomp_x": lambda A, comp_x: A * comp_x,
    "dt_comp": lambda dt_comp: dt_comp,
    "Axidt_comp": lambda A, xi, dt_comp: A * np.abs(xi) * dt_comp,
    "A2xidt_comp": lambda xi, eta, dt_comp: _a2(xi, eta) * np.abs(xi) * dt_comp,
    "eta_ddtK": lambda eta, ddtK: np.abs(eta) * ddtK,
    "wave4_ddt": lambda eta, ddt_comp, ddtK: ddt_comp + eta**2 * ddtK,
    "wave4_ddt_H2": lambda xi, eta, ddt_comp, ddtK: (
        (1.0 + _a2(xi, eta)) * (ddt_comp + eta**2 * ddtK)),
    "K1": lambda K1: K1,
    "xiK1": lambda xi, K1: np.abs(xi) * K1,
}.items()}


# ---------------------------------------------------------------------------
# Propagator decay experiments


@dataclass(frozen=True)
class DecayReport:
    quantity_id: str
    times: np.ndarray
    values: np.ndarray
    fitted_slope: float
    r_squared: float
    target_slope: float
    window: tuple[float, float]
    degenerate: bool = False

    def passes(self, tol: float, r2_min: float = 0.98) -> bool:
        return (not self.degenerate and self.r_squared >= r2_min
                and abs(self.fitted_slope - self.target_slope) <= tol)

    def to_dict(self) -> dict:
        return {
            "quantity_id": self.quantity_id,
            "times": list(map(float, self.times)),
            "values": list(map(float, self.values)),
            "fitted_slope": self.fitted_slope,
            "r_squared": self.r_squared,
            "target_slope": self.target_slope,
            "window": list(self.window),
            "degenerate": self.degenerate,
        }


def fit_loglog(times, values) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(time) and its r^2."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if keep.sum() < 3:
        return 0.0, 0.0
    lt = np.log(times[keep])
    lv = np.log(values[keep])
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    ss_tot = np.sum((lv - lv.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(r2)


def _check_decay_times(times) -> np.ndarray:
    """The times of a decay experiment as an array, else a named ValueError:
    they are finite, nonempty, all >= 10 and span >= 1.5 decades."""
    times = np.asarray(times, dtype=float)
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ValueError(f"decay times must be finite, got {float(times.flat[bad[0]])!r} "
                         f"at index {int(bad[0])}")
    if times.size == 0 or times.min() < 10.0 or times.max() / times.min() < 10.0**1.5:
        raise ValueError("decay times must be nonempty, all >= 10 and span >= 1.5 decades")
    return times


def default_decay_times(t0: float = 10.0, t1: float = 1000.0, n: int = 12) -> np.ndarray:
    return _check_decay_times(np.geomspace(t0, t1, n))


def _init_profile(kind: str, seed: int = 0):
    """The initial profile f0(xi, eta) of a decay experiment and the radii A
    where it jumps, which the polar mesh takes as radial edges."""
    if kind == "gaussian":
        return (lambda xi, eta: np.exp(-0.5 * (xi**2 + eta**2))), ()
    if kind == "band-limited random":
        rng = np.random.default_rng(seed)
        coef = rng.uniform(0.3, 1.0, size=4)
        def profile(xi, eta):
            A2 = xi**2 + eta**2
            radial = coef[0] + coef[1] * A2 + coef[2] * A2**2
            return radial * np.exp(-coef[3] * A2) * (A2 <= 4.0)
        return profile, (2.0,)
    if kind == "zero":
        return (lambda xi, eta: np.zeros(np.broadcast(xi, eta).shape)), ()
    raise ValueError(f"unknown initial profile {kind!r}")


# id -> (symbol id, norm kind, target slope, beta note).  "l2" realizes the
# L^2 operator norm as (int |S * f0|^2)^(1/2); "l1" is the Fourier-side L^1
# surrogate used for sup-norm decay.
PROPAGATORS = {
    "kn1L": ("A4K", "l2", -0.25),
    "ku1L": ("xietaAK", "l2", -0.5),
    "ku1ppL": ("Axi2etaK", "l2", -1.0),
    "ku3L": ("visc_wave_K", "l2", -0.5),
    "kn2L": ("A2etadtK", "l2", -1.0),
    "kn4L": ("Aeta_wavetK", "l2", -1.0),
    "ku2L": ("A2_wavetK", "l2", -0.5),
    "kn6L": ("A2comp", "l2", -0.25),
    "kn3L": ("xicomp", "l2", -0.5),
    "kn8L": ("xi2comp", "l2", -1.0),
    "kn11L": ("Acomp_x", "l2", -0.5),
    "kn5L": ("dt_comp", "l1", -1.0),
    "ku6L": ("A2xidt_comp", "l2", -1.5),
    "kn9L": ("wave4_ddt_H2", "l2", -0.5),
    "k1L": ("K1", "l2", -0.25),
}


def propagator_decay_experiment(prop_id: str, init: str = "gaussian",
                                times=None, seed: int = 0) -> DecayReport:
    """Measure the decay rate of one linear-flow norm by continuum quadrature.

    The L^2 norms are evaluated by Parseval as weighted quadrature of
    |S(t) * f0|^2 over the plane; sup-norm targets use the Fourier-side L^1
    integral, whose decay matches the stated sup-norm rate.
    """
    if prop_id not in PROPAGATORS:
        raise KeyError(f"unknown propagator id {prop_id!r}; known: {sorted(PROPAGATORS)}")
    sym_id, norm_kind, target = PROPAGATORS[prop_id]
    symbol_fn = SYMBOLS[sym_id]
    profile, breaks = _init_profile(init, seed)
    times = default_decay_times() if times is None else _check_decay_times(times)
    region = "all"
    q = 2.0 if norm_kind == "l2" else 1.0
    for t in times:  # a time the polar mesh cannot resolve fails before any level
        _band(region, t, q)

    def weighted(t, xi, eta):
        return np.abs(symbol_fn(t, xi, eta)) * np.abs(profile(xi, eta))

    def value(t):
        carry = []  # each level evaluates only the panels new since the last
        return _refined(
            lambda m: _lq_polar(weighted, t, region, q, n_rho=14 * m,
                                theta_levels=8 + 6 * m, carry=carry, breaks=breaks),
            f"decay({prop_id}, t={t})")

    values = np.array([value(t) for t in times])
    if np.all(values == 0.0):
        return DecayReport(prop_id, times, values, 0.0, 0.0, target,
                           (float(times[0]), float(times[-1])), degenerate=True)
    slope, r2 = fit_loglog(times, values)
    return DecayReport(prop_id, times, values, slope, r2, target,
                       (float(times[0]), float(times[-1])))
