"""Closed-form evaluation of the scalar Fourier kernels of the linearized flow.

The linearized 2D compressible MHD system reduces, mode by mode, to the
fourth-order operator whose four exponential branches are

    -A^2/2 +- sqrt(b +- c),   b = A^4/4 - A^2,   c = A*|eta|,

with A = sqrt(xi^2 + eta^2).  Everything in this module is built from two
entire functions (sinch, coshc) that continue sinh(t*sqrt(z))/sqrt(z) and
cosh(t*sqrt(z)) across z = 0, together with a numerically stable divided
difference in the argument c.  All kernel symbols are real functions of
(t, xi, eta); every evaluation here is vectorized over numpy arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "KernelValues",
    "KERNEL_FIELDS",
    "sinch",
    "coshc",
    "k_hat",
    "k1_hat",
    "kernel_values",
    "bound_envelope",
    "DEFAULT_C_DECAY",
]

# Default decay-rate constant used inside the high-frequency factor exp(-c*t)
# of the pointwise estimate envelopes.  The estimates hold for *some* c > 0;
# the fitted prefactor (verify module) absorbs this choice.
DEFAULT_C_DECAY = 1.0 / 16.0

# Branch thresholds.  |z|*t^2 below _SERIES_Z uses the entire power series.
# The divided difference uses the two-point formula when the variation
# v = c*t^2/(1+w) across [b-c, b+c] exceeds _DD_V_REL*(1+w), w = t*sqrt(|b|+c):
# rounding of the oscillation phase costs ~eps*(1+w)/v relative error, so this
# keeps the two-point branch at <= eps/_DD_V_REL.  Below that it switches to a
# c-Taylor expansion about b (series coefficients for small |b| t^2, a
# derivative recurrence seeded by the transcendental branch otherwise).
_SERIES_Z = 1e-2
_DD_V_REL = 1e-3
_DD_SMALL_BT2 = 36.0
_DD_REC_RATIO = 0.25


def _split_bc(xi, eta):
    """A = |(xi, eta)|, b = A^4/4 - A^2 and c = A|eta|, elementwise."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    A = np.hypot(xi, eta)
    a2 = A * A
    b = 0.25 * a2 * a2 - a2
    c = A * np.abs(eta)
    return A, b, c


def _damped_pair(z, a, t, a2mz=None, half=None):
    """Return (exp(-a t) * sinch(z, t), exp(-a t) * coshc(z, t)), elementwise.

    With `half` = 0 or 1 only that entry of the pair is computed and the
    other is None.

    The product form matters: for z > 0 both factors can over/underflow even
    though the product is tame, so the positive branch is assembled from the
    exponentials exp((sqrt(z) - a) t) and exp(-(sqrt(z) + a) t) directly.
    When the caller knows a^2 - z exactly (`a2mz`), the critical exponent is
    computed as sqrt(z) - a = (z - a^2)/(sqrt(z) + a), avoiding the
    cancellation of two nearly equal large numbers.
    """
    if a2mz is None:
        z, a, t = np.broadcast_arrays(
            np.asarray(z, dtype=float), np.asarray(a, dtype=float), np.asarray(t, dtype=float)
        )
        a2mz_ = None
    else:
        z, a, t, a2mz_ = np.broadcast_arrays(
            np.asarray(z, dtype=float), np.asarray(a, dtype=float),
            np.asarray(t, dtype=float), np.asarray(a2mz, dtype=float),
        )
    g = np.empty(z.shape, dtype=float) if half != 1 else None
    h = np.empty(z.shape, dtype=float) if half != 0 else None

    x = z * t * t
    m_series = np.abs(x) <= _SERIES_Z
    m_osc = (~m_series) & (z < 0.0)
    m_pos = (~m_series) & (z >= 0.0)

    if m_series.any():
        xs, ts, as_ = x[m_series], t[m_series], a[m_series]
        damp = np.exp(-as_ * ts)
        # truncation error below 3e-18 relative for |x| <= 1e-2
        if g is not None:
            g[m_series] = damp * ts * (
                1.0 + xs / 6.0 * (1.0 + xs / 20.0 * (1.0 + xs / 42.0 * (1.0 + xs / 72.0)))
            )
        if h is not None:
            h[m_series] = damp * (
                1.0 + xs / 2.0 * (1.0 + xs / 12.0 * (1.0 + xs / 30.0 * (1.0 + xs / 56.0)))
            )
    if m_osc.any():
        s = np.sqrt(-z[m_osc])
        w = t[m_osc] * s
        damp = np.exp(-a[m_osc] * t[m_osc])
        if g is not None:
            g[m_osc] = damp * np.sin(w) / s
        if h is not None:
            h[m_osc] = damp * np.cos(w)
    if m_pos.any():
        s = np.sqrt(z[m_pos])
        ts, as_ = t[m_pos], a[m_pos]
        if a2mz_ is None:
            up = (s - as_) * ts
        else:
            up = -(a2mz_[m_pos] / (s + as_)) * ts
        with np.errstate(over="ignore"):
            ep = np.exp(up)
            em = np.exp(-(s + as_) * ts)
        if g is not None:
            g[m_pos] = (ep - em) / (2.0 * s)
        if h is not None:
            h[m_pos] = 0.5 * (ep + em)
    return g, h


def _series_deriv(kind: str, j: int, b, t, nterms: int = 48):
    """j-th z-derivative of sinch/coshc at z=b via the entire power series.

    Valid (fast, cancellation-safe) when t^2 * |b| is moderate; callers gate
    on _DD_SMALL_BT2.
    """
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)
    t2 = t * t
    # coefficient a_{k+j} * (k+j)!/k! of b^k; k = 0 term:
    if kind == "sinch":
        # a_m = t^(2m+1)/(2m+1)!
        term = t ** (2 * j + 1)
        for i in range(1, 2 * j + 2):
            term = term / i
        for i in range(1, j + 1):  # (j)!/0! factor of the k=0 term
            term = term * i
    else:
        term = t ** (2 * j)
        for i in range(1, 2 * j + 1):
            term = term / i
        for i in range(1, j + 1):
            term = term * i
    total = np.zeros(np.broadcast(b, t).shape, dtype=float)
    term = np.broadcast_to(term, total.shape).astype(float).copy()
    off = 1 if kind == "sinch" else 0
    for k in range(nterms):
        total += term
        mj = k + j + 1
        denom = (k + 1.0) * (2 * mj + off - 1.0) * (2 * mj + off)
        term = term * t2 * b * (mj / denom)
    return total


def _dd_damped(kind: str, b, c, t, a, a2mb=None):
    """exp(-a t) * (f(b+c,t) - f(b-c,t)) / (2c) for f = sinch or coshc.

    Three regimes, selected elementwise:
      * two-point difference when the variation of f across [b-c, b+c] is
        large enough to dominate rounding of f itself;
      * series-in-z Taylor coefficients about b when t^2(|b|+c) is small;
      * a derivative recurrence seeded by the transcendental branch when the
        c-expansion converges (c*t/sqrt(|b|) small);
      * two-point as fallback in the marginal zone, where its error is still
        graceful because the damped values there are many orders below scale.
    The c -> 0 limit is the z-derivative of f at b.  `a2mb` optionally carries
    an exactly known a^2 - b (see _damped_pair).
    """
    if a2mb is None:
        a2mb = np.square(np.asarray(a, dtype=float)) - np.asarray(b, dtype=float)
    b, c, t, a, a2mb = np.broadcast_arrays(
        np.asarray(b, dtype=float),
        np.asarray(c, dtype=float),
        np.asarray(t, dtype=float),
        np.asarray(a, dtype=float),
        np.asarray(a2mb, dtype=float),
    )
    out = np.empty(b.shape, dtype=float)

    absb = np.abs(b)
    w = t * np.sqrt(absb + c)
    v = c * t * t / (1.0 + w)
    m_two = v > _DD_V_REL * (1.0 + w)
    m_small = (~m_two) & ((absb + c) * t * t <= _DD_SMALL_BT2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(absb > 0, c * t / np.sqrt(np.where(absb > 0, absb, 1.0)), np.inf)
    m_rec = (~m_two) & (~m_small) & (ratio <= _DD_REC_RATIO)
    m_two = m_two | (~m_small & ~m_rec)

    sel = 0 if kind == "sinch" else 1
    if m_two.any():
        bb, cc, tt, aa = b[m_two], c[m_two], t[m_two], a[m_two]
        amb = a2mb[m_two]
        fp = _damped_pair(bb + cc, aa, tt, a2mz=amb - cc, half=sel)[sel]
        fm = _damped_pair(bb - cc, aa, tt, a2mz=amb + cc, half=sel)[sel]
        out[m_two] = (fp - fm) / (2.0 * cc)
    if m_small.any():
        bb, cc, tt, aa = b[m_small], c[m_small], t[m_small], a[m_small]
        damp = np.exp(-aa * tt)
        c2 = cc * cc
        if kind == "sinch":
            d1 = _series_deriv("sinch", 1, bb, tt)
            d3 = _series_deriv("sinch", 3, bb, tt)
            d5 = _series_deriv("sinch", 5, bb, tt)
            d7 = _series_deriv("sinch", 7, bb, tt)
        else:
            # coshc' = (t/2) * sinch, so odd coshc-derivatives are even
            # sinch-derivatives scaled by t/2
            d1 = 0.5 * tt * _series_deriv("sinch", 0, bb, tt)
            d3 = 0.5 * tt * _series_deriv("sinch", 2, bb, tt)
            d5 = 0.5 * tt * _series_deriv("sinch", 4, bb, tt)
            d7 = 0.5 * tt * _series_deriv("sinch", 6, bb, tt)
        out[m_small] = damp * (d1 + c2 * (d3 / 6.0 + c2 * (d5 / 120.0 + c2 * d7 / 5040.0)))
    if m_rec.any():
        bb, cc, tt, aa = b[m_rec], c[m_rec], t[m_rec], a[m_rec]
        g0, h0 = _damped_pair(bb, aa, tt, a2mz=a2mb[m_rec])
        t2h = 0.5 * tt * tt
        inv2b = 1.0 / (2.0 * bb)
        d = [g0, (tt * h0 - g0) * inv2b]
        for j in range(1, 7):
            d.append((t2h * d[j - 1] - (2 * j + 1) * d[j]) * inv2b)
        c2 = cc * cc
        if kind == "sinch":
            out[m_rec] = d[1] + c2 * (d[3] / 6.0 + c2 * (d[5] / 120.0 + c2 * d[7] / 5040.0))
        else:
            out[m_rec] = 0.5 * tt * (
                d[0] + c2 * (d[2] / 6.0 + c2 * (d[4] / 120.0 + c2 * d[6] / 5040.0))
            )
    return out


def _as_result(arr, scalar: bool):
    return float(arr) if scalar else arr


def _all_scalar(*xs) -> bool:
    return all(np.ndim(x) == 0 for x in xs)


def sinch(z, t):
    """Entire continuation of sinh(t*sqrt(z))/sqrt(z); sin-form for z < 0."""
    return _as_result(_damped_pair(z, 0.0, t, half=0)[0], _all_scalar(z, t))


def coshc(z, t):
    """Entire continuation of cosh(t*sqrt(z)); cos-form for z < 0."""
    return _as_result(_damped_pair(z, 0.0, t, half=1)[1], _all_scalar(z, t))


# The symbols a batch evaluation can return, besides the coordinates t, xi,
# eta and the mode radius A, which every evaluation carries.
KERNEL_FIELDS = ("K", "K1", "dtK", "ddtK", "comp", "comp_x", "dt_comp", "ddt_comp", "dtK1")
_COORDS = ("t", "xi", "eta", "A")

# Points per block when a large batch is evaluated block by block: a few MB of
# temporaries per block stay in cache and are reused instead of being freed
# and faulted in again for every intermediate of a multi-MB batch.
_CHUNK = 65536


class KernelValues:
    """Kernel symbols of one (t, xi, eta) batch; every entry is real.

    ``comp`` is the second-order combination (d_tt + A^2 d_t + A^2) applied to
    the kernel, ``comp_x`` replaces the zeroth-order A^2 by xi^2, and the
    ``dt_``/``ddt_`` prefixes are time derivatives of those combinations.
    ``A`` is the mode radius hypot(xi, eta).  Only the fields the evaluation
    was asked for are set; reading another one raises AttributeError.
    """

    __slots__ = _COORDS + KERNEL_FIELDS

    def __init__(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("KernelValues is read-only")


class _Batch:
    """The kernel symbols of one broadcast batch, each computed on first read
    from the intermediates it depends on."""

    def __init__(self, t, xi, eta):
        self.t, self.xi, self.eta = t, xi, eta
        self.A, self.b, self.c = _split_bc(xi, eta)
        self.a2 = self.A * self.A
        self.a = 0.5 * self.a2

    def values(self, fields) -> KernelValues:
        return KernelValues(t=self.t, xi=self.xi, eta=self.eta, A=self.A,
                            **{f: getattr(self, f) for f in fields})

    @cached_property
    def plus(self):
        """Damped (sinch, coshc) pair at z = b + c."""
        return _damped_pair(self.b + self.c, self.a, self.t, a2mz=self.a2 - self.c)

    @cached_property
    def minus(self):
        """Damped (sinch, coshc) pair at z = b - c."""
        return _damped_pair(self.b - self.c, self.a, self.t, a2mz=self.a2 + self.c)

    @cached_property
    def K(self):
        return _dd_damped("sinch", self.b, self.c, self.t, self.a, a2mb=self.a2)

    @cached_property
    def dd_cosh(self):
        return _dd_damped("coshc", self.b, self.c, self.t, self.a, a2mb=self.a2)

    @cached_property
    def comp(self):
        return 0.5 * (self.plus[0] + self.minus[0])

    @cached_property
    def K1(self):
        return 0.5 * (self.plus[1] + self.minus[1])

    @cached_property
    def dtK(self):
        return -self.a * self.K + self.dd_cosh

    @cached_property
    def dt_comp(self):
        return -self.a * self.comp + self.K1

    @cached_property
    def ddtK(self):
        return self.comp - self.a2 * self.dtK - self.a2 * self.K

    @cached_property
    def comp_x(self):
        return self.comp - self.eta * self.eta * self.K

    @cached_property
    def dtK1(self):
        (gp, _), (gm, _) = self.plus, self.minus
        return -self.a * self.K1 + 0.5 * ((self.b + self.c) * gp + (self.b - self.c) * gm)

    @cached_property
    def ddt_comp(self):
        return -self.a * self.dt_comp + self.dtK1


def _broadcast(t, xi, eta):
    return np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    )


def kernel_values(t, xi, eta, fields=KERNEL_FIELDS) -> KernelValues:
    """Evaluate the kernel symbols named in `fields` at (t, xi, eta).

    Inputs broadcast; the coordinates and A are always returned.  Only the
    requested symbols and the intermediates they depend on are computed, so
    the values are bitwise those of the all-field evaluation.  A batch larger
    than one block is evaluated block by block over its flattened points.
    """
    fields = tuple(f for f in fields if f not in _COORDS)
    unknown = [f for f in fields if f not in KERNEL_FIELDS]
    if unknown:
        raise ValueError(f"unknown kernel fields {unknown}; known: {KERNEL_FIELDS + _COORDS}")
    t_, xi_, eta_ = _broadcast(t, xi, eta)
    if t_.size <= _CHUNK:
        return _Batch(t_, xi_, eta_).values(fields)
    flat = [np.ravel(x) for x in (t_, xi_, eta_)]
    out = {f: np.empty(t_.size) for f in ("A",) + fields}
    for start in range(0, t_.size, _CHUNK):
        block = slice(start, start + _CHUNK)
        batch = _Batch(*(x[block] for x in flat))
        for f, arr in out.items():
            arr[block] = getattr(batch, f)
    return KernelValues(t=t_, xi=xi_, eta=eta_,
                        **{f: arr.reshape(t_.shape) for f, arr in out.items()})


def k_hat(t, xi, eta):
    """Kernel symbol inverting the fourth-order operator; finite everywhere.

    Equals exp(-A^2 t/2) times the sinch divided difference in c = A|eta|
    about b = A^4/4 - A^2; the singularities at eta = 0 and A = 0 are
    removable and resolved by the divided difference.
    """
    return _as_result(kernel_values(t, xi, eta, fields=("K",)).K, _all_scalar(t, xi, eta))


def k1_hat(t, xi, eta):
    """Mean of the four exponential branches; equals 1 at t = 0."""
    return _as_result(kernel_values(t, xi, eta, fields=("K1",)).K1, _all_scalar(t, xi, eta))


def noise_floors(t, xi, eta, rel: float = 1e-10) -> tuple[KernelValues, dict]:
    """Kernel values of a batch and their rounding floors, from one evaluation.

    Each kernel symbol is assembled from the damped exponential-branch values;
    where a combination cancels (e.g. the second time derivative at large A),
    the achievable absolute accuracy is `rel` times the magnitudes of the
    cancelling intermediates.  Scans subtract these floors from measured
    symbol magnitudes so that rounding noise deep below scale is not compared
    against legitimately tiny bounds.
    """
    batch = _Batch(*_broadcast(t, xi, eta))
    kv = batch.values(KERNEL_FIELDS)
    b, c, a2, a = batch.b, batch.c, batch.a2, batch.a
    (gp, hp), (gm, hm) = batch.plus, batch.minus
    eta2 = kv.eta * kv.eta
    # the coshc divided difference as recovered from the assembled symbols
    dd_cosh = kv.dtK + a * kv.K

    p_scale = 0.5 * (np.abs(gp) + np.abs(gm))
    h_scale = 0.5 * (np.abs(hp) + np.abs(hm))
    z_scale = 0.5 * (np.abs((b + c) * gp) + np.abs((b - c) * gm))
    f_K = rel * np.abs(kv.K)
    f_dtK = rel * (a * np.abs(kv.K) + np.abs(dd_cosh))
    f_comp = rel * p_scale
    f_K1 = rel * h_scale
    f_dt_comp = a * f_comp + f_K1
    f_ddtK = f_comp + a2 * f_dtK + a2 * f_K
    f_comp_x = f_comp + eta2 * f_K
    f_dtK1 = a * f_K1 + rel * z_scale
    f_ddt_comp = a * f_dt_comp + f_dtK1
    return kv, {
        "K": f_K, "dtK": f_dtK, "ddtK": f_ddtK, "comp": f_comp,
        "comp_x": f_comp_x, "dt_comp": f_dt_comp, "ddt_comp": f_ddt_comp,
        "K1": f_K1, "est8": f_dt_comp + eta2 * f_dtK,
    }


# Right-hand sides of the eight pointwise kernel estimates.  Indicator
# functions are literal: chi_{A>=1}, chi_{A<=1}, and chi_{|xi| <= A^2}; the
# min{...} alternatives are taken pointwise.  Entries may be +inf where a
# singular low-frequency factor blows up faster than the kernel itself; ratio
# checks treat lhs/inf as 0.

def _envelope_terms(t, xi, eta, c_decay):
    t_, xi_, eta_ = _broadcast(t, xi, eta)
    A = np.hypot(xi_, eta_)
    hi = (A >= 1.0).astype(float) * np.exp(-c_decay * t_)
    lo = (A <= 1.0).astype(float) * np.exp(-0.25 * A * A * t_)
    with np.errstate(divide="ignore", invalid="ignore"):
        aniso_exp = np.where(A > 0.0, np.exp(-0.5 * xi_ * xi_ / np.where(A > 0, A * A, 1.0) * t_), 0.0)
    aniso = (np.abs(xi_) <= A * A).astype(float) * aniso_exp
    return t_, xi_, eta_, A, hi, lo, aniso


def bound_envelope(which: int, t, xi, eta, c_decay: float = DEFAULT_C_DECAY):
    """Right-hand side of pointwise kernel estimate number `which` (1..8)."""
    if c_decay <= 0:
        raise ValueError("c_decay must be positive")
    if which not in range(1, 9):
        raise ValueError(f"unknown estimate id {which}; expected 1..8")
    t_, xi_, eta_, A, hi, lo, aniso = _envelope_terms(t, xi, eta, c_decay)
    trans = (A >= 1.0).astype(float) * np.exp(-0.5 * t_)
    scalar = _all_scalar(t, xi, eta)

    with np.errstate(divide="ignore", invalid="ignore"):
        iA = np.where(A > 0, 1.0 / np.where(A > 0, A, 1.0), np.inf)
        iA2, iA4 = iA * iA, (iA * iA) ** 2
        iA6, iA8 = iA4 * iA2, iA4 * iA4
        axixeta = A * np.abs(xi_) * np.abs(eta_)
        i_axixeta = np.where(axixeta > 0, 1.0 / np.where(axixeta > 0, axixeta, 1.0), np.inf)
        i_eta = np.where(eta_ != 0, 1.0 / np.where(eta_ != 0, np.abs(eta_), 1.0), np.inf)
        i_xi = np.where(xi_ != 0, 1.0 / np.where(xi_ != 0, np.abs(xi_), 1.0), np.inf)
        xi2, xi4 = xi_ * xi_, (xi_ * xi_) ** 2

        # 0 * inf arises where an indicator vanished against a singular
        # coefficient; that term is absent, so its nan collapses to 0
        def z(term):
            return np.where(np.isnan(term), 0.0, term)

        if which == 1:
            out = z(hi * iA4) + z(lo * np.minimum(i_axixeta, iA4)) + z(aniso * iA4)
        elif which == 2:
            out = z(hi * iA4) + z(lo * np.minimum(iA2 * iA, iA * i_eta)) + z(aniso * xi2 * iA6)
        elif which == 3:
            out = z(hi * iA4) + z(lo * np.minimum(iA2, i_eta)) + z(aniso * xi4 * iA8)
        elif which == 4:
            out = z(hi * iA2) + z(lo * np.minimum(i_xi, iA2)) + z(aniso * iA2)
        elif which == 5:
            # the time-derivative combinations below do not vanish at t = 0
            # (this one equals 1 there for every mode), so the high-frequency
            # branch keeps the O(1) short-time transient exp(-t/2), which the
            # damped branches beat; without it no finite prefactor exists.
            out = z(hi * iA2) + trans + lo + z(aniso * xi2 * iA4)
        elif which == 6:
            out = z(hi * iA2) + trans * A * A + lo * A + z(aniso * xi4 * iA6)
        elif which == 7:
            out = z(hi * iA2) + z(lo * iA) + z(aniso * xi2 * iA4)
        else:
            out = z(hi * iA2) + trans + lo + z(aniso * xi4 * iA6)
    return _as_result(out, scalar)
