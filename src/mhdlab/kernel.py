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


# Points per block when a large batch is evaluated block by block: the
# block's work arrays (about 4 MB in all) stay resident and mostly in cache.
_CHUNK = 16384


class _Workspace:
    """Work arrays for evaluating blocks of at most `size` points.

    Calling it with a name returns the first n entries of that name's array,
    allocated on first use and handed out again to every later block, so the
    temporaries of a block stay resident instead of being released and
    faulted in again block after block.  A name bound in `out` (the current
    block's view of a result array) is returned as it is, so that result is
    computed in place where it is kept.  The evaluation that owns a workspace
    passes it down; nothing is kept at module level.
    """

    def __init__(self, size: int):
        self.size = size
        self.out: dict[str, np.ndarray] = {}
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, n: int, dtype=float) -> np.ndarray:
        if name in self.out:
            return self.out[name]
        arr = self._arrays.get(name)
        if arr is None:
            arr = self._arrays[name] = np.empty(self.size, dtype=dtype)
        return arr[:n]


def _take(x, idx, out):
    """x at the positions idx, into `out`; a 0-d x is returned as it is.

    The indices are in range; mode "clip" only spares the copy that mode
    "raise" makes of `out`.
    """
    return x if np.ndim(x) == 0 else x.take(idx, out=out, mode="clip")


def _gather(x, idx):
    """x at the positions idx as a new array, for the rarely taken branches."""
    return np.full(idx.size, x) if np.ndim(x) == 0 else x[idx]


def _nested(xs, divisors, q, r):
    """1 + xs/d0*(1 + xs/d1*(... (1 + xs/dk))) into q, with r as scratch."""
    np.divide(xs, divisors[-1], out=q)
    q += 1.0
    for d in divisors[-2::-1]:
        q *= np.divide(xs, d, out=r)
        q += 1.0
    return q


def _split_bc(xi, eta, ws=None):
    """A = |(xi, eta)|, b = A^4/4 - A^2 and c = A|eta|, elementwise.

    Given a workspace, xi and eta are one flat block, and A, A^2, b and c are
    written to its arrays "A", "a2", "b" and "c".
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)

    def out(name):
        return None if ws is None else ws(name, xi.size)
    A = np.hypot(xi, eta, out=out("A"))
    a2 = np.multiply(A, A, out=out("a2"))
    b = np.multiply(a2, 0.25, out=out("b"))
    b *= a2
    b -= a2
    c = np.multiply(A, np.abs(eta, out=out("c")), out=out("c"))
    return A, b, c


def _damped_pair(g, h, z, a, t, damp, a2mz, ws):
    """Write exp(-a t) * sinch(z, t) into g and exp(-a t) * coshc(z, t) into h.

    z, a, damp = exp(-a t) and a2mz = a^2 - z are flat arrays of one length,
    and t is one too or 0-d.  g or h may be None, and then that half is not
    computed.  The points are split once into index arrays of the series,
    oscillatory and positive branches.

    The product form matters: for z > 0 both factors can over/underflow even
    though the product is tame, so the positive branch is assembled from the
    exponentials exp((sqrt(z) - a) t) and exp(-(sqrt(z) + a) t) directly.
    The caller knows a^2 - z exactly, so the critical exponent is computed as
    sqrt(z) - a = (z - a^2)/(sqrt(z) + a), avoiding the cancellation of two
    nearly equal large numbers.
    """
    m = z.size
    x = np.multiply(z, t, out=ws("pair.x", m))
    x *= t
    series = np.less_equal(np.abs(x, out=ws("pair.s", m)), _SERIES_Z,
                           out=ws("pair.series", m, bool))
    pos = np.logical_not(series, out=ws("pair.pos", m, bool))
    osc = np.less(z, 0.0, out=ws("pair.osc", m, bool))
    osc &= pos
    pos ^= osc  # neither series nor z < 0

    idx = series.nonzero()[0]
    if idx.size:
        k = idx.size
        xs = _take(x, idx, ws("pair.xs", k))
        ds = _take(damp, idx, ws("pair.ds", k))
        q, r = ws("pair.q", k), ws("pair.r", k)
        # truncation error below 3e-18 relative for |x| <= 1e-2
        if g is not None:
            p = _nested(xs, (6.0, 20.0, 42.0, 72.0), q, r)
            np.multiply(ds, _take(t, idx, ws("pair.ts", k)), out=r)
            g[idx] = np.multiply(r, p, out=r)
        if h is not None:
            h[idx] = np.multiply(ds, _nested(xs, (2.0, 12.0, 30.0, 56.0), q, r), out=q)
    idx = osc.nonzero()[0]
    if idx.size:
        k = idx.size
        s = _take(z, idx, ws("pair.s", k))
        np.sqrt(np.negative(s, out=s), out=s)
        w = np.multiply(s, _take(t, idx, ws("pair.ts", k)), out=ws("pair.w", k))
        ds = _take(damp, idx, ws("pair.ds", k))
        if g is not None:
            v = np.multiply(ds, np.sin(w, out=ws("pair.v", k)), out=ws("pair.v", k))
            g[idx] = np.divide(v, s, out=v)
        if h is not None:
            h[idx] = np.multiply(ds, np.cos(w, out=w), out=w)
    idx = pos.nonzero()[0]
    if idx.size:
        k = idx.size
        s = np.sqrt(_take(z, idx, ws("pair.s", k)), out=ws("pair.s", k))
        ts = _take(t, idx, ws("pair.ts", k))
        sa = _take(a, idx, ws("pair.sa", k))
        up = _take(a2mz, idx, ws("pair.up", k))
        sa += s
        np.negative(np.divide(up, sa, out=up), out=up)
        up *= ts
        em = np.negative(sa, out=sa)
        em *= ts
        with np.errstate(over="ignore"):
            ep = np.exp(up, out=up)
            np.exp(em, out=em)
        if g is not None:
            v = np.subtract(ep, em, out=ws("pair.v", k))
            g[idx] = np.divide(v, np.multiply(s, 2.0, out=s), out=v)
        if h is not None:
            h[idx] = np.multiply(np.add(ep, em, out=ep), 0.5, out=ep)


def _sinch_series(orders, b, t):
    """The z-derivatives of sinch at z = b of the given orders, one row each,
    by the entire power series: a_m = t^(2m+1)/(2m+1)!, and row j sums the
    first 48 terms a_{k+j} (k+j)!/k! b^k, or stops once no later term can
    change a bit of any row's sum.

    Valid (fast, cancellation-safe) when t^2 |b| is moderate; callers gate
    on _DD_SMALL_BT2.  b and t are flat arrays of one length.
    """
    t2 = t * t
    term = np.empty((len(orders), b.size))
    for row, j in zip(term, orders):
        first = t ** (2 * j + 1)  # the k = 0 term, a_j j!
        for i in range(1, 2 * j + 2):
            first = first / i
        for i in range(1, j + 1):
            first = first * i
        row[:] = first
    # term k+1 over term k, over t^2 b: m / ((k+1) 2m (2m+1)) with m = k+j+1,
    # one correctly rounded quotient of exact integers per row and k
    k = np.arange(48.0)
    m = k + np.array(orders, dtype=float)[:, None] + 1.0
    ratios = m / ((k + 1.0) * (2.0 * m) * (2.0 * m + 1.0))
    total = np.zeros_like(term)
    for k, ratio in enumerate(ratios.T):
        # from term 4 on each term is at most half the one before (t^2 |b| <=
        # 36), so once every term is under an eighth of an ulp of its total,
        # no later term changes a bit of it; row by row, the temporaries stay
        # small
        if k and k % 4 == 0 and all(np.all(np.abs(tr) <= np.abs(to) * 2.0**-56)
                                    for tr, to in zip(term, total)):
            break
        total += term
        term *= t2
        term *= b
        term *= ratio[:, None]
    return total


def _c_taylor(c2, d1, d3, d5, d7):
    """(f(b+c) - f(b-c)) / (2c) to order c^6 from the odd z-derivatives
    d1, d3, d5, d7 of f at b, with c2 = c^2."""
    return d1 + c2 * (d3 / 6.0 + c2 * (d5 / 120.0 + c2 * d7 / 5040.0))


# The damped pairs at z = b + c ("gp", "hp": the sinch and coshc halves) and
# z = b - c ("gm", "hm"), and what each kernel symbol, or the coshc divided
# difference "dd_cosh", is assembled from.  K is the sinch divided difference.
_SIDES = ("gp", "hp", "gm", "hm")
_READS = {
    "K": ("gp", "gm"), "dd_cosh": ("hp", "hm"),
    "comp": ("gp", "gm"), "K1": ("hp", "hm"),
    "dtK": ("K", "dd_cosh"), "dt_comp": ("comp", "K1"),
    "ddtK": ("comp", "dtK", "K"), "comp_x": ("comp", "K"),
    "dtK1": ("K1", "gp", "gm"), "ddt_comp": ("dt_comp", "dtK1"),
}


def _closure(names) -> set:
    """The names together with everything they are assembled from."""
    need, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in need:
            need.add(name)
            todo.extend(_READS.get(name, ()))
    return need


def _damped(need, b, c, t, a, a2mb, ws):
    """The damped values of one flat block that `need` names, into `ws`.

    exp(-a t) is computed once.  The pairs at z = b +- c cover every point,
    with only the halves something reads; the divided differences
    exp(-a t) * (f(b+c,t) - f(b-c,t)) / (2c) for f = sinch ("K") and
    f = coshc ("dd_cosh") share one branch split and read the two-point
    values from those pairs.  `a2mb` is the exactly known a^2 - b (see
    _damped_pair).
    """
    n = b.size
    damp = np.negative(a, out=ws("damp", n))
    damp *= t
    np.exp(damp, out=damp)
    g, h = "gp" in need, "hp" in need
    zp = np.add(b, c, out=ws("zp", n))
    _damped_pair(ws("gp", n) if g else None, ws("hp", n) if h else None,
                 zp, a, t, damp, np.subtract(a2mb, c, out=ws("a2mz", n)), ws)
    zm = np.subtract(b, c, out=ws("zm", n))
    _damped_pair(ws("gm", n) if g else None, ws("hm", n) if h else None,
                 zm, a, t, damp, np.add(a2mb, c, out=ws("a2mz", n)), ws)
    if "K" in need or "dd_cosh" in need:
        _divided_differences(need, b, c, t, a, damp, a2mb, ws)


def _divided_differences(need, b, c, t, a, damp, a2mb, ws):
    """The damped divided differences "K" (sinch) and "dd_cosh" (coshc).

    Three regimes, selected elementwise:
      * two-point difference when the variation of f across [b-c, b+c] is
        large enough to dominate rounding of f itself;
      * series-in-z Taylor coefficients about b when t^2(|b|+c) is small;
      * a derivative recurrence seeded by the transcendental branch when the
        c-expansion converges (c*t/sqrt(|b|) small);
      * two-point as fallback in the marginal zone, where its error is still
        graceful because the damped values there are many orders below scale.
    The c -> 0 limit is the z-derivative of f at b.
    """
    n = b.size
    absb = np.abs(b, out=ws("dd.absb", n))
    bt2 = np.add(absb, c, out=ws("dd.bt2", n))
    w1 = np.sqrt(bt2, out=ws("dd.w1", n))
    w1 *= t
    w1 += 1.0  # 1 + w, w = t * sqrt(|b| + c)
    v = np.multiply(c, t, out=ws("dd.v", n))
    v *= t
    v /= w1
    two = np.greater(v, np.multiply(w1, _DD_V_REL, out=w1), out=ws("dd.two", n, bool))
    bt2 *= t
    bt2 *= t
    small = np.less_equal(bt2, _DD_SMALL_BT2, out=ws("dd.small", n, bool))
    rest = np.logical_not(two, out=ws("dd.rest", n, bool))
    small &= rest
    rest ^= small
    # the rest takes the recurrence where it converges, else the two-point
    # fallback; the ratio is computed for the rest only
    idx = rest.nonzero()[0]
    rec = idx
    if idx.size:
        bb, cc, tt = absb[idx], c[idx], _gather(t, idx)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bb > 0, cc * tt / np.sqrt(np.where(bb > 0, bb, 1.0)), np.inf)
        converges = ratio <= _DD_REC_RATIO
        rec = idx[converges]
        two[idx[~converges]] = True

    idx = two.nonzero()[0]
    if idx.size:
        k = idx.size
        c2 = np.multiply(_take(c, idx, ws("dd.c2", k)), 2.0, out=ws("dd.c2", k))
        for name, fp, fm in (("K", "gp", "gm"), ("dd_cosh", "hp", "hm")):
            if name in need:
                d = _take(ws(fp, n), idx, ws("dd.d", k))
                d -= _take(ws(fm, n), idx, ws("dd.fm", k))
                ws(name, n)[idx] = np.divide(d, c2, out=d)
    idx = small.nonzero()[0]
    if idx.size:
        bb, cc, tt, dd = b[idx], c[idx], _gather(t, idx), damp[idx]
        c2 = cc * cc
        # K reads the odd sinch derivatives; coshc' = (t/2) * sinch, so the
        # odd coshc-derivatives of dd_cosh are the even sinch ones scaled by t/2
        orders = [j for j in range(8) if ("K" if j % 2 else "dd_cosh") in need]
        d = dict(zip(orders, _sinch_series(orders, bb, tt)))
        if "K" in need:
            ws("K", n)[idx] = dd * _c_taylor(c2, d[1], d[3], d[5], d[7])
        if "dd_cosh" in need:
            ws("dd_cosh", n)[idx] = dd * _c_taylor(c2, *(0.5 * tt * d[j] for j in (0, 2, 4, 6)))
    if rec.size:
        bb, cc, tt = b[rec], c[rec], _gather(t, rec)
        g0, h0 = np.empty(rec.size), np.empty(rec.size)
        _damped_pair(g0, h0, bb, a[rec], tt, damp[rec], a2mb[rec], ws)
        t2h = 0.5 * tt * tt
        inv2b = 1.0 / (2.0 * bb)
        d = [g0, (tt * h0 - g0) * inv2b]
        for j in range(1, 7):
            d.append((t2h * d[j - 1] - (2 * j + 1) * d[j]) * inv2b)
        c2 = cc * cc
        if "K" in need:
            ws("K", n)[rec] = _c_taylor(c2, *d[1::2])
        if "dd_cosh" in need:
            ws("dd_cosh", n)[rec] = 0.5 * tt * _c_taylor(c2, *d[0::2])


def _dd_damped(kind: str, b, c, t, a, a2mb=None):
    """exp(-a t) * (f(b+c,t) - f(b-c,t)) / (2c) for f = sinch or coshc.

    Inputs broadcast; `a2mb` optionally carries an exactly known a^2 - b.
    """
    if a2mb is None:
        a2mb = np.square(np.asarray(a, dtype=float)) - np.asarray(b, dtype=float)
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (b, c, t, a, a2mb)))
    name = "K" if kind == "sinch" else "dd_cosh"
    ws = _Workspace(arrays[0].size)
    ws.out = {name: np.empty(ws.size)}
    _damped(_closure((name,)), *(np.ravel(x) for x in arrays), ws)
    return ws.out[name].reshape(arrays[0].shape)


def _as_result(arr, scalar: bool):
    return float(arr) if scalar else arr


def _all_scalar(*xs) -> bool:
    return all(np.ndim(x) == 0 for x in xs)


def _undamped(z, t, half: int):
    """sinch(z, t) for half 0, coshc(z, t) for half 1: the entire continuations
    of sinh(t*sqrt(z))/sqrt(z) and cosh(t*sqrt(z)), sin- and cos-form for z < 0."""
    z, t = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(t, dtype=float))
    zf, tf = np.ravel(z), np.ravel(t)
    a = np.zeros(zf.size)
    out = np.empty(zf.size)
    _damped_pair(out if half == 0 else None, out if half == 1 else None,
                 zf, a, tf, np.exp(-a * tf), np.negative(zf), _Workspace(zf.size))
    return _as_result(out.reshape(z.shape), z.ndim == 0)


# The symbols a batch evaluation can return, besides the coordinates t, xi,
# eta and the mode radius A, which every evaluation carries.
KERNEL_FIELDS = ("K", "K1", "dtK", "ddtK", "comp", "comp_x", "dt_comp", "ddt_comp", "dtK1")
_COORDS = ("t", "xi", "eta", "A")


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


def _block(t, xi, eta, need, ws):
    """Evaluate one flat block into the arrays of `ws` that `need` names."""
    n = xi.size
    A, b, c = _split_bc(xi, eta, ws)
    a2 = ws("a2", n)
    a = np.multiply(a2, 0.5, out=ws("a", n))
    if need.isdisjoint(_SIDES):
        return
    _damped(need, b, c, t, a, a2, ws)

    def v(name):
        return ws(name, n)
    if "comp" in need:
        np.multiply(np.add(v("gp"), v("gm"), out=v("comp")), 0.5, out=v("comp"))
    if "K1" in need:
        np.multiply(np.add(v("hp"), v("hm"), out=v("K1")), 0.5, out=v("K1"))
    if "dtK" in need:
        np.add(np.multiply(np.negative(a, out=v("dtK")), v("K"), out=v("dtK")),
               v("dd_cosh"), out=v("dtK"))
    if "dt_comp" in need:
        np.add(np.multiply(np.negative(a, out=v("dt_comp")), v("comp"), out=v("dt_comp")),
               v("K1"), out=v("dt_comp"))
    if "ddtK" in need:
        np.subtract(v("comp"), np.multiply(a2, v("dtK"), out=v("ddtK")), out=v("ddtK"))
        np.subtract(v("ddtK"), np.multiply(a2, v("K"), out=v("tmp")), out=v("ddtK"))
    if "comp_x" in need:
        cx = np.multiply(np.multiply(eta, eta, out=v("comp_x")), v("K"), out=v("comp_x"))
        np.subtract(v("comp"), cx, out=cx)
    if "dtK1" in need:
        # (b + c) gp + (b - c) gm, halved
        zg = np.multiply(v("zp"), v("gp"), out=v("tmp"))
        zg += np.multiply(v("zm"), v("gm"), out=v("dtK1"))
        zg *= 0.5
        np.add(np.multiply(np.negative(a, out=v("dtK1")), v("K1"), out=v("dtK1")), zg,
               out=v("dtK1"))
    if "ddt_comp" in need:
        np.add(np.multiply(np.negative(a, out=v("ddt_comp")), v("dt_comp"), out=v("ddt_comp")),
               v("dtK1"), out=v("ddt_comp"))


def _broadcast(t, xi, eta):
    return np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    )


def _evaluate(t, xi, eta, names, ws=None) -> dict:
    """The arrays `names` of the batch (t, xi, eta), block by block.

    xi and eta are broadcast to the batch's shape; t either is too or is 0-d,
    and then stays a scalar.  `names` are kernel fields or intermediates of
    _block ("A", "b", "c", "a2", "a" = A^2/2 and the pairs of _SIDES).  The
    blocks have `ws.size` points; without a workspace one of at most _CHUNK
    points is made for this call.
    """
    t = np.asarray(t, dtype=float)
    shape, size = xi.shape, xi.size
    if t.ndim:
        t = np.ravel(np.broadcast_to(t, shape))
    xi, eta = np.ravel(xi), np.ravel(eta)
    out = {name: np.empty(size) for name in names}
    if ws is None:
        ws = _Workspace(min(size, _CHUNK))
    need = _closure(names)
    for start in range(0, size, max(ws.size, 1)):
        block = slice(start, start + ws.size)
        ws.out = {name: arr[block] for name, arr in out.items()}
        _block(t[block] if t.ndim else t, xi[block], eta[block], need, ws)
    ws.out = {}
    return {name: arr.reshape(shape) for name, arr in out.items()}


def kernel_values(t, xi, eta, fields=KERNEL_FIELDS) -> KernelValues:
    """Evaluate the kernel symbols named in `fields` at (t, xi, eta).

    Inputs broadcast; the coordinates and A are always returned.  Only the
    requested symbols and the intermediates they depend on are computed, so
    the values are bitwise those of the all-field evaluation.  The batch is
    evaluated block by block over its flattened points, every block in one
    workspace that this call owns; a 0-d t stays a scalar.
    """
    fields = tuple(f for f in fields if f not in _COORDS)
    unknown = [f for f in fields if f not in KERNEL_FIELDS]
    if unknown:
        raise ValueError(f"unknown kernel fields {unknown}; known: {KERNEL_FIELDS + _COORDS}")
    t_, xi_, eta_ = _broadcast(t, xi, eta)
    return KernelValues(t=t_, xi=xi_, eta=eta_, **_evaluate(t, xi_, eta_, ("A",) + fields))


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


# relative accuracy of a kernel symbol's cancelling intermediates
_FLOOR_REL = 1e-10


def noise_floors(t, xi, eta) -> tuple[KernelValues, dict]:
    """Kernel values of a batch and their rounding floors, from one evaluation.

    Each kernel symbol is assembled from the damped exponential-branch values;
    where a combination cancels (e.g. the second time derivative at large A),
    the achievable absolute accuracy is `_FLOOR_REL` times the magnitudes of the
    cancelling intermediates.  Scans subtract these floors from measured
    symbol magnitudes so that rounding noise deep below scale is not compared
    against legitimately tiny bounds.
    """
    t_, xi_, eta_ = _broadcast(t, xi, eta)
    v = _evaluate(t, xi_, eta_, ("A", "b", "c", "a2", "a") + KERNEL_FIELDS + _SIDES)
    kv = KernelValues(t=t_, xi=xi_, eta=eta_, **{f: v[f] for f in ("A",) + KERNEL_FIELDS})
    b, c, a2, a = v["b"], v["c"], v["a2"], v["a"]
    gp, hp, gm, hm = (v[f] for f in _SIDES)
    eta2 = kv.eta * kv.eta
    # the coshc divided difference as recovered from the assembled symbols
    dd_cosh = kv.dtK + a * kv.K

    p_scale = 0.5 * (np.abs(gp) + np.abs(gm))
    h_scale = 0.5 * (np.abs(hp) + np.abs(hm))
    z_scale = 0.5 * (np.abs((b + c) * gp) + np.abs((b - c) * gm))
    f_K = _FLOOR_REL * np.abs(kv.K)
    f_dtK = _FLOOR_REL * (a * np.abs(kv.K) + np.abs(dd_cosh))
    f_comp = _FLOOR_REL * p_scale
    f_K1 = _FLOOR_REL * h_scale
    f_dt_comp = a * f_comp + f_K1
    f_ddtK = f_comp + a2 * f_dtK + a2 * f_K
    f_comp_x = f_comp + eta2 * f_K
    f_dtK1 = a * f_K1 + _FLOOR_REL * z_scale
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
    if not 0.0 < c_decay < np.inf:
        raise ValueError(f"c_decay must be positive and finite, got {c_decay!r}")
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
