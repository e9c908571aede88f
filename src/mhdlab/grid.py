"""Periodic Fourier discretization: grids, fields, multipliers, norms.

Fields are real and stored on the half spectrum (nx, ny//2 + 1) of `rfft2`, in
the continuum convention: the forward transform carries the cell-area factor
dx*dy, so a coefficient approximates the integral Fourier transform and symbol
formulas apply verbatim.  Parseval reads  ||f||_L2^2 = sum m_l |fhat_kl|^2 / (Lx*Ly),
with column multiplicity m = 1, 2, ..., 2, 1.

Physical arrays are indexed [i, j] <-> (x_i, y_j); serialized files are
written x-fastest (see `save_field`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "FourierGrid",
    "SpectralField",
    "PerturbationState",
    "COMPONENTS",
    "XNormBreakdown",
    "X_ENTRY_WEIGHTS",
    "make_grid",
    "apply_multiplier",
    "to_physical",
    "to_spectral",
    "bessel_weight",
    "homog_weight",
    "sobolev_norm",
    "energy_components",
    "hm_energy",
    "x_norm_snapshot",
    "x_param_problems",
    "dimension_problems",
    "bump_chi",
    "save_field",
    "load_field",
]

# width of the smooth cutoff's transition band: chi = 1 on |x| <= 1 and
# chi = 0 on |x| >= 1 + _BUMP_DELTA
_BUMP_DELTA = 1e-4

# The perturbation's unknowns, in the order of the rows of a state's array.
COMPONENTS = ("n", "u", "v", "psi")


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class FourierGrid:
    """Half wavenumber lattice of an nx-by-ny periodic box of side Lx-by-Ly.

    `xi`/`eta` are the true wavenumbers 2*pi*k/L in `fftfreq`/`rfftfreq` layout;
    `xi_d`/`eta_d` zero the (unpaired) Nyquist entry, and the derivative
    symbols `ikx`/`iky` are built from them, which keeps real fields real.
    `multiplicity` counts the full-spectrum modes each column stands for.
    Two grids are equal when their dimensions are: the arrays follow from them.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    xi: np.ndarray = field(repr=False, compare=False)
    eta: np.ndarray = field(repr=False, compare=False)
    xi_d: np.ndarray = field(repr=False, compare=False)
    eta_d: np.ndarray = field(repr=False, compare=False)
    multiplicity: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.Lx / self.nx

    @property
    def dy(self) -> float:
        return self.Ly / self.ny

    @property
    def area(self) -> float:
        return self.Lx * self.Ly

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of every spectral array: the half spectrum."""
        return self.nx, self.ny // 2 + 1

    def coeff_norm(self, coeffs: np.ndarray) -> float:
        """Euclidean norm of the full spectrum whose half is `coeffs`.

        One pass over the float view sums the squares per column (real and
        imaginary parts interleaved); the columns are then weighted by their
        multiplicity.
        """
        f = np.ascontiguousarray(coeffs, dtype=complex).view(np.float64)
        f = f.reshape(-1, f.shape[-1])
        col = np.einsum("ij,ij->j", f, f)
        return math.sqrt(float(np.dot(col[0::2] + col[1::2], self.multiplicity)))

    @property
    def XI(self) -> np.ndarray:
        return self.xi[:, None]

    @property
    def ETA(self) -> np.ndarray:
        return self.eta[None, :]

    @cached_property
    def A(self) -> np.ndarray:
        """Mode radius |(xi, eta)| on the half lattice, computed once, read-only."""
        return _read_only(np.hypot(self.XI, self.ETA))

    @cached_property
    def ikx(self) -> np.ndarray:
        """Symbol i*xi of d/dx, shape (nx, 1), Nyquist row zeroed; read-only."""
        return _read_only(1j * self.xi_d[:, None])

    @cached_property
    def iky(self) -> np.ndarray:
        """Symbol i*eta of d/dy, shape (1, ny//2 + 1), Nyquist column zeroed; read-only."""
        return _read_only(1j * self.eta_d[None, :])

    @property
    def nyquist(self) -> float:
        """Smaller of the two Nyquist wavenumbers."""
        return min(np.pi * self.nx / self.Lx, np.pi * self.ny / self.Ly)

    def dealias_axes(self, fraction: float = 2.0 / 3.0) -> tuple[np.ndarray, np.ndarray]:
        """The rows and the columns of the half lattice in the dealias band.

        Along an axis of N points the band keeps the indices |k| < fraction*N/2
        (every index at fraction 1).  So the 2/3 band keeps |k| < N/3 strictly,
        also when 3 divides N, and a quadratic product of kept modes, whose
        indices reach below 2N/3, aliases only onto indices |k| > N/3.
        """
        def kept(n, k):
            return (np.minimum(k, n - k) < fraction * n / 2) | (fraction >= 1.0)
        return kept(self.nx, np.arange(self.nx)), kept(self.ny, np.arange(self.shape[1]))

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        rows, cols = self.dealias_axes(fraction)
        return rows[:, None] & cols[None, :]

    def dealias_columns(self, fraction: float = 2.0 / 3.0) -> int:
        """Number of leading columns that hold the dealias band: |k| grows
        along the half spectrum, so every later column is outside it."""
        return int(np.count_nonzero(self.dealias_axes(fraction)[1]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def dimension_problems(nx: int, ny: int, Lx: float, Ly: float) -> list[str]:
    """Every violated constraint on the grid dimensions, by name: nx and ny
    even and >= 4, box lengths positive."""
    problems = [f"{name}: {n} must be an even integer >= 4"
                for name, n in (("nx", nx), ("ny", ny)) if n < 4 or n % 2]
    return problems + [f"{name}: {val} must be positive"
                       for name, val in (("Lx", Lx), ("Ly", Ly)) if val <= 0]


def make_grid(nx: int, ny: int, Lx: float, Ly: float) -> FourierGrid:
    """Build the wavenumber lattice; see dimension_problems."""
    if problems := dimension_problems(nx, ny, Lx, Ly):
        raise GridError("invalid-dimension: " + "; ".join(problems))
    xi = 2.0 * np.pi * np.fft.fftfreq(nx, d=Lx / nx)
    eta = 2.0 * np.pi * np.fft.rfftfreq(ny, d=Ly / ny)
    xi_d, eta_d = xi.copy(), eta.copy()
    xi_d[nx // 2] = 0.0
    eta_d[-1] = 0.0
    multiplicity = np.r_[1.0, np.full(ny // 2 - 1, 2.0), 1.0]  # columns 0 and ny/2 self-conjugate
    xi, eta, xi_d, eta_d, multiplicity = map(_read_only, (xi, eta, xi_d, eta_d, multiplicity))
    return FourierGrid(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), xi=xi, eta=eta,
                       xi_d=xi_d, eta_d=eta_d, multiplicity=multiplicity)


# The transform policy.  One transform per array: a batch of arrays is larger
# than the core's cache, one (nx, ny) array is not, and every 1-D transform
# sees the same numbers either way, so the values are those of the batched
# irfft2 / rfft2 bit for bit.  The pass along x runs only on the columns held
# (inverse) or kept (forward); the other columns are zero.  The transforms are
# looked up as attributes of np.fft at every call.

def to_physical(grid: FourierGrid, spectra, out=None, scratch=None) -> np.ndarray:
    """Physical values of each half-spectrum array in `spectra`, stacked, into
    `out` (len(spectra), nx, ny) when given.

    An array of shape (nx, nc) holds the first nc <= ny//2 + 1 columns and
    the later columns are zero: the ifft along x runs on those nc columns and
    irfft along y pads the rest, the two passes of numpy's irfftn.  The x
    pass writes into `scratch` when given, a complex array of the spectra's
    shape.
    """
    if out is None:
        out = np.empty((len(spectra), grid.nx, grid.ny))
    for c, o in zip(spectra, out):
        np.fft.irfft(np.fft.ifft(c, axis=0, out=scratch), n=grid.ny, axis=1, out=o)
        o /= grid.dx * grid.dy
    return out


def to_spectral(grid: FourierGrid, values, ncols: int | None = None, out=None,
                scratch=None) -> np.ndarray:
    """Half-spectrum coefficients of each physical array in `values`, stacked,
    on the first `ncols` columns (all of them by default): rfft along y, then
    the fft along x on the kept columns only, the two passes of numpy's rfftn.
    The result goes into `out` (len(values), nx, ncols) when given and the y
    pass into `scratch`, a complex (nx, ny//2 + 1) array, when given.
    """
    nc = grid.shape[1] if ncols is None else ncols
    if out is None:
        out = np.empty((len(values), grid.nx, nc), dtype=complex)
    for f, o in zip(values, out):
        np.fft.fft(np.fft.rfft(f, axis=1, out=scratch)[:, :nc], axis=0, out=o)
        o *= grid.dx * grid.dy
    return out


@dataclass(frozen=True)
class SpectralField:
    """One real scalar unknown stored as its half-spectrum Fourier coefficients."""

    grid: FourierGrid
    coeffs: np.ndarray

    @classmethod
    def from_physical(cls, grid: FourierGrid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.nx, grid.ny):
            raise GridError(f"field shape {values.shape} != grid ({grid.nx}, {grid.ny})")
        return cls(grid, to_spectral(grid, [values])[0])

    @classmethod
    def zeros(cls, grid: FourierGrid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    def to_physical(self) -> np.ndarray:
        return to_physical(self.grid, [self.coeffs])[0]


def apply_multiplier(f: SpectralField, m) -> SpectralField:
    """Scale coefficients modewise by the symbol m(xi, eta).

    `m` is a callable receiving broadcastable wavenumber arrays (or a
    precomputed array).  The output is a real field whenever the symbol
    satisfies m(-xi,-eta) = conj(m(xi,eta)).
    """
    g = f.grid
    values = np.broadcast_to(m(g.XI, g.ETA) if callable(m) else m, g.shape)
    populated = np.abs(f.coeffs) > 0
    if not np.all(np.isfinite(values[populated])):
        raise GridError("non-finite multiplier value at a populated mode")
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.where(populated, values * f.coeffs, 0.0)
    return SpectralField(g, np.ascontiguousarray(out))


def deriv_x(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.ikx)


def deriv_y(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.iky)


def _smooth_step(r: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for r <= 0, 1 for r >= 1 (exp-based profile)."""
    r = np.clip(r, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ga = np.where(r > 0, np.exp(-1.0 / np.where(r > 0, r, 1.0)), 0.0)
        gb = np.where(r < 1, np.exp(-1.0 / np.where(r < 1, 1.0 - r, 1.0)), 0.0)
    return ga / (ga + gb)


def bump_chi(x: np.ndarray) -> np.ndarray:
    """Smooth radial bump: 1 on |x| <= 1, 0 on |x| >= 1 + 1e-4."""
    ax = np.abs(np.asarray(x, dtype=float))
    return _smooth_step((1.0 + _BUMP_DELTA - ax) / _BUMP_DELTA)


def bessel_weight(grid: FourierGrid, s: float) -> np.ndarray:
    """<grad>^s = (1 + |k|^2)^(s/2) on the grid."""
    return (1.0 + grid.A * grid.A) ** (0.5 * s)


def homog_weight(grid: FourierGrid, s: float) -> np.ndarray:
    """|grad|^s on the grid; its zero mode is 1 at s = 0 and 0 otherwise."""
    w = np.where(grid.A > 0, grid.A, 1.0) ** s
    w[0, 0] = 1.0 if s == 0 else 0.0
    return w


def _l2(wc: np.ndarray, grid: FourierGrid) -> float:
    """L^2 norm of the field with coefficients wc: Parseval, pairwise sum."""
    return math.sqrt(float((grid.multiplicity * np.abs(wc) ** 2).sum()) / grid.area)


def sobolev_norm(f: SpectralField, s: float, homogeneity: str = "inhomogeneous",
                 p: int = 2) -> float:
    """Norm of <grad>^s f (or |grad|^s f) in L^2 or L^infinity.

    L^2 is evaluated on the Fourier side by Parseval with a pairwise sum;
    L^infinity transforms back and takes the max.
    """
    if homogeneity == "inhomogeneous":
        w = bessel_weight(f.grid, s)
    elif homogeneity != "homogeneous":
        raise GridError(f"unknown homogeneity {homogeneity!r}")
    elif s < 0 and abs(f.coeffs[0, 0]) > 1e-13 * (1.0 + np.max(np.abs(f.coeffs))):
        raise GridError("homogeneous-symbol-singularity: |grad|^s with s<0 on nonzero mean mode")
    else:
        w = homog_weight(f.grid, s)
    wc = w * f.coeffs
    if p == 2:
        return _l2(wc, f.grid)
    if p == np.inf:
        return float(np.max(np.abs(SpectralField(f.grid, wc).to_physical())))
    raise GridError(f"unsupported p={p}; expected 2 or inf")


def l2_norm(f: SpectralField) -> float:
    return sobolev_norm(f, 0.0)


@dataclass(frozen=True)
class PerturbationState:
    """The perturbation 4-tuple (density, velocity, stream potential) as one
    C-contiguous complex array of shape (4, *grid.shape), its rows in the
    order of `COMPONENTS`.  The fields are views of the rows."""

    grid: FourierGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if coeffs.shape != (want := (4, *self.grid.shape)):
            raise GridError(f"state coefficients of shape {coeffs.shape} != {want}")
        object.__setattr__(self, "coeffs", coeffs)

    n = property(lambda self: SpectralField(self.grid, self.coeffs[0]))
    u = property(lambda self: SpectralField(self.grid, self.coeffs[1]))
    v = property(lambda self: SpectralField(self.grid, self.coeffs[2]))
    psi = property(lambda self: SpectralField(self.grid, self.coeffs[3]))
    fields = property(lambda self: tuple(SpectralField(self.grid, c) for c in self.coeffs))

    @classmethod
    def from_fields(cls, n: SpectralField, u: SpectralField, v: SpectralField,
                    psi: SpectralField) -> "PerturbationState":
        if any(f.grid != n.grid for f in (u, v, psi)):
            raise GridError("all four fields must share one grid")
        return cls(n.grid, np.stack([f.coeffs for f in (n, u, v, psi)]))

    @classmethod
    def zeros(cls, grid: FourierGrid) -> "PerturbationState":
        return cls(grid, np.zeros((4, *grid.shape), dtype=complex))

    def scaled(self, factor: float) -> "PerturbationState":
        return PerturbationState(self.grid, self.coeffs * factor)


# X-norm summands: entry name -> (time-weight exponent, description).
X_ENTRY_WEIGHTS = {
    "n:HM_L2": -1.0,        # exponent -eps, resolved at runtime
    "n:H3_L2": 0.25,
    "n:H3half_inf": 0.5,
    "n:dx_H1_L2": 0.75,
    "u:HM_L2": -1.0,
    "u:L2": 0.5,
    "u:H1_inf": 1.0,
    "v:L2xLinfy": 0.75,
    "u:hgamma_L2": 0.75,
    "u:dx_H1_L2": 1.0,
    "v:grad_H1_L2": 1.0,
    "psi:HM_grad_L2": -1.0,
    "psi:H4hgamma_L2": 0.25,
    "psi:dx_L2": 0.5,
    "psi:dx_grad_L2": 0.75,
    "psi:hgammabar_H1_inf": 0.5,
}


@dataclass(frozen=True)
class XNormBreakdown:
    """Every summand of the working-space norms at one time, unweighted.

    `entries` hold the raw norms; `weights` hold the time-weight exponents so
    that the weighted summand is <t>^weights[k] * entries[k].  Slope fits act
    on the raw entries.  `energy` is the `hm_energy` of the state; `sup_n`,
    `sup_u` and `sup_grad_psi` are the grid maxima of |n|, |(u, v)|, |grad psi|.
    """

    t: float
    entries: dict
    weights: dict
    M: int
    eps: float
    gamma: float
    gamma_bar: float
    energy: float
    sup_n: float
    sup_u: float
    sup_grad_psi: float

    def weighted(self, name: str) -> float:
        return (1.0 + self.t**2) ** (self.weights[name] / 2.0) * self.entries[name]


def x_param_problems(M: int, eps: float, gamma: float, gamma_bar: float) -> list[str]:
    """Every violated constraint on the working-space norm parameters, by name."""
    problems = []
    if not (0.5 < gamma <= 1.0):
        problems.append(f"gamma: {gamma} outside (1/2, 1]")
    if not (gamma / 2.0 < gamma_bar < 1.0 + gamma / 2.0):
        problems.append(f"gamma_bar: {gamma_bar} outside (gamma/2, 1+gamma/2)")
    if M < 8:
        problems.append(f"M: {M} below 8")
    if not eps > 0:
        problems.append(f"eps: {eps} must be positive")
    return problems


def energy_components(state: PerturbationState) -> np.ndarray:
    """The H^M energy's components (n, u, v, dx psi, dy psi) as one stack."""
    g = state.grid
    cp = state.coeffs[3]
    return np.stack([*state.coeffs[:3], cp * g.ikx, cp * g.iky])


def hm_energy(grid: FourierGrid, comps: np.ndarray, M: int) -> tuple[float, list]:
    """H^M size of the `energy_components` stack, and the H^M norm of each."""
    w = bessel_weight(grid, M)
    norms = [_l2(w * c, grid) for c in comps]
    return math.sqrt(math.fsum([x ** 2 for x in norms])), norms


def x_norm_snapshot(state: PerturbationState, t: float, M: int = 8, eps: float = 0.01,
                    gamma: float = 0.75, gamma_bar: float = 1.0) -> XNormBreakdown:
    """Evaluate every summand of the three working-space norms at time t, with
    the H^M energy and the sup norms of the state.

    One pass: each weight is built once.  The physical values stream through
    two planes, at most two of them live at a time; every maximum and sum is
    independent of the order in which they are taken.
    """
    problems = x_param_problems(M, eps, gamma, gamma_bar)
    if problems:
        raise GridError("; ".join(problems))
    g = state.grid
    comps = energy_components(state)
    cn, cu, cv, px, py = comps
    cp = state.coeffs[3]
    ikx, iky = g.ikx, g.iky
    energy, hm = hm_energy(g, comps, M)
    # the order-0 weight is exactly 1, so plain L^2 entries use the coefficients
    w1, w3, w4, w32 = (bessel_weight(g, s) for s in (1, 3, 4, 1.5))
    hg, hgb = (homog_weight(g, s) for s in (gamma, gamma_bar))
    planes = np.empty((2, g.nx, g.ny))

    def phys(*spectra):
        return to_physical(g, spectra, out=planes[:len(spectra)])

    def sup(*values):
        return max(float(np.max(np.abs(x))) for x in values)

    def l2(wc):
        return _l2(wc, g)

    def vec_l2(*vals):
        return math.sqrt(math.fsum([x * x for x in vals]))

    sup_n32 = sup(*phys(w32 * cn))
    sup_u1 = sup(*phys(w1 * cu, w1 * cv))
    sup_psi1 = sup(*phys(w1 * (hgb * cp)))
    sup_n = sup(*phys(cn))
    u, v = phys(cu, cv)
    v_rows = np.max(np.abs(v), axis=1)
    sup_u = float(np.max(np.sqrt(u**2 + v**2)))
    psi_x, psi_y = phys(px, py)
    entries = {
        "n:HM_L2": hm[0],
        "n:H3_L2": l2(w3 * cn),
        "n:H3half_inf": sup_n32,
        "n:dx_H1_L2": l2(w1 * (cn * ikx)),
        "u:HM_L2": vec_l2(hm[1], hm[2]),
        "u:L2": vec_l2(l2(cu), l2(cv)),
        "u:H1_inf": sup_u1,
        "v:L2xLinfy": math.sqrt(g.dx * float((v_rows ** 2).sum())),
        "u:hgamma_L2": vec_l2(l2(hg * cu), l2(hg * cv)),
        "u:dx_H1_L2": l2(w1 * (cu * ikx)),
        "v:grad_H1_L2": vec_l2(l2(w1 * (cv * ikx)), l2(w1 * (cv * iky))),
        "psi:HM_grad_L2": vec_l2(hm[3], hm[4]),
        "psi:H4hgamma_L2": l2(w4 * (hg * cp)),
        "psi:dx_L2": l2(px),
        "psi:dx_grad_L2": vec_l2(l2(px * ikx), l2(px * iky)),
        "psi:hgammabar_H1_inf": sup_psi1,
    }
    weights = {k: -eps if w == -1.0 else w for k, w in X_ENTRY_WEIGHTS.items()}
    return XNormBreakdown(t=float(t), entries=entries, weights=weights,
                          M=M, eps=eps, gamma=gamma, gamma_bar=gamma_bar, energy=energy,
                          sup_n=sup_n, sup_u=sup_u,
                          sup_grad_psi=float(np.max(np.sqrt(psi_x**2 + psi_y**2))))


def _field_files(path) -> tuple[Path, Path]:
    """The .bin and .json files of a saved field.  Only a .bin or .json suffix
    of `path` is replaced; other dots stay in the name (``n_t0.5``)."""
    path = Path(path)
    if path.suffix in (".bin", ".json"):
        path = path.with_suffix("")
    return path.with_name(path.name + ".bin"), path.with_name(path.name + ".json")


def save_field(f: SpectralField, path, name: str = "field",
               time: float = 0.0) -> tuple[Path, Path]:
    """Write raw little-endian float64 physical values (x fastest) + sidecar;
    returns the two files written."""
    bin_path, json_path = _field_files(path)
    phys = f.to_physical()
    # transpose so the row-major byte stream iterates y outer, x inner
    bin_path.write_bytes(np.ascontiguousarray(phys.T).astype("<f8").tobytes())
    sidecar = {"nx": f.grid.nx, "ny": f.grid.ny, "Lx": f.grid.Lx, "Ly": f.grid.Ly,
               "name": name, "time": time}
    json_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return bin_path, json_path


def load_field(path) -> tuple[SpectralField, dict]:
    bin_path, json_path = _field_files(path)
    meta = json.loads(json_path.read_text())
    raw = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
    grid = make_grid(meta["nx"], meta["ny"], meta["Lx"], meta["Ly"])
    phys = raw.reshape(meta["ny"], meta["nx"]).T
    return SpectralField.from_physical(grid, phys), meta
