"""Pseudo-spectral small-data integrator for the perturbation system.

Time stepping is exponential: the full linear part (including the viscosity
cross-coupling) is applied exactly per mode via precomputed matrix
exponentials, and the quadratic/cubic nonlinearities enter through a
second-order exponential Runge-Kutta update.  Products are formed in physical
space with 2/3-rule dealiasing on every factor and on the result; the momentum
advection is taken in its rotational (Lamb) form, -grad Q + (v w, -u w), which
equals the advective form up to rounding on a band free of quadratic aliasing.
"""

from __future__ import annotations

import json
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field, fields, asdict
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import grid as _grid
from . import format_value, write_manifest
from .grid import FourierGrid, PerturbationState, make_grid, x_norm_snapshot
from .linear import expm_batch, symbol_matrix

__all__ = [
    "SolverConfig",
    "TrajectoryRecord",
    "SolverError",
    "DensityCollapseError",
    "StepRejectedError",
    "ConfigError",
    "initial_data",
    "nonlinear_terms",
    "Stepper",
    "simulate",
]


class SolverError(RuntimeError):
    pass


class DensityCollapseError(SolverError):
    pass


class StepRejectedError(SolverError):
    pass


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class SolverConfig:
    nx: int = 256
    ny: int = 256
    Lx: float = 64.0 * math.pi
    Ly: float = 64.0 * math.pi
    lam: float = 0.05
    delta: float = 1e-3
    dt: float = 0.05
    T: float = 100.0
    dealias: float = 2.0 / 3.0
    seed: int = 0
    init_spec: str = "gaussian"
    M: int = 8
    eps: float = 0.01
    gamma: float = 0.75
    gamma_bar: float = 1.0
    cadence: float = 1.0
    nonlinear: bool = True
    checkpoint_fields: bool = False

    def validate(self) -> None:
        if type_problems := self._type_problems():  # the range checks below need numbers
            raise ConfigError(type_problems)
        values = self.to_json()
        nonfinite = [name for name, val in values.items()
                     if isinstance(val, float) and not math.isfinite(val)]
        problems = []
        if abs(self.lam) >= 1.0:
            problems.append(f"lambda: |{self.lam}| must be < 1")
        if self.dt <= 0:
            problems.append(f"dt: {self.dt} must be positive")
        if not (0 < self.dealias <= 1):
            problems.append(f"dealias: {self.dealias} outside (0, 1]")
        if self.delta < 0:
            problems.append(f"delta: {self.delta} must be nonnegative")
        if self.T < 0:
            problems.append(f"T: {self.T} must be nonnegative")
        if self.cadence <= 0:
            problems.append(f"cadence: {self.cadence} must be positive")
        problems += _grid.dimension_problems(self.nx, self.ny, self.Lx, self.Ly)
        if self.seed < 0:
            problems.append(f"seed: {self.seed} must be nonnegative")
        if self.init_spec not in ("gaussian", "random"):
            problems.append(f"init: {self.init_spec!r} not in ('gaussian', 'random')")
        problems += _grid.x_param_problems(self.M, self.eps, self.gamma, self.gamma_bar)
        problems += self._time_grid_problems()
        # a non-finite value is named once, as such, not by the range it misses
        problems = ([f"{name}: {values[name]} must be finite" for name in nonfinite]
                    + [p for p in problems if p.split(":")[0] not in nonfinite])
        if problems:
            raise ConfigError(problems)

    def _type_problems(self) -> list:
        """Fields hold their annotated type: an int is a float, a bool is neither."""
        problems = []
        for f in fields(self):
            val = getattr(self, f.name)
            name = _JSON_NAMES.get(f.name, f.name)
            if f.type == "bool" and not isinstance(val, bool):
                problems.append(f"{name}: {val!r} must be true or false")
            elif f.type == "int" and (isinstance(val, bool) or not isinstance(val, Integral)):
                problems.append(f"{name}: {val!r} must be an integer")
            elif f.type == "float" and (isinstance(val, bool) or not isinstance(val, Real)):
                problems.append(f"{name}: {val!r} must be a number")
        return problems

    def _time_grid_problems(self) -> list:
        """T and cadence must be whole numbers of steps (1e-9 relative), so the
        run ends and observes exactly at the requested times; a cadence, or a
        positive T, shorter than one step is rejected."""
        times = (self.dt, self.T, self.cadence)
        if not (all(map(math.isfinite, times)) and self.dt > 0 and self.T >= 0
                and self.cadence > 0):
            return []  # named by the range checks
        problems = []
        for name, val in (("T", self.T), ("cadence", self.cadence)):
            steps = round(val / self.dt)
            if abs(val - steps * self.dt) > 1e-9 * abs(val):
                problems.append(f"{name}: {val} is not an integer multiple of dt = {self.dt}")
        return problems

    @classmethod
    def from_json(cls, payload) -> "SolverConfig":
        if isinstance(payload, (str, Path)):
            try:
                payload = json.loads(Path(payload).read_text(), object_pairs_hook=_keys_once)
            except OSError as err:
                raise ConfigError([f"config: cannot read '{payload}': {err.strerror}"]) from None
        if not isinstance(payload, dict):
            raise ConfigError([f"config: the top level must be a JSON object, "
                               f"got {type(payload).__name__}"])
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        rename = {json_name: name for name, json_name in _JSON_NAMES.items()}
        kwargs, given_as = {}, {}
        problems = []
        for key, val in payload.items():
            name = rename.get(key, key)
            if name not in known:
                problems.append(f"{key}: unknown field")
            elif name in given_as:
                problems.append(f"{given_as[name]}: given twice, as "
                                f"{given_as[name]!r} and {key!r}")
            else:
                kwargs[name], given_as[name] = val, key
        if problems:
            raise ConfigError(problems)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_json(self) -> dict:
        return {_JSON_NAMES.get(name, name): val for name, val in asdict(self).items()}

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()


# the fields whose JSON name, the one the README schema documents, differs
_JSON_NAMES = {"lam": "lambda", "init_spec": "init"}


def _keys_once(pairs) -> dict:
    """A JSON object as a dict; a key it repeats is a `ConfigError`, where
    `json.loads` alone would keep the last value."""
    if twice := [key for key, count in Counter(k for k, _ in pairs).items() if count > 1]:
        raise ConfigError([f"{key}: given twice" for key in twice])
    return dict(pairs)


@dataclass
class TrajectoryRecord:
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    aborted: str | None = None

    # the energy and sup series live in the snapshots
    energy = property(lambda self: [s.energy for s in self.snapshots])
    sup_n = property(lambda self: [s.sup_n for s in self.snapshots])
    sup_u = property(lambda self: [s.sup_u for s in self.snapshots])
    sup_grad_psi = property(lambda self: [s.sup_grad_psi for s in self.snapshots])

    def csv_rows(self):
        header = ["t", "mass", "energy", "max_abs_n", "sup_n", "sup_u", "sup_grad_psi"]
        header += list(_grid.X_ENTRY_WEIGHTS)
        yield header
        for t, mass, s in zip(self.times, self.mass, self.snapshots):
            # max_abs_n and sup_n carry the same value; both columns stay
            # for readers of the published header
            row = [t, mass, s.energy, s.sup_n, s.sup_n, s.sup_u, s.sup_grad_psi]
            row += [s.entries[k] for k in _grid.X_ENTRY_WEIGHTS]
            yield row


def x0_surrogate(state: PerturbationState, M: int = 8) -> float:
    """Initial-data size: H^M of (n, u, grad psi) plus W^{5,1} of the same."""
    g = state.grid
    comps = _grid.energy_components(state)
    phys = _grid.to_physical(g, _grid.bessel_weight(g, 5) * comps)
    mags = np.sqrt(sum(phys ** 2))
    return _grid.hm_energy(g, comps, M)[0] + g.dx * g.dy * float(mags.sum())


def initial_data(spec: str, grid: FourierGrid, delta: float, seed: int = 0,
                 M: int = 8) -> PerturbationState:
    """Band-limited smooth data scaled so the initial-size surrogate = delta."""
    if delta < 0:
        raise SolverError("delta must be nonnegative")
    state = PerturbationState.zeros(grid)
    if delta == 0.0:
        return state
    mask = grid.A <= grid.nyquist / 3.0
    A = grid.A
    if spec == "gaussian":
        # distinct off-center bumps per component; nonzero mean density.
        # The O(1) physical width puts the spectral mass near A ~ 0.5-1,
        # inside the dispersive window for desk-scale decay fits.
        centers = [(0.30, 0.45), (0.55, 0.40), (0.45, 0.62), (0.60, 0.55)]
        amps = (1.0, 0.8, 0.9, 1.1)
        width = 1.8
        for row, (cx, cy), amp in zip(state.coeffs, centers, amps):
            phase = np.exp(-1j * (grid.XI * cx * grid.Lx + grid.ETA * cy * grid.Ly))
            row[:] = amp * np.exp(-0.25 * (A * width) ** 2) * phase * mask * grid.area / np.pi
    elif spec == "random":
        rng = np.random.default_rng(seed)
        for row in state.coeffs:
            white = rng.standard_normal((grid.nx, grid.ny))
            row[:] = _grid.to_spectral(grid, [white])[0] * np.exp(-2.0 * A * A) * mask
    else:
        raise SolverError(f"unknown initial-data recipe {spec!r}")
    size = x0_surrogate(state, M=M)
    if size == 0.0:
        raise SolverError("degenerate initial data (zero norm)")
    return state.scaled(delta / size)


class _Workspace:
    """The arrays of one right-hand side on one grid and dealias band, built
    once and handed to every `nonlinear_terms` call; the `Stepper` owns one.

    On the band's nc columns: the dealias `mask`, `lap` = -|k|^2 and the
    products of ikx and iky.  `band` holds the masked coefficients of the four
    unknowns, `spec` a spectral factor and the x pass of an inverse transform,
    `wide` the y pass of a forward one, and `planes` the physical values n, u,
    v, rho, psi_x, psi_y and two scratch planes, one of which holds the
    vorticity for the two momentum rows.  A call writes its result into
    `results[0]` and then swaps the two `results`, so its caller can hold that
    result through the next call and use `results[0]` until then.
    """

    def __init__(self, grid: FourierGrid, dealias_fraction: float):
        self.key = grid, dealias_fraction
        nc = grid.dealias_columns(dealias_fraction)
        # complex, as a multiply casts a bool mask on every call
        self.mask = grid.dealias_mask(dealias_fraction)[:, :nc].astype(complex)
        self.ikx, self.iky = ikx, iky = grid.ikx, grid.iky[:, :nc]
        self.lap = -(grid.XI**2 + grid.ETA[:, :nc]**2)
        self.ikx2, self.ikxiky, self.iky2 = ikx * ikx, ikx * iky, iky * iky
        self.band = np.empty((4, grid.nx, nc), dtype=complex)
        self.spec = np.empty((2, grid.nx, nc), dtype=complex)
        self.wide = np.empty(grid.shape, dtype=complex)
        self.planes = np.empty((8, grid.nx, grid.ny))
        self.results = [np.empty((4, grid.nx, nc), dtype=complex) for _ in range(2)]


def nonlinear_terms(state: PerturbationState, lam: float = 0.0,
                    dealias_fraction: float = 2.0 / 3.0,
                    work: _Workspace | None = None) -> np.ndarray:
    """The four nonlinear right-hand sides as dealiased Fourier coefficients,
    of shape (4, nx, nc): the first nc = `grid.dealias_columns` columns of the
    half spectrum, which hold the dealias band; every later column is zero.

    The momentum rows take the advection in Lamb form,
    -(u . grad) u - n grad n = -grad Q + (v w, -u w), with
    Q = (u^2 + v^2 + n^2) / 2 and the vorticity w = dx v - dy u.  So the 9
    dealiased spectral factors are n, u, v, dx psi, dy psi, lap psi, w and
    the two viscous combinations, each summed in spectral space first; they
    are formed on those columns only and go to physical space one by one.
    Each of the 6 products -n u, -n v, -(u dx psi + v dy psi), Q and the two
    momentum rows without -grad Q is formed as soon as its factors exist and
    comes back at once, on those columns only (see `grid.to_physical`);
    -ikx Q and -iky Q are then taken in spectral space.  Every index the
    2/3 band keeps has |k| < N/3 along its axis (`grid.dealias_axes`), so a
    quadratic product does not alias into the band, and this equals the
    advective form up to rounding.  Every array is one of `work` (a fresh
    workspace when None), the result included; see `_Workspace`.

    lam enters only through the viscous term n (lap u + lam grad div u) / rho;
    its linear part lam grad div u is in the `Stepper`'s propagators.
    Requires max|n| < 0.99 so the total density stays positive.
    """
    g = state.grid
    w = _Workspace(g, dealias_fraction) if work is None else work
    if w.key != (g, dealias_fraction):
        raise ValueError("nonlinear_terms: the workspace is for another grid or band")
    out = w.results[0]
    w.results.reverse()
    ikx, iky, lap, mask = w.ikx, w.iky, w.lap, w.mask
    nc = mask.shape[1]
    cn, cu, cv, cp = np.multiply(state.coeffs[..., :nc], mask, out=w.band)
    s0, s1 = w.spec
    n, u, v, rho, psi_x, psi_y, a, f = w.planes

    def phys(spec, plane):
        return _grid.to_physical(g, (spec,), plane[None], s1)[0]

    def hat(values, dest):
        _grid.to_spectral(g, (values,), nc, dest[None], w.wide)

    def formed(symbol, c):
        return np.multiply(symbol, c, out=s0)

    def coupling(cx, cy, mx, my):
        """lam * (mx cx + my cy), in s1."""
        np.multiply(mx, cx, out=s1)
        np.add(s1, np.multiply(my, cy, out=s0), out=s1)
        return np.multiply(lam, s1, out=s1)

    # lap u + lam (dxx u + dxy v) and lap v + lam (dxy u + dyy v) - lap psi
    def visc_x():
        coupling(cu, cv, w.ikx2, w.ikxiky)
        return np.add(np.multiply(lap, cu, out=s0), s1, out=s0)

    def visc_y():
        coupling(cu, cv, w.ikxiky, w.iky2)
        np.add(np.multiply(lap, cv, out=s0), s1, out=s0)
        return np.subtract(s0, np.multiply(lap, cp, out=s1), out=s0)

    def over_rho(visc, psi_lap):
        """(n visc + psi_lap) / rho in plane f, visc a function."""
        np.multiply(n, phys(visc(), f), out=f)
        np.add(f, psi_lap, out=f)
        return np.divide(f, rho, out=f)

    phys(cn, n)
    max_n = float(np.max(np.abs(n, out=f)))
    if max_n >= 0.99:
        raise DensityCollapseError(f"density-collapse: max|n| = {max_n:.3f} >= 0.99")
    np.add(1.0, n, out=rho)
    # conservative density flux: ikx F(-(n u)) + iky F(-(n v))
    hat(np.negative(np.multiply(n, phys(cu, u), out=a), out=a), s0)
    np.multiply(ikx, s0, out=out[0])
    hat(np.negative(np.multiply(n, phys(cv, v), out=a), out=a), s0)
    out[0] += np.multiply(iky, s0, out=s1)
    # -(u psi_x + v psi_y)
    phys(formed(ikx, cp), psi_x)
    phys(formed(iky, cp), psi_y)
    np.multiply(u, psi_x, out=a)
    a += np.multiply(v, psi_y, out=f)
    hat(np.negative(a, out=a), out[3])
    # out[1] and out[2] hold ikx F(Q) and iky F(Q) until the rows come back
    np.multiply(u, u, out=a)
    a += np.multiply(v, v, out=f)
    a += np.multiply(n, n, out=f)
    a *= 0.5
    hat(a, out[1])
    np.multiply(iky, out[1], out=out[2])
    out[1] *= ikx
    # psi_x and psi_y are multiplied by lap psi; then plane a holds w
    phys(formed(lap, cp), a)
    psi_x *= a
    psi_y *= a
    phys(np.subtract(formed(ikx, cv), np.multiply(iky, cu, out=s1), out=s0), a)
    # v w - (n visc_x + psi_x lap psi) / rho - ikx F(Q)
    over_rho(visc_x, psi_x)
    hat(np.subtract(np.multiply(v, a, out=psi_x), f, out=psi_x), s0)
    np.subtract(s0, out[1], out=out[1])
    # -u w - (n visc_y + psi_y lap psi) / rho - iky F(Q)
    over_rho(visc_y, psi_y)
    np.negative(np.multiply(u, a, out=psi_y), out=psi_y)
    hat(np.subtract(psi_y, f, out=psi_y), s0)
    np.subtract(s0, out[2], out=out[2])
    out *= mask
    return out


# M = _PHASE * R entrywise with R = D^-1 M D real, D = diag(1, i, i, i): the
# couplings -i xi and -i eta sit in row and column 0 only
_PHASE = np.outer([1, 1j, 1j, 1j], [1, -1j, -1j, -1j])
# M(-xi, eta) = S1 M(xi, eta) S1 = _S1 * M(xi, eta) with S1 = diag(1, -1, 1, 1)
_S1 = np.outer([1.0, -1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0])
# Rows of the lattice per exponential batch of the propagator build; scipy's
# expm takes each matrix on its own, so the size only bounds the memory.
_BUILD_ROWS = 16


def _propagators(E, P1, P2, xi, eta, dt: float, lam: float) -> None:
    """Fill E with exp(dt A) on the lattice xi x eta, and P1, P2 with
    dt*phi1(dt A) and dt^2*phi2(dt A) on its first P1.shape[0] rows and
    P1.shape[1] columns, which must be the dealias band; each is indexed
    [xi, eta, i, j].

    The exponentials are taken of the real D^-1 (dt A) D and the phase is put
    back after, which only multiplies by 1 or +-i.  Inside the band one 12x12
    augmented exponential gives all three; outside it only the 4x4 exp(dt A)
    is built.  Both go in blocks of `_BUILD_ROWS` rows.
    """
    band = np.zeros(E.shape[:2], dtype=bool)
    band[:P1.shape[0], :P1.shape[1]] = True
    for start in range(0, len(xi), _BUILD_ROWS):
        rows = slice(start, start + _BUILD_ROWS)
        gen = (symbol_matrix(xi[rows, None], eta[None, :], lam) / _PHASE).real
        gen *= dt
        inside = band[rows]
        aug = np.zeros((np.count_nonzero(inside), 12, 12))
        aug[:, 0:4, 0:4] = gen[inside]
        aug[:, 0:4, 4:8] = aug[:, 4:8, 8:12] = dt * np.eye(4)
        full = expm_batch(aug)
        E[rows][inside] = full[:, :4, :4]
        E[rows][~inside] = expm_batch(gen[~inside])
        for m, k in ((P1, 4), (P2, 8)):
            m[rows] = full[:, :4, k:k + 4].reshape(m[rows].shape)
    for m in (E, P1, P2):
        m *= _PHASE


def _apply(mats: np.ndarray, coeffs: np.ndarray, out: np.ndarray,
           term: np.ndarray) -> np.ndarray:
    """out[i] = sum over j of mats[i, j] * coeffs[j], summed in the order of j;
    `mats` has shape (4, 4, *block), `coeffs` and `out` (4, *block), and the
    scratch `term` the shape of the block."""
    for i in range(4):
        np.multiply(mats[i, 0], coeffs[0], out=out[i])
        for j in range(1, 4):
            out[i] += np.multiply(mats[i, j], coeffs[j], out=term)
    return out


class Stepper:
    """Second-order exponential integrator with precomputed mode propagators.

    Per mode the augmented matrix exp([[dtA, dtI, 0], [0, 0, dtI], [0, 0, 0]])
    supplies exp(dt A), dt*phi1(dt A), dt^2*phi2(dt A) in one batch, with A
    = `linear.symbol_matrix`(xi, eta, lam), lam grad div u included; with the
    nonlinearity zeroed a step is the exact linear flow on every mode.

    Each propagator is stored as one (4, 4, rows, ncols) array, entry [i, j]
    over the modes.  E covers the whole half lattice: a state may hold modes
    outside the dealias band, and their linear flow is exact.  The phi blocks
    P1, P2 only multiply the nonlinear terms, which live on the dealias band,
    so they cover the band's rows and its nc = `grid.dealias_columns` leading
    columns: the rows with |xi| in the band are a prefix and a suffix of the
    fftfreq order, `rows`, and P1, P2 hold the prefix then the suffix.  The
    rows xi >= 0 (and the unpaired -Nyquist row) are built; the rows xi < 0
    are their S1 reflections.  The stepper owns one `_Workspace`, so a step
    allocates only the state it returns.
    """

    def __init__(self, grid: FourierGrid, dt: float, lam: float = 0.0,
                 dealias_fraction: float = 2.0 / 3.0):
        self.grid = grid
        self.dt = float(dt)
        self.lam = float(lam)
        self.dealias_fraction = dealias_fraction
        nx, half = grid.nx, grid.nx // 2 + 1
        in_band = grid.dealias_axes(dealias_fraction)[0]
        head = int(np.count_nonzero(in_band[:half]))  # rows 0 .. head - 1
        tail = int(np.count_nonzero(in_band[half:]))  # rows nx - tail .. nx - 1
        self.rows = (slice(0, head), slice(nx - tail, nx))
        self._phi_rows = (slice(0, head), slice(head, head + tail))
        nc = grid.dealias_columns(dealias_fraction)
        self.E, self.P1, self.P2 = mats = [
            np.empty((4, 4, nrows, ncols), dtype=complex)
            for nrows, ncols in ((nx, grid.shape[1]), (head + tail, nc), (head + tail, nc))]
        E, P1, P2 = (m.transpose(2, 3, 0, 1) for m in mats)  # indexed [xi, eta, i, j]
        _propagators(E[:half], P1[:head], P2[:head], grid.xi[:half], grid.eta, self.dt, self.lam)
        np.multiply(E[half - 2:0:-1], _S1, out=E[half:])  # row nx - k from row k
        for m in (P1, P2):
            np.multiply(m[tail:0:-1], _S1, out=m[head:])
        self._work = _Workspace(grid, dealias_fraction)

    def _add_phi(self, mats, nl, band, acc) -> None:
        """band += mats @ nl on the two band row slices, each sum formed first
        (in `acc`)."""
        term = self._work.spec[0]
        for rows, phi_rows in zip(self.rows, self._phi_rows):
            band[:, rows] += _apply(mats[:, :, phi_rows], nl[:, rows], acc[:, rows], term[rows])

    def step(self, state: PerturbationState, nonlinear: bool = True) -> PerturbationState:
        g, w = self.grid, self._work
        u = state.coeffs
        out = _apply(self.E, u, np.empty(u.shape, dtype=complex), w.wide)
        if not nonlinear:
            _check_finite(g.coeff_norm(out))
            return PerturbationState(g, out)
        norm_before = g.coeff_norm(u)
        nl = nonlinear_terms(state, self.lam, self.dealias_fraction, w)
        band = out[..., :nl.shape[-1]]  # the columns the phi blocks act on
        self._add_phi(self.P1, nl, band, w.results[0])  # out holds the midpoint
        nl_mid = nonlinear_terms(PerturbationState(g, out), self.lam,
                                 self.dealias_fraction, w)
        nl_mid -= nl
        nl_mid /= self.dt
        self._add_phi(self.P2, nl_mid, band, nl)  # nl is spent
        norm_after = g.coeff_norm(out)
        _check_finite(norm_after)
        if norm_after > 10.0 * norm_before and norm_before > 0:
            raise StepRejectedError(
                f"step-rejected: norm grew x{norm_after / norm_before:.1f} in one step")
        return PerturbationState(g, out)


def _check_finite(norm: float, where: str = "after the step") -> None:
    """Reject a state whose coefficient norm is nan or inf."""
    if not math.isfinite(norm):
        raise StepRejectedError(f"non-finite-state: coefficient norm is {norm} {where}")


def simulate(config: SolverConfig, state0: PerturbationState | None = None,
             out_dir=None, progress=None) -> TrajectoryRecord:
    """Run the configured trajectory, recording diagnostics at the cadence.

    On density collapse or step rejection the run aborts gracefully with the
    diagnostic recorded in `TrajectoryRecord.aborted`.  A `state0` on another
    grid than the config's is a `ConfigError`.
    """
    config.validate()
    g = make_grid(config.nx, config.ny, config.Lx, config.Ly)
    if state0 is not None and state0.grid != g:
        raise ConfigError([f"state0: grid {_box(state0.grid)} differs from the "
                           f"config's {_box(g)}"])
    state = state0 if state0 is not None else initial_data(
        config.init_spec, g, config.delta, config.seed, M=config.M)
    stepper = Stepper(g, config.dt, config.lam, config.dealias)
    record = TrajectoryRecord()

    steps_per_output = round(config.cadence / config.dt)
    n_steps = round(config.T / config.dt)

    def observe(t, st):
        record.times.append(t)
        record.snapshots.append(x_norm_snapshot(st, t, config.M, config.eps,
                                                config.gamma, config.gamma_bar))
        record.mass.append(float(st.coeffs[0, 0, 0].real))

    observe(0.0, state)
    checkpoints = []
    if out_dir is not None and config.checkpoint_fields:
        checkpoints += _write_checkpoint(state, Path(out_dir), 0.0)
    try:
        _check_finite(g.coeff_norm(state.coeffs), "in the initial state")
        for k in range(1, n_steps + 1):
            state = stepper.step(state, nonlinear=config.nonlinear)
            if k % steps_per_output == 0 or k == n_steps:
                t = k * config.dt
                observe(t, state)
                if progress is not None:
                    progress(t, record)
    except SolverError as err:
        record.aborted = str(err)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if config.checkpoint_fields and record.aborted is None:
            checkpoints += _write_checkpoint(state, out, record.times[-1])
        _write_trajectory(record, out / "trajectory.csv")
        write_manifest(out / "run_manifest.json", [out / "trajectory.csv", *checkpoints],
                       config=config.to_json(), config_digest=config.digest(),
                       seed=config.seed, aborted=record.aborted,
                       final_time=record.times[-1] if record.times else None)
    return record


def _box(grid: FourierGrid) -> str:
    return f"nx={grid.nx}, ny={grid.ny}, Lx={grid.Lx!r}, Ly={grid.Ly!r}"


def _write_checkpoint(state: PerturbationState, out: Path, t: float) -> list:
    """Save the four fields at time t as <name>_t<t>; returns the files written."""
    out.mkdir(parents=True, exist_ok=True)
    return [path for name, f in zip(_grid.COMPONENTS, state.fields)
            for path in _grid.save_field(f, out / f"{name}_t{t:g}", name=name, time=t)]


def _write_trajectory(record: TrajectoryRecord, path: Path) -> None:
    rows = record.csv_rows()
    header = next(rows)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    if record.aborted:
        lines.append(f"# aborted: {record.aborted}")
    path.write_text("\n".join(lines) + "\n")
