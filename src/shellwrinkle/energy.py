"""Energy quadrature, duality gap, the sharpened interpolation inequality,
and the leading-order scaling fit.

The dimensionless energy of displacements (u, w) on a shell with reference
profile p is

    E = (1/2) int |e(u) + (1/2) grad w (x) grad w - (1/2) grad p (x) grad p|^2
      + (b/2) int |hess w - hess p|^2 + (k/2) int |w|^2
      + gamma ( int |grad p|^2 / 2  -  boundary int u . nu )

with Frobenius matrix norms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .airy import dual_value, solve_dual
from .characteristics import defect_field, primal_value
from .errors import DataError, ParameterError, RegimeError, ResolutionError
from .geometry import Domain
from .grids import MaskedGrid
from .herringbone import (
    HerringboneParams,
    PiecewiseHerringboneField,
    TargetDefect,
    DisplacementField,
    _BLOCK_ROWS,
    _eroded,
    optimal_params,
)
from .shell import ShellProfile


@dataclass(frozen=True)
class EnergyParams:
    b: float
    k: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.b <= 0 or self.k <= 0 or self.gamma < 0:
            raise ParameterError("need b, k > 0 and gamma >= 0")

    @property
    def gamma_eff(self):
        return 2.0 * np.sqrt(self.b * self.k) + self.gamma


@dataclass(frozen=True)
class EnergyBreakdown:
    stretching: float
    bending: float
    substrate: float
    surface: float

    @property
    def total(self):
        return self.stretching + self.bending + self.substrate + self.surface


@dataclass
class StrainField:
    """Symmetric strain samples on the displacement grid (11, 12, 22)."""

    eps: np.ndarray
    mask: np.ndarray
    h: float


def _row_blocks(field: DisplacementField):
    """Walk the field in blocks of ``_BLOCK_ROWS`` grid rows.

    Yields (rows, halo, keep, slab): ``halo`` is the block's grid rows
    ``rows`` widened by 2 rows on each side (clipped to the array), ``slab``
    is the field restricted to ``halo``, and ``keep`` selects ``rows``
    within the slab.  A centered second difference on a kept row reads first
    differences on the neighbouring rows, which read samples at most 2 rows
    away, so on the kept rows every stencil of ``slab`` equals the
    whole-grid stencil bit for bit: the one-sided edge formulas that the
    slab applies at its halo rows never reach a kept row, and at the true
    array edges they are the whole grid's.
    """
    nx = field.shape[0]
    for r0 in range(0, nx, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, nx)
        lo, hi = max(r0 - 2, 0), min(r1 + 2, nx)
        slab = DisplacementField(
            origin=(field.origin[0] + lo * field.h, field.origin[1]), h=field.h,
            u=field.u[lo:hi], w=field.w[lo:hi],
            domain_mask=field.domain_mask[lo:hi], bulk_mask=field.bulk_mask[lo:hi],
        )
        yield slice(r0, r1), slice(lo, hi), slice(r0 - lo, r1 - lo), slab


def _centres(field: DisplacementField, rows: slice):
    """Cell centres of grid rows ``rows`` as an (n, ny, 2) array, the values
    ``field.points()`` gives for those rows."""
    xs = field.origin[0] + (np.arange(rows.start, rows.stop) + 0.5) * field.h
    ys = field.origin[1] + (np.arange(field.shape[1]) + 0.5) * field.h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X, Y], axis=-1)


def _grad_p(shell: ShellProfile, centres):
    return shell.gradient(centres.reshape(-1, 2)).reshape(centres.shape)


def _first_diffs(slab: DisplacementField, keep: slice):
    """The slab's six first differences, each taken once: (u1)_x, (u1)_y,
    (u2)_x and (u2)_y on the kept rows, and w_x, w_y on the whole slab,
    where the second differences of ``_hessian`` read them."""
    u1, u2 = slab.u[..., 0], slab.u[..., 1]
    return (
        slab._d(u1, 0)[keep], slab._d(u1[keep], 1), slab._d(u2, 0)[keep],
        slab._d(u2[keep], 1), slab._d(slab.w, 0), slab._d(slab.w, 1),
    )


def _strain_into(out, diffs, keep: slice, gp):
    """Write e(u) + grad w (x) grad w / 2 - grad p (x) grad p / 2 on the kept
    rows into the components out[0], out[1], out[2] (11, 12, 22).  diffs
    come from ``_first_diffs``; gp is the profile gradient on the kept rows,
    or None when it is identically zero, which leaves the sums unchanged."""
    u1_1, u1_2, u2_1, u2_2, wx, wy = diffs
    wx, wy = wx[keep], wy[keep]
    out[0][...] = u1_1 + 0.5 * wx**2
    out[1][...] = 0.5 * (u1_2 + u2_1) + 0.5 * wx * wy
    out[2][...] = u2_2 + 0.5 * wy**2
    if gp is not None:
        out[0] -= 0.5 * gp[..., 0] ** 2
        out[1] -= 0.5 * gp[..., 0] * gp[..., 1]
        out[2] -= 0.5 * gp[..., 1] ** 2


def _hessian(slab: DisplacementField, fx, fy, keep: slice):
    """Second differences (11, 12, 22) on the kept rows of a field whose
    first differences over the whole slab are fx, fy."""
    return (
        slab._d(fx, 0)[keep],
        0.5 * (slab._d(fx[keep], 1) + slab._d(fy, 0)[keep]),
        slab._d(fy[keep], 1),
    )


def _check_profile(shell: ShellProfile):
    if shell.sign != "zero" and shell.grad_p is None and callable(shell.curvature):
        raise DataError("nonflat shell requires grad_p for strain evaluation")


def strain(field: DisplacementField, shell: ShellProfile) -> StrainField:
    """Geometrically linear strain by centered differences.

    The stencils are evaluated in blocks of grid rows with a 2-row halo
    (see ``_row_blocks``), so no whole-grid derivative array is built; each
    value equals the whole-grid stencil's bit for bit.  Per block the six
    first differences of u and w are taken once and the strain is written
    straight into ε; a profile without ``grad_p`` adds no gradient term.
    """
    _check_profile(shell)
    eps = np.empty(field.shape + (3,))
    for rows, _, keep, slab in _row_blocks(field):
        gp = None if shell.grad_p is None else _grad_p(shell, _centres(field, rows))
        _strain_into(np.moveaxis(eps[rows], -1, 0), _first_diffs(slab, keep), keep, gp)
    return StrainField(eps=eps, mask=_eroded(field.domain_mask), h=field.h)


def _frob2_sym(comp):
    """|A|_F^2 for symmetric matrices stored as (..., 3) = (11, 12, 22)."""
    return _frob2(comp[..., 0], comp[..., 1], comp[..., 2])


def _frob2(a11, a12, a22):
    """|A|_F^2 of the symmetric matrices with components a11, a12, a22."""
    return a11**2 + 2.0 * a12**2 + a22**2


def _boundary_flux(field: DisplacementField, domain: Domain, n_samples=2048):
    """Boundary integral of u . nu by the trapezoid rule in arclength, with
    u interpolated bilinearly onto the boundary samples.

    Panel k runs from sample k to sample k + 1, and every corner is a
    sample, so each panel lies on one smooth piece.  A sample's normal is
    NaN at a corner, so a corner end takes the normal of its panel's chord:
    exact on a straight side, so the rule is exact for linear u on a
    polygon, and off by O(h) on a curved one, which costs O(h^2) there.
    """
    s = domain.boundary_sample(n_samples)
    pos, nu, corner = s.position, s.nu, s.corner[:, None]
    nxt = np.roll(np.arange(len(s)), -1)
    chord = pos[nxt] - pos
    chord = np.stack([chord[:, 1], -chord[:, 0]], axis=1) / np.hypot(*chord.T)[:, None]
    nu_start = np.where(corner, chord, nu)
    nu_end = np.where(corner[nxt], chord, nu[nxt])
    u = _bilinear(field, field.u, pos)
    width = np.diff(s.arclength, append=s.arclength[0] + domain.perimeter())
    vals = np.sum(u * nu_start, axis=1) + np.sum(u[nxt] * nu_end, axis=1)
    return float(0.5 * np.sum(width * vals))


def _bilinear(field: DisplacementField, arr, pts):
    """Bilinear interpolation of grid data at points; past the outer cell
    centres it extrapolates the outer cells' bilinear form."""
    nx, ny = field.shape
    fx = (pts[:, 0] - field.origin[0]) / field.h - 0.5
    fy = (pts[:, 1] - field.origin[1]) / field.h - 0.5
    i0 = np.clip(np.floor(fx).astype(int), 0, nx - 2)
    j0 = np.clip(np.floor(fy).astype(int), 0, ny - 2)
    wx = fx - i0
    wy = fy - j0
    if arr.ndim == 2:
        arr = arr[..., None]
    out = (
        arr[i0, j0] * ((1 - wx) * (1 - wy))[:, None]
        + arr[i0 + 1, j0] * (wx * (1 - wy))[:, None]
        + arr[i0, j0 + 1] * ((1 - wx) * wy)[:, None]
        + arr[i0 + 1, j0 + 1] * (wx * wy)[:, None]
    )
    return out.squeeze(-1) if out.shape[-1] == 1 else out


def energy(field: DisplacementField, shell: ShellProfile, params: EnergyParams,
           domain: Optional[Domain] = None, region: Optional[np.ndarray] = None,
           renormalize: bool = False, target: Optional[TargetDefect] = None) -> EnergyBreakdown:
    """The four quadratures of the energy over the field's grid.

    region restricts the area quadratures (e.g. to the bulk of a pattern);
    with renormalize=True they are rescaled by covered/restricted area.
    When ``target`` is given, the stretching term measures the deviation
    from the target defect, e(u) + grad w (x) grad w / 2 - mu/2 (the form
    the pattern is built to annihilate); otherwise it uses the shell profile.
    The surface term (gamma > 0) needs ``domain`` for its boundary flux.

    The stencils are evaluated in blocks of grid rows with a 2-row halo
    (see ``_row_blocks``), which reproduces every whole-grid stencil value
    bit for bit, and each quadrature sum is added up block by block: no
    whole-grid strain, Hessian or target array is built, and only the
    summation order differs from one sum over the whole grid.  Per block
    the six first differences of u and w are taken once, and the Hessian of
    w is differenced from that w_x and w_y.  Cell centres are built only
    for what reads them: the profile gradient of a shell with ``grad_p``
    (without it the gradient is zero, and so is the slope term), and a
    target that varies in space; a constant target is subtracted as three
    scalars.
    """
    if field.params is not None and field.h > field.params.l_wr / 16 + 1e-15:
        raise ResolutionError("grid does not resolve the finest field scale")
    if params.gamma > 0 and domain is None:
        raise ParameterError("the surface term (gamma > 0) needs the domain")
    mask = _eroded(field.domain_mask) if region is None else (region & _eroded(field.domain_mask))
    area_factor = 1.0
    if renormalize:
        covered = float(mask.sum())
        total = float(field.domain_mask.sum())
        if covered > 0:
            area_factor = total / covered
    cell = field.h**2

    _check_profile(shell)
    curved = shell.grad_p is not None
    stretching = bending = substrate = slope = 0.0
    eps = np.empty((3, _BLOCK_ROWS) + field.shape[1:])
    for rows, halo, keep, slab in _row_blocks(field):
        m = mask[rows]
        e = eps[:, : rows.stop - rows.start]
        diffs = _first_diffs(slab, keep)
        gp_halo = _grad_p(shell, _centres(field, halo)) if curved else None
        gp = gp_halo[keep] if curved else None
        _strain_into(e, diffs, keep, gp)
        if target is not None:
            if target.constant is not None:
                mu_loc = target.constant
            else:
                mu_loc = target.matrix_at(_centres(field, rows).reshape(-1, 2))
                mu_loc = mu_loc.reshape(e.shape[1:] + (2, 2))
            e[0] -= 0.5 * mu_loc[..., 0, 0]
            e[1] -= 0.5 * mu_loc[..., 0, 1]
            e[2] -= 0.5 * mu_loc[..., 1, 1]
        stretching += np.sum(_frob2(*e)[m])

        hw = _hessian(slab, diffs[4], diffs[5], keep)
        if curved:
            # reference profile curvature by differencing its gradient samples
            hp = _hessian(slab, gp_halo[..., 0], gp_halo[..., 1], keep)
            hw = [a - b for a, b in zip(hw, hp)]
        bending += np.sum(_frob2(*hw)[m])
        substrate += np.sum(field.w[rows][m] ** 2)
        if params.gamma > 0 and curved:
            slope += np.sum(np.sum(gp**2, axis=-1)[field.domain_mask[rows]])
    stretching = 0.5 * float(stretching) * cell * area_factor
    bending = 0.5 * params.b * float(bending) * cell * area_factor
    substrate = 0.5 * params.k * float(substrate) * cell * area_factor

    surface = 0.0
    if params.gamma > 0:
        slope_term = 0.5 * float(slope) * cell
        surface = params.gamma * (slope_term - _boundary_flux(field, domain))
    return EnergyBreakdown(
        stretching=stretching, bending=bending, substrate=substrate, surface=surface
    )


def duality_gap(domain: Domain, shell: ShellProfile, resolution=256):
    """|primal - dual| / max(primal, dual); zero-curvature shells give 0."""
    if shell.sign == "zero":
        return 0.0
    df = defect_field(domain, shell, resolution)
    p = df.primal_value()
    d = dual_value(domain, shell, df.airy, resolution)
    m = max(abs(p), abs(d))
    return 0.0 if m == 0 else abs(p - d) / m


# ----------------------------------------------------------------------
# sharpened interpolation inequality
# ----------------------------------------------------------------------


class AnalyticScalarField:
    """Scalar field with closed-form value / gradient / Hessian."""

    def __init__(self, value: Callable, grad: Callable, hess: Callable,
                 sup_grad: Optional[float] = None, sup_hess: Optional[float] = None):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.sup_grad = sup_grad
        self.sup_hess = sup_hess


def interpolation_check(w_field: AnalyticScalarField, chi_field: AnalyticScalarField,
                        b: float, k: float, grid: MaskedGrid):
    """Margin of the sharpened interpolation inequality:

        b int |hess w|^2 + k int |w|^2
          >= 2 sqrt(bk) int |grad w|^2 chi
             + int |sqrt(b) lap w + sqrt(k) w|^2 chi
             - 2 sqrt(bk) |grad chi|_inf |w|_2 |grad w|_2
             - b |hess chi|_inf |grad w|_2^2

    The two slack terms follow, for compactly supported chi, from
    int w lap w chi = -int |grad w|^2 chi - int w grad w . grad chi and
    int ((lap w)^2 - |hess w|^2) chi = int grad w^T (hess chi - lap chi I) grad w.
    In two dimensions hess chi - lap chi I has the eigenvalues of hess chi
    negated and swapped, so its operator norm is that of hess chi.
    ``chi_field.sup_grad`` bounds |grad chi| and ``chi_field.sup_hess`` bounds
    the operator norm of hess chi; a Frobenius-norm bound is a valid one.

    Returns lhs - rhs (nonnegative up to quadrature error).  The margin
    contains the cutoff loss int (b |hess w|^2 + k w^2)(1 - chi) and the two
    slack terms.  For the equality case w = sqrt(2) l cos(x1 / l),
    l = (b/k)^(1/4), the slack terms are l |grad chi|_inf lhs and
    l^2 |hess chi|_inf lhs / 2 to leading order, so its margin exceeds the
    cutoff loss by a small fraction of lhs only once l is small against the
    width over which chi ramps.

    The integrals are cut-cell quadratures over ``grid``.
    """
    pts = grid.masked_points()
    wts = grid.weights[grid.mask]
    w = np.asarray(w_field.value(pts), dtype=float)
    gw = np.asarray(w_field.grad(pts), dtype=float)
    hw = np.asarray(w_field.hess(pts), dtype=float)  # (n, 3): 11, 12, 22
    chi = np.clip(np.asarray(chi_field.value(pts), dtype=float), 0.0, None)
    if np.any(chi > 1 + 1e-12) or np.any(chi < -1e-12):
        raise DataError("cutoff must take values in [0, 1]")
    lap = hw[..., 0] + hw[..., 2]
    hess2 = _frob2_sym(hw)
    grad2 = np.sum(gw * gw, axis=1)
    l2_w = np.sqrt(np.sum(wts * w * w))
    l2_gw = np.sqrt(np.sum(wts * grad2))
    sup_gchi = chi_field.sup_grad
    sup_hchi = chi_field.sup_hess
    lhs = b * np.sum(wts * hess2) + k * np.sum(wts * w * w)
    sqrt_bk = np.sqrt(b * k)
    rhs = (
        2 * sqrt_bk * np.sum(wts * grad2 * chi)
        + np.sum(wts * (np.sqrt(b) * lap + np.sqrt(k) * w) ** 2 * chi)
        - 2 * sqrt_bk * sup_gchi * l2_w * l2_gw
        - b * sup_hchi * l2_gw**2
    )
    return float(lhs - rhs)


# ----------------------------------------------------------------------
# scaling study
# ----------------------------------------------------------------------


@dataclass
class ScalingPoint:
    params: EnergyParams
    herr_params: HerringboneParams
    ratio: float  # (bending + substrate + gamma part) / gamma_eff, bulk-renormalized
    stretching: float  # construction-error stretching (absolute)
    stretch_scale: float  # (b/k)^(1/10)
    bulk_fraction: float


@dataclass
class ScalingReport:
    points: list
    c1: float
    slope: float
    residuals: list
    decay_exponent: Optional[float]
    regime_warnings: list
    primal: float

    def residuals_decreasing(self):
        r = self.residuals
        return all(r[i + 1] < r[i] + 1e-15 for i in range(len(r) - 1))


def _check_regime(params_seq: Sequence[EnergyParams]):
    """First three regime ratios must be nonincreasing along the sequence;
    the fourth (construction validity) is reported as a warning only, since
    it cannot decrease at fixed deformability."""
    warnings = []
    seq = list(params_seq)
    if len(seq) < 2:
        raise ParameterError("scaling study needs at least two parameter points")
    for f, name in (
        (lambda p: p.b / p.k, "b/k"),
        (lambda p: p.gamma / p.k, "gamma/k"),
        (lambda p: p.gamma_eff, "2 sqrt(bk) + gamma"),
    ):
        vals = [f(p) for p in seq]
        if any(v2 > v1 + 1e-15 for v1, v2 in zip(vals, vals[1:])):
            raise RegimeError(f"{name} must be nonincreasing along the sequence")
    vals = [(p.b / p.k) ** 0.1 / p.gamma_eff for p in seq]
    if any(v2 > v1 + 1e-15 for v1, v2 in zip(vals, vals[1:])):
        warnings.append(
            "(b/k)^(1/10) / gamma_eff increases along the sequence: the"
            " construction error is not subleading at these scales"
        )
    return warnings


def scaling_study(domain: Domain, shell: ShellProfile,
                  params_seq: Sequence[EnergyParams], resolution=192,
                  n_samples=2**20, seed=7) -> ScalingReport:
    """Fit the leading-order energy constant from pattern energies.

    For each parameter point: take the computed defect field as the target,
    build the optimized pattern, and evaluate its wrinkling energy
    (bending + substrate, bulk-renormalized; plus the surface part through
    the computed leading-order area deficit).  The stretching term measures
    the construction error and is reported against its own scale
    (b/k)^(1/10).  Weighted least squares with weights (b/k)^(-1/10) fits
    ratio = c1 + slope * (b/k)^(1/10).
    """
    warnings = _check_regime(params_seq)
    df = defect_field(domain, shell, resolution)
    primal = df.primal_value()
    mu_target = _grid_target(df)
    rng = np.random.default_rng(seed)
    pts_all = _stratified_domain_samples(domain, n_samples, rng)

    points = []
    for ep in params_seq:
        hp = optimal_params(ep.b, ep.k, mu_target, _domain_pts(df))
        assembly = PiecewiseHerringboneField(domain, mu_target, hp)
        out = assembly.evaluate(pts_all)
        bulk = out["bulk"]
        area = domain.area()
        dens_wr = (
            0.5 * ep.b * np.einsum("nij,nij->n", out["hess_w"], out["hess_w"])
            + 0.5 * ep.k * out["w"] ** 2
        )
        bulk_frac = float(bulk.mean())
        wrinkling = float(dens_wr[bulk].mean()) * area if bulk.any() else 0.0
        # construction-error stretching vs the local (per-square) target
        e_v = 0.5 * (out["grad_v"] + np.transpose(out["grad_v"], (0, 2, 1)))
        dev = (
            e_v
            + 0.5 * np.einsum("ni,nj->nij", out["grad_w"], out["grad_w"])
            - 0.5 * out["mu_local"]
        )
        stretching = 0.5 * float(np.einsum("nij,nij->n", dev, dev).mean()) * area
        gamma_part = ep.gamma * primal
        ratio = (wrinkling + gamma_part) / ep.gamma_eff
        points.append(
            ScalingPoint(
                params=ep, herr_params=hp, ratio=ratio,
                stretching=stretching, stretch_scale=(ep.b / ep.k) ** 0.1,
                bulk_fraction=bulk_frac,
            )
        )

    x = np.array([p.stretch_scale for p in points])
    y = np.array([p.ratio for p in points])
    wts = 1.0 / x
    A = np.column_stack([np.ones_like(x), x])
    W = np.diag(wts)
    coef, *_ = np.linalg.lstsq(W @ A, W @ y, rcond=None)
    c1, slope = float(coef[0]), float(coef[1])
    residuals = [abs(p.ratio - c1) for p in points]
    decay = None
    if all(r > 0 for r in residuals) and len(residuals) >= 2:
        lr = np.log(residuals)
        lx = np.log(x)
        decay = float(np.polyfit(lx, lr, 1)[0])
    return ScalingReport(
        points=points, c1=c1, slope=slope, residuals=residuals,
        decay_exponent=decay, regime_warnings=warnings, primal=primal,
    )


def _domain_pts(df):
    return df.grid.masked_points()


def _grid_target(df) -> TargetDefect:
    """Wrap a defect field's grid as a Lipschitz target (bilinear lookup)."""
    grid = df.grid
    mu = df.mu

    def field(pts):
        pts = np.atleast_2d(pts)
        fx = (pts[:, 0] - grid.x0) / grid.h - 0.5
        fy = (pts[:, 1] - grid.y0) / grid.h - 0.5
        i0 = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2)
        j0 = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2)
        wx = np.clip(fx - i0, 0.0, 1.0)[:, None]
        wy = np.clip(fy - j0, 0.0, 1.0)[:, None]
        comp = (
            mu[i0, j0] * (1 - wx) * (1 - wy)
            + mu[i0 + 1, j0] * wx * (1 - wy)
            + mu[i0, j0 + 1] * (1 - wx) * wy
            + mu[i0 + 1, j0 + 1] * wx * wy
        )
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = comp[:, 0]
        out[:, 0, 1] = out[:, 1, 0] = comp[:, 1]
        out[:, 1, 1] = comp[:, 2]
        return out

    return TargetDefect(field)


def _stratified_domain_samples(domain: Domain, n: int, rng):
    """Jittered-grid samples covering the domain interior."""
    (x0, y0), (x1, y1) = domain.bbox()
    m = int(np.sqrt(n * (x1 - x0) * (y1 - y0) / max(domain.area(), 1e-12)))
    mx = max(8, int(m * (x1 - x0) / max(x1 - x0, y1 - y0)))
    my = max(8, int(m * (y1 - y0) / max(x1 - x0, y1 - y0)))
    gx = (np.arange(mx)[:, None] + rng.random((mx, my))) * (x1 - x0) / mx + x0
    gy = (np.arange(my)[None, :] + rng.random((mx, my))) * (y1 - y0) / my + y0
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts[np.atleast_1d(domain.contains(pts))]
