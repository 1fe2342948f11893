"""Two-scale herringbone test fields for a constant (or slowly varying)
target defect, and the optimized parameter choices.

A herringbone superimposes twinned uni-directional wrinkles on alternating
bands of in-plane shear.  Away from the cutoff walls the construction
accommodates the target exactly:

    e(v) + (1/2) grad w (x) grad w = (1/2) mu.

The piecewise variant tiles the domain with squares, freezes the target to
its cell average, and glues the per-square fields with edge cutoffs
(``box_cutoff``).  All fields have closed-form derivatives; one sampler,
``_sample_grid``, puts either field on a grid from its closed-form values.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, RegimeError
from .geometry import Domain, _as_points

GRID_PER_WAVELENGTH = 32  # default h = l_wr / 32
_AVG_SAMPLES = 12  # per axis and lattice square, for the square's target average
_BLOCK_ROWS = 16  # grid rows per block when sampling and differencing fields
_WORKERS = len(os.sched_getaffinity(0))  # threads that share a call's row blocks
_pool_thread = threading.local()  # .marked is set on the pool's own threads


def _mark_pool_thread():
    _pool_thread.marked = True


@functools.cache
def _pool(workers):
    """The process-wide pool of ``workers`` threads, made on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="row-blocks",
                              initializer=_mark_pool_thread)


def _map_blocks(fn, items):
    """[fn(item, scratch) for item in items], spread over the row-block pool.

    With W = min(``_WORKERS``, number of items) workers, worker k runs items
    k, k + W, k + 2W, ... one after another and hands each the same scratch
    dict, which lives only for this call: a block keeps there the buffers
    the worker's next blocks reuse.  The results come back in item order.
    With one worker, or when called from a pool thread (a block that maps
    blocks of its own), the items run inline in the calling thread.  A block's
    exception ends its worker's share and reaches the caller once every
    worker has stopped (the lowest-numbered worker's, if several raise).
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers <= 1 or getattr(_pool_thread, "marked", False):
        return _run_share(fn, items)
    pool = _pool(_WORKERS)
    shares = [pool.submit(_run_share, fn, items[k::workers]) for k in range(workers)]
    wait(shares)
    out = [None] * len(items)
    for k, share in enumerate(shares):
        out[k::workers] = share.result()
    return out


def _run_share(fn, items):
    scratch = {}
    return [fn(item, scratch) for item in items]


# ----------------------------------------------------------------------
# one-dimensional profiles
# ----------------------------------------------------------------------


def profile_A(t, lambda1, lambda2):
    """One-periodic shear profile: slope lambda2/2 on [0, theta), slope
    -lambda1/2 on [theta, 1], A(0) = 0; the slopes integrate to zero."""
    if lambda1 < 0 or lambda2 <= 0:
        raise ParameterError("profile_A needs lambda2 > 0 and lambda1 >= 0")
    theta = lambda1 / (lambda1 + lambda2)
    tt = np.asarray(t, dtype=float)
    tt = tt - np.floor(tt)  # t mod 1, bit for bit as np.mod(t, 1.0)
    up = 0.5 * lambda2 * tt
    down = 0.5 * lambda2 * theta - 0.5 * lambda1 * (tt - theta)
    return np.where(tt < theta, up, down)


def profile_A_prime(t, lambda1, lambda2):
    theta = lambda1 / (lambda1 + lambda2)
    tt = np.asarray(t, dtype=float)
    tt = tt - np.floor(tt)
    return np.where(tt < theta, 0.5 * lambda2, -0.5 * lambda1)


def profile_W(t):
    """Wrinkle profile sqrt(2) cos t."""
    return np.sqrt(2.0) * np.cos(np.asarray(t, dtype=float))


def profile_V(t):
    """The 2 pi-periodic solution of V' + |W'|^2 = 1 with V(0) = 0,
    i.e. V(t) = sin(2t)/2."""
    return 0.5 * np.sin(2.0 * np.asarray(t, dtype=float))


# ----------------------------------------------------------------------
# parameters and targets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HerringboneParams:
    l_wr: float
    l_sh: float
    l_avg: float
    delta_int: float
    delta_ext: float

    def __post_init__(self):
        for name in ("l_wr", "l_sh", "l_avg", "delta_int", "delta_ext"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")

    def validate_single(self, theta):
        """Single-square constraint: delta_int < theta l_sh / 2 (vacuous for
        rank-one targets, which have no internal walls)."""
        if theta > 0 and not self.delta_int < 0.5 * theta * self.l_sh:
            raise ParameterError("delta_int must be below theta l_sh / 2")

    def validate_full(self, lam, Lam):
        """Lattice constraint: delta_int < (lam/Lam) l_sh / 4 and
        delta_ext < l_avg / 2."""
        if lam > 0 and not self.delta_int < 0.25 * (lam / Lam) * self.l_sh:
            raise ParameterError("delta_int must be below (lam/Lam) l_sh / 4")
        if not self.delta_ext < 0.5 * self.l_avg:
            raise ParameterError("delta_ext must be below l_avg / 2")


class TargetDefect:
    """Constant matrix or Lipschitz field target, with eigen-structure.

    For isotropic targets the first eigenvector defaults to e1.  Rank-one
    targets (smallest eigenvalue zero) are allowed: they produce wall-free
    uni-directional wrinkles.
    """

    def __init__(self, mu):
        if callable(mu):
            self.field = mu
            self.constant = None
        else:
            m = np.asarray(mu, dtype=float)
            if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12:
                raise ParameterError("constant target must be symmetric 2x2")
            self.constant = m
            self.field = None

    def matrix_at(self, x):
        x = _as_points(x)
        if self.constant is not None:
            return np.broadcast_to(self.constant, (len(x), 2, 2)).copy()
        vals = np.asarray(self.field(x), dtype=float)
        return vals.reshape(len(x), 2, 2)

    @staticmethod
    def eigen(m):
        """Sorted eigen-decomposition (lam1 <= lam2, eta1, eta2) with the
        e1 tie-break for isotropic matrices."""
        a, b, c = m[0, 0], m[0, 1], m[1, 1]
        lam1, lam2, diagonal = sym_eigenvalues(a, b, c)
        lam1, lam2 = lam1[()], lam2[()]
        if diagonal:
            e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
            return (lam1, lam2, e1, e2) if a <= c else (lam1, lam2, e2, e1)
        # pick the better-conditioned eigenvector row
        cand1 = np.array([b, lam1 - a])
        cand2 = np.array([lam1 - c, b])
        v1 = cand1 if np.hypot(*cand1) >= np.hypot(*cand2) else cand2
        v1 = v1 / np.hypot(*v1)
        return lam1, lam2, v1, np.array([-v1[1], v1[0]])

    def bounds(self, sample_pts=None):
        """(lam, Lam): global eigenvalue bounds (exact for constants)."""
        m = self.matrix_at(sample_pts) if self.constant is None else self.constant[None]
        lo, hi, _ = sym_eigenvalues(m[:, 0, 0], m[:, 0, 1], m[:, 1, 1])
        return float(lo.min()), float(hi.max())


def sym_eigenvalues(a, b, c):
    """Eigenvalues lo <= hi of the symmetric [[a, b], [b, c]], elementwise,
    and the diagonal gate |b| < 1e-14 (1 + |a| + |c|), where they are a and
    c; elsewhere tr / 2 -+ the discriminant in its stable hypot form."""
    diagonal = np.abs(b) < 1e-14 * (1 + np.abs(a) + np.abs(c))
    tr = a + c
    disc = np.hypot(0.5 * (a - c), b)
    lo = np.where(diagonal, np.minimum(a, c), tr / 2 - disc)
    hi = np.where(diagonal, np.maximum(a, c), tr / 2 + disc)
    return lo, hi, diagonal


def optimal_params(b, k, mu: TargetDefect, sample_pts=None) -> HerringboneParams:
    """Scale-optimized parameters:
    l_wr = (b/k)^(1/4), l_avg = l_wr^(1/5), l_sh = sqrt(l_wr l_avg),
    delta_int = l_wr, delta_ext = l_sh.

    Raises RegimeError when the validity inequality l_wr^(2/5) < lam/(4 Lam)
    fails (for rank-one targets, which carry no internal walls, only
    l_wr << 1 is required).
    """
    if b <= 0 or k <= 0:
        raise ParameterError("b and k must be positive")
    if b > k:
        raise RegimeError("requires b <= k")
    l_wr = (b / k) ** 0.25
    l_avg = l_wr ** 0.2
    l_sh = np.sqrt(l_wr * l_avg)
    lam, Lam = mu.bounds(sample_pts)
    if lam > 1e-14 * max(Lam, 1.0):
        if not l_wr ** 0.4 < 0.25 * lam / Lam:
            raise RegimeError("validity inequality l_wr^(2/5) < lam/(4 Lam) fails")
    else:
        # rank-one targets carry no internal walls; only the scale ordering
        # l_wr << l_sh << l_avg matters
        if not l_wr ** 0.4 < 0.5:
            raise RegimeError("l_wr too large for a wall-free pattern")
    return HerringboneParams(
        l_wr=l_wr, l_sh=l_sh, l_avg=l_avg, delta_int=l_wr, delta_ext=l_sh
    )


# ----------------------------------------------------------------------
# cutoffs
# ----------------------------------------------------------------------


def smoothstep(u):
    """Quintic smoothstep on [0, 1] (C^2: s'' vanishes at both ends)."""
    u = np.clip(u, 0.0, 1.0)
    # u**3 only strictly inside (0, 1): pow(0, 3) is slow in libm, and it
    # is 0 (pow(1, 3) is 1), the value the copy already holds
    u3 = np.power(u, 3, out=u.copy(), where=(u > 0.0) & (u < 1.0))
    return u3 * (10.0 - 15.0 * u + 6.0 * u**2)


def smoothstep_d1(u):
    uu = np.clip(u, 0.0, 1.0)
    v = 30.0 * uu**2 - 60.0 * uu**3 + 30.0 * uu**4
    return np.where((u > 0) & (u < 1), v, 0.0)


def smoothstep_d2(u):
    uu = np.clip(u, 0.0, 1.0)
    v = 60.0 * uu - 180.0 * uu**2 + 120.0 * uu**3
    return np.where((u > 0) & (u < 1), v, 0.0)


def _ramp_arg(d, lo, hi):
    """Argument u of the C^2 ramp in d from 0 at lo to 1 at hi: the ramp is
    ``smoothstep(u)`` and its derivatives in d are ``_ramp_slopes(u, lo, hi)``."""
    return (np.asarray(d, dtype=float) - lo) / (hi - lo)


def _ramp_slopes(u, lo, hi):
    """First and second derivatives in d of the ramp at argument u."""
    width = hi - lo
    return smoothstep_d1(u) / width, smoothstep_d2(u) / width**2


def box_cutoff(x, origin, size, width):
    """Separable C^2 cutoff of the box origin + [0, size] at points x (n, 2),
    the product over the axes of the ramp from 0 to 1 as the distance to the
    nearer side goes from width / 2 to width; each argument is a number or
    one per axis.  Returns the ramp arguments and their smoothsteps, (n, 2)
    each, and the cutoff (n,)."""
    t, width = x - origin, np.asarray(width, dtype=float)
    args = _ramp_arg(np.minimum(t, size - t), 0.5 * width, width)
    vals = smoothstep(args)
    return args, vals, vals[:, 0] * vals[:, 1]


def _stack(comps):
    """The (n, 2) or (n, 2, 2) array whose [:, i] or [:, i, j] is the
    per-point vector comps[i] or comps[i][j]."""
    return np.ascontiguousarray(np.moveaxis(np.array(comps), -1, 0))


# ----------------------------------------------------------------------
# the single-square herringbone (analytic evaluator)
# ----------------------------------------------------------------------


def _empty_values(n):
    """Buffers v (2, n), w (n,) and bulk (n,) for ``_values_into``."""
    return np.empty((2, n)), np.empty(n), np.empty(n, dtype=bool)


class HerringboneField:
    """Closed-form herringbone displacements for a constant target.

    ``evaluate`` gives v, w and all first/second derivatives analytically;
    grids are sampled through ``_values_into``, which fills v, w and the
    bulk flag alone from the same formulas.
    """

    def __init__(self, mu_matrix, params: HerringboneParams, single=True):
        m = np.asarray(mu_matrix, dtype=float)
        lam1, lam2, eta1, eta2 = TargetDefect.eigen(m)
        if lam1 < -1e-12 or lam2 <= 0:
            raise ParameterError("target defect must be positive semidefinite, nonzero")
        lam1 = max(lam1, 0.0)
        self.mu = m
        self.lam1, self.lam2 = lam1, lam2
        self.eta1, self.eta2 = eta1, eta2
        self.tr = lam1 + lam2
        self.theta = lam1 / (lam1 + lam2)
        self.params = params
        if single:
            params.validate_single(self.theta)
        self.rank_one = self.theta < 1e-12
        # band geometry
        self.mdir = (eta2 - eta1) / np.sqrt(2.0)  # wall normal
        self.l_sh = params.l_sh
        self.l_wr = params.l_wr
        self.d_int = params.delta_int
        self.amp_w = np.sqrt(self.tr) * self.l_wr  # w_wr = amp_w sqrt(2) cos t
        self.amp_v = 0.5 * self.tr * self.l_wr  # v_wr = amp_v V(t) eta

    # -- band helpers ---------------------------------------------------
    def _band(self, x, sign=False):
        """(eta at x as two component vectors, distance to the jump set,
        sign of d(dist)/ds); the sign, which only the cutoff's gradient
        reads, is None unless ``sign`` is true."""
        s = x @ self.mdir
        if self.rank_one:
            dist = np.full(len(x), np.inf)
            dsign = np.zeros(len(x)) if sign else None
            return [self.eta2[0], self.eta2[1]], dist, dsign
        u = np.mod(s, self.l_sh)
        in_first = u < self.theta * self.l_sh
        eta = [np.where(in_first, self.eta1[k], self.eta2[k]) for k in range(2)]
        d0 = np.minimum(u, self.l_sh - u)
        d1 = np.abs(u - self.theta * self.l_sh)
        dist = np.minimum(d0, d1)
        if not sign:
            return eta, dist, None
        # sign of the derivative of dist with respect to s
        up0 = (u < 0.5 * self.l_sh) & (d0 <= d1)
        up1 = (u < self.theta * self.l_sh) & (d1 < d0)
        dsign = np.where(d0 <= d1, np.where(up0, 1.0, -1.0), np.where(up1, -1.0, 1.0))
        return eta, dist, dsign

    # -- the three pieces: values, then derivatives ------------------------
    def _cutoff(self, band):
        """Internal cutoff at points with ``band = self._band(x)``:
        (ramp argument, chi); the argument is None for rank-one targets,
        whose cutoff is 1."""
        if self.rank_one:
            return None, np.ones(len(band[1]))
        arg = _ramp_arg(band[1], 0.5 * self.d_int, self.d_int)
        return arg, smoothstep(arg)

    def _shear(self, x):
        """Shear displacement v_sh at x: (profile argument, v_sh as two
        components); both are None for rank-one targets, which have none."""
        if self.rank_one:
            return None, None
        arg = (x @ (self.eta2 - self.eta1)) / (np.sqrt(2.0) * self.l_sh)
        a = np.sqrt(2.0) * self.l_sh * profile_A(arg, self.lam1, self.lam2)
        e_sum = self.eta2 + self.eta1
        return arg, [a * e_sum[0], a * e_sum[1]]

    def _wrinkle(self, x, eta):
        """Wrinkle before cutoffs at x, with eta from ``self._band(x)``:
        (phase t, cos t, v_wr as two component vectors, w_wr)."""
        t = (x[:, 0] * eta[0] + x[:, 1] * eta[1]) / self.l_wr
        ct = np.cos(t)
        pv = self.amp_v * profile_V(t)
        return t, ct, [pv * eta[0], pv * eta[1]], self.amp_w * np.sqrt(2.0) * ct

    # -- assembled fields -------------------------------------------------
    def _values_into(self, x, v, w, bulk, band=None):
        """Write the assembled v (two component rows), w and bulk flag at x
        into v, w and bulk; returns the pieces ``_fields`` differentiates."""
        band = self._band(x) if band is None else band
        chi_arg, chi = self._cutoff(band)
        sh_arg, v_sh = self._shear(x)
        t, ct, v_wr, w_wr = self._wrinkle(x, band[0])
        for i in range(2):
            np.multiply(v_wr[i], chi, out=v[i])
            if v_sh is not None:
                v[i] += v_sh[i]
        np.multiply(w_wr, chi, out=w)
        np.greater_equal(band[1], self.d_int, out=bulk)
        return chi_arg, chi, sh_arg, t, ct, v_wr, w_wr

    def _fields(self, x):
        """v, w, bulk and chi at x, and grad v, grad w, hess w, as per-point
        components (v[i], [i][j]).  grad w_wr = g eta, hess w_wr = c eta (x)
        eta and grad v_wr = s eta (x) eta (eta is constant in each band; the
        cutoff removes the bands' jump set from the support), grad v_sh =
        A' (eta2 + eta1) (x) (eta2 - eta1), grad chi = chi' mdir and hess
        chi = chi'' mdir (x) mdir; rank-one targets have no v_sh, chi."""
        band = self._band(x, sign=True)
        v, w, bulk = _empty_values(len(x))
        chi_arg, chi, sh_arg, t, ct, v_wr, w_wr = self._values_into(x, v, w, bulk, band)
        eta = band[0]
        g = -self.amp_w * np.sqrt(2.0) * np.sin(t) / self.l_wr
        c = -self.amp_w * np.sqrt(2.0) * ct / self.l_wr**2
        s = self.amp_v * (np.cos(2.0 * t) / self.l_wr)
        gw_wr = [g * eta[0], g * eta[1]]
        grad_w = [gw_wr[0] * chi, gw_wr[1] * chi]
        grad_v = [[s * (eta[i] * eta[j]) * chi for j in range(2)] for i in range(2)]
        hess_w = [[c * (eta[i] * eta[j]) * chi for j in range(2)] for i in range(2)]
        if self.rank_one:
            return v, w, bulk, chi, grad_v, grad_w, hess_w
        d1, d2 = _ramp_slopes(chi_arg, 0.5 * self.d_int, self.d_int)
        d1 = d1 * band[2]
        gchi = [d1 * self.mdir[0], d1 * self.mdir[1]]
        a_der = profile_A_prime(sh_arg, self.lam1, self.lam2)
        e_sum, e_dif = self.eta2 + self.eta1, (self.eta2 - self.eta1) / np.sqrt(2.0)
        for i in range(2):
            grad_w[i] += w_wr * gchi[i]
            for j in range(2):
                grad_v[i][j] += a_der * (e_sum[i] * e_dif[j]) * np.sqrt(2.0)
                grad_v[i][j] += v_wr[i] * gchi[j]
                hess_w[i][j] += gw_wr[i] * gchi[j]
                hess_w[i][j] += gchi[i] * gw_wr[j]
                hess_w[i][j] += w_wr * (d2 * (self.mdir[i] * self.mdir[j]))
        return v, w, bulk, chi, grad_v, grad_w, hess_w

    def evaluate(self, x):
        """All assembled fields at points x: dict with v, grad_v, w, grad_w,
        hess_w, chi (internal cutoff), wall mask."""
        v, w, bulk, chi, grad_v, grad_w, hess_w = self._fields(_as_points(x))
        return {
            "v": v.T, "grad_v": _stack(grad_v), "w": w, "grad_w": _stack(grad_w),
            "hess_w": _stack(hess_w), "chi_int": chi, "bulk": bulk,
        }

    def strain_deviation(self, x):
        """e(v) + (1/2) grad w (x) grad w - (1/2) mu, from closed forms."""
        out = self.evaluate(x)
        g = out["grad_v"]
        gw = out["grad_w"]
        e_v = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        return e_v + 0.5 * np.einsum("ni,nj->nij", gw, gw) - 0.5 * self.mu[None, :, :]


def _eroded(mask):
    """Erode a boolean mask by two cells so centered stencils stay on valid samples."""
    out = mask.copy()
    for _ in range(2):
        shrunk = out.copy()
        shrunk[1:, :] &= out[:-1, :]
        shrunk[:-1, :] &= out[1:, :]
        shrunk[:, 1:] &= out[:, :-1]
        shrunk[:, :-1] &= out[:, 1:]
        out = shrunk
    return out


@dataclass
class DisplacementField:
    """Sampled displacements on a square-cell grid with derivative stencils.

    u is (nx, ny, 2) and w (nx, ny), row i and column j at the cell centre
    origin + ((i, j) + 1/2) h.  ``_sample_grid`` stores u as C-contiguous
    planes (2, nx, ny) and hands out their ``np.moveaxis`` view; any (nx, ny, 2)
    array works as well.  The grid must resolve the wrinkles: h <= l_wr / 16.
    """

    origin: tuple
    h: float
    u: np.ndarray  # (nx, ny, 2)
    w: np.ndarray  # (nx, ny)
    domain_mask: np.ndarray
    bulk_mask: np.ndarray
    params: Optional[HerringboneParams] = None

    @property
    def shape(self):
        return self.w.shape

    def stencil_bulk_mask(self):
        """Bulk mask eroded so centered stencils never read wall samples."""
        return _eroded(self.bulk_mask)

    def points(self):
        """(X, Y), the cell centres' coordinates, each (nx, ny)."""
        nx, ny = self.w.shape
        c = _cell_centres(self.origin, self.h, ny, 0, nx)
        return c[..., 0], c[..., 1]

    def _d(self, arr, axis):
        """Centered first difference, one-sided at the array edges."""
        return np.gradient(arr, self.h, axis=axis, edge_order=2)

    def grad_w(self):
        return np.stack([self._d(self.w, 0), self._d(self.w, 1)], axis=-1)

    def hess_w(self):
        wx = self._d(self.w, 0)
        wy = self._d(self.w, 1)
        return np.stack(
            [self._d(wx, 0), 0.5 * (self._d(wx, 1) + self._d(wy, 0)), self._d(wy, 1)],
            axis=-1,
        )  # components 11, 12, 22

    def sym_grad_u(self):
        ux_x = self._d(self.u[..., 0], 0)
        ux_y = self._d(self.u[..., 0], 1)
        uy_x = self._d(self.u[..., 1], 0)
        uy_y = self._d(self.u[..., 1], 1)
        return np.stack([ux_x, 0.5 * (ux_y + uy_x), uy_y], axis=-1)


def _cell_centres(origin, h, ny, r0, r1, out=None):
    """The cell centres origin + ((i, j) + 1/2) h of rows r0 <= i < r1 of a
    grid ny cells wide, as an (r1 - r0, ny, 2) array, written into ``out``
    when given."""
    out = np.empty((r1 - r0, ny, 2)) if out is None else out
    out[..., 0] = (origin[0] + (np.arange(r0, r1) + 0.5) * h)[:, None]
    out[..., 1] = origin[1] + (np.arange(ny) + 0.5) * h
    return out


def _grid_for(lo, hi, l_wr, h=None):
    h = h if h is not None else l_wr / GRID_PER_WAVELENGTH
    if h > l_wr / 16 + 1e-15:
        raise ParameterError("grid must resolve the wrinkles: h <= l_wr/16")
    nx = max(2, int(np.round((hi[0] - lo[0]) / h)))
    ny = max(2, int(np.round((hi[1] - lo[1]) / h)))
    return h, nx, ny


def _sample_grid(evaluator, lo, hi, params: HerringboneParams, h=None,
                 domain: Optional[Domain] = None) -> DisplacementField:
    """The sampler of both fields: ``evaluator._values_into`` (v, w and
    bulk, no derivatives) on the cell-centred grid over the box lo, hi, in
    blocks of ``_BLOCK_ROWS`` rows dealt over one thread per CPU
    (``_map_blocks``).  Each worker's blocks fill one reused point buffer
    and write only their own rows of v's planes (2, nx, ny), returned as
    u (nx, ny, 2).  With a ``domain``, a block also tests its centres with
    the elementwise ``domain.contains`` and zeroes u, w and bulk off it.
    So nothing depends on the number of workers."""
    h, nx, ny = _grid_for(lo, hi, params.l_wr, h)
    v = np.empty((2, nx, ny))
    w = np.empty((nx, ny))
    bulk = np.empty((nx, ny), dtype=bool)
    inside = np.ones((nx, ny), dtype=bool)

    def sample(r0, scratch):
        if not scratch:
            scratch["pts"] = np.empty((_BLOCK_ROWS, ny, 2))
        r1 = min(r0 + _BLOCK_ROWS, nx)
        pts = _cell_centres(lo, h, ny, r0, r1, scratch["pts"][: r1 - r0]).reshape(-1, 2)
        vb, wb, bb = v[:, r0:r1].reshape(2, -1), w[r0:r1].reshape(-1), bulk[r0:r1].reshape(-1)
        evaluator._values_into(pts, vb, wb, bb)
        if domain is not None:
            ins = inside[r0:r1].reshape(-1)
            ins[:] = domain.contains(pts)
            vb[:, ~ins], wb[~ins] = 0.0, 0.0
            bb &= ins

    _map_blocks(sample, range(0, nx, _BLOCK_ROWS))
    return DisplacementField(origin=lo, h=h, u=np.moveaxis(v, 0, -1), w=w,
                             domain_mask=inside, bulk_mask=bulk, params=params)


def herringbone(square, mu, params: HerringboneParams, h=None) -> DisplacementField:
    """Single herringbone adapted to a constant target on the square
    ((x0, y0), side), sampled by ``_sample_grid``."""
    target = mu if isinstance(mu, TargetDefect) else TargetDefect(mu)
    if target.constant is None:
        raise ParameterError("single-square construction needs a constant target")
    (x0, y0), side = square
    field_ = HerringboneField(target.constant, params, single=True)
    return _sample_grid(field_, (x0, y0), (x0 + side, y0 + side), params, h)


class PiecewiseHerringboneField:
    """Lattice of per-square herringbones glued by edge cutoffs.

    Squares Q_alpha = alpha l_avg + [0, l_avg)^2 tile the plane; each square
    carries the cell average of the target and its own closed-form field,
    multiplied by a separable C^2 edge cutoff.  ``by_square`` walks points
    square by square; ``evaluate`` scatters what it yields.
    """

    def __init__(self, domain: Domain, mu: TargetDefect, params: HerringboneParams):
        params.validate_full(*mu.bounds(_domain_samples(domain)))
        self.domain = domain
        self.params = params
        self.l_avg = params.l_avg
        (x0, y0), (x1, y1) = domain.bbox()
        i0, i1 = int(np.floor(x0 / self.l_avg)), int(np.ceil(x1 / self.l_avg))
        j0, j1 = int(np.floor(y0 / self.l_avg)), int(np.ceil(y1 / self.l_avg))
        self.i0, self.j0 = i0, j0
        self.nrows = j1 - j0
        self.cells = {}
        offs = (np.arange(_AVG_SAMPLES) + 0.5) / _AVG_SAMPLES
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        # every square's _AVG_SAMPLES^2 samples, square (i, j) after square
        # (i, j - 1), tested by one contains call
        ii, jj = np.meshgrid(np.arange(i0, i1), np.arange(j0, j1), indexing="ij")
        qx, qy = ii.reshape(-1, 1) * self.l_avg, jj.reshape(-1, 1) * self.l_avg
        sub = np.stack([qx + ox.ravel() * self.l_avg, qy + oy.ravel() * self.l_avg], axis=-1)
        ins = domain.contains(sub.reshape(-1, 2)).reshape(len(sub), -1)
        for q in np.flatnonzero(ins.any(axis=1)):
            m_avg = mu.matrix_at(sub[q][ins[q]]).mean(axis=0)
            if m_avg[0, 0] + m_avg[1, 1] <= 1e-14:
                continue  # vanishing target: zero field on this square
            self.cells[(int(ii.flat[q]), int(jj.flat[q]))] = {
                "origin": np.array([qx[q, 0], qy[q, 0]]),
                "field": HerringboneField(m_avg, params, single=False),
                "mu": m_avg,
            }

    def chi_ext(self, x, origin):
        """Edge cutoff (``box_cutoff``) of the square at `origin`: its value
        (n,), and its gradient and Hessian as lists of per-point components
        ([i] and [i][j])."""
        d_ext = self.params.delta_ext
        args, vals, chi = box_cutoff(x, origin, self.l_avg, d_ext)
        d1s, d2s = _ramp_slopes(args, 0.5 * d_ext, d_ext)
        t = x - origin
        d1s = d1s * np.where(t < self.l_avg - t, 1.0, -1.0)
        grad = [d1s[:, 0] * vals[:, 1], vals[:, 0] * d1s[:, 1]]
        mixed = d1s[:, 0] * d1s[:, 1]
        hess = [[d2s[:, 0] * vals[:, 1], mixed], [mixed, vals[:, 0] * d2s[:, 1]]]
        return chi, grad, hess

    def cell_of(self, x):
        x = _as_points(x)
        i = np.floor(x[:, 0] / self.l_avg).astype(int)
        j = np.floor(x[:, 1] / self.l_avg).astype(int)
        return i, j

    def _squares(self, x):
        """Group the points x by lattice square, sorting them once: yields
        (indices, x[indices], cell) for each square that carries a field."""
        i, j = self.cell_of(x)
        stride = self.nrows + 2
        keys = (i - self.i0).astype(np.int64) * stride + (j - self.j0)
        order = np.argsort(keys, kind="stable")
        xs = x[order]
        cuts = np.flatnonzero(np.diff(keys[order])) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(x)]):
            key = int(keys[order[a]])
            cell = self.cells.get((key // stride + self.i0, key % stride + self.j0))
            if cell is not None:
                yield order[a:b], xs[a:b], cell

    def _values_into(self, x, v, w, bulk):
        """Write the glued v (two component rows), w and bulk flag at x
        into v, w and bulk."""
        v[:], w[:], bulk[:] = 0.0, 0.0, False
        for idx, pts, cell in self._squares(x):
            fv, fw, fbulk = _empty_values(len(idx))
            cell["field"]._values_into(pts, fv, fw, fbulk)
            chi = box_cutoff(pts, cell["origin"], self.l_avg, self.params.delta_ext)[2]
            v[:, idx] = fv * chi
            w[idx] = fw * chi
            bulk[idx] = fbulk & (chi > 1.0 - 1e-12)

    def by_square(self, x):
        """Walk the points x square by square.  Yields (indices, fields)
        for each square that holds points and carries a field: the glued
        v and grad_w as component lists [i], grad_v and hess_w as [i][j],
        w, bulk, the edge cutoff chi_ext and the square's target mu_local
        (2, 2), each at the points x[indices]."""
        for idx, pts, cell in self._squares(x):
            v, w, bulk, _, gv, gw, hw = cell["field"]._fields(pts)
            chi, gchi, hchi = self.chi_ext(pts, cell["origin"])
            yield idx, {
                "v": [v[i] * chi for i in range(2)], "w": w * chi,
                "bulk": bulk & (chi > 1.0 - 1e-12), "chi_ext": chi, "mu_local": cell["mu"],
                "grad_v": [[gv[i][j] * chi + v[i] * gchi[j] for j in range(2)] for i in range(2)],
                "grad_w": [gw[i] * chi + w * gchi[i] for i in range(2)],
                "hess_w": [[hw[i][j] * chi + gw[i] * gchi[j] + gchi[i] * gw[j] + w * hchi[i][j]
                            for j in range(2)] for i in range(2)],
            }

    def evaluate(self, x):
        """Assembled fields at points x (same keys as HerringboneField plus
        'mu_local' and 'chi_ext'), scattered from ``by_square``."""
        x = _as_points(x)
        n = len(x)
        out = {
            "v": np.zeros((n, 2)), "grad_v": np.zeros((n, 2, 2)),
            "w": np.zeros(n), "grad_w": np.zeros((n, 2)),
            "hess_w": np.zeros((n, 2, 2)), "bulk": np.zeros(n, dtype=bool),
            "mu_local": np.zeros((n, 2, 2)), "chi_ext": np.zeros(n),
        }
        for idx, f in self.by_square(x):
            for key, val in f.items():
                out[key][idx] = _stack(val) if isinstance(val, list) else val
        return out


def _domain_samples(domain):
    """The domain's points of the 33 x 33 lattice over its bounding box."""
    (x0, y0), (x1, y1) = domain.bbox()
    xs = np.linspace(x0, x1, 33)
    ys = np.linspace(y0, y1, 33)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    return pts[domain.contains(pts)]


def piecewise_herringbone(domain: Domain, mu, params: HerringboneParams,
                          h=None) -> DisplacementField:
    """Glued lattice of herringbones over the domain, sampled by
    ``_sample_grid`` on the grid over its bounding box, with the domain
    mask of the cell centres."""
    target = mu if isinstance(mu, TargetDefect) else TargetDefect(mu)
    assembly = PiecewiseHerringboneField(domain, target, params)
    lo, hi = domain.bbox()
    return _sample_grid(assembly, lo, hi, params, h, domain)
