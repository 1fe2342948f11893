"""The acceptance suite: nine desk-scale checks with pinned tolerances.

Each criterion returns (name, passed, detail).  The `verify` CLI subcommand
prints one pass/fail line per criterion and exits nonzero on any failure;
tests/test_acceptance.py asserts them individually.
"""

from __future__ import annotations

import time

import numpy as np

from . import airy as airy_mod
from . import characteristics as chars
from .energy import (
    AnalyticScalarField,
    EnergyParams,
    energy,
    interpolation_check,
    relative_gap,
    scaling_study,
    strain,
    _frob2_sym,
)
from .geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle, interior_points, rot90
from .grids import MaskedGrid
from .herringbone import TargetDefect, box_cutoff, herringbone, optimal_params
from .rulings import UDecomposition
from .shell import ShellProfile


# ----------------------------------------------------------------------
# reference closed forms, coded directly from the per-shape formulas
# ----------------------------------------------------------------------


def _ref_phi_plus_ellipse(a, b, pts):
    return 0.5 * (b * b + (1 - b * b / (a * a)) * pts[:, 0] ** 2)


def _ref_phi_plus_disc(R, pts):
    return np.full(len(pts), 0.5 * R * R)


def _ref_phi_plus_halfdisc(R, pts):
    # paper placement: disc center (0, R), region x2 > R, rays from origin
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    p = R / np.sin(th)
    q = 2 * R * np.sin(th)
    return 0.5 * (p + q) * r - 0.5 * p * q


def _ref_phi_plus_rectangle(a, b, pts):
    out = np.empty(len(pts))
    m = a - b
    x1, x2 = pts[:, 0], pts[:, 1]
    band = np.abs(x1) <= m
    out[band] = 0.5 * (x1[band] ** 2 + b * b)
    # blank triangles: affine through the three touch points
    alpha = 0.5 * a * a - a * (a - b)
    beta = -(a - b)
    left = (x1 < -m) & (np.abs(x2) <= x1 + a + 1e-14)
    right = (x1 > m) & (np.abs(x2) <= a - x1 + 1e-14)
    out[left] = alpha + beta * x1[left]
    out[right] = alpha - beta * x1[right]
    # corner triangles: chords parallel to the hypotenuse from (a-b, b) to
    # (a, 0); interpolate the boundary values at the chord's two ends
    rest = ~(band | left | right)
    xr = np.abs(x1[rest])
    yr = np.abs(x2[rest])
    u = a - xr  # distance to the vertical side
    v = b - yr  # distance to the horizontal side
    pa = 0.5 * (a * a + (yr - u) ** 2)  # value where the chord hits x = +-a
    pb = 0.5 * ((xr - v) ** 2 + b * b)  # value where it hits y = +-b
    out[rest] = (v * pa + u * pb) / (u + v)
    return out


def _ref_phi_plus_tangential(tri, pts):
    # the incircle from the side lengths: l_i opposite vertex v_i, centre
    # sum l_i v_i / sum l_i, radius 2 area / perimeter
    v = np.asarray(tri, dtype=float)
    ell = np.hypot(*(np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)).T)
    c = ell @ v / ell.sum()
    (x1, y1), (x2, y2) = v[1] - v[0], v[2] - v[0]
    r = abs(x1 * y2 - x2 * y1) / ell.sum()
    loc = pts - c
    out = np.full(len(pts), 0.5 * r * r)
    for a_i in v - c:
        mag = np.hypot(*a_i)
        ahat, alpha = a_i / mag, 2 * np.arcsin(r / mag)
        s = loc @ ahat
        w = (mag - s) * np.tan(alpha / 2)
        in_tri = (s > r * np.sin(alpha / 2) - 1e-12) & (
            np.abs(loc @ rot90(ahat)) <= w + 1e-12
        )
        out[in_tri] = 0.5 * (
            s[in_tri] ** 2
            + np.tan(alpha / 2) ** 2 * (mag - s[in_tri]) ** 2
        )
    # placement covariance back to the original frame
    return out + loc @ c + 0.5 * c @ c


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def criterion_1():
    """Closed-form potentials at 1e4 random interior points to 1e-9, and the
    generic boundary-combination minimizer against the ellipse closed form."""
    t0 = time.time()
    E = Ellipse(2.0, 1.0)
    T = ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)])
    # each shape's closed form, with the seed of its 1e4 points
    cases = [
        (E, lambda pts: _ref_phi_plus_ellipse(2, 1, pts), 11),
        (Disc(1.0), lambda pts: _ref_phi_plus_disc(1.0, pts), 12),
        (HalfDisc(1.0, center=(0.0, 1.0), orientation=np.pi / 2),
         lambda pts: _ref_phi_plus_halfdisc(1.0, pts), 13),
        (Rectangle(2.0, 1.0), lambda pts: _ref_phi_plus_rectangle(2.0, 1.0, pts), 14),
        (T, lambda pts: _ref_phi_plus_tangential(T.vertices, pts), 15),
    ]
    worst = 0.0
    for dom, ref, seed in cases:
        pts = interior_points(dom, 10_000, seed)
        worst = max(worst, np.abs(airy_mod.phi_plus(dom, pts) - ref(pts)).max())

    # generic verifier on a 33x33 interior lattice of the ellipse
    xs = np.linspace(-2, 2, 35)[1:-1]
    ys = np.linspace(-1, 1, 35)[1:-1]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid_pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    keep = E.contains(grid_pts, tol=-1e-6)
    grid_pts = grid_pts[keep]
    roof = airy_mod.convex_roof(E, grid_pts, 512)
    roof_err = np.abs(roof - _ref_phi_plus_ellipse(2, 1, grid_pts)).max()
    elapsed = time.time() - t0
    passed = worst < 1e-9 and roof_err < 5e-4 and elapsed < 30.0
    detail = (
        f"closed-form max err {worst:.3e} (tol 1e-9); "
        f"generic minimizer err {roof_err:.3e} (tol 5e-4); {elapsed:.1f} s"
    )
    return "1 closed-form potential agreement", passed, detail


def _rk4_shoot(rho, K_of_t, L, y0, dy0):
    """Independent oracle: integrate (rho lam)'' = -2 rho K by 4000 RK4 steps."""
    n = 4000
    t = np.linspace(0.0, L, n + 1)
    h = t[1] - t[0]
    y, dy = y0, dy0
    ys = [y]
    for i in range(n):
        def f(ti, state):
            yy, dd = state
            return np.array([dd, -2.0 * rho(ti) * K_of_t(ti)])

        state = np.array([y, dy])
        k1 = f(t[i], state)
        k2 = f(t[i] + h / 2, state + h / 2 * k1)
        k3 = f(t[i] + h / 2, state + h / 2 * k2)
        k4 = f(t[i] + h, state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        y, dy = state
        ys.append(y)
    return t, np.asarray(ys)


def criterion_2():
    """Characteristic ODE exactness against closed forms and RK4 shooting."""
    t0 = time.time()
    # positive ellipse
    E = Ellipse(2.0, 1.0)
    sh = ShellProfile.constant(1.0)
    df = chars.defect_field(E, sh, 256)
    pts = df.grid.points()
    lam_exact = np.maximum((1 - pts[:, 0] ** 2 / 4) - pts[:, 1] ** 2, 0.0).reshape(df.lam.shape)
    ok_cells = df.grid.mask & ~df.uncovered & E.contains(pts, tol=-1e-12).reshape(df.lam.shape)
    err_e = np.abs(df.lam - lam_exact)[ok_cells].max()

    # negative disc
    D = Disc(1.0)
    shn = ShellProfile.constant(-1.0)
    dfd = chars.defect_field(D, shn, 256)
    ptsd = dfd.grid.points()
    lam_exact_d = ((ptsd[:, 0] ** 2 + ptsd[:, 1] ** 2) / 3.0).reshape(dfd.lam.shape)
    okd = dfd.grid.mask & ~dfd.uncovered & D.contains(ptsd, tol=-1e-12).reshape(dfd.lam.shape)
    err_d = np.abs(dfd.lam - lam_exact_d)[okd].max()

    # half-disc ray value via the line solver
    H = HalfDisc(1.0, center=(0.0, 1.0), orientation=np.pi / 2)
    af = airy_mod.solve_dual(H, sh)
    chart = af.charts[0]
    line = chart.line_at(np.pi / 2)
    sol = chars.solve_bvp(line, sh.curvature)
    lam_15 = sol.lam_at(0.5)  # u = r - 1 = 0.5 on the ray from r=1 to r=2
    err_h = abs(lam_15 - 0.25)

    # RK4 shooting oracles
    # ellipse chord at x1 = 0: lam'' = -2, lam(+-1) = 0 -> lam(0) = 1
    t, y_a = _rk4_shoot(lambda t: 1.0, lambda t: 1.0, 2.0, 0.0, 0.0)
    t, y_b = _rk4_shoot(lambda t: 1.0, lambda t: 0.0, 2.0, 0.0, 1.0)
    c = -y_a[-1] / y_b[-1]
    lam_mid = y_a[len(y_a) // 2] + c * y_b[len(y_b) // 2]
    rk4_err = abs(lam_mid - 1.0)
    # half-disc ray: rho = r on [1, 2]
    t, y_a = _rk4_shoot(lambda u: 1.0 + u, lambda u: 1.0, 1.0, 0.0, 0.0)
    t, y_b = _rk4_shoot(lambda u: 1.0 + u, lambda u: 0.0, 1.0, 0.0, 1.0)
    c = -y_a[-1] / y_b[-1]
    mid = len(y_a) // 2
    rk4_h = abs((y_a[mid] + c * y_b[mid]) / 1.5 - 0.25)
    # negative disc ray: (r lam)'' = 2 r, zero data -> lam(0.9) = 0.27
    t, y = _rk4_shoot(lambda r: r, lambda r: -1.0, 0.9, 0.0, 0.0)
    rk4_d = abs(y[-1] / 0.9 - 0.27)

    elapsed = time.time() - t0
    worst = max(err_e, err_d, err_h)
    worst_rk4 = max(rk4_err, rk4_h, rk4_d)
    passed = worst < 1e-4 and worst_rk4 < 1e-6 and elapsed < 10.0
    detail = (
        f"grid errs: ellipse {err_e:.2e}, neg disc {err_d:.2e}, "
        f"half-disc ray {err_h:.2e} (tol 1e-4); RK4 oracle max dev {worst_rk4:.1e}; "
        f"{elapsed:.1f} s"
    )
    return "2 characteristic ODE exactness", passed, detail


def criterion_3():
    """Strong duality on five catalog cases at 256^2 and 512^2.

    The negative ellipse has no closed-form optimum, so only its gap is
    checked.
    """
    t0 = time.time()
    targets = [
        ("pos ellipse", Ellipse(2.0, 1.0), 1.0, np.pi / 2),
        ("pos disc", Disc(1.0), 1.0, np.pi / 4),
        ("neg disc", Disc(1.0), -1.0, np.pi / 12),
        ("neg rectangle", Rectangle(2.0, 1.0), -1.0, 1.0),
        ("neg ellipse", Ellipse(2.0, 1.0), -1.0, None),
    ]
    details = []
    passed = True
    for name, dom, kval, ref in targets:
        sh = ShellProfile.constant(kval)
        gaps = {}
        for res in (256, 512):
            df = chars.defect_field(dom, sh, res)
            p = df.primal_value()
            d = airy_mod.dual_value(dom, sh, df.airy, res)
            gaps[res] = relative_gap(p, d)
            if res == 512 and ref is not None and relative_gap(p, ref) > 3e-3:
                passed = False
        ok = gaps[256] < 1e-2 and gaps[512] < 3e-3
        passed = passed and ok
        details.append(f"{name}: {gaps[256]:.1e}/{gaps[512]:.1e}")
    elapsed = time.time() - t0
    passed = passed and elapsed < 120.0
    return (
        "3 strong duality at desk scale",
        passed,
        "gaps 256/512: " + "; ".join(details) + f" (tol 1e-2/3e-3); {elapsed:.1f} s",
    )


def criterion_4():
    """Weak-form constraint residual against 64 interior bumps."""
    t0 = time.time()
    E = Ellipse(2.0, 1.0)
    sh = ShellProfile.constant(1.0)
    norm_k = np.pi * 2.0  # ||K||_L1 = area of the ellipse
    res = {}
    for n in (256, 512):
        df = chars.defect_field(E, sh, n)
        res[n] = chars.curlcurl_residual(df, sh, 8)
    order = np.log2(res[256] / res[512])
    elapsed = time.time() - t0
    passed = bool(res[256] < 1e-3 * norm_k and res[512] <= 0.5 * res[256] and order >= 1.5)
    detail = (
        f"residual 256: {res[256]:.2e} (tol {1e-3 * norm_k:.2e}), "
        f"512: {res[512]:.2e}, order {order:.2f}; {elapsed:.1f} s"
    )
    return "4 weak-form constraint residual", passed, detail


def criterion_5():
    """Non-uniqueness on the positive disc: two chord angles give defect
    fields that differ while matching in optimal value and feasibility.

    For constant curvature the scalar density is the same for every parallel
    decomposition (a closed-form fact), so the fields are compared as
    matrix densities.
    """
    t0 = time.time()
    D = Disc(1.0)
    sh = ShellProfile.constant(1.0)
    norm_k = np.pi
    fields = {}
    for ang in (0.0, np.pi / 4):
        df = chars.defect_field(D, sh, 256, UDecomposition(kind="parallel", angle=ang))
        p = df.primal_value()
        d = airy_mod.dual_value(D, sh, df.airy, 256)
        r = chars.curlcurl_residual(df, sh, 8)
        fields[ang] = (df, p, d, r)
    df0, p0, d0, r0 = fields[0.0]
    df1, p1, d1, r1 = fields[np.pi / 4]
    gap_ok = relative_gap(p0, d0) < 1e-2 and relative_gap(p1, d1) < 1e-2
    res_ok = r0 < 1e-3 * norm_k and r1 < 1e-3 * norm_k
    primal_close = relative_gap(p0, p1) < 1e-3
    mu_diff = np.abs(df0.mu - df1.mu)[df0.grid.mask & df1.grid.mask].max()
    lam_diff = np.abs(df0.lam - df1.lam)[df0.grid.mask & df1.grid.mask].max()
    elapsed = time.time() - t0
    passed = bool(gap_ok and res_ok and primal_close and mu_diff > 0.1)
    detail = (
        f"primals {p0:.5f}/{p1:.5f} (rel {relative_gap(p0, p1):.1e}); residuals "
        f"{r0:.1e}/{r1:.1e}; |mu0-mu45| max {mu_diff:.3f} (>0.1); "
        f"scalar density diff {lam_diff:.1e} (angle-invariant for constant K); "
        f"{elapsed:.1f} s"
    )
    return "5 non-uniqueness on the positive disc", passed, detail


def criterion_6():
    """Herringbone construction at b=1e-8, k=1 with optimized parameters.

    Bulk-scoped checks on the h = l_wr/32 grid (walls carry the cutoff cost,
    which dominates outside the asymptotic regime; the bulk is where the
    construction's exactness lives): (i) strain, (ii) wrinkling energy per
    bulk area against tr(mu)/2, (iii) stretching against 0.3 sqrt(bk), with
    the construction-error scale (b/k)^(1/10) reported alongside.
    """
    t0 = time.time()
    b, k = 1e-8, 1.0
    ep = EnergyParams(b=b, k=k, gamma=0.0)
    target = TargetDefect(np.eye(2))
    hp = optimal_params(b, k, target)
    fld = herringbone(((0.0, 0.0), 1.0), np.eye(2), hp)
    sh = ShellProfile(curvature=0.0, sign="zero")
    bulk = fld.stencil_bulk_mask()
    st = strain(fld, sh)
    eps = st.eps[bulk & st.mask]
    eps[:, 0] -= 0.5
    eps[:, 2] -= 0.5
    strain_max = float(np.sqrt(_frob2_sym(eps).max()))
    br = energy(fld, sh, ep, region=bulk, renormalize=True, target=target)
    ratio = (br.bending + br.substrate) / ep.gamma_eff
    stretch = br.stretching
    scale = (b / k) ** 0.1
    elapsed = time.time() - t0
    ok_i = strain_max < 10 * fld.h
    ok_ii = 0.8 <= ratio <= 1.2
    ok_iii = stretch < 0.3 * np.sqrt(b * k)
    passed = bool(ok_i and ok_ii and ok_iii and elapsed < 120.0)
    detail = (
        f"(i) bulk strain {strain_max:.2e} vs 10h={10 * fld.h:.2e}; "
        f"(ii) (bending+substrate)/(2 sqrt(bk)) = {ratio:.3f} in [0.8, 1.2]; "
        f"(iii) bulk stretching {stretch:.2e} < {0.3 * np.sqrt(b * k):.1e}, "
        f"rel to (b/k)^0.1={scale:.3f}: {stretch / scale:.2e}; {elapsed:.0f} s"
    )
    return "6 herringbone construction", passed, detail


def criterion_7():
    """Scaling fit on the positive ellipse over b in {1e-6, 1e-8, 1e-10}."""
    t0 = time.time()
    E = Ellipse(2.0, 1.0)
    sh = ShellProfile.constant(1.0)
    seq = [EnergyParams(b=bb, k=1.0, gamma=0.0) for bb in (1e-6, 1e-8, 1e-10)]
    rep = scaling_study(E, sh, seq, resolution=192, n_samples=2**20)
    rel = relative_gap(rep.c1, np.pi / 2)
    elapsed = time.time() - t0
    passed = rel < 0.2 and rep.residuals_decreasing() and elapsed < 600.0
    detail = (
        f"c1 = {rep.c1:.4f} vs pi/2 (rel {rel:.3f}, tol 0.2); residuals "
        + "/".join(f"{r:.3f}" for r in rep.residuals)
        + f" decreasing: {rep.residuals_decreasing()}; {elapsed:.0f} s"
    )
    return "7 energy scaling fit", passed, detail


def _band_limited_field(rng):
    """A random sum of 12 plane waves with wave vectors in [-6, 6]^2."""
    n_modes, kmax = 12, 6.0
    ks = rng.uniform(-kmax, kmax, size=(n_modes, 2))
    phases = rng.uniform(0, 2 * np.pi, size=n_modes)
    amps = rng.normal(size=n_modes) / n_modes

    def value(x):
        return sum(
            a * np.cos(x @ kv + p) for a, kv, p in zip(amps, ks, phases)
        )

    def grad(x):
        out = np.zeros_like(x)
        for a, kv, p in zip(amps, ks, phases):
            out += -a * np.sin(x @ kv + p)[:, None] * kv[None, :]
        return out

    def hess(x):
        out = np.zeros((len(x), 3))
        for a, kv, p in zip(amps, ks, phases):
            c = -a * np.cos(x @ kv + p)
            out[:, 0] += c * kv[0] * kv[0]
            out[:, 1] += c * kv[0] * kv[1]
            out[:, 2] += c * kv[1] * kv[1]
        return out

    return AnalyticScalarField(value, grad, hess)


def _plateau_cutoff(a, b):
    """`box_cutoff` of the rectangle (-a, a) x (-b, b) with ramps a quarter of
    each half-width wide, and conservative derivative bounds; no derivatives,
    which `interpolation_check` does not read."""
    wa, wb = 0.25 * a, 0.25 * b

    def value(x):
        return box_cutoff(x, (-a, -b), (2 * a, 2 * b), (wa, wb))[2]

    s1 = 1.875  # sup |smoothstep'|
    s2 = 5.7735069  # sup |smoothstep''| (slight overestimate is safe)
    sup_grad = np.hypot(2 * s1 / wa, 2 * s1 / wb)  # conservative
    sup_hess = np.sqrt(
        (4 * s2 / wa**2) ** 2 + 2 * (2 * s1 / wa * 2 * s1 / wb) ** 2 + (4 * s2 / wb**2) ** 2
    )
    return AnalyticScalarField(value, None, None, sup_grad=sup_grad, sup_hess=sup_hess)


def criterion_8():
    """Sharpened interpolation inequality margins over random band-limited
    fields and the near-equality sinusoid."""
    t0 = time.time()
    R = Rectangle(1.0, 0.75)
    chi = _plateau_cutoff(1.0, 0.75)
    b, k = 1e-4, 1.0
    rng = np.random.default_rng(3)
    # tolerance scale: b |hess w|^2 + k |w|^2 by the same quadrature
    grid = MaskedGrid(R, 128)
    pts = grid.masked_points()
    wts = grid.weights[grid.mask]
    worst = np.inf
    for _ in range(100):
        w_field = _band_limited_field(rng)
        margin = interpolation_check(w_field, chi, b, k, grid)
        scale = b * np.sum(wts * _frob2_sym(w_field.hess(pts))) + k * np.sum(
            wts * w_field.value(pts) ** 2
        )
        worst = min(worst, margin / max(scale, 1e-300))
    # near-equality sinusoid
    ell = (b / k) ** 0.25

    def value(x):
        return ell * np.sqrt(2.0) * np.cos(x[:, 0] / ell)

    def grad(x):
        g = np.zeros_like(x)
        g[:, 0] = -np.sqrt(2.0) * np.sin(x[:, 0] / ell)
        return g

    def hess(x):
        out = np.zeros((len(x), 3))
        out[:, 0] = -np.sqrt(2.0) / ell * np.cos(x[:, 0] / ell)
        return out

    sin_field = AnalyticScalarField(value, grad, hess)
    margin_sin = interpolation_check(sin_field, chi, b, k, MaskedGrid(R, 256))
    elapsed = time.time() - t0
    passed = worst >= -1e-6 and margin_sin >= -1e-9
    detail = (
        f"min relative margin over 100 fields: {worst:.2e} (tol -1e-6); "
        f"sinusoid margin {margin_sin:.3e}; {elapsed:.0f} s"
    )
    return "8 interpolation inequality", passed, detail


def criterion_9():
    """Geometry invariants on every catalog shape."""
    t0 = time.time()
    shapes = [
        Disc(1.0),
        Disc(0.8, center=(0.4, -0.3)),
        Ellipse(2.0, 1.0),
        Rectangle(2.0, 1.0),
        HalfDisc(1.0, center=(0.2, 0.1), orientation=0.7),
        ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)]),
        ConvexPolygon([(1.5, -0.8), (1.8, 0.9), (-0.2, 1.1), (-1.6, 0.2), (-1.0, -1.0)]),
    ]
    rng = np.random.default_rng(5)
    passed = True
    notes = []
    for dom in shapes:
        pts = interior_points(dom, 512 * 16, int(rng.integers(1 << 30)))
        half = len(pts) // 2
        a, b = pts[:half], pts[half : 2 * half]
        da = dom.boundary_distance(a)
        db = dom.boundary_distance(b)
        lip = np.max(np.abs(da - db) - np.hypot(*(a - b).T))
        mid = 0.5 * (a + b)
        dm = dom.boundary_distance(mid)
        conc = np.min(dm - 0.5 * (da + db))
        # medial multiplicity: >= 2 separated nearest feet on the open axis
        axis = dom.medial_axis()
        bnd = dom.boundary_sample(8192).position
        # a true foot lies within gap/2 of a sample, which then sits at most
        # gap^2/(8 d) farther than d (the boundary bends towards p)
        gap = np.max(np.hypot(*(np.roll(bnd, -1, axis=0) - bnd).T))

        def foot_hits(p, d):
            return bnd[np.hypot(*(bnd - p).T) <= d + gap**2 / (8 * d) + 1e-9 * (1 + d)]

        mult_ok = True
        axis_samples = []
        # sample strictly inside each component (multiplicity can drop to
        # one exactly at the closure's endpoints, e.g. curvature centers at
        # an ellipse vertex): segment chords at 1/4 and 3/4, parabolic arcs
        # at their interior vertices, which lie on the arc itself
        for seg in axis.segments:
            base = np.asarray(seg, dtype=float)
            axis_samples.extend(base[0] * (1 - t) + base[1] * t for t in (0.25, 0.75))
        for arc in axis.arcs:
            axis_samples.extend(arc.points(65)[1:-1])
        if not axis.segments and not axis.arcs:
            axis_samples.extend(np.asarray(v, dtype=float) for v, _ in axis.vertices)
        axis_pts = np.asarray(axis_samples).reshape(-1, 2)
        inner = axis_pts[dom.contains(axis_pts, tol=-1e-9 * dom.diameter())]
        for p, d in zip(inner, dom.boundary_distance(inner)):
            if d < 1e-3 * dom.diameter():
                continue
            hits = foot_hits(p, d)
            if len(hits) >= 2:
                spread = np.max(np.hypot(*(hits - hits.mean(axis=0)).T))
                if spread < 1e-3 * dom.diameter():
                    mult_ok = False
            else:
                mult_ok = False
        # off-axis points have a single nearest foot
        off = pts[:2000]
        if len(axis_pts):
            d_axis = np.min(
                np.hypot(
                    off[:, None, 0] - axis_pts[None, :, 0],
                    off[:, None, 1] - axis_pts[None, :, 1],
                ),
                axis=1,
            )
            off = off[d_axis > 5e-2 * dom.diameter()]
        uniq_ok = True
        d_off = dom.boundary_distance(off)
        for p, d in zip(off[:400], d_off[:400]):
            hits = foot_hits(p, d)
            if len(hits) >= 2:
                spread = np.max(np.hypot(*(hits - hits.mean(axis=0)).T))
                if spread > 5e-2 * dom.diameter():
                    uniq_ok = False
        ok = (
            lip <= 1e-9 * dom.diameter()
            and conc >= -1e-9 * dom.diameter()
            and mult_ok
            and uniq_ok
        )
        passed = passed and ok
        notes.append(
            f"{dom.name}: lip {lip:.1e}, conc {conc:.1e}, medial {mult_ok}, off-axis {uniq_ok}"
        )
    elapsed = time.time() - t0
    passed = passed and elapsed < 60.0
    return "9 geometry invariants", passed, "; ".join(notes) + f"; {elapsed:.0f} s"


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


def run_all(printer=print):
    results = []
    for crit in ALL_CRITERIA:
        name, passed, detail = crit()
        results.append((name, passed, detail))
        printer(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return results
