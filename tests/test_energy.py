"""Energy quadrature: breakdown values, the shifted-energy identity, grid
convergence, duality gaps, interpolation margins, and the scaling fit."""

import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from shellwrinkle import cli
from shellwrinkle import energy as energy_module
from shellwrinkle import herringbone as herringbone_module
from shellwrinkle.energy import (
    AnalyticScalarField,
    EnergyParams,
    EnergyBreakdown,
    duality_gap,
    energy,
    interpolation_check,
    scaling_study,
    strain,
    _boundary_flux,
    _eroded,
    _frob2_sym,
)
from shellwrinkle.characteristics import defect_field
from shellwrinkle.errors import ParameterError, RegimeError
from shellwrinkle.geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle
from shellwrinkle.grids import MaskedGrid
from shellwrinkle.herringbone import (
    DisplacementField,
    PiecewiseHerringboneField,
    TargetDefect,
    _BLOCK_ROWS,
    herringbone,
    optimal_params,
    piecewise_herringbone,
)
from shellwrinkle.shell import ShellProfile

FLAT = ShellProfile(curvature=0.0, sign="zero")


def make_field(rect, h, u_fn, w_fn):
    nx = int(round(2 * rect.a / h))
    ny = int(round(2 * rect.b / h))
    return grid_field((-rect.a, -rect.b), h, nx, ny, u_fn, w_fn)


def grid_field(origin, h, nx, ny, u_fn, w_fn):
    xs = origin[0] + (np.arange(nx) + 0.5) * h
    ys = origin[1] + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    u = u_fn(pts).reshape(nx, ny, 2)
    w = w_fn(pts).reshape(nx, ny)
    return DisplacementField(
        origin=origin, h=h, u=u, w=w,
        domain_mask=np.ones((nx, ny), dtype=bool),
        bulk_mask=np.ones((nx, ny), dtype=bool),
    )


class TestStrain:
    def test_zero_everything(self, rect):
        fld = make_field(rect, 0.02, lambda p: np.zeros_like(p), lambda p: np.zeros(len(p)))
        st = strain(fld, FLAT)
        assert np.max(np.abs(st.eps)) == 0.0

    def test_linear_in_plane_exact(self, rect):
        s = 0.37
        fld = make_field(
            rect, 0.02,
            lambda p: np.stack([s * p[:, 0], np.zeros(len(p))], axis=1),
            lambda p: np.zeros(len(p)),
        )
        st = strain(fld, FLAT)
        m = st.mask
        assert np.allclose(st.eps[m][:, 0], s, atol=1e-12)
        assert np.allclose(st.eps[m][:, 1], 0.0, atol=1e-12)
        assert np.allclose(st.eps[m][:, 2], 0.0, atol=1e-12)

    def test_herringbone_bulk_reproduces_half_target(self):
        params = optimal_params(1e-8, 1.0, TargetDefect(np.eye(2)))
        fld = herringbone(((0.0, 0.0), 0.5), np.eye(2), params)
        st = strain(fld, FLAT)
        m = fld.stencil_bulk_mask() & st.mask
        # e(v) + grad w (x) grad w / 2 equals mu / 2 = I/2 in the bulk
        assert np.abs(st.eps[m][:, 0] - 0.5).max() < 10 * fld.h
        assert np.abs(st.eps[m][:, 1]).max() < 10 * fld.h
        assert np.abs(st.eps[m][:, 2] - 0.5).max() < 10 * fld.h


class TestEnergyBreakdown:
    def test_all_zero(self, rect):
        fld = make_field(rect, 0.02, lambda p: np.zeros_like(p), lambda p: np.zeros(len(p)))
        br = energy(fld, FLAT, EnergyParams(b=1.0, k=1.0, gamma=0.5), domain=rect)
        assert br.total == 0.0

    def test_surface_term_needs_domain(self, rect):
        # the boundary flux is part of the surface term; without the domain
        # it cannot be taken
        fld = make_field(rect, 0.02, lambda p: np.zeros_like(p), lambda p: np.zeros(len(p)))
        with pytest.raises(ParameterError):
            energy(fld, FLAT, EnergyParams(b=1.0, k=1.0, gamma=0.5))

    def test_cli_surface_term_includes_flux(self, tmp_path, capsys):
        # gamma (slope term - flux) with a flat profile: the flux through the
        # 0.05 square is -1.4e-8 and the grid's divergence sum +2.8e-8
        path = tmp_path / "energy.json"
        path.write_text(json.dumps({"b": 1e-8, "k": 1.0, "gamma": 0.5, "side": 0.05}))
        assert cli.main(["energy", "--config", str(path)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        mu = np.eye(2)
        fld = herringbone(((0.0, 0.0), 0.05), mu, optimal_params(1e-8, 1.0, TargetDefect(mu)))
        surface = -0.5 * _discrete_flux(fld, fld.domain_mask)
        for part in ("full", "bulk_renormalized"):
            assert abs(report[part]["surface"] - surface) < 1e-7

    def test_total_is_sum(self):
        br = EnergyBreakdown(stretching=0.1, bending=0.2, substrate=0.3, surface=0.4)
        assert br.total == pytest.approx(1.0, abs=1e-12)

    def test_surface_term_with_slope_field(self, rect):
        # u = 0, w = 0, p with known slope integral: surface = gamma * S
        def grad_p(p):
            return np.stack([0.3 * np.ones(len(p)), np.zeros(len(p))], axis=1)

        shell = ShellProfile(curvature=0.0, sign="zero", grad_p=grad_p)
        fld = make_field(rect, 0.01, lambda p: np.zeros_like(p), lambda p: np.zeros(len(p)))
        br = energy(fld, shell, EnergyParams(b=1.0, k=1.0, gamma=1.0), domain=rect)
        S = 0.5 * 0.09 * rect.area()
        assert br.surface == pytest.approx(S, rel=1e-6)
        assert br.stretching == pytest.approx(0.5 * (0.5 * 0.09) ** 2 * rect.area(), rel=1e-2)

    def test_shifted_energy_identity(self, rect):
        # E + gamma^2 |Omega| equals the sum-of-squares form; with compactly
        # supported u the discrete divergence theorem is exact, so the
        # identity holds to round-off
        gamma = 0.7
        b, k = 0.3, 2.0

        def bump(p):
            r2 = (p[:, 0] / rect.a) ** 2 + (p[:, 1] / rect.b) ** 2
            return np.where(r2 < 0.49, (0.49 - r2) ** 3, 0.0)

        def u_fn(p):
            return np.stack([bump(p), -0.5 * bump(p)], axis=1)

        def w_fn(p):
            return 0.8 * bump(p)

        fld = make_field(rect, 0.01, u_fn, w_fn)
        ep = EnergyParams(b=b, k=k, gamma=gamma)
        br = energy(fld, FLAT, ep, domain=rect)
        area = rect.area()
        # sum-of-squares form by the same stencils
        st = strain(fld, FLAT)
        eps = st.eps
        eps_shift = eps.copy()
        eps_shift[..., 0] -= gamma
        eps_shift[..., 2] -= gamma
        gw = fld.grad_w()
        hw = fld.hess_w()
        cell = fld.h**2
        m = st.mask
        sos = (
            0.5 * np.sum(_frob2_sym(eps_shift)[m]) * cell
            + 0.5 * gamma * np.sum((gw[..., 0] ** 2 + gw[..., 1] ** 2)[m]) * cell
            + 0.5 * b * np.sum(_frob2_sym(hw)[m]) * cell
            + 0.5 * k * np.sum(fld.w[m] ** 2) * cell
        )
        lhs = (
            0.5 * np.sum(_frob2_sym(eps)[m]) * cell
            + 0.5 * b * np.sum(_frob2_sym(hw)[m]) * cell
            + 0.5 * k * np.sum(fld.w[m] ** 2) * cell
            + gamma * (0.0 - _discrete_flux(fld, m))
            + gamma**2 * m.sum() * cell
        )
        assert abs(lhs - sos) / max(abs(sos), 1e-300) < 1e-8

    def test_grid_convergence_second_order(self, rect):
        # energy of a fixed smooth field converges at order 2 under h
        def u_fn(p):
            return np.stack(
                [np.sin(p[:, 0]) * np.cos(p[:, 1]), np.cos(p[:, 0]) * p[:, 1]], axis=1
            )

        def w_fn(p):
            return 0.3 * np.sin(1.3 * p[:, 0]) * np.sin(0.7 * p[:, 1])

        ep = EnergyParams(b=0.5, k=1.0, gamma=0.0)
        vals = []
        for h in (0.04, 0.02, 0.01):
            fld = make_field(rect, h, u_fn, w_fn)
            vals.append(energy(fld, FLAT, ep).total)
        err1 = abs(vals[0] - vals[2])
        err2 = abs(vals[1] - vals[2])
        rate = np.log2(err1 / err2 - 1.0 + 1e-30)  # Richardson: (4E-e)/3
        # direct ratio test: successive differences shrink ~4x
        d1 = abs(vals[0] - vals[1])
        d2 = abs(vals[1] - vals[2])
        assert 2.5 < d1 / d2 < 6.0

    def test_first_three_terms_nonnegative(self, rect):
        rng = np.random.default_rng(0)

        def u_fn(p):
            return rng.normal(size=(len(p), 2)) * 0.01

        def w_fn(p):
            return rng.normal(size=len(p)) * 0.01

        fld = make_field(rect, 0.05, u_fn, w_fn)
        br = energy(fld, FLAT, EnergyParams(b=1.0, k=1.0, gamma=0.0))
        assert br.stretching >= 0 and br.bending >= 0 and br.substrate >= 0


def _field_over(domain, cells, u_fn):
    """A field sampled at the centres of ``cells`` cells across the
    domain's bounding box, so the boundary lies half a cell past them."""
    (x0, y0), (x1, y1) = domain.bbox()
    h = max(x1 - x0, y1 - y0) / cells
    nx, ny = int(round((x1 - x0) / h)), int(round((y1 - y0) / h))
    return grid_field((x0, y0), h, nx, ny, u_fn, lambda p: np.zeros(len(p)))


UNIT_SQUARE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


class TestBoundaryFlux:
    def test_linear_field_is_exact(self, rect, triangle):
        # u = x has div u = 2, so its flux is twice the area; the trapezoid
        # rule with each panel's side normal and the bilinear extrapolation
        # are exact for it
        for dom in (UNIT_SQUARE, rect, triangle):
            fld = _field_over(dom, 200, lambda p: p.copy())
            assert abs(_boundary_flux(fld, dom) - 2 * dom.area()) < 1e-12

    def test_smooth_field_second_order(self):
        # u = (sin x cos y, x y^2): the flux is int div u = sin(1)^2 + 1/2
        def u_fn(p):
            return np.stack([np.sin(p[:, 0]) * np.cos(p[:, 1]), p[:, 0] * p[:, 1] ** 2], axis=1)

        exact = np.sin(1.0) ** 2 + 0.5
        errs = [abs(_boundary_flux(_field_over(UNIT_SQUARE, n, u_fn), UNIT_SQUARE) - exact)
                for n in (100, 200, 400)]
        assert np.log2(errs[0] / errs[2]) / 2 >= 1.9, errs

    def test_ellipse_linear_field_at_rounding(self):
        # u = x is exact on the grid, and the samples sit at equal steps of
        # the exact arclength, so the periodic trapezoid rule errs only by
        # rounding
        dom = Ellipse(2.0, 1.0)
        fld = _field_over(dom, 200, lambda p: p.copy())
        errs = [abs(_boundary_flux(fld, dom, n) - 2 * dom.area()) for n in (512, 2048, 8192)]
        assert max(errs) < 1e-12, errs

    def test_half_disc_second_order_in_the_samples(self):
        # u = x is exact on the grid, so only the boundary rule errs: both
        # corners are samples and each corner panel takes its chord's normal,
        # which is off by O(h) on the arc's first and last panels
        dom = HalfDisc(1.0, (0.2, 0.1), 0.7)
        fld = _field_over(dom, 200, lambda p: p.copy())
        errs = [abs(_boundary_flux(fld, dom, n) - 2 * dom.area()) for n in (512, 2048, 8192)]
        assert np.log2(errs[0] / errs[2]) / 4 >= 1.9, errs
        assert errs[1] < 1e-6, errs


class TestHerringboneStencilsAtSmallB:
    def test_b_1e10_ladder(self):
        # criterion 6's checks at b = 1e-10 on a 0.05 square, h = l_wr / n.
        # The strain bound is an order over the ladder: the deviation depends
        # on h / l_wr alone, so a bound in h (criterion 6's 10 h) would
        # measure b rather than the stencil.
        b, k = 1e-10, 1.0
        ep = EnergyParams(b=b, k=k)
        target = TargetDefect(np.eye(2))
        hp = optimal_params(b, k, target)
        devs = []
        for n, side in ((16, 253), (32, 506), (64, 1012)):
            fld = herringbone(((0.0, 0.0), 0.05), np.eye(2), hp, h=hp.l_wr / n)
            assert fld.shape == (side, side)
            bulk = fld.stencil_bulk_mask()
            st = strain(fld, FLAT)
            eps = st.eps[bulk & st.mask]
            eps[:, 0] -= 0.5
            eps[:, 2] -= 0.5
            devs.append(np.sqrt(_frob2_sym(eps).max()))
            br = energy(fld, FLAT, ep, region=bulk, renormalize=True, target=target)
            area = fld.domain_mask.sum() * fld.h**2
            ratio = (br.bending + br.substrate) / ep.gamma_eff / area
            assert abs(ratio - 1.0) < 0.05, (n, ratio)
            if n >= 32:
                assert br.stretching / np.sqrt(b * k) / area < 0.3, n
        orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
        assert (orders >= 1.9).all(), (devs, orders)


def _discrete_flux(fld, mask):
    """Flux integral of u through the grid via the discrete divergence, which
    telescopes exactly for compactly supported samples."""
    div = fld.sym_grad_u()[..., 0] + fld.sym_grad_u()[..., 2]
    return float(np.sum(div[mask]) * fld.h**2)


def _whole_grid_reference(fld, shell, params, domain=None, region=None, renormalize=False,
                          target=None):
    """Strain and energy terms from the whole-grid stencils of the field,
    each quadrature one sum over the whole grid."""
    X, Y = fld.points()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    gp = shell.gradient(pts).reshape(fld.shape + (2,))
    e_u, gw, hw = fld.sym_grad_u(), fld.grad_w(), fld.hess_w()
    eps = np.empty(fld.shape + (3,))
    eps[..., 0] = e_u[..., 0] + 0.5 * gw[..., 0] ** 2 - 0.5 * gp[..., 0] ** 2
    eps[..., 1] = e_u[..., 1] + 0.5 * gw[..., 0] * gw[..., 1] - 0.5 * gp[..., 0] * gp[..., 1]
    eps[..., 2] = e_u[..., 2] + 0.5 * gw[..., 1] ** 2 - 0.5 * gp[..., 1] ** 2
    mask = _eroded(fld.domain_mask) if region is None else region & _eroded(fld.domain_mask)
    scale = fld.h**2 * (fld.domain_mask.sum() / mask.sum() if renormalize else 1.0)
    dev = eps.copy()
    if target is not None:
        mu = target.matrix_at(pts).reshape(fld.shape + (2, 2))
        dev -= 0.5 * np.stack([mu[..., 0, 0], mu[..., 0, 1], mu[..., 1, 1]], axis=-1)
    if shell.grad_p is not None:
        d = lambda a, axis: np.gradient(a, fld.h, axis=axis, edge_order=2)  # noqa: E731
        gx, gy = gp[..., 0], gp[..., 1]
        hw = hw - np.stack([d(gx, 0), 0.5 * (d(gx, 1) + d(gy, 0)), d(gy, 1)], axis=-1)
    surface = 0.0
    if params.gamma > 0:
        slope = 0.5 * np.sum((gp[..., 0] ** 2 + gp[..., 1] ** 2)[fld.domain_mask]) * fld.h**2
        surface = params.gamma * (slope - (_boundary_flux(fld, domain) if domain else 0.0))
    terms = (
        0.5 * np.sum(_frob2_sym(dev)[mask]) * scale,
        0.5 * params.b * np.sum(_frob2_sym(hw)[mask]) * scale,
        0.5 * params.k * np.sum(fld.w[mask] ** 2) * scale,
        surface,
    )
    return eps, terms


def _smooth_u(p):
    return np.stack([np.sin(p[:, 0]) * np.cos(p[:, 1]), 0.3 * p[:, 0] * p[:, 1]], axis=1)


def _smooth_w(p):
    return 0.2 * np.sin(2.0 * p[:, 0]) * np.cos(3.0 * p[:, 1])


def _slope_shell():
    # the grad_p shell of test_surface_term_with_slope_field
    return ShellProfile(
        curvature=0.0, sign="zero",
        grad_p=lambda p: np.stack([0.3 * np.ones(len(p)), np.zeros(len(p))], axis=1),
    )


def _curved_slope_shell():
    return ShellProfile(
        curvature=0.0, sign="zero",
        grad_p=lambda p: np.stack([0.3 * p[:, 0] + 0.1 * p[:, 1] ** 2, 0.2 * np.sin(p[:, 0])],
                                  axis=1),
    )


def _target_field(p):
    m = np.empty((len(p), 2, 2))
    m[:, 0, 0] = 1.0 + 0.1 * p[:, 0]
    m[:, 0, 1] = m[:, 1, 0] = 0.05 * p[:, 1]
    m[:, 1, 1] = 0.7 + 0.2 * p[:, 0] * p[:, 1]
    return m


_ID_PARAMS = optimal_params(1e-8, 1.0, TargetDefect(np.eye(2)))
_MU = np.array([[1.0, 0.05], [0.05, 0.9]])


def _rows_case(nx, layout):
    """A field of nx rows: interleaved u from ``grid_field`` (a smooth field
    on a curved-slope shell against a varying target), or planar u from
    ``herringbone`` (against mu = I, and restricted to its bulk and
    renormalized when it spans more than one block)."""
    if layout == "interleaved":
        fld = grid_field((0.0, 0.0), 0.01, nx, 24, _smooth_u, _smooth_w)
        return fld, _curved_slope_shell(), EnergyParams(b=0.3, k=2.0), dict(
            target=TargetDefect(_target_field))
    h = _ID_PARAMS.l_wr / 32
    # off the wall through the origin, so w is nonzero on the smallest grid
    fld = herringbone(((0.01, 0.03), nx * h), np.eye(2), _ID_PARAMS, h=h)
    assert fld.shape == (nx, nx)
    if nx < _BLOCK_ROWS:
        return fld, FLAT, EnergyParams(b=1e-8, k=1.0), {}
    return fld, FLAT, EnergyParams(b=1e-8, k=1.0), dict(
        region=fld.stencil_bulk_mask(), renormalize=True, target=TargetDefect(np.eye(2)))


def _disc_case():
    # the domain mask is not a rectangle, so its erosion differs from it
    disc = Disc(0.08, center=(0.01, -0.02))
    fld = piecewise_herringbone(disc, _MU, optimal_params(1e-8, 1.0, TargetDefect(_MU)))
    return fld, _curved_slope_shell(), EnergyParams(b=1e-8, k=1.0, gamma=0.7), dict(
        domain=disc, target=TargetDefect(_MU))


def _smooth_case(shell, params, **kw):
    rect = Rectangle(2.0, 1.0)  # 400 x 200 rows at h = 0.01
    return make_field(rect, 0.01, _smooth_u, _smooth_w), shell, params, dict(domain=rect, **kw)


# row counts against the block size: the one-sided edge formulas of a last
# block of 1 or 2 rows read rows of the block before it
_ROW_COUNTS = {
    "last-block-of-1-row": 3 * _BLOCK_ROWS + 1,
    "last-block-of-2-rows": 3 * _BLOCK_ROWS + 2,
    "fewer-rows-than-a-block": _BLOCK_ROWS - 1,
}

# each builds (field, shell, params, energy keywords)
_BLOCK_CASES = {
    **{f"{rows}-{layout}": partial(_rows_case, n, layout)
       for rows, n in _ROW_COUNTS.items() for layout in ("interleaved", "planar")},
    "piecewise-on-disc": _disc_case,
    "slope-shell-gamma": lambda: _smooth_case(
        _slope_shell(), EnergyParams(b=0.3, k=2.0, gamma=0.7)),
    "curved-slope-shell-gamma": lambda: _smooth_case(
        _curved_slope_shell(), EnergyParams(b=0.3, k=2.0, gamma=0.7)),
    "target-field": lambda: _smooth_case(
        FLAT, EnergyParams(b=0.3, k=2.0), target=TargetDefect(_target_field)),
    # no grad_p: the profile gradient is zero and its terms are skipped
    "flat-shell-gamma": lambda: _smooth_case(FLAT, EnergyParams(b=0.3, k=2.0, gamma=0.7)),
    "constant-curvature-no-grad-p": lambda: _smooth_case(
        ShellProfile.constant(-1.0), EnergyParams(b=0.3, k=2.0)),
}


class TestRowBlocks:
    """strain and energy difference the grid in blocks of rows, each block
    only on its own rows, with the values of the whole-grid stencils; the
    blocks (and herringbone's sampled rows) are dealt over ``workers``
    threads with the one-worker values bit for bit.  3 workers divide none
    of the cases' block counts evenly, nor criterion 6's 200."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_BLOCK_CASES))
    def test_blocks_equal_whole_grid_stencils(self, monkeypatch, name, workers):
        self._check_workers(monkeypatch, workers, _BLOCK_CASES[name])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["interleaved", "planar"])
    def test_one_row_blocks(self, monkeypatch, layout, workers):
        # every block is one row, so one starts at row 1, whose neighbour
        # row 0 takes the one-sided formula
        monkeypatch.setattr(energy_module, "_BLOCK_ROWS", 1)
        self._check_workers(monkeypatch, workers, partial(_rows_case, 7, layout))

    @classmethod
    def _check_workers(cls, monkeypatch, workers, build):
        outputs = []
        for n in (1, workers):
            monkeypatch.setattr(herringbone_module, "_WORKERS", n)
            outputs.append(cls._check_against_whole_grid(*build()))
        for one, many in zip(*outputs):
            assert np.array_equal(many, one)

    @staticmethod
    def _check_against_whole_grid(fld, shell, ep, kw):
        """Check strain and energy against the whole-grid stencils; returns
        the field's u, w and bulk, ε and its mask, and the four terms."""
        eps_ref, terms_ref = _whole_grid_reference(fld, shell, ep, **kw)
        st = strain(fld, shell)
        assert np.array_equal(st.eps, eps_ref)
        assert np.array_equal(st.mask, _eroded(fld.domain_mask))
        br = energy(fld, shell, ep, **kw)
        terms = (br.stretching, br.bending, br.substrate, br.surface)
        assert terms == pytest.approx(terms_ref, rel=1e-12, abs=0.0)
        assert br.bending > 0 and br.substrate > 0
        return fld.u, fld.w, fld.bulk_mask, st.eps, st.mask, terms

    def test_fields_are_component_planes(self):
        # u and eps are views of C-contiguous planes (2 or 3, nx, ny)
        fld = herringbone(((0.0, 0.0), 0.015), np.eye(2), _ID_PARAMS)
        disc = _disc_case()[0]
        for f in (fld, disc):
            assert f.u.shape == f.shape + (2,)
            assert np.moveaxis(f.u, -1, 0).flags.c_contiguous
        eps = strain(fld, FLAT).eps
        assert eps.shape == fld.shape + (3,)
        assert np.moveaxis(eps, -1, 0).flags.c_contiguous

    def test_strain_memory_above_output_bounded_as_rows_grow(self, monkeypatch):
        # 8x the rows at fixed ny: beyond the returned eps and mask, strain
        # holds scratch planes of one block per worker, and no whole-grid
        # array; two workers, so that the cap means the same on any machine
        monkeypatch.setattr(herringbone_module, "_WORKERS", 2)
        h, ny = 1.0 / 256, 512
        plane = _BLOCK_ROWS * ny * 8
        above = []
        for nx in (256, 2048):
            fld = grid_field((0.0, 0.0), h, nx, ny, _smooth_u, _smooth_w)
            tracemalloc.start()
            try:
                st = strain(fld, FLAT)
                above.append(tracemalloc.get_traced_memory()[1] - st.eps.nbytes - st.mask.nbytes)
            finally:
                tracemalloc.stop()
        assert above[1] < 2.0 * above[0], above
        assert max(above) < 16 * plane, (above, plane)

    def test_energy_memory_bounded_as_rows_grow(self):
        # 8x the rows at fixed ny: whole-grid stencils would grow the peak 8x
        h = 1.0 / 256
        target = TargetDefect(np.eye(2))
        ep = EnergyParams(b=1e-4, k=1.0)
        peaks = []
        for nx in (256, 2048):
            fld = grid_field((0.0, 0.0), h, nx, 512, _smooth_u, _smooth_w)
            tracemalloc.start()
            try:
                energy(fld, FLAT, ep, target=target)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.0 * peaks[0], peaks


class TestDualityGap:
    def test_positive_ellipse_gap(self, ellipse):
        assert duality_gap(ellipse, ShellProfile.constant(1.0), 256) < 1e-2

    def test_zero_curvature(self, ellipse):
        assert duality_gap(ellipse, FLAT, 64) == 0.0

    def test_gap_decreases_with_resolution(self, disc):
        sh = ShellProfile.constant(-1.0)
        gaps = [duality_gap(disc, sh, n) for n in (128, 256, 512)]
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]

    @pytest.mark.parametrize("resolution", [32, 64, 128, 256])
    def test_every_interface_free_catalog_case(self, ellipse, disc, rect, half_disc_pos,
                                               half_disc_neg, triangle, pentagon, resolution):
        cases = [
            (ellipse, 1.0), (disc, 1.0), (half_disc_pos, 1.0),
            (ellipse, -1.0), (disc, -1.0), (rect, -1.0),
            (half_disc_neg, -1.0), (triangle, -1.0), (pentagon, -1.0),
        ]
        for dom, k in cases:
            gap = duality_gap(dom, ShellProfile.constant(k), resolution)
            assert gap < 1e-2, (dom.name, k, gap)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the line density on O/U "
                       "interfaces at K > 0 is missing from the primal")
    @pytest.mark.parametrize("name", ["rect", "triangle", "regular_pentagon"])
    def test_positive_case_with_interfaces(self, request, name):
        gap = duality_gap(request.getfixturevalue(name), ShellProfile.constant(1.0), 128)
        assert gap < 1e-2, gap


def _sinusoid(ell):
    """w = sqrt(2) l cos(x1 / l) with its closed-form derivatives."""

    def value(p):
        p = np.atleast_2d(p)
        return ell * np.sqrt(2.0) * np.cos(p[:, 0] / ell)

    def grad(p):
        p = np.atleast_2d(p)
        g = np.zeros_like(p)
        g[:, 0] = -np.sqrt(2.0) * np.sin(p[:, 0] / ell)
        return g

    def hess(p):
        p = np.atleast_2d(p)
        out = np.zeros((len(p), 3))
        out[:, 0] = -np.sqrt(2.0) / ell * np.cos(p[:, 0] / ell)
        return out

    return AnalyticScalarField(value, grad, hess)


class TestInterpolation:
    def test_zero_field_zero_margin(self, rect):
        zero = AnalyticScalarField(
            lambda p: np.zeros(len(np.atleast_2d(p))),
            lambda p: np.zeros_like(np.atleast_2d(p)),
            lambda p: np.zeros((len(np.atleast_2d(p)), 3)),
        )
        from shellwrinkle.acceptance import _plateau_cutoff

        chi = _plateau_cutoff(rect.a, rect.b)
        assert interpolation_check(zero, chi, 1e-4, 1.0, MaskedGrid(rect, 192)) == 0.0

    def test_near_equality_sinusoid(self, rect):
        # w = sqrt(2) l cos(x1 / l) with l = (b/k)^(1/4) is the equality case
        # without the cutoff.  With it, the margin is the cutoff loss
        # int (b |hess w|^2 + k w^2)(1 - chi) plus the two slack terms, whose
        # sizes relative to the left side are l |grad chi|_inf and
        # l^2 |hess chi|_inf / 2: near equality holds as l -> 0.
        from shellwrinkle.acceptance import _plateau_cutoff

        k = 1.0
        chi = _plateau_cutoff(rect.a, rect.b)
        grid = MaskedGrid(rect, 256)
        pts = grid.masked_points()
        wts = grid.weights[grid.mask]
        excess = []
        for b in (1e-4, 1e-6, 1e-8):
            ell = (b / k) ** 0.25
            w_field = _sinusoid(ell)
            margin = interpolation_check(w_field, chi, b, k, grid)
            assert margin >= -1e-9
            density = b * _frob2_sym(w_field.hess(pts)) + k * w_field.value(pts) ** 2
            lhs = np.sum(wts * density)
            loss = np.sum(wts * density * (1.0 - chi.value(pts)))
            e = (margin - loss) / lhs
            predicted = ell * chi.sup_grad + 0.5 * ell**2 * chi.sup_hess
            assert abs(e / predicted - 1.0) < 0.05, (b, e, predicted)
            excess.append(e)
        # each factor 100 in b shrinks l tenfold and the excess at least 2.5x
        assert excess[1] < excess[0] / 2.5 and excess[2] < excess[1] / 2.5

    def test_chi_range_guard(self, rect):
        bad = AnalyticScalarField(
            lambda p: 2.0 * np.ones(len(np.atleast_2d(p))),
            lambda p: np.zeros_like(np.atleast_2d(p)),
            lambda p: np.zeros((len(np.atleast_2d(p)), 3)),
            sup_grad=0.0, sup_hess=0.0,
        )
        zero = AnalyticScalarField(
            lambda p: np.zeros(len(np.atleast_2d(p))),
            lambda p: np.zeros_like(np.atleast_2d(p)),
            lambda p: np.zeros((len(np.atleast_2d(p)), 3)),
        )
        from shellwrinkle.errors import DataError

        with pytest.raises(DataError):
            interpolation_check(zero, bad, 1.0, 1.0, MaskedGrid(rect, 192))


def _scaling_reference(domain, shell, params_seq, resolution, n_samples, seed):
    """Per point of params_seq: (ratio, stretching, bulk_fraction) from
    ``PiecewiseHerringboneField.evaluate`` on all samples at once, with the
    densities as einsum contractions of the (n, 2, 2) fields."""
    df = defect_field(domain, shell, resolution)
    primal = df.primal_value()
    target = energy_module._grid_target(df)
    rng = np.random.default_rng(seed)
    pts = energy_module._stratified_domain_samples(domain, n_samples, rng)
    area = domain.area()
    rows = []
    for ep in params_seq:
        hp = optimal_params(ep.b, ep.k, target, df.grid.masked_points())
        out = PiecewiseHerringboneField(domain, target, hp).evaluate(pts)
        bulk = out["bulk"]
        dens = (0.5 * ep.b * np.einsum("nij,nij->n", out["hess_w"], out["hess_w"])
                + 0.5 * ep.k * out["w"] ** 2)
        wrinkling = float(dens[bulk].mean()) * area
        gv, gw = out["grad_v"], out["grad_w"]
        dev = (0.5 * (gv + np.transpose(gv, (0, 2, 1)))
               + 0.5 * np.einsum("ni,nj->nij", gw, gw) - 0.5 * out["mu_local"])
        stretching = 0.5 * float(np.einsum("nij,nij->n", dev, dev).mean()) * area
        rows.append(((wrinkling + ep.gamma * primal) / ep.gamma_eff, stretching,
                     float(bulk.mean())))
    return rows


class TestScalingStudy:
    def test_regime_validation(self, ellipse):
        sh = ShellProfile.constant(1.0)
        with pytest.raises(RegimeError):
            scaling_study(
                ellipse, sh,
                [EnergyParams(b=1e-8, k=1.0), EnergyParams(b=1e-6, k=1.0)],
            )
        with pytest.raises(ParameterError):
            scaling_study(ellipse, sh, [EnergyParams(b=1e-8, k=1.0)])

    def test_gamma_dominated_same_limit(self, ellipse):
        # the construction does not depend on gamma: the fitted limit is
        # unchanged when gamma dominates the scale
        sh = ShellProfile.constant(1.0)
        seq0 = [EnergyParams(b=bb, k=1.0, gamma=0.0) for bb in (1e-6, 1e-8, 1e-10)]
        seq1 = [EnergyParams(b=bb, k=1.0, gamma=1e-3) for bb in (1e-6, 1e-8, 1e-10)]
        rep0 = scaling_study(ellipse, sh, seq0, resolution=128, n_samples=2**18)
        rep1 = scaling_study(ellipse, sh, seq1, resolution=128, n_samples=2**18)
        assert abs(rep0.c1 - np.pi / 2) / (np.pi / 2) < 0.2
        assert abs(rep1.c1 - np.pi / 2) / (np.pi / 2) < 0.2

    def test_points_match_whole_array_reference(self, ellipse):
        # the square-by-square sums against the whole-array evaluation and
        # einsum forms the study used before
        sh = ShellProfile.constant(1.0)
        seq = [EnergyParams(b=bb, k=1.0, gamma=1e-3) for bb in (1e-6, 1e-8, 1e-10)]
        rep = scaling_study(ellipse, sh, seq, resolution=96, n_samples=2**16, seed=5)
        ref = _scaling_reference(ellipse, sh, seq, resolution=96, n_samples=2**16, seed=5)
        for p, (ratio, stretching, bulk_fraction) in zip(rep.points, ref):
            assert p.ratio == pytest.approx(ratio, rel=1e-12, abs=0)
            assert p.stretching == pytest.approx(stretching, rel=1e-12, abs=0)
            assert p.bulk_fraction == pytest.approx(bulk_fraction, rel=1e-12, abs=0)
            assert 0.0 < p.bulk_fraction < 1.0 and p.stretching > 0.0

    def test_zero_curvature_limit_zero(self, ellipse):
        sh = FLAT
        seq = [EnergyParams(b=bb, k=1.0, gamma=1e-6) for bb in (1e-8, 1e-10)]
        rep = scaling_study(ellipse, sh, seq, resolution=96, n_samples=2**16)
        assert abs(rep.c1) < 1e-6
