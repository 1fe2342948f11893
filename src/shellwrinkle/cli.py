"""Command-line front end.

Subcommands: pattern, dual, defect, herringbone, energy, verify, sweep.
Configuration can come from a JSON file (--config) with flags overriding
file values.  Exit codes: 0 ok, 1 verification failure, 2 usage error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import airy as airy_mod
from . import characteristics as chars
from . import render
from .acceptance import run_all
from .energy import EnergyParams, energy, scaling_study
from .errors import (
    AmbiguityError,
    ConsistencyError,
    DataError,
    DomainError,
    FamilyLookupError,
    ParameterError,
    RegimeError,
    ResolutionError,
    ShellWrinkleError,
    UnsupportedShapeError,
)
from .geometry import make_domain
from .herringbone import TargetDefect, herringbone, optimal_params
from .rulings import UDecomposition
from .shell import ShellProfile
from .stablelines import stable_lines

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _domain_from(cfg):
    spec = cfg.get("domain")
    if spec is None:
        raise ShellWrinkleError("missing domain spec")
    return make_domain(spec)


def _shell_from(cfg):
    spec = cfg.get("shell", {"sign": "zero", "curvature": 0.0})
    sign = spec.get("sign")
    k = spec.get("curvature", {"positive": 1.0, "negative": -1.0, "zero": 0.0}.get(sign, 0.0))
    if sign is None:
        sign = "zero" if k == 0 else ("positive" if k > 0 else "negative")
    return ShellProfile(curvature=float(k), sign=sign)


def _decomposition_from(cfg):
    spec = cfg.get("u_decomposition")
    if spec is None:
        return None
    if spec.get("kind") == "random":
        seed = int(cfg.get("seed", 0))
        rng = np.random.default_rng(seed)
        return UDecomposition(kind="parallel", angle=float(rng.uniform(0, np.pi)))
    return UDecomposition(
        kind=spec.get("kind", "parallel"),
        angle=float(spec.get("angle", 0.0)),
        angle2=float(spec.get("angle2", np.pi / 4)),
        weight=float(spec.get("weight", 0.5)),
    )


def _report(cfg, payload):
    return json.dumps(
        {"version": __version__, "config": cfg, **payload}, indent=2, sort_keys=True
    )


def _write(outdir, name, text):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return str(path)


def cmd_pattern(cfg):
    domain = _domain_from(cfg)
    shell = _shell_from(cfg)
    deco = _decomposition_from(cfg)
    spacing = float(cfg.get("spacing", domain.diameter() / 40))
    af = airy_mod.solve_dual(domain, shell, deco)
    family = stable_lines(domain, af, spacing)
    medial = domain.medial_axis() if af.sign < 0 else None
    svg = render.pattern_svg(domain, family, medial=medial)
    files = {
        "svg": _write(cfg["out"], "pattern.svg", svg),
        "csv": _write(cfg["out"], "pattern.csv", render.family_csv(family)),
    }
    if medial is not None:
        files["medial_csv"] = _write(cfg["out"], "medial_axis.csv", render.medial_csv(medial))
    print(_report(cfg, {"command": "pattern", "files": files, "lines": len(family.lines)}))
    return EXIT_OK


def cmd_dual(cfg):
    domain = _domain_from(cfg)
    shell = _shell_from(cfg)
    resolution = int(cfg.get("resolution", 256))
    af = airy_mod.solve_dual(domain, shell, _decomposition_from(cfg))
    value = airy_mod.dual_value(domain, shell, af, resolution)
    tol = float(cfg.get("tolerances", {}).get("admissibility", 1e-8))
    rep = airy_mod.check_admissible(af, domain, tol)
    payload = {
        "command": "dual",
        "sign": "plus" if af.sign > 0 else "minus",
        "dual_value": value,
        "admissibility": {
            "trace_max_violation": rep.trace_max_violation,
            "convexity_max_violation": rep.convexity_max_violation,
            "jump_min": rep.jump_min,
        },
    }
    text = _report(cfg, payload)
    if "out" in cfg:
        _write(cfg["out"], "dual.json", text + "\n")
    print(text)
    return EXIT_OK


def cmd_defect(cfg):
    domain = _domain_from(cfg)
    shell = _shell_from(cfg)
    resolution = int(cfg.get("resolution", 256))
    df = chars.defect_field(domain, shell, resolution, _decomposition_from(cfg))
    primal = df.primal_value()
    dual = airy_mod.dual_value(domain, shell, df.airy, resolution)
    residual = chars.curlcurl_residual(df, shell, int(cfg.get("test_count", 8)))
    gap = 0.0 if max(primal, dual) == 0 else abs(primal - dual) / max(primal, dual)
    payload = {
        "command": "defect",
        "primal": primal,
        "dual": dual,
        "gap": gap,
        "residual": residual,
        "min_lambda": df.min_lambda(),
        "interface_caveat": df.interface_flag,
    }
    files = {}
    if "out" in cfg:
        files["csv"] = _write(cfg["out"], "defect.csv", render.defect_csv(df))
        overlay = stable_lines(domain, df.airy, domain.diameter() / 40)
        svg = render.heatmap_svg(
            df.grid.x0, df.grid.y0, df.grid.h, df.lam, df.grid.mask,
            domain=domain, overlay=overlay,
        )
        files["svg"] = _write(cfg["out"], "defect.svg", svg)
        payload["files"] = files
    text = _report(cfg, payload)
    if "out" in cfg:
        _write(cfg["out"], "defect.json", text + "\n")
    print(text)
    return EXIT_OK


def cmd_herringbone(cfg):
    b = float(cfg.get("b", 1e-8))
    k = float(cfg.get("k", 1.0))
    mu = np.asarray(cfg.get("mu", [[1.0, 0.0], [0.0, 1.0]]), dtype=float)
    target = TargetDefect(mu)
    if cfg.get("auto", True):
        params = optimal_params(b, k, target)
    else:
        params = None
        raise ShellWrinkleError("explicit parameters require auto=false with fields")
    side = float(cfg.get("side", 1.0))
    fld = herringbone(((0.0, 0.0), side), mu, params)
    files = {}
    if "out" in cfg:
        files["csv"] = _write(cfg["out"], "heightmap.csv", render.heightmap_csv(fld))
        # contour-style SVG from the height samples (coarsened)
        step = max(1, fld.shape[0] // 256)
        svg = render.heatmap_svg(
            fld.origin[0], fld.origin[1], fld.h * step,
            fld.w[::step, ::step], fld.domain_mask[::step, ::step],
        )
        files["svg"] = _write(cfg["out"], "heightmap.svg", svg)
    payload = {
        "command": "herringbone",
        "params": {
            "l_wr": params.l_wr, "l_sh": params.l_sh, "l_avg": params.l_avg,
            "delta_int": params.delta_int, "delta_ext": params.delta_ext,
        },
        "grid": list(fld.shape),
        "files": files,
    }
    print(_report(cfg, payload))
    return EXIT_OK


def cmd_energy(cfg):
    b = float(cfg.get("b", 1e-8))
    k = float(cfg.get("k", 1.0))
    gamma = float(cfg.get("gamma", 0.0))
    ep = EnergyParams(b=b, k=k, gamma=gamma)
    mu = np.asarray(cfg.get("mu", [[1.0, 0.0], [0.0, 1.0]]), dtype=float)
    target = TargetDefect(mu)
    params = optimal_params(b, k, target)
    side = float(cfg.get("side", 1.0))
    fld = herringbone(((0.0, 0.0), side), mu, params)
    shell = ShellProfile(curvature=0.0, sign="zero")
    full = energy(fld, shell, ep, target=target)
    bulk = energy(fld, shell, ep, region=fld.stencil_bulk_mask(), renormalize=True,
                  target=target)
    payload = {
        "command": "energy",
        "full": {
            "stretching": full.stretching, "bending": full.bending,
            "substrate": full.substrate, "surface": full.surface,
            "total": full.total,
        },
        "bulk_renormalized": {
            "stretching": bulk.stretching, "bending": bulk.bending,
            "substrate": bulk.substrate, "surface": bulk.surface,
            "total": bulk.total,
        },
        "gamma_eff": ep.gamma_eff,
        "wrinkling_over_gamma_eff": (bulk.bending + bulk.substrate) / ep.gamma_eff,
    }
    text = _report(cfg, payload)
    if "out" in cfg:
        _write(cfg["out"], "energy.json", text + "\n")
    print(text)
    return EXIT_OK


def cmd_verify(cfg):
    results = run_all()
    ok = all(passed for _, passed, _ in results)
    if "out" in cfg:
        payload = {
            "command": "verify",
            "results": [
                {"criterion": name, "passed": passed, "detail": detail}
                for name, passed, detail in results
            ],
        }
        _write(cfg["out"], "verify.json", _report(cfg, payload) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_sweep(cfg):
    domain = _domain_from(cfg)
    shell = _shell_from(cfg)
    bs = cfg.get("b_values", [1e-6, 1e-8, 1e-10])
    k = float(cfg.get("k", 1.0))
    gamma = float(cfg.get("gamma", 0.0))
    seq = [EnergyParams(b=float(bb), k=k, gamma=gamma) for bb in bs]
    rep = scaling_study(domain, shell, seq, resolution=int(cfg.get("resolution", 192)))
    payload = {
        "command": "sweep",
        "c1": rep.c1,
        "slope": rep.slope,
        "primal": rep.primal,
        "points": [
            {
                "b": p.params.b, "k": p.params.k, "gamma": p.params.gamma,
                "ratio": p.ratio, "stretching": p.stretching,
                "stretch_scale": p.stretch_scale, "bulk_fraction": p.bulk_fraction,
            }
            for p in rep.points
        ],
        "residuals": rep.residuals,
        "decay_exponent": rep.decay_exponent,
        "regime_warnings": rep.regime_warnings,
    }
    text = _report(cfg, payload)
    if "out" in cfg:
        _write(cfg["out"], "sweep.json", text + "\n")
    print(text)
    return EXIT_OK


COMMANDS = {
    "pattern": cmd_pattern,
    "dual": cmd_dual,
    "defect": cmd_defect,
    "herringbone": cmd_herringbone,
    "energy": cmd_energy,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser():
    p = argparse.ArgumentParser(prog="shellwrinkle", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--shape", help="catalog shape name")
        sp.add_argument("--radius", type=float)
        sp.add_argument("--a", type=float)
        sp.add_argument("--b-axis", dest="b_axis", type=float)
        sp.add_argument("--sign", choices=["positive", "negative", "zero"])
        sp.add_argument("--curvature", type=float)
        sp.add_argument("--resolution", type=int)
        sp.add_argument("--spacing", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--angle", type=float, help="unconstrained-chord angle")
        sp.add_argument("--b", dest="b", type=float)
        sp.add_argument("--k", dest="k", type=float)
        sp.add_argument("--gamma", type=float)
    return p


def _config_from_args(args):
    cfg = {}
    if args.config:
        cfg.update(_load_config(args.config))
    if args.shape:
        dom = {"shape": args.shape}
        if args.radius is not None:
            dom["radius"] = args.radius
        if args.a is not None:
            dom["a"] = args.a
        if args.b_axis is not None:
            dom["b"] = args.b_axis
        cfg["domain"] = {**cfg.get("domain", {}), **dom}
    if args.sign or args.curvature is not None:
        shell = dict(cfg.get("shell", {}))
        if args.sign:
            shell["sign"] = args.sign
        if args.curvature is not None:
            shell["curvature"] = args.curvature
        cfg["shell"] = shell
    for key in ("out", "resolution", "spacing", "seed", "b", "k", "gamma"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.angle is not None:
        cfg["u_decomposition"] = {"kind": "parallel", "angle": args.angle}
    return cfg


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; map --version/-h to 0
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    cfg = _config_from_args(args)
    try:
        return COMMANDS[args.command](cfg)
    except (ParameterError, ResolutionError, UnsupportedShapeError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        RegimeError, DomainError, AmbiguityError, FamilyLookupError,
        ConsistencyError, ShellWrinkleError, ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
