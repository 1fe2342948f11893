"""Command-line front end.

Subcommands: pattern, dual, defect, herringbone, energy, verify, sweep.
`COMMANDS` names the config keys each subcommand reads, and `FLAGS` the
flags of each key; a subcommand takes --config, --out and the flags of its
own keys, spelled out in full (abbreviations are off).  Configuration comes
from a JSON file (--config) with flags overriding file values.  A flag sets
one key, or one entry of a key's section merged into the file's section:
--radius sets domain.radius alone, and --angle u_decomposition.angle alone
(with no such section that is parallel chords at that angle; a section's
kind stays).  Keys of the file that a subcommand does not read are ignored.

Every subcommand prints one JSON report, whose `config` holds the keys it
read and `out`; with --out it also writes that text to `<command>.json` in
that directory, next to its other files.  `verify` prints its PASS/FAIL
lines to stderr.  Exit codes: 0 ok, 1 verification failure, 2 usage error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import airy as airy_mod
from . import characteristics as chars
from . import render
from .acceptance import run_all
from .energy import EnergyParams, energy, relative_gap, scaling_study
from .errors import (
    ConsistencyError,
    DataError,
    DomainError,
    ParameterError,
    RegimeError,
    ResolutionError,
    ShellWrinkleError,
    UnsupportedShapeError,
)
from .geometry import ConvexPolygon, make_domain
from .herringbone import TargetDefect, herringbone, optimal_params
from .rulings import UDecomposition
from .shell import ShellProfile
from .stablelines import stable_lines

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _number(value, key, kind=float):
    """``value`` converted by ``kind`` (float, int or `_floats`); a
    ParameterError naming ``key`` unless it converts to finite numbers."""
    try:
        x = kind(value)
        ok = bool(np.all(np.isfinite(x)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(f"{key} must be numeric and finite, got {value!r}")
    return x


def _floats(value):
    return np.asarray(value, dtype=float)


def _section(cfg, key, default=None):
    """cfg[key], or ``default`` when absent; a ParameterError naming ``key``
    unless it is a mapping."""
    spec = cfg.get(key, default)
    if spec is not None and not isinstance(spec, dict):
        raise ParameterError(f"{key} must be a mapping, got {spec!r}")
    return spec


def _shape(cfg):
    """The config's domain (a usage error naming `domain` when absent) and
    shell."""
    domain = make_domain(cfg.get("domain"))
    spec = _section(cfg, "shell", {"sign": "zero", "curvature": 0.0})
    sign = spec.get("sign")
    k = spec.get("curvature", {"positive": 1.0, "negative": -1.0, "zero": 0.0}.get(sign, 0.0))
    k = _number(k, "shell curvature")
    if sign is None:
        sign = "zero" if k == 0 else ("positive" if k > 0 else "negative")
    return domain, ShellProfile(curvature=k, sign=sign)


def _decomposition_from(cfg):
    spec = _section(cfg, "u_decomposition")
    if spec is None:
        return None
    if spec.get("kind") == "random":
        seed = _number(cfg.get("seed", 0), "seed", int)
        rng = np.random.default_rng(seed)
        return UDecomposition(kind="parallel", angle=float(rng.uniform(0, np.pi)))
    return UDecomposition(
        kind=spec.get("kind", "parallel"),
        angle=_number(spec.get("angle", 0.0), "u_decomposition angle"),
        angle2=_number(spec.get("angle2", np.pi / 4), "u_decomposition angle2"),
        weight=_number(spec.get("weight", 0.5), "u_decomposition weight"),
    )


def _write(outdir, name, text):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _square_field(cfg):
    """The herringbone on the square [0, side]^2 for the config's b, k and
    mu: (b, k, side, target, params, field)."""
    b = _number(cfg.get("b", 1e-8), "b")
    k = _number(cfg.get("k", 1.0), "k")
    mu = _number(cfg.get("mu", [[1.0, 0.0], [0.0, 1.0]]), "mu", _floats)
    target = TargetDefect(mu)
    params = optimal_params(b, k, target)
    side = _number(cfg.get("side", 1.0), "side")
    return b, k, side, target, params, herringbone(((0.0, 0.0), side), mu, params)


def cmd_pattern(cfg):
    domain, shell = _shape(cfg)
    deco = _decomposition_from(cfg)
    spacing = _number(cfg.get("spacing", domain.diameter() / 40), "spacing")
    af = airy_mod.solve_dual(domain, shell, deco)
    family = stable_lines(domain, af, spacing)
    payload = {"lines": len(family.lines)}
    if "out" in cfg:
        medial = domain.medial_axis() if af.sign < 0 else None
        svg = render.pattern_svg(domain, family, medial=medial)
        files = {
            "svg": _write(cfg["out"], "pattern.svg", svg),
            "csv": _write(cfg["out"], "pattern.csv", render.family_csv(family)),
        }
        if medial is not None:
            files["medial_csv"] = _write(cfg["out"], "medial_axis.csv", render.medial_csv(medial))
        payload["files"] = files
    return payload


def cmd_dual(cfg):
    domain, shell = _shape(cfg)
    resolution = _number(cfg.get("resolution", 256), "resolution", int)
    tol = _number(_section(cfg, "tolerances", {}).get("admissibility", 1e-8),
                  "tolerances admissibility")
    af = airy_mod.solve_dual(domain, shell, _decomposition_from(cfg))
    return {
        "sign": "plus" if af.sign > 0 else "minus",
        "dual_value": airy_mod.dual_value(domain, shell, af, resolution),
        "admissibility": dataclasses.asdict(airy_mod.check_admissible(af, domain, tol)),
    }


def cmd_defect(cfg):
    domain, shell = _shape(cfg)
    resolution = _number(cfg.get("resolution", 256), "resolution", int)
    test_count = _number(cfg.get("test_count", 8), "test_count", int)
    df = chars.defect_field(domain, shell, resolution, _decomposition_from(cfg))
    primal = df.primal_value()
    dual = airy_mod.dual_value(domain, shell, df.airy, resolution)
    payload = {
        "primal": primal,
        "dual": dual,
        "gap": relative_gap(primal, dual),
        "residual": chars.curlcurl_residual(df, shell, test_count),
        "min_lambda": df.min_lambda(),
        "sign_violations": df.sign_violations,
        "interface_caveat": df.interface_flag,
    }
    if "out" in cfg:
        overlay = stable_lines(domain, df.airy, domain.diameter() / 40)
        svg = render.heatmap_svg(
            df.grid.x0, df.grid.y0, df.grid.h, df.lam, df.grid.mask,
            domain=domain, overlay=overlay,
        )
        payload["files"] = {
            "csv": _write(cfg["out"], "defect.csv", render.defect_csv(df)),
            "svg": _write(cfg["out"], "defect.svg", svg),
        }
    return payload


def cmd_herringbone(cfg):
    *_, params, fld = _square_field(cfg)
    payload = {"params": dataclasses.asdict(params), "grid": list(fld.shape)}
    if "out" in cfg:
        # contour-style SVG from the height samples (coarsened)
        step = max(1, fld.shape[0] // 256)
        svg = render.heatmap_svg(
            fld.origin[0], fld.origin[1], fld.h * step,
            fld.w[::step, ::step], fld.domain_mask[::step, ::step],
        )
        payload["files"] = {
            "csv": _write(cfg["out"], "heightmap.csv", render.heightmap_csv(fld)),
            "svg": _write(cfg["out"], "heightmap.svg", svg),
        }
    return payload


def cmd_energy(cfg):
    gamma = _number(cfg.get("gamma", 0.0), "gamma")
    b, k, side, target, _, fld = _square_field(cfg)
    ep = EnergyParams(b=b, k=k, gamma=gamma)
    square = ConvexPolygon([(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)])
    shell = ShellProfile(curvature=0.0, sign="zero")
    full = energy(fld, shell, ep, domain=square, target=target)
    bulk = energy(fld, shell, ep, domain=square, region=fld.stencil_bulk_mask(),
                  renormalize=True, target=target)
    return {
        "full": {**dataclasses.asdict(full), "total": full.total},
        "bulk_renormalized": {**dataclasses.asdict(bulk), "total": bulk.total},
        "gamma_eff": ep.gamma_eff,
        "wrinkling_over_gamma_eff": (bulk.bending + bulk.substrate) / ep.gamma_eff,
    }


def cmd_verify(cfg):
    results = run_all(printer=lambda line: print(line, file=sys.stderr))
    return {"results": [{"criterion": name, "passed": passed, "detail": detail}
                        for name, passed, detail in results]}


def cmd_sweep(cfg):
    domain, shell = _shape(cfg)
    bs = _number(cfg.get("b_values", [1e-6, 1e-8, 1e-10]), "b_values", _floats)
    if bs.ndim != 1:
        raise ParameterError(f"b_values must be a list of numbers, got {cfg['b_values']!r}")
    k = _number(cfg.get("k", 1.0), "k")
    gamma = _number(cfg.get("gamma", 0.0), "gamma")
    resolution = _number(cfg.get("resolution", 192), "resolution", int)
    seq = [EnergyParams(b=float(bb), k=k, gamma=gamma) for bb in bs]
    rep = scaling_study(domain, shell, seq, resolution=resolution)
    points = [
        {**dataclasses.asdict(p.params), "ratio": p.ratio, "stretching": p.stretching,
         "stretch_scale": p.stretch_scale, "bulk_fraction": p.bulk_fraction}
        for p in rep.points
    ]
    return {**dataclasses.asdict(rep), "points": points}


# Each config key's flags, as (flag, the entry of the key's section it sets
# or None for the key itself, argparse type or a tuple of choices).
FLAGS = {
    "out": [("--out", None, str)],
    "domain": [("--shape", "shape", str), ("--radius", "radius", float),
               ("--a", "a", float), ("--b-axis", "b", float)],
    "shell": [("--sign", "sign", ("positive", "negative", "zero")),
              ("--curvature", "curvature", float)],
    "u_decomposition": [("--angle", "angle", float)],
    "seed": [("--seed", None, int)],
    "spacing": [("--spacing", None, float)],
    "resolution": [("--resolution", None, int)],
    "b": [("--b", None, float)],
    "k": [("--k", None, float)],
    "gamma": [("--gamma", None, float)],
}

# Each subcommand and the config keys it reads; keys absent from FLAGS are
# read from the config file alone.
SHAPE = ("domain", "shell", "u_decomposition", "seed")
COMMANDS = {
    "pattern": (cmd_pattern, (*SHAPE, "spacing")),
    "dual": (cmd_dual, (*SHAPE, "resolution", "tolerances")),
    "defect": (cmd_defect, (*SHAPE, "resolution", "test_count")),
    "herringbone": (cmd_herringbone, ("b", "k", "mu", "side")),
    "energy": (cmd_energy, ("b", "k", "mu", "side", "gamma")),
    "verify": (cmd_verify, ()),
    "sweep": (cmd_sweep, ("domain", "shell", "b_values", "k", "gamma", "resolution")),
}


def _flags(keys):
    """(key, flag, entry, kind) per flag of ``keys`` and `out`."""
    for key in ("out", *keys):
        for flag, entry, kind in FLAGS.get(key, ()):
            yield key, flag, entry, kind


def build_parser():
    p = argparse.ArgumentParser(prog="shellwrinkle", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file")
        for key, flag, entry, kind in _flags(keys):
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sets = f"{key}.{entry}" if entry else key
            sp.add_argument(flag, help=f"sets config {sets}", **typed)
    return p


def _config_from_args(args, keys):
    """The config file's values of ``keys`` and `out`, each flag given
    merged in."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ParameterError(f"config must be a mapping, got {type(cfg).__name__}")
    for key, flag, entry, _ in _flags(keys):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            cfg[key] = value if entry is None else {**_section(cfg, key, {}), entry: value}
    return {key: cfg[key] for key in (*keys, "out") if key in cfg}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; map --version/-h to 0
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    run, keys = COMMANDS[args.command]
    try:
        cfg = _config_from_args(args, keys)
        payload = run(cfg)
    except (ParameterError, ResolutionError, UnsupportedShapeError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        RegimeError, DomainError, ConsistencyError, ShellWrinkleError,
        ArithmeticError, np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    text = json.dumps({"version": __version__, "command": args.command, "config": cfg, **payload},
                      indent=2, sort_keys=True)
    print(text)
    if "out" in cfg:
        _write(cfg["out"], f"{args.command}.json", text + "\n")
    failed = [r for r in payload.get("results", ()) if not r["passed"]]
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
