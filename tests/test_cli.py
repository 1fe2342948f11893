"""The CLI: each number is read through one gate that names the key of a
non-numeric or non-finite value, each section must be a mapping, and either
fault exits 2; each subcommand takes only the flags of the config keys it
reads and writes the report it prints; and `dual` and `defect` give the
same scaled figures on shapes far larger or smaller than size 1."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shellwrinkle import cli

DISC = {"shape": "disc", "radius": 1.0}
NEG = {"sign": "negative"}

# (subcommand, base config, key path, error name)
FIELDS = [
    ("defect", {"domain": DISC, "shell": NEG}, ("resolution",), "resolution"),
    ("defect", {"domain": DISC, "shell": NEG}, ("test_count",), "test_count"),
    ("defect", {"domain": DISC, "shell": {"sign": "negative"}}, ("shell", "curvature"),
     "shell curvature"),
    ("defect", {"domain": DISC, "shell": NEG, "u_decomposition": {"kind": "random"}},
     ("seed",), "seed"),
    ("dual", {"domain": DISC, "shell": NEG}, ("resolution",), "resolution"),
    ("dual", {"domain": DISC, "shell": NEG, "tolerances": {}}, ("tolerances", "admissibility"),
     "tolerances admissibility"),
    ("pattern", {"domain": DISC, "shell": NEG}, ("spacing",), "spacing"),
    ("pattern", {"domain": DISC, "shell": {"sign": "positive"}, "u_decomposition": {}},
     ("u_decomposition", "angle"), "u_decomposition angle"),
    ("pattern", {"domain": DISC, "shell": {"sign": "positive"}, "u_decomposition": {}},
     ("u_decomposition", "angle2"), "u_decomposition angle2"),
    ("pattern", {"domain": DISC, "shell": {"sign": "positive"}, "u_decomposition": {}},
     ("u_decomposition", "weight"), "u_decomposition weight"),
    ("herringbone", {}, ("b",), "b"),
    ("herringbone", {}, ("k",), "k"),
    ("herringbone", {}, ("side",), "side"),
    ("herringbone", {}, ("mu",), "mu"),
    ("energy", {}, ("gamma",), "gamma"),
    ("sweep", {"domain": DISC, "shell": NEG}, ("b_values",), "b_values"),
    ("sweep", {"domain": DISC, "shell": NEG}, ("resolution",), "resolution"),
]


def _run(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and inf go out as NaN and Infinity
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("value", ["abc", float("nan"), float("inf")],
                         ids=["string", "nan", "inf"])
@pytest.mark.parametrize("command, base, path, name", FIELDS,
                         ids=[f"{c}-{'.'.join(p)}" for c, _, p, _ in FIELDS])
def test_a_bad_number_is_a_usage_error_naming_its_key(tmp_path, capsys, command, base, path,
                                                      name, value):
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = [value, 1.0] if path[-1] in ("mu", "b_values") else value
    assert _run(tmp_path, command, cfg) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name} must be numeric and finite" in err


@pytest.mark.parametrize("command, key", [("defect", "shell"), ("defect", "u_decomposition"),
                                          ("dual", "tolerances")])
def test_a_config_section_must_be_a_mapping(tmp_path, capsys, command, key):
    cfg = {"domain": DISC, "shell": NEG, key: "negative"}
    assert _run(tmp_path, command, cfg) == cli.EXIT_USAGE
    assert f"{key} must be a mapping" in capsys.readouterr().err


def test_a_domain_far_from_the_origin_is_a_usage_error_naming_center(tmp_path, capsys):
    cfg = {"domain": {"shape": "disc", "radius": 1.0, "center": [1e12, 0.0]}, "shell": NEG}
    assert _run(tmp_path, "defect", cfg) == cli.EXIT_USAGE
    assert "disc center: too far from the origin" in capsys.readouterr().err


def test_b_values_must_be_a_list(tmp_path, capsys):
    cfg = {"domain": DISC, "shell": NEG, "b_values": 1e-8}
    assert _run(tmp_path, "sweep", cfg) == cli.EXIT_USAGE
    assert "b_values must be a list" in capsys.readouterr().err


def test_defect_reports_its_sign_violations(tmp_path, capsys):
    argv = ["defect", "--shape", "disc", "--radius", "1", "--sign", "negative",
            "--resolution", "64"]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["sign_violations"] == 0
    assert np.isfinite(report["min_lambda"])


DOMAIN_FLAGS = {"--shape", "--radius", "--a", "--b-axis"}
SHAPE_FLAGS = {"--config", "--out", *DOMAIN_FLAGS, "--sign", "--curvature", "--angle", "--seed"}
FLAG_SETS = {
    "pattern": SHAPE_FLAGS | {"--spacing"},
    "dual": SHAPE_FLAGS | {"--resolution"},
    "defect": SHAPE_FLAGS | {"--resolution"},
    "herringbone": {"--config", "--out", "--b", "--k"},
    "energy": {"--config", "--out", "--b", "--k", "--gamma"},
    "verify": {"--config", "--out"},
    "sweep": {"--config", "--out", *DOMAIN_FLAGS, "--sign", "--curvature", "--resolution",
              "--k", "--gamma"},
}


def test_each_subcommand_takes_only_the_flags_of_the_keys_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
             for name, sp in subparsers.choices.items()}
    assert flags == FLAG_SETS
    assert sum(map(len, flags.values())) == 55


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--shape", "disc", "--radius", "1", "--b", "1e-7"], "--b"),
    (["herringbone", "--shape", "disc"], "--shape"),
    (["energy", "--resolution", "64"], "--resolution"),
    (["pattern", "--shape", "disc", "--radius", "1", "--resolution", "64"], "--resolution"),
    (["verify", "--resolution", "64"], "--resolution"),
    (["dual", "--shape", "disc", "--rad", "1"], "--rad"),  # no abbreviations
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv, flag):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _stub_run_all(results):
    def run_all(printer=print):
        for name, passed, detail in results:
            printer(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        return results
    return run_all


@pytest.mark.parametrize("command, cfg", [
    ("pattern", {"domain": DISC, "shell": NEG}),
    ("dual", {"domain": DISC, "shell": NEG, "resolution": 64}),
    ("defect", {"domain": DISC, "shell": NEG, "resolution": 64}),
    ("herringbone", {"side": 0.05}),
    ("energy", {"side": 0.05, "gamma": 0.5}),
    ("verify", {}),
    ("sweep", {"domain": {"shape": "ellipse", "a": 2.0, "b": 1.0}, "shell": {"sign": "positive"},
               "resolution": 64, "b_values": [1e-6, 1e-8]}),
])
def test_every_subcommand_writes_the_report_it_prints(tmp_path, capsys, monkeypatch, command, cfg):
    monkeypatch.setattr(cli, "run_all", _stub_run_all([("1 stub", True, "ok")]))
    assert _run(tmp_path, command, cfg) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert (tmp_path / "out" / f"{command}.json").read_text() == printed
    report = json.loads(printed)
    assert report["command"] == command
    assert report["config"] == {**cfg, "out": str(tmp_path / "out")}


def test_pattern_runs_without_out(capsys):
    argv = ["pattern", "--shape", "disc", "--radius", "1", "--sign", "negative"]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["lines"] > 0 and "files" not in report


def test_verify_reports_a_failed_criterion_and_exits_1(tmp_path, capsys, monkeypatch):
    results = [("1 stub", True, "ok"), ("2 stub", False, "off by 1")]
    monkeypatch.setattr(cli, "run_all", _stub_run_all(results))
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAIL
    out, err = capsys.readouterr()
    assert [r["passed"] for r in json.loads(out)["results"]] == [True, False]
    assert err.splitlines() == ["[PASS] 1 stub: ok", "[FAIL] 2 stub: off by 1"]


def test_a_flag_merges_into_its_config_section(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": {"shape": "disc", "radius": 1.0, "center": [0.5, 0.0]},
                                "shell": {"sign": "positive"},
                                "u_decomposition": {"kind": "mixture", "weight": 0.25}}))
    argv = ["pattern", "--config", str(path), "--radius", "3", "--angle", "0.5"]
    assert cli.main(argv) == cli.EXIT_OK
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["domain"] == {"shape": "disc", "radius": 3.0, "center": [0.5, 0.0]}
    assert config["u_decomposition"] == {"kind": "mixture", "weight": 0.25, "angle": 0.5}


def test_keys_a_subcommand_does_not_read_are_neither_echoed_nor_rejected(tmp_path, capsys):
    cfg = {"domain": DISC, "shell": NEG, "resolution": 64, "b_values": "x", "gamma": "y",
           "spacing": "z"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["dual", "--config", str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"] == {"domain": DISC, "shell": NEG,
                                                             "resolution": 64}


@pytest.mark.parametrize("cfg", [{"shell": NEG}, {"domain": None, "shell": NEG}],
                         ids=["absent", "null"])
def test_a_config_without_a_domain_is_a_usage_error(tmp_path, capsys, cfg):
    assert _run(tmp_path, "defect", cfg) == cli.EXIT_USAGE
    assert "domain" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "error: config must be a mapping, got list"),
    ("{", "config error: "),
    (None, "config error: [Errno 2]"),
], ids=["list", "malformed", "missing"])
def test_a_config_file_that_is_not_a_json_mapping_is_a_usage_error(tmp_path, capsys, text,
                                                                   message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["dual", "--config", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(message)


SCALED = {
    "ellipse": lambda s: ["--shape", "ellipse", "--a", repr(2.0 * s), "--b-axis", repr(s)],
    "disc": lambda s: ["--shape", "disc", "--radius", repr(s)],
    "half_disc": lambda s: ["--shape", "half_disc", "--radius", repr(s)],
}


@pytest.mark.parametrize("k", ["1", "-1"])
@pytest.mark.parametrize("shape", sorted(SCALED))
def test_defect_on_a_large_shape_scales_as_at_size_one(capsys, shape, k):
    # cut-cell eval points projected onto the boundary round outside it by
    # a few ulp of the size, so the inside gates are a fraction of the
    # diameter, not a length
    def defect(s):
        argv = ["defect", *SCALED[shape](s), "--curvature", k, "--resolution", "64"]
        assert cli.main(argv) == cli.EXIT_OK, s
        return json.loads(capsys.readouterr().out)

    one = defect(1.0)
    for s in (1e4, 1e6, 1e30):
        rep = defect(s)
        assert abs(rep["gap"] - one["gap"]) <= 1e-8 * one["gap"], s
        assert abs(rep["primal"] / s**4 - one["primal"]) <= 1e-13, s


def test_dual_on_a_tiny_shape_returns_its_scaled_value():
    # check_admissible draws interior points until it has enough; a shrink
    # by a fixed length leaves a small shape none, and the draw never
    # ends, so the runs get a fresh process and a timeout
    code = (
        "import contextlib, io, json, sys\n"
        "from shellwrinkle import cli\n"
        "values = []\n"
        "for argv, s in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert cli.main(argv) == cli.EXIT_OK, argv\n"
        "    values.append(json.loads(buf.getvalue())['dual_value'] / s**4)\n"
        "print(json.dumps(values))\n"
    )
    cases = [
        (["dual", *SCALED[shape](s), "--curvature", k, "--resolution", "64"], s)
        for shape, size in [("disc", 1e-10), ("ellipse", 1e-40), ("half_disc", 1e-30)]
        for k in ("1", "-1")
        for s in (1.0, size)
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cases)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    values = json.loads(out.stdout)
    assert len(values) == 12
    for one, scaled in zip(values[::2], values[1::2]):
        assert abs(scaled - one) <= 1e-13
