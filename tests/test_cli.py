"""The CLI's own config numbers and sections: each number is read through
one gate that names the key of a non-numeric or non-finite value, each
section must be a mapping, and either fault exits 2."""

import json

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
