"""End-to-end tests of the command-line interface.

Each test drives ``main`` with a real argv list; nothing is mocked, so
these double as integration smoke tests for the whole stack.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from elliptic_selberg import cli, verify
from elliptic_selberg.blocks import BlockIndex, u_block
from elliptic_selberg.specfun import ModularPoint, theta1


def run(args, capsys):
    code = cli.main(args)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

def test_the_package_never_imports_scipy():
    # the package runs on numpy alone: importing it, the series proofs, a
    # cold p = 2 u_block (its Gauss-Jacobi corner rules) at kappa = 6 and 8
    # and the closed form at complex parameters (its log Gamma) load no scipy
    code = ("import sys\n"
            "from elliptic_selberg import cli, verify\n"
            "from elliptic_selberg.blocks import BlockIndex, u_block\n"
            "from elliptic_selberg.selberg import SelbergParams, selberg_value\n"
            "from elliptic_selberg.specfun import ModularPoint\n"
            "assert all(verify.series_prerequisites().values())\n"
            "for kappa in (6, 8):\n"
            "    u_block(BlockIndex(2, kappa, 3), 0.3, ModularPoint(0.9j))\n"
            "selberg_value(SelbergParams(2, 0.5 + 0.2j, 0.7, 0.25))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_parse_complex_accepts_engineering_notation():
    assert cli.parse_complex("0.3+0.9i") == complex(0.3, 0.9)
    assert cli.parse_complex("0.9i") == complex(0.0, 0.9)
    assert cli.parse_complex("-2") == complex(-2.0, 0.0)
    assert cli.parse_complex(" 1 - 0.5i ") == complex(1.0, -0.5)


def test_parse_complex_rejects_garbage():
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_complex("zebra")


def test_parse_tau_needs_upper_half_plane():
    assert cli.parse_tau("0.9i") == 0.9j
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_tau("0.3-0.9i")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_tau("1.0")


def test_unparseable_tau_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--identity", "1", "--tau", "0.9-2i"])
    assert info.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["transmogrify"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# eval / series / selberg / smatrix / block
# ---------------------------------------------------------------------------

def test_eval_theta1_matches_library(capsys):
    code, out = run(["eval", "--function", "theta1", "--lambda", "0.3",
                     "--tau", "0.9i"], capsys)
    assert code == 0
    payload = json.loads(out)
    want = theta1(0.3, ModularPoint(0.9j))
    assert payload["value"][0] == pytest.approx(want.real, abs=1e-15)
    assert payload["config"]["function"] == "theta1"


def test_eval_level_theta_requires_indices(capsys):
    code, _ = run(["eval", "--function", "theta", "--lambda", "0.3",
                   "--tau", "0.9i"], capsys)
    assert code == 2


def test_series_proof_passes(capsys):
    code, out = run(["series", "--name", "theta6_diff_is_eta",
                     "--order", "20"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["terms_compared"] > 0


def test_series_needs_exactly_one_mode(capsys):
    code, _ = run(["series", "--name", "theta6_diff_is_eta",
                   "--expand", "eta"], capsys)
    assert code == 2
    code, _ = run(["series"], capsys)
    assert code == 2


def test_series_expansion_csv_rows(capsys):
    code, out = run(["series", "--expand", "eta", "--order", "3", "--csv"],
                    capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q_exponent,x_exponent,re,im"
    assert lines[1].startswith("1/24,0,1")


def test_selberg_oracle_roundtrip(capsys):
    code, out = run(["selberg", "--p", "1", "--alpha", "1.3", "--beta",
                     "0.8", "--gamma", "0.4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    closed, oracle = (complex(*payload[key]) for key in ("value", "oracle"))
    assert abs(closed - oracle) < 1e-10 * abs(oracle)
    # every term of this rule is positive, so its scale is the value
    assert payload["discrepancy"] < 1e-10
    assert abs(payload["oracle_scale"] - abs(oracle)) <= 1e-12 * abs(oracle)


def test_selberg_near_exponent_minus_two_verifies(capsys):
    # endpoint exponent beta - 1 = -1.9 runs the oracle's endpoint circle
    code, out = run(["selberg", "--p", "1", "--alpha", "1.3", "--beta=-0.9",
                     "--gamma", "0.4"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_negative_complex_value_needs_the_equals_form(capsys):
    # after a space, argparse reads "-0.5+0.1i" as an option, not a value
    with pytest.raises(SystemExit) as info:
        cli.main(["selberg", "--p", "1", "--alpha", "1.3", "--beta",
                  "-0.5+0.1i", "--gamma", "0.4"])
    assert info.value.code == 2
    code, out = run(["selberg", "--p", "1", "--alpha", "1.3",
                     "--beta=-0.5+0.1i", "--gamma", "0.4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["beta"] == [-0.5, 0.1]
    assert payload["passed"] is True
    # endpoint exponent beta - 1 = -2.5 runs the endpoint circle; an integer
    # endpoint exponent is outside the oracle's range, a usage error
    code, out = run(["selberg", "--p", "1", "--alpha", "1.3", "--beta=-1.5",
                     "--gamma", "0.4"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, _ = run(["selberg", "--p", "1", "--alpha", "1.3", "--beta=-1",
                   "--gamma", "0.4"], capsys)
    assert code == 2


def test_selberg_zero_closed_form_is_matched_absolutely(capsys):
    # Gamma(alpha + beta) = Gamma(0) downstairs: the closed form is exactly 0
    # and the oracle's value is rounding, so no relative comparison exists;
    # the discrepancy is taken against the oracle rule's sum of |terms|
    code, out = run(["selberg", "--p", "1", "--alpha", "0.5", "--beta=-0.5",
                     "--gamma", "0.4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [0.0, 0.0]
    assert abs(complex(*payload["oracle"])) <= 1e-8
    assert payload["discrepancy"] <= 1e-8
    assert "rel_discrepancy" not in payload
    assert payload["passed"] is True


def test_selberg_near_a_zero_is_judged_by_the_rule_scale(capsys):
    # beta 1e-8 off the zero at alpha + beta = 0: the value is -6.3e-8 and
    # the oracle matches it to 1.7e-15, a relative discrepancy of 2.7e-8
    # that failed the 1e-8 bound although the match is at rounding level
    code, out = run(["selberg", "--p", "1", "--alpha", "0.5",
                     "--beta=-0.49999999", "--gamma", "0"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    closed, oracle = (complex(*payload[key]) for key in ("value", "oracle"))
    assert abs(closed) < 1e-7
    assert abs(closed - oracle) <= 1e-14
    assert payload["discrepancy"] <= 1e-14


@pytest.mark.parametrize("args", [
    ["--p", "1", "--alpha", "1.3", "--beta", "0.8", "--gamma", "0.4"],
    ["--p", "2", "--alpha", "1.3+0.2i", "--beta", "0.8", "--gamma", "0.4"],
])
def test_selberg_closed_form_off_by_a_millionth_fails(args, capsys,
                                                      monkeypatch):
    # at a generic point the rule's terms do not cancel, so a closed form
    # off by 1e-6 relative is off by about 1e-6 of the scale
    true_value = cli.selberg_value
    monkeypatch.setattr(cli, "selberg_value",
                        lambda params: true_value(params) * (1 + 1e-6))
    code, out = run(["selberg", *args], capsys)
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    assert payload["discrepancy"] > 5e-7


def test_smatrix_reports_relations(capsys):
    code, out = run(["smatrix", "--p", "0", "--kappa", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["t_matrix"]["labels"]) == 2
    assert max(payload["relation_residuals"].values()) < 1e-10


def test_block_matches_library(capsys):
    code, out = run(["block", "--p", "1", "--kappa", "4", "--n", "2",
                     "--lambda", "0.3", "--tau", "0.9i"], capsys)
    assert code == 0
    payload = json.loads(out)
    want = u_block(BlockIndex(1, 4, 2), 0.3, ModularPoint(0.9j))
    assert payload["value"][0] == pytest.approx(want.value.real, rel=1e-12)
    assert payload["error_estimate"] < 1e-8


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_identity_passes(capsys):
    code, out = run(["verify", "--identity", "2", "--p", "1",
                     "--grid", "0.27,0.55"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reports"][0]["name"] == "identity-2"
    assert payload["reports"][0]["inputs"]["kappa"] == 5
    assert payload["config"]["identity"] == "2"


def test_verify_all_on_a_single_point(capsys):
    code, out = run(["verify", "--identity", "all", "--grid", "0.41"],
                    capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 10
    assert payload["passed"] is True


def test_verify_csv_has_documented_columns(capsys):
    code, out = run(["verify", "--identity", "1", "--grid", "0.31,0.55",
                     "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("name,param-key,param-value,lhs_re,lhs_im,"
                        "rhs_re,rhs_im,rel_err,pass")
    assert len(lines) == 3
    assert lines[1].startswith("identity-1,lambda,0.31,")
    assert lines[1].endswith(",True")


def test_verify_impossible_tolerance_exits_one(capsys):
    code, out = run(["verify", "--identity", "1", "--grid", "0.31",
                     "--tol", "1e-17"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli.main(["--output", str(path), "verify", "--identity", "3",
                         "--grid", "0.27"])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_output_file_gets_valid_json(tmp_path):
    path = tmp_path / "report.json"
    code = cli.main(["--output", str(path), "eval", "--function", "eta",
                     "--tau", "0.8i"])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["subcommand"] == "eval"


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_passes_end_to_end(capsys):
    code, out = run(["suite"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks_failed"] == []
    assert payload["checks_run"] >= 60
    assert set(payload["sections"]) == {
        "series", "special-functions", "matrices", "identities",
        "residuals", "leading-term"}


def test_suite_reports_a_failing_check(monkeypatch, capsys):
    real_battery = verify.battery

    def rigged(full=False):
        # every check passes at once except the first matrix relation
        sections = {section: [check._replace(run=lambda: (True, "ok"))
                              for check in checks]
                    for section, checks in real_battery(full).items()}
        sections["matrices"][0] = sections["matrices"][0]._replace(
            run=lambda: (False, "forced"))
        return sections

    monkeypatch.setattr(verify, "battery", rigged)
    code, out = run(["suite"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks_failed"] == ["matrix-relations:p=0,kappa=3"]
    assert payload["checks_run"] == 61


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_ARGS = {"prove_theta_constants": (), "heat_equation_tour": (),
             "verify_identities": (False,)}


@pytest.mark.parametrize("name", sorted(DEMO_ARGS))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(*DEMO_ARGS[name]) in (None, 0)
    assert "FAIL" not in capsys.readouterr().out
