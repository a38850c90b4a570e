"""Command-line interface: output schema, determinism, exit codes."""
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mpmath import mp, mpf

from zetapoly import MPoly, QuadratureSettings, ZetaPolyError
from zetapoly.cli import main
from zetapoly.mahler import Z_breakdown
from zetapoly.polyzeta import build_family, diagonal_value


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestPowersum:
    def test_exact_output(self):
        code, out = run_cli(["powersum", "--d", "2,3", "--gamma", "1,1", "--N", "0,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["kind"] == "exact"
        assert payload["value"] == "1/4"

    def test_regularity_violation_exits_1(self):
        code, out = run_cli(["powersum", "--d", "2,2", "--N", "0,0"])
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "RegularityViolated"

    def test_directional_mixed(self):
        code, out = run_cli(
            ["powersum", "--d", "3,2,2", "--N", "0,0,0", "--theta", "0,0,1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "mixed"
        assert payload["base"] == "-1/8"
        assert payload["terms"] == [
            {"coeff": "-1/480", "consts": ["Gamma(1/2)", "Gamma(1/2)"]}
        ]

    def test_mixed_sign_numeric_has_err(self):
        code, out = run_cli(
            ["powersum", "--d", "2,4", "--N", "1,0", "--precision", "30"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "numeric"
        assert "err" in payload

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["powersum", "--N", "0,0"])
        assert exc.value.code == 2

    def test_positive_point_with_theta_exits_1(self):
        code, out = run_cli(["powersum", "--d", "3,2,2", "--N", "0,0,1",
                             "--theta", "0,0,1"])
        assert code == 1
        assert "error" in json.loads(out)

    def test_length_mismatch_exits_1(self):
        code, out = run_cli(["powersum", "--d", "2,3", "--N", "0,0,0"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

    def test_huge_gamma_no_overflow(self):
        code, out = run_cli(["powersum", "--d", "3,2,2", "--N", "0,0,0",
                             "--theta", "0,0,1", "--gamma", f"1,1,{10**400}"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "mixed"
        assert payload["terms"][0]["coeff"] == f"-1/{480 * 10**200}"

    def test_pretty_output(self):
        code, out = run_cli(["powersum", "--d", "2,3", "--gamma", "1,1", "--N", "0,0",
                             "--pretty"])
        assert code == 0
        assert out == '{\n  "kind": "exact",\n  "schema": "1",\n  "value": "1/4"\n}\n'
        code, out = run_cli(["powersum", "--d", "2,2", "--N", "0,0", "--pretty"])
        assert code == 1
        assert out.startswith('{\n  "error": {\n    "message": ')
        assert json.loads(out)["error"]["type"] == "RegularityViolated"

    def test_directional_default_theta(self):
        code, out = run_cli(["directional", "--d", "3,2,2", "--N", "0,0,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "mixed" and payload["base"] == "-1/8"


class TestDeterminism:
    def test_byte_identical_runs(self):
        argv = ["mahler", "--P", "x1 + x2", "--N", "0", "--precision", "25"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2

    def test_numeric_carries_err(self):
        _, out = run_cli(["mahler", "--P", "x1 + x2", "--N", "0", "--precision", "25"])
        payload = json.loads(out)
        assert payload["kind"] == "numeric"
        assert "err" in payload and "value" in payload


class TestMahler:
    def test_terms_breakdown(self):
        code, out = run_cli(
            ["mahler", "--P", "x1 + x2", "--N", "0", "--terms", "--precision", "25"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"]
        for t in payload["terms"]:
            assert {"component", "i", "beta", "alpha"} <= set(t)

    def test_terms_bytes(self):
        # recorded when the faces were folded into orbits (DECISIONS.md D13):
        # x1 <-> x2 fixes P, so face 1's bucket, 5/24 with no master, stands
        # for both faces, and its value is their total 5/12
        _, out = run_cli(
            ["mahler", "--P", "x1 + x2", "--N", "0", "--terms", "--precision", "25"]
        )
        assert out == (
            '{"err":"5.0156e-36","kind":"numeric","schema":"1","terms":['
            '{"alpha":[2],"beta":[0,0],"component":0,"err":"5.0155e-36","i":1,'
            '"orbit":2,"value":"0.41666666666666666667"}],"value":"0.41666666666666667"}\n'
        )

    def test_terms_of_reduced_faces(self):
        # Criterion 9's diagonal faces sum to one form (DECISIONS.md D14):
        # the rational 1/16 and the one master int int 1/(1 + x^3 + y^3),
        # coefficient -1/30, with its own value Gamma(1/3)^3/27 and err.
        code, out = run_cli(["mahler", "--P", "x1^3 + x2^3 + x3^3 + x4^3", "--N", "0",
                             "--terms", "--rel-tol", "1e-8", "--precision", "25"])
        assert code == 0
        rational, master = json.loads(out)["terms"]
        assert rational == {"rational": "1/16"}
        assert master["master"] == {"a": ["1", "1"], "c": "1", "d": 3, "e": [0, 0]}
        assert master["coeff"] == "-1/30"
        with mp.workdps(40):
            truth = mp.gamma(mpf(1) / 3) ** 3 / 27
            assert abs(mpf(master["value"]) - truth) <= mpf(master["err"]) + mpf(10) ** -20

    def test_terms_truth(self):
        # The values behind test_terms_bytes: Z(x1 + x2, 1; 0) = 5/12, and
        # so is its one bucket, the total of the two faces' 5/24.
        v, buckets = Z_breakdown(MPoly.parse("x1 + x2"), MPoly.one(2), 0,
                                 QuadratureSettings(precision=25))
        assert [(b.i, b.orbit) for b in buckets] == [(1, 2)]
        with mp.workdps(60):
            assert abs(v.num.value - mpf(5) / 12) <= v.num.err
            assert abs(buckets[0].value.num.value - mpf(5) / 12) <= buckets[0].value.num.err

    def test_terms_without_symmetry_keep_their_bytes(self):
        # The README example: Q = x1 breaks the swap that fixes
        # P = x1^2 + x1 x2 + x2^2, so every face keeps its own buckets, no
        # term carries "orbit", and the bytes are those recorded before the
        # faces were folded (value -1/240).
        ex = Path(__file__).resolve().parents[1] / "examples"
        _, out = run_cli(["mahler", "--P", str(ex / "poly.txt"), "--Q", str(ex / "num.txt"),
                          "--N", "1", "--terms"])
        terms = json.loads(out)["terms"]
        assert {t["i"] for t in terms} == {1, 2}
        assert not any("orbit" in t for t in terms)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5298ebc022e101cd5838b6932a8f93456cbfc0a2ac172244e3bcacc2a8f05e05")

    def test_terms_one_variable_exact(self):
        code, out = run_cli(["mahler", "--P", "3 x1", "--Q", "x1^3 + 2", "--N", "2",
                             "--terms"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "exact"
        assert all("exact" in t and "value" not in t for t in payload["terms"])

    def test_poly_file_input(self, tmp_path):
        pfile = tmp_path / "p.poly"
        pfile.write_text("x1 + x2")
        code, out = run_cli(["mahler", "--P", str(pfile), "--N", "0",
                             "--precision", "25"])
        assert code == 0
        assert json.loads(out)["kind"] == "numeric"

    def test_json_poly_input(self, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(
            {"nvars": 2, "terms": [{"c": "1", "e": [1, 0]}, {"c": "1", "e": [0, 1]}]}
        ))
        code, out = run_cli(["mahler", "--P", str(pfile), "--N", "0",
                             "--precision", "25"])
        assert code == 0


    def test_unreachable_precision_fails_fast(self):
        t0 = time.perf_counter()
        code, out = run_cli(["mahler", "--P", "x1 + x2", "--precision", "0"])
        assert time.perf_counter() - t0 < 5
        assert code == 1
        assert json.loads(out)["error"]["type"] == "PrecisionUnreachable"

    def test_not_elliptic_inside_a_subdivided_cell(self):
        code, out = run_cli(["mahler", "--P", "x1^2 - 3/5 x1 x2 + 899/10000 x2^2"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "NotElliptic" and "face 2 non-positive at (19/64)" in err["message"]

    def test_not_elliptic_witness_rendered(self):
        code, out = run_cli(["mahler", "--P", "x1 - x2"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "NotElliptic"
        # face 1 of x1 - x2 is 1 - x2, which vanishes at x2 = 1
        assert "face 1 non-positive at (1)" in err["message"]
        assert "Fraction(" not in err["message"]


class TestExitCodes:
    """argparse usage errors exit 2; text that parses as an option value but
    not as a number or polynomial exits 1 with a ValueError record."""

    def test_unknown_flag_exits_2(self):
        # a missing required option: TestPowersum.test_usage_error_exits_2
        with pytest.raises(SystemExit) as exc:
            main(["mahler", "--P", "x1 + x2", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["mahler", "--P", "x1^"],
        ["powersum", "--d", "2,3", "--N", "0,a"],
        ["mahler", "--P", "x0 + x1"],
        ["mahler", "--P", "x1 + + x2"],
        ["mahler", "--P", "1/0 x1"],
        ["mahler", "--P", '{"nvars": 1, "terms": [{"c": "1/0", "e": [1]}]}'],
        ["mahler", "--P", '{"nvars": 1, "terms": "ab"}'],
        ["mahler", "--P", '{"nvars": 1, "terms": [{"c": "1", "e": 5}]}'],
        ["powersum", "--d", "2,3", "--gamma", "1/0,1", "--N", "0,0"],
        ["directional", "--d", "3,2,2", "--N", "0,0,0", "--theta", "0,1/0,1"],
        ["oracle", "zeta1", "--d", "2", "--s", "1/0"],
        ["oracle", "zeta1", "--d", "2", "--gamma", "1/0", "--s", "-1"],
        ["oracle", "powersum2", "--d", "2,3", "--s", "0,1/0"],
    ])
    def test_malformed_values_exit_1(self, argv):
        code, out = run_cli(argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["selftest", "--precision", "30"],
        ["powersum", "--d", "2,3", "--N", "0,0", "--seed", "1"],
        ["powersum", "--d", "2,3", "--N", "0,0", "--rel-tol", "1e-8"],
        ["directional", "--d", "3,2,2", "--N", "0,0,0", "--abs-tol", "1e-20"],
        ["mahler", "--P", "x1 + x2", "--seed", "1"],
        ["bernoulli-id", "--grid", "2x2", "--precision", "30"],
        ["oracle", "zeta1", "--d", "2", "--s", "-1", "--rel-tol", "1e-8"],
        ["polyzeta", "--family", "f.json", "--N", "0", "--seed", "1"],
    ])
    def test_flags_a_subcommand_does_not_read_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["powersum", "--d", "2,3", "--N", "1,-1", "--precision", "0"],
        ["directional", "--d", "3,2,2", "--N", "0,0,0", "--precision", "0"],
        ["oracle", "zeta1", "--d", "2", "--s", "-1", "--precision", "-3"],
        ["mahler", "--P", "x1 + x2", "--rel-tol", "1e-6", "--precision", "0"],
    ])
    def test_precision_below_one_digit_exits_1(self, argv):
        code, out = run_cli(argv)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "PrecisionUnreachable", "message": f"precision {argv[-1]} is below 1 digit"}

    @pytest.mark.parametrize("argv", [
        ["mahler", "--P", "x1 + x2", "--N", "0", "--precision", "5000"],
        ["powersum", "--d", "2,3", "--N", "1,-1", "--precision", "4001"],
        ["oracle", "zeta1", "--d", "2", "--s", "-1", "--precision", "5000"],
    ])
    def test_precision_above_the_cap_exits_1(self, monkeypatch, argv):
        # mahler at 5000 digits used to compute its value and only then fail
        # to print it ("Exceeds the limit (4300 digits) for integer string
        # conversion"); no subcommand may start work above the cap.
        monkeypatch.setattr("zetapoly.cli.Z_value", lambda *a: pytest.fail("work started"))
        code, out = run_cli(argv)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "PrecisionUnreachable",
            "message": f"precision {argv[-1]} is above the cap of 4000 digits"}

    def test_precision_at_the_cap_prints(self):
        code, out = run_cli(["mahler", "--P", "x1 + x2", "--N", "0", "--precision", "4000"])
        assert code == 0
        payload = json.loads(out)
        # the value is printed to 2005 digits: add half a unit in the last one
        digits = len(payload["value"]) - len("0.")
        with mp.workdps(4100):
            half_unit = mpf(10) ** -digits / 2
            assert abs(mpf(payload["value"]) - mpf(5) / 12) <= mpf(payload["err"]) + half_unit

    @pytest.mark.parametrize("value, code, kind", [
        ("12", 0, None), ("0", 1, "PrecisionUnreachable"), ("abc", 1, "ValueError")])
    def test_precision_from_environment(self, monkeypatch, value, code, kind):
        monkeypatch.setenv("ZETAPOLY_PRECISION", value)
        got, out = run_cli(["powersum", "--d", "2,3", "--N", "1,-1"])
        assert got == code
        payload = json.loads(out)
        assert payload.get("error", {}).get("type") == kind
        if kind is None:
            assert payload["value"] == "0.26370778389"  # 12 // 2 + 5 digits
        # a subcommand without --precision never reads the variable
        assert run_cli(["bernoulli-id", "--grid", "1x1"])[0] == 0

    def test_closed_stdout_exits_1_without_traceback(self):
        # as `zetapoly bernoulli-id --grid 12x12 | head -c 400`, but with the
        # reader gone before the first write, so the pipe breaks every time
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zetapoly.cli", "bernoulli-id", "--grid", "12x12"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text(alphabet="x0123456789^*/+-. ", max_size=24))
    def test_polynomial_text_parses_or_fails_as_the_cli_reports(self, text):
        # the exceptions cli.main turns into an exit-1 JSON record
        for nvars in (None, 2):
            try:
                MPoly.parse(text, nvars)
            except (ZetaPolyError, ValueError, OSError, KeyError):
                pass


class TestPeriod:
    def test_golden(self):
        code, out = run_cli([
            "period", "--P", "x1^2 + 2 x1 x2 + x2^2 + x3^2",
            "--Q", "x1^2 + x1 x2", "--N", "0", "--alpha", "1,1",
            "--beta", "2,0,0", "--u", "1:1,0,0;2:2,0,0", "--i", "3",
            "--precision", "25",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"].startswith("0.927295218")

    def test_malformed_u_exits_1(self):
        # no gamma part; then gammas of the wrong length or weight, which
        # would otherwise drop out of the family silently
        for u in ("1", "1:1", "1:2,0", "2:1,0", "0:0,0"):
            code, out = run_cli([
                "period", "--P", "x1^2 + x2^2", "--N", "0", "--alpha", "0,0",
                "--beta", "0,0", "--u", u, "--i", "1",
            ])
            assert code == 1
            err = json.loads(out)["error"]
            assert err["type"] == "ValueError" and repr(u) in err["message"], u

    @pytest.mark.parametrize("argv, line", [
        # the README example: one --u row for two entries of alpha, the
        # weight-2 row padded with zeros
        (["--P", "x1^2 + x1 x2 + x2^2 + x3^2", "--Q", "x1 + x2", "--N", "2",
          "--alpha", "1,0", "--beta", "0,0,0", "--u", "1:1,0,0", "--i", "3"], "497/120"),
        # no --u entries at all: both rows padded
        (["--P", "x1^2 + x2^2", "--N", "0", "--alpha", "0,0", "--beta", "0,0",
          "--u", "", "--i", "1"], "1"),
    ])
    def test_family_padded_to_alpha(self, argv, line):
        code, out = run_cli(["period", *argv])
        assert code == 0
        assert out == f'{{"kind":"exact","schema":"1","value":"{line}"}}\n'

    @pytest.mark.parametrize("alpha, beta", [("1,0", "-1,0"), ("-1,0", "0,0")])
    def test_negative_order_exits_1(self, alpha, beta):
        # --beta=-1,0 used to print pi/2 with exit 0
        code, out = run_cli([
            "period", "--P", "x1^2 + x2^2", "--N", "0", f"--alpha={alpha}",
            f"--beta={beta}", "--u", "1:1,0", "--i", "1",
        ])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and "has a negative entry" in err["message"]

    def test_negative_multiplicity_exits_1(self):
        # a count of -1 used to end in "factorial() not defined for negative
        # values"; (0, 1) is the first multi-index of weight 1
        code, out = run_cli([
            "period", "--P", "x1^2 + x2^2", "--N", "0", "--alpha", "1,0",
            "--beta", "0,0", "--u", "1:1,0:2;1:0,1:-1", "--i", "1",
        ])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ValueError", "message": "row 1 of u has the negative entry -1 at position 1"}

    def test_family_longer_than_alpha_exits_1(self):
        # a weight-3 entry with len(alpha) = 2 used to be dropped silently
        code, out = run_cli([
            "period", "--P", "x1^2 + x2^2", "--N", "0", "--alpha", "1,0",
            "--beta", "0,0", "--u", "1:1,0;3:2,1", "--i", "2",
        ])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "CompositionMismatch"


class TestPolyzeta:
    def test_family_file(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(["x1", "x1 + x2"]))
        code, out = run_cli(["polyzeta", "--family", str(fam), "--N", "0,0",
                             "--precision", "25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "numeric"
        assert payload["value"].startswith("0.4166666666")

    def test_polys_object_with_json_entries(self, tmp_path):
        # the {"polys": [...]} form, with a polynomial given as JSON
        fam = tmp_path / "family.json"
        x1_plus_x2 = {"nvars": 2, "terms": [{"c": "1", "e": [1, 0]}, {"c": "1", "e": [0, 1]}]}
        fam.write_text(json.dumps({"polys": ["x1", x1_plus_x2]}))
        code, out = run_cli(["polyzeta", "--family", str(fam), "--N", "0,0",
                             "--precision", "25"])
        assert code == 0
        assert json.loads(out)["value"].startswith("0.4166666666")

    def test_diagonal(self, tmp_path):
        fam = tmp_path / "family.json"
        texts = ["x1", "x1 + x2", "x1^2 + x2^2 + x3^2"]
        fam.write_text(json.dumps(texts))
        argv = ["polyzeta", "--family", str(fam), "--N", "0,0,0", "--rel-tol", "1e-8",
                "--precision", "20"]
        code, out = run_cli([*argv, "--diagonal"])
        assert code == 0
        family = build_family([MPoly.parse(t, j) for j, t in enumerate(texts, start=1)])
        qs = QuadratureSettings(rel_tol=1e-8, precision=20)
        payload = json.loads(out)
        assert payload == {"schema": "1", **diagonal_value(family, (0, 0, 0), qs).to_json(15)}
        # not the main path's record, and within its err of Z(P_3, 1; 0) = -1/8
        assert payload != json.loads(run_cli(argv)[1])
        assert abs(float(payload["value"]) + 0.125) <= float(payload["err"])

    def test_violating_family_exits_1(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(["x1", "x1 - x2 + 10", "x1 + x2 + x3"]))
        code, out = run_cli(["polyzeta", "--family", str(fam), "--N", "0,0,0"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "HypothesisViolated" and "at (1, 13)" in err["message"]


class TestBernoulliId:
    def test_grid_json(self, tmp_path):
        outfile = tmp_path / "reports.json"
        code, out = run_cli(["bernoulli-id", "--grid", "1x1", "--json", str(outfile)])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"]
        ondisk = json.loads(outfile.read_text())
        assert ondisk["schema"] == "1"

    def test_grid_csv(self):
        code, out = run_cli(["bernoulli-id", "--grid", "1x1", "--csv"])
        assert code == 0
        assert out.splitlines()[0] == "label,parameters,lhs,rhs,equal"


class TestOracle:
    def test_zeta1(self):
        code, out = run_cli(["oracle", "zeta1", "--d", "2", "--gamma", "1",
                             "--s", "-1", "--precision", "25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "numeric"
        assert abs(float(payload["value"])) < 1e-9

    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_zeta1_degree_below_one_exits_1(self, d):
        code, out = run_cli(["oracle", "zeta1", "--d", d, "--s", "1/2"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DomainViolation"

    @pytest.mark.parametrize("gamma, s", [("0", "-1"), ("-1", "-1"), ("0", "1/3")])
    def test_zeta1_gamma_not_positive_exits_1(self, gamma, s):
        code, out = run_cli(["oracle", "zeta1", "--d", "2", "--gamma", gamma, "--s", s])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DomainViolation"

    def test_powersum2(self):
        code, out = run_cli(["oracle", "powersum2", "--d", "2,3", "--N", "0,1",
                             "--precision", "20"])
        assert code == 0
        payload = json.loads(out)
        assert abs(float(payload["value"]) - (-1 / 240)) < 1e-6
        assert float(payload["residual"]) < 1e-6

    def test_powersum2_default_bytes(self):
        # the README example at the default precision; em_order is the least
        # order of the two-variable recursion
        _, out = run_cli(["oracle", "powersum2", "--d", "2,3", "--N", "0,1"])
        assert out == (
            '{"em_order":8,"err":"8.9094e-53","kind":"numeric","residual":"0.0",'
            '"schema":"1","value":"-0.00416666666666666666666666666667"}\n'
        )

    def test_powersum2_without_point_exits_1(self):
        code, out = run_cli(["oracle", "powersum2", "--d", "2,3"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and "--N or --s" in err["message"]
