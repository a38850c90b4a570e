"""Command-line interface: output schema, determinism, exit codes."""
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mpmath import mp, mpf

from zetapoly import (ConstantProduct, DirectionalSpec, MPoly, Numeric, PowerSumParams,
                      QuadratureSettings, SpecialValue, ZetaPolyError, directional_limit,
                      theta_diagonal)
from zetapoly._quadrature import _MasterKey, cube_integral
from zetapoly.cli import _term_json, build_parser, main
from zetapoly.mahler import Z_breakdown, ZMaster
from zetapoly.polyzeta import build_family, diagonal_value


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _printed_near(payload: dict, truth) -> bool:
    """The printed value lies within its err, plus half a unit in its last
    printed digit, of truth."""
    v = mpf(payload["value"])
    digits = len(payload["value"].lstrip("-").replace(".", "").split("e")[0].lstrip("0"))
    return abs(v - truth) <= mpf(payload["err"]) + abs(v) * mpf(10) ** (1 - digits) / 2


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

    @pytest.mark.parametrize("argv, message", [
        # --N is the point itself, so the error quotes it as typed
        (["directional", "--d", "3,2,2", "--N", "0,0,1"], "--N 0,0,1 has a positive entry"),
        (["powersum", "--d", "2,3", "--N", "0,0", "--theta", "1"],
         "--theta 1 has length 1, --d has length 2"),
        (["powersum", "--d", "2,3", "--N", "0", "--theta", "0,1"],
         "--N 0 has length 1, --d has length 2"),
    ])
    def test_directional_errors_name_the_flag(self, argv, message):
        code, out = run_cli(argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and err["message"].startswith(message)

    def test_directional_point_is_n(self):
        # directional --N 0,0,-1 is the limit at (0, 0, -1), not at -N
        code, out = run_cli(["directional", "--d", "3,2,2", "--N", "0,0,-1"])
        assert code == 0
        assert "directional limit at N " in " ".join(build_parser().format_help().split())
        p = PowerSumParams.make((3, 2, 2))
        want = directional_limit(p, DirectionalSpec(N=(0, 0, 1), theta=(0, 0, 1)))
        assert json.loads(out) == {"schema": "1", **want.to_json(30)}


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
        # Faces with no exact reduction (two variables, neither affine nor
        # diagonal) give one term per face integral, keyed by what it is: its
        # face, its numerator, its power k, its summed coeff, value and err
        # (DECISIONS.md D21).  Q = x1 + 2 x3 breaks the swap x1 <-> x2, so
        # faces 1 and 2 are one polynomial with two numerators.  A form's
        # other terms are its rational part and one term per constant left;
        # a master int_0^1 x^i / D is the integral of its own key (D10), and
        # a Gamma product has its own schema (D16, D18).
        code, out = run_cli(["mahler", "--P", "x1^2 + x1 x2 + x2^2 + x3^2", "--Q", "x1 + 2 x3",
                             "--N", "1", "--terms", "--rel-tol", "1e-8", "--precision", "20"])
        assert code == 0
        payload = json.loads(out)
        rational, *integrals = payload["terms"]
        assert rational == {"rational": "0"} and len(integrals) == 3
        for t in integrals:
            assert set(t) == {"face", "numer", "k", "coeff", "value", "err"} and t["k"] == 5
        assert [t["face"] for t in integrals] == ["x2^2 + x1^2 + x1 + 1"] * 2 + [
            "x2^2 + x1 x2 + x1^2 + 1"]
        assert integrals[0]["numer"] != integrals[1]["numer"]
        with mp.workdps(30):
            total = sum(F(t["coeff"]) * mpf(t["value"]) for t in integrals)
            err = sum(abs(F(t["coeff"])) * mpf(t["err"]) for t in integrals)
            assert abs(total - mpf(payload["value"])) <= err
        value = Numeric(mpf(2), mpf(0))
        D = (((0,), F(1)), ((2,), F(1)))
        master = _term_json(ZMaster(_MasterKey((2, 1, D, (((1,), F(1)),), 1)), F(3), value), 20)
        assert master == {"face": "x1^2 + 1", "numer": "x1", "k": 1, "coeff": "3",
                          "value": "2.0", "err": "0.0"}
        gammas = _term_json(ZMaster(ConstantProduct((F(2, 3), F(1, 3)), ((F(2), F(1, 3)),)),
                                    F(1, 18), value), 20)
        assert gammas == {"gammas": ["1/3", "2/3"], "powers": [["2", "1/3"]], "coeff": "1/18",
                          "value": "2.0", "err": "0.0"}

    @pytest.mark.parametrize("flag", ["--P", "--Q"])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_long_inline_polynomial(self, flag, form):
        # An argument too long to name a file is the polynomial itself, as
        # text or JSON: with 30 zero terms it prints the bytes of the short
        # --P "x1^2 + x2^2" (whose --Q is 1).
        text, terms = {"--P": ("x1^2 + x2^2", [(1, [2, 0]), (1, [0, 2])]),
                       "--Q": ("1", [(1, [0, 0])])}[flag]
        arg = text + " + 0 x1 x2" * 30 if form == "text" else json.dumps(
            {"nvars": 2, "terms": [{"c": str(c), "e": e} for c, e in terms + [(0, [1, 1])] * 30]})
        assert len(arg) > 255
        argv = ["mahler", "--P", "x1^2 + x2^2"]  # Z = 1/4 at N = 0
        want = run_cli(argv)
        argv += [flag, arg]  # a repeated --P takes the last
        assert want[0] == 0 and run_cli(argv) == want

    def test_terms_tell_integrals_over_one_face_apart(self):
        # Q = x1 breaks the swap x1 <-> x2: faces 1 and 2 are separate
        # orbits over one polynomial, with the same face and k.  Their
        # numerators, in the face's own variables, tell them apart, and
        # each term's face, numerator and k name the integral it prints.
        P = MPoly.parse("x1^2 + x1 x2 + x2^2 + x3^2")
        code, out = run_cli(["mahler", "--P", "x1^2 + x1 x2 + x2^2 + x3^2", "--Q", "x1", "--N",
                             "1", "--terms", "--rel-tol", "1e-8", "--precision", "20"])
        assert code == 0
        payload = json.loads(out)
        rational, *integrals = payload["terms"]
        assert rational == {"rational": "0"} and len(integrals) == 3
        same = [t for t in integrals if t["face"] == "x2^2 + x1^2 + x1 + 1"]
        assert len(same) == 2 and same[0]["k"] == same[1]["k"] == 5
        assert same[0]["numer"] != same[1]["numer"]
        qs = QuadratureSettings(rel_tol=1e-8, precision=20)
        for t in integrals:
            numer = MPoly.parse(t["numer"], 2)
            assert max(numer.terms.items())[1] == 1  # scaled to a leading coefficient of 1
            face = MPoly.parse(t["face"], 2)
            assert face in (P.face(1), P.face(3))
            v = cube_integral(face, numer, t["k"], qs).num
            with mp.workdps(30):
                assert abs(v.value - mpf(t["value"])) <= v.err + mpf(t["err"])

    def test_terms_bytes(self):
        # recorded when the buckets on affine, one-variable and diagonal
        # faces became one form per Z value (DECISIONS.md D16): the face
        # x1 <-> x2 folds (D13) is affine, and its buckets sum to the
        # rational 5/12 with no constant left
        _, out = run_cli(
            ["mahler", "--P", "x1 + x2", "--N", "0", "--terms", "--precision", "25"]
        )
        assert out == (
            '{"err":"5.0155e-36","kind":"numeric","schema":"1","terms":['
            '{"rational":"5/12"}],"value":"0.41666666666666667"}\n'
        )

    def test_terms_of_reduced_faces(self):
        # Criterion 9 is one integral over the orthant (DECISIONS.md D17):
        # its terms are the paper's closed form 1/16 - Gamma(1/3)^3/810,
        # the Gamma product with its own value and err.
        code, out = run_cli(["mahler", "--P", "x1^3 + x2^3 + x3^3 + x4^3", "--N", "0",
                             "--terms", "--rel-tol", "1e-8", "--precision", "25"])
        assert code == 0
        rational, gammas = json.loads(out)["terms"]
        assert rational == {"rational": "1/16"}
        assert set(gammas) == {"gammas", "powers", "coeff", "value", "err"}
        assert (gammas["gammas"], gammas["powers"], gammas["coeff"]) == (["1/3"] * 3, [], "-1/810")
        with mp.workdps(40):
            truth = mp.gamma(mpf(1) / 3) ** 3
            assert abs(mpf(gammas["value"]) - truth) <= mpf(gammas["err"]) + mpf(10) ** -18

    def test_terms_truth(self):
        # The values behind test_terms_bytes: Z(x1 + x2, 1; 0) = 5/12, the
        # form's rational part, and the value is it rounded once.
        v, parts = Z_breakdown(MPoly.parse("x1 + x2"), MPoly.one(2), 0,
                               QuadratureSettings(precision=25))
        assert parts == [ZMaster(None, F(5, 12), None)]
        with mp.workdps(60):
            assert abs(v.num.value - mpf(5) / 12) <= v.num.err

    def test_terms_without_symmetry_keep_their_bytes(self):
        # The README example: Q = x1 breaks the swap that fixes
        # P = x1^2 + x1 x2 + x2^2, so both faces' buckets are reduced, each
        # on its own face; their forms sum to the rational -1/240, and no
        # master is left.  The bytes were recorded when the buckets became
        # one form per Z value.
        ex = EXAMPLES
        _, out = run_cli(["mahler", "--P", str(ex / "poly.txt"), "--Q", str(ex / "num.txt"),
                          "--N", "1", "--terms"])
        assert json.loads(out)["terms"] == [{"rational": "-1/240"}]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "86d7856b916efd8d37927bd0d38c949cf2e12b88953c293d167ed54ece0a3026")

    def test_terms_one_variable_exact(self):
        # n = 1: the one face is a constant, so the form is its rational
        # part alone and the value stays exact (DECISIONS.md D21).
        code, out = run_cli(["mahler", "--P", "3 x1", "--Q", "x1^3 + 2", "--N", "2",
                             "--terms"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "exact" and payload["value"] == "-1/28"
        assert payload["terms"] == [{"rational": "-1/28"}]

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

    def test_terms_carry_their_orbit(self):
        # The swap x1 <-> x2 fixes P, so face 2 folds into face 1 (DECISIONS.md
        # D13): face 1's integral stands for both faces, its orbit of 2 in its
        # coeff, and face 3's for one (D21).  The terms sum to the printed
        # value within their summed errs, and to the truth -1/6.
        code, out = run_cli(["mahler", "--P", "x1^2 + x1 x2 + x2^2 + x3^2", "--N", "0",
                             "--terms", "--precision", "20", "--rel-tol", "1e-6"])
        assert code == 0
        payload = json.loads(out)
        rational, *integrals = payload["terms"]
        assert rational == {"rational": "0"}
        assert [(t["face"], t["k"], t["coeff"]) for t in integrals] == [
            ("x2^2 + x1^2 + x1 + 1", 3, "1/4"), ("x2^2 + x1 x2 + x1^2 + 1", 3, "-1/4")]
        with mp.workdps(30):
            total = sum(F(t["coeff"]) * mpf(t["value"]) for t in integrals)
            err = sum(abs(F(t["coeff"])) * mpf(t["err"]) for t in integrals)
            assert abs(total - mpf(payload["value"])) <= err
            assert abs(mpf(payload["value"]) + mpf(1) / 6) <= mpf(payload["err"])


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
        # the child imports the package under test: this test's sys.path
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
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



class TestParserBuiltOnce:
    """main builds its argparse parser once per process: parsing, a usage
    error included, leaves it as it was."""

    def test_one_parser(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, bad", [
        (["powersum", "--d", "2,3", "--gamma", "1,1", "--N", "0,0"], ["powersum", "--N", "0,0"]),
        (["mahler", "--P", "x1 + x2", "--N", "0", "--precision", "20"],
         ["mahler", "--P", "x1 + x2", "--rel-tol", "1e-3", "--no-such-flag"]),
    ])
    def test_usage_error_between_good_calls(self, argv, bad):
        first = run_cli(argv)
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert run_cli(argv) == first and first[0] == 0

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

    def test_readme_example_is_twice_arctan_one_half(self):
        # criterion 8's closed form, the README's value of this example
        code, out = run_cli([
            "period", "--P", "x1^2 + 2 x1 x2 + x2^2 + x3^2",
            "--Q", "x1^2 + x1 x2", "--N", "0", "--alpha", "1,1",
            "--beta", "2,0,0", "--u", "1:1,0,0;2:2,0,0", "--i", "3",
        ])
        assert code == 0
        with mp.workdps(80):
            assert _printed_near(json.loads(out), 2 * mp.atan(mpf(1) / 2))

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

    def test_readme_example_is_the_theta_series_value(self):
        # ["x1", "x1 + x2"] at N = (1, 1) reduces to Z(x1 + x2, x1^2 + x1 x2; 0),
        # which the theta series gives as Z(., x1^2; 0) + Z(., x1 x2; 0)
        # = -1/90 + 11/720 = 1/240 with no face period
        truth = theta_diagonal(2, 1, (2, 0), 0) + theta_diagonal(2, 1, (1, 1), 0)
        assert truth == SpecialValue.make_exact(F(1, 240))
        code, out = run_cli(["polyzeta", "--family", str(EXAMPLES / "family.json"),
                             "--N", "1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "numeric"
        with mp.workdps(80):
            assert _printed_near(payload, mpf(1) / 240)

    @pytest.mark.parametrize("spec", [{"p": ["x1"]}, {"polys": "x1"}, "x1"])
    def test_family_of_another_shape_exits_1(self, tmp_path, spec):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(spec))
        code, out = run_cli(["polyzeta", "--family", str(fam), "--N", "0"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ValueError", "message": "a family file is a JSON list of polynomials, "
                                             'or an object whose "polys" is one'}

    def test_violating_family_exits_1(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(["x1", "x1 - x2 + 10", "x1 + x2 + x3"]))
        code, out = run_cli(["polyzeta", "--family", str(fam), "--N", "0,0,0"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "HypothesisViolated" and "at (1, 13)" in err["message"]

    def test_unverified_hypothesis_flagged(self, tmp_path):
        # x1^2 - x1 + 1 has a negative coefficient, and neither the box nor
        # the rays refute it as P_1, so the value carries a flag (DECISIONS.md D4)
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(["x1^2 - x1 + 1", "x1 + x2"]))
        code, out = run_cli(["polyzeta", "--family", str(fam), "--N", "0,0"])
        assert code == 0
        assert '"flags":["hypotheses_unverified:P1"]' in out


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

    @pytest.mark.parametrize("grid", ["12", "3x3x3", "axb", "", "x", "2x", "-1x2", "1x-1"])
    def test_malformed_grid_exits_1(self, grid):
        # these used to surface Python's own unpacking and int() messages;
        # "--grid=" so that argparse takes "-1x2" as the value, not a flag
        code, out = run_cli(["bernoulli-id", f"--grid={grid}"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": f"--grid must be N1xN2 with N1, N2 non-negative integers, got {grid!r}"}

    def test_grid_bounds_are_inclusive(self):
        code, out = run_cli(["bernoulli-id", "--grid", " 2X1 "])
        assert code == 0
        pairs = [r["parameters"] for r in json.loads(out)["reports"] if r["label"] == "euler_double"]
        assert pairs == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]]


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

    def test_powersum2_point_of_wrong_length_exits_1(self):
        code, out = run_cli(["oracle", "powersum2", "--d", "2,3", "--N", "0,1,2"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err == {"type": "ValueError", "message": "s (0, -1, -2) has length 3, need 2"}

    def test_powersum2_without_point_exits_1(self):
        code, out = run_cli(["oracle", "powersum2", "--d", "2,3"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and "--N or --s" in err["message"]
