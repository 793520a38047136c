import json
import math
import os
from pathlib import Path
import shlex
import subprocess
import sys

import pytest

import pirings
from pirings.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


SQUARE = {
    "ambient": 2,
    "degree": 1,
    "atoms": [
        {"w": 1, "v": [[1, 0]]},
        {"w": 1, "v": [[0, 1]]},
    ],
}
LINE = {"ambient": 2, "degree": 1, "atoms": [{"w": 1, "v": [[1, 1]]}]}


def write_inputs(directory):
    """square.json and line.json, the files the README examples read."""
    (directory / "square.json").write_text(json.dumps(SQUARE))
    (directory / "line.json").write_text(json.dumps(LINE))


class TestCpn:
    def test_relations_content(self, capsys):
        data = run_json(capsys, "cpn", "relations", "--n", "2")
        assert data["F_n"]["st"] == {"s^1*t^1": "1", "s^0*t^3": "-1/3"}
        assert data["n"] == 2
        assert "provenance" in data

    def test_multiply(self, capsys):
        data = run_json(capsys, "cpn", "multiply", "--n", "2",
                        "--a", "s", "--b", "s")
        assert data["product"]["monomials"] == {"s^0*t^4": "1/6"}

    def test_length_expression(self, capsys):
        data = run_json(capsys, "cpn", "length", "--n", "2",
                        "--expr", "gamma")
        val = data["length_by_degree"]["2"]
        assert val["coeff"] == "2"
        assert val["pi_exp"] == "-1"

    def test_length_mixing_powers_of_pi(self, capsys):
        # the README example: 2 pi^-1 - 3 pi, one term per power of pi
        data = run_json(capsys, "cpn", "length", "--n", "2",
                        "--expr", "gamma - 1/2*beta^2")
        assert data["length_by_degree"] == {"2": [
            {"coeff": "2", "pi_exp": "-1"}, {"coeff": "-3", "pi_exp": "1"}]}

    def test_multiply_mixing_powers_of_pi(self, capsys):
        data = run_json(capsys, "cpn", "multiply", "--n", "2",
                        "--a", "s + beta", "--b", "t")
        assert data["product"] == {"n": 2, "monomials": {
            "s^0*t^2": [{"coeff": "1", "pi_exp": "2/3"}],
            "s^0*t^3": [{"coeff": "1/3"}]}}

    def test_selfint(self, capsys):
        data = run_json(capsys, "cpn", "selfint", "--n", "3",
                        "--d", "3", "--delta", "0")
        assert data["expected_count"] == "27"
        assert data["agree"] is True

    def test_tasaki_closed_form(self, capsys):
        data = run_json(capsys, "cpn", "tasaki", "--n", "2",
                        "--x", "1", "--y", "1")
        assert data["kernel"] == 1.0

    def test_missing_multiply_args(self, capsys):
        code, _ = run(capsys, "cpn", "multiply", "--n", "2")
        assert code == 1

    def test_bad_expression(self, capsys):
        code, _ = run(capsys, "cpn", "length", "--n", "2", "--expr", "q^2")
        assert code == 1

    @pytest.mark.parametrize("expr, same_as", [
        ("1e-3*s", "1/1000*s"),
        ("2.5e-1*t - 1E+1*s", "1/4*t - 10*s"),
        ("s - -t", "s + t"),
        ("1/2^2 * t", "1/4*t"),
    ])
    def test_numeric_literals(self, capsys, expr, same_as):
        a = run_json(capsys, "cpn", "length", "--n", "2", "--expr", expr)
        b = run_json(capsys, "cpn", "length", "--n", "2", "--expr", same_as)
        assert a["length_by_degree"] == b["length_by_degree"]

    @pytest.mark.parametrize("expr", ["s^-1", "s^", "t^x", "s^2.5", "s**2",
                                      "2*-s", "s +", "-", "2s", "(s)",
                                      "1/0*s", "1..2*s"])
    def test_malformed_expression(self, capsys, expr):
        code, err = run_err(capsys, "cpn", "length", "--n", "2",
                            "--expr", expr)
        assert code == 1
        assert err.startswith("error: ") and repr(expr) in err

    def test_negative_exponent_message(self, capsys):
        _, err = run_err(capsys, "cpn", "length", "--n", "2", "--expr", "s^-1")
        assert "nonnegative integer" in err

    @pytest.mark.parametrize("action", ["basis", "relations", "length"])
    def test_negative_n(self, capsys, action):
        code, err = run_err(capsys, "cpn", action, "--n", "-1", "--expr", "s")
        assert code == 1
        assert err.startswith("error: --n")


class TestSchubert:
    def test_lr(self, capsys):
        data = run_json(capsys, "schubert", "lr", "--a", "1", "--b", "1")
        assert data["coefficients"] == {"(1, 1)": 1, "(2,)": 1}

    def test_spans(self, capsys):
        data = run_json(capsys, "schubert", "spans", "--k", "2", "--m", "2",
                        "--d", "1", "--spans-samples", "60")
        assert data["ok"] is True

    @pytest.mark.parametrize("diagrams", ["2,1", "2,1|", "|2|", ""])
    def test_shape_with_nothing_to_draw(self, capsys, diagrams):
        # one diagram, or others of no boxes: the wedge is a unit vector
        data = run_json(capsys, "schubert", "shape", "--diagrams", diagrams,
                        "--samples", "20000", "--workers", "2")
        assert data["estimate"]["mean"] == 1.0
        assert data["estimate"]["std_error"] == 0.0
        assert data["max_sample"] == 1.0

    @pytest.mark.parametrize("diagrams", ["2,1", "2,1|", "1|2,1"])
    @pytest.mark.parametrize("flags, message", [
        (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
        (("--samples", "0"), "samples must be at least 1, got 0"),
        (("--workers", "0"), "workers must be at least 1, got 0"),
    ])
    def test_shape_bad_seed_or_count(self, capsys, diagrams, flags, message):
        # with or without anything to draw
        code, err = run_err(capsys, "schubert", "shape", "--diagrams",
                            diagrams, "--samples", "10", *flags)
        assert (code, err) == (1, f"error: {message}\n")

    def test_shape_seed_reproducible_across_workers(self, capsys):
        a = run_json(capsys, "schubert", "shape", "--diagrams", "2|2",
                     "--samples", "20000", "--seed", "9", "--workers", "1")
        b = run_json(capsys, "schubert", "shape", "--diagrams", "2|2",
                     "--samples", "20000", "--seed", "9", "--workers", "4")
        assert a["estimate"] == b["estimate"]


class TestZonoid:
    def test_mixed_volume_square(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(SQUARE))
        data = run_json(capsys, "zonoid", "mixed-volume", "-f", str(path))
        assert data["mixed_volume"] == "1"

    def test_length(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(SQUARE))
        data = run_json(capsys, "zonoid", "length", "-f", str(path))
        assert data["lengths"] == ["2"]

    def test_crofton_of_degree_zero_int_weights_is_an_int(self, capsys,
                                                           tmp_path):
        # the degree-0 value is the sum of the weights, an int as before
        scalar = {"ambient": 2, "degree": 0,
                  "atoms": [{"w": 2, "v": []}, {"w": 3, "v": []}]}
        (tmp_path / "l.json").write_text(json.dumps(scalar))
        (tmp_path / "k.json").write_text(json.dumps(SQUARE))
        data = run_json(capsys, "zonoid", "crofton", "--L",
                        str(tmp_path / "l.json"), "--K", str(tmp_path / "k.json"))
        assert data["value"] == 5

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "zonoid", "mixed-volume")
        assert code == 1

    def test_nonexistent_file(self, capsys):
        code, _ = run(capsys, "zonoid", "length", "-f", "/no/such/file.json")
        assert code == 1

    @pytest.mark.parametrize("content", ["[]", "5", "[1]", '"square"',
                                         '{"ambient": 2, "degree": 1, '
                                         '"atoms": 5}'])
    def test_bad_json_shape(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code = main(["zonoid", "mixed-volume", "-f", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("action", ["length", "mixed-volume"])
    @pytest.mark.parametrize("where,value,named", [
        ("v", "null", "null"),
        ("v", "1e400", "Infinity"),
        ("v", "NaN", "NaN"),
        ("v", '"x"', '"x"'),
        ("v", "[1]", "[1]"),
        ("w", "true", "true"),
        ("w", '"1/0"', '"1/0"'),
        ("w", "{}", "{}"),
    ])
    def test_malformed_number(self, capsys, tmp_path, action, where, value,
                              named):
        weight, coord = (value, "0") if where == "w" else ("1", value)
        path = tmp_path / "bad.json"
        # written by hand: json.dumps cannot spell 1e400
        path.write_text('{"ambient": 2, "degree": 1, "atoms": ['
                        '{"w": 1, "v": [[1, 0]]}, '
                        f'{{"w": {weight}, "v": [[{coord}, 1]]}}]}}')
        code = main(["zonoid", action, "-f", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: malformed zonoid JSON: {named} is "
                                "not a number (use an integer, a finite "
                                'decimal or "p/q")\n')

    @pytest.mark.parametrize("data, message", [
        ({"degree": 1}, "missing key 'ambient'"),
        ({"ambient": 2, "atoms": []}, "missing key 'degree'"),
        ({"ambient": 2, "degree": 1, "atoms": [{"w": 1}]}, "missing key 'v'"),
        ({"ambient": 2, "degree": 1, "atoms": [{"v": [[1, 0]]}]},
         "missing key 'w'"),
        ({**SQUARE, "center": {"a": 1}},
         "center key 'a' is not comma-separated integers"),
        ({**SQUARE, "center": {"0,x": 1}},
         "center key '0,x' is not comma-separated integers"),
        ({**SQUARE, "center": {"5": 1}},
         "center key '5' has an index outside 0..1"),
        ({**SQUARE, "center": {"0,1": 1}},
         "center key '0,1' does not name 1 distinct indices"),
        ({"ambient": 2, "degree": 1,
          "atoms": [{"w": 1, "v": [[1, 0]]}, {"w": 1, "v": [[1, 0], [0, 1]]}]},
         "atom 1 has 2 factors, not degree 1"),
        ({"ambient": 2, "degree": 1, "atoms": [{"w": 1, "v": [[1, 0, 0]]}]},
         "atom 0 factor 0 has length 3, not ambient 2"),
        ({"ambient": True, "degree": 1, "atoms": []},
         "ambient and degree must be integers with 0 <= degree <= ambient"),
        ({"ambient": 2, "degree": False, "atoms": []},
         "ambient and degree must be integers with 0 <= degree <= ambient"),
        ({"ambient": 2, "degree": 1, "atoms": [{"w": 1, "v": [1, 0]}]},
         'atom 0 "v" must be a list of factor lists'),
        ({"ambient": 2, "degree": 1, "atoms": [5]}, "atom 0 must be an object"),
        ({"ambient": 2, "degree": 1, "atoms": "ab"}, '"atoms" must be a list'),
        ({**SQUARE, "center": [1]}, '"center" must be an object'),
    ])
    def test_malformed_zonoid_json_is_named(self, capsys, tmp_path, data,
                                            message):
        # a missing key printed its bare repr, a bad center key int()'s
        # error, an index or length out of range named no key or atom, a
        # value of the wrong JSON type a Python error, and a boolean
        # ambient passed as an integer
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, err = run_err(capsys, "zonoid", "length", "-f", str(path))
        assert (code, err) == (1, f"error: malformed zonoid JSON: {message}\n")

    def test_float_overflow_exits_1(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        huge = {"ambient": 2, "degree": 1,
                "atoms": [{"w": 1, "v": [[1e200, 0]]}]}
        path.write_text(json.dumps(huge))
        data = run_json(capsys, "zonoid", "length", "-f", str(path))
        assert data["lengths"] == [1e200]
        # the mixed volume 5e399 is not a float
        other = {**huge, "atoms": [{"w": 1, "v": [[0, 1e200]]}]}
        path.write_text(json.dumps([huge, other]))
        code, err = run_err(capsys, "zonoid", "mixed-volume", "-f", str(path))
        assert code == 1
        assert err == "error: inf is not a finite number (float overflow)\n"

    def test_length_beyond_the_float_range(self, capsys, tmp_path):
        # the Gram determinant is about 1e400, beyond the floats, but its
        # root, the length, is about 1e200 in both spellings
        path = tmp_path / "big.json"
        lengths = []
        for big, one, zero in ((10**100, 1, 0), (1e100, 1.0, 0.0)):
            path.write_text(json.dumps(
                {"ambient": 3, "degree": 2, "atoms": [
                    {"w": one, "v": [[big, one, zero], [zero, one, big]]}]}))
            data = run_json(capsys, "zonoid", "length", "-f", str(path))
            lengths += data["lengths"]
        assert lengths == [1e200, 1e200]

    def test_tiny_square_stays_exact(self, capsys, tmp_path):
        tiny = {"ambient": 2, "degree": 1,
                "atoms": [{"w": 1, "v": [["1/100000000", 0]]},
                          {"w": 1, "v": [[0, "1/100000000"]]}]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny))
        data = run_json(capsys, "zonoid", "mixed-volume", "-f", str(path))
        assert data["mixed_volume"] == "1/10000000000000000"

    def test_degenerate_mixed_volume_is_exact_zero(self, capsys, tmp_path):
        flat = {"ambient": 2, "degree": 1,
                "atoms": [{"w": 1, "v": [[1, 1]]}, {"w": 2, "v": [[2, 2]]}]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(flat))
        data = run_json(capsys, "zonoid", "mixed-volume", "-f", str(path))
        assert data["mixed_volume"] == "0"


class TestSphere:
    def test_expected_count_great_circles(self, capsys):
        data = run_json(capsys, "sphere", "expected-count", "--n", "2",
                        "--codims", "1,1", "--ratios", "0.5,0.5")
        assert data["expected_count"] == 2.0

    def test_ball_table(self, capsys):
        data = run_json(capsys, "sphere", "ball-table", "--N", "4")
        row4 = data["rows"][4]
        assert row4["kappa_i"] == {"coeff": "1/2", "pi_exp": "2"}

    def test_ball_mc(self, capsys):
        data = run_json(capsys, "sphere", "ball-mc", "--N", "2", "--i", "2",
                        "--samples", "20000", "--seed", "1")
        lo, hi = data["estimate"]["ci"]
        assert lo < data["exact"] < hi

    def test_bad_codims(self, capsys):
        code, _ = run(capsys, "sphere", "expected-count", "--n", "3",
                      "--codims", "1,1", "--ratios", "0.5,0.5")
        assert code == 1

    def test_expected_count_exact_ratios(self, capsys):
        data = run_json(capsys, "sphere", "expected-count", "--n", "3",
                        "--codims", "1,2", "--ratios", "1/3,1/2")
        assert data["ratios"] == ["1/3", "1/2"]
        # pi^2 / 6
        assert data["expected_count"] == {"coeff": "1/6", "pi_exp": "2"}
        # a decimal ratio makes the count a float
        data = run_json(capsys, "sphere", "expected-count", "--n", "3",
                        "--codims", "1,2", "--ratios", "1/3,0.5")
        assert data["ratios"] == ["1/3", 0.5]
        assert data["expected_count"] == pytest.approx(math.pi ** 2 / 6)

    @pytest.mark.parametrize("ratios", ["1/0,1", "x/2,1", "1/3,"])
    def test_bad_ratio(self, capsys, ratios):
        code, err = run_err(capsys, "sphere", "expected-count", "--n", "2",
                            "--codims", "1,1", "--ratios", ratios)
        assert code == 1
        assert err.startswith("error: ")


class TestOutputModes:
    def test_csv_format(self, capsys):
        code, out = run(capsys, "cpn", "relations", "--n", "2",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any("F_n.st.s^1*t^1" in line for line in lines)

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(["cpn", "relations", "--n", "2", "--output", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["n"] == 2

    def test_output_to_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.json"
        code, err = run_err(capsys, "cpn", "basis", "--n", "1",
                            "--output", str(path))
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: " \
                      f"{str(path)!r}\n"
        assert not path.parent.exists()

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ZONOID_SEED", "77")
        data = run_json(capsys, "cpn", "relations", "--n", "2")
        assert data["provenance"]["seed"] == 77

    @pytest.mark.parametrize("argv", [
        ("cpn", "relations", "--n", "1"),
        ("sphere", "ball-mc", "--samples", "10"),
    ])
    def test_bad_seed_env(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ZONOID_SEED", "abc")
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: ZONOID_SEED is not an integer: 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ("sphere", "ball-mc", "--samples", "10"),
        ("cpn", "tasaki", "--n", "2", "--mc", "--samples", "10"),
        ("schubert", "shape", "--diagrams", "1|1", "--samples", "10"),
        ("schubert", "edeg22", "--samples", "10", "--workers", "2"),
        ("schubert", "spans", "--spans-samples", "3"),
    ])
    def test_negative_seed(self, capsys, argv):
        code, err = run_err(capsys, *argv, "--seed", "-1")
        assert code == 1
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_ball_mc_of_no_balls(self, capsys):
        code, err = run_err(capsys, "sphere", "ball-mc", "--N", "3", "--i", "0")
        assert code == 1
        assert err == "error: need 1 <= --i <= --N, got --N 3 and --i 0\n"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cpn", "nonsense", "--n", "2"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--d", "1/0"),
                                             ("--delta", "2/0")])
    def test_zero_denominator_is_a_usage_error(self, capsys, flag, value):
        # Fraction raised ZeroDivisionError, which argparse does not catch
        with pytest.raises(SystemExit) as exc:
            main(["cpn", "selfint", "--n", "3", flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(f"error: argument {flag}: invalid Fraction "
                            f"value: '{value}'\n")


@pytest.mark.parametrize("argv", [
    ("sphere", "ball-mc", "--samples", "0"),
    ("sphere", "ball-mc", "--samples", "100", "--workers", "0"),
    ("cpn", "tasaki", "--n", "2", "--mc", "--samples", "-5"),
    ("schubert", "edeg22", "--samples", "0"),
    ("schubert", "shape", "--diagrams", "1|1", "--workers", "0"),
])
def test_bad_sample_or_worker_count(capsys, argv):
    code, err = run_err(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "must be at least 1" in err


_RATIOS = "comma-separated finite numbers, p/q or decimal"
_PARTS = "weakly decreasing nonnegative integers"
_RECT = "rectangle of --k and --m"


@pytest.mark.parametrize("argv, message", [
    (("cpn", "tasaki", "--n", "2", "--mc", "--samples", "10", "--z", "nan"),
     "--z must be finite and > 0, got nan"),
    (("cpn", "tasaki", "--n", "2", "--mc", "--samples", "10", "--z", "-3"),
     "--z must be finite and > 0, got -3.0"),
    (("sphere", "ball-mc", "--samples", "10", "--z", "inf"),
     "--z must be finite and > 0, got inf"),
    (("cpn", "relations", "--n", "2", "--z", "0"),
     "--z must be finite and > 0, got 0.0"),
    (("sphere", "ball-table", "--N", "-1"), "--N must be nonnegative, got -1"),
    (("sphere", "expected-count", "--n", "-1", "--codims", "-1",
      "--ratios", "1"),
     "n and the codimensions must be nonnegative, got n=-1, codims=[-1]"),
    (("sphere", "expected-count", "--n", "2", "--codims", "3,-1",
      "--ratios", "1,1"),
     "n and the codimensions must be nonnegative, got n=2, codims=[3, -1]"),
    (("sphere", "ball-mc", "--N", "-1", "--i", "1"),
     "need 1 <= --i <= --N, got --N -1 and --i 1"),
    (("sphere", "ball-mc", "--N", "3", "--i", "5"),
     "need 1 <= --i <= --N, got --N 3 and --i 5"),
    (("sphere", "ball-mc", "--N", "3", "--i", "-1"),
     "need 1 <= --i <= --N, got --N 3 and --i -1"),
    (("sphere", "ball-mc", "--N", "3", "--i", "0"),
     "need 1 <= --i <= --N, got --N 3 and --i 0"),
    (("sphere", "expected-count", "--n", "2", "--codims", "1,x",
      "--ratios", "1/2,1/2"),
     "--codims must be comma-separated integers, got '1,x'"),
    (("sphere", "expected-count", "--n", "2", "--ratios", "1/2,abc"),
     f"--ratios must be {_RATIOS}, got '1/2,abc'"),
    (("sphere", "expected-count", "--n", "2", "--ratios", "1/0,1/2"),
     f"--ratios must be {_RATIOS}, got '1/0,1/2'"),
    (("sphere", "expected-count", "--n", "2", "--ratios", "nan,0.5"),
     f"--ratios must be {_RATIOS}, got 'nan,0.5'"),
    (("sphere", "expected-count", "--n", "2", "--ratios", "inf,0"),
     f"--ratios must be {_RATIOS}, got 'inf,0'"),
    (("schubert", "lr", "--a", "2,x", "--b", "1"),
     "--a must be comma-separated integers, got '2,x'"),
    (("schubert", "lr", "--a", "2,1", "--b", "1,1.5"),
     "--b must be comma-separated integers, got '1,1.5'"),
    (("schubert", "shape", "--diagrams", "1|2,x"),
     "--diagrams must be comma-separated integers, got '2,x'"),
    (("schubert", "lr", "--a", "1,2", "--b", "1"),
     f"--a must be a diagram: {_PARTS}, got '1,2'"),
    (("schubert", "lr", "--a=-1"), f"--a must be a diagram: {_PARTS}, got '-1'"),
    (("schubert", "lr", "--a", "1", "--b", "2,0,-1"),
     f"--b must be a diagram: {_PARTS}, got '2,0,-1'"),
    (("schubert", "shape", "--diagrams", "3"),
     f"--diagrams must be a diagram in the 2 x 2 {_RECT}: {_PARTS}, got '3'"),
    (("schubert", "shape", "--k", "3", "--diagrams", "1|2,1,0|1,1,1,1"),
     f"--diagrams must be a diagram in the 3 x 2 {_RECT}: {_PARTS}, "
     "got '1,1,1,1'"),
    (("schubert", "shape", "--diagrams", "1|1,2"),
     f"--diagrams must be a diagram in the 2 x 2 {_RECT}: {_PARTS}, "
     "got '1,2'"),
    (("sphere", "expected-count", "--n", "2", "--codims", "1,1",
      "--ratios", "1"),
     "--codims and --ratios must have equal length, got '1,1' and '1'"),
])
def test_bad_argument_value(capsys, argv, message):
    # a nan or negative z printed invalid JSON or an inverted interval;
    # a negative N printed no rows, and a negative n a factorial error;
    # ball-mc named neither --N nor --i; a list flag printed a bare int()
    # or float() error, and a nan or inf ratio reached the count as nan;
    # a list that parsed but was no diagram, or of the wrong length, gave
    # the library's message, which named no flag
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, joined", [
    ("cpn selfint --n 3 --delta -1/2", "cpn selfint --n 3 --delta=-1/2"),
    ("cpn selfint --n 3 --d -3/2 --delta -1",
     "cpn selfint --n 3 --d=-3/2 --delta=-1"),
    ("cpn multiply --n 3 --a -s --b t", "cpn multiply --n 3 --a=-s --b t"),
    ("cpn multiply --n 3 --a s --b -1/2*t",
     "cpn multiply --n 3 --a s --b=-1/2*t"),
    ("cpn length --n 3 --expr -gamma", "cpn length --n 3 --expr=-gamma"),
])
def test_value_that_starts_with_minus(capsys, argv, joined):
    # argparse took "-1/2", "-s" and "-gamma" for flags and exited 2 with
    # "expected one argument"; each is now the value of the flag before it
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert (code, out) == run(capsys, *joined.split())


@pytest.mark.parametrize("flag, value, message", [
    ("--ratios", "-1,0.5", "volume ratios must be finite and nonnegative, "
                           "got [-1.0, 0.5]"),
    ("--codims", "-1,1", "n and the codimensions must be nonnegative, "
                         "got n=2, codims=[-1, 1]"),
])
def test_negative_list_reaches_the_range_check(capsys, flag, value, message):
    code = main(["sphere", "expected-count", flag, value])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("cpn", "selfint", "--n", "3", "--delta"),
    ("cpn", "selfint", "--n", "3", "--delta", "--d", "1"),
    ("cpn", "multiply", "--n", "3", "--a", "--b", "t"),
    ("cpn", "length", "--n", "3", "--expr", "-h"),
])
def test_flag_without_a_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_bad_spans_sample_count(capsys, count):
    # --samples is another option of the same command
    code = main(["schubert", "spans", "--spans-samples", count])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: samples must be at least 1 "
                                       f"(--spans-samples), got {count}\n")


def test_spans_budget_below_the_largest_rank(capsys):
    # (3,)^(3,) at (2,5,3) expects rank 210, and 200 draws span at most 200
    code, err = run_err(capsys, "schubert", "spans", "--k", "2", "--m", "5",
                        "--d", "3", "--seed", "1")
    assert (code, err) == (1, "error: samples must be at least 210, the "
                              "largest expected rank (--spans-samples), got "
                              "200\n")
    data = run_json(capsys, "schubert", "spans", "--k", "2", "--m", "5",
                    "--d", "3", "--seed", "1", "--spans-samples", "260")
    assert data["wedges"]["(3,)^(3,)"] == {
        "rank": 210, "expected": 210, "match": True}
    assert data["ok"] is True


@pytest.mark.parametrize("k, m, d, message", [
    (2, 2, 9, "d must be in [0, k*m] = [0, 4], got 9"),
    (2, 2, -1, "d must be in [0, k*m] = [0, 4], got -1"),
    (0, 2, 1, "k and m must be at least 1, got k=0, m=2"),
    (2, 0, 0, "k and m must be at least 1, got k=2, m=0"),
])
def test_bad_spans_shape(capsys, k, m, d, message):
    # no orbit and an ambient of 0 would pass with nothing checked
    code, err = run_err(capsys, "schubert", "spans", "--k", str(k),
                        "--m", str(m), "--d", str(d))
    assert (code, err) == (1, f"error: {message}\n")


# Exact commands must not import numpy: it costs more start-up time than
# the rest of the package.  Nor dataclasses, which pulls in inspect, ast
# and dis.  pytest has all of them loaded already, so each command runs in
# a fresh interpreter.
_PROBED = ("numpy", "dataclasses", "inspect")
_MODULE_PROBE = f"""\
import sys
from pirings.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = " ".join(f"{{m}}={{m in sys.modules}}" for m in {_PROBED!r})
print(f"exit={{code}} {{loaded}}", file=sys.stderr)
"""


def fresh_python(code, argv, cwd):
    """Run `python -c code *argv` on this package in a new interpreter."""
    src = str(Path(pirings.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def probe_modules(argv, cwd):
    """'exit=<code> numpy=<loaded> dataclasses=<loaded> inspect=<loaded>'
    after running main(argv) in a new process."""
    proc = fresh_python(_MODULE_PROBE, argv, cwd)
    return proc.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("cpn", "selfint", "--n", "3", "--d", "3", "--delta", "0"),
    ("cpn", "relations", "--n", "4"),
    ("cpn", "basis", "--n", "3"),
    ("cpn", "multiply", "--n", "2", "--a", "s", "--b", "s"),
    ("cpn", "length", "--n", "2", "--expr", "gamma"),
    ("cpn", "tasaki", "--n", "2", "--x", "0.5", "--y", "0.5"),
    ("zonoid", "mixed-volume", "-f", "square.json"),
    ("zonoid", "length", "-f", "square.json"),
    ("zonoid", "crofton", "--L", "line.json", "--K", "square.json"),
    ("sphere", "ball-table", "--N", "4"),
    ("sphere", "expected-count", "--n", "2"),
    ("schubert", "lr", "--a", "2,1", "--b", "2,1"),
], ids=" ".join)
def test_exact_command_does_not_import_numpy(tmp_path, argv):
    write_inputs(tmp_path)
    assert probe_modules(argv, tmp_path) == (
        "exit=0 numpy=False dataclasses=False inspect=False")


@pytest.mark.parametrize("action", ["length", "mixed-volume"])
def test_float_zonoid_command_does_not_import_numpy(tmp_path, action):
    # a float body runs on its exact binary value, with no float kernel
    floats = {"ambient": 2, "degree": 1,
              "atoms": [{"w": 0.5, "v": [[1.5, 0.25]]},
                        {"w": 1.0, "v": [[0.1, 2.0]]}]}
    (tmp_path / "floats.json").write_text(json.dumps(floats))
    argv = ("zonoid", action, "-f", "floats.json")
    assert probe_modules(argv, tmp_path) == (
        "exit=0 numpy=False dataclasses=False inspect=False")


def test_monte_carlo_command_imports_numpy(tmp_path):
    argv = ("cpn", "tasaki", "--n", "2", "--mc", "--samples", "1000")
    assert probe_modules(argv, tmp_path).startswith("exit=0 numpy=True ")


def test_exact_star_exp_does_not_import_numpy(tmp_path):
    # vol(K + L) through the Crofton valuation of star(e^L), all exact
    code = """\
import sys
from fractions import Fraction
from pirings import zonoid as zn
from pirings.exterior import SimpleVector
L = zn.VirtualZonoid(3, 1, [(1, SimpleVector(3, [(1, 2, 0)])),
                            (Fraction(1, 2), SimpleVector(3, [(0, 1, -1)]))])
K = zn.VirtualZonoid(3, 1, [(1, SimpleVector(3, [(1, 0, 0)])),
                            (1, SimpleVector(3, [(0, 1, 0)])),
                            (1, SimpleVector(3, [(0, 0, 1)]))])
value = zn.crofton_evaluate_graded(zn.star_exp(L), K)
print(type(value).__name__, value == zn.volume(K + L), "numpy" in sys.modules)
"""
    proc = fresh_python(code, (), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Fraction", "True", "False"]


def test_cli_import_loads_every_module(tmp_path):
    # perfbench/tracing.py wraps module functions right after importing
    # pirings.cli, so a module the CLI loaded lazily would escape it
    package = Path(pirings.__file__).resolve().parent
    want = sorted(f"pirings.{p.stem}" for p in package.glob("*.py")
                  if p.stem != "__init__")
    code = ("import sys, pirings.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith('pirings.')))")
    proc = fresh_python(code, (), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == want


# The CLI registers every package module lazily: a module's body runs on
# the first read of one of its attributes, and from then on its type is
# the plain module type.  Of the standard library, fractions (with
# decimal) is loaded only where a rational is read, and logging, which
# concurrent.futures would import, not by run_blocks's worker threads.
_STDLIB_PROBED = ("fractions", "decimal", "logging")
_EXECUTED_PROBE = f"""\
import sys, types
from pirings.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
ran = sorted(m[len("pirings."):] for m, mod in list(sys.modules.items())
             if m.startswith("pirings.") and type(mod) is types.ModuleType)
ran += [m for m in {_STDLIB_PROBED!r} if m in sys.modules]
print(f"exit={{code}}", *ran, file=sys.stderr)
"""


def executed_modules(argv, cwd):
    """(exit code, set of the package modules whose body ran, and of the
    _STDLIB_PROBED modules loaded) of main(argv) in a new process."""
    exit_code, *ran = fresh_python(_EXECUTED_PROBE, argv, cwd).stderr.split()
    return exit_code, set(ran)


@pytest.mark.parametrize("argv, called, skipped", [
    (("--help",), "cli", {"cpn_ring", "schubert", "zonoid", "sphere_ring",
                          "sampling", "exterior", "exact", "fractions",
                          "decimal"}),
    (("cpn", "relations", "--n", "4"), "cpn_ring",
     {"schubert", "zonoid", "exterior", "sampling", "sphere_ring"}),
    (("cpn", "tasaki", "--n", "3", "--mc", "--samples", "100"), "cpn_ring",
     {"schubert", "zonoid", "sphere_ring"}),
    (("zonoid", "length", "-f", "square.json"), "zonoid",
     {"cpn_ring", "sampling", "schubert", "sphere_ring"}),
    (("sphere", "ball-table", "--N", "4"), "sphere_ring",
     {"cpn_ring", "zonoid", "sampling"}),
    (("schubert", "edeg22", "--samples", "100"), "schubert",
     {"exact", "exterior", "cpn_ring", "zonoid", "fractions", "decimal"}),
    (("schubert", "shape", "--diagrams", "1|2,1", "--samples", "100"),
     "schubert", {"exact", "exterior", "cpn_ring", "zonoid", "fractions",
                  "decimal"}),
    (("schubert", "lr", "--a", "3,2,1", "--b", "2,1"), "schubert",
     {"exact", "exterior", "cpn_ring", "zonoid", "sampling"}),
    (("schubert", "edeg22", "--samples", "20000", "--workers", "2"),
     "schubert", {"fractions", "decimal", "logging"}),
], ids=["help", "cpn relations", "cpn tasaki mc", "zonoid length",
        "sphere ball-table", "schubert edeg22", "schubert shape",
        "schubert lr", "schubert edeg22 workers 2"])
def test_command_runs_only_the_modules_it_calls(tmp_path, argv, called,
                                                skipped):
    write_inputs(tmp_path)
    exit_code, ran = executed_modules(argv, tmp_path)
    assert exit_code == "exit=0"
    assert called in ran
    assert not ran & skipped


_TRACER_PROBE = """\
import json, sys, types
sys.path.insert(0, sys.argv[1])
import pirings.cli
from tracing import TARGETS, Tracer

wrapper = next(c for c in Tracer.wrap.__code__.co_consts
               if isinstance(c, types.CodeType))


def wrapped():
    return sorted(f"{m}.{attr}" for m, mod in list(sys.modules.items())
                  if m.startswith("pirings")
                  for attr, value in vars(mod).items()
                  if getattr(value, "__code__", None) is wrapper)


tracer = Tracer()
tracer.install()
during = wrapped()
missing = sorted(set(TARGETS.values()) - tracer.installed)
tracer.uninstall()
print(json.dumps({"during": during, "missing": missing, "after": wrapped()}))
"""


def test_tracer_leaves_no_wrapper_on_lazy_modules(tmp_path):
    # The tracer loads each lazy module while it walks sys.modules and
    # replaces a function in every module that binds it.  A module that
    # bound a function only after the walk had replaced it in its home
    # module would keep the wrapper past uninstall.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = fresh_python(_TRACER_PROBE, (str(perfbench),), tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert {"pirings.exact.bareiss_det", "pirings.exterior.bareiss_det",
            "pirings.zonoid.expand"} <= set(out["during"])
    assert out["after"] == []


README = Path(__file__).resolve().parents[1] / "README.md"
README_SAMPLES_CAP = 20000  # a smoke test; accuracy is pinned elsewhere


def readme_commands():
    """The `pirings ...` lines of the README's "Command line" code block."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    return [line[len("pirings "):] for line in block.splitlines()
            if line.startswith("pirings ")]


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(capsys, monkeypatch, tmp_path, command):
    argv = shlex.split(command)
    if "--samples" in argv:
        i = argv.index("--samples") + 1
        argv[i] = str(min(int(argv[i]), README_SAMPLES_CAP))
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert "provenance" in run_json(capsys, *argv)
