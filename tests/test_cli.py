import json

import pytest

from pirings.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


class TestSchubert:
    def test_lr(self, capsys):
        data = run_json(capsys, "schubert", "lr", "--a", "1", "--b", "1")
        assert data["coefficients"] == {"(1, 1)": 1, "(2,)": 1}

    def test_spans(self, capsys):
        data = run_json(capsys, "schubert", "spans", "--k", "2", "--m", "2",
                        "--d", "1", "--spans-samples", "60")
        assert data["ok"] is True

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

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ZONOID_SEED", "77")
        data = run_json(capsys, "cpn", "relations", "--n", "2")
        assert data["provenance"]["seed"] == 77

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cpn", "nonsense", "--n", "2"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
