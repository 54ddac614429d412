import csv
import json

import pytest

from noonlike import cli
from noonlike.cli import main, parse_args
from noonlike.errors import OrderingViolation, UsageError
from noonlike.families import PARAMETERS, Family, SweepCurve


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) if i or row[0][0].isdigit() else v for i, v in enumerate(row)] for row in rows[1:]]


class TestParseArgs:
    def test_compare_valid(self):
        command, params = parse_args(["compare", "--d", "5", "--n-bar", "4", "--r-prime", "1"])
        assert command == "compare"
        assert params["d"] == 5
        assert params["n_bar"] == 4.0

    def test_figure_id_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["figure", "--id", "7"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["compare", "--d", "5", "--n-bar", "4", "--frobnicate", "1"])

    def test_missing_family_parameter(self):
        for family in Family:
            flag = "--" + PARAMETERS[family].replace("_", "-")
            with pytest.raises(UsageError, match=f"requires {flag}$"):
                parse_args(["qcrb", "--family", family.value, "--d", "5", "--r-prime", "1"])

    def test_negative_value_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["compare", "--d", "5", "--n-bar", "-2"])

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            pytest.param(argv, flag, value, id=" ".join(argv))
            for argv, flag, value in [
                (["experiment", "--r", "nan"], "--r", "nan"),
                (["figure", "--id", "6", "--r-min", "nan", "--steps", "2"], "--r-min", "nan"),
                (["figure", "--id", "2", "--n-min", "nan"], "--n-min", "nan"),
                (["compare", "--d", "5", "--n-bar", "inf"], "--n-bar", "inf"),
                (["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "nan"], "--r-min", "nan"),
                (["unbalanced", "--d", "1", "--r-max", "inf"], "--r-max", "inf"),
                (["qcrb", "--family", "noon", "--d", "5", "--n", "1e400"], "--n", "inf"),
                (["qcrb", "--family", "escs", "--d", "5", "--alpha", "1", "--r-prime", "nan"],
                 "--r-prime", "nan"),
                (["qcrb", "--family", "ecs", "--d", "5", "--alpha=-inf"], "--alpha", "-inf"),
                (["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2=-inf"], "--b2", "-inf"),
            ]
        ],
    )
    def test_non_finite_value_rejected(self, capsys, argv, flag, value):
        with pytest.raises(UsageError):
            parse_args(argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {flag} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "-inf"],
            ["qcrb", "--family", "ecs", "--d", "5", "--alpha", "-1e5"],
            ["qcrb", "--family", "ecs", "--d", "5", "--alpha", "-1.5"],
            ["qcrb", "--family", "noon", "--d", "5", "--n", "-NaN"],
            ["compare", "--d", "5", "--n-bar", "-1E-3"],
        ],
        ids=" ".join,
    )
    def test_negative_value_as_separate_token(self, capsys, argv):
        # "--flag -1e5" and "--flag=-1e5" give the same output and exit code
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        results = []
        for form in (argv, joined):
            code = main(form)
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]
        assert "expected one argument" not in results[0][2]

    def test_qcrb_valid(self):
        _, params = parse_args(["qcrb", "--family", "noon", "--d", "5", "--n", "2"])
        assert params["n"] == 2.0

    def test_fixed_and_optimized_weights_exclusive(self, capsys):
        argv = ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "0.1", "--optimized-b"]
        with pytest.raises(UsageError):
            parse_args(argv)
        assert main(argv) == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, unused",
        [
            (["figure", "--id", "4", "--n-min", "3", "--r-prime", "9"], ["--n-min", "--r-prime"]),
            (["figure", "--id", "6", "--d", "7"], ["--d"]),
            (["figure", "--id", "2", "--cutoff", "3", "--circuit", "/nonexistent"],
             ["--circuit", "--cutoff"]),
            (["qcrb", "--family", "noon", "--d", "5", "--n", "2", "--alpha", "3"], ["--alpha"]),
            (["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--r-prime", "1"], ["--r-prime"]),
        ],
        ids=["figure-4", "figure-6", "figure-2", "qcrb-noon", "qcrb-esvs"],
    )
    def test_unused_option_rejected(self, capsys, argv, unused):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.rstrip().endswith(", ".join(unused))

    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "1.2", "--r-max", "0.4"], "r"),
            (["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "1", "--r-max", "1",
              "--steps", "3"], "r"),
            (["unbalanced", "--d", "5", "--r-min", "2", "--r-max", "1"], "r"),
            (["unbalanced", "--d", "5", "--r-max", "0.2"], "r"),
            (["figure", "--id", "2", "--n-min", "20", "--n-max", "0.5"], "n"),
            (["figure", "--id", "3", "--n-min", "4", "--n-max", "4", "--steps", "2"], "n"),
            (["figure", "--id", "4", "--r-min", "2", "--r-max", "1"], "r"),
            (["figure", "--id", "6", "--r-min", "2", "--r-max", "1"], "r"),
            (["figure", "--id", "6", "--r-max", "0.9"], "r"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_range_not_increasing_rejected(self, capsys, argv, grid):
        # checked after the defaults are merged, so one given bound can be
        # at fault against the other's default
        with pytest.raises(UsageError):
            parse_args(argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: --{grid}-min must be less than --{grid}-max ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "1.2", "--r-max", "0.4",
             "--steps", "1"],
            ["figure", "--id", "2", "--n-min", "4", "--n-max", "1", "--steps", "1"],
        ],
        ids=["sweep-escs", "figure-2"],
    )
    def test_single_point_grid_takes_any_range(self, capsys, argv):
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestCommands:
    def test_qcrb_noon_value(self, capsys):
        assert main(["qcrb", "--family", "noon", "--d", "5", "--n", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split(",")
        row = out[1].split(",")
        assert float(row[header.index("qcrb")]) == 3.75

    def test_compare_emits_four_rows(self, tmp_path):
        target = tmp_path / "compare.csv"
        code = main(
            ["compare", "--d", "5", "--n-bar", "4", "--out", str(target)]
        )
        assert code == 0
        header, rows = _read_csv(target)
        assert [r[0] for r in rows] == ["noon", "ecs", "escs", "esvs"]
        qcrbs = [r[header.index("qcrb")] for r in rows]
        assert qcrbs[0] == pytest.approx(0.9375, abs=1e-9)
        assert all(a > b for a, b in zip(qcrbs, qcrbs[1:]))

    def test_sweep_escs(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-escs", "--d", "5", "--n-bar", "2",
                "--r-min", "0.4", "--r-max", "1.2", "--steps", "3",
                "--out", str(target),
            ]
        )
        assert code == 0
        header, rows = _read_csv(target)
        values = [r[header.index("qcrb")] for r in rows]
        assert values[0] > values[1] > values[2]

    def test_experiment(self, tmp_path):
        target = tmp_path / "exp.csv"
        assert main(["experiment", "--r", "1", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        row = rows[0]
        assert row[header.index("n_bar")] == pytest.approx(2.2462, abs=1e-3)
        assert row[header.index("abs_c1")] == pytest.approx(0.5338068, abs=1e-6)
        assert row[header.index("abs_c0")] == 0.0

    def test_computation_error_exit_code(self, capsys):
        # below the squeezed-coherent reachability floor at unit squeeze
        assert main(["compare", "--d", "1", "--n-bar", "0.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_overflow_exit_code(self, capsys):
        assert main(["qcrb", "--family", "esvs", "--d", "5", "--r", "800"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["qcrb", "--family", "ecs", "--d", "5", "--alpha", "1e200"], "alpha"),
            (["qcrb", "--family", "noon", "--d", "5", "--n", "1e200"], "n"),
            (["compare", "--d", "5", "--n-bar", "1e300"], "n_bar"),
            (["qcrb", "--family", "esvs", "--d", "5", "--r", "400"], "r"),
            (["qcrb", "--family", "ecs", "--d", "5", "--alpha", "1e-160"], "alpha"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_unrepresentable_parameter_exit_code(self, capsys, argv, name):
        # moments that overflow, or an <n>^2 that underflows, name the argument
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        value = float(argv[-1])
        assert captured.err.startswith(f"error: {name} = {value!r} is out of range")

    @pytest.mark.parametrize(
        "line, broken",
        [
            ("modes 3", "modes"),
            ("herald mode=3 count=1", "herald count=1"),
            (
                "element phaseshifter mode=2 const=pi per-photon=-pi/2",
                "element phaseshifter const=pi",
            ),
            ("modes 3", "modes 3 junk"),
            ("outputs 1,2", "outputs 1,2 3"),
            (
                "element beamsplitter modes=2,3 transmissivity=0.5 convention=real",
                "element beamsplitter modes=2,3 transmissivity=0.5 convention=real wibble=1",
            ),
            ("herald mode=3 count=1", "herald mode=3 count=1 count=2"),
        ],
    )
    def test_incomplete_circuit_line_exit_code(
        self, tmp_path, capsys, reference_config_text, line, broken
    ):
        text = reference_config_text
        assert line in text
        path = tmp_path / "circuit.cfg"
        path.write_text(text.replace(line, broken, 1))
        assert main(["experiment", "--r", "1", "--circuit", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert repr(broken) in err

    def test_non_finite_result_exit_code(self, capsys):
        # 1/b2 overflows: the bound would print as inf
        assert main(["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qcrb = inf is not finite\n"

    def test_usage_error_exit_code(self, capsys):
        assert main(["figure", "--id", "7"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestFigures:
    def test_figure_2_columns_and_ordering(self, tmp_path):
        target = tmp_path / "fig2.csv"
        assert main(["figure", "--id", "2", "--steps", "8", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header == ["n_bar", "noon", "ecs", "escs_r1", "esvs"]
        assert len(rows) == 8
        for row in rows:
            n_bar, noon, ecs, escs, esvs = row
            assert noon > ecs > escs > esvs
            assert noon == pytest.approx(15.0 / n_bar**2, rel=1e-9)

    def test_figure_2_label_follows_squeeze_factor(self, tmp_path):
        target = tmp_path / "fig2.csv"
        argv = ["figure", "--id", "2", "--steps", "3", "--n-min", "2", "--r-prime", "0.5"]
        assert main(argv + ["--out", str(target)]) == 0
        header, _ = _read_csv(target)
        assert header == ["n_bar", "noon", "ecs", "escs_r0.5", "esvs"]

    def test_figure_3_columns(self, tmp_path):
        target = tmp_path / "fig3.csv"
        assert main(["figure", "--id", "3", "--steps", "6", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header == ["n_bar", "ecs", "escs_r0.4", "escs_r0.8", "escs_r1.2", "esvs"]
        for row in rows:
            assert all(a > b for a, b in zip(row[1:], row[2:]))

    def test_figure_3_ordering_fault_is_typed(self, monkeypatch, capsys):
        # an ESCS column that ties instead of falling must be reported as
        # the ordering fault it is, with the computation-error exit code
        def flat_sweep(d, n_bar, grid):
            return SweepCurve(tuple((n_bar, 1e-9, rp) for rp in grid), label="flat")

        monkeypatch.setattr(cli, "escs_sweep_r_prime", flat_sweep)
        argv = ["figure", "--id", "3", "--steps", "2"]
        with pytest.raises(OrderingViolation, match=r"^expected ECS > ESCS\(r'\) > ESVS at n_bar="):
            cli._figure_3(parse_args(argv)[1])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: expected ECS > ESCS(r') > ESVS")

    def test_figure_4_columns(self, tmp_path):
        target = tmp_path / "fig4.csv"
        assert main(["figure", "--id", "4", "--steps", "12", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header == [
            "r", "n_bar_balanced", "qcrb_balanced", "n_bar_unbalanced", "qcrb_unbalanced"
        ]
        for row in rows:
            assert row[header.index("n_bar_unbalanced")] > 2.0

    def test_figure_6_columns_and_ordering(self, tmp_path):
        target = tmp_path / "fig6.csv"
        assert main(["figure", "--id", "6", "--steps", "5", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header == ["n_bar", "noon_effective", "ecs", "phi"]
        for n_bar, noon, ecs, phi in rows:
            assert ecs < phi < noon
            assert 2.2 < n_bar < 2.51

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["figure", "--id", "2", "--steps", "6", "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        target = tmp_path / "fig6.json"
        code = main(
            ["figure", "--id", "6", "--steps", "3", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["columns"] == ["n_bar", "noon_effective", "ecs", "phi"]
        assert len(payload["rows"]) == 3

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOONLIKE_OUTPUT_DIR", str(tmp_path))
        assert main(["figure", "--id", "2", "--steps", "4"]) == 0
        assert (tmp_path / "figure_2.csv").exists()


class TestRowFormatting:
    def test_twelve_significant_digits(self, tmp_path):
        target = tmp_path / "fig2.csv"
        main(["figure", "--id", "2", "--steps", "4", "--out", str(target)])
        line = target.read_text().splitlines()[1]
        for token in line.split(","):
            mantissa = token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 12
