import csv
import hashlib
import json
import re
import warnings

import pytest

from noonlike import cli, families
from noonlike.cli import main, parse_args
from noonlike.errors import OrderingViolation, UsageError
from noonlike.families import SweepCurve
from noonlike.qcrb import noon_qcrb
from noonlike.states import FAMILIES


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
        for family in FAMILIES:
            flag = "--" + FAMILIES[family].parameter.replace("_", "-")
            with pytest.raises(UsageError, match=f"requires {flag}$"):
                parse_args(["qcrb", "--family", family, "--d", "5", "--r-prime", "1"])

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
            ["qcrb", "--family", "ecs", "--d=5", "--alpha", "-1e5"],  # after a joined flag
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
            (["figure", "--id", "2", "--r-min", "1"], ["--r-min"]),
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
        "argv", [["experiment", "--r", "1"], ["figure", "--id", "6"]], ids=" ".join
    )
    def test_circuit_option_unrecognized(self, capsys, argv):
        # the heralded source has one wiring, the reference one
        assert main(argv + ["--circuit", "x.cfg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --circuit x.cfg\n"

    @pytest.mark.parametrize(
        "argv", [["experiment", "--r", "1"], ["figure", "--id", "6"]], ids=" ".join
    )
    def test_cutoff_option_unrecognized(self, capsys, argv):
        # the source is evaluated exactly on its photon budget: no cutoff to choose
        assert main(argv + ["--cutoff", "60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --cutoff 60\n"

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
        "argv, flag, value",
        [
            pytest.param(argv, flag, value, id=" ".join(argv))
            for argv, flag, value in [
                (["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "-0.5", "--r-max", "1"],
                 "--r-min", "-0.5"),
                (["unbalanced", "--d", "5", "--r-min", "-1"], "--r-min", "-1.0"),
                (["figure", "--id", "6", "--r-min", "-0.5", "--r-max", "1"], "--r-min", "-0.5"),
                (["figure", "--id", "4", "--r-max=-2", "--steps", "1"], "--r-max", "-2.0"),
                (["sweep-escs", "--d", "5", "--n-bar", "4", "--r-max", "-1e5", "--steps", "1"],
                 "--r-max", "-100000.0"),
            ]
        ],
    )
    def test_negative_squeeze_range_rejected(self, capsys, argv, flag, value):
        # the grid's squeeze factors are nonnegative, so the usage error names
        # the flag, even when --steps 1 leaves --r-max unused
        with pytest.raises(UsageError):
            parse_args(argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {flag} must be nonnegative, got {value}\n"

    GRID_COMMANDS = [["sweep-escs", "--d", "5", "--n-bar", "4"], ["unbalanced", "--d", "5"],
                     ["figure", "--id", "2"], ["figure", "--id", "6"]]

    @pytest.mark.parametrize("steps", [["--steps", "100001"], ["--steps", str(10**30)],
                                       [f"--steps={10**30}"]], ids=" ".join)
    @pytest.mark.parametrize("command", GRID_COMMANDS, ids=" ".join)
    def test_steps_above_the_cap_rejected(self, capsys, command, steps):
        # a grid is a list of --steps floats, so the checks, which run before
        # any grid is built, bound it
        argv = command + steps
        with pytest.raises(UsageError, match="^--steps must be at most 100000, got "):
            parse_args(argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        value = steps[-1].rpartition("=")[2]
        assert captured.err == f"usage error: --steps must be at most 100000, got {value}\n"

    @pytest.mark.parametrize("command", GRID_COMMANDS, ids=" ".join)
    def test_steps_at_the_cap_accepted(self, command):
        assert parse_args(command + ["--steps", "100000"])[1]["steps"] == cli._STEPS_MAX == 10**5

    def test_zero_squeeze_sweep(self, capsys):
        assert main(["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "0", "--r-max", "1"]) == 0
        assert capsys.readouterr().out == (
            "r_prime,n_bar,qcrb\n0,4,0.477104643132\n0.5,4,0.270307260582\n1,4,0.141130549315\n"
        )

    @pytest.mark.xfail(
        strict=True,
        reason="compare bisects ECS and prints ...131, where the r' = 0 ESCS inverse gives "
               "the correctly rounded ...132; ROADMAP item 4 inverts ECS exactly",
    )
    def test_zero_squeeze_is_the_coherent_point(self, capsys):
        # r' = 0 is the ECS probe: the sweep's first row is compare's ecs bound
        assert main(["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "0", "--r-max", "1"]) == 0
        sweep = capsys.readouterr().out
        assert main(["compare", "--d", "5", "--n-bar", "4"]) == 0
        ecs = capsys.readouterr().out.splitlines()[2].split(",")
        assert ecs[0] == "ecs" and sweep.splitlines()[1] == f"0,4,{ecs[1]}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["unbalanced", "--d", "5", "--r-min", "0"],
             "r_grid must be positive and strictly increasing"),
            (["figure", "--id", "4", "--r-min", "0"],
             "r_grid must be positive and strictly increasing"),
            (["figure", "--id", "6", "--r-min", "0"], "squeeze factor must be positive, got 0.0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_zero_squeeze_range_left_to_the_library(self, capsys, argv, message):
        # --r-min and --r-max share one domain, nonnegative, so a zero squeeze
        # factor on a squeezed-vacuum or heralded-source grid is the library's
        # computation error
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_argv_defaults_to_the_command_line(self, capsys, monkeypatch):
        argv = ["qcrb", "--family", "noon", "--d", "5", "--n", "2"]
        assert main(argv) == 0
        given = capsys.readouterr()
        monkeypatch.setattr("sys.argv", ["noonlike"] + argv)
        assert main() == 0
        assert capsys.readouterr() == given

    def test_computation_error_exit_code(self, capsys):
        # below the squeezed-coherent reachability floor at unit squeeze
        assert main(["compare", "--d", "1", "--n-bar", "0.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_overflow_exit_code(self, capsys):
        assert main(["qcrb", "--family", "esvs", "--d", "5", "--r", "800"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["qcrb", "--family", "noon", "--n", "2"], ["compare", "--n-bar", "4"]]
    )
    def test_d_beyond_a_double_exit_code(self, capsys, command):
        # d * (d + 1) would overflow a double, once a bare OverflowError that named nothing
        assert main([*command, "--d", str(10**400)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must keep d * (d + 1) within a double, got a 1329-bit d\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["qcrb", "--family", "ecs", "--d", "5", "--alpha", "1e200"], "alpha"),
            (["qcrb", "--family", "noon", "--d", "5", "--n", "1e200"], "n"),
            (["compare", "--d", "5", "--n-bar", "1e300"], "n_bar"),
            (["qcrb", "--family", "esvs", "--d", "5", "--r", "400"], "r"),
            (["qcrb", "--family", "ecs", "--d", "5", "--alpha", "1e-160"], "alpha"),
            # the pump amplitude derives from r; the message names the r given
            (["experiment", "--r", "1e-300"], "r"),
            (["figure", "--id", "6", "--r-min", "1e-300"], "r"),
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

    def test_bracket_past_parameter_range_names_n_bar(self, capsys):
        # the ECS bracket doubles alpha past its range before it reaches the
        # target, though alpha^2 = 5e152 is in range; the message names the
        # budget the user gave, not alpha
        assert main(["compare", "--d", "5", "--n-bar", "5e152"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot match family ecs to the target n_bar = 5e+152: "
            "the solve on its parameter alpha left the representable range\n"
        )

    @pytest.mark.parametrize("figure", ["2", "3"])
    def test_grid_at_the_float_limit_names_n_bar(self, capsys, figure):
        # every interior point of this grid overflows 10 ** y; the first, exact,
        # point is out of n_bar's domain and must stop the figure before them
        argv = ["figure", "--id", figure, "--n-min", "1.7976931348623155e308",
                "--n-max", "1.7976931348623157e308", "--steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_bar = 1.7976931348623155e+308 is out of range")

    def test_non_finite_result_exit_code(self, capsys):
        # 1/b2 overflows: the bound would print as inf
        assert main(["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qcrb = inf is not finite\n"

    def test_boundary_weight_exit_code(self, capsys):
        # b^2 = 1/d leaves a number state's reference mode no weight
        assert main(["qcrb", "--family", "noon", "--d", "5", "--n", "3", "--b2", "0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: b2 = 0.2 is the boundary weight 1/d of a number state: it leaves the "
            "reference mode no weight (c = 0)"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--d", "5", "--n-bar", "4", "--r-prime", "3"],
            ["sweep-escs", "--d", "5", "--n-bar", "4", "--r-min", "0.1", "--r-max", "3"],
        ],
        ids=" ".join,
    )
    def test_escs_floor_names_family_and_squeeze(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n_bar = 4.0 is below the floor 67.0554 of family escs at r_prime = 3.0\n"
        )

    def test_false_ordering_fault_message(self, capsys):
        # the ECS constituent's <n> rounds below NOON's at this budget (a
        # known fault); the message is the one the benchmark expects
        assert main(["compare", "--d", "5", "--n-bar", "45"]) == 1
        assert capsys.readouterr().err == (
            "error: constituent photon ordering failed at d=5, n_bar=45.0: "
            "[45.0, 44.99999999995909, 45.00443716571462, 71.43649135176373]\n"
        )

    @pytest.mark.xfail(
        strict=True,
        reason="qcrb_closed_form takes 1/(d+1) from R - b2 d = 1 - d/(d+1), off by ~d ulp",
    )
    def test_balanced_noon_bound_at_large_d(self, capsys):
        assert main(["qcrb", "--family", "noon", "--d", "1000000", "--n", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == f"{noon_qcrb(10**6, 2.0):.12g}" == "125000125000"

    @pytest.mark.xfail(
        strict=True,
        reason="the NOON column exceeds its own ceiling: R - b2 d cancels at d = 1e5",
    )
    def test_figure_2_at_large_d(self, capsys):
        assert main(["figure", "--id", "2", "--d", "100000", "--steps", "3"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.xfail(
        strict=True,
        reason="the heralded state rounds to |1> and ties NOON in double precision; "
               "ROADMAP item 4's gap rule reports such a tie instead of raising",
    )
    def test_figure_6_at_tiny_squeeze(self, capsys):
        # experiment accepts the same r
        assert main(["figure", "--id", "6", "--r-min", "1e-70", "--r-max", "1e-69",
                     "--steps", "2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args, err, stdout_sha256",
        [
            pytest.param(args, err, sha, id=args)
            for args, err, sha in [
                (
                    "--d 5 --r-min 0.5 --r-max 5 --steps 8",
                    "# crossover n_bar = 91.0174033344\n",
                    "123bd563a888c534558bdccdf22ff8c49df819e306f836099de20116ca7dfabe",
                ),
                (
                    "--d 5 --r-max 3 --steps 10",
                    "",
                    "fc78d3a49f2967d0ca9aec7a45d34d1d79adcaf068fee59661c8d41d6e072531",
                ),
                (
                    "--d 10 --r-min 0.3 --r-max 5 --steps 3",
                    "",
                    "a544a2c0e436494f51ccc5202a694ddc6d8b7840633c8cf6b2fbf7660b7bd86f",
                ),
            ]
        ],
    )
    def test_crossover_from_exactly_matched_budgets(self, capsys, args, err, stdout_sha256):
        # on these coarse grids a linearly interpolated balanced curve shows
        # crossovers (n_bar = 7.258, 22.28, 2.054) that the exact bounds do
        # not have; the columns never depended on the comparison
        assert main(["unbalanced", *args.split()]) == 0
        captured = capsys.readouterr()
        assert captured.err == err
        assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256

    def test_usage_error_exit_code(self, capsys):
        assert main(["figure", "--id", "7"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("command", list(cli._COMMAND_OPTIONS))
    def test_help_lists_every_flag_of_the_table(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"^  (--[a-z0-9-]+)", out, re.M))
        assert listed == {cli._FLAG[key] for key in cli._takes(command)}
        for key in cli._takes(command):
            assert " ".join(cli._OPTIONS[key][2].split()) in " ".join(out.split())

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["--help"], ["-h"], ["--zz", "qcrb"]]
        + [[command, "--help"] for command in cli._COMMAND_OPTIONS],
        ids=lambda argv: " ".join(argv) or "no command",
    )
    def test_same_text_as_the_parser_of_every_command(self, capsys, argv):
        # parse_args reads an exact argv itself; each error and help text must
        # be the parser's own
        def outcome(parse):
            try:
                parse(argv)
            except SystemExit as exc:
                return exc.code, capsys.readouterr()
            except UsageError as exc:
                return str(exc), capsys.readouterr()

        assert outcome(parse_args) == outcome(cli._build_parser().parse_args)

    def test_command_errors(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: command\n"
        )
        assert main(["bogus"]) == 2
        assert capsys.readouterr().err == (
            "usage error: argument command: invalid choice: 'bogus' (choose from 'qcrb', "
            "'compare', 'sweep-escs', 'unbalanced', 'experiment', 'figure')\n"
        )


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
            return SweepCurve(tuple((n_bar, 1e-9, rp) for rp in grid))

        monkeypatch.setattr(families, "escs_sweep_r_prime", flat_sweep)
        argv = ["figure", "--id", "3", "--steps", "2"]
        message = r"^ECS > ESCS\(r'\) > ESVS ordering failed at d=5, n_bar=0.75: \["
        with pytest.raises(OrderingViolation, match=message):
            cli._figure_3(parse_args(argv)[1])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ECS > ESCS(r') > ESVS ordering failed")

    def test_figure_2_tiny_budget_within_noon_ceiling(self, capsys):
        # the NOON column itself exceeded an absolute ceiling by an ulp here
        argv = ["figure", "--id", "2", "--d", "1", "--n-min", "0.0001795655505842574",
                "--n-max", "1", "--steps", "1", "--r-prime", "0.0001"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

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

    def test_out_creates_missing_directories(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "--r", "1", "--out", "sub/exp.csv"]) == 0
        assert (tmp_path / "sub" / "exp.csv").read_text().startswith("r,n_bar,")
        absolute = tmp_path / "elsewhere" / "exp.csv"
        assert main(["experiment", "--r", "1", "--out", str(absolute)]) == 0
        assert absolute.read_text().startswith("r,n_bar,")


class TestRowFormatting:
    def test_twelve_significant_digits(self, tmp_path):
        target = tmp_path / "fig2.csv"
        main(["figure", "--id", "2", "--steps", "4", "--out", str(target)])
        line = target.read_text().splitlines()[1]
        for token in line.split(","):
            mantissa = token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 12
