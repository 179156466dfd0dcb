"""End-to-end runs of the console entry point via main(argv)."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fsdrisk.cli
from fsdrisk.cli import build_parser, fold_dist_flags, main
from fsdrisk.dist import ContinuousCDF
from fsdrisk.harness import check_semicontinuity_probe
from fsdrisk.jsonio import parse_distribution_obj, parse_measure_obj, parse_psi_grid_obj, report_to_json
from fsdrisk.measures import RiskMeasure, var_measure

F3 = '{"atoms": [{"x": 1.0, "p": 0.3}, {"x": 2.0, "p": 0.4}, {"x": 3.0, "p": 0.3}]}'
VAR03 = '{"kind": "var", "alpha": 0.3}'
LAM = (
    '{"kind": "lambda", "Lambda": {"breakpoints": [0.0],'
    ' "values": [0.8, 0.4], "direction": "dec"}}'
)
PINNED = (
    '{"kind": "pinned", "x0": 0.0, "g": {"breakpoints": [0.5],'
    ' "values": [1.0, 0.0], "direction": "dec"}}'
)
UNIFORM = '{"family": "uniform", "a": 0.0, "b": 1.0}'


def _subcommands(parser):
    """Each subcommand's parser, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# the options that take floats, and how many values each takes
FLOAT_FLAGS = {opt: action.nargs or 1 for sub in _subcommands(build_parser()).values()
               for action in sub._actions if action.type is float
               for opt in action.option_strings}


class TestEval:
    def test_values_on_stdout(self, capsys):
        code = main(["eval", "--measure", VAR03, "--dist", F3, "--dist", '{"atoms": [{"x": -2.0, "p": 1.0}]}'])
        assert code == 0
        assert capsys.readouterr().out == "1.0\n-2.0\n"

    def test_measure_from_file_and_json_out(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        mpath.write_text(VAR03)
        opath = tmp_path / "result.json"
        code = main(["eval", "--measure", str(mpath), "--dist", F3, "--out", str(opath)])
        assert code == 0
        payload = json.loads(opath.read_text())
        assert payload == {"measure": {"alpha": 0.3, "kind": "var"}, "values": [1.0]}

    def test_own_mass_sum_inside_the_band_builds(self, capsys):
        # the masses sum to 1 + 9.9987e-13; adding the two at x = 0 first
        # would round the sum out of the band
        dist = ('{"atoms": [{"x": 0.0, "p": 0.5507295311759609}, {"x": 0.0, "p": 0.11491506018575802},'
                ' {"x": 1.0, "p": 0.33435540863928104}]}')
        assert main(["eval", "--measure", VAR03, "--dist", dist]) == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_continuous_distribution_is_refused(self, capsys):
        code = main(["eval", "--measure", VAR03, "--dist", '{"family": "uniform", "a": 0.0, "b": 1.0}'])
        assert code == 2
        assert "error [BAD_SCHEMA]: distribution 0" in capsys.readouterr().err


def _append_parser() -> argparse.ArgumentParser:
    """eval's options as they were with one value per --dist flag."""
    parser = argparse.ArgumentParser(prog="fsdrisk")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("eval")
    p.add_argument("--dist", action="append", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--out")
    return parser


def _parsed_dists(parser, argv):
    """``args.dist``, or None when argparse rejects the argv."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv).dist
        except SystemExit:
            return None


# token groups an eval argv is built from; the values include ones that
# start with "-" (never folded) and an empty one
DIST_VALUES = st.sampled_from([F3, "f.json", "-1", "- spaced", "", "a b", "--", "{}"])
ARG_GROUPS = st.one_of(
    st.tuples(st.just("--dist"), DIST_VALUES),
    DIST_VALUES.map(lambda v: (f"--dist={v}",)),
    st.tuples(st.sampled_from(["--dis", "--d"]), DIST_VALUES),
    st.tuples(st.just("--measure"), st.sampled_from([VAR03, "m.json"])),
    st.tuples(st.just("--out"), st.sampled_from(["o.json", "-"])),
    st.just(("--dist",)),
    st.just(("--",)),
)


class TestDistFold:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(ARG_GROUPS, max_size=8))
    def test_fold_keeps_every_accepted_argv(self, groups):
        argv = ["eval"] + [tok for group in groups for tok in group]
        before = _parsed_dists(_append_parser(), argv)
        folded = fold_dist_flags(argv)
        assert _parsed_dists(build_parser(), folded) == _parsed_dists(build_parser(), argv)
        # Python 3.11's argparse reads "--dist=--" as an empty list, which
        # append stored as a value and extend adds nothing for
        if before is not None and all(isinstance(v, str) for v in before):
            assert _parsed_dists(build_parser(), folded) == before

    def test_fold_joins_runs_and_passes_the_rest(self):
        argv = ["eval", "--dist", "a", "--dist", "b", "--measure", "m", "--dist", "c",
                "--dist=d", "--dist", "e", "--dis", "f", "--dist", "-1", "--dist", "g",
                "--", "--dist", "h", "--dist", "i"]
        assert fold_dist_flags(argv) == [
            "eval", "--dist", "a", "b", "--measure", "m", "--dist", "c",
            "--dist=d", "--dist", "e", "--dis", "f", "--dist", "-1", "--dist", "g",
            "--", "--dist", "h", "--dist", "i"]

    @pytest.mark.parametrize("tail", [["--dist"], ["--dist", "-x"], ["--dist", "--measure", VAR03]])
    def test_missing_values_still_exit_two(self, tail, capsys):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--measure", VAR03, "--dist", F3, *tail])
        assert e.value.code == 2
        assert "--dist" in capsys.readouterr().err

    def test_fold_is_linear(self):
        # one --dist token left for 10,000, so argparse consumes one option
        argv = fold_dist_flags(["eval", "--measure", VAR03] + ["--dist", F3] * 10_000)
        assert argv.count("--dist") == 1
        assert len(argv) == 3 + 1 + 10_000


def _parsed(argv, parser=None):
    """The namespace argparse makes of ``argv``, or None when it rejects it."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars((parser or build_parser()).parse_args(argv))
        except SystemExit:
            return None


def _stock_parser():
    """``build_parser()`` with argparse's own negative-number pattern on each subcommand."""
    parser = build_parser()
    stock = argparse.ArgumentParser()._negative_number_matcher
    for sub in _subcommands(parser).values():
        sub._negative_number_matcher = stock
    return parser


# one command line per subcommand that names every numeric option once;
# "{}" stands for the value under test
NUMERIC_ARGV = {
    "--tol": ["check", "--measure", VAR03, "--axiom", "maxs", "--tol", "{}"],
    "--trials": ["check", "--measure", VAR03, "--axiom", "maxs", "--trials", "{}"],
    "--seed": ["check", "--measure", VAR03, "--axiom", "maxs", "--seed", "{}"],
    "--x-range": ["construct-psi", "--measure", VAR03, "--x-range", "{}", "{}",
                  "--x-step", "0.1", "--p-step", "0.5"],
    "--x-step": ["construct-psi", "--measure", VAR03, "--x-range", "0", "1",
                 "--x-step", "{}", "--p-step", "0.5"],
    "--p-step": ["construct-psi", "--measure", VAR03, "--x-range", "0", "1",
                 "--x-step", "0.5", "--p-step", "{}"],
    "--threshold": ["superlevel", "--kernel", VAR03, "--threshold", "{}", "--x-range", "0", "1"],
    "--resolution": ["superlevel", "--kernel", VAR03, "--threshold", "0", "--x-range", "0", "1",
                     "--resolution", "{}"],
}
NUMBER_TOKENS = ["-1e-1", "-1.5E+3", "-.5e2", "-2e0", "-1", "-.5", "-0.25", "1e-1", "-inf", "-1_0"]
# one accepted command line per subcommand, which the tails below extend
HEADS = [
    ["eval", "--measure", VAR03, "--dist", F3],
    ["lattice", "--dist", F3],
    ["check", "--measure", VAR03, "--axiom", "maxs"],
    ["construct-psi", "--measure", VAR03, "--x-range", "0", "1", "--x-step", "0.5",
     "--p-step", "0.5"],
    ["superlevel", "--kernel", VAR03, "--threshold", "0", "--x-range", "0", "1"],
]
STOCK_PARSER = _stock_parser()


def _reads_as_float(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


class TestNegativeNumbers:
    def test_every_numeric_option_is_covered(self):
        assert {f for f in NUMERIC_ARGV if f not in ("--trials", "--seed", "--resolution")} \
            == set(FLOAT_FLAGS)

    @pytest.mark.parametrize("token", NUMBER_TOKENS)
    @pytest.mark.parametrize("flag", sorted(NUMERIC_ARGV))
    def test_numeric_option_values(self, flag, token):
        argv = [token if a == "{}" else a for a in NUMERIC_ARGV[flag]]
        dest = flag[2:].replace("-", "_")
        got = _parsed(argv)
        if flag in FLOAT_FLAGS:
            # every number float() reads, exponent notation included
            want = float(token)
            assert got is not None
            assert got[dest] == (want if FLOAT_FLAGS[flag] == 1 else [want, want])
        else:
            # an integer option takes what int() reads, -1_0 included
            try:
                want = int(token)
            except ValueError:
                assert got is None
            else:
                assert got[dest] == want

    def test_negative_exponents_reach_the_commands(self, capsys):
        code = main(["construct-psi", "--measure", VAR03, "--x-range", "-1e-1", "1e-1",
                     "--x-step", "1e-1", "--p-step", "0.5", "--trials", "5"])
        assert code == 0
        grid = parse_psi_grid_obj(json.loads(capsys.readouterr().out.partition("\n")[2]))
        assert grid.x_grid == (-0.1, 0.0, 0.1)
        code = main(["superlevel", "--kernel", VAR03, "--threshold", "-1e-3",
                     "--x-range", "-1e-1", "1e-1", "--resolution", "3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "-0.1,none,false", "0.0,0.0,true", "0.1,0.0,true"]

    def test_a_float_like_token_is_a_value_of_any_option(self, tmp_path, monkeypatch, capsys):
        # stock argparse takes -1 as a value of a string option, and now
        # -1e-1 too: a kernel path of that name is read, and is missing
        monkeypatch.chdir(tmp_path)
        assert main(["superlevel", "--kernel", "-1e-1", "--threshold", "0",
                     "--x-range", "0", "1"]) == 2
        assert "error [NO_FILE]" in capsys.readouterr().err
        # and --out writes a file of that name
        assert main(["superlevel", "--kernel", VAR03, "--threshold", "0", "--x-range", "0", "1",
                     "--resolution", "3", "--out", "-1e-1"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "-1e-1").read_text().splitlines()[0] == "x,p_boundary,reachable"
        # an integer option takes what int() reads, as --seed 1_0 is 10
        assert main(["check", "--measure", VAR03, "--axiom", "maxs", "--trials", "10",
                     "--seed", "-1_0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "seed: -10"

    def test_abbreviations_resolve_as_argparse_resolves_them(self):
        head = ["superlevel", "--kernel", VAR03, "--x-range", "0", "1"]
        got = _parsed(head + ["--thresh", "-1e-3", "--x", "-1e-1", "2e0"])
        assert (got["threshold"], got["x_range"]) == (-1e-3, [-0.1, 2.0])
        # a prefix of two options is ambiguous to argparse
        assert _parsed(["construct-psi", "--measure", VAR03, "--x", "-1e-1", "1",
                        "--x-step", "0.5", "--p-step", "0.5"]) is None
        # an option of another subcommand is unknown
        assert _parsed(["check", "--measure", VAR03, "--axiom", "maxs", "--thresh", "-1e-3"]) is None

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(HEADS), st.lists(st.one_of(
        st.sampled_from(sorted(FLOAT_FLAGS) + [
            "--trials", "--seed", "--resolution", "--out", "--dist", "--kernel", "--measure",
            "--thresh", "--t", "--to", "--tr", "--x", "--x-r", "--re", "--di", "--ou",
            "--thr=-1e-3", "--dist=-1e-1", "--", "-x"]),
        st.sampled_from(NUMBER_TOKENS + ["0", "o.json", F3])), max_size=8))
    def test_every_argv_stock_argparse_accepts_parses_as_before(self, head, tail):
        argv = head + tail
        before = _parsed(argv, STOCK_PARSER)
        if before is not None:
            assert _parsed(fold_dist_flags(argv), fsdrisk.cli._PARSER) == before

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="-0123456789._eE+infatyINFATY١\t\n", max_size=10))
    def test_a_float_option_takes_exactly_the_tokens_float_reads(self, text):
        token = "-" + text
        # a string option shows what argparse reads as a value: those
        # tokens, and "-", which it never reads as an option
        out = _parsed(["superlevel", "--kernel", VAR03, "--threshold", "0", "--x-range", "0", "1",
                       "--out", token], fsdrisk.cli._PARSER)
        assert (out is not None) == (token == "-" or _reads_as_float(token))
        want = float(token) if _reads_as_float(token) else None
        for flag, takes in FLOAT_FLAGS.items():
            argv = [token if a == "{}" else a for a in NUMERIC_ARGV[flag]]
            got = _parsed(argv, fsdrisk.cli._PARSER)
            if want is None:
                assert got is None
                continue
            value = got[flag[2:].replace("-", "_")]
            for v in value if takes > 1 else [value]:
                assert math.isnan(v) if math.isnan(want) else v == want


class TestEvalOncePerSpec:
    def test_repeated_file_is_read_and_evaluated_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "f.json"
        path.write_text(F3)
        reads = []
        load = fsdrisk.cli.load_json_file
        monkeypatch.setattr(fsdrisk.cli, "load_json_file", lambda p: reads.append(p) or load(p))
        calls = []
        call = RiskMeasure.__call__
        monkeypatch.setattr(RiskMeasure, "__call__", lambda self, F: calls.append(F) or call(self, F))
        code = main(["eval", "--measure", VAR03, "--dist", str(path), "--dist", F2,
                     "--dist", str(path), "--dist", F2, f"--dist={path}"])
        assert code == 0
        assert capsys.readouterr().out == "1.0\n-1.5\n1.0\n-1.5\n1.0\n"
        assert reads == [str(path)]
        assert len(calls) == 2

    def test_bad_spec_is_reported_at_its_first_index(self, capsys):
        code = main(["eval", "--measure", VAR03, "--dist", F3, "--dist", UNIFORM,
                     "--dist", F3, "--dist", UNIFORM])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error [BAD_SCHEMA]: distribution 1:" in captured.err


class TestOneParser:
    def test_main_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        builds = []
        build = fsdrisk.cli.build_parser
        monkeypatch.setattr(fsdrisk.cli, "build_parser", lambda: builds.append(1) or build())
        gpath = tmp_path / "grid.json"
        assert main(["eval", "--measure", VAR03, "--dist", F3]) == 0
        assert main(["construct-psi", "--measure", VAR03, "--x-range", "-1", "1",
                     "--x-step", "0.5", "--p-step", "0.5", "--trials", "5",
                     "--out", str(gpath)]) == 0
        assert main(["superlevel", "--kernel", str(gpath), "--threshold", "0",
                     "--x-range", "-1", "1", "--resolution", "3"]) == 0
        for argv, code in ((["eval", "--measure", VAR03], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == code
        assert builds == []

    def test_no_state_carries_between_calls(self, tmp_path, capsys):
        opath = tmp_path / "result.json"
        assert main(["eval", "--measure", VAR03, "--dist", F3, "--dist", F2,
                     "--out", str(opath)]) == 0
        assert capsys.readouterr().out == "1.0\n-1.5\n"
        opath.unlink()
        assert main(["eval", "--measure", VAR03, "--dist", F2]) == 0
        assert capsys.readouterr().out == "-1.5\n"
        assert not opath.exists()


class TestLattice:
    def test_two_distributions_compare(self, capsys):
        code = main(["lattice", "--dist", '{"atoms": [{"x": 1.0, "p": 1.0}]}',
                     "--dist", '{"atoms": [{"x": 2.0, "p": 1.0}]}'])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["leq_fg"] is True
        assert obj["leq_gf"] is False
        assert obj["join"] == {"atoms": [{"p": 1.0, "x": 2.0}]}
        assert obj["meet"] == {"atoms": [{"p": 1.0, "x": 1.0}]}

    def test_one_distribution_decomposes(self, capsys):
        code = main(["lattice", "--dist", F3])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        parts = [parse_distribution_obj(p) for p in obj["decomposition"]]
        assert len(parts) == 2
        assert all(p.n_atoms <= 2 for p in parts)

    def test_three_distributions_rejected(self, capsys):
        code = main(["lattice", "--dist", F3, "--dist", F3, "--dist", F3])
        assert code == 2
        assert "one or two" in capsys.readouterr().err


class TestCheck:
    def test_passing_axiom_exits_zero(self, capsys):
        code = main(["check", "--measure", VAR03, "--axiom", "maxs", "--trials", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed: 12345" in out
        assert "verdict: pass" in out
        assert "violations: 0/200" in out

    def test_failing_axiom_exits_one_and_writes_report(self, tmp_path, capsys):
        rpath = tmp_path / "report.json"
        code = main(["check", "--measure", PINNED, "--axiom", "nd", "--out", str(rpath)])
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out
        report = json.loads(rpath.read_text())
        assert report["axiom"] == "nd"
        assert report["verdict"] == "fail"
        assert report["witness"]["type"] == "point"

    def test_limit_probe_uses_trials_as_cell_limit(self, capsys):
        # at alpha = 0.3 the 7-cell value sits above the 32-cell reference,
        # which is no violation: 7 cells do not refine into 32
        for alpha in ("0.5", "0.3"):
            code = main(["check", "--measure", f'{{"kind": "var", "alpha": {alpha}}}',
                         "--axiom", "ls", "--trials", "8"])
            assert code == 0
            out = capsys.readouterr().out
            assert "axiom: ls" in out
            assert "violations: 0/8" in out

    def test_limit_probe_refuses_a_limit_above_its_bound(self, capsys):
        # and one below 2; either is named as the option the user typed
        for trials, bound in (("4097", "at most 4096, got 4097"), ("1", "at least 2, got 1")):
            code = main(["check", "--measure", VAR03, "--axiom", "ls", "--trials", trials])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error [BAD_SCHEMA]: --trials for ls must be {bound}\n"

    def test_limit_of_overflowing_width_is_an_input_error(self, capsys):
        code = main(["check", "--measure", VAR03, "--axiom", "ls",
                     "--dist", '{"family": "uniform", "a": -1e308, "b": 1e308}'])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [BAD_SCHEMA]: uniform needs bounds a finite width apart, got -1e+308, 1e+308\n")

    @pytest.mark.parametrize("axiom", ["maxs", "mins", "nd", "fsd"])
    def test_dist_off_the_limit_probe_is_an_input_error(self, axiom, tmp_path, capsys):
        # refused before either file is read: neither exists
        missing = str(tmp_path / "missing.json")
        code = main(["check", "--measure", missing, "--axiom", axiom, "--dist", missing])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [BAD_SCHEMA]: --dist is read only by --axiom ls, not --axiom {axiom}\n"

    def test_nan_tolerance_is_an_input_error(self, capsys):
        code = main(["check", "--measure", VAR03, "--axiom", "maxs", "--trials", "10",
                     "--tol", "nan"])
        assert code == 2
        assert "tolerance must be finite" in capsys.readouterr().err

    def test_limit_probe_needs_a_continuous_distribution(self, capsys):
        code = main(["check", "--measure", VAR03, "--axiom", "ls", "--dist", F3])
        assert code == 2
        assert "continuous" in capsys.readouterr().err

    def test_limit_probe_reads_its_limit_from_a_single_dist(self, tmp_path, capsys):
        rpath = tmp_path / "report.json"
        limit = '{"family": "uniform", "a": 2.0, "b": 6.0}'
        code = main(["check", "--measure", VAR03, "--axiom", "ls", "--trials", "16",
                     "--dist", limit, "--out", str(rpath)])
        assert code == 0
        want = check_semicontinuity_probe(
            parse_measure_obj(json.loads(VAR03)), ContinuousCDF.uniform(2.0, 6.0), 16)
        assert rpath.read_text() == report_to_json(want)
        capsys.readouterr()
        code = main(["check", "--measure", VAR03, "--axiom", "ls", "--dist", limit, "--dist", UNIFORM])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes a single --dist" in captured.err


class TestConstructPsi:
    def test_grid_json_on_stdout(self, capsys):
        code = main(["construct-psi", "--measure", VAR03,
                     "--x-range", "0.0", "1.0", "--x-step", "0.5", "--p-step", "0.25",
                     "--trials", "10"])
        assert code == 0
        out = capsys.readouterr().out
        gate, _, body = out.partition("\n")
        assert gate == "stability gate: seed 413279, 10 trials"
        grid = parse_psi_grid_obj(json.loads(body))
        assert grid.x_grid == (0.0, 0.5, 1.0)
        assert grid.table[0][0] == 0.0

    def test_gate_rejection_exits_one(self, capsys):
        code = main(["construct-psi", "--measure", '{"kind": "expected_shortfall", "alpha": 0.5}',
                     "--x-range", "0.0", "1.0", "--x-step", "0.5", "--p-step", "0.25",
                     "--trials", "50"])
        assert code == 1
        assert "error [AXIOM]" in capsys.readouterr().err

    def test_ragged_range_is_an_input_error(self, capsys):
        code = main(["construct-psi", "--measure", VAR03,
                     "--x-range", "0.0", "1.0", "--x-step", "0.3", "--p-step", "0.25"])
        assert code == 2
        assert "not a whole number of steps" in capsys.readouterr().err

    def test_whole_range_at_a_large_magnitude_is_accepted(self, capsys):
        # lo + 223 * 0.05 misses hi by one ulp of 1e7, 1.86e-9
        code = main(["construct-psi", "--measure", VAR03, "--x-range", "10000009.55",
                     "10000020.70", "--x-step", "0.05", "--p-step", "0.5", "--trials", "0"])
        assert code == 0
        grid = parse_psi_grid_obj(json.loads(capsys.readouterr().out.partition("\n")[2]))
        assert len(grid.x_grid) == 224
        assert grid.x_grid[-1] == 10000020.70

    def test_input_error_leaves_stdout_empty(self, capsys):
        cases = [
            (["--x-range", "0", "1", "--x-step", "0.5", "--p-step", "0.25", "--trials", "-1"],
             "stability trials must be non-negative"),
            (["--x-range", "0", "1", "--x-step", "0", "--p-step", "0.25"],
             "x step must be positive"),
            (["--x-range", "0", "1", "--x-step", "0.5", "--p-step", "-0.25"],
             "p step must be positive"),
            (["--x-range", "1", "0", "--x-step", "0.5", "--p-step", "0.25"],
             "x range needs lo < hi"),
            (["--x-range", "1", "1", "--x-step", "0.5", "--p-step", "0.25"],
             "x range needs lo < hi"),
            (["--x-range", "0", "inf", "--x-step", "0.5", "--p-step", "0.25"],
             "x range must be finite"),
            # digits written out, and in exponent notation
            (["--x-range", f"-1{'0' * 308}", f"1{'0' * 308}", "--x-step", f"1{'0' * 308}",
              "--p-step", "0.25"], "spans no finite number of steps"),
            (["--x-range", "-1e308", "1e308", "--x-step", "1e308", "--p-step", "0.25"],
             "spans no finite number of steps"),
            (["--x-range", "0", "1", "--x-step", "5e-324", "--p-step", "0.25"],
             "spans no finite number of steps"),
            # a whole number of steps, but 10**300 of them: refused before any list is built
            (["--x-range", "0", "1", "--x-step", "1e-300", "--p-step", "0.25"],
             "gives more than 1000000 grid nodes"),
            (["--x-range", "0", "1", "--x-step", "0.5", "--p-step", "1e-300"],
             "gives more than 1000000 grid nodes"),
        ]
        for args, message in cases:
            code = main(["construct-psi", "--measure", VAR03, *args])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


class TestSuperlevel:
    def test_csv_on_stdout(self, capsys):
        code = main(["superlevel", "--kernel", '{"kind": "var", "alpha": 0.3}',
                     "--threshold", "0.0", "--x-range", "-1.0", "1.0",
                     "--resolution", "11"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,p_boundary,reachable"
        assert lines[1] == "-1.0,none,false"
        assert lines[-1] == "1.0,0.2,true"

    def test_pipeline_from_constructed_grid(self, tmp_path, capsys):
        gpath = tmp_path / "grid.json"
        code = main(["construct-psi", "--measure", VAR03,
                     "--x-range", "-1.0", "1.0", "--x-step", "0.5", "--p-step", "0.1",
                     "--trials", "10", "--out", str(gpath)])
        assert code == 0
        capsys.readouterr()
        # the saved grid object doubles as a kernel input downstream
        code = main(["superlevel", "--kernel", str(gpath),
                     "--threshold", "0.0", "--x-range", "-1.0", "1.0",
                     "--resolution", "5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,p_boundary,reachable"
        assert len(lines) == 6

    def test_nan_threshold_is_an_input_error(self, capsys):
        code = main(["superlevel", "--kernel", VAR03, "--threshold", "nan",
                     "--x-range", "-1.0", "1.0"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error [BAD_SCHEMA]: threshold must not be NaN" in out.err

    def test_resolution_above_the_cap_is_an_input_error(self, capsys):
        # refused before any sample list is built, so this does not allocate
        code = main(["superlevel", "--kernel", VAR03, "--threshold", "0.0",
                     "--x-range", "-1.0", "1.0", "--resolution", "1000000000000"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error [BAD_SCHEMA]: resolution must be from 2 to 1000000" in out.err

    def test_x_range_of_overflowing_width_is_an_input_error(self, capsys):
        code = main(["superlevel", "--kernel", VAR03, "--threshold", "0",
                     "--x-range", "-1e308", "1e308", "--resolution", "3"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error [BAD_SCHEMA]: x range must have a finite width, got (-1e+308, 1e+308)\n"

    @pytest.mark.parametrize("x_grid", [[0.0, "inf"], ["-inf", 0.0], [0.0, 1e999]])
    def test_non_finite_grid_axis_is_an_input_error(self, x_grid, tmp_path, capsys):
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(
            {"x_grid": x_grid, "p_grid": [0.0, 1.0], "table": [[0.0, "-inf"], [1.0, "-inf"]]}))
        code = main(["superlevel", "--kernel", str(gpath), "--threshold", "0.0",
                     "--x-range", "-1.0", "1.0"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error [BAD_SCHEMA]: kernel grid: x-grid nodes must be finite" in out.err


class TestErrorReporting:
    @pytest.mark.parametrize(
        "dist,code_word",
        [
            ("/nonexistent/d.json", "NO_FILE"),
            ("{oops", "BAD_JSON"),
            ('{"atoms": [{"x": 0.0, "p": 0.4}]}', "MASS_SUM"),
        ],
    )
    def test_input_errors_exit_two(self, dist, code_word, capsys):
        code = main(["eval", "--measure", VAR03, "--dist", dist])
        assert code == 2
        assert f"error [{code_word}]:" in capsys.readouterr().err

    @pytest.mark.parametrize("by_file", [False, True], ids=["inline", "file"])
    @pytest.mark.parametrize("where", ["dist", "measure", "kernel"])
    @pytest.mark.parametrize("depth", [3_000, 100_000])
    def test_deep_nesting_is_an_input_error(self, depth, where, by_file, tmp_path, capsys):
        deep = "[" * depth + "]" * depth
        text = '{"atoms": %s}' % deep if where == "dist" else '{"kind": "var", "alpha": %s}' % deep
        spec = text
        if by_file:
            spec = str(tmp_path / "deep.json")
            (tmp_path / "deep.json").write_text(text)
        argv = {
            "dist": ["eval", "--measure", VAR03, "--dist", spec],
            "measure": ["eval", "--measure", spec, "--dist", F3],
            "kernel": ["superlevel", "--kernel", spec, "--threshold", "0.0",
                       "--x-range", "-1.0", "1.0"],
        }[where]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # json runs out of depth past a limit that depends on the
        # interpreter (3.13.0 reads 3,000 levels); nesting it does read
        # is refused by the schema checks
        word = "BAD_SCHEMA" if _json_reads(text) else "BAD_JSON"
        assert captured.err.startswith(f"error [{word}]: ")
        if word == "BAD_JSON":
            assert captured.err == "error [BAD_JSON]: JSON nests too deeply to read\n"

    @pytest.mark.parametrize("command", ["eval", "superlevel"])
    def test_a_file_that_is_not_utf8_is_bad_json(self, command, tmp_path, capsys):
        path = tmp_path / "spec.json"
        # a UTF-16 byte order mark and text: JSON files are UTF-8
        path.write_bytes(b"\xff\xfe" + F3.encode("utf-16-le"))
        argv = {
            "eval": ["eval", "--measure", VAR03, "--dist", str(path)],
            "superlevel": ["superlevel", "--kernel", str(path), "--threshold", "0.0",
                           "--x-range", "-1.0", "1.0"],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error [BAD_JSON]: {path} is not UTF-8 text: ")
        assert "INTERNAL" not in captured.err

    @pytest.mark.parametrize("where", ["dist", "measure", "kernel"])
    def test_an_integer_past_the_float_range_is_bad_schema(self, where, capsys):
        big = "1" + "0" * 400
        argv = {
            "dist": ["eval", "--measure", VAR03, "--dist", '{"atoms": [{"x": %s, "p": 1.0}]}' % big],
            "measure": ["eval", "--measure", '{"kind": "var", "alpha": %s}' % big, "--dist", F3],
            "kernel": ["superlevel", "--kernel", '{"kind": "var", "alpha": %s}' % big,
                       "--threshold", "0.0", "--x-range", "-1.0", "1.0"],
        }[where]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        entry = "atom 0 x" if where == "dist" else "var alpha"
        assert captured.err == f"error [BAD_SCHEMA]: {entry}: integer too large for a float\n"

    def test_an_integer_too_long_to_read_is_bad_json(self, capsys):
        code = main(["eval", "--measure", VAR03,
                     "--dist", '{"atoms": [{"x": %s, "p": 1.0}]}' % ("1" * 5001)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # json reads integers up to Python's digit limit, where one is set;
        # an integer it does read overflows the float range instead
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < 5001:
            assert captured.err.startswith("error [BAD_JSON]: unreadable JSON number: ")
        else:
            assert captured.err.startswith("error [BAD_SCHEMA]: atom 0 x: integer too large")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--measure", VAR03, "--dist", F3],
            ["construct-psi", "--measure", VAR03, "--x-range", "0", "1", "--x-step", "0.5",
             "--p-step", "0.5", "--trials", "0"],
            ["check", "--measure", VAR03, "--axiom", "nd"],
        ],
        ids=["eval", "construct-psi", "check"],
    )
    def test_unwritable_out_is_an_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        code = main([*argv, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert f"error [NO_FILE]: cannot write {out}: " in err
        assert "INTERNAL" not in err

    def test_a_rejected_run_leaves_out_alone(self, tmp_path, capsys):
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_text("earlier run")
        for out in (kept, absent):
            code = main(["construct-psi", "--measure", SHORTFALL, "--x-range", "0", "1",
                         "--x-step", "0.5", "--p-step", "0.5", "--trials", "50",
                         "--out", str(out)])
            assert code == 1
            assert "error [AXIOM]" in capsys.readouterr().err
        assert kept.read_text() == "earlier run"
        assert not absent.exists()

    def test_a_fault_in_the_program_is_not_an_input_error(self, monkeypatch, capsys):
        def broken_join(f, g):
            raise ValueError("injected fault")

        monkeypatch.setattr(fsdrisk.cli, "fsd_join", broken_join)
        code = main(["lattice", "--dist", F3, F2])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "in broken_join" in captured.err
        assert captured.err.endswith("\nerror [INTERNAL]: ValueError: injected fault\n")


def _json_reads(text):
    """Whether this interpreter's json reads ``text`` without running out of depth."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


LAM3 = (
    '{"kind": "lambda", "Lambda": {"breakpoints": [-2.0, 2.0],'
    ' "values": [0.8, 0.5, 0.2], "direction": "dec"}}'
)
GRID_ARGS = ["--x-range", "-2", "2", "--x-step", "0.25", "--p-step", "0.05"]
README_GRID = ["--x-range", "-5", "5", "--x-step", "0.05", "--p-step", "0.01"]
SHORTFALL = '{"kind": "expected_shortfall", "alpha": 0.5}'
F2 = '{"atoms": [{"x": -1.5, "p": 0.6}, {"x": 2.5, "p": 0.4}]}'

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()

# argv, exit code, SHA-256 of stdout, SHA-256 of the --out file (None:
# no --out); "{grid}" stands for a var(0.3) table built on GRID_ARGS
GOLDEN = {
    "construct_var": (
        ["construct-psi", "--measure", VAR03, *GRID_ARGS], 0,
        "e08c784463591ec61723c053047bca889374c6bb55e30b8f1eeb0fba0e7e5e7f", None),
    "construct_lam3": (
        ["construct-psi", "--measure", LAM3, *GRID_ARGS], 0,
        "dc89cf92269e97c7f01ad44fd65eebf507b2142b810b7220bb1799411708a56f", None),
    # the README grid's tables, as the README and CI build them; stdout
    # holds only the gate line
    "construct_var_readme": (
        ["construct-psi", "--measure", VAR03, *README_GRID], 0,
        "832dfb85d768631be5acdf222fb0f2e134eb116b033728ad253afd970bfe9890",
        "98dc9e22075773a47e9955d8e36caac3d18e9e576474f2abd8c2e5e140fcd303"),
    "construct_lam3_readme": (
        ["construct-psi", "--measure", LAM3, *README_GRID], 0,
        "832dfb85d768631be5acdf222fb0f2e134eb116b033728ad253afd970bfe9890",
        "35534bd423f779de30dd12dd9a25e2c1b68ed68eae274db640206501ff7eef72"),
    "check_pair_witness": (
        ["check", "--measure", SHORTFALL, "--axiom", "maxs", "--trials", "200"], 1,
        "e4a28e898fab25a864cbc2ca75090188d5b58f2c7db78bf24f030a94332aa4bc",
        "6a8a9d90c287b4da9bd0a9d1d6fb59ebdeccefb2afed01c3ec2bbae8cedf522a"),
    "check_point_witness": (
        ["check", "--measure", PINNED, "--axiom", "nd"], 1,
        "c93af59a6e76c9e44162083611294a5b3a10bdde1714a414291a808d6ac4c756",
        "236deeaba26327fde204df8f97422d35690e78a9a784d68c86a62aafbe4ddf5b"),
    "check_probe_witness": (
        ["check", "--measure", VAR03, "--axiom", "ls", "--trials", "300"], 0,
        "8b59e591d6898127383a8814c6607636032f3ef6905be5729a0bb38913819a9e",
        "dc162e98179237ffe645952da13c07ee12d8d6994e691c0dff0dd0f05465b587"),
    "superlevel_var_grid": (
        ["superlevel", "--kernel", "{grid}", "--threshold", "0.0",
         "--x-range", "-2", "2", "--resolution", "41"], 0,
        "c7722372cac2d9a11094d8a491a23231eb0cf95e6617a57eeb3cd7847a00a583", None),
    "eval": (
        ["eval", "--measure", LAM3, "--dist", F3, "--dist", F2], 0,
        "b480393bdaeb4d3c3b80e3863a5e83c58fb044ccc99f70c0ba208754d507c1cc",
        "fa0bef05a7fce3f8a9b494e55f94461f1b48d930b3a1d1e9574163eb6b38056b"),
    # argparse reads "--dist=--" as no value at all: an input error with
    # nothing on stdout, not an empty run or the default limit
    "eval_empty_dist": (["eval", "--measure", VAR03, "--dist=--"], 2, EMPTY_SHA256, None),
    "check_empty_dist": (["check", "--measure", VAR03, "--axiom", "ls", "--dist=--"], 2,
                         EMPTY_SHA256, None),
    "lattice_empty_dist": (["lattice", "--dist=--"], 2, EMPTY_SHA256, None),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(name, tmp_path, capsys):
    """Command line output is a file format: its bytes must not drift."""
    argv, want_code, want_out, want_file = GOLDEN[name]
    if "{grid}" in argv:
        gpath = tmp_path / "grid.json"
        assert main(["construct-psi", "--measure", VAR03, *GRID_ARGS, "--out", str(gpath)]) == 0
        capsys.readouterr()
        argv = [str(gpath) if a == "{grid}" else a for a in argv]
    opath = tmp_path / "out.json"
    if want_file is not None:
        argv = [*argv, "--out", str(opath)]
    assert main(argv) == want_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want_out
    if want_file is not None:
        assert hashlib.sha256(opath.read_bytes()).hexdigest() == want_file


def test_probe_witness_json_bytes():
    # a stated limit below the 0.3 quantile: every cell count that reaches
    # past it is a real violation, and the witness is the worst of them
    report = check_semicontinuity_probe(
        var_measure(0.3), ContinuousCDF.uniform(0.0, 1.0), 300, rho_limit=0.29)
    assert report.violations == 245
    assert report.witness.n == 297
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == "7e8e0617749a37c6ef9c9106e707ead6ba108436fa2cce189407041ff3d26cea"
