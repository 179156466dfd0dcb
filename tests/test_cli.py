"""End-to-end runs of the console entry point via main(argv)."""

import hashlib
import json

import pytest

from fsdrisk.cli import main
from fsdrisk.jsonio import parse_distribution_obj, parse_psi_grid_obj

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

    def test_continuous_distribution_is_refused(self, capsys):
        code = main(["eval", "--measure", VAR03, "--dist", '{"family": "uniform", "a": 0.0, "b": 1.0}'])
        assert code == 2
        assert "error [BAD_SCHEMA]: distribution 0" in capsys.readouterr().err


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
        # the median is exact on every dyadic refinement; off-median levels
        # can overshoot the finite reference at non-dyadic cell counts
        code = main(["check", "--measure", '{"kind": "var", "alpha": 0.5}',
                     "--axiom", "ls", "--trials", "8"])
        assert code == 0
        assert "axiom: ls" in capsys.readouterr().out

    def test_nan_tolerance_is_an_input_error(self, capsys):
        code = main(["check", "--measure", VAR03, "--axiom", "maxs", "--trials", "10",
                     "--tol", "nan"])
        assert code == 2
        assert "tolerance must be finite" in capsys.readouterr().err

    def test_limit_probe_needs_a_continuous_distribution(self, capsys):
        code = main(["check", "--measure", VAR03, "--axiom", "ls", "--dist", F3])
        assert code == 2
        assert "continuous" in capsys.readouterr().err


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

    def test_input_error_leaves_stdout_empty(self, capsys):
        code = main(["construct-psi", "--measure", VAR03,
                     "--x-range", "0", "1", "--x-step", "0.5", "--p-step", "0.25",
                     "--trials", "-1"])
        assert code == 2
        assert capsys.readouterr().out == ""


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


LAM3 = (
    '{"kind": "lambda", "Lambda": {"breakpoints": [-2.0, 2.0],'
    ' "values": [0.8, 0.5, 0.2], "direction": "dec"}}'
)
GRID_ARGS = ["--x-range", "-2", "2", "--x-step", "0.25", "--p-step", "0.05"]
SHORTFALL = '{"kind": "expected_shortfall", "alpha": 0.5}'
F2 = '{"atoms": [{"x": -1.5, "p": 0.6}, {"x": 2.5, "p": 0.4}]}'

# argv, exit code, SHA-256 of stdout, SHA-256 of the --out file (None:
# no --out); "{grid}" stands for a var(0.3) table built on GRID_ARGS
GOLDEN = {
    "construct_var": (
        ["construct-psi", "--measure", VAR03, *GRID_ARGS], 0,
        "e08c784463591ec61723c053047bca889374c6bb55e30b8f1eeb0fba0e7e5e7f", None),
    "construct_lam3": (
        ["construct-psi", "--measure", LAM3, *GRID_ARGS], 0,
        "dc89cf92269e97c7f01ad44fd65eebf507b2142b810b7220bb1799411708a56f", None),
    "check_pair_witness": (
        ["check", "--measure", SHORTFALL, "--axiom", "maxs", "--trials", "200"], 1,
        "e4a28e898fab25a864cbc2ca75090188d5b58f2c7db78bf24f030a94332aa4bc",
        "6a8a9d90c287b4da9bd0a9d1d6fb59ebdeccefb2afed01c3ec2bbae8cedf522a"),
    "check_point_witness": (
        ["check", "--measure", PINNED, "--axiom", "nd"], 1,
        "c93af59a6e76c9e44162083611294a5b3a10bdde1714a414291a808d6ac4c756",
        "236deeaba26327fde204df8f97422d35690e78a9a784d68c86a62aafbe4ddf5b"),
    "check_probe_witness": (
        ["check", "--measure", VAR03, "--axiom", "ls", "--trials", "300"], 1,
        "ad499661224b5886ed9070dc943795e7054b2ec517b62fc7ca3597b75b6d9e5c",
        "2a92ec78aa6dc22fba1a871532aeaec4f16ca50af0482cd0abb52f90cc9fc3ad"),
    "superlevel_var_grid": (
        ["superlevel", "--kernel", "{grid}", "--threshold", "0.0",
         "--x-range", "-2", "2", "--resolution", "41"], 0,
        "c7722372cac2d9a11094d8a491a23231eb0cf95e6617a57eeb3cd7847a00a583", None),
    "eval": (
        ["eval", "--measure", LAM3, "--dist", F3, "--dist", F2], 0,
        "b480393bdaeb4d3c3b80e3863a5e83c58fb044ccc99f70c0ba208754d507c1cc",
        "fa0bef05a7fce3f8a9b494e55f94461f1b48d930b3a1d1e9574163eb6b38056b"),
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
