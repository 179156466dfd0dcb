"""File formats: JSON objects, error codes, CSV region dumps."""

import io
import math

import pytest

from fsdrisk.dist import ContinuousCDF, DiscreteDist
from fsdrisk.engine import PsiGrid, construct_psi
from fsdrisk.harness import SamplerConfig, check_max_stability
from fsdrisk.jsonio import (
    InputError,
    csv_num,
    distribution_to_obj,
    dump_json,
    dump_num,
    kernel_to_obj,
    load_json_file,
    measure_to_obj,
    parse_distribution_file,
    parse_distribution_obj,
    parse_json_text,
    parse_kernel_obj,
    parse_measure_obj,
    parse_num,
    parse_psi_grid_obj,
    parse_step_obj,
    psi_grid_to_obj,
    report_to_obj,
    save_distribution_file,
    step_to_obj,
    superlevel_rows,
    write_superlevel_csv,
)
from fsdrisk.kernels import GridKernel, VarKernel
from fsdrisk.measures import FAMILIES, expected_shortfall_measure, var_measure
from fsdrisk.steps import DEC, MonotoneStep

INF = math.inf

# parameters for every entry of the family table, in its order
FAMILY_PARAMS = {
    "var": (0.3,),
    "benchmark_loss": (MonotoneStep((0.25, 0.5), (-1.0, 0.0, 2.0), at_one=INF),),
    "lambda": (MonotoneStep((1.0,), (0.8, 0.4), direction=DEC),),
    "pinned": (0.5, MonotoneStep((0.5,), (3.0, -1.0), direction=DEC)),
    "expected_shortfall": (0.5,),
}


def atoms(*pairs):
    return DiscreteDist.from_atoms(list(pairs))


class TestNumbers:
    def test_infinity_sentinels(self):
        assert dump_num(INF) == "inf"
        assert dump_num(-INF) == "-inf"
        assert dump_num(1.5) == 1.5
        assert parse_num("inf", "t") == INF
        assert parse_num("+inf", "t") == INF
        assert parse_num("-inf", "t") == -INF

    def test_nan_rejected_with_its_own_code(self):
        with pytest.raises(InputError) as e:
            parse_num(math.nan, "t")
        assert e.value.code == "NAN_VALUE"
        with pytest.raises(InputError) as e:
            parse_num("nan", "t")
        assert e.value.code == "NAN_VALUE"

    def test_booleans_are_not_numbers(self):
        with pytest.raises(InputError) as e:
            parse_num(True, "t")
        assert e.value.code == "BAD_SCHEMA"

    def test_error_string_carries_the_code(self):
        err = InputError("NO_FILE", "missing")
        assert str(err) == "[NO_FILE] missing"


class TestJsonPlumbing:
    def test_bad_json_code(self):
        with pytest.raises(InputError) as e:
            parse_json_text("{not json")
        assert e.value.code == "BAD_JSON"

    def test_missing_file_code(self, tmp_path):
        with pytest.raises(InputError) as e:
            load_json_file(tmp_path / "nope.json")
        assert e.value.code == "NO_FILE"

    def test_dump_json_is_stable(self):
        text = dump_json({"b": 1, "a": [2, 3]})
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


class TestDistributionFormat:
    def test_atom_round_trip(self):
        d = atoms((-1.5, 0.25), (2.0, 0.75))
        assert parse_distribution_obj(distribution_to_obj(d)) == d

    def test_uniform_round_trip(self):
        u = ContinuousCDF.uniform(-1.0, 3.0)
        back = parse_distribution_obj(distribution_to_obj(u))
        assert isinstance(back, ContinuousCDF)
        assert back.support == (-1.0, 3.0)

    def test_file_round_trip(self, tmp_path):
        d = atoms((0.0, 0.5), (1.0, 0.5))
        path = tmp_path / "dist.json"
        save_distribution_file(d, path)
        assert parse_distribution_file(path) == d

    @pytest.mark.parametrize(
        "obj,code",
        [
            ([1, 2], "BAD_SCHEMA"),
            ({"atoms": []}, "BAD_SCHEMA"),
            ({"atoms": [{"x": 0.0}]}, "BAD_SCHEMA"),
            ({"atoms": [{"x": "inf", "p": 1.0}]}, "BAD_SCHEMA"),
            ({"atoms": [{"x": 0.0, "p": 0.0}]}, "BAD_SCHEMA"),
            ({"atoms": [{"x": 0.0, "p": 0.4}, {"x": 1.0, "p": 0.4}]}, "MASS_SUM"),
            ({"atoms": [{"x": 0.0, "p": "nan"}]}, "NAN_VALUE"),
            ({"family": "uniform", "a": 2.0, "b": 1.0}, "BAD_SCHEMA"),
            ({"family": "beta", "a": 1.0, "b": 2.0}, "BAD_SCHEMA"),
        ],
    )
    def test_rejections(self, obj, code):
        with pytest.raises(InputError) as e:
            parse_distribution_obj(obj)
        assert e.value.code == code


class TestStepAndKernelFormat:
    def test_step_round_trip(self):
        s = MonotoneStep((0.5,), (0.0, 1.0), at_one=INF)
        assert parse_step_obj(step_to_obj(s)) == s
        lam = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)
        assert parse_step_obj(step_to_obj(lam)) == lam

    def test_step_validation_becomes_bad_schema(self):
        with pytest.raises(InputError) as e:
            parse_step_obj({"breakpoints": [0.0], "values": [1.0]})
        assert e.value.code == "BAD_SCHEMA"

    def test_named_kernel_round_trips(self):
        assert FAMILY_PARAMS.keys() == FAMILIES.keys()
        for kind, family in FAMILIES.items():
            obj = measure_to_obj(family.measure(*FAMILY_PARAMS[kind]))
            if family.kernel is None:
                with pytest.raises(InputError) as e:
                    parse_kernel_obj(obj)
                assert e.value.code == "BAD_SCHEMA"
                continue
            k = family.kernel(*FAMILY_PARAMS[kind])
            assert kernel_to_obj(k) == obj
            assert parse_kernel_obj(obj) == k

    def test_bare_grid_object_is_a_grid_kernel(self):
        k = GridKernel((0.0, 1.0), (0.0, 1.0), ((0.0, -INF), (1.0, -INF)))
        obj = kernel_to_obj(k)
        assert "kind" not in obj
        back = parse_kernel_obj(obj)
        assert isinstance(back, GridKernel)
        assert back.table == k.table

    def test_unknown_kind(self):
        with pytest.raises(InputError) as e:
            parse_kernel_obj({"kind": "cauchy"})
        assert e.value.code == "BAD_SCHEMA"


class TestMeasureFormat:
    def test_round_trips(self):
        assert FAMILY_PARAMS.keys() == FAMILIES.keys()
        F = atoms((-1.0, 0.2), (0.5, 0.3), (2.0, 0.5))
        for kind, family in FAMILIES.items():
            m = family.measure(*FAMILY_PARAMS[kind])
            obj = measure_to_obj(m)
            assert obj["kind"] == kind
            back = parse_measure_obj(obj)
            assert back == m
            assert back(F) == m(F)
            assert measure_to_obj(back) == obj

    def test_benchmark_needs_divergence(self):
        obj = {"kind": "benchmark_loss", "h": {"breakpoints": [], "values": [0.0]}}
        with pytest.raises(InputError) as e:
            parse_measure_obj(obj)
        assert e.value.code == "BAD_SCHEMA"


class TestPsiGridFormat:
    def test_round_trip(self):
        psi = construct_psi(
            var_measure(0.3).fn,
            [0.0, 0.5, 1.0],
            [0.0, 0.25, 0.5, 1.0],
            stability_trials=10,
        )
        back = parse_psi_grid_obj(psi_grid_to_obj(psi))
        assert back == psi

    def test_defaults_fill_in(self):
        obj = {
            "x_grid": [0.0, 1.0],
            "p_grid": [0.0, 1.0],
            "table": [[0.0, "-inf"], [1.0, "-inf"]],
        }
        grid = parse_psi_grid_obj(obj)
        assert isinstance(grid, PsiGrid)
        assert grid.y_max == 2.0  # one grid span past the right edge
        assert grid.tol == 1e-9


class TestReportFormat:
    def test_pair_report_round_trip_fields(self):
        es = expected_shortfall_measure(0.5)
        rep = check_max_stability(es.fn, SamplerConfig(seed=99, trials=300))
        obj = report_to_obj(rep)
        assert obj["axiom"] == "maxs"
        assert obj["seed"] == 99
        assert obj["violations"] == 108
        assert obj["verdict"] == "fail"
        assert obj["witness"]["type"] == "pair"
        assert "tail_gap" not in obj


class TestSuperlevel:
    def test_var_kernel_boundary_sits_one_step_under_the_level(self):
        rows = superlevel_rows(VarKernel(0.3), 0.0, (-1.0, 1.0), resolution=11)
        for x, boundary, reachable in rows:
            if x < 0.0:
                assert boundary is None and not reachable
            else:
                # p sampled in tenths: the largest level under 0.3 is 0.2
                assert reachable and boundary == 0.2

    def test_csv_shape(self):
        rows = superlevel_rows(VarKernel(0.3), 0.0, (-1.0, 1.0), resolution=3)
        out = io.StringIO()
        write_superlevel_csv(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "x,p_boundary,reachable"
        assert lines[1] == "-1.0,none,false"
        assert lines[3] == "1.0,0.0,true"
        assert out.getvalue().endswith("\n")

    def test_csv_numbers(self):
        assert csv_num(INF) == "inf"
        assert csv_num(-INF) == "-inf"
        assert csv_num(0.1) == "0.1"

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            superlevel_rows(VarKernel(0.3), 0.0, (1.0, 1.0))
        with pytest.raises(ValueError):
            superlevel_rows(VarKernel(0.3), 0.0, (0.0, 1.0), resolution=1)
