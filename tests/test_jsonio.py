"""File formats: JSON objects, error codes, CSV region dumps."""

import dataclasses
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

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


# (atoms, code, message): each rejection as the full per-atom checks word it
BAD_ATOMS = {
    "non_dict_atom": ([[0.0, 1.0]], "BAD_SCHEMA", "atom 0 must be an object with keys x and p"),
    "missing_p": ([{"x": 0.0}], "BAD_SCHEMA", "atom 0 must be an object with keys x and p"),
    "bool_x": ([{"x": True, "p": 1.0}], "BAD_SCHEMA", "atom 0 x: expected a number, got True"),
    "nan_string_p": ([{"x": 0.0, "p": "nan"}], "NAN_VALUE", "atom 0 p: NaN is not a usable value"),
    "nan_literal_p": ([{"x": 0.0, "p": math.nan}], "NAN_VALUE",
                      "atom 0 p: NaN is not a usable value"),
    "inf_x": ([{"x": "inf", "p": 1.0}], "BAD_SCHEMA", "atom 0: position must be finite, got inf"),
    "zero_p": ([{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0}], "BAD_SCHEMA",
               "atom 1: mass must lie in (0, 1], got 0.0"),
    "zero_float_p": ([{"x": 0.0, "p": 0.0}], "BAD_SCHEMA",
                     "atom 0: mass must lie in (0, 1], got 0.0"),
    "infinity_literal_x": ([{"x": math.inf, "p": 1.0}], "BAD_SCHEMA",
                           "atom 0: position must be finite, got inf"),
    "p_above_one": ([{"x": 0.0, "p": 1.5}], "BAD_SCHEMA",
                    "atom 0: mass must lie in (0, 1], got 1.5"),
    "mass_sum": ([{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.3}], "MASS_SUM",
                 "atom masses sum to 0.8, need 1 within 1e-12"),
    "merged_mass_sum": ([{"x": 0.0, "p": 0.5}, {"x": 0.0, "p": 0.3}], "MASS_SUM",
                        "atom masses sum to 0.8, need 1 within 1e-12"),
    # the input's masses sum just outside 1 +/- MASS_TOL, but adding the two
    # masses at x = 0 first rounds their sum back inside
    "merge_rounds_inside": (
        [{"x": 0.0, "p": 0.5703623392490841}, {"x": 0.0, "p": 0.1806549452551956},
         {"x": 1.0, "p": 0.24898271549472029}],
        "MASS_SUM", "atom masses sum to 0.9999999999989999, need 1 within 1e-12"),
}


class TestOnePassAtomParse:
    @pytest.mark.parametrize("name", sorted(BAD_ATOMS))
    def test_each_rejection_keeps_its_code_and_message(self, name):
        raw, code, message = BAD_ATOMS[name]
        with pytest.raises(InputError) as e:
            parse_distribution_obj({"atoms": raw})
        assert (e.value.code, e.value.message) == (code, message)

    def test_merge_rounding_outside_is_the_constructor_error(self):
        # the reverse case: the input's sum is inside, the merged one is not;
        # from_atoms rejects it with its own message
        raw = [{"x": 0.0, "p": 0.5507295311759609}, {"x": 0.0, "p": 0.11491506018575802},
               {"x": 1.0, "p": 0.33435540863928104}]
        with pytest.raises(ValueError, match=r"outside 1 \+/- 1e-12") as e:
            parse_distribution_obj({"atoms": raw})
        assert not isinstance(e.value, InputError)

    def test_int_values_are_accepted(self):
        d = parse_distribution_obj({"atoms": [{"x": 1, "p": 0.5}, {"x": 2.5, "p": 0.5}]})
        assert d == atoms((1.0, 0.5), (2.5, 0.5))
        assert type(d.xs[0]) is float
        assert parse_distribution_obj({"atoms": [{"x": 1, "p": 1}]}) == atoms((1.0, 1.0))


def _bits(values):
    return [v.hex() for v in values]


@st.composite
def atom_pairs(draw):
    """Atoms with masses summing to 1 up to rounding, some x repeated."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=n))
    xs = [draw(st.sampled_from(pool)) for _ in range(n)]
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    return [(x, w / total) for x, w in zip(xs, weights)]


@settings(max_examples=300, deadline=None)
@given(atom_pairs(), st.booleans())
def test_parse_equals_from_atoms_bit_for_bit(pairs, int_xs):
    if int_xs:  # integral x take the full checks instead of the float fast path
        pairs = [(int(x), p) for x, p in pairs]
    obj = {"atoms": [{"x": x, "p": p} for x, p in pairs]}
    try:
        want = DiscreteDist.from_atoms(pairs)
    except ValueError:
        with pytest.raises(ValueError):
            parse_distribution_obj(obj)
        return
    got = parse_distribution_obj(obj)
    assert _bits(got.xs) == _bits(want.xs)
    assert _bits(got.cum) == _bits(want.cum)


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
        obj = psi_grid_to_obj(psi)
        back = parse_psi_grid_obj(obj)
        assert back == psi
        # the grid is a kernel: its kernel form is the grid form less the search settings
        del obj["y_max"], obj["tol"]
        assert kernel_to_obj(psi) == obj

    def test_defaults_fill_in(self):
        obj = {
            "x_grid": [0.0, 1.0],
            "p_grid": [0.0, 1.0],
            "table": [[0.0, "-inf"], [1.0, "-inf"]],
        }
        # a file's own y_max and tol are ignored, "inf" included
        for extra in ({}, {"y_max": 100, "tol": "inf"}):
            grid = parse_psi_grid_obj({**obj, **extra})
            assert isinstance(grid, PsiGrid)
            # one grid span past the right edge, and the fixed tolerance
            assert psi_grid_to_obj(grid) == {**obj, "y_max": 2.0, "tol": 1e-9}

    def test_bad_grid_files_keep_their_codes(self):
        obj = {"x_grid": [0.0, 1.0], "p_grid": [0.0, 1.0], "table": [[0.0, "nan"], [1.0, "-inf"]]}
        with pytest.raises(InputError) as e:
            parse_psi_grid_obj(obj)
        assert e.value.code == "NAN_VALUE"
        obj["table"] = [[1.0, "-inf"], [1.0, "-inf"]]
        with pytest.raises(InputError, match="kernel grid: value row at p = 0") as e:
            parse_psi_grid_obj(obj)
        assert e.value.code == "BAD_SCHEMA"

    def test_psi_grid_declares_only_grid_fields(self):
        assert dataclasses.fields(PsiGrid) == dataclasses.fields(GridKernel)


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
