"""File formats: JSON objects, error codes, CSV region dumps."""

import dataclasses
import hashlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fsdrisk.dist import ContinuousCDF, DiscreteDist
from fsdrisk.engine import PsiGrid, construct_psi
from fsdrisk.harness import SamplerConfig, check_max_stability
from fsdrisk.jsonio import (
    MAX_GRID_NODES,
    InputError,
    _grid_to_obj,
    csv_num,
    distribution_to_obj,
    dump_json,
    dump_num,
    load_json_file,
    measure_to_obj,
    parse_distribution_obj,
    parse_json_text,
    parse_kernel_obj,
    parse_measure_obj,
    parse_num,
    parse_psi_grid_obj,
    parse_step_obj,
    psi_grid_to_obj,
    report_to_obj,
    step_to_obj,
    superlevel_rows,
    write_superlevel_csv,
)
from fsdrisk.kernels import GridKernel, VarKernel
from fsdrisk.measures import (
    FAMILIES,
    affine_benchmark,
    benchmark_loss_measure,
    expected_shortfall_measure,
    var_measure,
)
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


# what dump_json is handed: floats at the edges of repr and json's own
# spellings, the infinity sentinels, strings holding the ", " the list
# separator is, in lists, tuples and dicts at any depth
JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, math.inf, -math.inf, math.nan]),
    st.floats(),
)
JSON_STRINGS = st.one_of(
    st.sampled_from(["inf", "-inf", ", ", "a, b", ",", '"', '", "', "\\", "\n", "é", "\u2603", ""]),
    st.text(),
)
JSON_SCALARS = st.one_of(JSON_FLOATS, JSON_STRINGS, st.integers(), st.booleans(), st.none())
# lists of a few drawn cells, each repeated 1 to 40 times, as a step
# kernel's table rows are: zeros of both signs are equal but print apart,
# and NaN equals nothing
JSON_RUNS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, "inf", "-inf", "a, b"]),
            JSON_FLOATS,
        ),
        st.integers(1, 40),
    ),
    min_size=1,
    max_size=6,
).map(lambda runs: [cell for cell, k in runs for _ in range(k)])
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(st.one_of(JSON_FLOATS, st.sampled_from(["inf", "-inf"]))),
        JSON_RUNS,
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(JSON_STRINGS, children),
        st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False)), children),
    ),
    max_leaves=20,
)


class TestJsonPlumbing:
    def test_bad_json_code(self):
        with pytest.raises(InputError) as e:
            parse_json_text("{not json")
        assert e.value.code == "BAD_JSON"

    def test_json_too_deep_to_read_is_bad_json(self):
        # deeper than json reads on any supported interpreter
        with pytest.raises(InputError) as e:
            parse_json_text("[" * 100_000 + "]" * 100_000)
        assert (e.value.code, e.value.message) == ("BAD_JSON", "JSON nests too deeply to read")

    def test_a_file_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes('{"note": "\u00e9\u20ac", "x": 1.5}'.encode("utf-8"))
        assert load_json_file(path) == {"note": "\u00e9\u20ac", "x": 1.5}
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InputError) as e:
            load_json_file(path)
        assert e.value.code == "BAD_JSON"
        assert e.value.message.startswith(f"{path} is not UTF-8 text: ")

    def test_missing_file_code(self, tmp_path):
        with pytest.raises(InputError) as e:
            load_json_file(tmp_path / "nope.json")
        assert e.value.code == "NO_FILE"

    def test_dump_json_is_stable(self):
        text = dump_json({"b": 1, "a": [2, 3]})
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    @example({"table": [[1.0, "-inf"], ["inf", -0.0]], "x_grid": (5e-324, 1e16), "tol": 1e-7})
    @example([["inf", ", "], [", ", "-inf"], [math.nan, -math.inf, math.inf]])
    @example([0.0, -0.0])
    @example([-0.0] * 5 + [0.0] * 5)
    @example(["a, b"] * 6)
    @example([math.nan] * 6)
    # lists of 8 and 9 cells with two changes between neighbours: runs of
    # equal cells are written once only in a PsiGrid's rows, and a generic
    # list is one json call whatever its runs
    @example([1.0] * 3 + [2.0] * 3 + ["inf"] * 2)
    @example([1.0] * 3 + [2.0] * 3 + ["inf"] * 3)
    def test_dump_json_is_the_indented_json_dump(self, obj):
        assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestDistributionFormat:
    def test_atom_round_trip(self):
        d = atoms((-1.5, 0.25), (2.0, 0.75))
        assert parse_distribution_obj(distribution_to_obj(d)) == d

    def test_uniform_object_is_read(self):
        back = parse_distribution_obj({"family": "uniform", "a": -1.0, "b": 3.0})
        assert isinstance(back, ContinuousCDF)
        assert back.support == (-1.0, 3.0)

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
            # finite bounds whose width b - a overflows
            ({"family": "uniform", "a": -1e308, "b": 1e308}, "BAD_SCHEMA"),
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
    "int_past_float_range_x": ([{"x": 10**400, "p": 1.0}], "BAD_SCHEMA",
                               "atom 0 x: integer too large for a float"),
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

    def test_merge_rounding_outside_still_builds(self):
        # the reverse case: the input's own sum, 1 + 9.9987e-13, is inside
        # the band, though adding the two masses at x = 0 first rounds it out
        raw = [{"x": 0.0, "p": 0.5507295311759609}, {"x": 0.0, "p": 0.11491506018575802},
               {"x": 1.0, "p": 0.33435540863928104}]
        d = parse_distribution_obj({"atoms": raw})
        assert d.xs == (0.0, 1.0)
        assert d == DiscreteDist.from_atoms((a["x"], a["p"]) for a in raw)

    def test_int_values_are_accepted(self):
        d = parse_distribution_obj({"atoms": [{"x": 1, "p": 0.5}, {"x": 2.5, "p": 0.5}]})
        assert d == atoms((1.0, 0.5), (2.5, 0.5))
        assert type(d.xs[0]) is float
        assert parse_distribution_obj({"atoms": [{"x": 1, "p": 1}]}) == atoms((1.0, 1.0))


# spellings of a value as a grid file may hold it; None means not spellable
SPELLINGS = [
    lambda v: v,
    lambda v: int(v) if math.isfinite(v) and v == int(v) else None,
    lambda v: {INF: "inf", -INF: "-inf"}.get(v),
    lambda v: {INF: " INF ", -INF: "-INF"}.get(v),
    lambda v: {INF: "+inf", -INF: " -inf"}.get(v),
]
BAD_ENTRIES = [math.nan, "nan", " NaN ", True, False, None, [1.0], {"v": 1.0}, "1.0", "infinity"]


@st.composite
def spelled_grids(draw):
    """A valid grid object, entries in mixed spellings, at times one bad entry."""
    value = st.one_of(st.floats(-4.0, 4.0), st.integers(-4, 4).map(float), st.just(INF))
    n_x, n_p = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    xg = sorted(set(draw(st.lists(st.integers(-9, 9), min_size=n_x, max_size=n_x))))
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    pg = [0.0, *sorted(set(draw(st.lists(inner, max_size=n_p - 2)))), 1.0]
    table = [sorted(draw(st.lists(value, min_size=len(pg) - 1, max_size=len(pg) - 1)),
                    reverse=True) + [-INF] for _ in xg]

    def spell(v):
        forms = [f(v) for f in SPELLINGS]
        return draw(st.sampled_from([f for f in forms if f is not None]))

    obj = {"x_grid": [spell(float(x)) for x in xg], "p_grid": [spell(p) for p in pg],
           "table": [[spell(v) for v in row] for row in table]}
    if draw(st.booleans()):
        key = draw(st.sampled_from(["x_grid", "p_grid", "table"]))
        entries = obj[key] if key != "table" else draw(st.sampled_from(obj["table"]))
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    return obj


def _outcome(parse, obj):
    try:
        grid = parse(obj)
    except InputError as exc:
        return exc.code, exc.message
    return repr((grid.x_grid, grid.p_grid, grid.table))


@given(spelled_grids())
@settings(max_examples=300, deadline=None)
def test_grid_read_equals_entry_by_entry(obj):
    """Reading a grid gives what parse_num on each entry, in file order, gives."""
    try:
        plain = {
            "x_grid": [parse_num(v, f"x_grid[{j}]") for j, v in enumerate(obj["x_grid"])],
            "p_grid": [parse_num(v, f"p_grid[{j}]") for j, v in enumerate(obj["p_grid"])],
            "table": [[parse_num(v, f"table[{i}][{j}]") for j, v in enumerate(row)]
                      for i, row in enumerate(obj["table"])],
        }
    except InputError as exc:
        want = exc.code, exc.message
        assert _outcome(parse_kernel_obj, obj) == want
        return
    assert _outcome(parse_kernel_obj, obj) == _outcome(parse_kernel_obj, plain)
    assert type(_outcome(parse_kernel_obj, plain)) is str  # the drawn grid is valid


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
            # a kernel object is its measure's object
            assert parse_kernel_obj(obj) == family.kernel(*FAMILY_PARAMS[kind])

    def test_bare_grid_object_is_a_grid_kernel(self):
        k = GridKernel((0.0, 1.0), (0.0, 1.0), ((0.0, -INF), (1.0, -INF)))
        obj = {"x_grid": [0.0, 1.0], "p_grid": [0.0, 1.0], "table": [[0.0, "-inf"], [1.0, "-inf"]]}
        assert _grid_to_obj(k) == obj
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


BAD_GRID_ENTRIES = [
    ("table", 0, 1, "nan", "NAN_VALUE", "table[0][1]: NaN is not a usable value"),
    ("table", 1, 0, math.nan, "NAN_VALUE", "table[1][0]: NaN is not a usable value"),
    ("table", 1, 1, True, "BAD_SCHEMA", "table[1][1]: expected a number, got True"),
    ("table", 0, 0, [1.0], "BAD_SCHEMA", "table[0][0]: expected a number, got [1.0]"),
    ("table", 0, 0, "1.0", "BAD_SCHEMA", "table[0][0]: expected a number, got '1.0'"),
    ("table", 1, 0, 10**400, "BAD_SCHEMA", "table[1][0]: integer too large for a float"),
    ("x_grid", None, 1, math.nan, "NAN_VALUE", "x_grid[1]: NaN is not a usable value"),
    ("p_grid", None, 0, False, "BAD_SCHEMA", "p_grid[0]: expected a number, got False"),
    ("x_grid", None, 1, "inf", "BAD_SCHEMA", "kernel grid: x-grid nodes must be finite"),
    ("x_grid", None, 0, "-inf", "BAD_SCHEMA", "kernel grid: x-grid nodes must be finite"),
    ("table", 1, 0, 0.0, "BAD_SCHEMA",
     "kernel grid: value row at p = 0 must be strictly increasing; "
     "the measure does not separate point masses"),
]


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
        # the grid is a kernel: less the search settings, the file reads as one
        del obj["y_max"], obj["tol"]
        kernel = parse_kernel_obj(obj)
        assert type(kernel) is GridKernel
        assert (kernel.x_grid, kernel.p_grid, kernel.table) == (psi.x_grid, psi.p_grid, psi.table)

    def test_affine_readme_table_keeps_its_digest(self):
        # the README grid's affine benchmark table, whose rows hold no run;
        # a callable curve has no JSON form, so it is written through the
        # library as construct-psi writes the var and LAM3 tables
        psi = construct_psi(
            benchmark_loss_measure(affine_benchmark(2.0)),
            [-5.0 + k * 0.05 for k in range(200)] + [5.0],
            [k * 0.01 for k in range(100)] + [1.0],
        )
        digest = hashlib.sha256(dump_json(psi_grid_to_obj(psi)).encode()).hexdigest()
        assert digest == "2ea3741d7c6f060823dea5b4b2bdf92cc074897e1bcdde0ed845fdd57a330693"

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
        # each case edits one entry of a valid grid: key, row (None for an
        # axis), column, the new value, and the code and message it must give
        for key, i, j, value, code, message in BAD_GRID_ENTRIES:
            obj = {"x_grid": [0.0, 1.0], "p_grid": [0.0, 1.0], "table": [[0.0, "-inf"], [1.0, "-inf"]]}
            (obj[key] if i is None else obj[key][i])[j] = value
            with pytest.raises(InputError) as e:
                parse_psi_grid_obj(obj)
            assert (e.value.code, e.value.message) == (code, message)
            if "value row" not in message:
                # the kernel form reads grids the same way
                with pytest.raises(InputError) as e:
                    parse_kernel_obj(obj)
                assert (e.value.code, e.value.message) == (code, message)

    def test_mixed_spellings_parse_as_entry_by_entry(self):
        text = """{"x_grid": [-1, 0.5, 2, 3.5], "p_grid": [0, 0.5, 1], "table": [
            [1, "-inf", -Infinity],
            [2.5, 2, " -INF "],
            [3.0, 0.5, "-inf"],
            [" INF ", Infinity, "-INF"]]}"""
        obj = parse_json_text(text)
        want = tuple(
            tuple(parse_num(v, "entry") for v in obj[key])
            for key in ("x_grid", "p_grid")
        ) + (tuple(tuple(parse_num(v, "entry") for v in row) for row in obj["table"]),)
        for grid in (parse_psi_grid_obj(obj), parse_kernel_obj(obj)):
            assert repr((grid.x_grid, grid.p_grid, grid.table)) == repr(want)

    @pytest.mark.parametrize("cls", [GridKernel, PsiGrid])
    def test_grid_object_equals_dump_num_per_cell(self, cls):
        # every float the format can hold at the edges: signed zeros, the
        # smallest subnormal, the largest finite floats and both infinities
        big, tiny = 1.7976931348623157e308, 5e-324
        xg = (-big, -0.0, tiny, big)
        pg = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0)
        # rows fall along p and the p = 0 column rises strictly, as a
        # PsiGrid needs
        table = (
            (-big, -big, -INF, -INF, -INF, -INF, -INF, -INF),
            (-0.0, -0.0, 0.0, -0.0, -tiny, -big, -INF, -INF),
            (big, big, tiny, 0.0, -0.0, -tiny, -big, -INF),
            (INF, INF, big, tiny, 0.0, -0.0, -INF, -INF),
        )
        grid = cls(xg, pg, table)
        want = {
            "x_grid": [dump_num(v) for v in grid.x_grid],
            "p_grid": [dump_num(v) for v in grid.p_grid],
            "table": [[dump_num(v) for v in row] for row in grid.table],
        }
        assert repr(_grid_to_obj(grid)) == repr(want)
        assert dump_json(_grid_to_obj(grid)) == json.dumps(want, sort_keys=True, indent=2) + "\n"

    def test_psi_grid_declares_only_grid_fields(self):
        assert dataclasses.fields(PsiGrid) == dataclasses.fields(GridKernel)


BIG = 1.7976931348623157e308
# grid values at the edges of repr: zeros of both signs, the smallest
# subnormals, 1e16 (where repr turns to exponent notation) and the
# infinities; the largest floats put y_max past the float range
GRID_XS = st.one_of(
    st.sampled_from([-BIG, -1e16, -1.0, -0.0, 5e-324, 1e16, BIG]),
    st.floats(allow_nan=False, allow_infinity=False),
)
GRID_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 0.5, INF, -INF]),
    st.floats(allow_nan=False),
)


@st.composite
def psi_grid_rows(draw, n_p):
    """A row of ``n_p`` cells falling along p to -inf: drawn values, each
    repeated 1 to 40 times, so a row has long runs or none, and zeros of
    both signs sit inside a run or between two."""
    values = draw(st.lists(GRID_CELLS, min_size=1, max_size=12))
    counts = draw(st.lists(st.integers(1, 40), min_size=len(values), max_size=len(values)))
    # sorting keeps equal values in drawn order, so 0.0 and -0.0 mix
    cells = [v for v, k in zip(sorted(values, reverse=True), counts) for _ in range(k)]
    return tuple((cells + [-INF] * n_p)[: n_p - 1] + [-INF])


@st.composite
def written_grids(draw):
    """A PsiGrid with rows of up to 48 cells and its p = 0 column rising."""
    xg = sorted(set(draw(st.lists(GRID_XS, min_size=1, max_size=4))))
    n_p = draw(st.integers(2, 48))
    pg = [k / (n_p - 1) for k in range(n_p)]
    rows = draw(st.lists(psi_grid_rows(n_p), min_size=len(xg), max_size=len(xg), unique_by=lambda r: r[0]))
    return PsiGrid(tuple(xg), tuple(pg), tuple(sorted(rows)))


@settings(max_examples=300, deadline=None)
@given(written_grids())
# mixed zeros cell by cell, then a run of 1e16 and a +inf prefix as runs;
# y_max overflows
@example(PsiGrid((-0.0, 1e16, BIG), tuple(k / 8 for k in range(9)), (
    (-0.0, 0.0, -0.0, -5e-324, -5e-324, -1e16, -INF, -INF, -INF),
    (1e16,) * 6 + (-INF,) * 3,
    (INF,) * 5 + (-INF,) * 4,
)))
def test_a_psi_grid_is_written_as_its_object(grid):
    obj = psi_grid_to_obj(grid)
    assert dump_json(grid) == dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
        with pytest.raises(ValueError, match="resolution must be from 2 to 1000000"):
            superlevel_rows(VarKernel(0.3), 0.0, (0.0, 1.0), resolution=MAX_GRID_NODES + 1)
        # no level meets a NaN threshold, so it could only ever give None
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            superlevel_rows(VarKernel(0.3), math.nan, (0.0, 1.0))
        # finite ends whose width hi - lo overflows would sample NaN and inf
        with pytest.raises(ValueError, match="x range must have a finite width"):
            superlevel_rows(VarKernel(0.3), 0.0, (-1e308, 1e308), resolution=3)
