"""The CLI's output writers against their references: the JSON writer
against ``json.dumps(indent=2, sort_keys=True)``, the CSV/OBJ row templates
against a per-field ``%.17g`` join, and the shared parser against state
leaking from one ``main`` call into the next."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darboux
from darboux import cli
from darboux import trace as _trace


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# JSON

_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1]),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS,
    _FLOATS.map(np.float64),            # AxisEstimate.as_dict's "d" elements
    st.text(),                          # non-ASCII included: written as \u escapes
)


def _containers(children):
    return st.one_of(st.lists(children, max_size=6),
                     st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(st.text(), children, max_size=5))


_PAYLOADS = st.recursive(_SCALARS, _containers, max_leaves=40)
_SCALAR_LISTS = st.one_of(st.lists(_FLOATS, min_size=1), st.lists(st.booleans(), min_size=1),
                          st.lists(_SCALARS, min_size=1))


@st.composite
def _payloads_sharing_a_list(draw):
    """A payload holding one list object three times, two at the same depth
    (as the report's s column) and one deeper."""
    shared = draw(_SCALAR_LISTS)
    payload = draw(st.dictionaries(st.text(), _PAYLOADS, max_size=4))
    payload["é one"] = {"s": shared, "values": draw(_SCALAR_LISTS)}
    payload["é two"] = {"s": shared, "deeper": {"s": shared}}
    return payload


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_json_matches_json_dumps(payload):
    assert cli._json(payload) == _dumps(payload)


@settings(max_examples=100, deadline=None)
@given(payload=_payloads_sharing_a_list())
def test_json_matches_json_dumps_with_a_shared_list(payload):
    assert cli._json(payload) == _dumps(payload)


@pytest.mark.parametrize("payload", [
    {1: "a", 2.5: "b", 3: None},
    {True: 1, False: 2},
    {None: [1.0, math.nan]},
    {math.inf: "x", -1.5: "y"},
], ids=["int-and-float-keys", "bool-keys", "none-key", "inf-key"])
def test_json_non_string_keys_as_json_dumps(payload):
    assert cli._json(payload) == _dumps(payload)


@pytest.mark.parametrize("value", [
    np.int64(1), np.bool_(True), np.array([1.0]), {1, 2}, object(), b"bytes",
], ids=["np.int64", "np.bool_", "ndarray", "set", "object", "bytes"])
@pytest.mark.parametrize("where", ["value", "list", "nested"])
def test_json_rejects_what_json_dumps_rejects(value, where):
    payload = {"value": {"a": value},
               "list": {"a": [1.0, value]},
               "nested": {"a": [[0.5], {"b": [True, value]}]}}[where]
    with pytest.raises(TypeError):
        _dumps(payload)
    with pytest.raises(TypeError):
        cli._json(payload)


def test_json_of_a_classify_report():
    curve = cli.build_curve(darboux.cylinder(1.0), "param:u=s;v=0.9*s")
    report = darboux.classify_report(curve, cli._grid(curve, 40)).as_dict()
    s = report["series"]["kg"]["s"]
    assert all(series["s"] is s for series in report["series"].values())
    assert cli._json(report) == _dumps(report)


# ---------------------------------------------------------------------------
# CSV and OBJ


def _reference_csv(columns: str, rows) -> str:
    """The header, then each row's fields through %.17g, None empty."""
    lines = [columns]
    lines += [",".join(["" if x is None else "%.17g" % x for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


def _reference_trace_rows(result):
    """TRACE_COLUMNS rows field by field, u and v None off a chart."""
    chart = result.chart.tolist() if result.chart is not None else [(None, None)] * result.n
    columns = zip(result.s.tolist(), result.points.tolist(), chart, result.tangents.tolist(),
                  result.kg.tolist(), result.kn.tolist(), result.tg.tolist(),
                  result.angle_dot.tolist(), result.constraint_residual.tolist(),
                  result.unit_speed_residual.tolist())
    return [[s, *p, *uv, *t, *rest] for s, p, uv, t, *rest in columns]


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
            0.1, -1e-17]


@pytest.mark.parametrize("implicit", [False, True], ids=["chart", "implicit"])
def test_csv_template_matches_per_field_join(implicit):
    width = len(cli.TRACE_COLUMNS.split(",")) - (2 if implicit else 0)
    rng = np.random.default_rng(7)
    table = rng.standard_normal((9, width)) * 10.0 ** rng.integers(-20, 20, (9, width))
    table[:, 1] = _SPECIAL
    blank = ("u", "v") if implicit else ()
    rows = table.tolist()
    if implicit:
        for row in rows:
            row[4:4] = (None, None)
    assert cli._csv(cli.TRACE_COLUMNS, table, blank) == _reference_csv(cli.TRACE_COLUMNS, rows)


def test_csv_of_no_rows_is_the_header():
    assert cli._csv(cli.FRAMES_COLUMNS, np.empty((0, 16))) == cli.FRAMES_COLUMNS + "\n"


def _traced(surface, guess, length=0.3):
    config = _trace.TraceConfig(step=1e-2, max_length=length)
    d, phi = np.array([0.0, 0.0, 1.0]), math.radians(60.0)
    return _trace.trace_isophote(surface, d, phi,
                                 _trace.snap_seed(surface, d, phi, guess, config), config)


@pytest.mark.parametrize("implicit", [False, True], ids=["chart", "implicit"])
def test_trace_writers_match_per_field_references(implicit):
    surface = darboux.implicit_torus(2.0, 0.5) if implicit else darboux.torus(2.0, 0.5)
    result = _traced(surface, (2.5, 0.0, 0.1) if implicit else (0.0, 0.5))
    rows = _reference_trace_rows(result)
    assert all((row[4] is None) == implicit for row in rows)
    assert cli.trace_csv(result) == _reference_csv(cli.TRACE_COLUMNS, rows)
    assert cli.trace_json(result, surface.name) == _dumps({
        "kind": "trace", "surface": surface.name, "axis": result.d.tolist(),
        "angle_deg": math.degrees(result.phi), "termination": result.termination,
        "columns": cli.TRACE_COLUMNS.split(","), "samples": rows})
    vertices = ["v %.17g %.17g %.17g" % tuple(p) for p in result.points.tolist()]
    indices = list(range(1, result.n + 1)) + ([1] if result.closed else [])
    assert cli.trace_obj(result) == "\n".join(
        vertices + ["l " + " ".join(map(str, indices))]) + "\n"


def test_frames_csv_matches_per_field_reference():
    curve = cli.build_curve(darboux.torus(2.0, 0.5), "param:u=s;v=2*s")
    grid = cli._grid(curve, 12)
    data = darboux.sample_frames(curve, grid)
    rows = [[s, *p, *T, *V, *U, kg, kn, tg] for s, p, T, V, U, kg, kn, tg in zip(
        data.s.tolist(), data.gamma.tolist(), data.T.tolist(), data.V.tolist(),
        data.U.tolist(), data.kg.tolist(), data.kn.tolist(), data.tg.tolist())]
    assert cli.frames_csv(curve, grid) == _reference_csv(cli.FRAMES_COLUMNS, rows)
    assert cli.frames_json(curve, grid) == _dumps(
        {"kind": "frames", "columns": cli.FRAMES_COLUMNS.split(","), "samples": rows})


# ---------------------------------------------------------------------------
# One parser per process

_FRAMES = ["frames", "--surface", "builtin:cylinder?r=1", "--curve", "param:u=s;v=s",
           "--samples", "4"]
_TRACE = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1", "--angle", "45",
          "--seed", "0,0.785398", "--length", "0.05", "--step", "0.01"]


def test_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_format_does_not_carry_over(capsys):
    assert cli.main(_FRAMES + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "frames"
    assert cli.main(_FRAMES) == 0
    assert capsys.readouterr().out.startswith(cli.FRAMES_COLUMNS + "\n")


def test_family_does_not_carry_over(tmp_path):
    family = tmp_path / "family.csv"
    assert cli.main(_TRACE + ["--family", "40:50:2", "--out", str(family)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family_deg40.csv", "family_deg50.csv"]
    assert cli.make_parser().parse_args(_TRACE).family is None
    single = tmp_path / "single.csv"
    assert cli.main(_TRACE + ["--out", str(single)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "family_deg40.csv", "family_deg50.csv", "single.csv"]
