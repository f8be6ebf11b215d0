import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from divergia import cli
from divergia.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cantor_json(capsys):
    code, out, _ = run(capsys, "cantor", "--theta", "1/2", "--levels", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == "1/4"
    assert doc["levels"]["level_1"]["components"] == [["1/8", "3/8"],
                                                     ["5/8", "7/8"]]


def test_cantor_csv(capsys):
    code, out, _ = run(capsys, "cantor", "--theta", "1/2", "--levels", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,a,b"
    assert "level_1,1/8,3/8" in lines


def test_csv_rows_built_only_for_csv(capsys, monkeypatch):
    # the table is written through csv.writer, and only under --format csv
    import csv
    built = []
    writer = csv.writer
    monkeypatch.setattr(csv, "writer",
                        lambda buf: built.append(1) or writer(buf))
    argv = ["cantor", "--theta", "1/2", "--levels", "2"]
    assert run(capsys, *argv)[0] == 0 and not built
    assert run(capsys, *argv, "--format", "csv")[0] == 0 and built == [1]


def test_cantor_uniform(capsys):
    code, out, _ = run(capsys, "cantor", "--theta", "1/2", "--levels", "0",
                       "--uniform")
    doc = json.loads(out)
    assert doc["levels"]["level_0"]["components"] == [["1/6", "5/6"]]


def test_backend_flag_forces_floats(capsys):
    code, out, _ = run(capsys, "cantor", "--theta", "0.5", "--levels", "1",
                       "--backend", "float")
    doc = json.loads(out)
    (a, b), _ = doc["levels"]["level_1"]["components"]
    assert isinstance(a, float) and a == pytest.approx(0.125)


def test_backend_env_var(capsys, monkeypatch):
    monkeypatch.setenv("DIVERGIA_BACKEND", "float")
    code, out, _ = run(capsys, "cantor", "--theta", "1/2", "--levels", "1")
    doc = json.loads(out)
    assert doc["backend"] == "float"
    assert isinstance(doc["levels"]["level_1"]["components"][0][0], float)


def test_jarnik_csv(capsys):
    code, out, _ = run(capsys, "jarnik", "--theta", "1/2", "--n", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x,y"


def test_liouville_json(capsys):
    code, out, _ = run(capsys, "liouville", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "liouville"
    assert doc["family"].startswith("liouville")


def test_liouville_document_is_float(capsys, piecewise_linear_schema):
    code, out, _ = run(capsys, "liouville", "--n", "8")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate({"knots": doc["knots"]}, piecewise_linear_schema)
    # no exact "p/q" string among the float knots and cuts
    assert all(type(v) is float for knot in doc["knots"] for v in knot)
    assert all(type(v) is float
               for row in doc["subinterval_integrals"] for v in row)


def test_check_reports_rows(capsys):
    code, out, _ = run(capsys, "check", "--family", "liouville",
                       "--M", "5", "--N", "20")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 10
    assert all(r["reached_at"] is not None for r in doc["rows"])


def test_check_cantor_tietze_certifies(capsys):
    code, out, _ = run(capsys, "check", "--family", "cantor-tietze",
                       "--theta", "1/2", "--M", "10", "--N", "20")
    assert code == 0
    doc = json.loads(out)
    assert any(r["certified_not_reached"] for r in doc["rows"])


def test_iset_csv(capsys):
    code, out, _ = run(capsys, "iset", "--family", "liouville",
                       "--M", "5", "--N", "10", "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "x,value,flagged"
    assert any(r.endswith(",1") for r in rows)


def test_anydh_passes(capsys):
    code, out, _ = run(capsys, "anydh", "--theta", "1/2",
                       "--M", "3", "--N", "15")
    assert code == 0
    doc = json.loads(out)
    assert doc["monotone"] is True


def test_dim_moran(capsys):
    code, out, _ = run(capsys, "dim", "--moran", "1/4,1/4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == pytest.approx(0.5, abs=1e-9)


def test_dim_box_counting_from_file(capsys, tmp_path):
    from fractions import Fraction

    from divergia import CantorParams, cantor_nest
    A = cantor_nest(CantorParams(Fraction(1, 2))).level(8)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(A.to_json()))
    code, out, _ = run(capsys, "dim", "--input", str(path),
                       "--scales", "1/16,1/32,1/64,1/128,1/256")
    assert code == 0
    doc = json.loads(out)
    assert 0.4 < doc["estimate"] < 0.6


def test_dim_reads_int_and_decimal_ends(capsys, tmp_path):
    # plain ints and decimal strings read as the p/q ends they equal
    from fractions import Fraction

    from divergia import IntervalUnion
    docs = [{"domain": [0, 1], "components": [["0.25", "1/2"]]},
            IntervalUnion((0, 1), [(Fraction(1, 4), Fraction(1, 2))])
            .to_json()]
    outs = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"set{k}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dim", "--input", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_dim_one_distinct_scale_is_a_parameter_error(capsys, tmp_path):
    from fractions import Fraction

    from divergia import CantorParams, cantor_nest
    A = cantor_nest(CantorParams(Fraction(1, 2))).level(4)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(A.to_json()))
    code, out, err = run(capsys, "dim", "--input", str(path),
                         "--scales", "1/4,1/4,1/4,1/4")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parameter"


def test_dim_requires_source(capsys):
    code, out, err = run(capsys, "dim")
    assert code == 2
    assert json.loads(err)["error"] == "parameter"


def _schema_parts(doc, schema):
    """The parts of a CLI document that ``schema`` describes."""
    if schema == "interval_union":
        return list(doc["levels"].values())
    if schema == "piecewise_linear":
        return [{"knots": doc["knots"]}]
    return [doc]


# the `dim --moran` and `qam` documents are scalar echoes with no schema
@pytest.mark.parametrize("argv, schema", [
    ("cantor --theta 1/2 --levels 3", "interval_union"),
    ("cantor --theta 0.4 --backend float --levels 3", "interval_union"),
    ("jarnik --theta 1/2 --n 4", "piecewise_linear"),
    ("liouville --n 4", "piecewise_linear"),
    ("check --family cantor-tietze --theta 1/2 --M 3 --N 6",
     "max_family_report"),
    ("check --family jarnik --theta 1/2 --M 3 --N 6", "max_family_report"),
    ("check --family liouville --M 3 --N 6", "max_family_report"),
    ("check --family anydh --theta 1/2 --M 3 --N 6", "max_family_report"),
    ("anydh --theta 1/3 --M 3 --N 6", "max_family_report"),
    ("iset --family cantor-tietze --theta 1/2 --M 3 --N 6",
     "divergence_estimate"),
    ("dim --input {set} --scales 1/16,1/32,1/64,1/128",
     "dimension_estimate"),
])
def test_document_conforms_to_schema(capsys, tmp_path, schemas, argv,
                                     schema):
    from fractions import Fraction

    from divergia import CantorParams, cantor_nest
    path = tmp_path / "set.json"
    path.write_text(json.dumps(
        cantor_nest(CantorParams(Fraction(1, 2))).level(6).to_json()))
    code, out, _ = run(capsys, *argv.format(set=path).split())
    assert code == 0
    for part in _schema_parts(json.loads(out), schema):
        jsonschema.validate(part, schemas[schema])


def test_qam_mean(capsys):
    # the kind is case-insensitive, and a power generator in any case gets
    # its power_mean
    for gen in ("power:1", "POWER:1"):
        code, out, _ = run(capsys, "qam", "mean", "--gen", gen,
                           "--tuple", "1,2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["mean"] == pytest.approx(2.0)
        assert doc["power_mean"] == pytest.approx(2.0)


def test_qam_maximal(capsys):
    code, out, _ = run(capsys, "qam", "maximal", "--N", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["qa_maximal_indicator"] is True


def test_qam_compare(capsys):
    code, out, _ = run(capsys, "qam", "compare", "--first", "power:1",
                       "--second", "power:2", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "<="
    # the grid's interval and the tuples' seed are echoed
    assert doc["domain"] == [1.0, 2.0] and doc["seed"] == 5


def test_parameter_error_exit_code(capsys):
    code, out, err = run(capsys, "cantor", "--theta", "2")
    assert code == 2
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("argv", [
    "check --family jarnik --theta 1/2 --N 200 --q-max 20",
    "anydh --theta 1/2 --N 60",
    "jarnik --theta 3/10 --n 37",
    # the pointwise path of iset reads the same float radii
    "iset --family jarnik --theta 3/10 --N 40",
    "iset --family liouville --N 200 --q-max 500",
])
def test_index_past_the_family_is_a_parameter_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("argv", [
    "check --family cantor-tietze --theta 1/2 --M inf",
    "check --family liouville --M 0",
    "anydh --theta 1/2 --M -1",
    "anydh --theta 1/2 --M nan --N 8",
    "iset --family cantor-tietze --theta 1/2 --M inf --N 5",
    "iset --family liouville --M nan --N 5",
])
def test_threshold_must_be_finite_and_positive(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("argv, message", [
    # liouville takes no theta: a given one is refused, not dropped
    ("check --family liouville --theta 7 --N 3",
     "liouville family takes no --theta"),
    ("iset --family liouville --theta 1/2 --N 3",
     "liouville family takes no --theta"),
    # dim --moran has no table to write
    ("dim --moran 1/4,1/3 --format csv",
     "--format csv: this dim document has no table"),
])
def test_unused_parameter_is_a_parameter_error(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out
    assert json.loads(err) == {"error": "parameter", "message": message}


def test_bad_number_exit_code(capsys):
    code, out, err = run(capsys, "cantor", "--theta", "abc")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "cantor --theta abc --backend float",
    "cantor --theta 1/0",
    "dim --moran abc",
    "qam mean --gen power:x --tuple 1,2",
    "qam mean --gen power:1 --tuple 1,abc",
    "qam mean --gen cosh --tuple 1,2",
    "qam compare --first power:1 --second power:2 --domain 1",
    "qam compare --first power:1 --second power:2 --domain 1,2,3",
])
def test_malformed_number_is_a_parameter_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("argv", [
    "jarnik --n 3",
    "jarnik --theta 1/2 --liouville",
    "liouville --backend float",
    "dim --moran 1/4,1/4 --backend float",
    "qam maximal --backend float",
    # exp:n is the one family, so there is no --family
    "qam maximal --family exp:n",
])
def test_usage_error_exits_with_code_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "cantor", "--theta", "1/2", "--levels", "1",
                     "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["command"] == "cantor"


@pytest.mark.parametrize("argv", [
    "cantor --theta 1/2 --levels -1",
    "cantor --theta 1/2 --levels -1 --uniform",
])
def test_negative_level_count_is_a_parameter_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out
    assert json.loads(err) == {"error": "parameter",
                               "message": "level index must be >= 0"}


@pytest.mark.parametrize("n", ["0", "-3"])
def test_qam_maximal_needs_an_index(capsys, n):
    code, out, err = run(capsys, "qam", "maximal", "--N", n)
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("levels, scales, warned", [
    # the dyadic ladder 1/4 ... down to the shortest component
    (6, [2.0 ** -k for k in range(2, 13)], False),
    # a ladder of fewer than four scales falls back to 1/4 ... 1/32
    (1, [2.0 ** -k for k in range(2, 6)], True),
])
def test_dim_auto_scales(capsys, tmp_path, levels, scales, warned):
    from fractions import Fraction

    from divergia import CantorParams, cantor_nest
    path = tmp_path / "set.json"
    path.write_text(json.dumps(
        cantor_nest(CantorParams(Fraction(1, 2))).level(levels).to_json()))
    code, out, _ = run(capsys, "dim", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert [d for d, _ in doc["counts"]] == scales
    if levels == 6:
        assert doc["estimate"] == 0.5
    assert ("warning" in doc) == warned
    if warned:
        assert doc["warning"].startswith("finest scale undercuts")


@pytest.mark.parametrize("gen, values, want", [
    # the geometric mean, and (1/c) ln of the mean of e^(c a)
    ("log", (1, 2, 3), 6 ** (1 / 3)),
    ("exp:3", (0.1, 0.5, 0.9),
     math.log(sum(math.exp(3 * a) for a in (0.1, 0.5, 0.9)) / 3) / 3),
])
def test_qam_mean_generators(capsys, gen, values, want):
    code, out, _ = run(capsys, "qam", "mean", "--gen", gen,
                       "--tuple", ",".join(map(str, values)))
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"] == gen and "power_mean" not in doc
    assert doc["mean"] == pytest.approx(want, rel=1e-11)


def test_construction_failure_exit_code(capsys):
    code, out, err = run(capsys, "anydh", "--theta", "0.312", "--N", "14")
    assert code == 1 and not out
    doc = json.loads(err)
    assert doc["error"] == "construction"
    assert doc["message"].startswith("level 12: ")
    # at theta = 0.3 level 13 is below float resolution, a parameter error
    code, out, err = run(capsys, "anydh", "--theta", "0.3", "--N", "14")
    assert code == 2 and not out
    doc = json.loads(err)
    assert doc["error"] == "parameter"
    assert doc["message"].startswith("theta=3/10: level 13 ")


@pytest.mark.parametrize("content", [
    None,  # no file at all
    # a `cantor` document holds its levels under "levels", not one set
    '{"command": "cantor", "levels": {"level_0": {"domain": ["0/1", "1/1"],'
    ' "components": [["0/1", "1/1"]]}}}',
    '{"domain": ["0/1"], "components": []}',
    "not json",
], ids=["missing", "cantor-document", "one-ended-domain", "not-json"])
def test_dim_unreadable_input_is_a_parameter_error(capsys, tmp_path,
                                                   content):
    path = tmp_path / "set.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "dim", "--input", str(path))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("argv", [
    "qam mean --gen power:1e400 --tuple 1,2",
    "qam mean --gen power:1 --tuple 1,1e400",
    "cantor --theta 1e400 --backend float",
    # (1/2)^(1/theta) underflows to 0
    "cantor --theta 0.00013 --levels 1",
])
def test_number_past_float_range_is_a_parameter_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("domain, message", [
    ("1,1", "--domain needs lo < hi, got '1,1'"),
    ("2,1", "--domain needs lo < hi, got '2,1'"),
    ("-1,2", "--domain '-1,2' leaves the domain of 'log'"),
    # lo < hi, but the 33 grid points round to two floats
    ("1,1.0000000000000002", "--domain '1,1.0000000000000002' does not "
                             "give 33 distinct grid points"),
], ids=["1,1", "2,1", "-1,2", "1,1.0000000000000002"])
def test_degenerate_domain_is_a_parameter_error(capsys, monkeypatch, domain,
                                                message):
    # refused before the grid is read: one point, a reversed interval, or
    # points dropped or repeated would leave the tuple cross-checks vacuous
    # or resting on fewer points than the grid shows
    monkeypatch.setattr(cli, "comparability", None)
    code, out, err = run(capsys, "qam", "compare", "--first", "log",
                         "--second", "power:1", f"--domain={domain}")
    assert code == 2 and not out
    assert json.loads(err) == {"error": "parameter", "message": message}


# ----------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------

def test_parser_reuse_keeps_no_flag(capsys):
    argv = ["cantor", "--theta", "1/2", "--levels", "1"]
    assert json.loads(run(capsys, *argv, "--uniform")[1])["uniform"] is True
    assert json.loads(run(capsys, *argv)[1])["uniform"] is False


def test_parser_reuse_reads_backend_env_at_call_time(capsys, monkeypatch):
    argv = ["cantor", "--theta", "2/5", "--levels", "1"]
    monkeypatch.setenv("DIVERGIA_BACKEND", "float")
    assert json.loads(run(capsys, *argv)[1])["backend"] == "float"
    monkeypatch.setenv("DIVERGIA_BACKEND", "exact")
    assert json.loads(run(capsys, *argv)[1])["backend"] == "exact"


def test_parser_reuse_after_usage_error(capsys):
    # the bytes after an argparse exit are those of a fresh interpreter,
    # where importing the module builds no parser
    argv = ["cantor", "--theta", "0.4", "--backend", "float", "--levels", "3"]
    with pytest.raises(SystemExit) as exc:
        main(["cantor", "--levels", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from divergia import cli; "
         "assert not cli._parser.cache_info().currsize; "
         f"sys.exit(cli.main({argv!r}))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


# ----------------------------------------------------------------------
# the indented JSON writer
# ----------------------------------------------------------------------

_TEXT = st.text(st.characters() | st.sampled_from(
    ["\x00", '"', "\\", "[", "]", "\n", "\x1f", "\x7f", "é",
     "\U0001f600"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 64),
    st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    _TEXT)
_TREES = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids), st.lists(kids).map(tuple),
    st.dictionaries(_TEXT, kids),
    # the one-call shapes: lists of scalar lists, some of them empty
    st.lists(st.lists(_SCALARS, min_size=1) | st.tuples(_SCALARS)),
    st.lists(st.lists(_SCALARS))), max_leaves=30)


@given(_TREES)
@example([])
@example({})
@example([[], {}, [[]], ((),)])
@example([[1, "]"], [], ["[", 2]])
@example([["]\x00[", "\x00"], ("a",)])
@example({'"\x00é': {"": [[1.5, -0.0], [math.nan]]}})
@example([5e-324, 1e308, math.inf, -math.inf, math.nan, 2 ** 64, True, None])
@example("\x00\U0001f600")
def test_writer_matches_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    {1: "a"}, {"a": [{None: 1}]}, [[1], {"b": {2.5: 0}}]])
def test_writer_refuses_keys_that_are_not_str(tree):
    with pytest.raises(TypeError):
        cli._dumps(tree)
