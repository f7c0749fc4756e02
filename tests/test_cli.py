"""Command-line behaviour: reports, exit codes, caching, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hilbfock
from hilbfock.cli import REGISTRY, VERIFY_OPTIONS, build_parser, main, parse_range
from hilbfock.errors import EngineError
from hilbfock.models import BUILTIN, builtin_model
from hilbfock.rational import qstr
from hilbfock.ring import RingEngine, StructureTable

RUN = [sys.executable, "-m", "hilbfock.cli"]
# the subprocesses import the hilbfock that these tests import
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(hilbfock.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")])))


def run_cli(*args, env=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env={**ENV, **(env or {})})


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("2..5") == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        parse_range("5..2")
    with pytest.raises(ValueError):
        parse_range("-3")
    assert parse_range("99..100") == [99, 100]
    with pytest.raises(ValueError, match="out of reach"):
        parse_range("101")


def test_validate_pass(capsys):
    assert main(["validate", "--model", "c2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass" and out["witnesses"] == []


def test_validate_fail_nonassociative(tmp_path, capsys):
    from hilbfock.models import builtin_model
    obj = builtin_model("toy_b2_1").to_json()
    obj["products"] = [
        {"left": "h", "right": "h", "result": [{"name": "x", "coeff": "1"}]},
        {"left": "h", "right": "x", "result": [{"name": "x", "coeff": "1"}]},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--model", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "fail" and out["witnesses"]


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = run_cli("validate", "--model", str(path))
    assert res.returncode == 2


def test_unknown_model_exit_2():
    res = run_cli("validate", "--model", "nonexistent_model_xyz")
    assert res.returncode == 2


def test_gate_exit_3():
    res = run_cli("verify", "polynomiality", "--model", "p2", "--n", "3..9")
    assert res.returncode == 3
    assert "rejected" in res.stderr


def test_product_unit_row(capsys):
    assert main(["product", "--model", "ale_2", "--n", "2",
                 "--rho", "{}", "--sigma", '{"h1": [1]}']) == 0
    out = json.loads(capsys.readouterr().out)
    exp = out["details"]["expansion"]
    assert exp == [{"nu": {"h1": [1]}, "coeff": "1"}]


def test_product_orbifold_matches_hilbert(capsys):
    args = ["--model", "c2", "--n", "2", "--rho", '{"1": [1]}',
            "--sigma", '{"1": [1]}']
    assert main(["product"] + args + ["--side", "hilbert"]) == 0
    hilb = json.loads(capsys.readouterr().out)["details"]["expansion"]
    assert main(["product"] + args + ["--side", "orbifold", "--s", "-1"]) == 0
    orb = json.loads(capsys.readouterr().out)["details"]["expansion"]
    assert hilb == orb


def test_verify_pass_and_fail_codes():
    res = run_cli("verify", "n-independence", "--model", "c2", "--n", "2..4")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["status"] == "pass"
    # projective model through the ideal-only verifier is a usage error
    res = run_cli("verify", "n-independence", "--model", "k3_like", "--n", "2..3")
    assert res.returncode == 2


def test_report_determinism():
    a = run_cli("verify", "a-homomorphism", "--model", "c2", "--n", "2")
    b = run_cli("verify", "a-homomorphism", "--model", "c2", "--n", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    # timing is opt-in and changes the payload
    c = run_cli("verify", "a-homomorphism", "--model", "c2", "--n", "2", "--timing")
    assert "timing_ms" in json.loads(c.stdout)
    assert "timing_ms" not in json.loads(a.stdout)


@pytest.mark.parametrize("argv", [
    ("--model", "c2", "--n", "3"),
    ("--model", "ale_2", "--n", "3", "--side", "orbifold", "--s", "1/2"),
], ids=["c2", "ale_2-orbifold"])
def test_structure_constants_cache(tmp_path, argv):
    cache_dir = tmp_path / "cache"
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    env = {"HILBFOCK_CACHE_DIR": str(cache_dir)}
    r1 = run_cli("structure-constants", *argv, "--out", str(out1), env=env)
    assert r1.returncode == 0
    cached_files = list(cache_dir.rglob("*.json"))
    assert len(cached_files) == 1
    # the cache holds the table file's bytes
    assert cached_files[0].read_bytes() == out1.read_bytes()
    r2 = run_cli("structure-constants", *argv, "--out", str(out2), env=env)
    assert r2.returncode == 0
    # the second table and report come from the cache
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.stdout == r2.stdout
    table = json.loads(out1.read_text())
    assert table["n"] == 3 and table["table"]
    assert out1.read_text() == json.dumps(table, indent=2, sort_keys=True) + "\n"
    assert json.loads(r1.stdout)["details"]["entries"] == len(table["table"])


@pytest.mark.parametrize("argv", [
    ("structure-constants", "--model", "c2", "--n", "1"),
    ("lehn-apply", "--k", "1", "--poly", "-"),
])
def test_unwritable_out_is_usage_error(tmp_path, argv):
    res = subprocess.run(RUN + list(argv) + ["--out", str(tmp_path / "no" / "t.json")],
                         input='{"terms": []}', capture_output=True, text=True, env=ENV)
    assert_usage_error(res)


def _table_obj(table, model):
    """The structure-table file as a JSON object, built independently of
    StructureTable.render."""
    items = []
    for (rho, sigma) in sorted(table.entries, key=lambda p: (p[0].key(), p[1].key())):
        prods = table.entries[(rho, sigma)]
        items.append({
            "rho": rho.to_json(model),
            "sigma": sigma.to_json(model),
            "entries": [{"nu": nu.to_json(model), "coeff": qstr(c)}
                        for nu, c in sorted(prods.items(), key=lambda t: t[0].key())],
        })
    out = {"n": table.n, "side": table.side, "table": items}
    if table.s is not None:
        out["s"] = qstr(table.s)
    return out


def test_table_writer_bytes_equal_json_dump():
    """StructureTable.render gives the bytes of json.dumps(indent=2,
    sort_keys=True) and a newline for every built-in table that computes at
    n <= 3, on the Hilbert side and on the orbifold side at s = 2."""
    written = empty_rows = with_s = 0
    for name in BUILTIN:
        model = builtin_model(name)
        for s in (None, 2):
            try:
                eng = RingEngine(model, s)
            except EngineError:
                continue
            for n in range(4):
                try:
                    table = eng.structure_constants(n)
                except EngineError:
                    continue
                obj = _table_obj(table, model)
                assert table.render(model) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
                written += 1
                empty_rows += sum(not row["entries"] for row in obj["table"])
                with_s += "s" in obj
    assert written > 40 and empty_rows and with_s


def test_orb_structure_constants(tmp_path):
    out = tmp_path / "orb.json"
    res = run_cli("orb-structure-constants", "--model", "ale_2", "--n", "2",
                  "--s", "1", "--out", str(out))
    assert res.returncode == 0
    table = json.loads(out.read_text())
    assert table["side"] == "orbifold" and table["s"] == "1"


def test_lehn_apply_cli(tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps(
        {"terms": [{"coeff": "1", "monomial": {"1": 2}}]}))
    out = tmp_path / "image.json"
    assert main(["lehn-apply", "--k", "1", "--poly", str(poly),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    image = json.loads(out.read_text())
    assert image == {"terms": [{"coeff": "-1", "monomial": {"2": 1}}]}


def test_p2_computes_at_level_one(tmp_path, capsys):
    """At n = 1 no canonical-class family acts, so p2 is not gated: its
    ring is H*(P^2), where h.h = x."""
    assert main(["product", "--model", "p2", "--n", "1",
                 "--rho", '{"h": [1]}', "--sigma", '{"h": [1]}']) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["expansion"] == [{"coeff": "1", "nu": {"x": [1]}}]
    out = tmp_path / "t.json"
    assert main(["structure-constants", "--model", "p2", "--n", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(json.loads(out.read_text())["table"]) == 9


def test_verify_ring_isom_cli():
    res = run_cli("verify", "ring-isom", "--model", "ale_2", "--n", "2")
    assert res.returncode == 0
    res = run_cli("verify", "ring-isom", "--model", "p2", "--n", "2")
    assert res.returncode == 3


def test_ring_isom_checks_markers_at_the_top_level(capsys):
    """Over a range of levels the marker check runs at the highest one,
    where the degree-shift operators of every level in the range act."""
    assert main(["verify", "ring-isom", "--model", "c2", "--n", "1..3"]) == 0
    assert json.loads(capsys.readouterr().out)["details"]["marker_terms_checked"] == 12


def test_structure_constants_renders_only_for_a_reader(monkeypatch, capsys):
    """Without --out and without the on-disk cache nothing reads the table
    text, so the table is computed, and checked, but never rendered."""
    monkeypatch.delenv("HILBFOCK_CACHE_DIR", raising=False)
    argv = ["structure-constants", "--model", "c2", "--n", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out

    def refuse(self, model):
        raise AssertionError("rendered a table that nothing reads")

    monkeypatch.setattr(StructureTable, "render", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_verify_triple_polynomiality(tmp_path):
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(
        {"rho": {"h": [1]}, "sigma": {"h": [1]}, "nu": {}}))
    res = run_cli("verify", "polynomiality", "--model", "toy_b2_1",
                  "--n", "3..9", "--triple", "@" + str(triple))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["status"] == "pass"
    assert "coefficients" in out["details"]


def test_product_unknown_basis_name():
    res = run_cli("product", "--model", "c2", "--n", "2",
                  "--rho", '{"nope": [1]}', "--sigma", "{}")
    assert res.returncode == 2
    assert "nope" in res.stderr


def test_dump_product_vector(tmp_path, capsys):
    dump = tmp_path / "vec.json"
    assert main(["product", "--model", "c2", "--n", "3",
                 "--rho", '{"1": [1]}', "--sigma", '{"1": [1]}',
                 "--dump", str(dump)]) == 0
    capsys.readouterr()
    vec = json.loads(dump.read_text())
    assert isinstance(vec, list)
    for item in vec:
        assert set(item) == {"coeff", "monomial"}


def assert_usage_error(res):
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


@pytest.mark.parametrize("vid, model, n", [
    ("n-independence", "c2", "3"),
    ("mod-h4-independence", "k3_like", "4"),
    ("orb-n-independence", "ale_2", "2"),
])
def test_level_comparison_needs_two_levels(vid, model, n):
    res = run_cli("verify", vid, "--model", model, "--n", n)
    assert_usage_error(res)
    assert "at least 2 levels" in res.stderr


@pytest.mark.parametrize("vid, model, n", [
    ("polynomiality", "toy_b2_1", "3..99999999999999999999"),
    ("n-independence", "c2", "2..99999999999999999999"),
    ("n-independence", "c2", "2..101"),
])
def test_level_above_the_reach_is_usage_error(vid, model, n):
    res = run_cli("verify", vid, "--model", model, "--n", n)
    assert_usage_error(res)
    assert "out of reach" in res.stderr


def test_triple_with_a_missing_key_is_usage_error():
    res = run_cli("verify", "polynomiality", "--model", "toy_b2_1", "--n", "3..9",
                  "--triple", '{"rho":{}}')
    assert_usage_error(res)
    assert res.stderr == ("error: --triple must be a JSON object {rho, sigma, nu}: "
                          "missing 'sigma'\n")


def test_polynomiality_without_a_fit_is_usage_error():
    res = run_cli("verify", "polynomiality", "--model", "k3_like", "--n", "3..3")
    assert_usage_error(res)
    assert "widen --n" in res.stderr


def test_zero_denominator_in_model(tmp_path):
    from hilbfock.models import builtin_model
    obj = builtin_model("toy_b2_1").to_json()
    obj["products"][0]["result"][0]["coeff"] = "1/0"
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(obj))
    res = run_cli("validate", "--model", str(path))
    assert_usage_error(res)
    assert "1/0" in res.stderr


@pytest.mark.parametrize("rho", ["[1]", '{"1": 1}', '{"1": [1.5]}'])
def test_product_malformed_partition(rho):
    res = run_cli("product", "--model", "c2", "--n", "2",
                  "--rho", rho, "--sigma", "{}")
    assert_usage_error(res)


def test_product_negative_level():
    res = run_cli("product", "--model", "c2", "--n", "-3",
                  "--rho", "{}", "--sigma", "{}")
    assert_usage_error(res)
    assert "negative" in res.stderr


def test_lehn_apply_deep_operator(tmp_path):
    """k + 1 derivatives past the interpreter's recursion limit."""
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"terms": [{"coeff": "1", "monomial": {"1": 3000}}]}))
    for k in ("990", "1500"):
        res = run_cli("lehn-apply", "--k", k, "--poly", str(poly))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        terms = json.loads(res.stdout)["details"]["image"]["terms"]
        assert [t["monomial"] for t in terms] == [{"1": 2999 - int(k), str(int(k) + 1): 1}]


def test_hostile_inputs_exit_2(tmp_path):
    """Malformed polynomial and model JSON, a negative operator degree and a
    model that fails validation each end in one error line, exit 2."""
    from hilbfock.models import builtin_model
    poly = tmp_path / "p.json"
    for doc in ({"terms": [{"coeff": "1", "monomial": [1]}]}, [1, 2]):
        poly.write_text(json.dumps(doc))
        assert_usage_error(run_cli("lehn-apply", "--k", "1", "--poly", str(poly)))
    poly.write_text(json.dumps({"terms": [{"coeff": "1", "monomial": {"1": 2}}]}))
    res = run_cli("lehn-apply", "--k", "-1", "--poly", str(poly))
    assert_usage_error(res)
    assert "nonnegative" in res.stderr

    model = tmp_path / "model.json"
    obj = builtin_model("toy_b2_1").to_json()
    obj["products"] = 5
    model.write_text(json.dumps(obj))
    assert_usage_error(run_cli("validate", "--model", str(model)))

    # h*h = x + h is not homogeneous: validate reports it, the engines refuse it
    obj = builtin_model("c2").to_json()
    obj["products"][0]["result"].append({"name": "h", "coeff": "1"})
    model.write_text(json.dumps(obj))
    assert run_cli("validate", "--model", str(model)).returncode == 1
    for args in (("structure-constants", "--n", "2"),
                 ("verify", "n-independence", "--n", "2..3")):
        res = run_cli(*args, "--model", str(model))
        assert_usage_error(res)
        assert "not homogeneous" in res.stderr

    # bounds under which a verifier checks nothing, and level ranges given to
    # commands that compute at one level
    for args in (("verify", "heisenberg", "--model", "c2", "--max-weight", "-1"),
                 ("verify", "heisenberg", "--model", "c2", "--max-index", "0"),
                 ("verify", "lemma-ks", "--model", "toy_b2_1", "--max-weight", "1"),
                 ("verify", "fh-ring", "--model", "c2", "--norm-bound", "-1"),
                 ("verify", "ideal", "--model", "c2", "--n", "0"),
                 ("verify", "ideal-generators", "--model", "c2", "--n", "0"),
                 ("verify", "c2-quotient", "--model", "c2", "--n", "0"),
                 ("verify", "ring-isom", "--model", "c2", "--n", "0"),
                 ("verify", "ring-isom", "--model", "toy_b2_1", "--n", "0"),
                 ("structure-constants", "--model", "c2", "--n", "2..5"),
                 ("product", "--model", "c2", "--n", "2..4",
                  "--rho", '{"1": [1]}', "--sigma", '{"1": [1]}'),
                 ("orb-structure-constants", "--model", "c2", "--n", "2..3")):
        assert_usage_error(run_cli(*args))
    # level 0 has no ideal monomial and compares only b_empty . b_empty, but
    # a range that reaches level 1 checks it
    for vid in ("ideal", "ideal-generators", "c2-quotient", "ring-isom"):
        res = run_cli("verify", vid, "--model", "c2", "--n", "0..1")
        assert res.returncode == 0 and '"status":"pass"' in res.stdout, res.stderr

    # an integer bound above the reach: rejected before any enumeration
    for vid, model, option in (("lemma-ks", "odd_toy", "--max-weight"),
                               ("heisenberg", "c2", "--max-weight"),
                               ("heisenberg", "c2", "--max-index"),
                               ("fh-ring", "c2", "--norm-bound")):
        for value in ("101", "99999999999999999999"):
            res = run_cli("verify", vid, "--model", model, option, value)
            assert_usage_error(res)
            assert res.stderr == f"error: {option} {value} is out of reach; " \
                "verifiers take at most 100\n"

    # a class of the restriction ideal, or a repeated part on an odd class,
    # names no basis class: rejected by name, as rho, sigma or nu
    triple = {"rho": {}, "sigma": {}, "nu": {}}
    for model, cls, parts in (("c2", "x", [1]), ("c2", "h", [1]), ("odd_toy", "u", [1, 1])):
        bad = json.dumps({cls: parts})
        for args in (("product", "--n", "2", "--rho", "{}", "--sigma", bad),
                     ("product", "--n", "2", "--rho", bad, "--sigma", "{}"),
                     ("verify", "polynomiality", "--n", "3..6", "--triple",
                      json.dumps({**triple, "nu": {cls: parts}}))):
            res = run_cli(*args, "--model", model)
            assert_usage_error(res)
            assert repr(cls) in res.stderr


@pytest.mark.parametrize("args", [
    ("product", "--model", "toy_b2_1", "--n", "2", "--side", "orbifold",
     "--rho", '{"h": [1]}', "--sigma", '{"h": [1]}'),
    ("structure-constants", "--model", "c2", "--n", "2", "--side", "orbifold"),
    ("orb-structure-constants", "--model", "c2", "--n", "2"),
    ("verify", "orb-n-independence", "--model", "c2", "--n", "2..3"),
])
@pytest.mark.parametrize("s", ["-7/2", "-2/3"])
def test_negative_rational_s_is_a_value(args, s):
    """--s followed by a negative fraction reads it as the value, with the
    output of --s=<value>."""
    spaced, joined = run_cli(*args, "--s", s), run_cli(*args, f"--s={s}")
    assert spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout and f'"s":"{s}"' in spaced.stdout


# a passing run of each verifier, to which an option it does not read is added
_VERIFY_BASE = {
    "heisenberg": "--model toy_b2_1 --max-weight 1 --max-index 1",
    "lemma-ks": "--model toy_b2_1 --max-weight 2",
    "nonsense1": "--model toy_b2_1",
    "ideal": "--model c2 --n 2",
    "ideal-generators": "--model c2 --n 2",
    "n-independence": "--model c2 --n 2..3",
    "mod-h4-independence": "--model toy_b2_1 --n 2..3",
    "polynomiality": "--model toy_b2_1 --n 3..6",
    "fh-ring": "--model c2 --norm-bound 1",
    "c2-quotient": "--model c2 --n 2",
    "a-homomorphism": "--model c2 --n 2",
    "ring-isom": "--model c2 --n 2",
    "orb-n-independence": "--model c2 --n 2..3",
}
_OPTION_VALUE = {"--n": "2", "--s": "1/2", "--triple": '{"rho":{},"sigma":{},"nu":{}}',
                 "--norm-bound": "3", "--max-weight": "2", "--max-index": "2"}


def test_unread_option_cases_cover_the_registry():
    assert set(_VERIFY_BASE) == set(REGISTRY)
    assert set(_OPTION_VALUE) == set(VERIFY_OPTIONS)


@pytest.mark.parametrize("vid, option", [
    (vid, option) for vid, (_, reads, _) in REGISTRY.items()
    for option in VERIFY_OPTIONS if option not in reads])
def test_verify_rejects_an_option_it_does_not_read(vid, option, capsys):
    base = ["verify", vid, *_VERIFY_BASE[vid].split()]
    build_parser().parse_args(base)
    with pytest.raises(SystemExit) as exc:
        main(base + [option, _OPTION_VALUE[option]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + option in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("heisenberg", "--model", "toy_b2_1", "--n", "2..9",
     "--max-weight", "1", "--max-index", "1"),
    ("nonsense1", "--model", "toy_b2_1", "--n", "7", "--max-weight", "9",
     "--s", "5", "--norm-bound", "3"),
])
def test_verify_ignored_options_are_usage_errors(args):
    res = run_cli("verify", *args)
    assert res.returncode == 2 and res.stdout == ""
    assert "unrecognized arguments" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ("structure-constants", "--model", "c2", "--n", "2", "--s", "1/2"),
    ("structure-constants", "--model", "c2", "--n", "2", "--side", "hilbert", "--s", "-1"),
    ("product", "--model", "c2", "--n", "2", "--rho", "{}", "--sigma", "{}", "--s", "1/2"),
])
def test_s_off_the_orbifold_side_is_usage_error(args):
    res = run_cli(*args)
    assert_usage_error(res)
    assert "--side orbifold" in res.stderr


def test_orbifold_side_defaults_to_s_minus_1(tmp_path, capsys):
    tables = []
    for extra in ([], ["--s", "-1"]):
        out = tmp_path / f"t{len(tables)}.json"
        assert main(["structure-constants", "--model", "c2", "--n", "2",
                     "--side", "orbifold", "--out", str(out), *extra]) == 0
        tables.append(out.read_text())
    capsys.readouterr()
    assert tables[0] == tables[1] and json.loads(tables[0])["side"] == "orbifold"


def test_orbifold_reports_name_s(capsys):
    reports = []
    for s in ("1/2", "2"):
        assert main(["structure-constants", "--model", "c2", "--n", "3",
                     "--side", "orbifold", "--s", s]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] != reports[1]
    assert [json.loads(r)["params"]["s"] for r in reports] == ["1/2", "2"]
    assert main(["structure-constants", "--model", "c2", "--n", "3"]) == 0
    assert "s" not in json.loads(capsys.readouterr().out)["params"]


_FUZZ_MODEL = {"name": "toy", "basis": [{"name": "1", "degree": 0},
                                        {"name": "h", "degree": 2},
                                        {"name": "x", "degree": 4}],
               "products": [{"left": "h", "right": "h",
                             "result": [{"name": "x", "coeff": "1"}]}],
               "unit": "1", "point": "x", "euler": [{"name": "x", "coeff": "3"}],
               "canonical": [], "ideal": []}
_FUZZ_POLY = {"terms": [{"coeff": "1", "monomial": {"1": 2}},
                        {"coeff": "-2/3", "monomial": {"2": 1, "3": 1}}]}
_DELETE = object()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["", "1", "h", "x", "0", "2/3", "1/0", "-1", "abc"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "degree", "coeff", "monomial", "terms",
                         "left", "right", "result", "1", "2"]), inner, max_size=3),
    max_leaves=8)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, val in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(val, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return None if value is _DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_json_never_escapes_main(data):
    """main() on mutated model and polynomial JSON always ends in an exit code
    (0 pass, 1 violation, 2 usage/model error, 3 gate), never an exception."""
    kind = data.draw(st.sampled_from(["model", "poly"]))
    base = _FUZZ_MODEL if kind == "model" else _FUZZ_POLY
    path = data.draw(st.sampled_from(list(_paths(base))))
    doc = _mutated(base, path, data.draw(st.just(_DELETE) | _json_values))
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "doc.json")
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if kind == "model":
            runs = [["validate", "--model", name],
                    ["structure-constants", "--model", name, "--n", "2"]]
        else:
            k = data.draw(st.integers(-2, 3))
            runs = [["lehn-apply", "--k", str(k), "--poly", name]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2, 3)
