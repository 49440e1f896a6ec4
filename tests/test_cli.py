import json
import os

import pytest

from flagtype.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--n", "7",
                       "--triple", "(7)|(4)|(1,1,1,4)")
    assert code == 0
    assert out.startswith("Finite")
    code, out, _ = run(capsys, "classify", "--n", "3", "--triple",
                       "(2)|(2)|(2)")
    assert code == 0 and out.startswith("Infinite")


def test_classify_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--n", "3", "--triple", "oops")
    assert code == 2 and "usage error" in err


def test_classify_json_and_store(tmp_path, capsys):
    out_path = os.path.join(tmp_path, "store", "v.json")
    code, out, _ = run(capsys, "classify", "--n", "6", "--triple",
                       "(6)|(4)|(2,2,2)", "--json", "--out", out_path)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Infinite"
    assert json.load(open(out_path))["verdict"] == "Infinite"


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "3", "--q", "5",
                       "--u-plus",
                       "[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0]]",
                       "--u-minus", "[[1,0,0,0,0,0],[0,0,0,1,0,0]]")
    assert code == 0
    assert json.loads(out)["theta"] == [1, 1, 0, 1, 0]


def test_canonical_command(capsys):
    code, out, _ = run(capsys, "canonical", "--n", "2", "--q", "3",
                       "--b", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,2")
    assert code == 0
    data = json.loads(out)
    assert data["representative"]["basis"] == [[1, 0, 1, 0], [0, 1, 0, 2]]
    assert data["layout"]["I"]["15"] == [1, 2]


def test_normalize_command(capsys):
    code, out, _ = run(capsys, "normalize", "--n", "2", "--q", "3",
                       "--u-plus", "[[1,0,0,0],[0,1,0,0]]",
                       "--u-minus", "[[0,0,1,0],[0,0,0,1]]")
    assert code == 0
    assert json.loads(out)["theta"] == [0, 0, 0, 2, 0]


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--q", "3",
                       "--space", "(2)", "--group", "P")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 3 and data["total"] == 8
    code, out, _ = run(capsys, "census", "--n", "2", "--q", "3",
                       "--space", "(2)", "--group", "P", "--csv")
    assert code == 0 and "orbit_count" in out.splitlines()[0]


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--list")
    assert code == 0 and "O6_L322_sq" in out
    code, out, _ = run(capsys, "witness", "--family", "O4_L31_0", "--q", "3")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 3
    code, _, err = run(capsys, "witness", "--family", "nope")
    assert code == 2


def test_verify_and_report(tmp_path, capsys):
    store = os.path.join(tmp_path, "store", "roundtrip.json")
    code, out, _ = run(capsys, "verify", "--suite", "roundtrip",
                       "--out", store)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run(capsys, "report", "--store", os.path.dirname(store))
    assert code == 0 and "scoreboard" in out
    code, _, err = run(capsys, "report", "--store",
                       os.path.join(tmp_path, "empty"))
    assert code == 2


CENSUS_USAGE_ERRORS = [
    ({}, ["--n", "2", "--q", "4", "--space", "(1)|(2)"]),
    ({}, ["--n", "2", "--q", "0", "--space", "(1)|(2)"]),
    ({}, ["--n", "0", "--q", "3", "--space", "(1)|(2)"]),
    ({}, ["--n", "2", "--q", "3", "--space", "(3)|(2)"]),
    ({"FLAGTYPE_BUDGET": "abc"}, ["--n", "2", "--q", "3", "--space", "(2)"]),
    ({}, ["--n", "2", "--q", "3", "--space", "(1)||(1)"]),
]


E1 = "[[1,0,0,0,0,0]]"
E3 = "[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0]]"

USAGE_ERRORS = [
    ["canonical", "--n", "2", "--q", "3", "--b", "1,2"],
    ["canonical", "--n", "2", "--q", "3", "--b", "x"],
    ["witness", "--family", "O4_L31_0", "--q", "0"],
    ["witness", "--family", "O4_L31_0", "--q", "5", "--pair", "1"],
    ["witness", "--family", "O4_L31_0", "--q", "5", "--pair", "1,9"],
    ["witness", "--family", "O6_L32p", "--q", "3", "--n", "2"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1,
     "--v", "[[1,0,0,0,0,0],[0,0,0,0,0,1],[0,1,0,0,0,0]]"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1,
     "--v", "[[1,0,0,0,0,0],[0,1,0,0,0,0]]"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", "[[1,0,0]]",
     "--u-minus", E1, "--v", E3],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1,
     "--u-minus", "[[1,0,0,0,0,0],[0,0,0,0,0,1]]"],
    ["normalize", "--n", "3", "--q", "3", "--u-plus", "[1,0]",
     "--u-minus", E1],
    ["--jobs", "2", "classify", "--n", "4", "--triple", "(4)|(4)|(4)"],
]


def _assert_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("env,argv", CENSUS_USAGE_ERRORS)
def test_census_usage_errors(capsys, monkeypatch, env, argv):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    _assert_usage_error(capsys, ["census"] + argv)


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors(capsys, argv):
    _assert_usage_error(capsys, argv)


def _assert_infeasible(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_budget_overrun_is_infeasible(capsys, monkeypatch):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "100")
    _assert_infeasible(capsys, ["census", "--n", "3", "--q", "5",
                                "--space", "(3)|(1)"])


@pytest.mark.parametrize("argv", [
    ["witness", "--family", "O6_L322_sq", "--q", "3"],
    ["witness", "--family", "O6_L32p", "--q", "5", "--pair", "2,4"],
])
def test_witness_budget_overrun_is_infeasible(capsys, monkeypatch, argv):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "50")
    _assert_infeasible(capsys, argv)


def test_witness_separation_infeasible_by_design(capsys):
    code, out, _ = run(capsys, "witness", "--family", "O10_L323_sq",
                       "--q", "3")
    assert code == 0
    assert json.loads(out)["classes"] == "separation infeasible (by design)"


def test_verify_budget_overrun_writes_store(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "50")
    store = os.path.join(tmp_path, "bruhat.json")
    code, _, err = run(capsys, "verify", "--suite", "bruhat", "--out", store)
    assert code == 3
    assert err.startswith("infeasible: suite bruhat: ")
    assert err.count("\n") == 1
    data = json.load(open(store))
    assert data["bruhat"]["ok"] is False
    assert data["bruhat"]["infeasible"].startswith("orbit budget exceeded")
