"""Command-line tests: exit codes and the JSON error object."""

import json

import pytest

from pfaffred import fmfs, serialize_solution, serialize_system
from pfaffred.cli import main

from helpers import hyper_system, sys1


def run(capsys, argv, code=0):
    """main(argv) must exit with code and print one JSON object."""
    assert main(argv) == code
    return json.loads(capsys.readouterr().out)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def airy_doc(tmp_path):
    return write_json(tmp_path / "airy.json", serialize_system(
        sys1([[0, 1], [{1: 1}, 0]], 1)))


@pytest.mark.parametrize("command", ["reduce", "invariants", "rank-reduce"])
@pytest.mark.parametrize("order", ["0", "-5"])
def test_order_below_one_is_an_input_error(airy_doc, capsys, command, order):
    err = run(capsys, [command, airy_doc, "--order", order], 1)["error"]
    assert err["type"] == "InputError"
    assert "order" in err["message"]


def test_reduce_accepts_order_one_and_up(airy_doc, capsys):
    assert "solution" in run(capsys, ["reduce", airy_doc, "--order", "8"])


def test_every_subcommand_on_hyper(tmp_path, capsys):
    doc = write_json(tmp_path / "hyper.json", serialize_system(hyper_system()))
    assert run(capsys, ["check", doc])["integrable"] is True
    assert run(capsys, ["invariants", doc])["omega"] == ["1", "2"]
    assert run(capsys, ["rank-reduce", doc])["p"] == [1, 2]
    sol = write_json(tmp_path / "hyper.solution.json",
                     run(capsys, ["reduce", doc]))
    assert run(capsys, ["verify", doc, sol])["ok"] is True
    generated = run(capsys, ["generate", "--seed", "3", "--d", "2"])
    assert generated["d"] == 2 and "expected" in generated


def _set_first_exp(doc, exp):
    doc["A"][0][0][0][0]["exp"] = exp


# each mutation of the hyper document is malformed; before these checks
# the booleans parsed as 0/1 and "abc" escaped as a raw ValueError
@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(minpoly="abc"),
    lambda doc: doc.update(minpoly=["-2", "x", "1"]),
    lambda doc: _set_first_exp(doc, [0, True]),
    lambda doc: doc.update(trunc=[True, None]),
    lambda doc: doc.update(d=True),
    lambda doc: doc.update(p=[True, 2]),
], ids=["minpoly-string", "minpoly-literal", "exp", "trunc", "d", "p"])
def test_malformed_system_is_an_input_error(tmp_path, capsys, mutate):
    doc = serialize_system(hyper_system())
    mutate(doc)
    path = write_json(tmp_path / "bad.json", doc)
    assert run(capsys, ["check", path], 1)["error"]["type"] == "InputError"


def test_boolean_ramification_is_an_input_error(tmp_path, capsys):
    S = sys1([[{0: 1}, 0], [0, {0: 2}]], 1)
    sol, _ = fmfs(S, order=4)
    doc = serialize_solution(sol, S.vars)
    assert doc["s"] == [1]
    system = write_json(tmp_path / "diag.json", serialize_system(S))
    good = write_json(tmp_path / "good.json", doc)
    assert run(capsys, ["verify", system, good])["ok"] is True
    doc["s"] = [True]
    bad = write_json(tmp_path / "bad.json", doc)
    err = run(capsys, ["verify", system, bad], 1)["error"]
    assert err["type"] == "InputError"
