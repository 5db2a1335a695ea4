"""Command-line tests: exit codes and the JSON error object."""

import json

import pytest

from pfaffred import serialize_system
from pfaffred.cli import main

from helpers import sys1


@pytest.fixture
def airy_doc(tmp_path):
    path = tmp_path / "airy.json"
    path.write_text(json.dumps(serialize_system(
        sys1([[0, 1], [{1: 1}, 0]], 1))))
    return str(path)


@pytest.mark.parametrize("command", ["reduce", "invariants", "rank-reduce"])
@pytest.mark.parametrize("order", ["0", "-5"])
def test_order_below_one_is_an_input_error(airy_doc, capsys, command, order):
    assert main([command, airy_doc, "--order", order]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "InputError"
    assert "order" in err["message"]


def test_reduce_accepts_order_one_and_up(airy_doc, capsys):
    assert main(["reduce", airy_doc, "--order", "8"]) == 0
    assert "solution" in json.loads(capsys.readouterr().out)
