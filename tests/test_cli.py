"""Command-line tests: exit codes and the JSON error object."""

import json
import os
import sys
import time

import pytest

from pfaffred import fmfs, serialize_solution, serialize_system
from pfaffred.cli import main
from pfaffred.docio import (MAX_DIMENSION, MAX_GAUGE_DEGREE, MAX_GAUGE_OPS,
                            MAX_POINCARE_RANK, generate_equivalent)
from pfaffred.errors import InputError
from pfaffred.reduction import MAX_ORDER, MAX_RETRIES, check_order

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
    lambda doc: doc.update(minpoly=["-2", "0", "2"]),
    lambda doc: doc.update(minpoly=["-2", "1"]),
    lambda doc: doc.update(minpoly=["-1", "0", "1"]),
    lambda doc: _set_first_exp(doc, [0, True]),
    lambda doc: doc.update(trunc=[True, None]),
    lambda doc: doc.update(d=True),
    lambda doc: doc.update(p=[True, 2]),
], ids=["minpoly-string", "minpoly-literal", "minpoly-not-monic",
        "minpoly-linear", "minpoly-rational-root", "exp", "trunc", "d", "p"])
def test_malformed_system_is_an_input_error(tmp_path, capsys, mutate):
    doc = serialize_system(hyper_system())
    mutate(doc)
    path = write_json(tmp_path / "bad.json", doc)
    assert run(capsys, ["check", path], 1)["error"]["type"] == "InputError"


def test_irreducible_cubic_minpoly_exits_two(tmp_path, capsys):
    # well formed, but not a field the reduction supports
    doc = serialize_system(hyper_system())
    doc["minpoly"] = ["-2", "0", "0", "1"]
    path = write_json(tmp_path / "cubic.json", doc)
    err = run(capsys, ["check", path], 2)["error"]
    assert err["type"] == "FieldExtensionError"


def test_check_reports_the_data_window(tmp_path, capsys):
    doc = serialize_system(sys1([[0, 1], [{1: 1}, 0]], 1))
    doc["trunc"] = [4]
    path = write_json(tmp_path / "airy4.json", doc)
    out = run(capsys, ["check", path])
    assert out["window"] == [4] and "verified_to" not in out


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


# each mutation of a good solution document has the wrong shape; before
# these checks each one ended verify in a raw AttributeError/TypeError
@pytest.mark.parametrize("key,value", [
    ("Phi", []),
    ("Phi", {"entries": 7}),
    ("C", 5),
    ("Q", 5),
    ("vars", 3),
    ("structure", 5),
    ("structure", ["split", 0, 1, 5, ["regular", 1]]),
    ("diagnostics", 5),
    (None, 5),
], ids=["Phi-list", "Phi-entries", "C", "Q", "vars", "structure",
        "structure-branch", "diagnostics", "document"])
def test_malformed_solution_is_an_input_error(tmp_path, capsys, key, value):
    S = sys1([[{0: 1}, 0], [0, {0: 2}]], 1)
    doc = serialize_solution(fmfs(S, order=4)[0], S.vars)
    if key is None:
        doc = value
    else:
        doc[key] = value
    system = write_json(tmp_path / "diag.json", serialize_system(S))
    bad = write_json(tmp_path / "bad.json", doc)
    err = run(capsys, ["verify", system, bad], 1)["error"]
    assert err["type"] == "InputError"


# a scalar system with p = 10^8 used to hang in the scalar leaf
@pytest.mark.parametrize("system,mutate", [
    (lambda: sys1([[{0: 1}]], 1), lambda doc: doc.update(p=[10 ** 8])),
    (hyper_system, lambda doc: doc.update(p=[MAX_POINCARE_RANK + 1, 2])),
    (hyper_system, lambda doc: doc.update(d=MAX_DIMENSION + 1)),
], ids=["huge-p", "p", "d"])
def test_system_beyond_the_bounds_is_an_input_error(tmp_path, capsys, system,
                                                    mutate):
    doc = serialize_system(system())
    mutate(doc)
    path = write_json(tmp_path / "big.json", doc)
    err = run(capsys, ["reduce", path], 1)["error"]
    assert err["type"] == "InputError" and "bound" in err["message"]


# out of bounds or malformed; each gauge operation costs one more
# series product, so an unbounded count would hang the generator
@pytest.mark.parametrize("option,value", [
    ("--p", str(MAX_POINCARE_RANK + 1)),
    ("--d", str(MAX_DIMENSION + 1)),
    ("--d", "0"),
    ("--p", "a"),
    ("--gauge-ops", str(MAX_GAUGE_OPS + 1)),
    ("--gauge-ops", "100000000"),
    ("--gauge-ops", "-1"),
    ("--gauge-degree", str(MAX_GAUGE_DEGREE + 1)),
    ("--gauge-degree", "-1"),
], ids=["p-bound", "d-bound", "d-zero", "p-literal", "ops-bound", "ops-huge",
        "ops-negative", "degree-bound", "degree-negative"])
def test_bad_generate_shape_is_an_input_error(capsys, option, value):
    argv = ["generate", "--d", "1", "--p", "1", option, value]
    err = run(capsys, argv, 1)["error"]
    assert err["type"] == "InputError"
    if option.startswith("--gauge"):
        assert "bound" in err["message"]


def test_generate_accepts_the_gauge_bounds(capsys):
    argv = ["generate", "--d", "2", "--gauge-ops", str(MAX_GAUGE_OPS),
            "--gauge-degree", str(MAX_GAUGE_DEGREE)]
    assert "expected" in run(capsys, argv)


@pytest.mark.parametrize("key", ["gauge_ops", "gauge_degree"])
def test_boolean_gauge_shape_is_an_input_error(key):
    with pytest.raises(InputError, match="bound"):
        generate_equivalent(0, {"n": 1, "d": 2, "p": [1], key: True})


# usage errors are bad input, exit 1: exit 2 means structure the
# algorithms do not cover
@pytest.mark.parametrize("argv", [
    ["reduce", "{doc}", "--order", "abc"],
    ["reduce", "{doc}", "--bogus"],
    ["check", "{doc}", "--max-ext-degree", "2"],
    ["check", "{doc}", "--json"],
    ["check", "{doc}", "--max-retries", "1"],
    ["rank-reduce", "{doc}", "--max-retries", "1"],
    [],
    ["check", "{doc}", "--order", "5"],
    ["verify", "{doc}", "{doc}", "--order", "5"],
    ["generate", "--order", "5"],
], ids=["order-literal", "unknown-flag", "max-ext-degree", "json",
        "check-retries", "rank-reduce-retries", "no-command", "check-order",
        "verify-order", "generate-order"])
def test_usage_errors_are_input_errors(airy_doc, capsys, argv):
    argv = [a.format(doc=airy_doc) for a in argv]
    assert run(capsys, argv, 1)["error"]["type"] == "InputError"


def test_help_and_version_still_exit_zero(capsys):
    for argv in (["--help"], ["--version"], ["reduce", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    capsys.readouterr()


def test_cubic_eigenvalue_field_exits_two(tmp_path, capsys):
    doc = write_json(tmp_path / "cubic.json", serialize_system(
        sys1([[0, 0, 2], [1, 0, 0], [0, 1, 0]], 1)))
    err = run(capsys, ["reduce", doc], 2)["error"]
    assert err["type"] == "FieldExtensionError"


# finding rational eigenvalues must take time polynomial in their bit
# length: trial division up to sqrt(10^30) would not end
@pytest.mark.parametrize("N,q", [
    (10 ** 30, {"-1": "1000000000000000"}),
    (10 ** 30 + 2, {"-1": ["0", "1"]}),
], ids=["square", "nonsquare"])
def test_huge_eigenvalues_reduce_quickly(tmp_path, capsys, N, q):
    doc = write_json(tmp_path / "big.json", serialize_system(
        sys1([[0, 1], [N, 0]], 1)))
    start = time.perf_counter()
    sol = run(capsys, ["reduce", doc])["solution"]
    assert time.perf_counter() - start < 5
    assert q in sol["Q"][0]


def test_order_bound_is_on_every_working_order(tmp_path, capsys):
    doc = write_json(tmp_path / "scalar.json", serialize_system(
        sys1([[{0: 1, 1: 1}]], 1)))
    assert run(capsys, ["reduce", doc, "--order", str(MAX_ORDER)])
    err = run(capsys, ["reduce", doc, "--order", str(MAX_ORDER + 1)],
              1)["error"]
    assert err["type"] == "InputError" and "bound" in err["message"]
    with pytest.raises(InputError, match="bound"):
        check_order(MAX_ORDER + 1)      # the library's bound, not the CLI's


@pytest.mark.parametrize("command", ["reduce", "invariants"])
@pytest.mark.parametrize("retries", ["-1", str(MAX_RETRIES + 1)])
def test_retry_budget_outside_its_range_is_an_input_error(airy_doc, capsys,
                                                          command, retries):
    argv = [command, airy_doc, "--max-retries", retries]
    err = run(capsys, argv, 1)["error"]
    assert err["type"] == "InputError" and "bound" in err["message"]


def test_truncated_airy_stops_at_the_order_bound(tmp_path, capsys):
    # the data ends at x^4, so every attempt verifies to degree 2 only:
    # from order 130 the one retry runs at 256, the next would pass the
    # bound, and the last failure comes back with retries to spare
    doc = serialize_system(sys1([[0, 1], [{1: 1}, 0]], 1))
    doc["trunc"] = [4]
    path = write_json(tmp_path / "airy4.json", doc)
    argv = ["reduce", path, "--order", "130",
            "--max-retries", str(MAX_RETRIES)]
    err = run(capsys, argv, 3)["error"]
    assert err["type"] == "TruncationInsufficient"
    assert err["message"] == "solution verified only to total degree 2"


# seed 584 asks the cofactor solve for depth 2N from a window of N + 1;
# no larger N closes that gap, so reduce gives up without a retry
def test_window_that_never_fits_exits_three_at_once(tmp_path, capsys):
    S, _ = generate_equivalent(584, {"n": 3, "d": 3, "p": [2, 2, 0],
                                     "ramified": True})
    path = write_json(tmp_path / "584.json", serialize_system(S))
    start = time.perf_counter()
    err = run(capsys, ["reduce", path, "--order", "8"], 3)["error"]
    assert time.perf_counter() - start < 30
    assert err["type"] == "TruncationInsufficient"
    assert "cofactor solve" in err["message"]


class ClosedPipe:
    """A stdout whose reader has gone away; fileno is a temporary file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,code", [
    (["reduce", "--pretty"], 0),
    (["reduce", "--order", "0"], 1),
], ids=["output", "error"])
def test_broken_pipe_keeps_the_exit_code(airy_doc, tmp_path, monkeypatch,
                                         argv, code):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(argv[:1] + [airy_doc] + argv[1:]) == code
    finally:
        os.close(fd)
