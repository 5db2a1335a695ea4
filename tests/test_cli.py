"""Command-line tests: exit codes and the JSON error object."""

import copy
import json
import os
import sys
import time
from fractions import Fraction

import pytest

from pfaffred import (cli, fmfs, parse_system, serialize_solution,
                      serialize_system)
from pfaffred.cli import main
from pfaffred.docio import (MAX_DIMENSION, MAX_GAUGE_DEGREE, MAX_GAUGE_OPS,
                            MAX_LITERAL_DIGITS, MAX_POINCARE_RANK,
                            MAX_VARIABLES, generate_equivalent)
from pfaffred.errors import InputError
from pfaffred.reduction import MAX_ORDER, MAX_RETRIES, check_order
from pfaffred.scalars import QQ

from helpers import (
    MERGE_CASES, dense_grid, hyper_system, kron_system, merge_system,
    mixed_system, non_integrable_docs, sys1,
)


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


def test_main_builds_one_parser_for_many_calls(tmp_path, capsys,
                                               monkeypatch):
    # calls with different subcommands share the parser the first one
    # builds, and each prints what it prints with a parser of its own
    doc = write_json(tmp_path / "hyper.json", serialize_system(hyper_system()))
    argvs = [["check", doc], ["generate", "--seed", "3", "--d", "2"],
             ["rank-reduce", doc, "--pretty"]]
    alone = []
    for argv in argvs:
        cli._parser.cache_clear()
        alone.append((main(argv), capsys.readouterr().out))
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli._parser.cache_clear()
    try:
        together = [(main(argv), capsys.readouterr().out) for argv in argvs]
    finally:
        cli._parser.cache_clear()
    assert together == alone
    assert built.count("pfaffred") == 1


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
    ("C", [None]),
    (None, 5),
], ids=["Phi-list", "Phi-entries", "C", "Q", "vars", "structure",
        "structure-branch", "C-null", "document"])
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


def test_deeply_nested_document_is_an_input_error(airy_doc, tmp_path,
                                                  capsys):
    # the JSON parser recurses once per level; 100000 levels used to end
    # check and verify in a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (["check", str(deep)], ["verify", airy_doc, str(deep)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["type"] == "InputError"
        assert err == ""


def test_structure_deeper_than_its_splits_is_an_input_error(tmp_path,
                                                             capsys):
    # a split divides a block, so a d x d solution nests at most d - 1
    # splits; 700 nested splits used to end verify in a RecursionError
    # traceback from the structure parser
    S = sys1([[{0: 1}, 0], [0, {0: 2}]], 1)
    doc = serialize_solution(fmfs(S, order=4)[0], S.vars)
    system = write_json(tmp_path / "diag.json", serialize_system(S))
    structure = ["regular", 1]
    for _ in range(700):
        structure = ["split", 0, 1, structure]
    doc["structure"] = structure
    assert main(["verify", system,
                 write_json(tmp_path / "deep.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "type": "InputError",
        "message": "structure nests more splits than d - 1"}
    assert err == ""


MISSING = object()
COEFF = ("A", 0, 0, 0, 0, "coeff")


def edited(doc, path, value):
    """A copy of doc with the item at path (keys and indices) set to
    value, or removed when value is MISSING; value itself for an empty
    path."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    at = doc
    for key in head:
        at = at[key]
    if value is MISSING:
        del at[last]
    else:
        at[last] = value
    return doc


# one case per InputError the parsers and generate raise that no other
# test reaches: each exits 1 with the JSON error object and no traceback
@pytest.mark.parametrize("document,path,value,message", [
    ("system", COEFF, 1.5, "bad scalar: 1.5"),
    ("system", COEFF, None, "bad scalar: None"),
    ("system", COEFF, "1/0", "bad rational literal: '1/0'"),
    ("system", COEFF, ["1", "2"],
     "scalar has 2 coefficients but the declared field has degree 1"),
    ("system", ("A", 0, 0, 0), 5, "series entry must be a list of terms"),
    ("system", COEFF, MISSING, "bad series term: {'exp': [0, 1]}"),
    ("system", ("A", 0, 0, 0, 0, "exp"), [-1, 0],
     "input entries must be polynomial (no poles)"),
    ("system", ("trunc",), [4],
     "trunc must be null or one bound per variable"),
    ("system", (), [], "system document must be a JSON object"),
    ("system", ("A",), MISSING, "missing document key: 'A'"),
    ("system", ("A", 1), MISSING, "A must hold one matrix per variable"),
    ("system", ("A", 0, 1), MISSING, "each matrix must be 2x2, row-major"),
    ("solution", ("C",), MISSING, "missing solution key: 'C'"),
    ("solution", ("d",), 0, "d must be a positive integer"),
    ("solution", ("Q", 0, 0), 5, "Q needs one dict per diagonal slot"),
    ("solution", ("Q", 0, 0), {"1": "1"}, "q exponents must be negative"),
    ("generate", ("--p=-1",), None,
     "shape.p must list one nonnegative rank per variable"),
    ("generate", ("--ramified", "--d", "1"), None,
     "a ramified plant needs d >= 2 and p_1 >= 1"),
], ids=["float", "null", "zero-denominator", "coefficient-count",
        "series-entry", "term-keys", "negative-exponent", "trunc-length",
        "system-document", "system-key", "matrix-count", "matrix-shape",
        "solution-key", "solution-d", "q-slot", "q-exponent",
        "generate-p", "generate-ramified"])
def test_input_refusal_exits_one_with_its_message(tmp_path, capsys, document,
                                                  path, value, message):
    if document == "generate":
        argv = ["generate", *path]
    elif document == "system":
        doc = serialize_system(hyper_system())
        argv = ["check", write_json(tmp_path / "bad.json",
                                    edited(doc, path, value))]
    else:
        S = sys1([[{0: 1}, 0], [0, {0: 2}]], 1)
        doc = serialize_solution(fmfs(S, order=4)[0], S.vars)
        argv = ["verify", write_json(tmp_path / "diag.json",
                                     serialize_system(S)),
                write_json(tmp_path / "bad.json", edited(doc, path, value))]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "InputError",
                                        "message": message}
    assert err == ""


# a solution of another dimension used to end verify in a raw IndexError
# (a d = 2 solution for a d = 3 system) or a DimensionError about a product
@pytest.mark.parametrize("system_shape,solution_shape", [
    ((3, "2,1"), (2, "2,1")),
    ((2, "2,1"), (3, "2,1")),
    ((2, "2,1"), (2, "2")),
], ids=["d3-system-d2-solution", "d2-system-d3-solution", "variables"])
def test_solution_of_another_dimension_is_an_input_error(
        tmp_path, capsys, system_shape, solution_shape):
    def generated(name, shape):
        d, p = shape
        return write_json(tmp_path / name, run(capsys, [
            "generate", "--seed", "0", "--d", str(d), "--p", p]))

    system = generated("system.json", system_shape)
    sol = write_json(tmp_path / "solution.json", run(capsys, [
        "reduce", generated("source.json", solution_shape)]))
    err = run(capsys, ["verify", system, sol], 1)["error"]
    assert err["type"] == "InputError"
    for d, p in (system_shape, solution_shape):
        assert f"{len(p.split(','))} variables and d = {d}" in err["message"]


def coefficients(doc):
    """Every scalar a solution document holds: Phi, C and Q."""
    out = [t["coeff"] for row in doc["Phi"]["entries"] for entry in row
           for t in entry]
    out += [x for c in doc["C"] for row in c for x in row]
    out += [c for qs in doc["Q"] for q in qs for c in q.values()]
    return out


# systems over Q whose solutions live in Q(sqrt 2); a rational coefficient
# of such a solution prints as a string, as it does over Q
@pytest.mark.parametrize("build,verified", [
    (mixed_system, 7),
    (kron_system, "inf"),
], ids=["mixed", "kron"])
def test_extension_solution_reduces_and_verifies(tmp_path, capsys, build,
                                                 verified):
    system = write_json(tmp_path / "system.json", serialize_system(build()))
    out = run(capsys, ["reduce", system, "--order", "8"])
    doc = out["solution"]
    assert doc["minpoly"] == ["-2", "0", "1"]
    assert out["verified_to_order"] == doc["verified_to_order"] == verified
    sol = write_json(tmp_path / "solution.json", out)
    assert run(capsys, ["verify", system, sol]) == {
        "ok": True, "verified_to_order": verified, "per_component": [
            {"component": 0, "ok": True, "verified_to": verified}]}
    coeffs = coefficients(doc)
    assert any(isinstance(c, list) for c in coeffs)
    for c in coeffs:
        if isinstance(c, list):
            assert c[1] != "0", "a rational printed as a coefficient list"
        else:
            assert isinstance(c, str)


def _set_q(doc, q):
    doc["solution"]["Q"][0][0] = q


def _declare_fields(system, solution):
    system["minpoly"] = ["-2", "0", "1"]
    solution["solution"]["minpoly"] = ["-3", "0", "1"]


# each edit of Airy's reduce output no longer fits the system; verify
# used to exit 2 on each, as if the algorithms could not handle it
@pytest.mark.parametrize("edit,named", [
    (lambda system, sol: _set_q(sol, {"-1/3": "2"}), "-1/3"),
    (lambda system, sol: _set_q(sol, {"-7": "2"}), "-7"),
    (_declare_fields, "'-3', '0', '1'"),
    (lambda system, sol: _set_q(sol, {"-2/4": "99", "-1/2": "2"}), "-1/2"),
], ids=["q-off-grid", "q-below-pole-order", "field-mismatch",
        "q-repeated"])
def test_solution_that_does_not_fit_is_an_input_error(tmp_path, capsys,
                                                      edit, named):
    system = serialize_system(sys1([[0, 1], [{1: 1}, 0]], 1))
    sol = run(capsys, ["reduce", write_json(tmp_path / "airy.json", system)])
    assert sol["solution"]["s"] == [2]
    edit(system, sol)
    err = run(capsys, ["verify", write_json(tmp_path / "system.json", system),
                       write_json(tmp_path / "solution.json", sol)],
              1)["error"]
    assert err["type"] == "InputError"
    assert named in err["message"]


# a scalar system with p = 10^8 used to hang in the reduction
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


# check on a d = 1 document of n zero matrices took about n^3 time: 7 s
# at n = 200, so a 20 KB document ran for minutes
@pytest.mark.parametrize("command", ["check", "generate"])
def test_variable_count_is_bounded(tmp_path, capsys, command):
    def argv(n):
        if command == "generate":
            return ["generate", "--d", "1", "--p", ",".join(["0"] * n)]
        return ["check", write_json(tmp_path / "n.json", {
            "vars": [f"x{i + 1}" for i in range(n)], "d": 1, "p": [0] * n,
            "A": [[[[]]]] * n})]

    assert "error" not in run(capsys, argv(MAX_VARIABLES))
    n = MAX_VARIABLES + 1
    start = time.perf_counter()
    assert main(argv(n)) == 1
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "type": "InputError",
        "message": f"n = {n} exceeds the bound {MAX_VARIABLES}"}
    assert err == ""


# json.loads refuses an integer literal of more than 4300 digits with a
# plain ValueError, which check printed as a traceback; Fraction reads
# "1e100000" as an integer of 100001 digits, which reduce printed as a
# traceback, and "1e10000000" took seconds to parse.  Each literal is
# JSON text put in place of one coefficient of Airy's system, or of the
# first q slot of its solution
@pytest.mark.parametrize("command,literal", [
    ("check", "7" * 5000),
    ("reduce", '"1e100000"'),
    ("check", '"1e10000000"'),
    ("check", '"1.5"'),
    ("check", '" 1"'),
    ("verify", '{"-1e100000": "1"}'),
    ("verify", '{"-1/2": -' + "7" * 5000 + "}"),
    ("check", "7" * (MAX_LITERAL_DIGITS + 1)),
    ("check", '"1/' + "7" * (MAX_LITERAL_DIGITS + 1) + '"'),
], ids=["long-integer", "exponent", "huge-exponent", "decimal", "space",
        "q-exponent", "q-long-integer", "digits-bound", "denominator-bound"])
def test_literal_beyond_p_or_p_over_q_is_an_input_error(tmp_path, capsys,
                                                        command, literal):
    system = serialize_system(sys1([[0, 1], [{1: 1}, 0]], 1))
    path = write_json(tmp_path / "system.json", system)
    if command == "verify":
        doc = run(capsys, ["reduce", path])
        doc["solution"]["Q"][0][0] = "EDIT"
        argv = [command, path, str(tmp_path / "edited.json")]
    else:
        doc = system
        doc["A"][0][0][1][0]["coeff"] = "EDIT"
        argv = [command, str(tmp_path / "edited.json")]
    (tmp_path / "edited.json").write_text(
        json.dumps(doc).replace('"EDIT"', literal))
    start = time.perf_counter()
    err = run(capsys, argv, 1)["error"]
    assert time.perf_counter() - start < 1
    assert err["type"] == "InputError"


def test_literal_at_the_digits_bound_parses():
    doc = serialize_system(sys1([[0, 1], [{1: 1}, 0]], 1))
    doc["A"][0][0][1][0]["coeff"] = "-" + "7" * MAX_LITERAL_DIGITS
    assert parse_system(json.dumps(doc)).A[0].rows[0][1].terms


# coefficients grow through the reduction: x^2 F' = [[1 + N x, 1],
# [2, 5 + x]] F with N of 300 digits, well inside the literal bound, has
# a solution coefficient past the interpreter's 4300-digit limit on
# printing integers, which reduce printed as a ValueError traceback
def test_coefficient_too_long_to_print_is_an_input_error(tmp_path, capsys):
    N = int("7" * 300)
    S = sys1([[{0: 1, 1: N}, 1], [2, {0: 5, 1: 1}]], 1)
    doc = write_json(tmp_path / "long.json", serialize_system(S))
    err = run(capsys, ["reduce", doc], 1)["error"]
    assert err["type"] == "InputError" and "4300" in err["message"]
    with pytest.raises(InputError, match="limit on printing"):
        serialize_system(sys1([[10 ** 5000]], 0))


def test_verify_refuses_c_coupling_distinct_exponential_parts(tmp_path,
                                                              capsys):
    # x^C e^Q with C = [[0, 1], [0, 0]] and q = (1/x, 2/x) misses the
    # (1, 2) entry by log(x) e^(2/x); verify used to report ok to inf
    S = sys1([[-1, {1: 1}], [0, -2]], 1)
    system = write_json(tmp_path / "system.json", serialize_system(S))
    one = [{"exp": [0], "coeff": "1"}]
    sol = write_json(tmp_path / "solution.json", {
        "vars": ["x"], "d": 2, "s": [1],
        "Phi": {"entries": [[one, []], [[], one]]},
        "C": [[["0", "1"], ["0", "0"]]],
        "Q": [[{"-1": "1"}, {"-1": "2"}]]})
    err = run(capsys, ["verify", system, sol], 1)["error"]
    assert err["type"] == "InputError"
    assert "distinct exponential parts" in err["message"]


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


# residue Diag(0, 1) with an x coupling: the solution needs a logarithm,
# which x^C cannot carry, so no verified solution exists to print
def test_resonant_system_exits_two(tmp_path, capsys):
    doc = write_json(tmp_path / "resonant.json", serialize_system(
        sys1([[0, 0], [{1: 1}, 1]], 0)))
    err = run(capsys, ["reduce", doc], 2)["error"]
    assert err["type"] == "ResonanceError"


# the same system is regular from the start: its exponential parts are
# fixed at rank 0, before the endgame meets the resonance
def test_resonant_system_has_trivial_exponential_parts(tmp_path, capsys):
    doc = write_json(tmp_path / "resonant.json", serialize_system(
        sys1([[0, 0], [{1: 1}, 1]], 0)))
    out = run(capsys, ["invariants", doc])
    assert out["omega"] == ["0"]
    assert out["Q"] == [{"var": 0, "s": 1, "q": [{}, {}]}]


# invariants reduced only the associated univariate systems, which are
# always integrable, and exited 0 on these; check, reduce and invariants
# now refuse them alike, while rank-reduce, defined for any system, runs
@pytest.mark.parametrize("name", ["scalar", "plant"])
def test_non_integrable_system_is_refused_with_one_message(tmp_path, capsys,
                                                           name):
    doc = write_json(tmp_path / f"{name}.json", non_integrable_docs()[name])
    errors = [run(capsys, [command, doc], 1)["error"]
              for command in ("check", "reduce", "invariants")]
    assert errors[0]["type"] == "NonIntegrableError"
    assert errors[0]["message"].endswith(
        "pair (x, y)" if name == "scalar" else "pair (x1, x2)")
    assert errors[1] == errors[0] and errors[2] == errors[0]
    assert "system" in run(capsys, ["rank-reduce", doc])


# a split over Q whose blocks each need Q(sqrt 2) used to exit 2: the
# blocks were reduced in two fields that did not join at the merge
@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_split_blocks_sharing_a_field_reduce_and_verify(tmp_path, capsys,
                                                        case):
    doc = write_json(tmp_path / "merge.json",
                     serialize_system(merge_system(*MERGE_CASES[case])))
    sol = write_json(tmp_path / "merge.solution.json",
                     run(capsys, ["reduce", doc, "--order", "8"]))
    assert run(capsys, ["verify", doc, sol])["ok"] is True


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


# every characteristic polynomial takes O(d^4) operations: a dense d = 12
# system reaches its answer in about a second, where a Laplace expansion
# memoized on column sets took half a minute
def test_dense_system_reaches_its_exit_code_quickly(tmp_path, capsys):
    doc = write_json(tmp_path / "dense.json", serialize_system(
        sys1(dense_grid(12), 1)))
    start = time.perf_counter()
    err = run(capsys, ["invariants", doc], 2)["error"]
    assert time.perf_counter() - start < 10
    assert err["type"] == "FieldExtensionError"


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


def test_pretty_q_parenthesizes_coefficients_outside_q(tmp_path, capsys):
    # the ramified-4/3 pin: two of its q's have coefficients in Q(a), and
    # a rational coefficient still loses its sign to the joining " - "
    doc = write_json(tmp_path / "r43.json", serialize_system(
        sys1([[0, 1, 0], [0, 0, 1], [{2: 1}, 0, {1: 1}]], 2)))
    q1 = "-3/4/x^(4/3) - 1/3/x - 1/6/x^(2/3) - 2/27/x^(1/3)"
    q3 = ("(3/4 + 1/4*a)/x^(4/3) - 1/3/x + (-1/18*a)/x^(2/3)"
          " + (2/27 + 2/81*a)/x^(1/3)")
    for command, prefix in (("reduce", "q_{}(x) = "),
                            ("invariants", "  q_{} = ")):
        assert main([command, doc, "--order", "8", "--pretty"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert prefix.format(1) + q1 in lines
        assert prefix.format(3) + q3 in lines
    K = QQ.adjoin([-2, 0, 1])
    a_minus_1 = K.from_coeffs((-1, 1))
    assert cli._fmt_q({Fraction(-1): a_minus_1}, "x") == "(-1 + a)/x"


# x^2 F' = [[0, 1], [2, 0]] F has q = -+sqrt(2)/x: invariants writes the
# q's and their field as the solution document does, and --pretty names
# the field of a wherever it prints a value in it
def test_irrational_qs_name_their_field(tmp_path, capsys):
    doc = write_json(tmp_path / "sqrt2.json", serialize_system(
        sys1([[0, 1], [2, 0]], 1)))
    sol = run(capsys, ["reduce", doc])["solution"]
    [entry] = run(capsys, ["invariants", doc])["Q"]
    assert entry == {"var": 0, "s": 1, "q": sol["Q"][0],
                     "minpoly": sol["minpoly"]}
    assert entry["minpoly"] == ["-2", "0", "1"]
    for command in ("reduce", "invariants"):
        assert main([command, doc, "--pretty"]) == 0
        assert "a: root of -2 + a^2" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--ramified"]],
                         ids=["split", "ramified"])
def test_generate_expects_the_qs_invariants_finds(tmp_path, capsys, flags):
    doc = run(capsys, ["generate", "--seed", "1", "--d", "3", "--p", "2,1"]
              + flags)
    got = run(capsys, ["invariants", write_json(tmp_path / "g.json", doc)])

    def slots(qs):
        return sorted(json.dumps(q, sort_keys=True) for q in qs)

    want = doc["expected"]
    assert got["omega"] == want["omega"] and got["p_true"] == want["p_true"]
    assert [e["s"] for e in got["Q"]] == want["s"]
    assert [slots(e["q"]) for e in got["Q"]] == [slots(qs)
                                                  for qs in want["Q"]]
