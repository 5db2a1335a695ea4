"""The benchmark's four workloads: their items, inputs and correctness gates.

A workload is a list of groups; a group is a list of items that must run
in order (the CLI `verify` reads what `reduce` of the same document
wrote).  An item is one call into the package whose output is checked
right after it returns.

The fixed systems are written out here as term maps, so the benchmark
does not depend on the test helpers.  Their solution fingerprints are
checked in; a generated plant is checked against the invariants its
generator planted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

WORKLOADS = ("split", "ramified", "regular", "cli-invariants")

# name -> (vars, p, one term map matrix per component); a cell maps an
# exponent tuple to an integer coefficient, {} is the zero entry.
FIXED = {
    "hyper": (["x1", "x2"], [3, 2], [
        [[{(3, 0): 1, (2, 0): 1, (0, 1): 1}, {(0, 2): 1}],
         [{(0, 0): -1}, {(3, 0): 1, (2, 0): 1, (0, 1): -1}]],
        [[{(0, 2): 1, (0, 1): -2, (0, 0): -6}, {(0, 3): 1}],
         [{(0, 1): -2}, {(0, 2): -3, (0, 1): -2, (0, 0): -6}]],
    ]),
    "shifted": (["x1", "x2"], [3, 1], [
        [[{(3, 0): 1, (0, 1): 1}, {(0, 2): 1}],
         [{(0, 0): -1}, {(3, 0): 1, (0, 1): -1}]],
        [[{(0, 1): 1}, {(0, 2): 1}],
         [{(0, 0): -2}, {(0, 1): -3}]],
    ]),
    "triple": (["x1", "x2", "x3"], [1, 2, 0], [
        [[{(2, 1, 1): 1, (1, 1, 1): -1, (1, 0, 0): 1, (0, 0, 0): -1},
          {(1, 0, 1): 1, (0, 0, 1): -1}],
         [{(1, 1, 0): 1, (2, 1, 0): -2, (2, 2, 1): 1, (3, 2, 1): -1},
          {(1, 1, 1): 1, (2, 1, 1): -1}]],
        [[{(1, 1, 1): 2, (0, 0, 0): 2, (1, 2, 1): 3, (0, 1, 0): 3},
          {(0, 0, 1): 2, (0, 1, 1): 3}],
         [{(2, 3, 1): -3, (2, 2, 1): -2, (1, 3, 0): -1, (1, 2, 0): -3,
           (1, 1, 0): -2},
          {(1, 1, 1): -2, (1, 2, 1): -3}]],
        [[{(0, 0, 0): 1}, {}],
         [{(1, 1, 0): -1}, {}]],
    ]),
    # Airy: y'' = x y as x^2 dF/dx = [[0, 1], [x, 0]] F
    "airy": (["x"], [1], [
        [[{}, {(0,): 1}],
         [{(1,): 1}, {}]],
    ]),
}

# PfaffianSystem.fingerprint() of each fixed system: the inputs are right
SYSTEM_FINGERPRINTS = {
    "hyper": "fd4d922694ca6e51",
    "shifted": "13ec1526c14fc06d",
    "triple": "7232b4e451b09392",
    "airy": "9cfd8ab4107aa3ce",
}

# FormalSolution.fingerprint() of fmfs(system, order): the outputs are right
SOLUTION_FINGERPRINTS = {
    ("triple", 10): "d2b27dae50b3b8aa",
    ("airy", 8): "70176170dcec73e1",
    ("hyper", 10): "3bb120b2e32a07df",
    ("shifted", 10): "1632fc94083cb4fa",
}


def _shape(n, d, p, ramified=False):
    return {"n": n, "d": d, "p": list(p), "ramified": ramified}


# Per solve workload: fixed systems (name, order), then planted shapes
# (generator seed, shape, order).  The generator seeds are those of
# corpus seed 0; another corpus seed moves every one of them to a
# hold-out seed of the same shape.
SOLVE_CORPUS = {
    "split": (
        [("triple", 10)],
        [(2, _shape(2, 4, [1, 1]), 8),
         (0, _shape(2, 4, [1, 1]), 8),
         (1, _shape(2, 3, [1, 1]), 8),
         (3, _shape(3, 3, [1, 1, 0]), 8),
         (1, _shape(2, 3, [2, 1]), 8)],
    ),
    # seed 1 of the d=3 ramified shape (about 34 s alone) is left out: one
    # pass of it would not fit in one run of the benchmark
    "ramified": (
        [("airy", 8)],
        [(3, _shape(2, 2, [2, 1], True), 8),
         (0, _shape(2, 3, [2, 1], True), 8),
         (3, _shape(2, 3, [2, 1], True), 8),
         (1, _shape(1, 3, [2], True), 8)],
    ),
    "regular": (
        [("hyper", 10), ("shifted", 10)],
        [(0, _shape(3, 3, [0, 0, 0]), 8),
         (1, _shape(3, 3, [0, 0, 0]), 8),
         (2, _shape(3, 3, [0, 0, 0]), 8),
         (0, _shape(3, 4, [0, 0, 0]), 8),
         (1, _shape(3, 4, [0, 0, 0]), 8),
         (0, _shape(2, 4, [0, 0]), 8),
         (1, _shape(2, 4, [0, 0]), 8)],
    ),
}

CLI_FIXED = ("hyper", "shifted", "airy")
CLI_PLANT_SEEDS = (0, 1, 2, 3)
CLI_PLANT_SHAPE = _shape(2, 3, [2, 1])
CLI_COMMANDS = ("check", "invariants", "rank-reduce", "reduce", "verify",
                "generate")
HOLDOUT_STRIDE = 97


class WrongAnswer(Exception):
    """An item returned, but not the answer the gate expects."""


class Item:
    """One call into the package, and the check of what it returned."""

    __slots__ = ("id", "kind", "run", "check")

    def __init__(self, id, kind, run, check):
        self.id = id
        self.kind = kind
        self.run = run
        self.check = check


def plant_seed(seed, corpus_seed):
    return seed + HOLDOUT_STRIDE * corpus_seed


def fixed_system(pf, name):
    vars_, p, mats = FIXED[name]
    n = len(vars_)
    QQ, Series = pf.scalars.QQ, pf.series.Series

    def entry(cell):
        return Series(n, {e: QQ.scalar(c) for e, c in cell.items()}, QQ)

    A = [pf.linalg.SeriesMatrix([[entry(c) for c in row] for row in grid],
                                n, QQ)
         for grid in mats]
    return pf.system.PfaffianSystem(vars_, p, A, QQ)


def q_canonical(qs):
    """Order-free form of one variable's slot dicts, zero terms dropped."""
    return sorted(tuple(sorted((str(e), str(c)) for e, c in q.items()
                               if not c.is_zero()))
                  for q in qs)


def check_planted(sol, planted):
    """The reduction recovered the planted Q multiset, s and omega."""
    if sol.verified_to is None:
        raise WrongAnswer("solution was not residual-verified")
    if sol.s != planted["s"]:
        raise WrongAnswer(f"s {sol.s} != planted {planted['s']}")
    if sol.omega() != planted["omega"]:
        raise WrongAnswer(f"omega {sol.omega()} != planted {planted['omega']}")
    for i, (got, want) in enumerate(zip(sol.Q, planted["Q"])):
        if q_canonical(got) != q_canonical(want):
            raise WrongAnswer(f"Q of variable {i + 1} differs from the plant")


def check_fingerprint(sol, want):
    if sol.verified_to is None:
        raise WrongAnswer("solution was not residual-verified")
    got = sol.fingerprint()
    if got != want:
        raise WrongAnswer(f"solution fingerprint {got} != {want}")


def solve_inputs(pf, workload, corpus_seed):
    """(item id, system, order, check of the solution) per solve item."""
    fixed, plants = SOLVE_CORPUS[workload]
    out = []
    for name, order in fixed:
        want = SOLUTION_FINGERPRINTS[(name, order)]
        out.append((f"{name}@{order}", fixed_system(pf, name), order,
                    lambda sol, want=want: check_fingerprint(sol, want)))
    for seed, shape, order in plants:
        g = plant_seed(seed, corpus_seed)
        S, planted = pf.docio.generate_equivalent(g, shape)
        label = "r" if shape["ramified"] else "g"
        p = "".join(map(str, shape["p"]))
        out.append((f"{label}{g}:n{shape['n']}d{shape['d']}p{p}@{order}", S,
                    order, lambda sol, planted=planted: check_planted(
                        sol, planted)))
    return out


def cli_inputs(pf, corpus_seed):
    """(document name, system, planted invariants or None) per document."""
    docs = [(name, fixed_system(pf, name), None) for name in CLI_FIXED]
    for seed in CLI_PLANT_SEEDS:
        g = plant_seed(seed, corpus_seed)
        S, planted = pf.docio.generate_equivalent(g, CLI_PLANT_SHAPE)
        docs.append((f"plant{g}", S, planted))
    return docs


def _solve_groups(pf, workload, corpus_seed):
    inputs = solve_inputs(pf, workload, corpus_seed)
    return [[Item(id_, "fmfs",
                  lambda S=S, order=order: pf.driver.fmfs(S, order=order),
                  lambda out, check=check: check(out[0]))]
            for id_, S, order, check in inputs]


def _cli_call(pf, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pf.cli.main(argv)
    return code, buf.getvalue()


def _cli_payload(out, want_code=0):
    code, text = out
    if code != want_code:
        raise WrongAnswer(f"exit code {code}, expected {want_code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"output is not JSON: {exc}") from None


def _cli_groups(pf, corpus_seed, docdir):
    groups = []
    for name, S, planted in cli_inputs(pf, corpus_seed):
        path = os.path.join(docdir, f"{name}.json")
        sol_path = os.path.join(docdir, f"{name}.solution.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pf.docio.serialize_system(S), fh)
        omega = None if planted is None else [str(w) for w in planted["omega"]]

        def check_check(out):
            if _cli_payload(out).get("integrable") is not True:
                raise WrongAnswer("check did not report integrable")

        def check_invariants(out, omega=omega):
            got = _cli_payload(out).get("omega")
            if got is None or (omega is not None and got != omega):
                raise WrongAnswer(f"omega {got} != planted {omega}")

        def check_rank_reduce(out):
            if "system" not in _cli_payload(out):
                raise WrongAnswer("rank-reduce returned no system")

        def check_reduce(out, sol_path=sol_path):
            if "solution" not in _cli_payload(out):
                raise WrongAnswer("reduce returned no solution")
            with open(sol_path, "w", encoding="utf-8") as fh:
                fh.write(out[1])

        def check_verify(out):
            if _cli_payload(out).get("ok") is not True:
                raise WrongAnswer("verify did not accept the reduce output")

        groups.append([
            Item(f"check:{name}", "check",
                 lambda path=path: _cli_call(pf, ["check", path]),
                 check_check),
            Item(f"invariants:{name}", "invariants",
                 lambda path=path: _cli_call(pf, ["invariants", path]),
                 check_invariants),
            Item(f"rank-reduce:{name}", "rank-reduce",
                 lambda path=path: _cli_call(pf, ["rank-reduce", path]),
                 check_rank_reduce),
            Item(f"reduce:{name}", "reduce",
                 lambda path=path: _cli_call(pf, ["reduce", path]),
                 check_reduce),
            Item(f"verify:{name}", "verify",
                 lambda path=path, sol_path=sol_path: _cli_call(
                     pf, ["verify", path, sol_path]),
                 check_verify),
        ])
    p_arg = ",".join(map(str, CLI_PLANT_SHAPE["p"]))
    for seed in CLI_PLANT_SEEDS:
        g = plant_seed(seed, corpus_seed)
        argv = ["generate", "--seed", str(g), "--d",
                str(CLI_PLANT_SHAPE["d"]), "--p", p_arg]

        def check_generate(out):
            doc = _cli_payload(out)
            if "A" not in doc or "expected" not in doc:
                raise WrongAnswer("generate returned no system document")

        groups.append([Item(f"generate:{g}", "generate",
                            lambda argv=argv: _cli_call(pf, argv),
                            check_generate)])
    return groups


def build(pf, workload, corpus_seed, docdir):
    """The workload's groups of items, with all inputs made.

    pf: namespace holding the package modules (scalars, series, linalg,
    system, docio, driver, cli); docdir: where the CLI workload writes
    its documents.
    """
    if workload == "cli-invariants":
        return _cli_groups(pf, corpus_seed, docdir)
    return _solve_groups(pf, workload, corpus_seed)
