"""Record the outputs of a pfaffred checkout, so two checkouts compare.

    python3 tests/same_outputs.py CHECKOUT OUT.json

CHECKOUT is the root of a source checkout (its src/ holds the package it
imports, its perfbench/ the corpus it reads); helpers comes from the
script's own directory, so one script feeds every checkout the same
systems.  OUT.json maps each entry to what the checkout gave for it:

- every solve-corpus item of perfbench/corpus.py (split, ramified,
  regular) at corpus seeds 0-2: the solution and trace fingerprints of
  fmfs, its final working order and its retry count, or the error it
  raised;
- every item of the cli-invariants workload at corpus seeds 0-2: its
  exit code and stdout;
- each of the 150 random systems of helpers.random_grids(150, 11) (R150
  in tests/test_driver.py): fmfs's fingerprints, final order and retry
  count, and exponential_parts' s and Q at order 8, or the error each
  raised;
- the dense systems sys1(helpers.dense_grid(d), 1) at d = 6 and 8: the
  same two outcomes at order 10;
- the two systems of helpers.jordan_systems(), whose residues are
  Jordan blocks: the same two outcomes at order 8;
- every system in two or more variables of the solve corpus and of the
  cli-invariants documents at corpus seeds 0-2, and a copy of each with
  x_1...x_n added to the last entry of the first row of A_1:
  check_integrability's passed, (i, j, row, col) and the total degree of
  worst's exponent, and its window.

Two checkouts have the same outputs when their files are equal; compare
them with `cmp` or `diff`.  The script also prints, per module of the
package, its line count, its code lines (blank, comment and docstring
lines not counted, so dropping a comment does not move it) and its
marshalled bytecode size, len(marshal.dumps(compile(source))), which
tracks the benchmark's set-up memory peak.

Not collected by pytest; it takes about a minute.
"""

import ast
import importlib
import json
import marshal
import os
import sys
import tempfile
import types

SEEDS = (0, 1, 2)
SOLVE_WORKLOADS = ("split", "ramified", "regular")
DENSE = (6, 8)
MODULES = ("scalars", "series", "linalg", "system", "reduction",
           "invariants", "driver", "docio", "cli")


def code_lines(text):
    """Lines of the source text that are neither blank, nor a comment,
    nor part of a module, class or function docstring (found by ast)."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and i not in docs)


def module_sizes(src):
    """(file, lines, code lines, marshalled bytes) per module of the
    package."""
    pkg = os.path.join(src, "pfaffred")
    out = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                text = fh.read()
            out.append((name, text.count("\n"), code_lines(text),
                        len(marshal.dumps(compile(text, name, "exec")))))
    return out


def error(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


def solved(run):
    """fmfs's fingerprints, final working order and retry count, or the
    error it raised."""
    try:
        sol, trace = run()
    except Exception as exc:  # every outcome is recorded, none is judged
        return error(exc)
    return {"solution": sol.fingerprint(), "trace": trace.fingerprint(),
            "verified_to": str(sol.verified_to), "order": trace.order,
            "retries": trace.retries}


def parts(pf, S, order):
    try:
        s, Q = pf.invariants.exponential_parts(S, order=order)
    except Exception as exc:
        return error(exc)
    return {"s": s, "Q": [[sorted((str(e), str(c)) for e, c in q.items())
                          for q in qs] for qs in Q]}


def integrability(pf, S):
    """check_integrability's outcome on S, worst's exponent by degree."""
    rep = pf.system.check_integrability(S)
    w = rep.worst
    return {"passed": rep.passed, "at": w and list(w[:4]),
            "degree": w and sum(w[4]), "window": [str(h) for h in rep.window]}


def perturbed(pf, S):
    """S with x_1...x_n added to the last entry of the first row of A_1."""
    A = [pf.linalg.SeriesMatrix(M.rows, S.n, S.tower) for M in S.A]
    row = A[0].rows[0]
    row[-1] = row[-1] + pf.series.Series.monomial(S.n, (1,) * S.n, 1, S.tower)
    return pf.system.PfaffianSystem(S.vars, S.p, A, S.tower)


def record(pf, corpus, helpers):
    out = {}
    for seed in SEEDS:
        systems = [(f"{workload}/{seed}/{id_}", S)
                   for workload in SOLVE_WORKLOADS
                   for id_, S, _, _ in corpus.solve_inputs(pf, workload, seed)]
        systems += [(f"cli-invariants/{seed}/{name}", S)
                    for name, S, _ in corpus.cli_inputs(pf, seed)]
        for key, S in systems:
            if S.n > 1:
                out[f"integrability/{key}"] = {
                    "system": integrability(pf, S),
                    "perturbed": integrability(pf, perturbed(pf, S))}
        for workload in SOLVE_WORKLOADS:
            for id_, S, order, _ in corpus.solve_inputs(pf, workload, seed):
                out[f"{workload}/{seed}/{id_}"] = solved(
                    lambda: pf.driver.fmfs(S, order=order))
        with tempfile.TemporaryDirectory() as docdir:
            for group in corpus.build(pf, "cli-invariants", seed, docdir):
                for item in group:
                    code, text = item.run()
                    try:        # the reduce check writes what verify reads
                        item.check((code, text))
                    except corpus.WrongAnswer:
                        pass
                    out[f"cli-invariants/{seed}/{item.id}"] = {
                        "code": code, "stdout": text}
    for k, (grid, p) in enumerate(helpers.random_grids(150, 11)):
        S = helpers.sys1(grid, p)
        out[f"R150/{k}"] = {
            "fmfs": solved(lambda: pf.driver.fmfs(S, order=8)),
            "exponential_parts": parts(pf, S, 8)}
    for d in DENSE:
        S = helpers.sys1(helpers.dense_grid(d), 1)
        out[f"dense/{d}"] = {
            "fmfs": solved(lambda: pf.driver.fmfs(S, order=10)),
            "exponential_parts": parts(pf, S, 10)}
    for name, S in helpers.jordan_systems().items():
        out[f"jordan/{name}"] = {
            "fmfs": solved(lambda: pf.driver.fmfs(S, order=8)),
            "exponential_parts": parts(pf, S, 8)}
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root, dest = (os.path.abspath(a) for a in argv)
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    importlib.import_module("pfaffred")
    pf = types.SimpleNamespace(**{
        m: importlib.import_module(f"pfaffred.{m}") for m in MODULES})
    import corpus
    import helpers
    out = record(pf, corpus, helpers)
    with open(dest, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"{len(out)} entries -> {dest}")
    sizes = module_sizes(src)
    totals = [sum(column) for column in list(zip(*sizes))[1:]]
    for name, lines, code, size in sizes + [("total", *totals)]:
        print(f"{name:16} {lines:5} lines {code:5} code lines "
              f"{size:7} bytes marshalled")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
