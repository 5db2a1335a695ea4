"""Command-line front end.

Subcommands work on system documents (JSON files, "-" for stdin):

    check SYSTEM             integrability and shape report
    invariants SYSTEM        growth orders, true ranks, exponential parts
    rank-reduce SYSTEM       lower every Poincare rank to its minimal value
    reduce SYSTEM            full normal-form reduction with solution output
    verify SYSTEM SOLUTION   residual-check a solution document
    generate                 seeded equivalent system with planted answers

Options:
    --order N            invariants, rank-reduce, reduce: truncation order
                         (default 10)
    --pretty             every subcommand: human-readable output instead
                         of JSON
    --max-retries N      invariants, reduce: restarts at a larger working
                         order after a truncation failure (default 4).  A
                         restart adds the degrees the residual check fell
                         short by, or doubles the order when the failure
                         reports no verified degree;
                         a failure that a larger order cannot mend, a
                         restart verifying no further than the one before,
                         or a restart past MAX_ORDER, exits 3 at once
    --trace              reduce: include the full step log
    --seed, --d, --p, --ramified, --gauge-ops, --gauge-degree
                         generate: seed, dimension, comma-separated
                         Poincare ranks, a ramified plant, and the number
                         and degree of the obfuscating row operations
    --help, --version    print and exit 0

Exit codes: 0 success, 1 bad input (parse/schema/non-integrable, and
usage errors such as an unknown option or a malformed value), 2
structure the algorithms do not cover (non-free module, field
extension, resonance), 3 truncation budget exhausted.  Failures print
a machine-readable {"error": {"type", "message"}} object; usage errors
have the type InputError.

Input bounds, each refused with exit 1 before any work starts:
    --order             at least 1, at most reduction.MAX_ORDER (256),
                        which bounds every working order, retries included
    --max-retries       0 to reduction.MAX_RETRIES (8)
    d                   at most docio.MAX_DIMENSION (32)
    p_i                 at most docio.MAX_POINCARE_RANK (64), per variable
    --gauge-ops         at most docio.MAX_GAUGE_OPS (16), not negative
    --gauge-degree      at most docio.MAX_GAUGE_DEGREE (16), not negative
The d and p_i bounds hold for system documents and for generate.

Output cut short by the reader (`pfaffred reduce --pretty doc | head -1`)
is not an error: the rest goes to os.devnull and the command's own exit
code comes back.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .docio import (generate_equivalent, matrix_to_json, order_to_json,
                    parse_solution, parse_system, serialize_solution,
                    serialize_system)
from .driver import fmfs, verify_solution
from .errors import (ColumnModuleNotFree, DimensionError, FieldExtensionError,
                     InputError, NonIntegrableError, NotInvertibleError,
                     NotUnitError, ReductionError, ResonanceError,
                     RowModuleNotFree, TruncationInsufficient)
from .invariants import exponential_parts
from .reduction import MAX_RETRIES, rank_reduce
from .system import check_integrability

_INPUT_ERRORS = (InputError, NonIntegrableError, DimensionError)
_UNSUPPORTED = (ColumnModuleNotFree, RowModuleNotFree, FieldExtensionError,
                ResonanceError, NotInvertibleError, NotUnitError,
                ReductionError)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError instead of printing usage and
    exiting 2, which the exit-code contract reserves for structure."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _json_safe(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    return obj


def _render(payload, pretty_text, args):
    if args.pretty and pretty_text is not None:
        return pretty_text
    return json.dumps(_json_safe(payload), indent=2 if args.pretty else None)


def _error_text(exc):
    return json.dumps({"error": {"type": type(exc).__name__,
                                 "message": str(exc)}})


# -- pretty-printing helpers -------------------------------------------------


def _fmt_exp(var: str, e: Fraction) -> str:
    k = -e
    if k == 1:
        return var
    if k.denominator == 1:
        return f"{var}^{k}"
    return f"{var}^({k})"


def _fmt_q(q, var):
    """{-2: 3, -1: 2} over x2 -> '3/x2^2 + 2/x2'."""
    if not q:
        return "0"
    out = ""
    for e in sorted(q):
        c = str(q[e])
        sign = " + "
        if c.startswith("-"):
            sign, c = " - ", c[1:]
        term = f"{c}/{_fmt_exp(var, e)}"
        out += (sign if out else ("-" if sign == " - " else "")) + term
    return out


def _fmt_const_matrix(M):
    if M is None:
        return "(resonant: no exponent matrix)"
    return "[" + "; ".join(
        ", ".join(str(x) for x in row) for row in M.rows) + "]"


def _fmt_series(s, vars_):
    if s.is_zero():
        return "0"
    parts = []
    for e in sorted(s.terms, key=lambda e: (sum(e), e)):
        c = s.terms[e]
        if c.is_zero():
            continue
        mono = "*".join(f"{v}^{k}" if k > 1 else v
                        for v, k in zip(vars_, e) if k)
        cs = str(c)
        if mono:
            parts.append(f"({cs})*{mono}" if ("+" in cs or "-" in cs[1:]
                                              or "/" in cs) else
                         (mono if cs == "1" else
                          f"-{mono}" if cs == "-1" else f"{cs}*{mono}"))
        else:
            parts.append(cs)
    return " + ".join(parts).replace("+ -", "- ")


# -- subcommands -------------------------------------------------------------


def _cmd_check(args):
    S = parse_system(_read(args.system))
    rep = check_integrability(S)
    if not rep:
        i, j = rep.worst[0], rep.worst[1]
        raise NonIntegrableError(
            f"integrability residual at (i,j)=({i + 1},{j + 1})")
    payload = {
        "integrable": True,
        "vars": list(S.vars),
        "d": S.d,
        "p": list(S.p),
        "exact": S.exact,
        "window": rep.window,
    }
    text = (f"integrable: yes\nvars: {', '.join(S.vars)}\nd: {S.d}\n"
            f"p: {S.p}\nexact input: {S.exact}")
    return payload, text


def _cmd_invariants(args):
    S = parse_system(_read(args.system))
    parts = exponential_parts(S, order=args.order,
                              max_retries=args.max_retries)
    omega = [pt.omega() for pt in parts]
    p_true = [-((-w.numerator) // w.denominator) for w in omega]
    qs_x = []
    for i, pt in enumerate(parts):
        blocks = [{Fraction(-k, pt.s): c for k, c in q.items()}
                  for q in pt.qs]
        qs_x.append({"var": i, "s": pt.s,
                     "q": [{str(e): str(c) for e, c in sorted(b.items())}
                           for b in blocks]})
    payload = {"omega": [str(w) for w in omega], "p_true": p_true, "Q": qs_x}
    lines = [f"omega: ({', '.join(str(w) for w in omega)})",
             f"p_true: ({', '.join(str(x) for x in p_true)})"]
    for i, pt in enumerate(parts):
        v = S.vars[i]
        lines.append(f"{v}: s={pt.s}")
        for j, q in enumerate(pt.qs):
            qq = {Fraction(-k, pt.s): c for k, c in q.items()}
            lines.append(f"  q_{j + 1} = {_fmt_q(qq, v)}")
    return payload, "\n".join(lines)


def _cmd_rank_reduce(args):
    S = parse_system(_read(args.system))
    T, out, steps = rank_reduce(S, order=args.order)
    payload = {
        "p": list(out.p),
        "gauge": matrix_to_json(T),
        "steps": [{
            "kind": st["kind"],
            "component": st["component"],
            "matrix": None if st["gauge"] is None
            else matrix_to_json(st["gauge"].T),
            "p_before": st["p_before"],
            "p_after": st["p_after"],
        } for st in steps],
        "system": serialize_system(out),
    }
    lines = [f"p: {list(out.p)}", f"steps: {len(steps)}"]
    for st in steps:
        lines.append(f"  {st['kind']} on component {st['component']}: "
                     f"p {st['p_before']} -> {st['p_after']}")
    lines.append("gauge:")
    for row in T.rows:
        lines.append("  [" + ", ".join(_fmt_series(e, S.vars) for e in row)
                     + "]")
    return payload, "\n".join(lines)


def _cmd_reduce(args):
    S = parse_system(_read(args.system))
    sol, trace = fmfs(S, order=args.order, max_retries=args.max_retries)
    tdoc = trace.as_dict()
    if not args.trace:
        tdoc.pop("steps")
    payload = {
        "solution": serialize_solution(sol, S.vars),
        "trace": tdoc,
        "verified_to_order": order_to_json(sol.verified_to),
    }
    lines = [f"s: ({', '.join(str(x) for x in sol.s)})"]
    for i, v in enumerate(S.vars):
        for j, q in enumerate(sol.Q[i]):
            if q:
                lines.append(f"q_{j + 1}({v}) = {_fmt_q(q, v)}")
        lines.append(f"C_{i + 1} = {_fmt_const_matrix(sol.C[i])}")
    tvars = [v if sol.s[i] == 1 else f"{v}^(1/{sol.s[i]})"
             for i, v in enumerate(S.vars)]
    lines.append("Phi:")
    for row in sol.phi.rows:
        lines.append("  [" + ", ".join(_fmt_series(e, tvars) for e in row)
                     + "]")
    lines.append(f"verified to order: {order_to_json(sol.verified_to)}")
    if trace.retries:
        lines.append(f"retries: {trace.retries}")
    return payload, "\n".join(lines)


def _cmd_verify(args):
    S = parse_system(_read(args.system))
    sol = parse_solution(_read(args.solution))
    rep = verify_solution(S, sol)
    payload = {"ok": rep["ok"],
               "verified_to_order": order_to_json(rep["verified_to"]),
               "per_component": rep["per_component"]}
    text = (f"ok: {rep['ok']}\n"
            f"verified to order: {order_to_json(rep['verified_to'])}")
    return payload, text, (0 if rep["ok"] else 1)


def _cmd_generate(args):
    try:
        p = [int(x) for x in args.p.split(",")] if args.p else [1]
    except ValueError as exc:
        raise InputError(f"--p must list integers: {args.p!r}") from exc
    shape = {"n": len(p), "d": args.d, "p": p, "ramified": args.ramified,
             "gauge_ops": args.gauge_ops, "gauge_degree": args.gauge_degree}
    S, planted = generate_equivalent(args.seed, shape)
    doc = serialize_system(S)
    doc["expected"] = {
        "s": planted["s"],
        "omega": [str(w) for w in planted["omega"]],
        "p_true": planted["p_true"],
        "Q": [[{str(e): str(c) for e, c in sorted(q.items())} for q in qs]
              for qs in planted["Q"]],
    }
    return doc, None


def main(argv=None) -> int:
    ap = _Parser(
        prog="pfaffred",
        description="Normal forms and invariants for integrable Pfaffian "
                    "systems with normal crossings")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, system=True, order=True, retries=False):
        if system:
            sp.add_argument("system", help="system document (JSON, - for stdin)")
        if order:
            sp.add_argument("--order", type=int, default=10,
                            help="truncation order for series work "
                                 "(default 10)")
        if retries:
            sp.add_argument("--max-retries", type=int, default=4,
                            help="restarts at a larger order on truncation "
                                 "failure while each verifies further "
                                 f"(0-{MAX_RETRIES}, default 4)")
        sp.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")

    common(sub.add_parser("check", help="integrability and shape report"),
           order=False)
    common(sub.add_parser("invariants",
                          help="growth orders and exponential parts"),
           retries=True)
    common(sub.add_parser("rank-reduce", help="minimize every Poincare rank"))
    rd = sub.add_parser("reduce", help="full reduction to normal form")
    common(rd, retries=True)
    rd.add_argument("--trace", action="store_true",
                    help="include the full step log in the output")
    vf = sub.add_parser("verify", help="check a solution document")
    common(vf, order=False)
    vf.add_argument("solution", help="solution document (JSON, - for stdin)")
    gn = sub.add_parser("generate",
                        help="seeded system with planted invariants")
    common(gn, system=False, order=False)
    gn.add_argument("--seed", type=int, default=0)
    gn.add_argument("--d", type=int, default=2)
    gn.add_argument("--p", default="1", help="comma-separated Poincare ranks, "
                    "one per variable (default '1')")
    gn.add_argument("--ramified", action="store_true",
                    help="plant a ramified (s=2) block in the first variable")
    gn.add_argument("--gauge-ops", type=int, default=4)
    gn.add_argument("--gauge-degree", type=int, default=2)

    handlers = {"check": _cmd_check, "invariants": _cmd_invariants,
                "rank-reduce": _cmd_rank_reduce, "reduce": _cmd_reduce,
                "verify": _cmd_verify, "generate": _cmd_generate}
    try:
        args = ap.parse_args(argv)
        result = handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        code, out = 1, _error_text(exc)
    except _UNSUPPORTED as exc:
        code, out = 2, _error_text(exc)
    except TruncationInsufficient as exc:
        code, out = 3, _error_text(exc)
    else:
        if len(result) == 3:
            payload, text, code = result
        else:
            (payload, text), code = result, 0
        out = _render(payload, text, args)
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; Python's documented idiom points stdout
        # at devnull so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
