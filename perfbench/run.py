"""pfaffred benchmark: time to a verified solution on four workloads.

    python3 perfbench/run.py --workload split --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, one thread.  A run sets up (imports the package and
builds the workload's inputs) several times, then makes passes over the
workload's items until the next pass would end after --seconds.  Every
item's output is checked right after it returns.

--trace 0 prints the end-to-end metrics.  --trace 1 times untraced
passes as well, then makes one pass with the outside-in tracer installed
and prints the per-layer metrics; its spans go to perfbench/out/.

--seed orders the items of each pass.  --corpus-seed picks the
generator seeds of the planted systems: 0 is the fixed corpus, any other
value a hold-out corpus of the same shapes.

The last line of stdout is {"correct", "attempted", "failed",
"metrics"}; the line before it is a report with the host, the raw
samples and the failures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import tempfile
import types
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import corpus
import tracer as tracing

PACKAGE = tracing.PACKAGE
MODULES = ("scalars", "series", "linalg", "system", "reduction",
           "invariants", "driver", "docio", "cli")
SETUP_ROUNDS = 5
CALIB_STEPS = 100
CALIB_PERIOD_S = 0.02
CALIB_WINDOW = 2
# calibration loop time taken as the reference host speed: normalized
# seconds are seconds on a host where the loop takes this long
CALIB_REF_S = 0.0004
TAIL_SAMPLES = 10  # a percentile is reported only with this many beyond it

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = tuple(f"{m}.{f}" for m, fs in tracing.SPANS.items()
                        for f in fs)
ATTRIBUTED_SPANS = ("reduction.split", "reduction.rank_reduce",
                    "driver.regular_endgame", "driver.verify_solution",
                    "system.check_integrability", "system.apply_gauge",
                    "invariants.katz_order_univariate")
ATTRIBUTED_COUNTS = ("solve_vec", "series_mul", "term_pairs")
COUNT_TOTALS = {
    "linalg.ConstMatrix.rref.calls": "rref",
    "linalg.ConstMatrix.solve_vec.calls": "solve_vec",
    "linalg.ConstMatrix.charpoly.calls": "charpoly",
    "linalg.SeriesMatrix.mul.calls": "matrix_mul",
    "linalg.SeriesMatrix.determinant.calls": "determinant",
    "series.Series.mul.calls": "series_mul",
    "series.Series.mul.term_pairs": "term_pairs",
    "scalars.Scalar.mul.calls": "scalar_mul",
}
CLI_SHARES = {f"cli.{cmd.replace('-', '_')}.share": cmd
              for cmd in corpus.CLI_COMMANDS}


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_share"] = "ratio"
    for span in ATTRIBUTED_SPANS:
        for key in ATTRIBUTED_COUNTS:
            units[f"{span}.{key}"] = "count"
    for name in COUNT_TOTALS:
        units[name] = "count"
    units.update({
        "driver.fmfs.retries": "count",
        "driver.fmfs.useful_share": "ratio",
        "driver.fmfs.phi_terms": "count",
        "scalars.max_coeff_bits": "bit",
        "trace.overhead_share": "ratio",
    })
    for name in CLI_SHARES:
        units[name] = "ratio"
    return units


# -- set-up ------------------------------------------------------------------


def import_package():
    """A fresh import of the package, as a namespace of its modules."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def set_up(workload, corpus_seed, docdir, sampler, rounds=SETUP_ROUNDS):
    """Import and build the inputs `rounds` times; keep the last round.

    Returns the package, the groups, and each round's raw and
    host-normalized time.
    """
    raw, norm = [], []
    for _ in range(rounds):
        lo, spent = sampler.mark()
        t0 = perf_counter()
        pf = import_package()
        groups = corpus.build(pf, workload, corpus_seed, docdir)
        dt = perf_counter() - t0
        hi, spent_after = sampler.mark()
        dt -= spent_after - spent
        sampler.tick()
        raw.append(dt)
        norm.append(dt * sampler.scale(lo, hi))
    return pf, groups, raw, norm


def calibrate():
    """Time a fixed chunk of the package's kind of work, without the package.

    Exponent tuples, a dict of terms and small Fractions, as in a series
    product.  The cyclic collector is held off while it runs: a collection
    of the package's heap would land in the sample, not in the item.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    terms, a = {}, Fraction(1, 3)
    for i in range(CALIB_STEPS):
        e = tuple(x + y for x, y in zip((i % 5, i % 3), (1, 2)))
        c = terms.get(e)
        p = a * Fraction(i % 7 + 1, 5)
        terms[e] = p if c is None else c + p
    dt = perf_counter() - t0
    if collecting:
        gc.enable()
    return dt


class Sampler:
    """Times calibrate() every CALIB_PERIOD_S of wall time, from SIGALRM.

    The host's speed drifts by up to about 40% within seconds, also in
    the middle of one item.  The loop's time drifts with it, so the
    samples taken during an item tell how fast the host ran it.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old = None

    def tick(self, *_):
        dt = calibrate()
        self.samples.append(dt)
        self.spent += dt

    def mark(self):
        """(samples so far, seconds spent sampling so far)"""
        return len(self.samples), self.spent

    def scale(self, lo, hi):
        """CALIB_REF_S over the mean of samples lo..hi-1, taken during an
        item, and of CALIB_WINDOW samples on either side of them."""
        window = self.samples[max(lo - CALIB_WINDOW, 0):hi + CALIB_WINDOW]
        return CALIB_REF_S / statistics.fmean(window)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)


# -- passes ------------------------------------------------------------------


class Passes:
    """Timed passes over one workload, with the failures they met.

    Every item's time excludes the sampler's own time and is kept raw
    and host-normalized by Sampler.scale over the samples around it.
    """

    def __init__(self, groups, seed, sampler):
        self.groups = groups
        self.rng = random.Random(seed)
        self.sampler = sampler
        self.raw_pass_s = []
        self.pass_s = []
        self.calib_s = []
        self.item_s = {}
        self.kind_s = []
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        """Run every item once, in a seeded order of the groups.

        Returns the normalized time spent inside the items.  Untraced
        passes keep their totals, per-kind totals and item samples.
        """
        order = list(self.groups)
        self.rng.shuffle(order)
        start = len(self.sampler.samples)
        runs = [(item, self._run(item, tracer))
                for group in order for item in group]
        self.sampler.tick()
        raw_total, total, kinds = 0.0, 0.0, {}
        for item, (dt, ok, lo, hi) in runs:
            norm = dt * self.sampler.scale(lo, hi)
            raw_total += dt
            total += norm
            kinds[item.kind] = kinds.get(item.kind, 0.0) + norm
            if ok and tracer is None:
                self.item_s.setdefault(item.id, []).append(norm)
        if tracer is None:
            self.raw_pass_s.append(raw_total)
            self.pass_s.append(total)
            self.kind_s.append(kinds)
            self.calib_s.append(
                statistics.median(self.sampler.samples[start:]))
        return total

    def _run(self, item, tracer):
        """(seconds inside the item, whether its output passed the gate,
        and the range of calibration samples taken meanwhile)"""
        if tracer is not None:
            tracer.item = item.id
        self.attempted += 1
        lo, spent = self.sampler.mark()
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # recorded; the run goes on
            ok = False
            self._fail(item, exc)
        else:
            ok = True
        dt = perf_counter() - t0
        hi, spent_after = self.sampler.mark()
        dt -= spent_after - spent
        if ok:
            try:
                item.check(out)
            except Exception as exc:
                ok = False
                self._fail(item, exc)
        return dt, ok, lo, hi

    def _fail(self, item, exc):
        self.failures.append({"item": item.id, "type": type(exc).__name__,
                              "message": str(exc)[:200]})

    def until(self, deadline):
        """Untraced passes while the next one is expected to end in time."""
        while True:
            t0 = perf_counter()
            self.one_pass()
            now = perf_counter()
            if now + (now - t0) > deadline:
                return


# -- metrics -----------------------------------------------------------------


def end_to_end(passes, setup_norm):
    return {
        "setup_s": statistics.median(setup_norm),
        "solve_s": statistics.median(passes.pass_s),
        # 0 only when no item passed its gate, and then correct is false
        "item_p50_s": statistics.median(
            statistics.median(v) for v in passes.item_s.values())
        if passes.item_s else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def cli_shares(passes):
    out = {}
    for name, cmd in CLI_SHARES.items():
        shares = [k.get(cmd, 0.0) / t for k, t
                  in zip(passes.kind_s, passes.pass_s) if t > 0]
        out[name] = statistics.median(shares) if shares else 0.0
    return out


def per_layer(tr, traced_s, passes):
    table = tr.layer_table()
    root = tr.root_time()
    values = {}
    for name in LAYER_FUNCTIONS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_share"] = row["self_s"] / root if root else 0.0
    for span in ATTRIBUTED_SPANS:
        for key in ATTRIBUTED_COUNTS:
            values[f"{span}.{key}"] = tr.counts.get((span, key), 0)
    totals = tr.count_totals()
    for name, key in COUNT_TOTALS.items():
        values[name] = totals.get(key, 0)
    fm = tr.fmfs_stats()
    values.update({
        "driver.fmfs.retries": fm["retries"],
        "driver.fmfs.useful_share": fm["useful_share"],
        "driver.fmfs.phi_terms": fm["phi_terms"],
        "scalars.max_coeff_bits": fm["max_coeff_bits"],
        "trace.overhead_share":
            traced_s / statistics.median(passes.pass_s) - 1.0,
    })
    values.update(cli_shares(passes))
    return values, table


def host_info():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "machine": platform.machine(),
            "platform": platform.platform()}


def report(args, passes, setup_raw, setup_norm):
    samples = [x for v in passes.item_s.values() for x in v]
    n = len(samples)
    tail = TAIL_SAMPLES / 0.1  # samples needed for ten beyond p90
    kinds = sorted({k for d in passes.kind_s for k in d})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "trace": args.trace,
        "host": host_info(),
        "host.calib_s": statistics.median(passes.calib_s),
        "calib_ref_s": CALIB_REF_S,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "solve_s": statistics.median(passes.raw_pass_s),
        },
        "setup_rounds_s": setup_norm,
        "pass_s": passes.pass_s,
        "raw_pass_s": passes.raw_pass_s,
        "calib_s": passes.calib_s,
        "item_samples": n,
        "item_p90_s": statistics.quantiles(samples, n=10,
                                           method="inclusive")[8]
        if n >= tail else None,
        "item_median_s": {k: statistics.median(v)
                          for k, v in sorted(passes.item_s.items())},
        "kind_s": {k: statistics.median(d.get(k, 0.0) for d in passes.kind_s)
                   for k in kinds},
        "fail_share": len(passes.failures) / max(passes.attempted, 1),
        "failures": passes.failures[:20],
    }


# -- main --------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the items of each pass")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=0,
                    help="0: fixed corpus; other: hold-out plant seeds")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"perfbench: no package source under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as docdir, Sampler() as sampler:
        pf, groups, setup_raw, setup_norm = set_up(
            args.workload, args.corpus_seed, docdir, sampler)
        passes = Passes(groups, args.seed, sampler)
        deadline = perf_counter() + args.seconds
        if not args.trace:
            passes.until(deadline)
            metrics = end_to_end(passes, setup_norm)
            units = END_TO_END
            extra = {}
        else:
            passes.one_pass()
            tr = tracing.Tracer()
            with tr:
                tr.item = "setup"
                corpus.build(pf, args.workload, args.corpus_seed, docdir)
                traced_s = passes.one_pass(tracer=tr)
            if perf_counter() + passes.raw_pass_s[-1] <= deadline:
                passes.until(deadline)
            metrics, table = per_layer(tr, traced_s, passes)
            units = per_layer_units()
            path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tr.dump(), fh)
            extra = {"traced_s": traced_s, "layers": table,
                     "spans_file": os.path.relpath(path, ROOT),
                     "counts": {f"{s}.{k}": n for (s, k), n
                                in sorted(tr.counts.items())}}
    rep = report(args, passes, setup_raw, setup_norm)
    rep.update(extra)
    print(json.dumps({"report": rep}))
    failed = len(passes.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
