"""Outside-in tracer: spans around the package's public functions, counts
on its arithmetic primitives.

Nothing in the package knows about it.  `Tracer.install` replaces each
traced function at every module that bound it by name (`driver` holds
its own reference to `split`, `cli` to `fmfs`, and so on) and each
counted method on its class; `uninstall` puts every original object
back.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "pfaffred"

# module -> public functions recorded as spans
SPANS = {
    "system": ("check_integrability", "normalize_poincare", "apply_gauge"),
    "reduction": ("rank_reduce", "split", "eigen_shift", "ramify_system"),
    "invariants": ("katz_order_univariate", "exponential_parts"),
    "driver": ("fmfs", "regular_endgame", "verify_solution"),
    "docio": ("parse_system", "serialize_system", "parse_solution",
              "serialize_solution", "generate_equivalent"),
    "cli": ("main",),
}

# (module, class, method) -> counter name; each call is counted against
# the innermost open span
COUNTED = {
    ("linalg", "ConstMatrix", "rref"): "rref",
    ("linalg", "ConstMatrix", "solve_vec"): "solve_vec",
    ("linalg", "ConstMatrix", "charpoly"): "charpoly",
    ("linalg", "SeriesMatrix", "__mul__"): "matrix_mul",
    ("linalg", "SeriesMatrix", "determinant"): "determinant",
    ("series", "Series", "__mul__"): "series_mul",
    ("scalars", "Scalar", "__mul__"): "scalar_mul",
}

# Series products also count term pairs: the product of the operands'
# term counts, a scalar operand counting as one term
TERM_PAIRS = "term_pairs"
OUTSIDE = "-"  # span name for counts made outside every span


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "order", "attrs")

    def __init__(self, name, parent, item, order):
        self.name = name
        self.parent = parent
        self.item = item
        self.order = order
        self.start = self.end = 0.0
        self.attrs = None

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.item,
                self.order]


def _solution_stats(span, result):
    """fmfs return hook: retries, final order and the solution's size."""
    sol, trace = result
    terms, bits = 0, 0
    scalars = []
    for row in sol.phi.rows:
        for entry in row:
            terms += len(entry.terms)
            scalars.extend(entry.terms.values())
    for c in sol.C or ():
        if c is not None:
            scalars.extend(x for r in c.rows for x in r)
    for qs in sol.Q:
        for q in qs:
            scalars.extend(q.values())
    for s in scalars:
        for f in s.coeffs:
            bits = max(bits, f.numerator.bit_length(),
                       f.denominator.bit_length())
    span.attrs = {"retries": trace.retries, "final_order": trace.order,
                  "phi_terms": terms, "max_coeff_bits": bits}


RETURN_HOOKS = {"driver.fmfs": _solution_stats}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.item = None
        self._stack = []
        self._current = OUTSIDE
        self._patches = []

    # -- installing ------------------------------------------------------

    def install(self):
        mods = {name: m for name, m in list(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        try:
            for short, funcs in SPANS.items():
                mod = mods[f"{PACKAGE}.{short}"]
                for fn in funcs:
                    orig = getattr(mod, fn)
                    wrapped = self._span_wrapper(f"{short}.{fn}", orig)
                    for m in mods.values():
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._patch(m, attr, wrapped)
            for (short, cls_name, meth), key in COUNTED.items():
                cls = getattr(mods[f"{PACKAGE}.{short}"], cls_name)
                orig = cls.__dict__[meth]
                wrapped = (self._series_mul_wrapper(orig, cls)
                           if key == "series_mul"
                           else self._count_wrapper(key, orig))
                for attr, val in list(vars(cls).items()):
                    if val is orig:  # also catches __rmul__ = __mul__
                        self._patch(cls, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @property
    def patches(self):
        """(owner, attribute, original) for every replaced binding."""
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, orig):
        hook = RETURN_HOOKS.get(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, stack[-1] if stack else None, self.item,
                        kwargs.get("order"))
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            outer, self._current = self._current, name
            span.start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self._current = outer
            if hook is not None:
                hook(span, result)
            return result
        return traced

    def _count_wrapper(self, key, orig):
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            k = (self._current, key)
            counts[k] = counts.get(k, 0) + 1
            return orig(*args, **kwargs)
        return counted

    def _series_mul_wrapper(self, orig, series_cls):
        counts = self.counts

        @functools.wraps(orig)
        def counted(a, b):
            result = orig(a, b)
            if result is not NotImplemented:
                pairs = len(a.terms) * (len(b.terms)
                                        if isinstance(b, series_cls) else 1)
                k = (self._current, "series_mul")
                counts[k] = counts.get(k, 0) + 1
                k = (self._current, TERM_PAIRS)
                counts[k] = counts.get(k, 0) + pairs
            return result
        return counted

    # -- results ---------------------------------------------------------

    def layer_table(self):
        """name -> {"calls", "self_s", "total_s"} over all spans."""
        table = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = table.setdefault(span.name,
                                   {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span.end - span.start
        return table

    def root_time(self):
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def count_totals(self):
        """counter name -> count over all spans."""
        out = {}
        for (_, key), n in self.counts.items():
            out[key] = out.get(key, 0) + n
        return out

    def fmfs_stats(self):
        """Sums of the fmfs return-hook numbers, and the useful share."""
        out = {"retries": 0, "phi_terms": 0, "max_coeff_bits": 0}
        for s in self.spans:
            if s.name == "driver.fmfs" and s.attrs is not None:
                out["retries"] += s.attrs["retries"]
                out["phi_terms"] += s.attrs["phi_terms"]
                out["max_coeff_bits"] = max(out["max_coeff_bits"],
                                            s.attrs["max_coeff_bits"])
        out["useful_share"] = useful_share(self.spans)
        return out

    def dump(self):
        return {"spans": [s.as_list() for s in self.spans],
                "attrs": {i: s.attrs for i, s in enumerate(self.spans)
                          if s.attrs is not None},
                "counts": [[span, key, n] for (span, key), n
                           in sorted(self.counts.items())]}


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def useful_share(spans):
    """Layer time at each fmfs call's final working order over all of it.

    The layer time of an fmfs call is the time of the outermost spans
    under it that were given an `order=` argument; a retry after
    TruncationInsufficient repeats them at a doubled order, so the spans
    of earlier attempts carry a smaller one.  1.0 when no layer span
    carries an order.
    """
    useful = total = 0.0
    for s in spans:
        if s.order is None:
            continue
        j = s.parent
        while j is not None and spans[j].name != "driver.fmfs":
            if spans[j].order is not None:
                break
            j = spans[j].parent
        if j is None or spans[j].name != "driver.fmfs" \
                or spans[j].attrs is None:
            continue
        dur = s.end - s.start
        total += dur
        if s.order == spans[j].attrs["final_order"]:
            useful += dur
    return useful / total if total else 1.0
