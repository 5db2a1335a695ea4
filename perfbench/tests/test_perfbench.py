"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They import the package from ./src and the harness from ./perfbench.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import corpus  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import pfaffred.cli  # noqa: E402,F401  (the tracer wraps cli.main)

pf = types.SimpleNamespace(**{
    m: sys.modules[f"pfaffred.{m}"] for m in run.MODULES})


def _span(name, start, end, parent, order=None, attrs=None):
    s = tracing.Span(name, parent, "item", order)
    s.start, s.end, s.attrs = start, end, attrs
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [_span("root", 0.0, 10.0, None),
             _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0),
             _span("c", 6.0, 8.0, 2)]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_useful_share_counts_only_the_final_order():
    fm = {"final_order": 16}
    spans = [_span("driver.fmfs", 0.0, 10.0, None, attrs=fm),
             _span("reduction.split", 0.0, 2.0, 0, order=8),
             _span("reduction.rank_reduce", 0.5, 1.0, 1, order=8),
             _span("system.normalize_poincare", 2.0, 3.0, 0),
             _span("reduction.split", 3.0, 9.0, 0, order=16)]
    # the nested rank_reduce is inside split's time, not counted again
    assert tracing.useful_share(spans) == pytest.approx(6.0 / 8.0)


def _bindings():
    """Every function bound in the package's modules and classes."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not name.startswith("pfaffred"):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type):
                for a, v in vars(val).items():
                    out[(name, attr, a)] = v
    return out


def test_tracer_restores_every_original():
    before = _bindings()
    S = corpus.fixed_system(pf, "hyper")
    with tracing.Tracer() as tr:
        assert tr.patches
        assert pf.driver.fmfs is not before[("pfaffred.driver", "fmfs")]
        assert pf.driver.split is not before[("pfaffred.driver", "split")]
        assert pf.cli.fmfs is pf.driver.fmfs
        pf.driver.fmfs(S, order=10)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.layer_table()["driver.fmfs"]["calls"] == 1


def _traced_counts():
    S = corpus.fixed_system(pf, "hyper")
    with tracing.Tracer() as tr:
        pf.driver.fmfs(S, order=10)
    calls = {k: v["calls"] for k, v in tr.layer_table().items()}
    return calls, dict(tr.counts), tr.fmfs_stats()


def test_traced_counts_repeat_exactly():
    first = _traced_counts()
    assert first == _traced_counts()
    calls, counts, fm = first
    assert calls["driver.fmfs"] == 1 and calls["reduction.rank_reduce"] >= 1
    assert counts[("driver.regular_endgame", "series_mul")] > 0
    assert fm["retries"] == 0 and fm["useful_share"] == 1.0


@pytest.mark.parametrize("workload", ["split", "ramified", "regular"])
def test_same_corpus_seed_same_systems(workload):
    def prints(corpus_seed):
        return [(i, S.fingerprint()) for i, S, _, _
                in corpus.solve_inputs(pf, workload, corpus_seed)]

    first = prints(0)
    assert first == prints(0)
    holdout = prints(1)
    fixed = len(corpus.SOLVE_CORPUS[workload][0])
    assert holdout[:fixed] == first[:fixed]
    assert all(a != b for a, b in zip(holdout[fixed:], first[fixed:]))


def test_fixed_systems_match_their_fingerprints():
    for name, want in corpus.SYSTEM_FINGERPRINTS.items():
        assert corpus.fixed_system(pf, name).fingerprint() == want


def test_cli_documents_repeat():
    def prints():
        return [(n, S.fingerprint()) for n, S, _ in corpus.cli_inputs(pf, 0)]
    assert prints() == prints()


def test_seed_fixes_the_item_order(tmp_path):
    groups = corpus.build(pf, "cli-invariants", 0, str(tmp_path))

    def order(seed):
        p = run.Passes(groups, seed, sampler=None)
        seq = []
        for _ in range(2):
            g = list(groups)
            p.rng.shuffle(g)
            seq.append([grp[0].id for grp in g])
        return seq

    assert order(3) == order(3)
    assert order(3) != order(4)


def test_scale_averages_the_samples_around_an_item():
    sampler = run.Sampler()
    sampler.samples = [x * run.CALIB_REF_S
                       for x in (9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 3.0, 9.0)]
    # samples 3 and 4 were taken during the item; two on either side count
    assert run.CALIB_WINDOW == 2
    assert sampler.scale(3, 5) == pytest.approx(1 / 3)
    assert sampler.scale(0, 0) == pytest.approx(1 / 5)


def test_gate_rejects_a_wrong_answer():
    (_, S, order, check), = [x for x in corpus.solve_inputs(pf, "ramified", 0)
                             if x[0].startswith("airy")]
    sol, _ = pf.driver.fmfs(S, order=order)
    check(sol)
    sol.Q[0][0], sol.Q[0][1] = sol.Q[0][1], {}
    with pytest.raises(corpus.WrongAnswer):
        check(sol)


def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
