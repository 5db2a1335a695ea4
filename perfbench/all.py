"""Run every workload once and print every metric by name with its unit.

    python3 perfbench/all.py --seconds 25 [--seed 1] [--trace 0]

Each workload runs as its own `perfbench/run.py` process, one after the
other, from the root of the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
            timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"fail_share={result['failed'] / result['attempted']:.3f}")
        for name, m in result["metrics"].items():
            print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
