"""Repeat mode: run one workload with several seeds and summarize the spread.

    python3 perfbench/repeat.py --workload heralded-source --runs 10 --seed 1

Runs ``run.py`` once per seed (seed, seed+1, ...), one run at a time, with
the run length from BENCHMARK.json.  For each
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median, the
median of the raw wall-clock values, and the bound from BENCHMARK.json with
a verdict: the spread should stay below a third of the bound.  The share of
failed operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.seed, args.seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["raw"] = json.loads(lines[-2].removeprefix("raw "))
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    steady = True
    for name in results[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in results])
        s["raw_median"] = statistics.median(r["raw"][name] for r in results)
        summary[name] = s
        ok = s["spread"] < bounds[name] / 3
        steady &= ok
        print(f"{name:16s} median {s['median']:11.6g}  q1 {s['q1']:11.6g}  q3 {s['q3']:11.6g}  "
              f"spread {100 * s['spread']:6.2f}%  raw median {s['raw_median']:11.6g}  "
              f"bound {bounds[name]:.3f}  {'steady' if ok else 'SPREAD ABOVE A THIRD OF THE BOUND'}")
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print(f"failed shares: {sorted(str(s) for s in shares)}  correct: {all(r['correct'] for r in results)}")
    same_share = len(shares) == 1
    print(json.dumps({"workload": args.workload, "runs": len(results), "summary": summary,
                      "steady": steady, "same_failed_share": same_share}))
    return 0 if steady and same_share and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
