"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload select_grid --seeds 1-10 [--seconds 30] [--json out.json]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints, for
each end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (interquartile range
as a share of the median) next to the bound in ``BENCHMARK.json``. Use it to
check the benchmark's steadiness and to record before/after numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write the runs and the summary here")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} {values}", flush=True)

    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name] = {**stats, "bound": metric["bound"]}
        print(f"{name}: median {stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}] "
              f"spread {stats['spread']:.4f} (bound {metric['bound']}, a third is {metric['bound'] / 3:.4f})")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                               "summary": summary}, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
