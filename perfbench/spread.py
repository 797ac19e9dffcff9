"""Run one workload under several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --workload kernel_fine --seeds 0-9

Runs are sequential; each is a separate untraced ``run.py`` process that
measures for BENCHMARK.json's ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ns = ap.parse_args()
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values = {}
    shares = set()
    for seed in ns.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", ns.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((doc["failed"] / doc["attempted"], doc["correct"]))
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 6) for k, v in doc["metrics"].items()},
            sort_keys=True)), flush=True)
        for name, v in doc["metrics"].items():
            values.setdefault(name, []).append(v["value"])
    print("failed share, correct: %s" % sorted(shares))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
              % (name, med, q1, q3, (q3 - q1) / med if med else 0.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
