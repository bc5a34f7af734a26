"""Record the benchmark's baseline on this host.

From the repository root:

    python3 bench/baseline.py

For every workload it makes two sets of ten runs, seeds 1-10, each one
fresh `sh bench/run.sh` process measuring for BENCHMARK.json's
run_seconds. For every set and end-to-end metric, and for the median unit
wall time the run prints on standard error, it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median. It also prints how far
the second set's median moved from the first's. The results, with a
fingerprint of the host, go to bench/baseline.json.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys

WORKLOADS = ["paper", "sweep-small", "sweep-large", "serve"]
RUNS = 10  # runs per set, seeds 1..RUNS
SETS = 2
with open("BENCHMARK.json") as f:
    SECONDS = json.load(f)["run_seconds"]
OUT = "bench/baseline.json"


def run(workload, seed):
    cmd = ["sh", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    p = subprocess.run(cmd, check=True, capture_output=True, text=True)
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    if not rec["correct"] or rec["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {rec}")
    values = {name: m["value"] for name, m in rec["metrics"].items()}
    # Wall-clock time is not an end-to-end metric; the run reports it on
    # standard error.
    values["wall_ms"] = float(re.search(r"median unit wall ([0-9.]+) ms", p.stderr).group(1))
    return values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def host():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    gov = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"cpu": model, "nproc": os.cpu_count(), "go": gov, "os": platform.platform()}


def main():
    doc = {"host": host(), "run_seconds": SECONDS, "runs_per_set": RUNS, "workloads": {}}
    for w in WORKLOADS:
        sets = []
        for s in range(SETS):
            runs = [run(w, seed) for seed in range(1, RUNS + 1)]
            sets.append({m: summary([r[m] for r in runs]) for m in runs[0]})
            for m, st in sorted(sets[-1].items()):
                print(f"{w} set {s + 1} {m}: median {st['median']:.6g} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.3f}", flush=True)
        shift = {m: sets[-1][m]["median"] / sets[0][m]["median"] - 1 for m in sets[0]}
        for m, d in sorted(shift.items()):
            print(f"{w} {m}: last set's median moved {d:+.3f} from the first's", flush=True)
        doc["workloads"][w] = {"sets": sets, "median_shift": shift}
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
