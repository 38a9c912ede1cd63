#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Run every workload once per seed and summarise each metric as its median
and quartile spread (IQR / median, quartiles as statistics.quantiles gives
them):

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/out/set-a.json

Compare two such sets: for each workload and metric, the second median may
be worse than the first by at most the metric's bound in BENCHMARK.json,
and each spread, setup_s's too, must stay within the bound (a spread above
a third of the bound is reported as noisy):

    python3 perfbench/spread.py --compare set-a.json set-b.json

Run from the repository root. Exits 1 when a run fails or a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


HEADER = ["schema_version", "ocaml_version", "recommended_domain_count",
          "seconds", "setup_reps", "timed_ops"]


def report_header(workload, seed):
    """The run header and pass counts of the run's full report."""
    try:
        with open(f"perfbench/out/{workload}-seed{seed}.json") as f:
            report = json.load(f)
    except (OSError, ValueError):
        return {}
    return {k: report[k] for k in HEADER if k in report}


def run_set(bench, workloads, seeds):
    runs = {}
    ok = True
    for w in workloads:
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = ok and p.returncode == 0 and result.get("correct") is True
            runs.setdefault(w, []).append(
                {"seed": seed, "exit": p.returncode, **report_header(w, seed), **result})
            values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
            print(w, seed, p.returncode, values, flush=True)
    return runs, ok


def summarise(runs):
    out = {}
    for w, rs in runs.items():
        names = rs[0].get("metrics", {}).keys()
        for name in names:
            values = [r["metrics"][name]["value"] for r in rs if "metrics" in r]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            out.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            }
    return out


def compare(bench, first, second):
    """Medians must agree within the bound and spreads stay within it; a
    spread above a third of the bound is flagged as noisy."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w, by_metric in second["summary"].items():
        for name, s in by_metric.items():
            m = metrics[name]
            base = first["summary"][w][name]["median"]
            worse = (s["median"] - base) / base
            if m["better"] == "higher":
                worse = -worse
            spread = max(first["summary"][w][name]["spread"], s["spread"])
            if worse > m["bound"] or spread > m["bound"]:
                verdict, ok = "FAIL", False
            elif spread >= m["bound"] / 3:
                verdict = "noisy"
            else:
                verdict = "ok"
            print(f"{w:12s} {name:12s} medians {base:12.4f} {s['median']:12.4f} "
                  f"worse {worse:+.4f} max spread {spread:.4f} bound {m['bound']} {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(bench, *sets) else 1
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs, ok = run_set(bench, workloads, seeds_of(args.seeds))
    doc = {"seeds": args.seeds, "runs": runs, "summary": summarise(runs)}
    for w, by_metric in doc["summary"].items():
        for name, s in by_metric.items():
            print(f"{w:12s} {name:12s} median {s['median']:12.4f} spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
