#!/usr/bin/env python3
"""Repeated runs of the end-to-end benchmark, summarised.

  # Spread of every metric over N seeds on one checkout (BASELINE.md):
  python3 bench/e2e/stats.py runs --runs 10 [--seconds S] [--trace]
      [--workloads a,b] [--seed0 1] [--markdown FILE]

  # Two commits, N alternated pairs (README.md, "Comparing two commits"):
  python3 bench/e2e/stats.py compare BASE_DIR HEAD_DIR --pairs 10
      [--seconds S] [--workloads a,b] [--seed0 1]

Both run `bash bench/e2e/run.sh` inside each checkout and read the JSON on
the last line of its output. Quartiles are statistics.quantiles(n=4);
the spread of a metric is (Q3 - Q1) / median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s failed in %s (exit %d)" % (" ".join(cmd), checkout,
                                                proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s: correct=%s failed=%d" % (workload, result["correct"],
                                               result["failed"]))
    for line in lines:
        if line.startswith("reference loop:"):
            words = line.split()  # reference loop: X ms before, Y ms after
            result["reference_ms"] = (float(words[2]) + float(words[5])) / 2
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def cmd_runs(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    units = {"reference_loop_ms": "ms"}
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed0 + i
            result = run_once(ROOT, w, seed, args.seconds, args.trace)
            print("run %d %s seed %d: reference loop %.3f ms" % (
                i + 1, w, seed, result["reference_ms"]), *(
                    "%s=%.6g" % (name, m["value"])
                    for name, m in result["metrics"].items()
                    if not args.trace), file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            values[w].setdefault("reference_loop_ms", []).append(
                result["reference_ms"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    rows = []
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = quartiles(vals)
            rows.append((w, name, units[name], med, q1, q3, spread(vals),
                         bounds.get(name), len(vals)))
    header = ("| workload | metric | unit | median | Q1 | Q3 | spread | bound "
              "| runs |\n|---|---|---|---|---|---|---|---|---|")
    lines = [header]
    for w, name, unit, med, q1, q3, sp, bound, n in rows:
        lines.append("| %s | %s | %s | %.6g | %.6g | %.6g | %.3f | %s | %d |"
                     % (w, name, unit, med, q1, q3, sp,
                        "-" if bound is None else "%.2f" % bound, n))
    table = "\n".join(lines)
    print(table)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(table + "\n")


def cmd_compare(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"base": args.base, "head": args.head}
    values = {(s, w): {} for s in sides for w in workloads}
    reference = {s: [] for s in sides}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                result = run_once(sides[side], w, args.seed0 + i,
                                  args.seconds, False)
                for name, m in result["metrics"].items():
                    values[(side, w)].setdefault(name, []).append(m["value"])
                reference[side].append(result["reference_ms"])
    # The bench-owned CPU loop shows machine drift between the two sides.
    for side in sides:
        q1, med, q3 = quartiles(reference[side])
        print("reference loop, %s: median %.3f ms [%.3f, %.3f]"
              % (side, med, q1, q3))
    print("| workload | metric | base median [Q1, Q3] | head median [Q1, Q3] "
          "| change | head wins | verdict |\n|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, spec_m in metrics.items():
            base = values[("base", w)].get(name, [])
            head = values[("head", w)].get(name, [])
            if not base or not head:
                continue
            lower = spec_m["better"] == "lower"
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            wins = sum(1 for b, h in zip(base, head)
                       if (h < b if lower else h > b))
            change = (hm - bm) / bm if bm else 0.0
            worse = change if lower else -change
            all_better = (max(head) < min(base) if lower
                          else min(head) > max(base))
            if wins >= 0.9 * len(base) and abs(hm - bm) > (b3 - b1):
                verdict = "gain"
            elif worse > spec_m["bound"]:
                verdict = "REGRESSION"
            elif spread(base) > spec_m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no regression"
            print("| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.1f%% "
                  "| %d/%d | %s |" % (w, name, bm, b1, b3, hm, h1, h3,
                                      100 * change, wins, len(base), verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    runs = sub.add_parser("runs")
    runs.add_argument("--runs", type=int, default=10)
    runs.add_argument("--trace", action="store_true")
    runs.add_argument("--markdown")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("head")
    compare.add_argument("--pairs", type=int, default=10)
    for p in (runs, compare):
        p.add_argument("--seconds", type=int, default=None)
        p.add_argument("--seed0", type=int, default=1)
        p.add_argument("--workloads", type=lambda s: s.split(","))
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.mode == "runs":
        cmd_runs(args, spec)
    else:
        args.base = os.path.abspath(args.base)
        args.head = os.path.abspath(args.head)
        cmd_compare(args, spec)


if __name__ == "__main__":
    main()
