#!/usr/bin/env python3
"""Compares end-to-end benchmark runs under the bounds in BENCHMARK.json.

  compare.py pair --parent DIR --change DIR [--pairs 10]
      Runs alternating parent/change pairs (same seed within a pair, the side
      that goes first alternates) in two checkouts, for every workload of
      BENCHMARK.json at its run_seconds, and judges each end-to-end metric
      per workload:
        gain        the change wins >= 9/10 of the pairs (ties count for
                    neither) and the medians differ by more than the
                    parent's own interquartile range;
        regression  the change's median is worse than the parent's by more
                    than the metric's bound;
        unresolved  the parent's spread (IQR / median) exceeds the bound,
                    unless every change run beats every parent run;
        worse       the change loses >= 9/10 of the pairs and the medians
                    differ by more than the parent's IQR, but by less than
                    the bound: a real slowdown the bound tolerates;
        no change   otherwise.
  compare.py repeat [--dir DIR] [--runs 5]
      Two interleaved sets of runs of one checkout, each run with its own
      seed, for every workload. Passes when, for every metric and workload,
      the second set's median is within the bound of the first's and each
      set's spread is within the bound.
  compare.py analyze FILE
      Re-judges runs saved with --save.

Exit status: 0 when nothing regressed (pair) or the sets agree (repeat).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(checkout, workload, seed):
    """One benchmark run in `checkout`; returns its result object."""
    cmd = list(BENCHMARK["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed in {checkout} ({workload}, seed {seed}):\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"wrong output in {checkout} ({workload}, seed {seed})")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, base, value):
    """Relative amount by which `value` is worse than `base` (< 0: better)."""
    sign = 1 if METRICS[metric]["better"] == "lower" else -1
    return sign * (value - base) / base


def judge_pairs(runs):
    """runs: list of (side, pair_index, result). Returns (rows, regressed)."""
    rows, regressed = [], False
    for metric, spec in METRICS.items():
        bound = spec["bound"]
        by_pair = {}
        for side, pair, result in runs:
            by_pair.setdefault(pair, {})[side] = \
                result["metrics"][metric]["value"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        parent = [p["parent"] for p in pairs]
        change = [p["change"] for p in pairs]
        wins = sum(worse_by(metric, p["parent"], p["change"]) < 0
                   for p in pairs)
        losses = sum(worse_by(metric, p["parent"], p["change"]) > 0
                     for p in pairs)
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        worse = worse_by(metric, pmed, cmed)
        all_better = all(worse_by(metric, p, c) < 0
                         for p in parent for c in change)
        significant = abs(cmed - pmed) > pq3 - pq1
        if wins >= 0.9 * len(pairs) and significant:
            verdict = "gain"
        elif worse > bound:
            verdict = "regression"
            regressed = True
        elif spread(parent) > bound and not all_better:
            verdict = "unresolved"
        elif losses >= 0.9 * len(pairs) and significant:
            verdict = "worse"
        else:
            verdict = "no change"
        rows.append((metric, len(pairs), pmed, pq1, pq3, cmed, cq1, cq3,
                     wins, losses, worse, bound, verdict))
    return rows, regressed


def print_pairs(workload, rows):
    print(f"\n== {workload}: parent vs change ==")
    print(f"{'metric':16s} {'n':>3s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'W/L':>6s} {'worse':>7s} "
          f"{'bound':>6s}  verdict")
    for (metric, n, pmed, pq1, pq3, cmed, cq1, cq3, wins, losses, worse,
         bound, verdict) in rows:
        print(f"{metric:16s} {n:3d} {pmed:12.6g} [{pq1:9.4g}, {pq3:9.4g}] "
              f"{cmed:12.6g} [{cq1:9.4g}, {cq3:9.4g}] {wins:2d}/{losses:<2d} "
              f"{worse * 100:6.2f}% {bound * 100:5.1f}%  {verdict}")


def judge_repeat(runs):
    """runs: list of (set, index, result). Returns (rows, agreed)."""
    rows, agreed = [], True
    for metric, spec in METRICS.items():
        bound = spec["bound"]
        sets = {}
        for side, _, result in runs:
            sets.setdefault(side, []).append(
                result["metrics"][metric]["value"])
        a, b = sets.get("A", []), sets.get("B", [])
        if not a or not b:
            continue
        worse = worse_by(metric, statistics.median(a), statistics.median(b))
        ok = (abs(worse) <= bound and spread(a) <= bound
              and spread(b) <= bound)
        agreed = agreed and ok
        rows.append((metric, statistics.median(a), spread(a),
                     statistics.median(b), spread(b), worse, bound,
                     "agree" if ok else "DISAGREE"))
    return rows, agreed


def print_repeat(workload, rows):
    print(f"\n== {workload}: set A vs set B ==")
    print(f"{'metric':16s} {'A median':>13s} {'A iqr':>7s} {'B median':>13s} "
          f"{'B iqr':>7s} {'B-A':>7s} {'bound':>6s}  verdict")
    for metric, amed, aiqr, bmed, biqr, worse, bound, verdict in rows:
        print(f"{metric:16s} {amed:13.6g} {aiqr * 100:6.2f}% {bmed:13.6g} "
              f"{biqr * 100:6.2f}% {worse * 100:6.2f}% {bound * 100:5.1f}%  "
              f"{verdict}")


def analyze(records):
    ok = True
    for workload in WORKLOADS:
        runs = [(r["side"], r["index"], r["result"]) for r in records
                if r["workload"] == workload]
        if not runs:
            continue
        if records[0]["kind"] == "pair":
            rows, regressed = judge_pairs(runs)
            print_pairs(workload, rows)
            ok = ok and not regressed
        else:
            rows, agreed = judge_repeat(runs)
            print_repeat(workload, rows)
            ok = ok and agreed
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in ("pair", "repeat"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=1,
                       help="seed of the first run; each run takes the next")
        p.add_argument("--save", help="append every run to this JSONL file")
    sub.choices["pair"].add_argument("--parent", required=True)
    sub.choices["pair"].add_argument("--change", required=True)
    sub.choices["pair"].add_argument("--pairs", type=int, default=10)
    sub.choices["repeat"].add_argument("--dir", default=str(HERE.parent.parent))
    sub.choices["repeat"].add_argument("--runs", type=int, default=5,
                                       help="runs per set")
    sub.add_parser("analyze").add_argument("file")
    args = parser.parse_args()

    if args.mode == "analyze":
        records = [json.loads(line) for line in open(args.file) if line.strip()]
        sys.exit(0 if analyze(records) else 1)
    if args.mode == "pair" and args.pairs < 10:
        sys.exit("a comparison needs at least 10 pairs")

    records = []
    save = open(args.save, "a") if args.save else None
    seed = args.seed
    for workload in WORKLOADS:
        count = args.pairs if args.mode == "pair" else args.runs
        for i in range(count):
            if args.mode == "pair":
                order = [("parent", args.parent), ("change", args.change)]
            else:
                order = [("A", args.dir), ("B", args.dir)]
            if i % 2 == 1:
                order.reverse()
            for side, checkout in order:
                # Pairs share a seed; the two repeat sets never do.
                run_seed = seed if args.mode == "pair" else seed + (side == "B")
                result = run_once(checkout, workload, run_seed)
                record = {"kind": args.mode, "workload": workload,
                          "side": side, "index": i, "seed": run_seed,
                          "result": result}
                records.append(record)
                if save:
                    save.write(json.dumps(record) + "\n")
                    save.flush()
            seed += 1 if args.mode == "pair" else 2
    sys.exit(0 if analyze(records) else 1)


if __name__ == "__main__":
    main()
