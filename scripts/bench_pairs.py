"""Run the benchmark on a parent tree and a change tree in alternating pairs.

Each pair runs `bench/run.py` (the command in the change tree's
BENCHMARK.json) once in each tree on the same seed, one after the other.
Even pairs run the parent first and odd pairs the change first, so machine
drift falls on both sides.  The script writes BENCH_<label>.json with every
run's log and JSON result, and, per workload and end-to-end metric, each
side's median and quartiles and the number of pairs the change won.  Each
run also records the rounds it held (`peak_rss_mb` grows with them, since
run.py keeps every round's output until its checks), printed beside that
metric.  Each summary entry also holds two verdicts, printed with it:
`claim_rule_met` (the change wins at least nine pairs in ten, ties counting
for neither side, and its median gap exceeds the parent's quartile spread)
and `regression` ("worse beyond bound" when the change's median is worse
than the parent's by more than the metric's relative bound in
BENCHMARK.json; else "unresolved" when the parent's quartile spread exceeds
that bound of its median and not every change run beats every parent run;
else "within bound").  The file is rewritten after every run, so an
interrupted run keeps what finished.

Run from the change tree's root, with the parent checked out elsewhere
(`git archive <commit> | tar -x -C DIR`):

    python3 scripts/bench_pairs.py --parent DIR --label warm \\
        --runs grid-d1-square=11-20 --runs tune-d1-tall=11-14 \\
        --trace grid-d1-square=21

--runs takes a workload and a seed range (or one seed) and may repeat;
--trace adds two --trace 1 pairs at each given seed, one parent first and one
change first, reported but not summarised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def workload_seeds(text: str):
    """'W=11-20' or 'W=21' -> (W, [seeds])."""
    name, sep, seeds = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD=SEED or WORKLOAD=FIRST-LAST, got {text!r}")
    first, _, last = seeds.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range in {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range in {text!r}")
    return name, list(range(lo, hi + 1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent tree root")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="change tree root (default: this repository)")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--note", default="", help="one line on what the change does")
    parser.add_argument("--runs", type=workload_seeds, action="append", default=[],
                        metavar="WORKLOAD=SEEDS")
    parser.add_argument("--trace", type=workload_seeds, action="append", default=[],
                        metavar="WORKLOAD=SEED")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: BENCH_<label>.json in the change tree)")
    args = parser.parse_args(argv)
    if not args.runs and not args.trace:
        parser.error("give at least one --runs or --trace")
    return args


def rounds_held(log) -> int | None:
    """The rounds in run.py's '..., rounds <wall>, <wall> s' log line; None without one."""
    for line in log:
        _, sep, walls = line.rpartition(", rounds ")
        if sep:
            return len(walls.split(", "))
    return None


def run_one(tree: Path, command, workload: str, seed: int, seconds, trace: int) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    log = [ln for ln in lines if ln.startswith("# ")]
    return {"exit": proc.returncode,
            "log": log,
            "rounds": rounds_held(log),
            "stderr": proc.stderr.splitlines()[-5:],
            "result": result}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def regression(entry, vals, better: str, bound: float) -> str:
    """The no-regression verdict on one metric (see the module docstring)."""
    scale = bound * abs(entry["parent"]["median"])
    if -entry["median_gap"] > scale:
        return "worse beyond bound"
    sign = -1.0 if better == "lower" else 1.0
    best_parent = max(sign * v for v in vals["parent"])
    if entry["parent_iqr"] > scale and not all(sign * v > best_parent for v in vals["change"]):
        return "unresolved"
    return "within bound"


def summarise(runs, metrics) -> dict:
    """Per workload and metric: medians, quartiles, pairs won by the change and the verdicts."""
    summary = {}
    timed = [r for r in runs if r["trace"] == 0]
    for workload in dict.fromkeys(r["workload"] for r in timed):
        pairs = {}
        for r in timed:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if all(
            s in p and p[s]["result"] and p[s]["result"].get("correct") for s in SIDES)]
        block = {"pairs": len(complete),
                 "correct": {s: sum(bool(p[s]["result"] and p[s]["result"].get("correct"))
                                    for p in pairs.values() if s in p) for s in SIDES},
                 "failed_share": {s: sorted({p[s]["result"]["failed"]
                                             / p[s]["result"]["attempted"] for p in complete})
                                  for s in SIDES},
                 "rounds": {s: [p[s]["rounds"] for p in complete] for s in SIDES}}
        for name, (better, bound) in metrics.items():
            vals = {s: [p[s]["result"]["metrics"][name]["value"] for p in complete]
                    for s in SIDES}
            if not complete or any(len(v) != len(complete) for v in vals.values()):
                continue
            entry = {}
            for s in SIDES:
                q1, median, q3 = quartiles(vals[s])
                entry[s] = {"median": median, "q1": q1, "q3": q3}
            sign = -1.0 if better == "lower" else 1.0
            entry["change_wins"] = sum(sign * (c - p) > 0
                                       for p, c in zip(vals["parent"], vals["change"]))
            entry["median_gap"] = sign * (entry["change"]["median"] - entry["parent"]["median"])
            entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["claim_rule_met"] = (10 * entry["change_wins"] >= 9 * len(complete)
                                       and entry["median_gap"] > entry["parent_iqr"])
            entry["regression"] = regression(entry, vals, better, bound)
            block[name] = entry
        summary[workload] = block
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "BENCHMARK.json").is_file():
            print(f"error: no BENCHMARK.json in the {side} tree {tree}", file=sys.stderr)
            return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out = args.out or trees["change"] / f"BENCH_{args.label}.json"

    plan = [(w, s, 0) for w, seeds in args.runs for s in seeds]
    # Each traced seed runs twice, so the per-(workload, trace) alternation below puts
    # each side first once.
    plan += [(w, s, 1) for w, seeds in args.trace for s in seeds for _ in SIDES]
    protocol = ("each pair runs parent and change on the same seed, one after the other; "
                "even pairs run the parent first, odd pairs the change first; "
                + "; ".join(f"{w} seeds {s[0]}-{s[-1]}" for w, s in args.runs)
                + "".join(f"; two --trace 1 pairs on {w} at seed {s[0]}, one parent first "
                          "and one change first" for w, s in args.trace))
    record = {
        "label": args.label,
        "change": args.note,
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds} --trace T",
        "threads": ("OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 "
                    "(set by bench/run.py)"),
        "machine": f"{platform.machine()} {platform.system()}, {platform.processor() or 'cpu'}, "
                   f"nproc {os.cpu_count()}, python {platform.python_version()}",
        "protocol": protocol,
        "runs": [],
        "summary": {},
    }
    pair_in_workload = {}
    for workload, seed, trace in plan:
        pair = pair_in_workload.get((workload, trace), 0)
        pair_in_workload[(workload, trace)] = pair + 1
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_one(trees[side], command, workload, seed, seconds, trace)
            record["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                   "side": side, "first": order[0], "trace": trace, **run})
            res = run["result"] or {}
            print(f"{workload} seed {seed} {side}: exit {run['exit']}, correct "
                  f"{res.get('correct')}, failed {res.get('failed')}/{res.get('attempted')}",
                  flush=True)
            record["summary"] = summarise(record["runs"], metrics)
            out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, block in record["summary"].items():
        for name in metrics:
            if name in block:
                e = block[name]
                line = (f"{workload} {name}: parent {e['parent']['median']:.6g} "
                        f"[{e['parent']['q1']:.6g}, {e['parent']['q3']:.6g}], change "
                        f"{e['change']['median']:.6g} [{e['change']['q1']:.6g}, "
                        f"{e['change']['q3']:.6g}], change wins {e['change_wins']}/{block['pairs']}, "
                        f"median gap {e['median_gap']:.6g}, parent iqr {e['parent_iqr']:.6g}, "
                        f"claim rule {'met' if e['claim_rule_met'] else 'not met'}, "
                        f"{e['regression']}")
                if name == "peak_rss_mb":
                    line += ", rounds " + " / ".join(
                        ",".join(map(str, block["rounds"][s])) for s in SIDES)
                print(line)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
