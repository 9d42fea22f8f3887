"""End-to-end benchmark suite: four workloads, outside-in layer budget.

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints one JSON object as the last line
  of standard output (the contract in ``BENCHMARK.json``): ``--trace 0``
  the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
  separate traced run;
* ``run.py [--seed N]`` runs that command for every workload, untraced
  then traced, each in a fresh subprocess, prints every metric by name
  with its unit, and writes ``out/report.json`` and ``out/spans.jsonl``.

``--quick`` shrinks inputs and windows to a smoke test;
``--check-agreement`` runs the end-to-end half twice and compares.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update(latency_p99_ms="ms", failed_ratio="ratio")  # suite-only metrics
QUICK_SECONDS = 2
DEFAULT_SEED = 1996


def measure(args: argparse.Namespace) -> int:
    """One workload in this process; the driver's entry point."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"run.py: no program to measure under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    import workloads

    scale = workloads.QUICK if args.quick else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, scale)
    run = harness.run_traced if args.trace else harness.run_untraced
    try:
        record = run(workload, args.seconds, warm=not args.quick)
    finally:
        workload.close()
    if args.record:
        print(json.dumps(record))
        return 0
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {
                "value": record["metrics"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    print(json.dumps(line))
    return 1 if record["failed"] else 0


# -- the suite --------------------------------------------------------------


def collect(workload: str, trace: int, args: argparse.Namespace) -> dict:
    """``measure`` in a fresh subprocess; its full record, not the line."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--record",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode:
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    record = json.loads(done.stdout.splitlines()[-1])
    record.update(workload=workload, trace=trace)
    return record


def run_suite(args: argparse.Namespace, traces=(0, 1)) -> list[dict]:
    """Every workload x trace mode, each in a fresh subprocess."""
    jobs = [(w, t) for w in WORKLOADS for t in traces]
    # one at a time, so runs do not disturb each other; the smoke test
    # only asks whether the numbers exist, and may use both cores
    with concurrent.futures.ThreadPoolExecutor(2 if args.quick else 1) as pool:
        return list(pool.map(lambda job: collect(*job, args), jobs))


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(args: argparse.Namespace) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "quick": args.quick,
        "window_seconds": args.seconds,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def print_records(records: list[dict]) -> None:
    for record in records:
        kind = "per-layer (traced run)" if record["trace"] else "end-to-end"
        print(f"\n== {record['workload']}: {kind} ==")
        for name, value in record["metrics"].items():
            print(f"  {name:<48} {value:>14.4f} {UNITS[name]}")
        for name, sample in record["samples"].items():
            print(
                f"  [{name}: n={sample['n']} q1={sample['q1']:.4f}"
                f" q2={sample['q2']:.4f} q3={sample['q3']:.4f}]"
            )
        print(f"  attempted={record['attempted']} failed={record['failed']}")


def write_report(records: list[dict], args: argparse.Namespace) -> None:
    OUT.mkdir(exist_ok=True)
    with (OUT / "spans.jsonl").open("w") as handle:
        for record in records:
            for span in record.pop("spans", ()):
                span["workload"] = record["workload"]
                handle.write(json.dumps(span) + "\n")
    report = {"_meta": provenance(args), "runs": records}
    (OUT / "report.json").write_text(json.dumps(report, indent=1))
    print(f"\nreport: {OUT / 'report.json'}  spans: {OUT / 'spans.jsonl'}")


def check_agreement(args: argparse.Namespace) -> int:
    """Two back-to-back end-to-end runs must agree within the bounds."""
    first, second = run_suite(args, (0,)), run_suite(args, (0,))
    bad = 0
    print(
        f"{'workload':<14}{'metric':<20}{'run 1':>12}{'run 2':>12}"
        f"{'gap':>8}{'bound':>7}"
    )
    for one, two in zip(first, second):
        for metric in SPEC["end_to_end"]:
            a = one["metrics"][metric["name"]]
            b = two["metrics"][metric["name"]]
            gap = abs(a - b) / min(a, b)
            over = gap > metric["bound"]
            bad += over
            print(
                f"{one['workload']:<14}{metric['name']:<20}{a:>12.4f}{b:>12.4f}"
                f"{gap:>8.3f}{metric['bound']:>7.2f}{'  OVER' if over else ''}"
            )
        bad += one["failed"] + two["failed"]
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else SPEC["run_seconds"]
    if args.workload:
        return measure(args)
    if args.check_agreement:
        return check_agreement(args)
    records = run_suite(args)
    print_records(records)
    write_report(records, args)
    return 1 if any(record["failed"] for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
