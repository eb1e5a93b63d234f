"""Run every workload untraced and traced, and print the results as tables.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a checkout.  For each workload this prints every
end-to-end metric with its unit (p99 latency only for the in-process
workloads, which have at least 1000 samples per run), the error rate with
its counts, the known-defect probe of the CLI, the per-layer table of the
traced run, and the tracing overhead (untraced over traced throughput).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS, machine  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    detail = next(json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail "))
    for ln in lines:
        if ln.startswith("# failure: "):
            print(f"  {ln[2:]}")
    return json.loads(lines[-1]), detail


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def row(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:44s} {fmt(value):>14s} {unit:6s} {note}")


def report(workload: str, seed: int, seconds: float) -> None:
    plain, detail = run(workload, seed, seconds, 0)
    traced, _ = run(workload, seed, seconds, 1)
    m = plain["metrics"]
    print(f"\n== {workload}: end to end (closed loop, one client, {seconds:g} s, "
          f"{plain['attempted']} requests) ==")
    row("setup_s", m["setup_s"]["value"], "s", f"median of {detail['setup_samples']} fresh processes")
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        row(name, m[name]["value"], m[name]["unit"])
    if "latency_p99_ms" in detail:
        row("latency_p99_ms", detail["latency_p99_ms"], "ms")
    row("error_rate", detail["error_rate"], "ratio", f"{plain['failed']} failed of {plain['attempted']}")
    row("peak_rss_mb", m["peak_rss_mb"]["value"], "MB",
        "largest child" if workload == "cli_session" else "benchmark process")
    print(f"  correct: {plain['correct']}")
    defects = detail.get("known_defects")
    if defects:
        print("  known defects (mw-verify on wrong-shape JSON, expected exit 2; run untimed):")
        for cls, reason in defects.items():
            print(f"    {cls:28s} {'ok' if reason is None else 'FAILS: ' + reason}")

    print(f"== {workload}: per layer (traced run) ==")
    for name, v in traced["metrics"].items():
        row(name, v["value"], v["unit"])
    ratio = m["ops_per_s"]["value"] / traced["metrics"]["trace.ops_per_s"]["value"]
    print(f"  tracing overhead: untraced/traced throughput = {ratio:.3f} "
          f"({(ratio - 1) * 100:.1f}% slower traced); traced run correct: {traced['correct']}")


def main() -> int:
    defaults = {}
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            defaults = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=defaults.get("run_seconds", 10))
    args = parser.parse_args()
    info = machine()
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']} python={info['python']} "
          f"seed={args.seed}")
    print("not measured: the benchmark acts only on its own processes (no whole-machine "
          "tracing, no file-cache dropping); figures include whatever else shares the machine")
    for workload in WORKLOADS:
        report(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
