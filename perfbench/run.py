"""mw-slice benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

* ``filtration_grid``: the slice-filtration identity on a seeded (n, p, q)
  grid (abelian, filtration, transfers);
* ``bigfield_certs``: forms, normal forms and certificate round trips over
  Fq(10007) and Fq(2187) (fields, forms, milnor_witt, rewriting);
* ``cli_session``: a fresh ``python -m mwslice.cli`` process per request
  (interpreter start, import, per-field set-up).

Each is a closed loop with one client.  With ``--trace 0`` the last line of
standard output is the JSON result with the end-to-end metrics; with
``--trace 1`` the library is traced and the metrics are per layer.  Lines
before it, starting with ``#``, describe the machine, the run and its
failures; ``# detail`` carries the figures the JSON line leaves out.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array

import clisession

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("filtration_grid", "bigfield_certs", "cli_session")
SETUP_REPEATS = 2  # per batch: before the window, between its segments, after it
SEGMENTS = 5
PROBE_REPEATS = 5
CHUNK = 2000  # requests generated at a time, off the clock; two are held at most
CLI_SUBCOMMANDS = ("gw", "witt", "mw-normalize", "mw-derive", "mw-verify", "filtration",
                   "graded", "convergence", "moore", "transfer")


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def latency_summary(latencies: list[float]) -> dict:
    return {"p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": quantile(latencies, 90) * 1e3,
            "p99_ms": quantile(latencies, 99) * 1e3}


class Runner:
    def __init__(self, args, root: str) -> None:
        self.args = args
        self.root = root
        self.tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.probe_session = clisession.Session(root, self.tmp, [sys.executable, "-m", "mwslice.cli"])

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run is still using it

    def spawn(self, argv: list[str]) -> tuple[int, float, str]:
        out = os.path.join(self.tmp, "probe.out")
        err = os.path.join(self.tmp, "probe.err")
        code, _, elapsed = clisession.spawn(argv, self.probe_session.env, out, err)
        with open(out, encoding="utf-8") as fh:
            return code, elapsed, fh.read()

    # -- set-up ------------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Spawn-to-ready time of fresh processes doing the workload's set-up."""
        child = os.path.join(HERE, "child.py")
        out = []
        for _ in range(SETUP_REPEATS):
            t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            code, _, text = self.spawn([sys.executable, child, "setup", self.args.workload])
            if code != 0:
                raise RuntimeError(f"set-up process exited {code}")
            out.append((int(text.split()[-1]) - t0) / 1e9)
        return out

    def cli_probes(self) -> dict:
        """Interpreter start and package import, in fresh processes."""
        bare, imported = [], []
        for _ in range(PROBE_REPEATS):
            bare.append(self.spawn([sys.executable, "-c", "pass"])[1])
            imported.append(self.spawn([sys.executable, "-c", "import mwslice.cli"])[1])
        start = statistics.median(bare) * 1e3
        return {"interp_start_ms": start, "import_ms": statistics.median(imported) * 1e3 - start}

    def known_defects(self) -> dict:
        return clisession.probe_known_defects(self.probe_session)

    # -- workloads ---------------------------------------------------------

    def run_in_process(self, tracer, pause=None) -> dict:
        from workloads import IN_PROCESS

        stream, setup, request = IN_PROCESS[self.args.workload]
        stream = stream(self.args.seed)

        def refill() -> list[dict]:
            return list(itertools.islice(stream, CHUNK))

        state = setup()
        if tracer is not None:
            request = tracer.wrap("request", request)
        return closed_loop(request, state, [], window=Window(self.args.seconds, pause),
                           tracer=tracer, refill=refill)

    def run_cli(self, traced: bool, pause=None) -> dict:
        inputs = clisession.generate(self.args.seed)
        stats_path = os.path.join(self.tmp, "stats.json")
        if traced:
            prefix = [sys.executable, os.path.join(HERE, "child.py"), "cli", stats_path]
        else:
            prefix = [sys.executable, "-m", "mwslice.cli"]
        session = clisession.Session(self.root, self.tmp, prefix)
        latencies, per_sub, failures, snapshots = [], {}, [], []
        cycle = len(clisession.CYCLE)  # inputs repeat only after clisession.CYCLES cycles
        window = Window(self.args.seconds, pause)
        i = 0
        while i % cycle or window.open():
            req = inputs[i % len(inputs)]
            elapsed, reason = session.run(req)
            latencies.append(elapsed)
            per_sub.setdefault(clisession.subcommand(req), []).append(elapsed)
            if reason is not None:
                failures.append(f"request {i} ({req['class']}): {reason}")
            if traced and os.path.exists(stats_path):
                with open(stats_path, encoding="utf-8") as fh:
                    snapshots.append(json.load(fh))
                os.remove(stats_path)
            i += 1
        return {"latencies": latencies, "wall": window.wall(), "failures": failures,
                "per_subcommand": per_sub, "snapshots": snapshots,
                "peak_rss_mb": session.max_rss_kib / 1024}


class Window:
    """The measured window: ``seconds`` of loop time.

    With a ``pause`` callable the window is cut into SEGMENTS equal segments
    and ``pause()`` runs between them, off the clock.
    """

    def __init__(self, seconds: float, pause=None) -> None:
        self.pause = pause
        self.segment = seconds / SEGMENTS
        self.start = time.perf_counter()
        self.paused = 0.0
        self.next_pause = self.start + self.segment
        self.deadline = self.start + seconds

    def open(self) -> bool:
        """True while the window lasts; runs a due pause first."""
        now = time.perf_counter()
        if self.pause is not None and self.next_pause <= now < self.deadline:
            self.off_clock(self.pause)
            self.next_pause += self.segment
            now = time.perf_counter()
        return now < self.deadline

    def off_clock(self, work):
        """Run ``work()`` without counting its time in the window."""
        t0 = time.perf_counter()
        result = work()
        shift = time.perf_counter() - t0
        self.paused += shift
        self.deadline += shift
        self.next_pause += shift
        return result

    def wall(self) -> float:
        return time.perf_counter() - self.start - self.paused


def closed_loop(request, state, inputs, window=None, count=None, tracer=None,
                refill=None) -> dict:
    """Send inputs one at a time until the window closes or the count runs out.

    When the inputs run out, ``refill()`` gives the next list, off the clock;
    without it the inputs start over.  The answer is compared with the
    request's expected answer after the request's clock stops.  Latencies go
    to a compact array, so the benchmark's own memory barely grows with the
    number of requests.
    """
    latencies, failures = array("d"), []
    clock = time.perf_counter
    start = clock()
    i = j = 0
    while (count is None or i < count) and (window is None or window.open()):
        if j == len(inputs):
            if refill is not None:
                inputs = window.off_clock(refill) if window is not None else refill()
            j = 0
        inp = inputs[j]
        j += 1
        if tracer is not None:
            tracer.request_id = i + 1
        t0 = clock()
        try:
            got = request(state, inp)
        except Exception as exc:  # a crashing request is a failed request
            got = exc
        latencies.append(clock() - t0)
        if got != inp["expect"]:
            failures.append(f"request {i}: got {got!r}, expected {inp['expect']!r}")
        i += 1
    wall = window.wall() if window is not None else clock() - start
    return {"latencies": latencies, "wall": wall, "failures": failures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mwslice", "__init__.py")):
        print(f"error: no mw-slice sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    for path in (src, HERE):  # the build: byte-code before any timing
        compileall.compile_dir(path, quiet=1)

    info = machine()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']}")
    runner = Runner(args, root)
    try:
        if args.trace:
            metrics, detail = traced_run(runner)
        else:
            metrics, detail = untraced_run(runner)
    finally:
        runner.close()
    failures = detail.pop("failures")
    for line in failures[:10]:
        print(f"# failure: {line}")
    detail.update(machine=info, seed=args.seed, workload=args.workload, trace=args.trace)
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": detail["attempted"],
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def untraced_run(runner: Runner) -> tuple[dict, dict]:
    # set-up is sampled before, within (off the clock) and after the measured
    # window, so its median spans the machine's speed drift over the run
    setups = runner.setup_seconds()

    def pause() -> None:
        setups.extend(runner.setup_seconds())

    if runner.args.workload == "cli_session":
        res = runner.run_cli(traced=False, pause=pause)
        rss = res["peak_rss_mb"]
    else:
        res = runner.run_in_process(None, pause=pause)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += runner.setup_seconds()
    lat = latency_summary(res["latencies"])
    attempted = len(res["latencies"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / res["wall"], "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_p90_ms": (lat["p90_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"attempted": attempted, "failures": res["failures"],
              "error_rate": len(res["failures"]) / attempted,
              "setup_samples": len(setups),
              "setup_s_all": setups}
    if runner.args.workload == "cli_session":
        detail["known_defects"] = runner.known_defects()
    else:
        detail["latency_p99_ms"] = lat["p99_ms"]
    return metrics, detail


def traced_run(runner: Runner) -> tuple[dict, dict]:
    import tracer as tracing

    if runner.args.workload == "cli_session":
        res = runner.run_cli(traced=True)
        snap = tracing.merge(res["snapshots"])
        per_sub = res["per_subcommand"]
    else:
        tr = tracing.Tracer()
        tr.install()
        try:
            res = runner.run_in_process(tr)
        finally:
            tr.uninstall()
        snap = tr.snapshot()
        per_sub = {}
        tr.write_spans(os.path.join(runner.root, ".perfbench_out",
                                    f"spans-{runner.args.workload}-seed{runner.args.seed}.jsonl"))
    attempted = len(res["latencies"])
    metrics = tracing.layer_metrics(snap, attempted)
    probes = runner.cli_probes()
    defects = runner.known_defects()
    metrics["cli.interp_start_ms"] = (probes["interp_start_ms"], "ms")
    metrics["cli.import_ms"] = (probes["import_ms"], "ms")
    metrics["cli.requests"] = (sum(len(v) for v in per_sub.values()), "count")
    for sub in CLI_SUBCOMMANDS:
        samples = per_sub.get(sub)
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    metrics["cli.known_defects.failed"] = (sum(1 for r in defects.values() if r), "count")
    lat = latency_summary(res["latencies"])
    metrics["trace.ops_per_s"] = (attempted / res["wall"], "1/s")
    metrics["trace.latency_p50_ms"] = (lat["p50_ms"], "ms")
    detail = {"attempted": attempted, "failures": res["failures"], "known_defects": defects}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
