"""End-to-end benchmark of the dyckframes command line.

    python3 bench/run.py --workload oracle --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout; it needs src/dyckframes and
BENCHMARK.json there, and nothing installed.

--trace 0 drives `python -m dyckframes ...` subprocesses in a closed
loop with one client: the next op starts only when the previous one has
exited.  It reports the end-to-end metrics: set-up time (a fresh
interpreter importing dyckframes.cli), the time of one pass over the
workload's op list, the median and 90th-percentile op time, and the
largest child max-RSS.  Each time is scaled by the speed of the host at
that moment, as gauged by gauge.py just before it.

--trace 1 runs the same ops in-process through dyckframes.cli.main,
alternating untraced and traced passes, and reports per-layer counts and
self times from spans placed around each layer's public functions (see
tracing.py); src/ is not touched.

Every op's exit code and stdout are checked against answers computed by
reference.py, which never imports dyckframes.  Metric names and units
come from BENCHMARK.json.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; a fuller report with
an environment stamp, every sample and the per-layer records is written
to .bench_out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import gauge
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PER_PASS = 2  # fresh interpreters timed before each pass, so set-up samples span the run
IMPORT_REPEATS = 11  # pairs of import and bare interpreters timed for cli.import_s
IMPORT_CLI = "import dyckframes.cli"
OP_TIMEOUT_S = 120


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dyckframes" / "cli.py").is_file():
        print(f"error: no src/dyckframes under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference.self_check()
    ops = workloads.build(args.workload, args.seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DYCKFRAMES_ALLOW_LARGE", None)  # the size caps hold, as by default

    if args.trace:
        pairs = [(_fresh_python(IMPORT_CLI, env), _fresh_python("pass", env))
                 for _ in range(IMPORT_REPEATS)]
        result = _traced(ops, args.seconds)
        result["metrics"]["cli.import_s"] = (statistics.median(p[0] for p in pairs)
                                             - statistics.median(p[1] for p in pairs))
        wanted = spec["per_layer"]
    else:
        result = _closed_loop(ops, args.seconds, env)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics this run lacks: {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failures = result["attempted"], result["failures"]
    stamp = _environment()
    report = {
        "env": stamp, "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": [op.label for op in ops], "attempted": attempted,
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        **{k: v for k, v in result.items() if k not in ("attempted", "failures")},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")

    print("env " + json.dumps(stamp))
    for line in result["notes"]:
        print(line)
    print(f"fail_ratio {len(failures)}/{attempted}; report .bench_out/{name}")
    for failure in failures[:5]:
        print("FAILED " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _spawn(argv: list[str], env: dict, capture: bool) -> tuple[int, str, float]:
    """Run argv to its end: exit code, stdout and wall seconds.

    Popen.wait with a timeout polls with growing sleeps, which rounds every
    time up to its polling schedule.  So the wait blocks in waitpid, and a
    timer thread kills a child that hangs.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=pipe, stderr=pipe, text=True)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, stdout or "", perf_counter() - t0


def _fresh_python(code: str, env: dict) -> float:
    """Wall seconds of one fresh `python -c code`."""
    returncode, _, seconds = _spawn([sys.executable, "-c", code], env, capture=False)
    if returncode != 0:
        raise SystemExit(f"error: python -c {code!r} exited with {returncode}")
    return seconds


def _check(op: workloads.Op, returncode: int, stdout: str) -> str | None:
    if returncode != 0:
        return f"exit {returncode}" + (" (killed at the op timeout)" if returncode < 0 else "")
    try:
        return op.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _passes(seconds: float, run_pass) -> None:
    """Call run_pass until the next pass would overrun `seconds`; at least once."""
    t0 = perf_counter()
    while True:
        p0 = perf_counter()
        run_pass()
        now = perf_counter()
        if now - t0 + (now - p0) > seconds:
            return


# ------------------------------------------------------------- end to end


def _closed_loop(ops, seconds: float, env: dict) -> dict:
    # Every sample is timed right after the gauge task and scaled by
    # gauge.REFERENCE_S / (that task's time): it reads in seconds at the
    # gauge's reference host speed, whatever the host's speed at that moment.
    wall: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    setup: list[float] = []
    setup_wall: list[float] = []
    gauged: list[float] = []
    failures: list[str] = []

    def scale() -> float:
        gauged.append(gauge.task())
        return gauge.REFERENCE_S / gauged[-1]

    def run_pass() -> None:
        for _ in range(SETUP_PER_PASS):
            factor = scale()
            setup_wall.append(_fresh_python(IMPORT_CLI, env))
            setup.append(setup_wall[-1] * factor)
        for op, times, times_scaled in zip(ops, wall, scaled):
            factor = scale()
            returncode, stdout, dt = _spawn([sys.executable, "-m", "dyckframes", *op.argv],
                                            env, capture=True)
            times.append(dt)
            times_scaled.append(dt * factor)
            if error := _check(op, returncode, stdout):
                failures.append(f"{op.label}: {error}")

    _passes(seconds, run_pass)
    metrics = _times(setup, scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    unscaled = _times(setup_wall, wall)
    flat = sorted(t for times in scaled for t in times)
    above = sum(1 for t in flat if t > metrics["op_p90_s"])
    return {
        "attempted": len(flat), "failures": failures, "metrics": metrics,
        "unscaled_metrics": unscaled, "gauge_samples_s": gauged,
        "setup_samples_s": setup_wall,
        "op_samples_s": {op.label: times for op, times in zip(ops, wall)},
        "notes": [f"{len(wall[0])} passes, {len(flat)} op samples, "
                  f"{above} above op_p90_s, {len(setup)} set-up samples",
                  f"gauge task median {statistics.median(gauged):.4f} s "
                  f"(reference {gauge.REFERENCE_S} s); unscaled: "
                  + ", ".join(f"{k} {v:.4f}" for k, v in unscaled.items())],
    }


def _times(setup: list[float], samples: list[list[float]]) -> dict[str, float]:
    """The end-to-end times from set-up samples and per-op samples."""
    medians = [statistics.median(times) for times in samples]
    flat = [t for times in samples for t in times]
    return {
        "setup_s": statistics.median(setup),
        # One pass is the sum of its ops; per-op medians keep a slow spell
        # of the machine during one op from moving the whole pass.
        "run_s": sum(medians),
        # Every op runs once a pass, so this is the median op; taken over the
        # per-op medians it does not hop between two ops' times from run to run.
        "op_p50_s": statistics.median(medians),
        "op_p90_s": statistics.quantiles(flat, n=10, method="inclusive")[-1],
    }


# ---------------------------------------------------------------- traced


def _traced(ops, seconds: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from dyckframes import cli

    def call_main(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            returncode = cli.main(list(argv))  # looked up per call: traced when installed
        return returncode, out.getvalue()

    tracer = tracing.Tracer()
    plain_s: list[float] = []
    traced: list[dict] = []
    failures: list[str] = []
    first_pass: dict = {}

    def run_pair() -> None:
        total = 0.0
        for op in ops:
            t0 = perf_counter()
            returncode, stdout = call_main(op.argv)
            total += perf_counter() - t0
            if error := _check(op, returncode, stdout):
                failures.append(f"{op.label}: {error}")
        plain_s.append(total)

        tracer.clear()
        tracer.install()
        try:
            outputs = [tracer.run_op(i, call_main, op.argv) for i, op in enumerate(ops)]
        finally:
            tracer.uninstall()
        for op, (returncode, stdout) in zip(ops, outputs):
            if error := _check(op, returncode, stdout):
                failures.append(f"{op.label}: {error}")
        stats = tracer.stats()
        traced.append(_layer_metrics(ops, stats, [stdout for _, stdout in outputs],
                                     tracer.root_seconds()))
        if len(traced) == 1:
            first_pass["records"] = _records(ops, stats)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / "spans.csv.gz")

    _passes(seconds, run_pair)
    metrics = {name: statistics.median(p[name] for p in traced) for name in traced[0]}
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(plain_s)
    balance = max(abs(p["trace.balance_s"]) for p in traced)
    del metrics["trace.balance_s"]
    wall = metrics["trace.wall_s"]
    shares = ", ".join(f"{name} {metrics[name] / wall:.3f}" for name in
                       [f"{layer}.self_s" for layer in tracing.LAYERS] + ["trace.unattributed_s"])
    return {
        "attempted": 2 * len(ops) * len(plain_s), "failures": failures, "metrics": metrics,
        "records": first_pass["records"], "untraced_pass_s": plain_s, "balance_max_s": balance,
        "notes": [
            f"{len(traced)} traced passes; self time as a share of traced wall: {shares}",
            f"largest |layer self times + unattributed - traced wall| of a pass: {balance:.1e} s",
            "spans of the first traced pass: .bench_out/spans.csv.gz",
        ],
    }


def _layer_metrics(ops, stats: dict, outputs: list[str], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals: dict[str, list] = {}
    layer_self = {layer: 0.0 for layer in (*tracing.LAYERS, "bench")}
    for (_, name), (calls, items, self_s) in stats.items():
        rec = totals.setdefault(name, [0, 0, 0.0])
        rec[0] += calls
        rec[1] += items
        rec[2] += self_s
        layer_self[name.split(".")[0]] += self_s
    metrics: dict[str, float] = {}
    for layer, functions in tracing.TRACED.items():
        for fn in functions:
            calls, items, self_s = totals.get(f"{layer}.{fn}", (0, 0, 0.0))
            metrics[f"{layer}.{fn}.calls"] = calls
            metrics[f"{layer}.{fn}.items"] = items
            metrics[f"{layer}.{fn}.self_s"] = self_s
            metrics[f"{layer}.{fn}.ns_per_item"] = 1e9 * self_s / items if items else 0.0
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.unattributed_s"] = layer_self["bench"]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.balance_s"] = sum(layer_self.values()) - wall_s
    metrics["cli.out_bytes"] = sum(len(out.encode()) for out in outputs)

    walked = printed = 0
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if "--frame" in op.argv:
            walked += stats.get((i, "paths.enumerate_dyck"), (0, 0, 0.0))[1]
            printed += json.loads(out)["count"] if "json" in op.argv else len(out.splitlines())
    # 0 when the workload has no --frame op, so nothing was walked for one.
    metrics["paths.enumerate_dyck.keep_ratio"] = printed / walked if walked else 0.0
    return metrics


def _records(ops, stats: dict) -> list[dict]:
    """One record per op and traced function, in the shape ROADMAP item 1 asks for."""
    out = []
    for (i, name), (calls, items, self_s) in sorted(stats.items()):
        op = ops[i]
        out.append({
            "layer": name.split(".")[0], "operation": name, "op": op.label,
            "size": op.size, "calls": calls, "items": items, "seconds": self_s,
            "ns_per_item": 1e9 * self_s / items if items else None,
        })
    return out


def _environment() -> dict:
    rev, dirty = None, None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "git_rev": rev, "git_dirty": dirty, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
