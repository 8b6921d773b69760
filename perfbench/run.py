"""qres benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload study-mle --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; qres is imported from ./src, nothing
is installed.  Each workload process is a fresh interpreter with numpy and
BLAS pinned to one thread.  The seed fixes every op's inputs.

With --trace 0 the end-to-end metrics are measured untraced.  The latency
metrics (ops_per_s, op_p50_ms, op_tail_ms) are normalized: each op's wall
time is multiplied by REFERENCE_NOMINAL_S over the time the workload's
fixed reference kernel took around it, because on a shared host a virtual
machine's speed can change by a third for seconds at a time.  The raw
wall-clock figures are printed too, as raw.*.  With --trace 1 a separate
run wraps qres's layer functions and reports per-layer metrics (see
tracing.py).

Every metric is printed as a line with its unit and sample count; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  A copy with the environment record goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("study-posterior", "study-large-n", "study-mle", "bounds-sweep")

# Fresh processes whose set-up is timed; setup_s is their median, and
# peak_rss_mb the median of their peak RSS through set-up and the warm-up op
# (the reference kernel, which runs only after that, cannot inflate it).
SETUP_RUNS = 3
# Fresh processes timing `import qres.cli`; cli.import_s is their median.
IMPORT_RUNS = 3
# Every process this run starts must finish within this many seconds.
TIME_LIMIT_S = 170.0
# The tail is the highest latency with at least this many samples beyond it.
TAIL_BEYOND = 10
# Op latencies are rescaled to a machine on which the workload's reference
# kernel (worker.REFERENCE_KERNELS) takes this long, about its time on an
# idle core of a 2-vCPU Intel Xeon VM.
REFERENCE_NOMINAL_S = 0.007

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def spawn(argv, deadline: float) -> tuple:
    """Run a fresh interpreter to completion; returns (launch time, the
    JSON object on the last line of its stdout)."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(args, mode: str, deadline: float, *extra) -> tuple:
    argv = [
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        *extra,
    ]  # fmt: skip
    launched, result = spawn(argv, deadline)
    if not Path(result["qres_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"qres was imported from {result['qres_file']}, not from {SRC}")
    return result["first_op_at"] - launched, result


def import_seconds(deadline: float) -> float:
    code = "import time; t = time.perf_counter(); import qres.cli; print(time.perf_counter() - t)"
    return statistics.median(spawn(["-c", code], deadline)[1] for _ in range(IMPORT_RUNS))


def tail(latencies: list) -> tuple:
    """(latency, percentile): the highest-percentile latency with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def git_commit() -> str:
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args, worker: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "commit": git_commit(),
        "threads": {name: "1" for name in THREAD_VARS},
    }


def latency_metrics(latencies: list, failed: int, prefix: str = "") -> dict:
    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    return {
        f"{prefix}ops_per_s": ((n - failed) / sum(latencies), "1/s", {"samples": n}),
        f"{prefix}op_p50_ms": (1e3 * statistics.median(latencies), "ms", {"samples": n}),
        f"{prefix}op_tail_ms": (
            1e3 * tail_s,
            "ms",
            {"samples": n, "percentile": round(tail_pct, 2)},
        ),
    }


def end_to_end(args, deadline: float) -> tuple:
    setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
    setups.append(run_worker(args, "run", deadline))
    result = setups[-1][1]
    latencies = result["latencies"]
    if not latencies:
        raise BenchError("no op completed; raise --seconds")
    n = len(latencies)
    failed = sum(1 for problems in result["problems"] if problems)
    scaled = [
        latency * REFERENCE_NOMINAL_S / reference
        for latency, reference in zip(latencies, result["references"])
    ]
    setup_s = statistics.median(s for s, _ in setups)
    metrics = {"setup_s": (setup_s, "s", {"samples": SETUP_RUNS})}
    metrics.update(latency_metrics(scaled, failed))
    metrics.update(
        {
            "peak_rss_mb": (
                statistics.median(r["peak_rss_kb"] for _, r in setups) / 1024.0,
                "MB",
                {"samples": SETUP_RUNS},
            ),
            "success_rate": ((n - failed) / n, "ratio", {"samples": n, "error_rate": failed / n}),
        }
    )
    raw = latency_metrics(latencies, failed, prefix="raw.")
    raw["raw.reference_ms"] = (
        1e3 * statistics.median(result["references"]),
        "ms",
        {"samples": n},
    )
    return result, metrics, n, failed, raw


def per_layer(args, deadline: float) -> tuple:
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    _, result = run_worker(args, "trace", deadline, "--spans-out", str(spans_path))
    ops = result["metrics"]["trace.ops"][0]
    metrics = {
        name: (value, unit, {"samples": ops}) for name, (value, unit) in result["metrics"].items()
    }
    metrics["cli.import_s"] = (import_seconds(deadline), "s", {"samples": IMPORT_RUNS})
    n = len(result["problems"])
    failed = sum(1 for problems in result["problems"] if problems) + result["mismatched"]
    return result, metrics, n, failed, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qres" / "__init__.py").is_file():
        print(f"error: no qres sources under {SRC}; run from a qres checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        result, metrics, attempted, failed, raw = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = sorted({p for ps in result["problems"] for p in ps})
    problems += result["warmup_problems"]
    if result.get("mismatched"):
        problems.append(f"{result['mismatched']} traced ops differ from their untraced run")
    correct = failed == 0 and not result["warmup_problems"]
    env = environment(args, result)

    print("env " + json.dumps(env))
    for name, (value, unit, info) in {**metrics, **raw}.items():
        extra = "".join(f" {k}={v}" for k, v in info.items())
        print(f"metric {name} {value!r} {unit}{extra}")
    for problem in problems:
        print(f"failure {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            name: {"value": value, "unit": unit, **info}
            for name, (value, unit, info) in {**metrics, **raw}.items()
        },
        "latencies_s": result.get("latencies"),
        "references_s": result.get("references"),
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
