"""agestruct benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 45 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics of
an untraced run; ``--trace 1`` makes an untraced and a traced run and prints
the per-layer metrics. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import METRICS as LAYER_METRICS  # noqa: E402

# the names in workloads.WORKLOADS; this process imports neither numpy nor agestruct.
# BENCHMARK.json lists the first two; param_scan is runnable by hand.
WORKLOADS = ("cli_session", "oracle_fine", "param_scan")
#: processes that only set up, next to the measured one, for the setup_s median
SETUP_REPEATS = 7
#: a run must end within this many seconds
DEADLINE_S = 170.0
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def _cpu_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine is now.

    Printed in the header only, so that a shift of every timing between two
    runs can be told apart from a change in the program.
    """
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class _Spawner:
    """Starts workers one at a time and waits for each before the next."""

    def __init__(self, args, env: dict, workdir: Path):
        self.args = args
        self.env = env
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def __call__(self, mode: str) -> dict:
        self.count += 1
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--mode", mode, "--scale", self.args.scale,
            "--workdir", str(self.workdir / f"{mode}{self.count}"),
        ]
        if self.args.corrupt and mode == "run":
            argv += ["--corrupt", self.args.corrupt]
        if mode == "traced":
            argv += ["--trace-file", str(self.workdir.parent / f"trace-{self.args.workload}-seed{self.args.seed}.json")]
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            _fail(f"{mode} worker did not finish within {DEADLINE_S:g} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"{mode} worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - started
        return result


def _ops(result: dict) -> list:
    return [op for ops in result["passes"] for op in ops]


def _wall(result: dict) -> float:
    """Mean over passes of the time the operations of one pass took.

    The host's speed moves between states that last seconds; a mean weighs
    them by the time spent in each, where a median over a few passes jumps
    to whichever state held most passes.
    """
    return statistics.fmean(sum(op["s"] for op in ops) for ops in result["passes"])


def _latencies(ops: list) -> list:
    """Operation times, with a failed operation slower than any that completed."""
    return [op["s"] if op["ok"] else math.inf for op in ops]


def _censored(seconds: float) -> float:
    """A percentile that falls on failed operations reads as the deadline."""
    return seconds if math.isfinite(seconds) else DEADLINE_S


def _tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--corrupt", metavar="OP",
                        help="self-test: spoil the output of the first operation with this name")
    args = parser.parse_args()

    for needed in (ROOT / "src" / "agestruct" / "__init__.py", ROOT / "configs" / "ref1.json"):
        if not needed.is_file():
            _fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout of the repository")

    nproc = len(os.sched_getaffinity(0))
    cpu_ref_ms = _cpu_reference_ms()
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        spawn = _Spawner(args, _environment(nproc), workdir)
        if args.trace:
            runs = [spawn("run"), spawn("traced")]
            metrics = dict(runs[1]["layers"])
            metrics["trace.overhead_s"] = _wall(runs[1]) - _wall(runs[0])
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        else:
            runs = [spawn("run")]
            setups = [runs[0]["setup_s"]] + [spawn("setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            durations = _latencies(_ops(runs[0]))
            tail, tail_pct = _tail(durations)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": _wall(runs[0]),
                "op_p50_ms": _censored(statistics.median(durations)) * 1e3,
                "op_tail_ms": _censored(tail) * 1e3,
                "peak_rss_mb": runs[0]["peak_rss_mb"],
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for run in runs for op in _ops(run)]
    failed = [op for op in ops if not op["ok"]]
    env = dict(runs[0]["env"], blas_threads=nproc, nproc=nproc, cpu=_cpu_model(),
               seed=args.seed, commit=_commit(), cpu_ref_ms=round(cpu_ref_ms, 2))
    print(f"# agestruct benchmark: workload {args.workload}, {len(runs[0]['passes'])} passes, trace {args.trace}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        note = f"  (p{tail_pct:.1f} of {len(durations)} ops)" if name == "op_tail_ms" else ""
        print(f"{name:32s} {value:.6g} {units[name]}{note}")
    print(f"{'ops':32s} {len(ops)}")
    print(f"{'ops_failed':32s} {len(failed)}")
    grouped = collections.Counter(
        ("known limit" if op["known_limit"] else "FAILED", op["name"], op["problems"][0]) for op in failed
    )
    for (kind, name, problem), count in grouped.items():
        print(f"  {kind} x{count}: {name}: {problem}")
    print(json.dumps({
        "correct": all(op["ok"] or op["known_limit"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
