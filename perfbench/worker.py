"""One workload in a fresh process: set-up, timed passes, one JSON result.

Run by ``run.py``; not meant to be started by hand. The result goes to stdout
as one JSON line. ``ready`` is the CLOCK_MONOTONIC time at which set-up
ended, so the parent can measure set-up from the moment it spawned us.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import agestruct  # noqa: E402

if not Path(agestruct.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"agestruct was imported from {agestruct.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

#: per-process repeats of each start-up probe
START_PROBE_REPEATS = 3
START_PROBES = {
    "cli.python_start": "pass",
    "cli.numpy_import": "import numpy",
    "cli.import": "import agestruct",
}


def _run_op(op, corrupt: bool, tracer=None) -> dict:
    """Time one operation, then check it outside the timed region."""
    span = tracer.span(op.span) if tracer and op.span else contextlib.nullcontext()
    started = time.perf_counter()
    try:
        with span:
            result = op.run()
    except Exception as exc:  # every failure is counted, the run goes on
        seconds = time.perf_counter() - started
        limit = op.known_limit and isinstance(exc, agestruct.AgestructError)
        return {"name": op.name, "s": seconds, "ok": False, "known_limit": limit,
                "problems": [f"{type(exc).__name__}: {exc}"]}
    seconds = time.perf_counter() - started
    if tracer:
        tracer.op = "check"  # calls made by the check are not the operation's
    if corrupt:
        result = op.corrupt(result)
    try:
        problems = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {"name": op.name, "s": seconds, "ok": not problems, "known_limit": False, "problems": problems}


def _start_probes(tracer, env) -> None:
    for name, code in START_PROBES.items():
        for i in range(START_PROBE_REPEATS):
            tracer.op = f"probe:{name}{i}"
            with tracer.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)


def _probe_pass(tracer, workload_name: str, seed: int, scale: str, workdir: Path) -> list:
    """One pass of every other workload, tiny unless it asks for a full probe,
    so that each layer has spans."""
    gaps = []
    for name, cls in workloads.WORKLOADS.items():
        if name == workload_name:
            continue
        probe = cls(seed, scale if cls.full_probe else "tiny", workdir / f"probe_{name}")
        tracer.op = "probe-setup"
        probe.setup()
        for i, op in enumerate(probe.pass_ops(0)):
            tracer.op = f"probe:{name}{i}"
            _run_op(op, False, tracer)
        gaps += probe.gaps
    _start_probes(tracer, workloads.cli_env())
    return gaps


def env_header() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", help="spoil the result of the first operation with this name")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", help="where the traced mode writes its spans")
    args = parser.parse_args()
    workdir = Path(args.workdir)

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    workload.setup()
    ready = time.monotonic()
    result = {"ready": ready, "env": env_header()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    passes = []
    to_corrupt = args.corrupt
    for k in range(workload.passes_for(args.seconds)):
        ops = []
        for i, op in enumerate(workload.pass_ops(k)):
            if tracer:
                tracer.op = f"pass{k}:{i}"
            corrupt = op.name == to_corrupt and op.corrupt is not None
            ops.append(_run_op(op, corrupt, tracer))
            if corrupt:
                to_corrupt = None
        passes.append(ops)
    result["passes"] = passes
    result["gaps"] = workload.gaps
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # at most one child runs at a time, next to this process
    result["peak_rss_mb"] = (usage + (children if args.workload == "cli_session" else 0)) / 1024.0

    if tracer:
        probe_gaps = _probe_pass(tracer, args.workload, args.seed, args.scale, workdir)
        layers = tracing.layer_metrics(tracer.spans)
        layers["oracle.xval_gap"] = max(workload.gaps or probe_gaps, default=0.0)
        result["layers"] = layers
        tracer.dump(args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
