"""Command-line front end.

Every subcommand reads one JSON config and writes its outputs under a
single directory; ``run`` times it and registers each written file in
``manifest.json`` there.
Data files (CSV) are deterministic byte-for-byte for a given config; wall
clock timings live only in the manifest and run summary.

Each solver module is imported by the subcommand that runs it, so a
process loads the oracle only for ``validate``.

Exit codes: 0 success; 1 validation threshold failure; 2 config parse or
schema error; 3 config invariant violation; 4 runtime solver error or an
output directory that cannot be made or written.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import RunConfig, load_config
from .csvio import (
    atomic_open,
    density_filename,
    write_density_csv,
    write_lines,
    write_oracle_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .errors import AgestructError, ConfigSchemaError, ConvergenceError, ParameterError
from .model import density_moments
from .quadrature import uniform_grid
from .reduction import Trajectory, integrate

if TYPE_CHECKING:
    from .stability import StabilityReport

MANIFEST_NAME = "manifest.json"
SUMMARY_NAME = "run_summary.json"


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise AgestructError(f"{path}: damaged {what} ({exc})") from exc


def _load_manifest(outdir: Path) -> dict:
    """The manifest, empty when absent; a damaged one is an error, never overwritten."""
    path = outdir / MANIFEST_NAME
    if not path.exists():
        return {"files": [], "timings": {}}
    doc = _read_json(path, "manifest")
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("files"), list)
        and all(isinstance(name, str) for name in doc["files"])
        and isinstance(doc.setdefault("timings", {}), dict)
    ):
        raise AgestructError(f"{path}: damaged manifest (expected a list of files and a timings object)")
    return doc


def _register(outdir: Path, command: str, files, elapsed: float) -> None:
    # an exclusive lock on the directory itself serializes concurrent
    # read-modify-writes without leaving a lock file among the outputs
    fd = os.open(outdir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        manifest = _load_manifest(outdir)
        for name in files:
            if name not in manifest["files"]:
                manifest["files"].append(name)
        manifest["timings"][command] = elapsed
        _write_json(outdir / MANIFEST_NAME, manifest)
    finally:
        os.close(fd)


def _write_json(path: Path, doc) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_complex_list(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _stability_doc(report: StabilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "spectral_abscissa": report.spectral_abscissa,
        "trace": report.trace,
        "eigenvalues": _json_complex_list(report.eigenvalues),
        "jacobian": [[float(v) for v in row] for row in report.jacobian],
    }


def _equilibrium_doc(cfg: RunConfig) -> dict:
    from .stability import classify, classify_trivial
    from .steady import equilibrium

    eq = equilibrium(cfg.params, cfg.feedback)
    doc = {
        "r0": cfg.params.r0,
        "exists": eq.exists,
        "p_star": eq.p_star,
        "moments": list(eq.moments_star),
        "birth_rate": eq.birth_rate_star,
        "residual": eq.residual_inf_norm,
    }
    report = classify(eq, cfg.params, cfg.feedback)
    doc["stability"] = _stability_doc(report)
    doc["verdict"] = report.verdict
    doc["trivial"] = _stability_doc(classify_trivial(cfg.params, cfg.feedback))
    return doc


def _run_trajectory(cfg: RunConfig) -> Trajectory:
    start = density_moments(cfg.initial, cfg.params.rho, cfg.params.n)
    settings = asdict(cfg.integrator)  # every field but samples is an integrate keyword
    return integrate(start, cfg.params, cfg.feedback, n_samples=settings.pop("samples"), **settings)


def _clamp_note(traj: Trajectory) -> str:
    """The summary's note of the state entries the undershoot policy zeroed, if any."""
    return f"; clamped {traj.clamp_count} slightly negative state entries" if traj.clamp_count else ""


def _cmd_steady(cfg: RunConfig, outdir: Path):
    doc = _equilibrium_doc(cfg)
    _write_json(outdir / "steady.json", doc)
    if doc["exists"]:
        found = f"nontrivial equilibrium: p_star = {doc['p_star']!r}, birth rate {doc['birth_rate']!r}"
    else:
        found = "no nontrivial equilibrium (net reproduction at zero size <= 1)"
    verdict = f"stability: {doc['verdict']} (spectral abscissa {doc['stability']['spectral_abscissa']!r})"
    return 0, ["steady.json"], f"{found}\n{verdict}"


def _cmd_simulate(cfg: RunConfig, outdir: Path):
    traj = _run_trajectory(cfg)
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    return 0, ["trajectory.csv"], (
        f"integrated to t = {traj.t_end!r} ({traj.times.size} samples, "
        f"final p = {float(traj.states[-1, 0])!r}){_clamp_note(traj)}"
    )


def _cmd_reconstruct(cfg: RunConfig, outdir: Path):
    from .reconstruct import characteristic_jump, consistency_check, default_age_grid, reconstruct_density

    p0 = cfg.initial
    traj = _run_trajectory(cfg)
    settings = cfg.reconstruction
    if settings.age_max is not None:
        grid = uniform_grid(settings.age_max, settings.age_step)
    else:
        grid = default_age_grid(traj, p0, settings.age_step)
    files = []
    checks = []
    for t in settings.times:
        field = reconstruct_density(traj, p0, cfg.params, cfg.feedback, t, grid)
        report = consistency_check(field, traj, p0)
        name = density_filename(t)
        write_density_csv(outdir / name, field)
        files.append(name)
        jump = characteristic_jump(traj, p0, t)
        checks.append({"t": float(t), **asdict(report), "characteristic_jump": jump})
    _write_json(outdir / "consistency.json", {"checks": checks})
    worst = max(c["relative_mass_error"] for c in checks)
    return 0, files + ["consistency.json"], (
        f"reconstructed {len(settings.times)} profile(s); worst relative mass error {worst:.3e}{_clamp_note(traj)}"
    )


def _cmd_sweep(cfg: RunConfig, outdir: Path):
    from .steady import bifurcation_sweep

    points = bifurcation_sweep(cfg.params, cfg.feedback, cfg.sweep_r0)
    write_sweep_csv(outdir / "sweep.csv", points)
    existing = sum(1 for pt in points if pt.exists)
    return 0, ["sweep.csv"], f"swept {len(points)} r0 values; {existing} carry a nontrivial equilibrium"


def _cmd_validate(cfg: RunConfig, outdir: Path):
    from .oracle import cross_validate

    settings = cfg.oracle
    try:
        report = cross_validate(
            cfg.params,
            cfg.feedback,
            cfg.initial,
            t_end=settings.t_end,
            dt=settings.dt,
            tol=settings.tol,
            k_max=settings.k_max,
        )
    except ConvergenceError as exc:  # a stall still leaves the sweeps it got through
        write_lines(outdir / "oracle_log.txt", exc.sweep_log)
        raise
    write_lines(outdir / "oracle_log.txt", report.oracle.sweep_log)
    write_oracle_csv(outdir / "oracle.csv", report.oracle)
    passed = report.max_gap <= settings.gap_threshold
    doc = {
        "p_gap": report.p_gap,
        "b_gap": report.b_gap,
        "gap_threshold": settings.gap_threshold,
        "passed": passed,
        "iterations": report.oracle.iterations,
        "sweeps": report.oracle.sweeps,
        "final_update": report.oracle.final_update,
        "t_end": settings.t_end,
        "dt": settings.dt,
    }
    _write_json(outdir / "validate.json", doc)
    status = "PASS" if passed else "FAIL"
    return 0 if passed else 1, ["oracle.csv", "oracle_log.txt", "validate.json"], (
        f"{status}: sup-norm gaps p = {report.p_gap:.3e}, b = {report.b_gap:.3e} "
        f"(threshold {settings.gap_threshold:.3e})"
    )


def _cmd_report(cfg: RunConfig, outdir: Path):
    started = time.perf_counter()  # run_summary.json records its own elapsed time
    manifest = _load_manifest(outdir)
    missing = [name for name in manifest["files"] if not (outdir / name).exists()]
    if missing:
        raise AgestructError(f"manifest entries missing on disk: {', '.join(sorted(missing))}")
    metrics = {}
    for name, key in (("validate.json", "validation"), ("consistency.json", "consistency")):
        path = outdir / name
        if path.exists():
            metrics[key] = _read_json(path, f"{key} record")
    summary = {
        "config": cfg.resolved,
        "equilibrium": _equilibrium_doc(cfg),
        "metrics": metrics,
        "manifest": sorted(manifest["files"]),
        "timings": dict(manifest["timings"], report=time.perf_counter() - started),
    }
    _write_json(outdir / SUMMARY_NAME, summary)
    return 0, [SUMMARY_NAME], f"wrote {SUMMARY_NAME} covering {len(manifest['files'])} output file(s)"


# each subcommand computes and writes its outputs, then returns (exit code,
# the file names it wrote, its summary for stdout); the tuple names the
# config sections it runs on beyond model and feedback
_COMMANDS = {
    "steady": (_cmd_steady, (), "solve for the equilibrium and classify its stability"),
    "simulate": (_cmd_simulate, ("initial_density",), "integrate the reduced moment system and write trajectory.csv"),
    "reconstruct": (_cmd_reconstruct, ("initial_density", "reconstruction"),
                    "rebuild age profiles from a simulation and check mass balance"),
    "sweep": (_cmd_sweep, ("sweep",), "tabulate the equilibrium branch over a grid of r0 values"),
    "validate": (_cmd_validate, ("initial_density", "oracle"),
                 "cross-check the ODE reduction against the integral-equation solver"),
    "report": (_cmd_report, (), "aggregate prior outputs into run_summary.json"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agestruct",
        description="Age-structured population model: equilibria, dynamics, and validation.",
    )
    parser.add_argument("--version", action="version", version=f"agestruct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, blurb) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--out", default="out", help="output directory (default: ./out)")
    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    command, sections, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, sections)
    except ConfigSchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"invalid configuration value: {exc}", file=sys.stderr)
        return 3
    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _load_manifest(outdir)  # a damaged manifest stops the run before it solves
        started = time.perf_counter()
        code, files, message = command(cfg, outdir)
        _register(outdir, args.command, files, time.perf_counter() - started)
    except (AgestructError, OSError) as exc:  # OSError: the output directory or a write in it
        print(f"run failed: {exc}", file=sys.stderr)
        return 4
    print(message)
    return code


if __name__ == "__main__":
    sys.exit(run())
