"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is built once per process (its set-up: load the configs, make the
seeded inputs, compute the in-process reference results, warm up) and then
yields one list of operations per pass. Every operation is one closed-loop
request: ``run`` does the timed work, ``check`` inspects the result outside
the timed region and returns the problems it found (an empty list passes).

The package is called through module attributes (``ag.steady.equilibrium``,
never a name imported once), so that the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import agestruct as ag
import agestruct.cli
import agestruct.config
import agestruct.csvio
import agestruct.model
import agestruct.oracle
import agestruct.quadrature
import agestruct.reconstruct
import agestruct.reduction
import agestruct.stability
import agestruct.steady

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

#: relative tolerance between a CLI output and the in-process library result
LIB_RTOL = 1e-9
#: tolerances of the paper's checks
SQRT_LAW_TOL = 1e-10
RESIDUAL_TOL = 1e-10
MASS_TOL = 1e-4
RK_AGREE_RTOL = 1e-8
#: generic and separable oracle paths solve one discrete system
PATHS_AGREE_TOL = 1e-10


@dataclasses.dataclass
class Op:
    """One timed operation.

    ``known_limit`` marks a ROADMAP robustness case: when it raises a package
    error it is still counted as failed, but it does not make the run
    incorrect, since no wrong output was produced.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    known_limit: bool = False
    corrupt: Optional[Callable[[Any], Any]] = None
    #: span the traced run records around the whole operation, for calls
    #: whose inside it cannot see (a CLI subprocess)
    span: Optional[str] = None


def rel_close(got, want, rtol: float) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(got), np.abs(want))))


def _sqrt_law_problems(r0_values, p_stars, exists) -> list:
    """ref1 model: p* = sqrt(r0) - 1, and an equilibrium exists iff r0 > 1."""
    problems = []
    for r0, p_star, ok in zip(r0_values, p_stars, exists):
        if ok != (r0 > 1.0):
            problems.append(f"r0={r0!r}: exists={ok} but r0 > 1 is {r0 > 1.0}")
        elif ok and abs(p_star - (math.sqrt(r0) - 1.0)) > SQRT_LAW_TOL:
            problems.append(f"r0={r0!r}: p*={p_star!r} is not sqrt(r0)-1")
    return problems


def _time_grid_problems(traj, want_t_end: float) -> list:
    if not math.isclose(traj.t_end, want_t_end):
        return [f"trajectory ends at {traj.t_end!r}, expected {want_t_end!r}"]
    return []


class Workload:
    name = ""
    #: seconds one pass takes at the seed commit; sets the pass count
    nominal_pass_s = 1.0
    #: the traced run of another workload probes this one at the run's scale, not tiny
    full_probe = False

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.tiny = scale == "tiny"
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)
        #: max(p_gap, b_gap) of every cross-validation that passed its checks
        self.gaps: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def pass_ops(self, index: int) -> list:
        raise NotImplementedError

    def passes_for(self, seconds: float) -> int:
        """Same count on every run with the same --seconds, at least two."""
        return max(2, int(seconds // self.nominal_pass_s))


# ---------------------------------------------------------------------------
# cli_session


def _load_doc(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@dataclasses.dataclass
class _CliCase:
    """One config driven through the CLI, with its in-process references."""

    label: str
    path: Path
    cfg: Any
    commands: tuple
    sqrt_law: bool
    eq: Any = None
    traj: Any = None
    densities: dict = dataclasses.field(default_factory=dict)
    xval: Any = None
    sweep: Any = None


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class CliSession(Workload):
    """The subcommands as fresh ``python -m agestruct.cli`` processes."""

    name = "cli_session"
    nominal_pass_s = 8.0
    FULL = ("steady", "simulate", "reconstruct", "validate", "report")
    #: linear growth has no equilibrium, so steady and report exit 4 there
    LINEAR = ("simulate", "reconstruct", "validate")

    def setup(self) -> None:
        self.env = cli_env()
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        cases = [("ref1", CONFIGS / "ref1.json", self.FULL + ("sweep",), True)]
        if not self.tiny:
            cases.append(("ref2", CONFIGS / "ref2.json", self.FULL, False))
            for base, r0_range, sqrt_law in (("ref1", (1.5, 9.0), True), ("ref2", (2.0, 12.0), False)):
                doc = _load_doc(f"{base}.json")
                doc["model"]["r0"] = float(self.rng.uniform(*r0_range))
                doc["initial_density"] = {
                    "kind": "exponential",
                    "coefficient": float(self.rng.uniform(0.5, 2.5)),
                    "decay": float(self.rng.uniform(0.8, 2.5)),
                }
                path = inputs / f"{base}_seeded.json"
                path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
                cases.append((f"{base}_seeded", path, self.FULL, sqrt_law))
            cases.append(("linear_growth", CONFIGS / "linear_growth.json", self.LINEAR, False))
        self.cases = []
        for label, path, commands, sqrt_law in cases:
            case = _CliCase(label, path, ag.config.load_config(path), commands, sqrt_law)
            self._reference(case)
            self.cases.append(case)
        self.digests: dict = {}
        # warm the interpreter's file cache for the first timed subprocess
        subprocess.run(
            [sys.executable, "-m", "agestruct.cli", "--version"],
            env=self.env, cwd=ROOT, capture_output=True, check=True, timeout=120,
        )

    def _reference(self, case: _CliCase) -> None:
        cfg = case.cfg
        if "steady" in case.commands:
            case.eq = ag.steady.equilibrium(cfg.params, cfg.feedback)
        if "simulate" in case.commands:
            it = cfg.integrator
            start = ag.model.density_moments(cfg.initial, cfg.params.rho, cfg.params.n)
            case.traj = ag.reduction.integrate(
                start, cfg.params, cfg.feedback, t_end=it.t_end, method=it.method, h=it.h,
                rtol=it.rtol, atol=it.atol, max_step=it.max_step, n_samples=it.samples,
            )
        if "reconstruct" in case.commands:
            settings = cfg.reconstruction
            if settings.age_max is not None:
                n_steps = int(np.ceil(settings.age_max / settings.age_step - 1e-9))
                grid = np.linspace(0.0, n_steps * settings.age_step, n_steps + 1)
            else:
                grid = ag.reconstruct.default_age_grid(case.traj, cfg.initial, settings.age_step)
            for t in settings.times:
                field = ag.reconstruct.reconstruct_density(
                    case.traj, cfg.initial, cfg.params, cfg.feedback, t, grid
                )
                case.densities[ag.csvio.density_filename(t)] = field
        if "validate" in case.commands:
            o = cfg.oracle
            case.xval = ag.oracle.cross_validate(
                cfg.params, cfg.feedback, cfg.initial, t_end=o.t_end, dt=o.dt, tol=o.tol, k_max=o.k_max
            )
        if "sweep" in case.commands:
            case.sweep = ag.steady.bifurcation_sweep(cfg.params, cfg.feedback, cfg.sweep_r0)

    def pass_ops(self, index: int) -> list:
        ops = []
        for case in self.cases:
            out = self.workdir / f"pass{index}" / case.label
            for command in case.commands:
                ops.append(self._op(case, command, out))
        return ops

    def _op(self, case: _CliCase, command: str, out: Path) -> Op:
        argv = [sys.executable, "-m", "agestruct.cli", command, "--config", str(case.path), "--out", str(out)]

        def run():
            return subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=170)

        def check(proc) -> list:
            if proc.returncode != 0:
                return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            return getattr(self, f"_check_{command}")(case, out)

        corrupt = None
        if command == "steady":

            def corrupt(proc):
                doc = json.loads((out / "steady.json").read_text(encoding="utf-8"))
                doc["p_star"] = doc["p_star"] * (1.0 + 1e-6) + 1e-6
                (out / "steady.json").write_text(json.dumps(doc), encoding="utf-8")
                return proc

        return Op(f"cli.{command} {case.label}", run, check, corrupt=corrupt, span=f"cli.{command}")

    def _same_bytes(self, case: _CliCase, path: Path) -> list:
        key = (case.label, path.name)
        digest = _digest(path)
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [f"{path.name} differs from an earlier run of {case.label}"]

    def _check_steady(self, case: _CliCase, out: Path) -> list:
        doc = json.loads((out / "steady.json").read_text(encoding="utf-8"))
        problems = []
        if doc["residual"] > RESIDUAL_TOL:
            problems.append(f"equilibrium residual {doc['residual']!r}")
        if doc["exists"] != case.eq.exists or not rel_close(doc["p_star"], case.eq.p_star, LIB_RTOL):
            problems.append(f"p_star {doc['p_star']!r} != library {case.eq.p_star!r}")
        if case.sqrt_law:
            problems += _sqrt_law_problems([case.cfg.params.r0], [doc["p_star"]], [doc["exists"]])
        return problems

    def _check_simulate(self, case: _CliCase, out: Path) -> list:
        path = out / "trajectory.csv"
        traj = case.traj
        want = np.column_stack([traj.times, traj.states, traj.birth_rates, traj.psi_integral])
        problems = self._same_bytes(case, path)
        if not rel_close(_read_csv(path), want, LIB_RTOL):
            problems.append("trajectory.csv does not match the library trajectory")
        return problems

    def _check_reconstruct(self, case: _CliCase, out: Path) -> list:
        problems = []
        checks = json.loads((out / "consistency.json").read_text(encoding="utf-8"))["checks"]
        for entry in checks:
            if entry["relative_mass_error"] > MASS_TOL:
                problems.append(f"t={entry['t']!r}: mass error {entry['relative_mass_error']!r}")
        for name, field in case.densities.items():
            problems += self._same_bytes(case, out / name)
            if not rel_close(_read_csv(out / name), np.column_stack([field.age_grid, field.values]), LIB_RTOL):
                problems.append(f"{name} does not match the library density")
        return problems

    def _check_validate(self, case: _CliCase, out: Path) -> list:
        doc = json.loads((out / "validate.json").read_text(encoding="utf-8"))
        gap = max(doc["p_gap"], doc["b_gap"])
        problems = []
        if not doc["passed"] or gap > doc["gap_threshold"]:
            problems.append(f"gap {gap!r} above threshold {doc['gap_threshold']!r}")
        path = out / "oracle.csv"
        problems += self._same_bytes(case, path)
        sol = case.xval.oracle
        if not rel_close(_read_csv(path), np.column_stack([sol.times, sol.birth_rates, sol.populations]), LIB_RTOL):
            problems.append("oracle.csv does not match the library oracle")
        if not problems:
            self.gaps.append(gap)
        return problems

    def _check_report(self, case: _CliCase, out: Path) -> list:
        doc = json.loads((out / ag.cli.SUMMARY_NAME).read_text(encoding="utf-8"))
        problems = []
        if not rel_close(doc["equilibrium"]["p_star"], case.eq.p_star, LIB_RTOL):
            problems.append("run_summary.json equilibrium does not match the library")
        missing = {"steady.json", "trajectory.csv", "validate.json"} - set(doc["manifest"])
        if missing:
            problems.append(f"manifest lacks {sorted(missing)}")
        return problems

    def _check_sweep(self, case: _CliCase, out: Path) -> list:
        path = out / "sweep.csv"
        problems = self._same_bytes(case, path)
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        r0s = [float(r[0]) for r in rows]
        exists = [r[2] == "true" for r in rows]
        p_stars = [float(r[1]) if r[1] else 0.0 for r in rows]
        if r0s != list(case.cfg.sweep_r0):
            problems.append("sweep.csv r0 column differs from the config")
        problems += _sqrt_law_problems(r0s, p_stars, exists)
        want = [pt.p_star if pt.exists else 0.0 for pt in case.sweep]
        if not rel_close(p_stars, want, LIB_RTOL):
            problems.append("sweep.csv does not match the library sweep")
        return problems


# ---------------------------------------------------------------------------
# oracle_fine


class OracleFine(Workload):
    """The integral-equation oracle at large N, plus the ROADMAP robustness cases.

    The models and grids are fixed by the workload; the seed sets the order
    of the operations in each pass.
    """

    name = "oracle_fine"
    nominal_pass_s = 12.0

    def setup(self) -> None:
        self.models = {label: ag.config.load_config(CONFIGS / f"{label}.json") for label in ("ref1", "ref2")}
        self.threshold = self.models["ref1"].oracle.gap_threshold
        if self.tiny:
            self.xval_grid, self.generic_grid = (1.0, 1e-2), (1.0, 5e-2)
        else:
            self.xval_grid, self.generic_grid = (10.0, 1e-3), (5.0, 1e-2)
        # the separable path on the generic grid is the generic path's reference
        self.generic_refs = {}
        for label, cfg in self.models.items():
            model = ag.oracle.from_separable(cfg.params, cfg.feedback, cfg.initial)
            self.generic_refs[label] = ag.oracle.volterra_solve(model, *self.generic_grid)
        # warm-up: one small cross-validation on each path
        cfg = self.models["ref1"]
        ag.oracle.cross_validate(cfg.params, cfg.feedback, cfg.initial, t_end=0.5, dt=0.05)
        ag.oracle.volterra_solve(self._generic_model(cfg), 0.5, 0.05)

    @staticmethod
    def _generic_model(cfg):
        """The separable model's rate evaluators without the separable hint."""
        model = ag.oracle.from_separable(cfg.params, cfg.feedback, cfg.initial)
        return ag.oracle.GeneralModel(
            mortality=model.mortality, fertility=model.fertility, initial_density=model.initial_density
        )

    def _xval_op(self, name: str, params, cfg, t_end: float, dt: float, known_limit: bool = False) -> Op:
        def run():
            return ag.oracle.cross_validate(params, cfg.feedback, cfg.initial, t_end=t_end, dt=dt)

        def check(report) -> list:
            if report.max_gap > self.threshold:
                return [f"gap {report.max_gap!r} above threshold {self.threshold!r}"]
            self.gaps.append(report.max_gap)
            return []

        return Op(name, run, check, known_limit=known_limit)

    def _generic_op(self, label: str) -> Op:
        cfg = self.models[label]
        ref = self.generic_refs[label]

        def run():
            return ag.oracle.volterra_solve(self._generic_model(cfg), *self.generic_grid)

        def check(sol) -> list:
            gap = max(
                float(np.max(np.abs(sol.birth_rates - ref.birth_rates))),
                float(np.max(np.abs(sol.populations - ref.populations))),
            )
            return [] if gap <= PATHS_AGREE_TOL else [f"generic path differs from separable by {gap!r}"]

        return Op(f"oracle.generic {label}", run, check)

    def pass_ops(self, index: int) -> list:
        ops = [self._xval_op(f"oracle.cross_validate {label}", cfg.params, cfg, *self.xval_grid)
               for label, cfg in self.models.items()]
        ops += [self._generic_op(label) for label in self.models]
        ref1 = self.models["ref1"]
        # ROADMAP robustness cases: Picard stalls at r0=100 and the separable
        # fast path's overflow guard refuses r0=400 (both at T=10, dt=1e-2)
        for r0 in (100.0, 400.0):
            ops.append(self._xval_op(
                f"oracle.cross_validate r0={r0:g}", ref1.params.with_r0(r0), ref1, 10.0, 1e-2, known_limit=True
            ))
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# param_scan


def _random_model(rng, n: int):
    """A normalized model with n stages, random rates and hill/linear feedbacks."""
    rho, mu0 = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
    betas = ag.model.normalize_betas(rng.uniform(0.2, 1.0, size=n), rho, mu0)
    params = ag.model.ModelParams(n=n, betas=betas, rho=rho, mu0=mu0,
                                  r0=float(10 ** rng.uniform(0.1, 1.3)), normalized=True)
    feedback = ag.model.FeedbackSpec(
        phi_family=ag.model.make_phi("hill", k=float(rng.uniform(0.5, 2.0)), m=float(rng.integers(1, 3))),
        psi_family=ag.model.make_psi("linear", c=float(rng.uniform(0.5, 2.0))),
    )
    return params, feedback


class ParamScan(Workload):
    """Library calls over seeded parameters; the oracle never runs here.

    Not a workload of BENCHMARK.json, but runnable by hand. Its one full pass
    in every traced run gives the steady, stability, reduction, reconstruct,
    quadrature and csvio layers their per-layer figures at full size.
    """

    name = "param_scan"
    nominal_pass_s = 4.2
    full_probe = True

    def setup(self) -> None:
        rng = self.rng
        self.ref1 = ag.config.load_config(CONFIGS / "ref1.json")
        self.ref2 = ag.config.load_config(CONFIGS / "ref2.json")
        n_sweep, n_triples, n_runs = (50, 4, 4) if self.tiny else (2000, 200, 50)
        lo, hi = 10 ** rng.uniform(-1.1, -0.9), 10 ** rng.uniform(2.9, 3.1)
        self.sweep_grid = np.logspace(math.log10(lo), math.log10(hi), n_sweep)
        # one model of each size per operation, so that every equilibrium operation
        # costs about the same and the median operation does not hinge on the mix of n
        self.draws = [tuple(_random_model(rng, n) for n in (1, 2, 3)) for _ in range(n_triples)]
        self.runs = []
        for i in range(n_runs):
            cfg = self.ref1 if i % 2 == 0 else self.ref2
            p0 = ag.model.ExponentialDensity(coefficient=float(rng.uniform(0.5, 2.5)),
                                             decay=float(rng.uniform(0.8, 2.5)))
            self.runs.append((cfg.params.with_r0(float(rng.uniform(2.0, 12.0))), cfg.feedback, p0))
        # the rk4 / rk45 / reconstruction problem
        self.problem = (
            self.ref1.params.with_r0(float(rng.uniform(2.0, 9.0))),
            self.ref1.feedback,
            ag.model.ExponentialDensity(coefficient=float(rng.uniform(0.5, 2.5)),
                                        decay=float(rng.uniform(0.8, 2.5))),
        )
        self.t_end = 20.0
        self.rk4_h = 1e-2 if self.tiny else 1e-3
        self.age_step = 1e-2 if self.tiny else 1e-3
        self.recon_times = (5.0, 20.0) if self.tiny else (2.5, 5.0, 10.0, 20.0)
        self.simpson_nodes = 10_001 if self.tiny else 100_001
        self.simpson_end = float(rng.uniform(5.0, 15.0))
        self.outdir = self.workdir / "csv"
        self.outdir.mkdir(parents=True, exist_ok=True)
        # warm-up: one small call into each layer the passes use
        params, feedback, p0 = self.problem
        ag.steady.bifurcation_sweep(params, feedback, [0.5, 2.0])
        eq = ag.steady.equilibrium(params, feedback)
        ag.stability.classify(eq, params, feedback)
        start = ag.model.density_moments(p0, params.rho, params.n)
        traj = ag.reduction.integrate(start, params, feedback, t_end=1.0, n_samples=11)
        ag.reduction.integrate(start, params, feedback, t_end=1.0, method="rk4", h=0.1, n_samples=11)
        field = ag.reconstruct.reconstruct_density(traj, p0, params, feedback, 1.0, np.linspace(0, 5, 51))
        ag.reconstruct.consistency_check(field, traj, p0)
        ag.csvio.write_density_csv(self.outdir / "warm.csv", field)

    def pass_ops(self, index: int) -> list:
        ctx: dict = {}
        # the two sweeps sit apart, so that the tail samples the run at more moments
        ops = [self._sweep_op("steady.bifurcation_sweep n=1", self.ref1, ctx, sqrt_law=True)]
        ops += [self._equilibrium_op(i, models) for i, models in enumerate(self.draws)]
        ops += [self._ensemble_op(i, *run) for i, run in enumerate(self.runs)]
        ops.append(self._sweep_op("steady.bifurcation_sweep n=2", self.ref2, ctx, sqrt_law=False))
        ops += self._rk_ops(ctx)
        for t in self.recon_times:
            ops += self._reconstruct_ops(t, ctx)
        ops.append(self._dense_op(ctx))
        ops.append(self._simpson_op())
        ops += self._csv_ops(ctx, index)
        return ops

    def _sweep_op(self, name: str, cfg, ctx: dict, sqrt_law: bool) -> Op:
        def run():
            points = ag.steady.bifurcation_sweep(cfg.params, cfg.feedback, self.sweep_grid)
            ctx.setdefault("sweep", points)
            return points

        def check(points) -> list:
            r0s = [pt.r0 for pt in points]
            if r0s != list(self.sweep_grid):
                return ["sweep grid not echoed"]
            p_stars = [pt.p_star if pt.exists else 0.0 for pt in points]
            exists = [pt.exists for pt in points]
            if sqrt_law:
                return _sqrt_law_problems(r0s, p_stars, exists)
            problems = [f"r0={r!r}: exists={e}" for r, e in zip(r0s, exists) if e != (r > 1.0)]
            for pt in points:
                if pt.exists:
                    resid = abs(ag.steady.net_reproduction(pt.p_star, cfg.params.with_r0(pt.r0), cfg.feedback) - 1.0)
                    if resid > RESIDUAL_TOL:
                        problems.append(f"r0={pt.r0!r}: |R(p*) - 1| = {resid!r}")
            return problems

        return Op(name, run, check)

    def _equilibrium_op(self, i: int, models) -> Op:
        def run():
            results = []
            for params, feedback in models:
                eq = ag.steady.equilibrium(params, feedback)
                results.append((eq, ag.stability.classify(eq, params, feedback)))
            return results

        def check(results) -> list:
            problems = []
            for (params, feedback), (eq, stab) in zip(models, results):
                if eq.exists != (params.r0 > 1.0):
                    problems.append(f"n={params.n}: exists={eq.exists} at r0={params.r0!r}")
                if eq.residual_inf_norm > RESIDUAL_TOL:
                    problems.append(f"n={params.n}: equilibrium residual {eq.residual_inf_norm!r}")
                if eq.exists:
                    resid = abs(ag.steady.net_reproduction(eq.p_star, params, feedback) - 1.0)
                    if resid > RESIDUAL_TOL:
                        problems.append(f"n={params.n}: |R(p*) - 1| = {resid!r}")
                if stab.spectral_abscissa != float(np.max(stab.eigenvalues.real)):
                    problems.append(f"n={params.n}: spectral abscissa is not the largest real part")
            return problems

        def corrupt(results):
            eq, stab = results[0]
            return [(dataclasses.replace(eq, p_star=eq.p_star * 1.01 + 0.01), stab)] + results[1:]

        return Op(f"steady.equilibrium+classify #{i}", run, check, corrupt=corrupt)

    def _ensemble_op(self, i: int, params, feedback, p0) -> Op:
        t_end = 50.0

        def run():
            start = ag.model.density_moments(p0, params.rho, params.n)
            return ag.reduction.integrate(start, params, feedback, t_end=t_end, rtol=1e-10, atol=1e-12)

        def check(traj) -> list:
            # the long-time limit of the ODE route is the closed-form equilibrium
            p_star = math.sqrt(params.r0) - 1.0 if params.n == 1 else ag.steady.steady_state(params, feedback)
            p_end = float(traj.states[-1, 0])
            problems = _time_grid_problems(traj, t_end)
            if abs(p_end - p_star) > 1e-6 * max(1.0, p_star):
                problems.append(f"p(T)={p_end!r} has not reached p*={p_star!r}")
            return problems

        return Op(f"reduction.integrate rk45 #{i}", run, check)

    def _rk_ops(self, ctx: dict) -> list:
        params, feedback, p0 = self.problem
        start = ag.model.density_moments(p0, params.rho, params.n)

        def run45():
            traj = ag.reduction.integrate(start, params, feedback, t_end=self.t_end, rtol=1e-10, atol=1e-12)
            ctx["traj"] = traj
            return traj

        def run4():
            traj = ag.reduction.integrate(start, params, feedback, t_end=self.t_end, method="rk4", h=self.rk4_h)
            ctx["rk4"] = traj
            return traj

        def check4(traj) -> list:
            ref = ctx["traj"].knot_states[-1]
            got = traj.knot_states[-1]
            if not rel_close(got, ref, RK_AGREE_RTOL):
                return [f"rk4 and rk45 disagree at t_end: {got!r} vs {ref!r}"]
            return _time_grid_problems(traj, self.t_end)

        return [Op("reduction.integrate rk45 tight", run45, lambda traj: _time_grid_problems(traj, self.t_end)),
                Op("reduction.integrate rk4", run4, check4)]

    def _reconstruct_ops(self, t: float, ctx: dict) -> list:
        params, feedback, p0 = self.problem

        def run_density():
            traj = ctx["traj"]
            grid = ag.reconstruct.default_age_grid(traj, p0, self.age_step)
            field = ag.reconstruct.reconstruct_density(traj, p0, params, feedback, t, grid)
            ctx["field"] = field
            return field

        def check_density(field) -> list:
            return [] if field.time == t else [f"density field is for t={field.time!r}"]

        def run_check():
            return ag.reconstruct.consistency_check(ctx["field"], ctx["traj"], p0)

        def check_mass(report) -> list:
            err = report.relative_mass_error
            return [] if err <= MASS_TOL else [f"t={t!r}: mass error {err!r}"]

        return [Op(f"reconstruct.reconstruct_density t={t:g}", run_density, check_density),
                Op(f"reconstruct.consistency_check t={t:g}", run_check, check_mass)]

    def _dense_op(self, ctx: dict) -> Op:
        query = np.linspace(0.0, self.t_end, 20 * 1000 + 1)

        def run():
            return ctx["traj"].state_at(query)

        def check(states) -> list:
            traj = ctx["traj"]
            # the samples were taken from the same dense output on a sub-grid
            picked = states[:: (query.size - 1) // (traj.times.size - 1)]
            return [] if rel_close(picked, traj.states, 1e-12) else ["dense output disagrees with the samples"]

        return Op("reduction.state_at", run, check)

    def _simpson_op(self) -> Op:
        x = np.linspace(0.0, self.simpson_end, self.simpson_nodes)
        y = x * x * np.exp(-x)
        end = self.simpson_end
        exact = 2.0 - math.exp(-end) * (end * end + 2.0 * end + 2.0)

        def check(value) -> list:
            return [] if abs(value - exact) <= 1e-10 * exact else [f"simpson {value!r} != {exact!r}"]

        return Op("quadrature.simpson", lambda: ag.quadrature.simpson(y, x), check)

    def _csv_ops(self, ctx: dict, index: int) -> list:
        def reloads(path: Path, want) -> list:
            return [] if np.array_equal(_read_csv(path), want) else [f"{path.name} does not reload exactly"]

        def traj_check(path) -> list:
            traj = ctx["rk4"]
            return reloads(path, np.column_stack([traj.times, traj.states, traj.birth_rates, traj.psi_integral]))

        def density_check(path) -> list:
            field = ctx["field"]
            return reloads(path, np.column_stack([field.age_grid, field.values]))

        def sweep_check(path) -> list:
            lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
            return [] if len(lines) == len(ctx["sweep"]) else ["sweep.csv row count"]

        out = self.outdir
        return [
            Op("csvio.write_trajectory_csv",
               lambda: ag.csvio.write_trajectory_csv(out / f"trajectory{index}.csv", ctx["rk4"]), traj_check),
            Op("csvio.write_density_csv",
               lambda: ag.csvio.write_density_csv(out / f"density{index}.csv", ctx["field"]), density_check),
            Op("csvio.write_sweep_csv",
               lambda: ag.csvio.write_sweep_csv(out / f"sweep{index}.csv", ctx["sweep"]), sweep_check),
        ]


WORKLOADS = {cls.name: cls for cls in (CliSession, OracleFine, ParamScan)}
