"""End-to-end acceptance gate.

Each test below covers one numbered release criterion, prints exactly one
PASS/FAIL line (visible under ``pytest -s`` or in captured output), and
enforces both the numeric tolerances and the runtime budget. Expected
values come from closed forms worked out independently of the code under
test; nothing here is a regression snapshot of the implementation's own
output.
"""

import json
import math
import time

import numpy as np

import agestruct as ag
from agestruct.cli import run as cli_run
from agestruct.model import fertility_kernel_integral

from conftest import make_linear, make_ref1, make_ref2


def _finish(num, label, started, limit, checks):
    elapsed = time.perf_counter() - started
    failures = [msg for ok, msg in checks if not ok]
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {limit:g}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status}: {label} [{elapsed:.2f}s / {limit:g}s]")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def _random_feedback(rng):
    if rng.random() < 0.5:
        phi = ag.make_phi("exponential", k=float(rng.uniform(0.5, 5.0)))
    else:
        phi = ag.make_phi("hill", k=float(rng.uniform(0.5, 5.0)), m=float(rng.uniform(1.0, 3.0)))
    if rng.random() < 0.5:
        psi = ag.make_psi("linear", c=float(rng.uniform(0.1, 2.0)))
    else:
        psi = ag.make_psi("power", c=float(rng.uniform(0.1, 2.0)), gamma=float(rng.uniform(1.0, 2.5)))
    return ag.FeedbackSpec(phi_family=phi, psi_family=psi)


def _random_params(rng, n_max, r0_lo, r0_hi):
    n = int(rng.integers(1, n_max + 1))
    rho = float(rng.uniform(0.1, 2.0))
    mu0 = float(rng.uniform(0.1, 2.0))
    betas = ag.normalize_betas(rng.uniform(0.1, 3.0, size=n), rho, mu0)
    r0 = float(rng.uniform(r0_lo, r0_hi))
    return ag.ModelParams(n=n, betas=betas, rho=rho, mu0=mu0, r0=r0, normalized=True)


def test_criterion_01_normalization_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checks = []
    worst_kernel = 0.0
    worst_r = 0.0
    for _ in range(100):
        params = _random_params(rng, n_max=8, r0_lo=0.5, r0_hi=10.0)
        feedback = _random_feedback(rng)
        kernel = fertility_kernel_integral(params.betas, params.rho + params.mu0)
        worst_kernel = max(worst_kernel, abs(kernel - 1.0))
        r_at_zero = ag.net_reproduction(0.0, params, feedback)
        worst_r = max(worst_r, abs(r_at_zero - params.r0) / params.r0)
    checks.append((worst_kernel <= 1e-12, f"generation integral off by {worst_kernel:.3e}"))
    checks.append((worst_r <= 1e-12, f"reproduction at zero off by {worst_r:.3e} relative"))
    _finish(1, "normalized profiles integrate to one and anchor r0", started, 1.0, checks)


def test_criterion_02_square_root_equilibrium_law():
    started = time.perf_counter()
    checks = []
    for r0 in (1.21, 4.0, 9.0):
        fx = make_ref1(r0)
        root = ag.steady_state(fx.params, fx.feedback)
        expect = math.sqrt(r0) - 1.0
        ok = root is not None and abs(root - expect) <= 1e-10
        checks.append((ok, f"r0={r0}: root {root!r} vs {expect!r}"))
    for r0 in (0.5, 0.999, 1.0):
        fx = make_ref1(r0)
        root = ag.steady_state(fx.params, fx.feedback)
        checks.append((root is None, f"r0={r0}: expected no positive root, got {root!r}"))
    _finish(2, "square-root branch law and its cutoff at r0 = 1", started, 1.0, checks)


def test_criterion_03_equilibrium_zeroes_vector_field():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        params = _random_params(rng, n_max=6, r0_lo=1.001, r0_hi=20.0)
        feedback = _random_feedback(rng)
        eq = ag.equilibrium(params, feedback)
        deriv = ag.rhs((eq.p_star, *eq.moments_star), params, feedback)
        resid = float(np.max(np.abs(deriv)))
        worst = max(worst, resid, eq.residual_inf_norm)
    checks = [(worst <= 1e-10, f"worst equilibrium residual {worst:.3e}")]
    _finish(3, "explicit equilibria are exact zeros of the moment system", started, 5.0, checks)


def test_criterion_04_reproduction_strictly_decreasing():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    checks = []
    worst_rel = 0.0
    all_negative = True
    all_decreasing = True
    for _ in range(10):
        params = _random_params(rng, n_max=6, r0_lo=1.001, r0_hi=20.0)
        feedback = _random_feedback(rng)
        xs = np.sort(rng.uniform(1e-3, 10.0, size=100))
        values = [ag.net_reproduction(float(x), params, feedback) for x in xs]
        all_decreasing &= bool(np.all(np.diff(values) < 0))
        for x in xs:
            x = float(x)
            deriv = ag.reproduction_derivative(x, params, feedback)
            all_negative &= deriv < 0
            h = 1e-5 * max(1.0, x)
            fd = (
                ag.net_reproduction(x + h, params, feedback)
                - ag.net_reproduction(x - h, params, feedback)
            ) / (2 * h)
            worst_rel = max(worst_rel, abs(fd - deriv) / max(abs(deriv), 1e-12))
    checks.append((all_negative, "a reproduction derivative came out nonnegative"))
    checks.append((all_decreasing, "reproduction values not strictly decreasing"))
    checks.append((worst_rel <= 1e-6, f"derivative vs central difference off by {worst_rel:.3e}"))
    _finish(4, "net reproduction decreases with crowding, derivative verified", started, 5.0, checks)


def test_criterion_05_linear_mode_exact_growth():
    started = time.perf_counter()
    fx = make_linear()  # growth exponent r0*beta0 - rho - mu0 = 1
    start = ag.density_moments(fx.p0, fx.params.rho, fx.params.n)
    expect = 0.75 * math.e
    checks = []

    traj45 = ag.integrate(start, fx.params, fx.feedback, 1.0, method="rk45",
                          rtol=1e-10, atol=1e-12)
    err45 = abs(float(traj45.state_at(1.0)[1]) - expect) / expect
    checks.append((err45 <= 1e-8, f"adaptive integrator off by {err45:.3e} relative"))

    traj4 = ag.integrate(start, fx.params, fx.feedback, 1.0, method="rk4", h=1e-3)
    err4 = abs(float(traj4.state_at(1.0)[1]) - expect) / expect
    checks.append((err4 <= 1e-8, f"fixed-step integrator off by {err4:.3e} relative"))

    errs = []
    for h in (0.05, 0.025):
        traj = ag.integrate(start, fx.params, fx.feedback, 1.0, method="rk4", h=h)
        errs.append(abs(float(traj.state_at(1.0)[1]) - expect))
    ratio = errs[0] / errs[1]
    checks.append((12.0 <= ratio <= 20.0, f"step-halving error ratio {ratio:.2f} outside [12, 20]"))
    _finish(5, "exponential closed form reproduced, fourth-order step law", started, 5.0, checks)


def test_criterion_06_two_route_agreement():
    started = time.perf_counter()
    fx = make_ref1()
    checks = []

    stationary = ag.cross_validate(fx.params, fx.feedback, fx.p0, t_end=5.0, dt=0.002)
    checks.append(
        (stationary.max_gap <= 5e-3,
         f"stationary run: integral vs ODE gap {stationary.max_gap:.3e}")
    )

    bumped = ag.ExponentialDensity(coefficient=1.65, decay=1.5)  # 10% over stationary
    coarse = ag.cross_validate(fx.params, fx.feedback, bumped, t_end=6.0, dt=0.002)
    checks.append(
        (coarse.max_gap <= 5e-3, f"perturbed run: gap {coarse.max_gap:.3e}")
    )

    fine = ag.cross_validate(fx.params, fx.feedback, bumped, t_end=6.0, dt=0.001)
    order = math.log2(coarse.max_gap / fine.max_gap)
    checks.append((order >= 1.8, f"observed convergence order {order:.2f} below 1.8"))
    _finish(6, "independent integral-equation route matches the reduction", started, 60.0, checks)


def test_criterion_07_reconstruction_mass_balance():
    started = time.perf_counter()
    checks = []
    runs = [
        (make_ref1(), ag.ExponentialDensity(coefficient=1.65, decay=1.5)),
        (make_ref2(), None),  # stationary start
    ]
    for fx, override in runs:
        p0 = override or fx.p0
        begin = ag.density_moments(p0, fx.params.rho, fx.params.n)
        traj = ag.integrate(begin, fx.params, fx.feedback, 20.0, rtol=1e-10, atol=1e-12)
        grid = ag.default_age_grid(traj, p0)
        worst = 0.0
        for t in np.linspace(2.0, 20.0, 10):
            field = ag.reconstruct_density(traj, p0, fx.params, fx.feedback, float(t), grid)
            report = ag.consistency_check(field, traj, p0)
            worst = max(worst, report.relative_mass_error)
        checks.append(
            (worst <= 1e-4, f"n={fx.params.n} run: worst mass error {worst:.3e}")
        )

    fx = make_ref1()
    begin = ag.density_moments(fx.p0, fx.params.rho, fx.params.n)
    traj = ag.integrate(begin, fx.params, fx.feedback, 60.0, rtol=1e-10, atol=1e-12)
    ages = np.linspace(0.0, 30.0, 3001)
    field = ag.reconstruct_density(traj, fx.p0, fx.params, fx.feedback, 60.0, ages)
    gap = float(np.max(np.abs(field.values - 1.5 * np.exp(-1.5 * ages))))
    checks.append((gap <= 1e-6, f"stationary profile pointwise gap {gap:.3e}"))
    _finish(7, "age profiles integrate back to the total population", started, 30.0, checks)


def test_criterion_08_stability_classification():
    started = time.perf_counter()
    fx = make_ref1()
    checks = []

    eq = ag.equilibrium(fx.params, fx.feedback)
    jac = ag.jacobian_at((eq.p_star, *eq.moments_star), fx.params, fx.feedback)
    jac_gap = float(np.max(np.abs(jac - np.array([[-3.25, 2.0], [-1.5, 0.0]]))))
    checks.append((jac_gap <= 1e-10, f"closed-form Jacobian off by {jac_gap:.3e}"))

    report = ag.classify(eq, fx.params, fx.feedback)
    # roots of x^2 + 3.25 x + 3: (-3.25 +- i sqrt(1.4375)) / 2
    imag = math.sqrt(1.4375) / 2.0
    expect = [complex(-1.625, -imag), complex(-1.625, imag)]
    eig_gap = max(
        min(abs(ev - z) for ev in report.eigenvalues) for z in expect
    )
    checks.append((eig_gap <= 1e-6, f"eigenvalue pair off by {eig_gap:.3e}"))
    shown = sorted(round(abs(float(ev.imag)), 5) for ev in report.eigenvalues)
    checks.append((shown == [0.59948, 0.59948],
                   f"five-decimal display {shown} != 0.59948"))
    checks.append(
        (report.verdict == "asymptotically stable", f"verdict {report.verdict!r}")
    )
    trivial = ag.classify_trivial(fx.params, fx.feedback)
    checks.append(
        (trivial.verdict == "unstable", f"zero-state verdict {trivial.verdict!r}")
    )

    rng = np.random.default_rng(108)
    worst_fd = 0.0
    for _ in range(50):
        params = _random_params(rng, n_max=6, r0_lo=1.001, r0_hi=20.0)
        feedback = _random_feedback(rng)
        base = rng.uniform(0.05, 3.0, size=params.n + 1)
        analytic = ag.jacobian_at(base, params, feedback)
        fd = np.empty_like(analytic)
        for j in range(params.n + 1):
            h = 1e-6 * max(1.0, abs(base[j]))
            up, dn = base.copy(), base.copy()
            up[j] += h
            dn[j] -= h
            f_up = ag.rhs(up, params, feedback)
            f_dn = ag.rhs(dn, params, feedback)
            fd[:, j] = (f_up - f_dn) / (2 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(analytic - fd))))
    checks.append((worst_fd <= 1e-5, f"finite-difference Jacobian gap {worst_fd:.3e}"))
    _finish(8, "spectrum, verdicts, and derivative cross-checks", started, 5.0, checks)


def test_criterion_09_forward_bifurcation():
    started = time.perf_counter()
    fx = make_ref1()
    grid = np.linspace(1.01, 10.0, 100)
    points = ag.bifurcation_sweep(fx.params, fx.feedback, grid)
    values = [pt.p_star for pt in points]
    checks = [
        (all(pt.exists for pt in points), "a grid point lost the equilibrium branch"),
        (bool(np.all(np.diff(values) > 0)), "branch is not strictly increasing"),
        (values[0] < 0.01, f"branch at r0=1.01 starts at {values[0]:.3e}, expected < 0.01"),
    ]
    _finish(9, "equilibrium branch grows continuously out of zero", started, 5.0, checks)


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    started = time.perf_counter()
    checks = []
    doc = {
        "model": {"n": 1, "betas": [1.0], "rho": 0.5, "mu0": 0.5, "r0": 4.0,
                  "normalize_betas": True},
        "feedback": {"phi": {"family": "hill", "k": 1.0, "m": 1.0},
                     "psi": {"family": "linear", "c": 1.0}},
        "initial_density": {"kind": "exponential", "coefficient": 1.65, "decay": 1.5},
        "integrator": {"t_end": 5.0, "samples": 201},
        "oracle": {"t_end": 2.0, "dt": 0.01, "gap_threshold": 5e-3},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")

    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli_run(["simulate", "--config", str(cfg), "--out", str(out)])
        checks.append((code == 0, f"simulate exited {code}"))
        blobs.append((out / "trajectory.csv").read_bytes())
    checks.append((blobs[0] == blobs[1], "repeat runs differ byte-for-byte"))

    unknown = dict(doc, extra={"x": 1})
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps(unknown), encoding="utf-8")
    code = cli_run(["steady", "--config", str(bad_schema), "--out", str(tmp_path / "s")])
    checks.append((code == 2, f"unknown key exited {code}, expected 2"))

    invalid = json.loads(json.dumps(doc))
    invalid["model"]["betas"] = [-1.0]
    bad_value = tmp_path / "value.json"
    bad_value.write_text(json.dumps(invalid), encoding="utf-8")
    code = cli_run(["steady", "--config", str(bad_value), "--out", str(tmp_path / "v")])
    checks.append((code == 3, f"negative beta exited {code}, expected 3"))

    strict = json.loads(json.dumps(doc))
    strict["oracle"]["gap_threshold"] = 1e-13
    too_strict = tmp_path / "strict.json"
    too_strict.write_text(json.dumps(strict), encoding="utf-8")
    code = cli_run(["validate", "--config", str(too_strict), "--out", str(tmp_path / "t")])
    checks.append((code == 1, f"unreachable threshold exited {code}, expected 1"))

    beyond = json.loads(json.dumps(doc))
    beyond["reconstruction"] = {"times": [50.0]}
    late = tmp_path / "late.json"
    late.write_text(json.dumps(beyond), encoding="utf-8")
    code = cli_run(["reconstruct", "--config", str(late), "--out", str(tmp_path / "l")])
    checks.append((code == 4, f"query beyond horizon exited {code}, expected 4"))
    _finish(10, "deterministic outputs and documented exit codes", started, 10.0, checks)
