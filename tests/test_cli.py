import copy
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import agestruct
from agestruct.cli import run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def ref1_doc():
    return {
        "model": {
            "n": 1,
            "betas": [1.0],
            "rho": 0.5,
            "mu0": 0.5,
            "r0": 4.0,
            "normalize_betas": True,
        },
        "feedback": {
            "phi": {"family": "hill", "k": 1.0, "m": 1.0},
            "psi": {"family": "linear", "c": 1.0},
        },
        "initial_density": {"kind": "exponential", "coefficient": 1.5, "decay": 1.5},
        "integrator": {"t_end": 5.0, "samples": 101},
        "oracle": {"t_end": 2.0, "dt": 0.01, "gap_threshold": 0.005},
    }


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_steady_writes_equilibrium_document(tmp_path):
    cfg = write_config(tmp_path, ref1_doc())
    out = tmp_path / "out"
    assert run(["steady", "--config", cfg, "--out", str(out)]) == 0

    doc = json.loads((out / "steady.json").read_text(encoding="utf-8"))
    assert doc["exists"] is True
    assert doc["p_star"] == pytest.approx(1.0, abs=1e-12)
    assert doc["moments"] == pytest.approx([0.75], abs=1e-12)
    assert doc["birth_rate"] == pytest.approx(1.5, abs=1e-12)
    assert doc["verdict"] == "asymptotically stable"
    assert doc["trivial"]["verdict"] == "unstable"
    eigs = sorted(doc["stability"]["eigenvalues"])
    assert eigs[0][0] == pytest.approx(-1.625, abs=1e-10)
    assert abs(eigs[0][1]) == pytest.approx(0.5994789404140899, abs=1e-9)
    assert doc["stability"]["jacobian"][0] == pytest.approx([-3.25, 2.0], abs=1e-12)
    assert doc["stability"]["jacobian"][1] == pytest.approx([-1.5, 0.0], abs=1e-12)

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert "steady.json" in manifest["files"]
    assert "steady" in manifest["timings"]


def test_simulate_linear_growth_and_determinism(tmp_path):
    doc = ref1_doc()
    doc["feedback"] = {"linear_mode": True}
    doc["model"]["r0"] = 2.0
    doc["integrator"] = {"t_end": 1.0, "samples": 101}
    cfg = write_config(tmp_path, doc)

    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    blob_a = (outs[0] / "trajectory.csv").read_bytes()
    blob_b = (outs[1] / "trajectory.csv").read_bytes()
    assert blob_a == blob_b

    header, rows = read_csv(outs[0] / "trajectory.csv")
    assert header == ["t", "p", "p1", "b", "psi_int"]
    assert len(rows) == 101
    last = rows[-1]
    assert float(last[0]) == 1.0
    assert float(last[2]) == pytest.approx(0.75 * math.e, rel=1e-6)
    assert all(float(r[4]) == 0.0 for r in rows)  # no crowding mortality accrues


def test_sweep_branch_table(tmp_path):
    doc = ref1_doc()
    doc["sweep"] = {"r0_values": [1.0, 1.21, 4.0, 9.0]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0

    header, rows = read_csv(out / "sweep.csv")
    assert header == ["r0", "p_star", "exists"]
    assert [r[0] for r in rows] == ["1.0", "1.21", "4.0", "9.0"]
    assert rows[0][1] == "" and rows[0][2] == "false"
    for row, expect in zip(rows[1:], [0.1, 1.0, 2.0]):
        assert row[2] == "true"
        assert float(row[1]) == pytest.approx(expect, abs=1e-10)


def package_env():
    """Environment whose PYTHONPATH puts the imported package first."""
    env = dict(os.environ)
    src = str(Path(agestruct.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_subprocess(tmp_path, command, doc, out):
    """A subcommand in a fresh interpreter, where numpy warnings reach the real stderr."""
    return subprocess.run(
        [sys.executable, "-m", "agestruct", command, "--config", write_config(tmp_path, doc), "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=package_env(), timeout=60,
    )


def test_sweep_huge_r0_terminates(tmp_path):
    # roots far beyond where float spacing exceeds the bisection width; a
    # subprocess with a timeout turns a hang into a failure
    doc = ref1_doc()
    doc["sweep"] = {"r0_values": [1e8, 1e300]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "agestruct", "sweep", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=package_env(), timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    _, rows = read_csv(out / "sweep.csv")
    for row, r0 in zip(rows, [1e8, 1e300], strict=True):
        assert row[2] == "true"
        assert float(row[1]) == pytest.approx(math.sqrt(r0) - 1.0, rel=1e-12)


def test_reconstruct_profiles_and_consistency(tmp_path):
    doc = ref1_doc()
    doc["integrator"] = {"t_end": 2.0, "samples": 201}
    doc["reconstruction"] = {"times": [1.0, 2.0]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["reconstruct", "--config", cfg, "--out", str(out)]) == 0

    for name in ("density_t1.0.csv", "density_t2.0.csv"):
        header, rows = read_csv(out / name)
        assert header == ["a", "p"]
        assert float(rows[0][1]) == pytest.approx(1.5, rel=1e-6)  # stationary profile

    checks = json.loads((out / "consistency.json").read_text(encoding="utf-8"))["checks"]
    assert [c["t"] for c in checks] == [1.0, 2.0]
    for c in checks:
        assert c["relative_mass_error"] <= 1e-6
        assert c["characteristic_jump"] == 0.0

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["files"]) >= {"density_t1.0.csv", "density_t2.0.csv", "consistency.json"}


def test_validate_passes_and_fails_by_threshold(tmp_path):
    cfg = write_config(tmp_path, ref1_doc())
    out = tmp_path / "ok"
    assert run(["validate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert doc["p_gap"] <= 0.005 and doc["b_gap"] <= 0.005
    log_lines = (out / "oracle_log.txt").read_text(encoding="utf-8").splitlines()
    assert len(log_lines) == doc["sweeps"]
    header, rows = read_csv(out / "oracle.csv")
    assert header == ["t", "b", "p"]
    assert len(rows) == round(2.0 / 0.01) + 1

    strict = ref1_doc()
    strict["oracle"]["gap_threshold"] = 1e-12
    cfg2 = write_config(tmp_path, strict, name="strict.json")
    out2 = tmp_path / "fail"
    assert run(["validate", "--config", cfg2, "--out", str(out2)]) == 1
    doc2 = json.loads((out2 / "validate.json").read_text(encoding="utf-8"))
    assert doc2["passed"] is False


def test_validate_stall_keeps_its_sweeps(tmp_path, capsys):
    # a stalled oracle exits 4 and leaves the sweeps it got through in
    # oracle_log.txt, unregistered, with no temporary file beside it
    doc = ref1_doc()
    doc["oracle"]["k_max"] = 3
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["steady", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["validate", "--config", cfg, "--out", str(out)]) == 4
    assert "stalled after 3 sweeps in the window from t=0" in capsys.readouterr().err
    lines = (out / "oracle_log.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines] == ["1", "2", "3"]
    assert all(re.fullmatch(r"\d,\d\.\d{6}e[+-]\d{2,}", line) for line in lines)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["files"] == ["steady.json"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "oracle_log.txt", "steady.json"]


def test_report_aggregates_outputs(tmp_path):
    cfg = write_config(tmp_path, ref1_doc())
    out = tmp_path / "out"
    assert run(["steady", "--config", cfg, "--out", str(out)]) == 0
    assert run(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert run(["report", "--config", cfg, "--out", str(out)]) == 0

    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["model"]["r0"] == 4.0
    assert summary["equilibrium"]["p_star"] == pytest.approx(1.0, abs=1e-12)
    assert summary["metrics"]["validation"]["passed"] is True
    assert summary["manifest"] == sorted(summary["manifest"])
    assert {"steady", "validate", "report"} <= set(summary["timings"])


def test_outdir_precedence(tmp_path, monkeypatch, capsys):
    # --out names the output directory, else ./out; the config names none
    cfg = write_config(tmp_path, ref1_doc())
    monkeypatch.chdir(tmp_path)
    assert run(["steady", "--config", cfg, "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "steady.json").exists()
    assert not (tmp_path / "out").exists()

    assert run(["steady", "--config", cfg]) == 0
    assert (tmp_path / "out" / "steady.json").exists()  # documented fallback

    doc = ref1_doc()
    doc["output_dir"] = str(tmp_path / "from_config")
    capsys.readouterr()
    assert run(["steady", "--config", write_config(tmp_path, doc, name="keyed.json")]) == 2
    assert capsys.readouterr().err == "config error: config.output_dir: unknown key\n"
    assert not (tmp_path / "from_config").exists()


def test_schema_errors_exit_2(tmp_path):
    bad = ref1_doc()
    bad["model"]["betaa"] = [1.0]
    assert run(["steady", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o1")]) == 2

    raw = tmp_path / "broken.json"
    raw.write_text("{not json", encoding="utf-8")
    assert run(["steady", "--config", str(raw), "--out", str(tmp_path / "o2")]) == 2

    assert run(["steady", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o3")]) == 2

    no_p0 = ref1_doc()
    del no_p0["initial_density"]
    cfg = write_config(tmp_path, no_p0, name="no_p0.json")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o4")]) == 2

    no_sweep = ref1_doc()
    cfg2 = write_config(tmp_path, no_sweep, name="no_sweep.json")
    assert run(["sweep", "--config", cfg2, "--out", str(tmp_path / "o5")]) == 2


def test_invariant_errors_exit_3(tmp_path, capsys):
    bad = ref1_doc()
    bad["model"]["betas"] = [-1.0]
    bad["model"]["normalize_betas"] = False
    assert run(["steady", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o1")]) == 3
    assert "betas[0]" in capsys.readouterr().err

    neg = ref1_doc()
    neg["integrator"]["t_end"] = -1.0
    cfg = write_config(tmp_path, neg, name="neg.json")
    assert run(["steady", "--config", cfg, "--out", str(tmp_path / "o2")]) == 3

    # an oracle step that does not divide the horizon fails at parse time
    ragged = ref1_doc()
    ragged["oracle"]["dt"] = 0.03
    cfg = write_config(tmp_path, ragged, name="ragged.json")
    capsys.readouterr()
    assert run(["validate", "--config", cfg, "--out", str(tmp_path / "o3")]) == 3
    assert "must divide" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


COMMANDS = ("steady", "simulate", "reconstruct", "sweep", "validate", "report")


def _drop(section):
    return lambda doc: doc.pop(section)


def _update(**sections):
    def edit(doc):
        for name, values in sections.items():
            doc.setdefault(name, {}).update(values)
    return edit


# a fault, and the subcommands it stops with (exit code, stderr prefix);
# the others run on a config whose every section is still checked
SECTION_FAULTS = {
    "no-start": (_drop("initial_density"), {
        command: (2, "config error: initial_density: required section")
        for command in ("simulate", "reconstruct", "validate")
    }),
    "no-sweep": (_drop("sweep"), {"sweep": (2, "config error: sweep: required section")}),
    # r0 = 400 at dt = 0.01: dt * r0 * betas[0] / 2 = 2
    "oracle-bound": (_update(model={"r0": 400.0}, oracle={"t_end": 10.0}), {
        "validate": (3, "invalid configuration value: oracle.dt=0.01 must be below 2 / (r0 * betas[0]) = 0.005"),
    }),
    # the default age grid [0, 5 + the start's support, about 26.5] at 1e-6
    "default-age-grid": (_update(reconstruction={"age_step": 1e-6}), {
        "reconstruct": (3, "invalid configuration value: reconstruction.age_step: age grid [0, 26.49"),
    }),
    # a start whose support ends near 3.2e7: the default age grid and the
    # oracle's initial cohorts both need more than 10^7 nodes
    "wide-start": (_update(initial_density={"coefficient": 1e-6, "decay": 1e-6}), {
        "reconstruct": (3, "invalid configuration value: reconstruction.age_step: age grid [0, 32236"),
        "validate": (3, "invalid configuration value: oracle.dt: age grid [0, 32236191.3"),
    }),
    "ragged-oracle": (_update(oracle={"dt": 0.03}), {
        command: (3, "invalid configuration value: oracle dt=0.03 must divide the horizon") for command in COMMANDS
    }),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fault", [*SECTION_FAULTS, "repeated-key"])
def test_config_faults_stop_before_output(tmp_path, capsys, fault, command):
    # a config fault exits 2 or 3 before --out is made, and only for the
    # subcommands that run on the faulty section
    doc = ref1_doc()
    doc["sweep"] = {"r0_values": [1.0, 4.0]}
    if fault == "repeated-key":
        text = json.dumps(doc).replace('"r0": 4.0', '"r0": 4.0, "r0": 9.0')
        refused = {name: (2, "config error: r0: repeated key") for name in COMMANDS}
    else:
        edit, refused = SECTION_FAULTS[fault]
        edit(doc)
        text = json.dumps(doc)
    cfg = tmp_path / "run.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, message = refused.get(command, (0, ""))
    assert run([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == (1 if code else 0), err
    assert out.exists() == (code == 0)


def test_runtime_errors_exit_4(tmp_path):
    doc = ref1_doc()
    doc["integrator"] = {"t_end": 2.0, "samples": 21}
    doc["reconstruction"] = {"times": [5.0]}  # beyond the integrated horizon
    cfg = write_config(tmp_path, doc)
    assert run(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o1")]) == 4

    out = tmp_path / "o2"
    cfg2 = write_config(tmp_path, ref1_doc(), name="ok.json")
    assert run(["steady", "--config", cfg2, "--out", str(out)]) == 0
    (out / "steady.json").unlink()  # manifest now points at a ghost file
    assert run(["report", "--config", cfg2, "--out", str(out)]) == 4



def test_non_finite_profile_mass_exits_4(tmp_path, capsys):
    # Simpson's spacing products overflow on an age step of 1e300 (ten steps),
    # so the profile's mass is NaN; it is refused, and no numpy warning is printed
    doc = ref1_doc()
    doc["integrator"] = {"t_end": 2.0, "samples": 21}
    doc["reconstruction"] = {"times": [1.0], "age_step": 1e300, "age_max": 1e301}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["reconstruct", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "run failed: the mass of the age profile at t=1.0 is not finite\n"
    assert sorted(path.name for path in out.iterdir()) == []


def test_simulate_undershoot_exits_4(tmp_path, capsys):
    doc = ref1_doc()
    doc["feedback"]["psi"]["c"] = 50.0
    doc["integrator"] = {"method": "rk4", "h": 0.5, "t_end": 5.0, "samples": 11}
    cfg = write_config(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "at t=0.5 fell below" in capsys.readouterr().err


def test_simulate_dying_population_at_a_loose_atol(tmp_path, capsys):
    # the undershoot slack grows with the atol that rk45 accepted, so p decays
    # to about 2.7e-10 through a knot at -4.6e-9 (t = 67.2); the clamps are
    # counted in the summary line, not warned about on stderr
    doc = ref1_doc()
    doc["model"]["r0"] = 0.5
    doc["integrator"] = {"t_end": 200, "rtol": 1e-6, "atol": 1e-8}
    doc["reconstruction"] = {"times": [10.0]}
    cfg = write_config(tmp_path, doc)
    for command in ("simulate", "reconstruct"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        out, err = capsys.readouterr()
        assert re.search(r"; clamped [1-9]\d* slightly negative state entries\n\Z", out) and err == ""
    header, rows = read_csv(tmp_path / "simulate" / "trajectory.csv")
    assert len(rows) == 1001 and float(rows[-1][0]) == 200.0


def test_simulate_from_a_steep_table(tmp_path):
    # a nonnegative table gives a nonnegative start state, so the run succeeds
    doc = ref1_doc()
    doc["initial_density"] = {"kind": "tabulated", "ages": [0.0, 0.1, 10.0], "values": [1.0, 0.0, 0.0]}
    cfg = write_config(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "damage",
    [b'{"files": ["steady.json"], "tim', b'{"files": "steady.json", "timings": {}}', b'{"files": ["\xff"]}'],
    ids=["truncated", "files-not-a-list", "not-utf8"],
)
def test_damaged_manifest_is_kept_and_reported(tmp_path, damage):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_bytes(damage)
    proc = run_subprocess(tmp_path, "steady", ref1_doc(), out)
    assert proc.returncode == 4
    assert proc.stderr.startswith(f"run failed: {out / 'manifest.json'}: damaged manifest")
    assert "Traceback" not in proc.stderr
    assert (out / "manifest.json").read_bytes() == damage
    # the manifest is checked before the solve, so nothing else was written
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_unusable_output_directory_exits_4(tmp_path, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker / below if below else blocker
    proc = run_subprocess(tmp_path, "steady", ref1_doc(), out)
    assert proc.returncode == 4
    [line] = proc.stderr.splitlines()
    assert line.startswith("run failed: [Errno ") and line.endswith(f"'{out}'")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["validate.json", "consistency.json"])
def test_damaged_report_input_exits_4(tmp_path, name):
    cfg = write_config(tmp_path, ref1_doc())
    out = tmp_path / "out"
    assert run(["steady", "--config", cfg, "--out", str(out)]) == 0
    (out / name).write_bytes(b'{"checks": [{"t": 1.0, "rel')
    proc = subprocess.run(
        [sys.executable, "-m", "agestruct", "report", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=package_env(), timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith(f"run failed: {out / name}: damaged ")
    assert "Traceback" not in proc.stderr
    assert not (out / "run_summary.json").exists()


def _model_doc(**model):
    doc = ref1_doc()
    doc["model"].update(model)
    doc["sweep"] = {"r0_values": [1.0, 4.0]}
    return doc


OVERFLOW = {"n": 2, "betas": [1.0, 1.0], "rho": 1e-300, "mu0": 1e-300}
UNDERFLOW = {"rho": 1e308, "mu0": 1e308}
HUGE_BETAS = {"n": 2, "betas": [1e308, 1e308], "normalize_betas": False}


@pytest.mark.parametrize(
    "command, model, code, message",
    [
        # the zero-crowding generation integral overflows while normalizing ...
        ("steady", OVERFLOW, 3, "betas[0] must be finite and > 0"),
        ("sweep", OVERFLOW, 3, "betas[0] must be finite and > 0"),
        # ... or underflows to 0
        ("steady", UNDERFLOW, 3, "generation integral underflows to 0"),
        ("sweep", UNDERFLOW, 3, "generation integral underflows to 0"),
        # ... and r0 times it overflows when the betas are not normalized
        ("steady", HUGE_BETAS, 3, "r0 * K(betas, rho + mu0) overflows the float range"),
        # the default age grid reaches t_end + the start's support, about 3.2e7
        # here, which needs more than 10^7 steps of 0.01: refused before the solve
        ("reconstruct", {}, 3, "invalid configuration value: reconstruction.age_step: age grid [0, "),
    ],
    ids=["overflow-steady", "overflow-sweep", "underflow-steady", "underflow-sweep", "huge-betas", "age-grid"],
)
def test_extreme_model_values_exit_cleanly(tmp_path, capsys, command, model, code, message):
    doc = _model_doc(**model)
    if command == "reconstruct":  # a start of unit mass spread over ages of order 10^6
        doc["initial_density"].update(coefficient=1e-6, decay=1e-6)
    cfg = write_config(tmp_path, doc)
    with np.errstate(all="ignore"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_huge_betas_print_one_line(tmp_path):
    # numpy warnings reach a real stderr only outside pytest's capture
    proc = run_subprocess(tmp_path, "steady", _model_doc(**HUGE_BETAS), tmp_path / "out")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "invalid configuration value: the zero-crowding reproduction number "
        "r0 * K(betas, rho + mu0) overflows the float range"
    ]


HILL_2000 = {"family": "hill", "k": 0.5, "m": 2000}


@pytest.mark.parametrize(
    "command, feedback, code, err",
    [
        # steady's bracket doubling evaluates psi at 2**k ...
        ("steady", {"psi": {"family": "power", "c": 1, "gamma": 2000}}, 0, ""),
        # ... and a run above p = 0.5 meets (p / 0.5)**2000; the oracle stalls
        # on so steep a damping, and says only that
        ("simulate", {"phi": HILL_2000}, 0, ""),
        ("validate", {"phi": HILL_2000}, 4, "run failed: fixed-point iteration stalled after 20 sweeps"),
    ],
    ids=["steady-power", "simulate-hill", "validate-hill"],
)
def test_overflowing_feedback_powers_run_quietly(tmp_path, command, feedback, code, err):
    doc = ref1_doc()
    doc["feedback"].update(feedback)
    doc["oracle"]["k_max"] = 20
    proc = run_subprocess(tmp_path, command, doc, tmp_path / "out")
    assert proc.returncode == code
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == (1 if err else 0), proc.stderr


def _leaf_keys(section):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from ((key, *rest) for rest in _leaf_keys(value))
        else:
            yield (key,)


def test_no_model_value_raises_out_of_run(tmp_path, capsys):
    # one value of the model, feedback or initial density replaced by any
    # JSON value: run() answers with an exit code and never raises
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    base = _model_doc()
    base["integrator"] = {"t_end": 2.0, "samples": 11}
    base["reconstruction"] = {"times": [1.0, 2.0]}
    base["oracle"] = {"t_end": 1.0, "dt": 0.01}
    paths = [
        (section, *keys)
        for section in ("model", "feedback", "initial_density")
        for keys in _leaf_keys(base[section])
    ]
    numbers = st.one_of(
        st.sampled_from([0, -1, 5e-324, 1e-300, 1e-30, 1e30, 1e308, -1e308]),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    values = st.one_of(
        st.none(), st.booleans(), st.text(max_size=4), numbers, st.lists(numbers, max_size=3)
    )
    cfg = tmp_path / "run.json"
    out = str(tmp_path / "out")

    commands = st.sampled_from(["steady", "sweep", "simulate", "reconstruct", "validate", "report"])

    @hypothesis.given(path=st.sampled_from(paths), value=values, command=commands)
    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # a default age grid far beyond the array size limit, and one of infinite length
    @hypothesis.example(path=("model", "mu0"), value=1e-300, command="reconstruct")
    @hypothesis.example(path=("model", "mu0"), value=5e-324, command="reconstruct")
    def check(path, value, command):
        doc = copy.deepcopy(base)
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with np.errstate(all="ignore"):
            assert run([command, "--config", str(cfg), "--out", out]) in {0, 1, 2, 3, 4}
        capsys.readouterr()

    check()


def _feedback_doc(feedback):
    doc = ref1_doc()
    doc["feedback"] = feedback
    return doc


HILL = {"family": "hill", "k": 1.0}
LINEAR = {"family": "linear", "c": 1.0}


@pytest.mark.parametrize(
    "feedback, code, message",
    [
        ({"phi": {"family": "hill"}, "psi": LINEAR}, 2, "config error: feedback.phi.k: required"),
        (
            {"phi": HILL, "psi": {"family": "power", "c": 1.0}},
            2,
            "config error: feedback.psi.gamma: required",
        ),
        (
            {"phi": {"family": "exponential", "k": 1.0, "m": 2.0}, "psi": LINEAR},
            2,
            "config error: feedback.phi.m: unknown key",
        ),
        ({"phi": HILL, "psi": LINEAR, "chi": 1.0}, 2, "config error: feedback.chi: unknown key"),
        # the families behind linear_mode cannot be named directly
        (
            {"phi": {"family": "unit"}, "psi": LINEAR},
            2,
            "config error: feedback.phi.family: expected one of ['exponential', 'hill']",
        ),
        (
            {"phi": HILL, "psi": {"family": "zero"}},
            2,
            "config error: feedback.psi.family: expected one of ['linear', 'power']",
        ),
        (
            {"phi": {"family": "hill", "k": "1"}, "psi": LINEAR},
            2,
            "config error: feedback.phi.k: expected a number",
        ),
        (
            {"linear_mode": True, "phi": HILL},
            2,
            "config error: feedback: phi/psi must be omitted in linear_mode",
        ),
        (
            {"linear_mode": True, "psi": LINEAR},
            2,
            "config error: feedback: phi/psi must be omitted in linear_mode",
        ),
        (
            {"phi": {"family": "hill", "k": 1.0, "m": 0.5}, "psi": LINEAR},
            3,
            "invalid configuration value: phi hill family: m must be >= 1",
        ),
    ],
)
def test_feedback_schema_errors(tmp_path, capsys, feedback, code, message):
    cfg = write_config(tmp_path, _feedback_doc(feedback))
    assert run(["steady", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == message + "\n"


def test_feedback_config_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from agestruct.config import parse_config

    positive = st.floats(min_value=1e-3, max_value=1e3)
    exponent = st.floats(min_value=1.0, max_value=5.0)
    phis = st.one_of(
        st.builds(lambda k: {"family": "exponential", "k": k}, positive),
        st.builds(lambda k: {"family": "hill", "k": k}, positive),
        st.builds(lambda k, m: {"family": "hill", "k": k, "m": m}, positive, exponent),
    )
    psis = st.one_of(
        st.builds(lambda c: {"family": "linear", "c": c}, positive),
        st.builds(lambda c, g: {"family": "power", "c": c, "gamma": g}, positive, exponent),
    )
    feedbacks = st.one_of(
        st.just({"linear_mode": True}),
        st.builds(lambda phi, psi: {"phi": phi, "psi": psi}, phis, psis),
    )

    @hypothesis.given(feedback=feedbacks)
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def check(feedback):
        cfg = parse_config(_feedback_doc(feedback))
        echo = cfg.resolved["feedback"]
        if "linear_mode" in feedback:
            assert echo == feedback
            assert cfg.feedback == agestruct.FeedbackSpec.linear()
        else:
            phi = dict(feedback["phi"])
            if phi["family"] == "hill":
                phi.setdefault("m", 1.0)  # the documented default is echoed
            assert echo == {"linear_mode": False, "phi": phi, "psi": feedback["psi"]}
        assert parse_config(_feedback_doc(echo)).feedback == cfg.feedback

    check()


_REGISTER_MANY = """
import sys
import warnings
from pathlib import Path
from agestruct.cli import _register

outdir, tag = Path(sys.argv[1]), sys.argv[2]
for i in range(200):
    _register(outdir, "cmd-" + tag, [f"{tag}-{i}.csv"], 0.0)
"""


def test_concurrent_register_keeps_every_entry(tmp_path):
    # two processes that register into one directory must not lose entries
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _REGISTER_MANY, str(tmp_path), tag],
            env=package_env(), stderr=subprocess.PIPE, text=True,
        )
        for tag in ("a", "b")
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    expected = {f"{tag}-{i}.csv" for tag in ("a", "b") for i in range(200)}
    assert len(manifest["files"]) == 400 and set(manifest["files"]) == expected
    assert set(manifest["timings"]) == {"cmd-a", "cmd-b"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def pyproject_table(name):
    """The ``key = "value"`` lines of one table of ``pyproject.toml``.

    A line scan instead of ``tomllib``, which Python 3.10 lacks; enough for
    the flat string entries read here.
    """
    table, current = {}, None
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            current = line.strip("[]")
        elif current == name and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            table[key] = value.strip('"')
    return table


def test_console_script_version(tmp_path):
    # the installed `agestruct` command is setuptools' wrapper around the
    # entry point below; `python -m agestruct` runs the same function
    target = pyproject_table("project.scripts").get("agestruct")
    assert target == "agestruct.cli:run"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is run

    version = pyproject_table("project")["version"]
    assert agestruct.__version__ == version

    # the child imports the package this process imported, from any cwd
    proc = subprocess.run(
        [sys.executable, "-m", "agestruct", "--version"],
        capture_output=True, text=True, cwd=tmp_path, env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"agestruct {version}\n"


@pytest.mark.skipif(shutil.which("agestruct") is None, reason="agestruct is not installed")
def test_installed_console_script_version():
    proc = subprocess.run(["agestruct", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"agestruct {agestruct.__version__}\n"


def test_parse_does_not_mutate_document():
    # regression guard: resolving defaults must not rewrite the caller's
    # document (the CLI may parse the same dict for several subcommands)
    from agestruct.config import parse_config

    doc = ref1_doc()
    snapshot = copy.deepcopy(doc)
    cfg = parse_config(doc)
    assert doc == snapshot
    assert cfg.integrator.method == "rk45"  # default filled in the echo only
    assert cfg.resolved["integrator"]["method"] == "rk45"
