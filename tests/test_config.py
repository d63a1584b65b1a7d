"""The run-config schema: one row per single fault, and a parse round-trip."""

import copy
import json
from dataclasses import asdict

import numpy as np
import pytest

import agestruct as ag
from agestruct.cli import run
from agestruct.config import IntegratorSettings, parse_config
from agestruct.errors import ConfigSchemaError, ParameterError
from agestruct.model import ExponentialDensity, TabulatedDensity
from agestruct.quadrature import MAX_GRID_NODES, uniform_grid

DELETE = object()


def base_doc():
    return {
        "model": {"n": 1, "betas": [1.0], "rho": 0.5, "mu0": 0.5, "r0": 4.0, "normalize_betas": True},
        "feedback": {
            "phi": {"family": "hill", "k": 1.0, "m": 1.0},
            "psi": {"family": "linear", "c": 1.0},
        },
        "initial_density": {"kind": "exponential", "coefficient": 1.5, "decay": 1.5},
        "integrator": {"method": "rk45", "t_end": 5.0, "samples": 101},
        "reconstruction": {"times": [5.0], "age_step": 0.05},
        "oracle": {"t_end": 2.0, "dt": 0.01, "gap_threshold": 0.005},
        "sweep": {"r0_values": [1.0, 4.0]},
    }


def edited(edits):
    """The base document with each dotted path set to a value, or removed."""
    doc = base_doc()
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for name in parents:
            node = node[name]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    return doc


def _schema(edits, message):
    return ("steady", edits, 2, f"config error: {message}")


def _value(edits, message, command="steady"):
    return (command, edits, 3, f"invalid configuration value: {message}")


TABULATED = {"kind": "tabulated", "ages": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 0.0]}
INF = float("inf")

SCHEMA_ROWS = {
    # top level
    "top-unknown": _schema({"extra": 1}, "config.extra: unknown key"),
    "top-output_dir-type": _schema({"output_dir": 5}, "config.output_dir: expected a string"),
    # model
    "model-missing": _schema({"model": DELETE}, "model: required section"),
    "model-type": _schema({"model": [1]}, "model: expected an object"),
    "model-unknown": _schema({"model.beta": [1.0]}, "model.beta: unknown key"),
    "model-n-missing": _schema({"model.n": DELETE}, "model.n: required"),
    "model-n-float": _schema({"model.n": 1.0}, "model.n: expected an integer"),
    "model-n-bool": _schema({"model.n": True}, "model.n: expected an integer"),
    "model-betas-type": _schema({"model.betas": "1"}, "model.betas: expected a nonempty array of numbers"),
    "model-betas-empty": _schema({"model.betas": []}, "model.betas: expected a nonempty array of numbers"),
    "model-betas-item": _schema({"model.betas": [1.0, "a"]}, "model.betas[1]: expected a number"),
    "model-rho-type": _schema({"model.rho": "0.5"}, "model.rho: expected a number"),
    "model-mu0-missing": _schema({"model.mu0": DELETE}, "model.mu0: required"),
    "model-r0-bool": _schema({"model.r0": True}, "model.r0: expected a number"),
    "model-normalize-type": _schema(
        {"model.normalize_betas": "yes"}, "model.normalize_betas: expected true or false"
    ),
    "model-r0-range": _value({"model.r0": -1.0}, "r0 must be finite and > 0"),
    "model-n-range": _value({"model.n": 0, "model.betas": [1.0]}, "n must be an integer >= 1"),
    "model-n-too-large": _value(
        {"model.n": 171, "model.betas": [1.0] * 171}, "n must be at most 170: (n + 1)! must fit a float"
    ),
    "model-betas-overflow": _value(
        {"model.n": 2, "model.betas": [1e308, 1e308], "model.normalize_betas": False},
        "the zero-crowding reproduction number r0 * K(betas, rho + mu0) overflows the float range",
    ),
    # feedback
    "feedback-missing": _schema({"feedback": DELETE}, "feedback: required section"),
    "feedback-type": _schema({"feedback": 1}, "feedback: expected an object"),
    "feedback-linear_mode-type": _schema(
        {"feedback.linear_mode": 1}, "feedback.linear_mode: expected true or false"
    ),
    "feedback-phi-missing": _schema({"feedback.phi": DELETE}, "feedback.phi: required"),
    "feedback-phi-type": _schema({"feedback.phi": "hill"}, "feedback.phi: expected an object"),
    "feedback-family-missing": _schema({"feedback.phi.family": DELETE}, "feedback.phi.family: required"),
    "feedback-family-type": _schema({"feedback.psi.family": 1}, "feedback.psi.family: expected a string"),
    # initial_density
    "initial-type": _schema({"initial_density": []}, "initial_density: expected an object"),
    "initial-kind-missing": _schema({"initial_density.kind": DELETE}, "initial_density.kind: required"),
    "initial-kind-type": _schema({"initial_density.kind": 1}, "initial_density.kind: expected a string"),
    "initial-unknown": _schema({"initial_density.ages": [0.0, 1.0]}, "initial_density.ages: unknown key"),
    "initial-coefficient-missing": _schema(
        {"initial_density.coefficient": DELETE}, "initial_density.coefficient: required"
    ),
    "initial-decay-type": _schema({"initial_density.decay": "1"}, "initial_density.decay: expected a number"),
    "initial-decay-range": _value(
        {"initial_density.decay": 0.0}, "exponential density: decay must be > 0"
    ),
    "tabulated-unknown": _schema(
        {"initial_density": dict(TABULATED, decay=1.0)}, "initial_density.decay: unknown key"
    ),
    "tabulated-values-missing": _schema(
        {"initial_density": {"kind": "tabulated", "ages": [0.0, 1.0]}}, "initial_density.values: required"
    ),
    "tabulated-ages-type": _schema(
        {"initial_density": dict(TABULATED, ages=1.0)},
        "initial_density.ages: expected a nonempty array of numbers",
    ),
    "tabulated-ages-item": _schema(
        {"initial_density": dict(TABULATED, ages=[0.0, None, 2.0])},
        "initial_density.ages[1]: expected a number",
    ),
    "tabulated-order": _value(
        {"initial_density": dict(TABULATED, ages=[0.0, 2.0, 1.0])},
        "tabulated ages must be nonnegative and strictly increasing",
    ),
    # integrator
    "integrator-type": _schema({"integrator": 1}, "integrator: expected an object"),
    "integrator-unknown": _schema({"integrator.step": 0.1}, "integrator.step: unknown key"),
    "integrator-method-type": _schema({"integrator.method": 4}, "integrator.method: expected a string"),
    "integrator-method-enum": _schema(
        {"integrator.method": "euler"}, "integrator.method: expected 'rk4' or 'rk45'"
    ),
    "integrator-t_end-type": _schema({"integrator.t_end": "5"}, "integrator.t_end: expected a number"),
    "integrator-samples-type": _schema({"integrator.samples": 10.5}, "integrator.samples: expected an integer"),
    "integrator-rk4-needs-h": _schema({"integrator.method": "rk4"}, "integrator.h: required for method 'rk4'"),
    "integrator-rk45-no-h": _schema({"integrator.h": 0.1}, "integrator.h: only applies to method 'rk4'"),
    "integrator-rk4-no-max_step": _schema(
        {"integrator.method": "rk4", "integrator.h": 0.01, "integrator.max_step": 0.5},
        "integrator.max_step: only applies to method 'rk45'",
    ),
    "integrator-t_end-range": _value({"integrator.t_end": -1.0}, "integrator.t_end must be positive and finite"),
    "integrator-samples-range": _value({"integrator.samples": 1}, "integrator.samples must be at least 2"),
    "integrator-rtol-range": _value(
        {"integrator.rtol": 0.0}, "integrator.rtol must be positive and integrator.atol nonnegative"
    ),
    "integrator-h-range": _value(
        {"integrator.method": "rk4", "integrator.h": -0.1}, "integrator.h must be positive and finite"
    ),
    "integrator-max_step-range": _value(
        {"integrator.max_step": 0.0}, "integrator.max_step must be positive and finite"
    ),
    "integrator-samples-bound": _value(
        {"integrator.samples": 10**13}, "integrator.samples must be at most 10000000"
    ),
    "integrator-h-bound": _value(
        {"integrator.method": "rk4", "integrator.h": 1e-9, "integrator.t_end": 1.0},
        "integrator.t_end / integrator.h needs more than 10000000 knots",
    ),
    "integrator-max_step-bound": _value(
        {"integrator.max_step": 1e-9, "integrator.t_end": 1.0},
        "integrator.t_end / integrator.max_step needs more than 10000000 knots",
    ),
    # reconstruction
    "reconstruction-type": _schema({"reconstruction": 1}, "reconstruction: expected an object"),
    "reconstruction-unknown": _schema({"reconstruction.step": 0.1}, "reconstruction.step: unknown key"),
    "reconstruction-times-type": _schema(
        {"reconstruction.times": 5.0}, "reconstruction.times: expected a nonempty array of numbers"
    ),
    "reconstruction-age_max-type": _schema(
        {"reconstruction.age_max": "9"}, "reconstruction.age_max: expected a number"
    ),
    "reconstruction-times-range": _value(
        {"reconstruction.times": [1.0, -1.0]}, "reconstruction.times[1] must be finite and nonnegative"
    ),
    "reconstruction-age_step-range": _value(
        {"reconstruction.age_step": 0.0}, "reconstruction.age_step must be positive and finite"
    ),
    "reconstruction-age_max-range": _value(
        {"reconstruction.age_max": -1.0}, "reconstruction.age_max must be positive and finite"
    ),
    "reconstruction-grid-bound": _value(
        {"reconstruction.age_max": 1e5, "reconstruction.age_step": 1e-3},
        "reconstruction.age_max: age grid [0, 100000.0] at step 0.001 needs more than 10000000 nodes",
    ),
    "reconstruction-grid-one-node": _value(
        {"reconstruction.age_max": 1e-12},
        "reconstruction.age_max: the age grid has one node; a profile needs two",
    ),
    # oracle
    "oracle-type": _schema({"oracle": []}, "oracle: expected an object"),
    "oracle-unknown": _schema({"oracle.steps": 10}, "oracle.steps: unknown key"),
    "oracle-dt-type": _schema({"oracle.dt": "0.01"}, "oracle.dt: expected a number"),
    "oracle-k_max-type": _schema({"oracle.k_max": 2.5}, "oracle.k_max: expected an integer"),
    "oracle-t_end-range": _value({"oracle.t_end": -1.0}, "oracle.t_end must be positive and finite"),
    "oracle-t_end-zero": _value({"oracle.t_end": 0.0}, "oracle.t_end must be positive and finite", "validate"),
    "oracle-t_end-below-dt": _value(
        {"oracle.t_end": 0.001, "oracle.dt": 0.002}, "oracle.t_end must be at least oracle.dt", "validate"
    ),
    "oracle-dt-range": _value({"oracle.dt": 0.0}, "oracle.dt must be positive and finite"),
    "oracle-dt-divides": _value(
        {"oracle.dt": 0.03}, "oracle dt=0.03 must divide the horizon t_end=2.0 evenly"
    ),
    "oracle-dt-divides-tiny": _value(  # the divide slack scales with the horizon
        {"oracle.t_end": 1.4e-10, "oracle.dt": 1e-10}, "oracle dt=1e-10 must divide the horizon t_end=1.4e-10 evenly"
    ),
    "oracle-k_max-range": _value(
        {"oracle.k_max": 0}, "oracle.tol must be positive and oracle.k_max at least 1"
    ),
    "oracle-grid-bound": _value(
        {"oracle.t_end": 1e10, "oracle.dt": 1e-3}, "oracle.t_end / oracle.dt needs more than 10000000 grid nodes"
    ),
    "oracle-dt-tiny": _value(  # t_end / dt overflows to inf
        {"oracle.dt": 5e-324}, "oracle.t_end / oracle.dt needs more than 10000000 grid nodes"
    ),
    "oracle-gap-range": _value({"oracle.gap_threshold": 0.0}, "oracle.gap_threshold must be positive"),
    # sweep
    "sweep-type": _schema({"sweep": [1.0]}, "sweep: expected an object"),
    "sweep-unknown": _schema({"sweep.r0": [1.0]}, "sweep.r0: unknown key"),
    "sweep-values-missing": _schema({"sweep.r0_values": DELETE}, "sweep.r0_values: required"),
    "sweep-values-empty": _schema(
        {"sweep.r0_values": []}, "sweep.r0_values: expected a nonempty array of numbers"
    ),
    "sweep-values-range": _value(
        {"sweep.r0_values": [1.0, 0.0]}, "sweep.r0_values[1] must be positive and finite"
    ),
    "sweep-values-overflow": _value(
        {"model.betas": [1e300], "model.normalize_betas": False, "sweep.r0_values": [1.0, 1e10]},
        "sweep.r0_values[1]: the zero-crowding reproduction number r0 * K(betas, rho + mu0) "
        "overflows the float range",
    ),
    # changed from the previous reader (see CHANGES.md): the tag names its
    # choices as the feedback families do, and a non-finite number is
    # refused at parse time with its key, where it used to slip through
    # or be caught later under a bare field name
    "initial-kind-enum": _schema(
        {"initial_density.kind": "gamma"}, "initial_density.kind: expected one of ['exponential', 'tabulated']"
    ),
    "nonfinite-phi-k": _value({"feedback.phi.k": INF}, "feedback.phi.k: must be finite"),
    "nonfinite-psi-c": _value({"feedback.psi.c": INF}, "feedback.psi.c: must be finite"),
    "nonfinite-decay": _value(
        {"initial_density.decay": INF}, "initial_density.decay: must be finite", "simulate"
    ),
    "nonfinite-oracle-tol": _value({"oracle.tol": INF}, "oracle.tol: must be finite", "validate"),
    "nonfinite-rtol": _value({"integrator.rtol": INF}, "integrator.rtol: must be finite"),
    "nonfinite-r0": _value({"model.r0": INF}, "model.r0: must be finite"),
    "nonfinite-t_end": _value({"integrator.t_end": INF}, "integrator.t_end: must be finite"),
    "nonfinite-times-item": _value({"reconstruction.times": [1.0, INF]}, "reconstruction.times[1]: must be finite"),
    "nonfinite-nan": _value({"oracle.gap_threshold": float("nan")}, "oracle.gap_threshold: must be finite"),
    "nonfinite-minus-inf": _value({"model.betas": [-INF]}, "model.betas[0]: must be finite"),
    "nonfinite-tabulated": _value(
        {"initial_density": dict(TABULATED, values=[1.0, INF, 0.0])}, "initial_density.values[1]: must be finite"
    ),
    "nonfinite-huge-integer": _value({"sweep.r0_values": [10**400]}, "sweep.r0_values[0]: must be finite"),
    # the start state of a simulation leaves the float range: p_170 is about 1e682
    "initial-moment-range": _value(
        {
            "model": {"n": 170, "betas": [1.0] * 170, "rho": 0.005, "mu0": 1.0, "r0": 4.0, "normalize_betas": True},
            "initial_density.decay": 0.001,
        },
        "initial_density: its mass or a weighted moment is not finite",
        "simulate",
    ),
}


@pytest.mark.parametrize("row", SCHEMA_ROWS.values(), ids=SCHEMA_ROWS.keys())
def test_single_fault_documents(tmp_path, capsys, row):
    command, edits, code, message = row
    config = tmp_path / "run.json"
    config.write_text(json.dumps(edited(edits)), encoding="utf-8")
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--out", str(out)]) == code
    assert capsys.readouterr().err == (message + "\n" if message else "")
    if code in (2, 3):
        assert not out.exists()  # rejected before anything is computed


# the rows whose check a library function owns, once more through that
# function: it refuses the same values in the same words, without the
# section name. These are every integrator row but the reader's own type
# and key rows, and the value rows of the start state, the oracle and the
# sweep; gap_threshold is the config's own
LIBRARY_ROWS = {
    key: row
    for key, row in SCHEMA_ROWS.items()
    if key.startswith("integrator-") and not key.endswith(("-type", "-unknown"))
    or row[2] == 3 and key.split("-")[0] in ("initial", "oracle", "sweep") and key != "oracle-gap-range"
}


@pytest.mark.parametrize("key", LIBRARY_ROWS)
def test_single_fault_values_through_the_library(key):
    _, edits, _, message = LIBRARY_ROWS[key]
    section = {"initial": "initial_density"}.get(key.split("-")[0], key.split("-")[0])
    doc = edited(edits)
    settings = doc[section]
    cfg = parse_config({**doc, section: base_doc()[section]})
    with pytest.raises(ParameterError) as caught:
        if section == "integrator":
            start = ag.density_moments(cfg.initial, cfg.params.rho, cfg.params.n)
            ag.integrate(start, cfg.params, cfg.feedback, n_samples=settings.pop("samples"), **settings)
        elif section == "initial_density":
            del settings["kind"]  # both rows edit the exponential density
            ag.density_moments(ag.ExponentialDensity(**settings), cfg.params.rho, cfg.params.n)
        elif section == "oracle":
            del settings["gap_threshold"]
            ag.volterra_solve(ag.from_separable(cfg.params, cfg.feedback, cfg.initial), **settings)
        else:
            ag.bifurcation_sweep(cfg.params, cfg.feedback, settings["r0_values"])
    words = message.split(": ", 1)[1].removeprefix(f"{section}: ")
    assert str(caught.value) == words.replace(f"{section}.", "")


def test_config_and_integrate_refuse_the_same_settings():
    # well-typed, finite integrator sections with good and bad values: the
    # config refuses one exactly when integrate refuses its settings, in the
    # same words after the section name
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cfg = parse_config(base_doc())
    start = ag.density_moments(cfg.initial, cfg.params.rho, cfg.params.n)
    values = {
        "method": st.sampled_from(["rk4", "rk45", "euler"]),
        "t_end": st.sampled_from([0.5, 3.0, 0.0, -1.0]),
        "rtol": st.sampled_from([1e-6, 1e-3, 0.0, -1.0]),
        "atol": st.sampled_from([0.0, 1e-8, -1e-8]),
        "samples": st.sampled_from([2, 21, 1, 0, MAX_GRID_NODES + 1]),
        "h": st.sampled_from([0.1, 0.5, 0.0, -0.5, 1e-9]),
        "max_step": st.sampled_from([0.1, 1.0, 0.0, -1.0, 1e-9]),
    }

    @hypothesis.given(st.fixed_dictionaries({}, optional=values))
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def check(section):
        try:
            parse_config({**base_doc(), "integrator": section})
        except (ConfigSchemaError, ParameterError) as exc:
            refused = str(exc).replace("integrator.", "")
        else:
            refused = None
        settings = {**asdict(IntegratorSettings()), **section}
        try:
            ag.integrate(start, cfg.params, cfg.feedback, n_samples=settings.pop("samples"), **settings)
        except ParameterError as exc:
            assert str(exc) == refused
        else:
            assert refused is None
        outcomes.add(refused)

    outcomes = set()
    check()
    assert None in outcomes and len(outcomes) > 10  # accepted sections and many kinds of refusal


def test_reconstruction_grid_faults_through_the_library():
    # the grid the config refuses as too large is refused by uniform_grid in
    # the same words, and a profile on the one-node grid by the density field
    _, edits, _, message = SCHEMA_ROWS["reconstruction-grid-bound"]
    with pytest.raises(ParameterError) as caught:
        uniform_grid(edits["reconstruction.age_max"], edits["reconstruction.age_step"])
    assert str(caught.value) == message.removeprefix("invalid configuration value: reconstruction.age_max: ")

    cfg = parse_config(base_doc())
    grid = uniform_grid(SCHEMA_ROWS["reconstruction-grid-one-node"][1]["reconstruction.age_max"], 0.05)
    assert grid.tolist() == [0.0]
    start = ag.density_moments(cfg.initial, cfg.params.rho, cfg.params.n)
    traj = ag.integrate(start, cfg.params, cfg.feedback, t_end=1.0, n_samples=11)
    with pytest.raises(ParameterError, match="^age_grid must be 1-d with at least two nodes$"):
        ag.reconstruct_density(traj, cfg.initial, cfg.params, cfg.feedback, 1.0, grid)


@pytest.mark.parametrize(
    "raw, message",
    [(b"[]", "config: expected an object"), (b'{"model": "\xff"}', "cannot read config file")],
    ids=["not-an-object", "not-utf8"],
)
def test_unreadable_documents(tmp_path, capsys, raw, message):
    config = tmp_path / "run.json"
    config.write_bytes(raw)
    assert run(["steady", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


# the defaults as README "Sections and defaults" documents them; an absent
# reconstruction.times resolves to the integrator horizon
DOCUMENTED = {
    "integrator": {
        "method": "rk45", "t_end": 50.0, "rtol": 1e-8, "atol": 1e-10, "samples": 1001, "h": None, "max_step": None
    },
    "reconstruction": {"times": None, "age_step": 0.01, "age_max": None},
    "oracle": {"t_end": 5.0, "dt": 0.002, "tol": 1e-10, "k_max": 200, "gap_threshold": 5e-3},
}


def _refused_key(doc):
    """The key of the first bound the settings break, in parse order, or None."""
    integrator = {**DOCUMENTED["integrator"], **doc["integrator"]}
    for key in ("h", "max_step"):
        if integrator[key] is not None and not integrator["t_end"] / integrator[key] < MAX_GRID_NODES:
            return f"integrator.t_end / integrator.{key} needs more than"
    reconstruction = {**DOCUMENTED["reconstruction"], **doc["reconstruction"]}
    if reconstruction["age_max"] is not None:
        nodes = reconstruction["age_max"] / reconstruction["age_step"]
        if not nodes < MAX_GRID_NODES or nodes <= 1e-9:  # too many nodes, or one
            return "reconstruction.age_max: age grid"
    if doc["oracle"].get("t_end") == 0:
        return "oracle.t_end must be positive"
    return None


def test_settings_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.one_of(st.floats(min_value=1e-6, max_value=1e6), st.integers(1, 1000))
    nonnegative = st.floats(min_value=0.0, max_value=1e3)
    integrator_keys = {
        "t_end": positive, "rtol": positive, "atol": nonnegative,
        "samples": st.integers(2, 10**6),
    }
    integrators = st.one_of(
        st.fixed_dictionaries({}, optional=dict(integrator_keys, method=st.just("rk45"), max_step=positive)),
        st.fixed_dictionaries({"method": st.just("rk4"), "h": positive}, optional=integrator_keys),
    )
    reconstructions = st.fixed_dictionaries({}, optional={
        "times": st.lists(nonnegative, min_size=1, max_size=4), "age_step": positive, "age_max": positive,
    })

    @st.composite
    def oracles(draw):
        section = draw(st.fixed_dictionaries({}, optional={
            "dt": st.sampled_from([0.5, 0.01, 0.002]), "tol": positive,
            "k_max": st.integers(1, 10**4), "gap_threshold": positive,
        }))
        if draw(st.booleans()):  # a horizon the step divides
            section["t_end"] = draw(st.integers(0, 500)) * section.get("dt", 0.002)
        return section

    @st.composite
    def tabulated(draw):
        ages = sorted(draw(st.lists(nonnegative, min_size=2, max_size=6, unique=True)))
        values = draw(st.lists(nonnegative, min_size=len(ages), max_size=len(ages)))
        return {"kind": "tabulated", "ages": ages, "values": values}

    densities = st.one_of(
        st.builds(lambda c, d: {"kind": "exponential", "coefficient": c, "decay": d}, nonnegative, positive),
        tabulated(),
    )

    @hypothesis.given(
        integrator=integrators, reconstruction=reconstructions, oracle=oracles(), initial=densities
    )
    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def check(integrator, reconstruction, oracle, initial):
        doc = base_doc()
        doc.update(
            integrator=integrator, reconstruction=reconstruction, oracle=oracle, initial_density=initial
        )
        snapshot = copy.deepcopy(doc)
        refused = _refused_key(doc)
        outcomes.add(refused is None)
        if refused is not None:  # a step, age grid or horizon beyond its bound
            with pytest.raises(ParameterError) as caught:
                parse_config(doc)
            assert str(caught.value).startswith(refused)
            return
        cfg = parse_config(doc)
        assert doc == snapshot
        for name in DOCUMENTED:
            expected = {**DOCUMENTED[name], **doc[name]}
            if name == "reconstruction":
                expected["times"] = tuple(reconstruction.get("times", [cfg.integrator.t_end]))
            settings = asdict(getattr(cfg, name))
            assert settings == expected
            assert cfg.resolved[name] == settings
        assert cfg.integrator.t_end == integrator.get("t_end", 50.0)
        if initial["kind"] == "exponential":
            assert cfg.initial == ExponentialDensity(initial["coefficient"], initial["decay"])
        else:
            assert isinstance(cfg.initial, TabulatedDensity)
            assert np.array_equal(cfg.initial.ages, initial["ages"])
            assert np.array_equal(cfg.initial.values, initial["values"])
        assert cfg.resolved["initial_density"] == initial

    outcomes = set()
    check()
    assert outcomes == {True, False}  # both refused and accepted draws were met
