"""Strict JSON run configuration.

One UTF-8 JSON document drives every subcommand. The schema is strict:
unknown keys anywhere are rejected with the offending path, and wrong
types are schema errors (exit code 2), while well-typed values that break
a model invariant, non-finite numbers among them, surface as parameter
errors (exit code 3). Defaults are filled here so downstream code sees a
fully resolved configuration. A key repeated within one object is a
schema error too. Every section is read and checked; of the sections the
caller names as the ones it runs on, ``initial_density`` and ``sweep``
must be present, and the checks that tie a section to others run only for
those (the default age grid's size, the oracle step's bound, the oracle's
initial-cohort grid).

Each settings section, feedback family and initial density is declared
once, by its dataclass: field names are the allowed keys, annotations
their types, and defaults the defaults (a field without one is required).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigSchemaError, ParameterError
from .model import (
    _PHI_FAMILIES,
    _PSI_FAMILIES,
    ExponentialDensity,
    FeedbackSpec,
    InitialDensity,
    ModelParams,
    TabulatedDensity,
    _check_size,
    density_moments,
    normalize_betas,
)
from .oracle import DEFAULT_K_MAX, check_solvable, grid_steps, initial_cohort_steps
from .quadrature import uniform_steps
from .reconstruct import default_age_length
from .reduction import check_integrator

_INITIAL_KINDS = {"exponential": ExponentialDensity, "tabulated": TabulatedDensity}


# the check behind each value type and the message when it fails
_TYPES = {
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (lambda v: isinstance(v, list) and len(v) > 0, "a nonempty array of numbers"),
}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigSchemaError(f"{path}: expected an object")
    return obj


def _reject_unknown(obj: dict, path: str, allowed: set) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigSchemaError(f"{path}.{key}: unknown key")


def _value(value, where: str, kind: str):
    """value checked as kind: 'float', 'int', 'bool', 'str' or a 'tuple' of floats."""
    accepts, expected = _TYPES[kind]
    if not accepts(value):
        raise ConfigSchemaError(f"{where}: expected {expected}")
    if kind == "tuple":
        return tuple(_value(item, f"{where}[{i}]", "float") for i, item in enumerate(value))
    if kind == "float":
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ParameterError(f"{where}: must be finite")
    return value


def _read(obj: dict, path: str, key: str, kind: str, default=None, required: bool = False):
    """obj[key] checked as kind; default when it is absent, unless it is required."""
    if key in obj:
        return _value(obj[key], f"{path}.{key}", kind)
    if required:
        raise ConfigSchemaError(f"{path}.{key}: required")
    return default


def _build(section: dict, path: str, cls, tag: Optional[str] = None):
    """Dataclass cls built from a section whose keys are its fields (and the tag)."""
    members = fields(cls)
    _reject_unknown(section, path, {f.name for f in members} | {tag})
    values = {}
    for f in members:
        # 'Optional[float]' reads as 'float'; an array reads as a tuple of numbers
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        kind = "tuple" if kind == "np.ndarray" else kind
        values[f.name] = _read(section, path, f.name, kind, f.default, f.default is MISSING)
    return cls(**values)


def _section(doc: dict, name: str, required: bool = False) -> dict:
    """A top-level section; an absent optional one reads as empty."""
    if required and name not in doc:
        raise ConfigSchemaError(f"{name}: required section")
    return _require_mapping(doc.get(name, {}), name)


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rk45"
    t_end: float = 50.0
    rtol: float = 1e-8
    atol: float = 1e-10
    samples: int = 1001
    h: Optional[float] = None
    max_step: Optional[float] = None


@dataclass(frozen=True)
class ReconstructionSettings:
    times: Optional[tuple] = None  # resolved to (integrator.t_end,) when absent
    age_step: float = 0.01
    age_max: Optional[float] = None


@dataclass(frozen=True)
class OracleSettings:
    t_end: float = 5.0
    dt: float = 0.002
    tol: float = 1e-10
    k_max: int = DEFAULT_K_MAX
    gap_threshold: float = 5e-3


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    params: ModelParams
    feedback: FeedbackSpec
    initial: Optional[InitialDensity]
    integrator: IntegratorSettings
    reconstruction: ReconstructionSettings
    oracle: OracleSettings
    sweep_r0: Optional[tuple]
    resolved: dict = field(repr=False, default_factory=dict)


def _parse_model(doc: dict) -> ModelParams:
    section = _section(doc, "model", required=True)
    _reject_unknown(section, "model", {"n", "betas", "rho", "mu0", "r0", "normalize_betas"})
    n = _read(section, "model", "n", "int", required=True)
    betas = _read(section, "model", "betas", "tuple", required=True)
    rho, mu0, r0 = (_read(section, "model", key, "float", required=True) for key in ("rho", "mu0", "r0"))
    normalized = _read(section, "model", "normalize_betas", "bool", False)
    _check_size(n, betas)  # before normalizing, whose factorials stop at n = 170
    if normalized:
        betas = normalize_betas(betas, rho, mu0)
    return ModelParams(n=n, betas=betas, rho=rho, mu0=mu0, r0=r0, normalized=normalized)


def _parse_family(obj, path: str, families: dict, tag: str = "family"):
    """One of several dataclasses, named by the tag key and read from its fields."""
    section = _require_mapping(obj, path)
    name = _read(section, path, tag, "str", required=True)
    if name not in families:
        raise ConfigSchemaError(f"{path}.{tag}: expected one of {sorted(families)}")
    return _build(section, path, families[name], tag)


def _parse_feedback(doc: dict) -> FeedbackSpec:
    section = _section(doc, "feedback", required=True)
    _reject_unknown(section, "feedback", {"linear_mode", "phi", "psi"})
    if _read(section, "feedback", "linear_mode", "bool", False):
        if "phi" in section or "psi" in section:
            raise ConfigSchemaError("feedback: phi/psi must be omitted in linear_mode")
        return FeedbackSpec.linear()
    parsed = {}
    for name, families in (("phi", _PHI_FAMILIES), ("psi", _PSI_FAMILIES)):
        if name not in section:
            raise ConfigSchemaError(f"feedback.{name}: required")
        parsed[name] = _parse_family(section[name], f"feedback.{name}", families)
    return FeedbackSpec(phi_family=parsed["phi"], psi_family=parsed["psi"])


def _parse_initial(doc: dict, params: ModelParams, required: bool) -> Optional[InitialDensity]:
    if "initial_density" not in doc and not required:
        return None
    initial = _parse_family(_section(doc, "initial_density", required), "initial_density", _INITIAL_KINDS, "kind")
    density_moments(initial, params.rho, params.n, where="initial_density: ")  # every simulation's start state
    return initial


def _parse_integrator(doc: dict) -> IntegratorSettings:
    it = _build(_section(doc, "integrator"), "integrator", IntegratorSettings)
    check_integrator(**asdict(it), where="integrator.", error=ConfigSchemaError)
    return it


def _parse_reconstruction(doc: dict, t_end: float) -> ReconstructionSettings:
    rec = _build(_section(doc, "reconstruction"), "reconstruction", ReconstructionSettings)
    for i, t in enumerate(rec.times or ()):
        if t < 0:
            raise ParameterError(f"reconstruction.times[{i}] must be finite and nonnegative")
    if not rec.age_step > 0:
        raise ParameterError("reconstruction.age_step must be positive and finite")
    if rec.age_max is not None and not rec.age_max > 0:
        raise ParameterError("reconstruction.age_max must be positive and finite")
    if rec.age_max is not None and uniform_steps(rec.age_max, rec.age_step, "reconstruction.age_max: ") < 1:
        raise ParameterError("reconstruction.age_max: the age grid has one node; a profile needs two")
    return replace(rec, times=rec.times or (t_end,))


def _parse_oracle(doc: dict) -> OracleSettings:
    settings = _build(_section(doc, "oracle"), "oracle", OracleSettings)
    grid_steps(settings.t_end, settings.dt, settings.tol, settings.k_max, "oracle.")
    if settings.gap_threshold <= 0:
        raise ParameterError("oracle.gap_threshold must be positive")
    return settings


def _parse_sweep(doc: dict, params: ModelParams, required: bool) -> Optional[tuple]:
    if "sweep" not in doc and not required:
        return None
    section = _section(doc, "sweep", required)
    _reject_unknown(section, "sweep", {"r0_values"})
    values = _read(section, "sweep", "r0_values", "tuple", required=True)
    params.check_r0_range(values, "sweep.r0_values")
    return values


_TOP_KEYS = {
    "model",
    "feedback",
    "initial_density",
    "integrator",
    "reconstruction",
    "oracle",
    "sweep",
}


def parse_config(doc: Any, sections: tuple = ()) -> RunConfig:
    """Validate a parsed JSON document for a caller that runs on ``sections`` (``reconstruction``
    and ``oracle`` only with ``initial_density``, whose support sizes the default age grid and
    the oracle's initial cohorts); resolve defaults."""
    doc = _require_mapping(doc, "config")
    _reject_unknown(doc, "config", _TOP_KEYS)
    params = _parse_model(doc)
    feedback = _parse_feedback(doc)
    initial = _parse_initial(doc, params, "initial_density" in sections)
    integrator = _parse_integrator(doc)
    reconstruction = _parse_reconstruction(doc, integrator.t_end)
    oracle = _parse_oracle(doc)
    sweep_r0 = _parse_sweep(doc, params, "sweep" in sections)
    if "reconstruction" in sections and reconstruction.age_max is None:
        step = reconstruction.age_step
        uniform_steps(default_age_length(integrator.t_end, initial, step), step, "reconstruction.age_step: ")
    if "oracle" in sections:
        check_solvable(params, oracle.dt, "oracle.")
        initial_cohort_steps(initial, oracle.dt, "oracle.dt: ")

    resolved = {
        "model": {
            "n": params.n,
            "betas": list(params.betas),
            "rho": params.rho,
            "mu0": params.mu0,
            "r0": params.r0,
            "normalize_betas": params.normalized,
        },
        "feedback": _echo_feedback(feedback),
        "integrator": asdict(integrator),
        "reconstruction": asdict(reconstruction),
        "oracle": asdict(oracle),
        "sweep": {"r0_values": list(sweep_r0)} if sweep_r0 is not None else None,
        "initial_density": doc.get("initial_density"),
    }
    return RunConfig(
        params=params,
        feedback=feedback,
        initial=initial,
        integrator=integrator,
        reconstruction=reconstruction,
        oracle=oracle,
        sweep_r0=sweep_r0,
        resolved=resolved,
    )


def _echo_feedback(feedback: FeedbackSpec) -> dict:
    if feedback == FeedbackSpec.linear():
        return {"linear_mode": True}
    doc = {"linear_mode": False}
    for name, family in (("phi", feedback.phi_family), ("psi", feedback.psi_family)):
        doc[name] = {"family": family.name, **asdict(family)}
    return doc


def _unique_keys(pairs) -> dict:
    """One JSON object's members; a repeated key is a schema error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigSchemaError(f"{key}: repeated key")
        obj[key] = value
    return obj


def load_config(path, sections: tuple = ()) -> RunConfig:
    """Read, parse, and validate a JSON config file for a caller that runs on ``sections``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigSchemaError(f"{path}: cannot read config file ({exc})") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigSchemaError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc, sections)
