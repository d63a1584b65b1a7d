"""Strict JSON run configuration.

One UTF-8 JSON document drives every subcommand. The schema is strict:
unknown keys anywhere are rejected with the offending path, and wrong
types are schema errors (exit code 2), while well-typed values that break
a model invariant surface as parameter errors (exit code 3). Defaults are
filled here so downstream code sees a fully resolved configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
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
    normalize_betas,
)
from .oracle import grid_steps

DEFAULTS = {
    "integrator": {"method": "rk45", "t_end": 50.0, "rtol": 1e-8, "atol": 1e-10, "samples": 1001},
    "reconstruction": {"age_step": 0.01},
    "oracle": {"t_end": 5.0, "dt": 0.002, "tol": 1e-10, "k_max": 200, "gap_threshold": 5e-3},
}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigSchemaError(f"{path}: expected an object")
    return obj


def _reject_unknown(obj: dict, path: str, allowed: set) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigSchemaError(f"{path}.{key}: unknown key")


def _number(obj: dict, path: str, key: str, default=None, required: bool = False) -> Optional[float]:
    if key not in obj:
        if required:
            raise ConfigSchemaError(f"{path}.{key}: required")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(f"{path}.{key}: expected a number")
    return float(value)


def _integer(obj: dict, path: str, key: str, default=None, required: bool = False) -> Optional[int]:
    if key not in obj:
        if required:
            raise ConfigSchemaError(f"{path}.{key}: required")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigSchemaError(f"{path}.{key}: expected an integer")
    return value


def _boolean(obj: dict, path: str, key: str, default: bool = False) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigSchemaError(f"{path}.{key}: expected true or false")
    return value


def _string(obj: dict, path: str, key: str, default=None, required: bool = False) -> Optional[str]:
    if key not in obj:
        if required:
            raise ConfigSchemaError(f"{path}.{key}: required")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigSchemaError(f"{path}.{key}: expected a string")
    return value


def _number_list(obj: dict, path: str, key: str, required: bool = False) -> Optional[list]:
    if key not in obj:
        if required:
            raise ConfigSchemaError(f"{path}.{key}: required")
        return None
    value = obj[key]
    if not isinstance(value, list) or not value:
        raise ConfigSchemaError(f"{path}.{key}: expected a nonempty array of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigSchemaError(f"{path}.{key}[{i}]: expected a number")
        out.append(float(item))
    return out


@dataclass(frozen=True)
class IntegratorSettings:
    method: str
    t_end: float
    rtol: float
    atol: float
    samples: int
    h: Optional[float] = None
    max_step: Optional[float] = None


@dataclass(frozen=True)
class ReconstructionSettings:
    times: Optional[tuple]
    age_step: float
    age_max: Optional[float]


@dataclass(frozen=True)
class OracleSettings:
    t_end: float
    dt: float
    tol: float
    k_max: int
    gap_threshold: float


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
    output_dir: Optional[str]
    resolved: dict = field(repr=False, default_factory=dict)


def _parse_model(doc: dict) -> ModelParams:
    section = _require_mapping(doc.get("model"), "model") if "model" in doc else None
    if section is None:
        raise ConfigSchemaError("model: required section")
    _reject_unknown(section, "model", {"n", "betas", "rho", "mu0", "r0", "normalize_betas"})
    n = _integer(section, "model", "n", required=True)
    betas = _number_list(section, "model", "betas", required=True)
    rho = _number(section, "model", "rho", required=True)
    mu0 = _number(section, "model", "mu0", required=True)
    r0 = _number(section, "model", "r0", required=True)
    if _boolean(section, "model", "normalize_betas", False):
        betas = normalize_betas(betas, rho, mu0)
        return ModelParams(n=n, betas=tuple(betas), rho=rho, mu0=mu0, r0=r0, normalized=True)
    return ModelParams(n=n, betas=tuple(betas), rho=rho, mu0=mu0, r0=r0)


def _parse_family(section: dict, name: str, families: dict):
    """One feedback family; its allowed and required keys are its dataclass fields."""
    path = f"feedback.{name}"
    if name not in section:
        raise ConfigSchemaError(f"{path}: required")
    doc = _require_mapping(section[name], path)
    family = _string(doc, path, "family", required=True)
    if family not in families:
        raise ConfigSchemaError(f"{path}.family: expected one of {sorted(families)}")
    members = fields(families[family])
    _reject_unknown(doc, path, {f.name for f in members} | {"family"})
    params = {}
    for f in members:
        value = _number(doc, path, f.name, required=f.default is MISSING)
        if value is not None:
            params[f.name] = value
    return families[family](**params)


def _parse_feedback(doc: dict) -> FeedbackSpec:
    if "feedback" not in doc:
        raise ConfigSchemaError("feedback: required section")
    section = _require_mapping(doc["feedback"], "feedback")
    _reject_unknown(section, "feedback", {"linear_mode", "phi", "psi"})
    if _boolean(section, "feedback", "linear_mode", False):
        if "phi" in section or "psi" in section:
            raise ConfigSchemaError("feedback: phi/psi must be omitted in linear_mode")
        return FeedbackSpec.linear()
    return FeedbackSpec(
        phi_family=_parse_family(section, "phi", _PHI_FAMILIES),
        psi_family=_parse_family(section, "psi", _PSI_FAMILIES),
    )


def _parse_initial(doc: dict) -> Optional[InitialDensity]:
    if "initial_density" not in doc:
        return None
    section = _require_mapping(doc["initial_density"], "initial_density")
    kind = _string(section, "initial_density", "kind", required=True)
    if kind == "exponential":
        _reject_unknown(section, "initial_density", {"kind", "coefficient", "decay"})
        return ExponentialDensity(
            coefficient=_number(section, "initial_density", "coefficient", required=True),
            decay=_number(section, "initial_density", "decay", required=True),
        )
    if kind == "tabulated":
        _reject_unknown(section, "initial_density", {"kind", "ages", "values"})
        return TabulatedDensity(
            ages=_number_list(section, "initial_density", "ages", required=True),
            values=_number_list(section, "initial_density", "values", required=True),
        )
    raise ConfigSchemaError("initial_density.kind: expected 'exponential' or 'tabulated'")


def _parse_integrator(doc: dict) -> IntegratorSettings:
    section = _require_mapping(doc.get("integrator", {}), "integrator")
    _reject_unknown(
        section, "integrator", {"method", "t_end", "rtol", "atol", "h", "max_step", "samples"}
    )
    base = DEFAULTS["integrator"]
    method = _string(section, "integrator", "method", base["method"])
    if method not in ("rk4", "rk45"):
        raise ConfigSchemaError("integrator.method: expected 'rk4' or 'rk45'")
    t_end = _number(section, "integrator", "t_end", base["t_end"])
    rtol = _number(section, "integrator", "rtol", base["rtol"])
    atol = _number(section, "integrator", "atol", base["atol"])
    samples = _integer(section, "integrator", "samples", base["samples"])
    h = _number(section, "integrator", "h")
    max_step = _number(section, "integrator", "max_step")
    if method == "rk4" and h is None:
        raise ConfigSchemaError("integrator.h: required for method 'rk4'")
    if method == "rk45" and h is not None:
        raise ConfigSchemaError("integrator.h: only applies to method 'rk4'")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ParameterError("integrator.t_end must be positive and finite")
    if samples < 2:
        raise ParameterError("integrator.samples must be at least 2")
    if rtol <= 0 or atol < 0:
        raise ParameterError("integrator.rtol must be positive and integrator.atol nonnegative")
    if h is not None and not (h > 0 and math.isfinite(h)):
        raise ParameterError("integrator.h must be positive and finite")
    if max_step is not None and not (max_step > 0 and math.isfinite(max_step)):
        raise ParameterError("integrator.max_step must be positive and finite")
    return IntegratorSettings(
        method=method, t_end=t_end, rtol=rtol, atol=atol, samples=samples, h=h, max_step=max_step
    )


def _parse_reconstruction(doc: dict, t_end: float) -> ReconstructionSettings:
    section = _require_mapping(doc.get("reconstruction", {}), "reconstruction")
    _reject_unknown(section, "reconstruction", {"times", "age_step", "age_max"})
    times = _number_list(section, "reconstruction", "times")
    if times is not None:
        for i, t in enumerate(times):
            if t < 0 or not math.isfinite(t):
                raise ParameterError(f"reconstruction.times[{i}] must be finite and nonnegative")
    age_step = _number(section, "reconstruction", "age_step", DEFAULTS["reconstruction"]["age_step"])
    if not (age_step > 0 and math.isfinite(age_step)):
        raise ParameterError("reconstruction.age_step must be positive and finite")
    age_max = _number(section, "reconstruction", "age_max")
    if age_max is not None and not (age_max > 0 and math.isfinite(age_max)):
        raise ParameterError("reconstruction.age_max must be positive and finite")
    resolved_times = tuple(times) if times is not None else (t_end,)
    return ReconstructionSettings(times=resolved_times, age_step=age_step, age_max=age_max)


def _parse_oracle(doc: dict) -> OracleSettings:
    section = _require_mapping(doc.get("oracle", {}), "oracle")
    _reject_unknown(section, "oracle", {"t_end", "dt", "tol", "k_max", "gap_threshold"})
    base = DEFAULTS["oracle"]
    settings = OracleSettings(
        t_end=_number(section, "oracle", "t_end", base["t_end"]),
        dt=_number(section, "oracle", "dt", base["dt"]),
        tol=_number(section, "oracle", "tol", base["tol"]),
        k_max=_integer(section, "oracle", "k_max", base["k_max"]),
        gap_threshold=_number(section, "oracle", "gap_threshold", base["gap_threshold"]),
    )
    if not (settings.t_end >= 0 and math.isfinite(settings.t_end)):
        raise ParameterError("oracle.t_end must be nonnegative and finite")
    if not (settings.dt > 0 and math.isfinite(settings.dt)):
        raise ParameterError("oracle.dt must be positive and finite")
    grid_steps(settings.t_end, settings.dt)
    if settings.tol <= 0 or settings.k_max < 1:
        raise ParameterError("oracle.tol must be positive and oracle.k_max at least 1")
    if settings.gap_threshold <= 0:
        raise ParameterError("oracle.gap_threshold must be positive")
    return settings


def _parse_sweep(doc: dict) -> Optional[tuple]:
    if "sweep" not in doc:
        return None
    section = _require_mapping(doc["sweep"], "sweep")
    _reject_unknown(section, "sweep", {"r0_values"})
    values = _number_list(section, "sweep", "r0_values", required=True)
    for i, r0 in enumerate(values):
        if not (r0 > 0 and math.isfinite(r0)):
            raise ParameterError(f"sweep.r0_values[{i}] must be positive and finite")
    return tuple(values)


_TOP_KEYS = {
    "model",
    "feedback",
    "initial_density",
    "integrator",
    "reconstruction",
    "oracle",
    "sweep",
    "output_dir",
}


def parse_config(doc: Any) -> RunConfig:
    """Validate a parsed JSON document and resolve defaults."""
    doc = _require_mapping(doc, "config")
    _reject_unknown(doc, "config", _TOP_KEYS)
    params = _parse_model(doc)
    feedback = _parse_feedback(doc)
    initial = _parse_initial(doc)
    integrator = _parse_integrator(doc)
    reconstruction = _parse_reconstruction(doc, integrator.t_end)
    oracle = _parse_oracle(doc)
    sweep_r0 = _parse_sweep(doc)
    output_dir = _string(doc, "config", "output_dir")

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
        "integrator": {
            "method": integrator.method,
            "t_end": integrator.t_end,
            "rtol": integrator.rtol,
            "atol": integrator.atol,
            "samples": integrator.samples,
            "h": integrator.h,
            "max_step": integrator.max_step,
        },
        "reconstruction": {
            "times": list(reconstruction.times) if reconstruction.times else None,
            "age_step": reconstruction.age_step,
            "age_max": reconstruction.age_max,
        },
        "oracle": {
            "t_end": oracle.t_end,
            "dt": oracle.dt,
            "tol": oracle.tol,
            "k_max": oracle.k_max,
            "gap_threshold": oracle.gap_threshold,
        },
        "sweep": {"r0_values": list(sweep_r0)} if sweep_r0 is not None else None,
        "initial_density": doc.get("initial_density"),
        "output_dir": output_dir,
    }
    return RunConfig(
        params=params,
        feedback=feedback,
        initial=initial,
        integrator=integrator,
        reconstruction=reconstruction,
        oracle=oracle,
        sweep_r0=sweep_r0,
        output_dir=output_dir,
        resolved=resolved,
    )


def _echo_feedback(feedback: FeedbackSpec) -> dict:
    if feedback == FeedbackSpec.linear():
        return {"linear_mode": True}
    doc = {"linear_mode": False}
    for name, family, families in (
        ("phi", feedback.phi_family, _PHI_FAMILIES),
        ("psi", feedback.psi_family, _PSI_FAMILIES),
    ):
        label = next(key for key, cls in families.items() if type(family) is cls)
        doc[name] = {"family": label, **asdict(family)}
    return doc


def load_config(path) -> RunConfig:
    """Read, parse, and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigSchemaError(f"{path}: cannot read config file ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSchemaError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)
