"""Experiment configuration schema and the machine-readable report.

A single JSON document describes one experiment.  It is read in one pass:
each section's parser checks its keys, converts its scalars and builds
its library object once; every default that applies is written back, so
the echoed config fully describes the run and reproduces all statistics
bitwise.  Horizon-length work (scaling sequence, forcing draws) is left
to the run.  Each input rule is checked here, where the input enters:
every number must be finite, and a named family (tail, nonlinearity,
convex functional, catalogue entry) takes exactly the keyword parameters
of its library builder, so a misspelt or foreign parameter is refused.
Every malformed field raises ``ConfigError`` naming its dotted path, such
as ``config.forcing.tail.sigma``; the command line prints
``config error: <path>: ...`` and exits 1.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, field

from .asymptotics import ConvexFunctional, LimsupThresholds, make_phi
from .core import Kernel, Nonlinearity, make_nonlinearity
from .exceptions import ConfigError, VolterraLabError
from .growth_catalogue import CatalogueEntry, catalogue_entry
from .stochastic import (
    ForcingGenerator,
    StatisticSpec,
    TailModel,
    factor_error,
    forcing_entry,
    make_tail_model,
)

# mode -> (fields it requires, its tolerances with their defaults)
_MODES = {
    "solve": (("kernel", "forcing", "horizon"), {}),
    "spectrum": (("kernel",), {}),
    "classify": (("forcing", "scaling", "horizon"), {}),
    "verify-growth2": (("kernel", "forcing", "horizon"), {"residual": 1e-6}),
    "verify-growth3": (("kernel", "forcing", "scaling", "horizon"),
                       {"representation_residual": 1e-4, "recovery_residual": 1e-4}),
    "verify-periodic": (("kernel", "forcing", "scaling", "horizon"),
                        {"representation_residual": 1e-3}),
    "verify-ergodic": (("kernel", "forcing", "scaling", "horizon"), {"limit_abs_error": 0.01}),
    "verify-fluct": (("kernel", "forcing", "scaling", "horizon"), {"bound_slack": 0.05}),
    "verify-phi": (("kernel", "forcing", "horizon"), {"bound_slack": 1e-6}),
    "envelope": (("tail", "scaling", "k_grid", "horizon"), {}),
    "ensemble": (("kernel", "forcing", "horizon", "paths", "statistic"),
                 {"min_pass_fraction": 0.9}),
    "verify-nonlinear": (("kernel", "forcing", "scaling", "nonlinearity", "horizon"),
                         {"final_block_max": 1e-3, "representation_residual": 1e-3}),
}
MODES = tuple(_MODES)

_SCALARS = {
    "mode", "horizon", "seed", "xi", "log_domain", "k_grid", "paths", "period_hint",
    "expected_period", "expected_crossing", "lambda_grid", "out_dir",
}

_MISSING = object()


# --------------------------------------------------------------------------
# typed field helpers: each reads spec[key] and reports errors at path.key
# --------------------------------------------------------------------------

def _object(spec, path, allowed=None) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(path, f"expected an object, got {type(spec).__name__}")
    for key in spec:
        if allowed is not None and key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")
    return spec


def _field(spec, key, path, default=_MISSING):
    if key in spec:
        return spec[key]
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}", "required field missing")
    return default


def _choice(spec, key, path, choices):
    value = _field(spec, key, path)
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{path}.{key}", f"unknown {key} {value!r}; choose from {tuple(choices)}")
    return value


def _float(spec, key, path, default=_MISSING) -> float:
    value = _field(spec, key, path, default)
    # NaN fails the comparison, and so does an integer float() cannot hold
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _floats(spec, key, path, default=_MISSING) -> list:
    values = _field(spec, key, path, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path}.{key}", f"expected a list of numbers, got {values!r}")
    items = dict(enumerate(values))
    return [_float(items, i, f"{path}.{key}") for i in items]


def _int(spec, key, path, default=_MISSING, minimum=0) -> int:
    value = _field(spec, key, path, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}")
    return int(value)


def _each(spec, key, path, ok, reason) -> None:
    for i, value in enumerate(spec[key]):
        if not ok(value):
            raise ConfigError(f"{path}.{key}.{i}", f"{reason}, got {value!r}")


def _build(path, factory, *args, **kwargs):
    """Call a library constructor; whatever it rejects is a ConfigError at path."""
    try:
        return factory(*args, **kwargs)
    except (VolterraLabError, ValueError, TypeError) as err:
        raise ConfigError(path, str(err)) from err


# --------------------------------------------------------------------------
# section parsers: (spec, path, normalized top level) -> (echo, object)
# --------------------------------------------------------------------------

def _named(spec, path, factory, keys=("name", "params")):
    """A ``{name, params}`` section built as ``factory(name, **params)``."""
    _object(spec, path, keys)
    name = _field(spec, "name", path)
    params = _object(_field(spec, "params", path, {}), f"{path}.params")
    return {"name": name, "params": dict(params)}, _build(path, factory, name, **params)


def _kernel(spec, path, top):
    _object(spec, path, {"name", "coefficients", "tail_bound", "c", "ratio", "size"})
    if "coefficients" in spec:
        out = {"coefficients": _floats(spec, "coefficients", path)}
        if "tail_bound" in spec:
            out["tail_bound"] = _float(spec, "tail_bound", path)
        return out, _build(path, Kernel, **out)
    if _choice(spec, "name", path, ("zero", "geometric")) == "zero":
        return {"name": "zero"}, Kernel.zero()
    out = {
        "name": "geometric",
        "c": _float(spec, "c", path),
        "ratio": _float(spec, "ratio", path),
        "size": _int(spec, "size", path),
    }
    return out, _build(path, Kernel.geometric, out["c"], out["ratio"], out["size"])


def _tail(spec, path, top=None):
    """``{family, <its parameters>}``: every parameter is a number."""
    out = {"family": _field(_object(spec, path), "family", path)}
    out.update((key, _float(spec, key, path)) for key in spec if key != "family")
    return out, _build(path, make_tail_model, **out)


# factor kind -> field -> (converter, default)
_FACTORS = {
    "iid_uniform": {"low": (_float, 0.0), "high": (_float, 1.0)},
    "periodic": {"profile": (_floats, _MISSING)},
    "sinusoid": {
        "amplitudes": (_floats, [1.0]),
        "frequencies": (_floats, [1.0]),
        "offset": (_float, 0.0),
    },
}


def _factor(spec, path) -> dict:
    fields = _FACTORS[_choice(_object(spec, path), "kind", path, _FACTORS)]
    _object(spec, path, {"kind", *fields})
    out = {"kind": spec["kind"]} | {
        key: convert(spec, key, path, default) for key, (convert, default) in fields.items()
    }
    error = factor_error(out)
    if error is not None:
        raise ConfigError(f"{path}.{error[0]}", error[1])
    return out


_FORCING_KEYS = {
    "iid": {"tail"},
    "random_walk_drift": {"drift", "noise"},
    "geometric_random_walk": {"drift", "noise"},
    "deterministic": {"name", "params"},
    "modulated": {"base", "factor"},
}


def _forcing(spec, path, top):
    kind = _choice(_object(spec, path), "kind", path, _FORCING_KEYS)
    keys = {"kind", "seed", *_FORCING_KEYS[kind]}
    _object(spec, path, keys)
    out, tails = {"kind": kind}, {}
    if kind == "iid":
        out["tail"], tails["tail"] = _tail(_field(spec, "tail", path), f"{path}.tail")
    elif kind == "deterministic":
        out.update(_named(spec, path, forcing_entry, keys)[0])
    elif kind == "modulated":
        out["base"] = _named(_field(spec, "base", path), f"{path}.base", forcing_entry)[0]
        out["factor"] = _factor(_field(spec, "factor", path), f"{path}.factor")
    else:
        out["drift"] = _float(spec, "drift", path, 0.0)
        out["noise"] = tails["noise"] = spec.get("noise")
        if out["noise"] is not None:
            out["noise"], tails["noise"] = _tail(out["noise"], f"{path}.noise")
    if "seed" in spec:
        out["seed"] = _int(spec, "seed", path)
    return out, ForcingGenerator(**{**out, "seed": out.get("seed", top["seed"]), **tails})


def _statistic(spec, path, top):
    _object(spec, path, {"name", "band", "series", "phi", "burn_in_fraction"})
    out = {"name": _field(spec, "name", path), "band": _floats(spec, "band", path)}
    if len(out["band"]) != 2:
        raise ConfigError(f"{path}.band", "band must be [low, high]")
    out["series"] = _field(spec, "series", path, "solution")
    if "burn_in_fraction" in spec:
        out["burn_in_fraction"] = _float(spec, "burn_in_fraction", path)
    phi = {}
    if "phi" in spec:
        out["phi"], phi["phi"] = _named(spec["phi"], f"{path}.phi", make_phi)
    return out, _build(path, StatisticSpec, **{**out, "band": tuple(out["band"]), **phi})


def _tolerances(spec, path, top):
    out = dict(_MODES[top["mode"]][1])
    for key in _object(spec, path, out):
        out[key] = _float(spec, key, path)
    return out, None


def _thresholds(spec, path, top):
    keys = {"burn_in_fraction", "zero_peak_ratio", "growth_factor"}
    out = {key: _float(spec, key, path) for key in _object(spec, path, keys)}
    return out, LimsupThresholds(**out)


_SECTIONS = {
    "kernel": _kernel,
    "forcing": _forcing,
    "scaling": lambda spec, path, top: _named(spec, path, catalogue_entry),
    "nonlinearity": lambda spec, path, top: _named(spec, path, make_nonlinearity),
    "tail": _tail,
    "phi": lambda spec, path, top: _named(spec, path, make_phi),
    "statistic": _statistic,
    "tolerances": _tolerances,
    "thresholds": _thresholds,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The normalized document plus the objects built from it (None if absent).

    ``scaling`` is a catalogue entry: ``ScalingModel.from_entry`` turns it
    into a sequence at the run's horizon and arithmetic.
    """

    data: dict
    kernel: Kernel = None
    forcing: ForcingGenerator = None
    scaling: CatalogueEntry = None
    nonlinearity: Nonlinearity = None
    tail: TailModel = None
    phi: ConvexFunctional = None
    statistic: StatisticSpec = None
    thresholds: LimsupThresholds = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Check, normalize and build every section of ``raw`` in one pass."""
        _object(raw, "config", _SCALARS | _SECTIONS.keys())
        mode = _choice(raw, "mode", "config", MODES)
        for key in _MODES[mode][0]:
            if key not in raw:
                raise ConfigError(f"config.{key}", f"required for mode {mode!r}")
        data = {"mode": mode}
        for key in ("horizon", "paths"):
            if key in raw:
                data[key] = _int(raw, key, "config", minimum=1)
        data["seed"] = _int(raw, "seed", "config", 0)
        data["xi"] = _float(raw, "xi", "config", 1.0)
        data["log_domain"] = _field(raw, "log_domain", "config", False)
        if not isinstance(data["log_domain"], bool):
            raise ConfigError("config.log_domain", "expected true or false")
        defaults = {"tolerances": {}, "thresholds": {}}
        if mode == "verify-phi":
            defaults["phi"] = {"name": "power", "params": {"p": 2.0}}
        objects = {}
        for key, parse in _SECTIONS.items():
            spec = raw.get(key, defaults.get(key, _MISSING))
            if spec is not _MISSING:
                data[key], obj = parse(spec, f"config.{key}", data)
                if obj is not None:
                    objects[key] = obj
        if "k_grid" in raw:
            data["k_grid"] = _floats(raw, "k_grid", "config")
            if not data["k_grid"]:
                raise ConfigError("config.k_grid", "must be a nonempty list")
            _each(data, "k_grid", "config", lambda k: k > 0.0, "must be positive")
        for key, minimum in (("period_hint", 1), ("expected_period", 0)):
            if raw.get(key) is not None:
                data[key] = _int(raw, key, "config", minimum=minimum)
        if "expected_crossing" in raw:
            data["expected_crossing"] = _float(raw, "expected_crossing", "config")
        if "lambda_grid" in raw or mode == "spectrum":
            data["lambda_grid"] = _floats(raw, "lambda_grid", "config", [0.0, 0.25, 0.5, 0.75, 1.0])
            _each(data, "lambda_grid", "config", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
        if "out_dir" in raw:
            data["out_dir"] = raw["out_dir"]
            if not isinstance(data["out_dir"], str):
                raise ConfigError("config.out_dir", f"expected a string, got {data['out_dir']!r}")
        return cls(data, **objects)

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def mode(self) -> str:
        return self.data["mode"]


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

@dataclass
class Report:
    """Machine-readable outcome of one experiment run.

    ``verdicts`` holds every declared check as a named boolean, and each
    verdict's evidence lives in ``statistics`` or in the CSV series listed
    in ``series``.  Re-running the echoed config reproduces all statistics
    bitwise; the wall clock is informational only.
    """

    mode: str
    config: dict
    verdicts: dict
    statistics: dict
    series: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    version: str = "0"

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=True)
