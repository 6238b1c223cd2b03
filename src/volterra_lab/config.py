"""Experiment configuration schema and the machine-readable report.

A single JSON document describes one experiment.  Its mode's fields are
its schema: the top-level fields the mode reads (``_MODES``) and the
settings every mode takes (``_SETTINGS``); any other field is refused.
It is read in one pass: each section's parser checks its keys, converts
its scalars and builds its library object once.  The defaults of the
schema's own fields are written back; a named family's parameters are
echoed as numbers, since their defaults live in its builder's signature.
Either way the echoed config reproduces all statistics bitwise.
Horizon-length work (scaling sequence, forcing draws) is left to the
run.  Each input rule is checked here, where the input enters: every
number must be finite, and a named family (tail, modulation factor,
nonlinearity, convex functional, catalogue entry) takes exactly the
keyword parameters of its library builder, so a misspelt or foreign
parameter is refused, and whatever else the builder refuses is an error
at the family's section.  An ensemble's ``statistic`` section takes
``name``, ``band`` and ``series`` only: its ``phi_average`` is the mean
of x^2, with no functional to choose.  Every malformed field raises
``ConfigError`` naming its dotted path, such as
``config.forcing.tail.sigma``; the command line prints ``config error:
<path>: ...`` and exits 1.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, field

from .asymptotics import _MAX_PERIOD_FRACTION, ConvexFunctional, make_phi
from .core import Kernel, Nonlinearity, make_nonlinearity
from .exceptions import ConfigError, VolterraLabError
from .growth_catalogue import CatalogueEntry, catalogue_entry
from .stochastic import (
    ForcingGenerator,
    StatisticSpec,
    TailModel,
    forcing_entry,
    make_factor,
    make_tail_model,
)

# mode -> (fields it requires, fields it reads only when given, its
# tolerances with their defaults).  With _SETTINGS the two lists are the
# mode's whole schema: any other top-level field is a config error
_MODES = {
    "solve": (("kernel", "forcing", "horizon"), (), {}),
    "spectrum": (("kernel",), ("lambda_grid",), {}),
    "classify": (("forcing", "scaling", "horizon"), ("kernel",), {}),
    "verify-growth2": (("kernel", "forcing", "horizon"), ("scaling",), {"residual": 1e-6}),
    "verify-growth3": (("kernel", "forcing", "scaling", "horizon"), (),
                       {"representation_residual": 1e-4, "recovery_residual": 1e-4}),
    "verify-periodic": (("kernel", "forcing", "scaling", "horizon"), ("expected_period",),
                        {"representation_residual": 1e-3}),
    "verify-ergodic": (("kernel", "forcing", "scaling", "horizon"), (), {"limit_abs_error": 0.01}),
    "verify-fluct": (("kernel", "forcing", "scaling", "horizon"), (), {"bound_slack": 0.05}),
    "verify-phi": (("kernel", "forcing", "horizon"), ("phi",), {"bound_slack": 1e-6}),
    "envelope": (("tail", "scaling", "k_grid", "horizon"), ("expected_crossing",), {}),
    "ensemble": (("kernel", "forcing", "horizon", "paths", "statistic"), ("scaling",),
                 {"min_pass_fraction": 0.9}),
    "verify-nonlinear": (("kernel", "forcing", "scaling", "nonlinearity", "horizon"), (),
                         {"final_block_max": 1e-3, "representation_residual": 1e-3}),
}
MODES = tuple(_MODES)
# the settings every mode takes and echoes
_SETTINGS = ("mode", "seed", "xi", "log_domain", "tolerances")
# modes that check x/a against its representation, which needs the ratio
# series on two indices or more: it starts at the scale's first index, or
# at n = 1 where a(0) = 0
_REPRESENTATION_MODES = ("verify-growth3", "verify-periodic", "verify-nonlinear")
# modes with no log-form path: their arithmetic is plain doubles only
_PLAIN_MODES = ("spectrum", "envelope", "verify-nonlinear")

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


def _number(spec, key, path):
    """A family's parameter: a finite number or a list of finite numbers."""
    return (_floats if isinstance(spec[key], (list, tuple)) else _float)(spec, key, path)


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
    params = {key: _number(params, key, f"{path}.params") for key in params}
    return {"name": name, "params": params}, _build(path, factory, name, **params)


def _kernel(spec, path, top):
    """Explicit ``{coefficients}``, ``{name: zero}`` or ``{name: geometric,
    c, ratio, size}``: each form takes only the fields it reads."""
    _object(spec, path, {"name", "coefficients", "c", "ratio", "size"})
    if "coefficients" in spec:
        _object(spec, path, {"coefficients"})
        out = {"coefficients": _floats(spec, "coefficients", path)}
        return out, _build(path, Kernel, **out)
    if _choice(spec, "name", path, ("zero", "geometric")) == "zero":
        _object(spec, path, {"name"})
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


def _factor(spec, path):
    """``{kind, <its parameters>}``: a parameter is a number or a list of numbers."""
    out = {"kind": _field(_object(spec, path), "kind", path)}
    out.update((key, _number(spec, key, path)) for key in spec if key != "kind")
    return out, _build(path, make_factor, **out)


_FORCING_KEYS = {
    "iid": {"tail"},
    "random_walk_drift": {"drift", "noise"},
    "geometric_random_walk": {"drift", "noise"},
    "deterministic": {"name", "params"},
    "modulated": {"base", "factor"},
}


def _forcing(spec, path, top):
    kind = _choice(_object(spec, path), "kind", path, _FORCING_KEYS)
    keys = {"kind", *_FORCING_KEYS[kind]}
    _object(spec, path, keys)
    out, parts = {"kind": kind}, {}
    if kind == "iid":
        out["tail"], parts["tail"] = _tail(_field(spec, "tail", path), f"{path}.tail")
    elif kind == "deterministic":
        echo, parts["entry"] = _named(spec, path, forcing_entry, keys)
        out.update(echo)
    elif kind == "modulated":
        out["base"], parts["entry"] = _named(_field(spec, "base", path), f"{path}.base",
                                             forcing_entry)
        out["factor"], parts["factor"] = _factor(_field(spec, "factor", path), f"{path}.factor")
    else:
        out["drift"] = parts["drift"] = _float(spec, "drift", path, 0.0)
        out["noise"] = spec.get("noise")
        if out["noise"] is not None:
            out["noise"], parts["noise"] = _tail(out["noise"], f"{path}.noise")
    return out, ForcingGenerator(kind, top["seed"], **parts)


def _statistic(spec, path, top):
    _object(spec, path, {"name", "band", "series"})
    out = {"name": _field(spec, "name", path), "band": _floats(spec, "band", path)}
    out["series"] = _field(spec, "series", path, "solution")
    return out, _build(path, StatisticSpec, **{**out, "band": tuple(out["band"])})


def _tolerances(spec, path, top):
    out = dict(_MODES[top["mode"]][2])
    for key in _object(spec, path, out):
        value = out[key] = _float(spec, key, path)
        # outside these ranges the verdict is fixed before the run: exit 1, not 2
        if key == "min_pass_fraction" and not 0.0 < value <= 1.0:
            raise ConfigError(f"{path}.{key}", f"must lie in (0, 1], got {value!r}")
        if value <= 0.0:
            raise ConfigError(f"{path}.{key}", f"must be positive, got {value!r}")
    return out, None


_SECTIONS = {
    "kernel": _kernel,
    "forcing": _forcing,
    "scaling": lambda spec, path, top: _named(spec, path, catalogue_entry),
    "nonlinearity": lambda spec, path, top: _named(spec, path, make_nonlinearity),
    "tail": _tail,
    "phi": lambda spec, path, top: _named(spec, path, make_phi),
    "statistic": _statistic,
    "tolerances": _tolerances,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The normalized document plus the objects built from it (None where
    the config has no such section, as for every mode that does not read it).

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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Check, normalize and build every section of ``raw`` in one pass."""
        mode = _choice(_object(raw, "config"), "mode", "config", MODES)
        required, optional, _ = _MODES[mode]
        for key in raw:
            if key not in _SETTINGS + required + optional:
                raise ConfigError(f"config.{key}", f"not a field of mode {mode!r}")
        for key in required:
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
        if data["log_domain"] and mode in _PLAIN_MODES:
            raise ConfigError("config.log_domain", f"mode {mode!r} runs in plain doubles only")
        defaults = {"tolerances": {}}
        if mode == "verify-phi":
            defaults["phi"] = {"name": "power", "params": {"p": 2.0}}
        objects = {}
        for key, parse in _SECTIONS.items():
            spec = raw.get(key, defaults.get(key, _MISSING))
            if spec is not _MISSING:
                data[key], obj = parse(spec, f"config.{key}", data)
                if obj is not None:
                    objects[key] = obj
        entry = objects.get("scaling")
        if entry is not None:
            floor = (max(2, entry.min_index + 1) if mode in _REPRESENTATION_MODES
                     else entry.min_index)
            if data["horizon"] < floor:
                raise ConfigError("config.horizon", f"must be >= {floor} for scaling {entry.name!r}")
            # a time average starts at index 1, where a later scale has no value
            if entry.min_index > 1 and (mode == "verify-ergodic" or (
                    mode == "ensemble" and objects["statistic"].name == "cesaro_limit")):
                raise ConfigError("config.scaling", f"{entry.name!r} starts at index "
                                  f"{entry.min_index}; a time average starts at index 1")
        if "k_grid" in raw:
            data["k_grid"] = _floats(raw, "k_grid", "config")
            if not data["k_grid"]:
                raise ConfigError("config.k_grid", "must be a nonempty list")
            _each(data, "k_grid", "config", lambda k: k > 0.0, "must be positive")
        # a period is at least 2 and at most the longest one extraction reads
        # from x/a on the scale's indices up to the horizon, and a crossing
        # outside the grid is never bracketed: either expectation would
        # decide its verdict before the run
        if raw.get("expected_period") is not None:
            data["expected_period"] = _int(raw, "expected_period", "config", minimum=2)
            values = data["horizon"] + 1 - entry.min_index
            longest = max(2, int(values * _MAX_PERIOD_FRACTION))
            if data["expected_period"] > longest:
                raise ConfigError("config.expected_period", f"must be <= {longest}, the "
                                  f"longest period read from {values} values of x/a")
        if "expected_crossing" in raw:
            data["expected_crossing"] = _float(raw, "expected_crossing", "config")
            grid = data["k_grid"]
            if not min(grid) <= data["expected_crossing"] <= max(grid):
                raise ConfigError("config.expected_crossing",
                                  f"must lie in the k_grid range [{min(grid):g}, {max(grid):g}]")
        if mode == "spectrum":
            data["lambda_grid"] = _floats(raw, "lambda_grid", "config", [0.0, 0.25, 0.5, 0.75, 1.0])
            _each(data, "lambda_grid", "config", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
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
    verdict's evidence lives in ``statistics`` or in the ``.npy`` series
    files listed in ``series``.  Re-running the echoed config reproduces
    all statistics bitwise; the wall clock is informational only.
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
