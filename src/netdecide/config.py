"""Experiment configuration: one flat record covering every mode.

Every config is built by layering, later layers winning: the chosen
mode's defaults (the field defaults below, with ``MODE_DEFAULTS[mode]``
on top), then the values of a JSON config file, then explicit values
such as CLI flags. A config file is one object whose keys are field
names of :class:`ExperimentConfig`, with optional ``"mode"`` (default
``"decide"``) and ``"schema"`` keys; it may name only some fields. Agent
ids (``target_agent``) are 1-based here, matching every external
artifact.

``radius`` is the link radius of every network: unit-square lengths for
decide and follow, body lengths for mobile. Mobile runs record positions
at the ``snapshot_iters`` iterations, none by default.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# value check for each field, keyed by the field's annotation
_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": _is_real,
    "tuple[float, float]": lambda v: (isinstance(v, tuple) and len(v) == 2
                                      and all(_is_real(x) for x in v)),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(_is_int(x) for x in v),
}


@dataclass
class ExperimentConfig:
    mode: str = "decide"
    n_agents: int = 80
    n_models: int = 3
    dim: int = 2
    model_range: tuple[float, float] = (-1.0, 1.0)
    max_degree: int = 7
    radius: float = 0.22
    alpha: float = 0.04
    beta: float = 0.08
    smoothing: float = 0.005
    step_size: float = 0.01
    max_iters: int = 4000
    t_hold: int = 50
    n_trials: int = 100
    seed: int = 0
    sigma_v2_range: tuple[float, float] = (1e-3, 1e-2)
    reg_power_range: tuple[float, float] = (0.8, 1.2)
    equilibrium_break: bool = True
    early_stop: bool = True
    target_agent: int | None = None
    reassign_at: tuple[int, ...] = ()
    start_extent: float = 50.0
    max_speed: float = 1.0
    goal_gain: float = 0.6
    align_gain: float = 0.3
    repulse_gain: float = 0.1
    repulse_radius: float = 1.0
    snapshot_iters: tuple[int, ...] = ()

    # mode-specific defaults layered on top of the field defaults above;
    # mobile squared-distance thresholds scale with the coordinate range,
    # its link radius is in body lengths, and its degree cap opens up so
    # votes can cascade through the dense mid-flight crowd (a cap of 7
    # starves cross-group links once the swarm starts sorting itself
    # spatially)
    MODE_DEFAULTS = {
        "decide": {},
        "follow": {"n_models": 4, "target_agent": 10, "max_iters": 1400},
        "mobile": {"n_models": 4, "dim": 2, "model_range": (-50.0, 50.0),
                   "alpha": 100.0, "beta": 200.0, "max_iters": 1000,
                   "radius": 22.0, "max_degree": 80},
    }

    def __post_init__(self):
        # JSON and argparse hand tuple values over as lists
        for f in dataclasses.fields(self):
            if f.type.startswith("tuple") and isinstance(getattr(self, f.name), list):
                setattr(self, f.name, tuple(getattr(self, f.name)))

    @classmethod
    def for_mode(cls, mode, **overrides):
        """The defaults of ``mode`` with ``overrides`` on top."""
        # a list is not hashable, so test the type before the lookup
        if not isinstance(mode, str) or mode not in cls.MODE_DEFAULTS:
            raise ConfigError(f"unknown mode {mode!r}")
        unknown = set(overrides) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(mode=mode, **{**cls.MODE_DEFAULTS[mode], **overrides}).validate()

    def replace(self, **changes):
        return dataclasses.replace(self, **changes).validate()

    def validate(self):
        c = self
        def need(cond, msg):
            if not cond:
                raise ConfigError(msg)
        for f in dataclasses.fields(c):
            value = getattr(c, f.name)
            need(_TYPE_CHECKS[f.type](value),
                 f"{f.name} must be {f.type}, got {value!r}")
        need(c.mode in self.MODE_DEFAULTS, f"unknown mode {c.mode!r}")
        need(c.n_agents >= 1, "n_agents must be positive")
        need(1 <= c.n_models <= c.n_agents, "need 1 <= n_models <= n_agents "
             f"(n_models={c.n_models}, n_agents={c.n_agents})")
        need(c.dim >= 1, "dim must be positive")
        need(c.model_range[1] > c.model_range[0], "model_range must be increasing")
        need(c.max_degree >= 1, "max_degree must be at least 1")
        need(c.radius > 0, "radius must be positive")
        need(c.alpha > 0 and c.beta > 0, "proximity thresholds must be positive")
        need(0.0 <= c.smoothing <= 1.0, "smoothing must lie in [0, 1]")
        need(c.step_size > 0, "step_size must be positive")
        need(c.max_iters >= 1, "max_iters must be positive")
        need(1 <= c.t_hold <= c.max_iters, "need 1 <= t_hold <= max_iters "
             f"(t_hold={c.t_hold}, max_iters={c.max_iters})")
        need(c.n_trials >= 1, "n_trials must be positive")
        need(c.seed >= 0, "seed must be nonnegative")
        need(c.sigma_v2_range[0] > 0 and c.sigma_v2_range[1] >= c.sigma_v2_range[0],
             "sigma_v2_range must be positive and ordered")
        need(c.reg_power_range[0] > 0 and c.reg_power_range[1] >= c.reg_power_range[0],
             "reg_power_range must be positive and ordered")
        for name in ("reassign_at", "snapshot_iters"):
            need(all(1 <= i <= c.max_iters for i in getattr(c, name)),
                 f"{name} iterations must lie in [1, max_iters]")
        if c.mode == "follow":
            need(c.target_agent is not None, "follow mode needs target_agent")
            need(1 <= c.target_agent <= c.n_agents,
                 "target_agent must be a 1-based agent id")
        if c.mode == "mobile":
            need(c.dim == 2, "mobile mode requires dim == 2")
            need(c.start_extent > 0, "start_extent must be positive")
            need(c.max_speed > 0, "max_speed must be positive")
            # the speed rescale divides by max(|blend|, goal_gain)
            need(c.goal_gain > 0, "goal_gain must be positive")
            need(c.repulse_radius >= 0, "repulse_radius must be nonnegative")
        return self

    def to_json(self):
        doc = {"schema": "netdecide.config/1", **dataclasses.asdict(self)}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, values, **overrides):
        """A config from a JSON object's ``values``, layered on the defaults
        of its mode, with ``overrides`` (``mode`` included) on top."""
        if not isinstance(values, dict):
            raise ConfigError(f"config must be a JSON object, got {type(values).__name__}")
        values = {**values, **overrides}
        values.pop("schema", None)
        return cls.for_mode(values.pop("mode", "decide"), **values)

    @classmethod
    def from_json(cls, text, **overrides):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(values, **overrides)

    @classmethod
    def from_file(cls, path, **overrides):
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_json(text, **overrides)
