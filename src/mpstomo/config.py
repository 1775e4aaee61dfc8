"""Experiment configuration and the flat key = value config format.

Config files are plain text, one ``key = value`` per line, with dotted
prefixes for nested sections (``train.lambda0 = 0.01``, ``target.kind = w``).
Blank lines and comments are ignored; a comment starts at a ``#`` that
begins a line or follows whitespace, so a value (a path) may hold a ``#``.
Unknown keys are an error, except ``source``: the run annotation a run
directory's ``run.cfg`` ends with, so that file loads back as a config.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import FormatError, ParameterError, utf8_lines
from .states import TargetSpec

__all__ = [
    "ExperimentConfig",
    "TrainConfig",
    "build_experiment_config",
    "config_to_text",
    "load_config",
    "nonfinite_field",
    "parse_config_text",
    "scalar_fields",
]


@cache
def scalar_fields(cls) -> dict[str, type]:
    """Scalar fields of a dataclass in declaration order, each with the type
    its text form parses to (``X | None`` parses as X).  Fields of any other
    type (nested configs, in-memory targets) are left out."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        typ = next((a for a in get_args(hints[f.name]) if a is not type(None)), hints[f.name])
        if typ in (bool, int, float, str):
            out[f.name] = typ
    return out


def nonfinite_field(obj) -> tuple[str, float] | None:
    """The first float field of a dataclass instance that holds a value
    that is not finite, as (name, value); None if there is none."""
    for name, typ in scalar_fields(type(obj)).items():
        value = getattr(obj, name)
        if typ is float and value is not None and not math.isfinite(value):
            return name, value
    return None


def _require_finite(cfg) -> None:
    bad = nonfinite_field(cfg)
    if bad is not None:
        raise ParameterError(f"{bad[0]} must be finite, got {bad[1]!r}")


@dataclass
class TrainConfig:
    """Optimizer hyperparameters for the two-site sweeps.

    ``eta`` is the fixed relative SVD truncation floor.  ``eta_noise``
    scales the noise-scaled threshold each bond also prunes at (see
    ``training._bond_eta``); it is on by default, so that bond dimensions
    settle at the target's rank instead of absorbing shot noise.  Set
    eta_noise = 0 to truncate at the fixed floor only.
    """

    lambda0: float = 0.01
    lambda_decay: float = 0.9
    step_size: float = 0.05
    sweeps_per_stage: int = 20
    d_cap: int = 32
    eta: float = 1e-7
    convergence_tol: float = 1e-4
    eta_noise: float = 1.0

    def validate(self) -> None:
        _require_finite(self)
        if self.lambda0 < 0:
            raise ParameterError("lambda0 must be finite and >= 0")
        if not 0.0 < self.lambda_decay < 1.0:
            raise ParameterError("lambda_decay must lie in (0, 1)")
        if self.step_size < 0:
            raise ParameterError("step_size must be >= 0")
        if self.sweeps_per_stage < 1:
            raise ParameterError("sweeps_per_stage must be >= 1")
        if self.d_cap < 1 or self.eta < 0:
            raise ParameterError("need d_cap >= 1 and eta >= 0")
        if self.convergence_tol <= 0:
            raise ParameterError("convergence_tol must be > 0")
        if self.eta_noise < 0:
            raise ParameterError("eta_noise must be >= 0")


@dataclass
class ExperimentConfig:
    """Everything one tomography run needs; see the config file keys below.

    ``target`` may be a TargetSpec, a path to a serialized state, or an
    in-memory state (used by virtual tomography).
    """

    target: object = None
    fidelity_threshold: float = 0.995
    batch_initial: int = 50
    batch_growth: float = 1.5
    batch_max: int = 0  # 0 = uncapped; capped batches give the -1 tail slope of r_succ
    max_replicas: int = 10000
    noise_epsilon: float = 0.0
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    output_dir: str | None = None
    blind: bool = False
    stop_on_threshold: bool = True
    c_estimate: float | None = None

    def validate(self) -> None:
        if self.target is None:
            raise ParameterError("no target configured")
        _require_finite(self)
        if not 0.0 < self.fidelity_threshold < 1.0:
            raise ParameterError("fidelity_threshold must lie in (0, 1)")
        if self.batch_initial < 1 or self.batch_growth < 1.0 or self.batch_max < 0:
            raise ParameterError("need batch_initial >= 1, batch_growth >= 1 and batch_max >= 0")
        if not 0.0 <= self.noise_epsilon <= 1.0:
            raise ParameterError("noise_epsilon must lie in [0, 1]")
        if self.c_estimate is not None and self.c_estimate <= 0:
            raise ParameterError("c_estimate must be positive when given")
        if self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed}")
        self.train.validate()
        if self.max_replicas < 1:
            raise ParameterError("no stages: max_replicas must be >= 1")


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(raw, typ, key):
    raw = raw.strip()
    try:
        if typ is bool:
            return _BOOL[raw.lower()]
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"config key {key!r}: cannot parse {raw!r}") from exc


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text, path="<config>") -> dict[str, str]:
    """Flat key -> raw string mapping from config text."""
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise FormatError(f"{path}: line {ln}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# config key prefix -> the dataclass whose scalar fields it holds
_SECTIONS = {"train.": TrainConfig, "target.": TargetSpec, "": ExperimentConfig}
_KEY_ALIASES = {"n_sites": "n"}  # TargetSpec.n_sites is written target.n


def _keys(cls) -> dict[str, tuple[str, type]]:
    """Config key (after its section prefix) -> (field name, value type)."""
    return {_KEY_ALIASES.get(name, name): (name, typ) for name, typ in scalar_fields(cls).items()}


def build_experiment_config(mapping, base=None) -> ExperimentConfig:
    """Apply a flat key mapping on top of ``base`` (or defaults).  Target
    fields update the TargetSpec that ``base`` holds; over any other target
    they must name at least target.kind and target.n."""
    cfg = replace(base) if base is not None else ExperimentConfig()
    cfg.train = replace(cfg.train)
    target_kv = {}
    target_path = None
    for key, raw in mapping.items():
        if key == "target.path":
            target_path = raw.strip()
            continue
        if key == "source":  # run annotation, not a setting
            continue
        prefix = next(p for p in _SECTIONS if key.startswith(p))
        cls = _SECTIONS[prefix]
        entry = _keys(cls).get(key[len(prefix) :])
        if entry is None:
            raise ParameterError(f"unknown config key {key!r}")
        name, typ = entry
        value = _coerce(raw, typ, key)
        if cls is TargetSpec:
            target_kv[name] = value
        else:
            setattr(cfg.train if cls is TrainConfig else cfg, name, value)
    if target_path is not None:
        if target_kv:
            raise ParameterError("give either target.path or target.* fields, not both")
        cfg.target = target_path
    elif isinstance(cfg.target, TargetSpec) and target_kv:
        cfg.target = replace(cfg.target, **target_kv)
    elif target_kv:
        if "kind" not in target_kv or "n_sites" not in target_kv:
            raise ParameterError("target needs at least target.kind and target.n")
        cfg.target = TargetSpec(**target_kv)
    return cfg


def load_config(path, base=None) -> ExperimentConfig:
    text = "".join(utf8_lines(path))
    pairs = parse_config_text(text, str(path))
    try:
        return build_experiment_config(pairs, base)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _section_pairs(prefix, obj) -> list[tuple[str, str]]:
    pairs = []
    for key, (name, typ) in _keys(type(obj)).items():
        value = getattr(obj, name)
        if value is None:
            continue
        if typ is bool:
            value = "true" if value else "false"
        elif typ is float:
            value = repr(float(value))
        pairs.append((f"{prefix}{key}", str(value)))
    return pairs


def config_to_text(cfg) -> str:
    """Serialize a config back to the flat format (target paths as-is).

    A value that would not read back as itself, such as a path holding a
    line break, edge whitespace or a ``#`` after whitespace, raises
    ParameterError.
    """
    pairs = []
    if isinstance(cfg.target, TargetSpec):
        pairs += _section_pairs("target.", cfg.target)
    elif isinstance(cfg.target, (str, Path)):
        pairs.append(("target.path", str(cfg.target)))
    pairs += _section_pairs("", cfg)
    pairs += _section_pairs("train.", cfg.train)
    lines = [f"{key} = {value}" for key, value in pairs]
    for (key, value), line in zip(pairs, lines):
        try:
            back = parse_config_text(line)
        except FormatError:
            back = None
        if back != {key: value}:
            raise ParameterError(
                f"config key {key!r}: {value!r} cannot be written to a config file"
            )
    return "\n".join(lines) + "\n"
