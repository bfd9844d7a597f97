"""Flat key=value run configuration with section prefixes.

A config file is UTF-8 text, one ``section.key = value`` pair per line;
blank lines and ``#`` comments are ignored.  Every key has a typed
default below, printable with the ``pacgibbs print-config`` command;
unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError

# Defaults double as the type schema: values are parsed to the type of
# the default (bools accept true/false/1/0/yes/no).
DEFAULTS: dict[str, object] = {
    "run.backend": "gmm",  # gmm | hmm
    "run.mode": "supervised",  # supervised | semi
    "run.output_dir": "out",
    "run.positive_label": "",  # empty: second class name of a 2-class file
    "data.path": "",
    "data.delimiter": ",",
    "data.label_column": -1,
    "data.header": False,
    "data.alphabet": "",  # empty: infer from the file
    "data.n_partitions": 20,
    "data.unlabeled_fraction": 0.25,
    "data.split_seed": 0,
    "gmm.components": 4,
    "hmm.states": 10,
    "hmm.symbols": 22,  # 0: use the alphabet size
    "trainer.gamma_u": 0.5,
    "trainer.gamma_c": 0.05,
    "trainer.max_outer_iters": 50,
    "trainer.restarts": 10,
    "trainer.init_range": 20.0,
    "trainer.u0_fraction": 0.5,
    "trainer.delta": 0.05,
    "trainer.c_init": 1.0,
    "trainer.c_update": "gradient",  # gradient | cross_validation | fixed
    "trainer.convergence_tol": 1e-4,
    "trainer.seed": 0,
    "tilt.n_draws": 5,
    "tilt.max_attempts_factor": 200,
    "predict.n": 5,
    "benchmark.learning_curve_sizes": "",  # comma-separated labeled-set sizes
}

_ENUMS = {
    "run.backend": ("gmm", "hmm"),
    "run.mode": ("supervised", "semi"),
    "trainer.c_update": ("gradient", "cross_validation", "fixed"),
}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_value(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass
class RunConfig:
    """Validated run settings; ``values`` maps every key to a typed value."""

    values: dict[str, object] = field(default_factory=lambda: dict(DEFAULTS))

    def __getitem__(self, key: str):
        return self.values[key]

    def set(self, key: str, raw: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = _parse_value(key, raw)

    def validate(self, require_data: bool = True):
        for key, allowed in _ENUMS.items():
            if self.values[key] not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {self.values[key]!r}")
        if not self.values["data.delimiter"]:
            raise ConfigError("data.delimiter must not be empty")
        for key in ("gmm.components", "hmm.states", "predict.n"):
            if self.values[key] < 1:
                raise ConfigError(f"{key} must be at least 1, got {self.values[key]}")
        # A learning-curve point trains on at least one example of each class.
        if any(size < 2 for size in self.learning_curve_sizes()):
            raise ConfigError(
                "benchmark.learning_curve_sizes entries must be at least 2, "
                f"got {self.values['benchmark.learning_curve_sizes']!r}"
            )
        if require_data:
            path = self.values["data.path"]
            if not path:
                raise ConfigError("data.path is required")
            if not os.path.exists(path):
                raise ConfigError(f"data.path does not exist: {path}")

    def dump(self) -> str:
        return "\n".join(f"{k} = {self._format(v)}" for k, v in sorted(self.values.items()))

    @staticmethod
    def _format(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    def learning_curve_sizes(self) -> list[int]:
        raw = str(self.values["benchmark.learning_curve_sizes"]).strip()
        if not raw:
            return []
        try:
            return [int(s) for s in raw.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(
                f"benchmark.learning_curve_sizes must be comma-separated ints, got {raw!r}"
            ) from None


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a config file (optional) and apply ``key=value`` overrides."""
    cfg = RunConfig()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, raw = stripped.partition("=")
                try:
                    cfg.set(key.strip(), raw)
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg.set(key.strip(), raw)
    return cfg
