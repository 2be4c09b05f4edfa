"""Experiment configuration: defaults, file parsing, and validation.

The file format is flat INI-style text: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Unknown sections or keys are rejected with the file
name and line number, as are unparseable values and a key set twice.
"""

import math
from dataclasses import dataclass

from .predictor import TrainSettings
from .rates import check_correlation, wm_scheme_name


class ConfigError(ValueError):
    """Bad configuration input; the message carries file:line where known."""


@dataclass
class ExperimentConfig:
    # physics
    gamma: float = 0.02
    eta: float = 1.0
    eta_list: tuple = (0.5, 1.0)
    g: float = 0.92
    kappa: float = 92.0
    r: float = 0.54
    phi_lo: float = 0.0
    # integration
    dt: float = 0.05
    t_final: float = 300.0
    tau: float = 0.5
    # ensemble
    n_trajectories: int = 200
    seed: int = 7
    # predictor
    window: int = 5
    learning_rate: float = TrainSettings.learning_rate
    batch_size: int = TrainSettings.batch_size
    patience: int = TrainSettings.patience
    max_epochs: int = TrainSettings.max_epochs
    val_fraction: float = TrainSettings.val_fraction
    # output
    out_dir: str = "results"

    def validate(self) -> "ExperimentConfig":
        def positive(name):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"config key '{name}' must be positive, got {v!r}")

        for name in ("gamma", "g", "kappa", "dt", "t_final", "tau",
                     "learning_rate", "val_fraction"):
            positive(name)
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError(f"config key 'eta' must lie in (0, 1], got {self.eta!r}")
        for e in self.eta_list:
            if not (0.0 < e <= 1.0):
                raise ConfigError(f"config key 'eta_list' entries must lie in (0, 1], got {e!r}")
        if len({wm_scheme_name(e) for e in self.eta_list}) < len(self.eta_list):
            raise ConfigError("config key 'eta_list' entries must be distinct to 6 significant "
                              f"digits (they name the feedback schemes), got {self.eta_list!r}")
        try:
            check_correlation(self.r, "config key 'r'")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not math.isfinite(self.phi_lo):
            raise ConfigError(f"config key 'phi_lo' must be finite, got {self.phi_lo!r}")
        for name in ("n_trajectories", "window", "batch_size", "patience", "max_epochs"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v > 0):
                raise ConfigError(f"config key '{name}' must be a positive integer, got {v!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"config key 'seed' must be a non-negative integer, got {self.seed!r}")
        if self.val_fraction >= 1.0:
            raise ConfigError("config key 'val_fraction' must be below 1")
        return self

    def echo(self) -> str:
        """Human-readable dump of every resolved value, grouped by section."""
        lines = ["resolved configuration:"]
        for section, names in _SCHEMA.items():
            lines.append(f"  [{section}]")
            for name in names:
                lines.append(f"    {name} = {getattr(self, name)}")
        return "\n".join(lines)


_SCHEMA = {
    "physics": ("gamma", "eta", "eta_list", "g", "kappa", "r", "phi_lo"),
    "integration": ("dt", "t_final", "tau"),
    "ensemble": ("n_trajectories", "seed"),
    "predictor": ("window", "learning_rate", "batch_size", "patience",
                  "max_epochs", "val_fraction"),
    "output": ("out_dir",),
}


def _coerce(name: str, raw: str, where: str):
    kind = type(getattr(ExperimentConfig, name))
    raw = raw.strip()
    try:
        if kind is tuple:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key '{name}'") from None


def load_config(path) -> ExperimentConfig:
    """Parse a config file on top of the defaults and validate the result."""
    cfg = ExperimentConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from None

    section = None
    first_line = {}  # key -> line that set it; each key lives in one section
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{path}:{lineno}"
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"{where}: malformed section header {stripped!r}")
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{where}: unknown key '{key}' in [{section}]")
        if key in first_line:
            raise ConfigError(f"{where}: key '{key}' already set on line {first_line[key]}")
        first_line[key] = lineno
        setattr(cfg, key, _coerce(key, raw, where))
    return cfg.validate()
