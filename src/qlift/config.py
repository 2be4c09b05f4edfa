"""Experiment configuration: defaults, file parsing, and validation.

The file format is flat INI-style text: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Unknown sections or keys are rejected with the file
name and line number, as are unparseable values and a key set twice.
"""

from dataclasses import dataclass, fields

from .predictor import TrainSettings
from .rates import check_correlation, cooperativity, rate_table, wm_scheme_name
from .traces import check_count, check_efficiency, check_finite, check_positive


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
        """Check every key by the rules in qlift.traces, raising ConfigError."""
        key = "config key '{}'".format
        try:
            for name in ("gamma", "g", "kappa", "dt", "t_final", "tau"):
                check_positive(getattr(self, name), key(name))
            check_efficiency(self.eta, key("eta"))
            for e in self.eta_list:
                check_efficiency(e, key("eta_list") + " entries")
            if len({wm_scheme_name(e) for e in self.eta_list}) < len(self.eta_list):
                raise ValueError("config key 'eta_list' entries must be distinct to 6 significant "
                                 f"digits (they name the feedback schemes), got {self.eta_list!r}")
            check_correlation(self.r, key("r"))
            check_finite(self.phi_lo, key("phi_lo"))
            for name, least in (("n_trajectories", 1), ("window", 1), ("seed", 0)):
                check_count(getattr(self, name), key(name), least)
            self.train_settings()  # the [predictor] keys, named as its fields
            self.rate_table()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def train_settings(self) -> TrainSettings:
        """The TrainSettings of the keys named as its fields, which it checks."""
        return TrainSettings(**{f.name: getattr(self, f.name) for f in fields(TrainSettings)})

    def rate_table(self):
        """The cooperativity and the closed-form rate of every scheme, by name;
        ValueError naming the keys that set them where one is not a finite positive
        float, as when it overflows or underflows (gamma = 1e-200, g = 1e200)."""
        try:
            c = cooperativity(self.g, self.kappa, self.gamma)
            return c, rate_table(self.gamma, etas=self.eta_list, c=c, r=self.r)
        except ValueError as exc:
            raise ValueError("config keys 'gamma', 'eta_list', 'g', 'kappa' and 'r' give no "
                             f"finite positive closed-form rates: {exc}") from None

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
