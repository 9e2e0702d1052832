"""Run configuration: flat ``key = value`` text with ``#`` comments."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields, replace

from .alignment import PoolConfig
from .encoding import GeneratorConfig
from .errors import ConfigError, ParameterError
from .fusion import FusionConfig
from .losses import LossWeights
from .neurons import FLOAT32_MAX, LIFParams

# dataclass attribute names that differ from their file key
_FILE_KEYS = {"lam": "lambda"}
_KEY_ALIASES = {v: k for k, v in _FILE_KEYS.items()}


# the component configs of one run; fusion is None for fusion = none
Components = namedtuple("Components", "lif comb_lif generator pool loss fusion")


@dataclass
class RunConfig:
    # architecture
    d: int = 1024
    t: int = 2
    generator: str = "repeat-ln"
    alignment: str = "biha"
    fusion: str = "scca"          # or "none" to train dual-stream only
    heads: int = 6
    alpha: float = 0.1
    ssa_scale: float = 0.125
    # neuron defaults
    tau: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 2.0
    comb_tau: float | None = None
    # objective
    lam: float = 0.5
    temperature: float = 0.01
    # optimization
    batch: int = 160
    epochs: int = 35
    lr_encoder: float = 5e-4
    lr_fusion: float = 5e-3
    lr_decay_epochs: int = 15
    lr_decay_factor: float = 0.1
    weight_decay: float = 0.01
    val_fraction: float = 0.1
    seed: int = 0

    def components(self) -> Components:
        """The component configs this run builds; each checks its own ranges."""
        try:
            lif = LIFParams(tau=self.tau, v_th=self.v_th, v_reset=self.v_reset,
                            surrogate_alpha=self.surrogate_alpha)
            comb_lif = lif if self.comb_tau is None else replace(
                lif, tau=self.comb_tau)
            return Components(
                lif, comb_lif,
                GeneratorConfig(variant=self.generator, t=self.t, d=self.d),
                PoolConfig(alpha=self.alpha, mode=self.alignment),
                LossWeights(lam=self.lam, temperature=self.temperature),
                None if self.fusion == "none"
                else FusionConfig(kind=self.fusion, h=self.heads))
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            # compared, not cast: the network runs in float32, and NaN fails
            if isinstance(value, float) and not abs(value) <= FLOAT32_MAX:
                key = _FILE_KEYS.get(f.name, f.name)
                raise ConfigError(
                    f"{key} must be finite and fit float32, got {value}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.batch < 2:
            raise ConfigError(f"batch must be >= 2, got {self.batch}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.lr_encoder > 0 and self.lr_fusion > 0):
            raise ConfigError("learning rates must be > 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}"
            )
        if not self.ssa_scale > 0:
            raise ConfigError(f"ssa_scale must be > 0, got {self.ssa_scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.components()
        return self

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            key = _FILE_KEYS.get(f.name, f.name)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value config text into a validated RunConfig."""
    field_types = {f.name: f.type for f in fields(RunConfig)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _KEY_ALIASES.get(key, key)
        if key not in field_types:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        updates[key] = _coerce(key, value, field_types[key], lineno)
    return replace(RunConfig(), **updates).validate()


def _coerce(key: str, value: str, ftype: str, lineno: int):
    ftype = str(ftype)
    try:
        if "int" in ftype:
            return int(value)
        if "float" in ftype:
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return value


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
