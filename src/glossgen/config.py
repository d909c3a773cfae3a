"""Run configuration: model dimensions, trainer settings, data locations.

Config files are plain "section.key = value" lines with '#' comments; every
field of the three dataclasses is addressable, and CLI overrides use the same
keys. A sha256 digest of the resolved config ties artifacts to their settings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields, replace

from .data import SPECIALS, json_text

# kind -> (tasks in scoring order, hierarchical). A hierarchical kind re-runs
# the first task's stack beneath the last task's. A task with a lower stack
# decodes last, which fixes the tape and with it the order in which
# gradients are summed.
KINDS = {"single": (("definition",), False),
         "parallel": (("definition", "usage"), False),
         "hier-du": (("definition", "usage"), True),
         "hier-ud": (("usage", "definition"), True)}
S0_VARIANTS = ("zeros", "word", "context", "both")  # decoder initial-state sources


class ConfigError(Exception):
    pass


@dataclass
class ModelConfig:
    kind: str = "single"
    d_w: int = 300            # word embedding width
    d_h: int = 150            # encoder hidden width per direction
    d_s: int = 300            # decoder hidden width
    d_attn: int = 300
    n_decoder_layers: int = 2
    d_e: int = 1024           # contextual feature width
    char_on: bool = True
    contextual_on: bool = True
    gate_on: bool = True
    s0_variant: str = "both"  # zeros | word | context | both
    max_context_len: int = 64
    temperature: float = 0.05
    max_gen_len: int = 32


@dataclass
class TrainConfig:
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    patience: int = 5
    max_epochs: int = 100
    seed: int = 0
    pretrain_epochs: int = 5


@dataclass
class DataConfig:
    corpus: str = ""           # empty -> bundled mini corpus
    lm_corpus: str = ""        # empty -> bundled sentence file
    embeddings_file: str = ""  # empty -> seeded random table
    contextual_file: str = ""  # empty -> deterministic provider
    vocab_size: int = 65000
    split_ratios: tuple = (0.8, 0.1, 0.1)


@dataclass
class Config:
    model: ModelConfig
    train: TrainConfig
    data: DataConfig


def default_config() -> Config:
    return Config(model=ModelConfig(), train=TrainConfig(), data=DataConfig())


def _coerce(raw: str, current):
    if isinstance(current, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(float(x) for x in raw.split(","))
    return raw.strip()


def _set(cfg: Config, key: str, value, convert) -> Config:
    """``cfg`` with the field ``key`` ("section.field") set to ``convert(value,
    current value)``. An unknown key, and a value ``convert`` refuses with a
    ValueError, are a ConfigError that names the key."""
    if key not in {f"{s.name}.{f.name}" for s in fields(Config)
                   for f in fields(getattr(cfg, s.name))}:
        raise ConfigError(f"unknown config key {key!r}")
    section_name, field_name = key.split(".")
    section = getattr(cfg, section_name)
    try:
        value = convert(value, getattr(section, field_name))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return replace(cfg, **{section_name: replace(section, **{field_name: value})})


def set_key(cfg: Config, key: str, raw: str) -> Config:
    """Apply one "section.field" assignment, returning an updated config."""
    return _set(cfg, key, raw, _coerce)


def load_config_file(path) -> Config:
    cfg = default_config()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                cfg = apply_overrides(cfg, [text])
            except ConfigError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from None
    return cfg


def apply_overrides(cfg: Config, overrides) -> Config:
    """Apply "key = value" items (``--override`` flags, config-file lines) in order."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"expected key = value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        cfg = set_key(cfg, key, raw)
    return cfg


def validate(cfg: Config) -> None:
    """Reject out-of-range values; comparisons are written so NaN fails."""
    m = cfg.model
    for name in ("d_w", "d_h", "d_s", "d_attn", "d_e", "n_decoder_layers",
                 "max_context_len", "max_gen_len"):
        if not getattr(m, name) > 0:
            raise ConfigError(f"model.{name} must be positive")
    if m.kind not in KINDS:
        raise ConfigError(f"model.kind must be one of {tuple(KINDS)}, got {m.kind!r}")
    if m.s0_variant not in S0_VARIANTS:
        raise ConfigError(f"model.s0_variant {m.s0_variant!r} unknown")
    if not 0 < m.temperature < math.inf:
        raise ConfigError("model.temperature must be positive and finite")
    t = cfg.train
    if not (t.batch_size > 0 and t.max_epochs >= 0 and t.patience >= 0):
        raise ConfigError("train.batch_size/max_epochs/patience out of range")
    for name in ("seed", "pretrain_epochs"):
        if not getattr(t, name) >= 0:
            raise ConfigError(f"train.{name} must be non-negative")
    if not (0 <= t.beta1 < 1 and 0 <= t.beta2 < 1):
        raise ConfigError("train.beta1/beta2 must lie in [0, 1)")
    for name in ("lr", "eps", "clip_norm"):
        if not 0 < getattr(t, name) < math.inf:
            raise ConfigError(f"train.{name} must be positive and finite")
    d = cfg.data
    if not d.vocab_size >= len(SPECIALS):
        raise ConfigError(f"data.vocab_size must be at least {len(SPECIALS)}")
    for name in ("corpus", "lm_corpus", "embeddings_file", "contextual_file"):
        if "\x00" in getattr(d, name):
            raise ConfigError(f"data.{name} contains a NUL byte")
    if len(d.split_ratios) != 3:
        raise ConfigError(
            f"data.split_ratios {d.split_ratios} must have 3 parts (train, valid, test)")
    if not (all(r >= 0 for r in d.split_ratios) and abs(sum(d.split_ratios) - 1.0) <= 1e-9):
        raise ConfigError(
            f"data.split_ratios {d.split_ratios} must be non-negative and sum to 1")


def _typed(value, current):
    """A value read back from JSON, checked against the type of ``current``."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if isinstance(current, bool):
        ok = isinstance(value, bool)
    elif isinstance(current, int):
        ok = number(value) and isinstance(value, int)
    elif isinstance(current, float):
        ok = number(value)
    elif isinstance(current, tuple):
        ok = isinstance(value, list) and all(map(number, value))
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ValueError(f"expected {type(current).__name__}, got {value!r}")
    return tuple(value) if isinstance(current, tuple) else value


def config_from_dict(payload) -> Config:
    """Rebuild a config from its ``asdict`` form read back from a JSON file.

    Each section must be an object and each value must have its field's type,
    else a ConfigError names the key; absent fields take their defaults.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config must be an object")
    cfg = default_config()
    for section in fields(Config):
        values = payload.get(section.name)
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section.name!r} missing or not an object")
        for key, value in values.items():
            # "data.stopwords": an unread field that older checkpoints still carry
            if f"{section.name}.{key}" != "data.stopwords":
                cfg = _set(cfg, f"{section.name}.{key}", value, _typed)
    return cfg


def config_to_text(cfg: Config) -> str:
    lines = []
    for section_name in ("model", "train", "data"):
        section = getattr(cfg, section_name)
        for f in fields(section):
            value = getattr(section, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section_name}.{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: Config) -> str:
    payload = json_text(asdict(cfg)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
