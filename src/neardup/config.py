"""Pipeline configuration: JSON in, validated dataclasses out.

Every field has a default, so {} is a complete config. load -> save -> load
is stable. A config names no files: those come from the command line.
"""

import json
from dataclasses import asdict, dataclass, field

from .errors import DataError


@dataclass
class LshSettings:
    d: int = 256
    m: int = 144
    term_bits: int = 12
    selected_bits: list = None  # None: choose by variance over select_sample rows
    select_sample: int = 10000

    def validate(self):
        if self.d <= 0 or self.d % 8:
            raise DataError(f"lsh.d must be a positive multiple of 8, got {self.d}")
        if not 1 <= self.term_bits <= 24:
            raise DataError(f"lsh.term_bits must be in [1, 24], got {self.term_bits}")
        if self.m <= 0 or self.m % self.term_bits:
            raise DataError(f"lsh.m must be a positive multiple of term_bits, got {self.m}")
        if self.selected_bits is not None:
            if len(self.selected_bits) != self.m:
                raise DataError("lsh.selected_bits length must equal lsh.m")
        if self.select_sample < 1:
            raise DataError("lsh.select_sample must be >= 1")


@dataclass
class SearchSettings:
    k: int = 20
    min_overlap: int = 2

    def validate(self):
        if self.k < 1:
            raise DataError(f"search.k must be >= 1, got {self.k}")
        if self.min_overlap < 1:
            raise DataError(f"search.min_overlap must be >= 1, got {self.min_overlap}")


@dataclass
class ClassifierSettings:
    threshold: float = 0.9  # the score an edge, a cut or a head match needs
    hidden: list = field(default_factory=lambda: [512, 256, 64])
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 256
    epochs: int = 5

    def validate(self):
        if not 0.0 < self.threshold < 1.0:
            raise DataError(f"classifier.threshold must be in (0, 1), got {self.threshold}")
        if not self.hidden or any(int(h) < 1 for h in self.hidden):
            raise DataError("classifier.hidden must be positive layer widths")
        if max(self.hidden) >= 2**32:  # a model file holds each layer dimension as a u32
            raise DataError(f"classifier.hidden width {max(self.hidden)} is over the 2^32 - 1 a model file can hold")
        for name in ("learning_rate", "beta1", "beta2", "eps"):
            if getattr(self, name) <= 0:
                raise DataError(f"classifier.{name} must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise DataError("classifier.batch_size and epochs must be >= 1")


@dataclass
class AugmentationSettings:
    k_aug: int = 3

    def validate(self):
        if self.k_aug < 0:
            raise DataError(f"augmentation.k_aug must be >= 0, got {self.k_aug}")


@dataclass
class PipelineConfig:
    seed: int = 42
    lsh: LshSettings = field(default_factory=LshSettings)
    search: SearchSettings = field(default_factory=SearchSettings)
    classifier: ClassifierSettings = field(default_factory=ClassifierSettings)
    augmentation: AugmentationSettings = field(default_factory=AugmentationSettings)

    def validate(self) -> "PipelineConfig":
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise DataError(f"seed must be >= 0, got {self.seed}")
        for section in (self.lsh, self.search, self.classifier, self.augmentation):
            section.validate()
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        if not isinstance(payload, dict):
            raise DataError("config root must be a JSON object")
        known = {"seed", "lsh", "search", "classifier", "augmentation"}
        unknown = set(payload) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        seed = payload.get("seed", 42)
        _check_type("seed", seed, int)
        cfg = cls(
            seed=seed,
            lsh=_section(LshSettings, "lsh", payload.get("lsh")),
            search=_section(SearchSettings, "search", payload.get("search")),
            classifier=_section(ClassifierSettings, "classifier", payload.get("classifier")),
            augmentation=_section(AugmentationSettings, "augmentation", payload.get("augmentation")),
        )
        return cfg.validate()

    def save(self, path) -> None:
        from .util import atomic_write_json

        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
                raise DataError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _section(cls, key: str, payload):
    if payload is None:
        return cls()
    if not isinstance(payload, dict):
        raise DataError(f"config section for {cls.__name__} must be an object")
    fields = cls.__dataclass_fields__
    unknown = set(payload) - set(fields)
    if unknown:
        raise DataError(f"unknown keys in {cls.__name__}: {sorted(unknown)}")
    for name, value in payload.items():
        if value is None and fields[name].default is None:
            continue  # an optional field left unset
        _check_type(f"{key}.{name}", value, fields[name].type)
    return cls(**payload)


# Integers reach NumPy as its default int64, which holds values below 2^63.
INT_LIMIT = 2**63


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(name: str, value, kind) -> None:
    """JSON values must match the field's declared type: int, float (an int
    is accepted), str, or list (of ints). An int must fit in int64."""
    if kind is int:
        ok = _is_int(value)
    elif kind is float:
        ok = _is_int(value) or isinstance(value, float)
    elif kind is list:
        ok = isinstance(value, list) and all(_is_int(v) for v in value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        expected = "list of integers" if kind is list else kind.__name__
        raise DataError(f"config value {name} must be {expected}, got {value!r}")
    values = value if kind is list else [value]
    if any(_is_int(v) and not -INT_LIMIT <= v < INT_LIMIT for v in values):
        raise DataError(f"config value {name} must lie in [-2^63, 2^63), got {value!r}")
