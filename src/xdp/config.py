"""Experiment configuration: parsing, defaults, validation."""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dpcore import DirichletPolynomial
from .exact import as_fraction
from .precision import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .zeros import Rectangle

DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_FORMATS = ("csv", "json")


def parse_schedule(text: str):
    """The n schedule from comma-separated integers, strictly increasing
    and positive: '1,2,4' gives (1, 2, 4)."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty schedule")
    try:
        sched = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"schedule entries must be integers: {text!r}") from None
    _check_schedule(sched)
    return sched


def _check_schedule(sched):
    if not sched:
        raise ValueError("empty schedule")
    if sched[0] < 1 or any(a >= b for a, b in zip(sched, sched[1:])):
        raise ValueError(f"schedule must be strictly increasing positive: {sched}")


def geometric_schedule(n_max: int):
    """1, 2, 4, ... capped by (and always ending at) n_max."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out = []
    k = 1
    while k < n_max:
        out.append(k)
        k *= 2
    out.append(n_max)
    return tuple(out)


def parse_rect(text: str) -> Rectangle:
    """Rectangle from 'x0,x1,y0,y1', each bound read as an exact number."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"rectangle needs 4 comma-separated bounds: {text!r}")
    return Rectangle(*(as_fraction(p) for p in parts))


def _fraction(name: str, value) -> Fraction:
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a number, got {value!r}: {exc}") from None


def _int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _schedule(value) -> tuple:
    if isinstance(value, str):
        return parse_schedule(value)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"schedule must be a list of integers, got {value!r}")
    if any(isinstance(n, bool) or not isinstance(n, int) for n in value):
        raise ValueError(f"schedule entries must be integers: {value!r}")
    sched = tuple(value)
    _check_schedule(sched)
    return sched


def _rectangle(value) -> Rectangle:
    if isinstance(value, Rectangle):
        return value
    if isinstance(value, str):
        return parse_rect(value)
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ValueError(f"rect must be 'x0,x1,y0,y1' or four numbers, got {value!r}")
    return Rectangle(*(_fraction("rect", v) for v in value))


@dataclass(frozen=True)
class ExperimentConfig:
    poly: str
    r: Fraction = Fraction(0)
    n_schedule: tuple = DEFAULT_SCHEDULE
    precision_bits: int = DEFAULT_PRECISION_BITS
    rect: Optional[Rectangle] = None
    T: Optional[Fraction] = None
    output: Optional[str] = None        # written by the CLI, not by the library
    format: str = "csv"
    cache_dir: Optional[str] = None
    line_tol: Fraction = Fraction(1, 10 ** 9)

    def __post_init__(self):
        if not isinstance(self.poly, str) or not self.poly:
            raise ValueError(f"poly must be polynomial text, got {self.poly!r}")
        object.__setattr__(self, "r", _fraction("r", self.r))
        object.__setattr__(self, "n_schedule", _schedule(self.n_schedule))
        object.__setattr__(self, "precision_bits",
                           _int("precision_bits", self.precision_bits))
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(
                f"precision_bits must be >= {MIN_PRECISION_BITS}, got {self.precision_bits}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.rect is not None:
            object.__setattr__(self, "rect", _rectangle(self.rect))
        if self.T is not None:
            object.__setattr__(self, "T", _fraction("T", self.T))
            if self.T <= 0:
                raise ValueError(f"T must be > 0, got {self.T}")
        for name in ("output", "cache_dir"):
            path = getattr(self, name)
            if path is not None and not isinstance(path, str):
                raise ValueError(f"{name} must be a path, got {path!r}")
        object.__setattr__(self, "line_tol", _fraction("line_tol", self.line_tol))
        if self.line_tol < 0:
            raise ValueError(f"line_tol must be >= 0, got {self.line_tol}")

    def polynomial(self) -> DirichletPolynomial:
        return DirichletPolynomial.parse(self.poly)


_JSON_KEYS = {"poly", "r", "schedule", "n_max", "precision_bits", "rect", "T",
              "output", "format", "cache_dir", "line_tol"}


def config_from_json(obj: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Config out of a JSON-shaped dict; overrides (CLI flags) win key-by-key.
    ``ExperimentConfig`` checks and normalizes every value."""
    merged = dict(obj)
    unknown = set(merged) - _JSON_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    if merged.get("poly") is None:
        raise ValueError("config needs a polynomial ('poly')")
    kwargs = {key: val for key, val in merged.items()
              if val is not None and key not in ("schedule", "n_max")}
    if merged.get("schedule") is not None:
        kwargs["n_schedule"] = merged["schedule"]
    elif merged.get("n_max") is not None:
        kwargs["n_schedule"] = geometric_schedule(_int("n_max", merged["n_max"]))
    return ExperimentConfig(**kwargs)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Config from a JSON file that holds one object, as ``config_from_json``
    reads it: overrides (CLI flags) win key by key."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return config_from_json(obj, overrides)
