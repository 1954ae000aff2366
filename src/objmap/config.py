"""The one configuration of the mapping loop: every run-wide knob, defined once.

Association, update masks, densification, Gaussian training and quadric
refinement each read their values from the `PipelineConfig` they are given;
a library call made without one uses `PipelineConfig()`.  A threshold that
every run uses at one value is instead a constant of the module that reads
it (`association.IOU_GATE`, `pipeline.QUADRIC_MIN_OBS`).  A config refuses a
bad value where it enters: when the config is built (`PipelineConfig(...)`,
`from_dict`, `from_json`, `dataclasses.replace`) or a field is assigned.  So
every layer reads only accepted values and checks none itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import InvalidParameterError

MODES = ("iou", "qd", "qd+iou")  # association modes

_AT_LEAST_0 = ("at least 0", lambda v: v >= 0)
_UNIT = ("in [0, 1]", lambda v: 0 <= v <= 1)

# allowed values of assoc_mode and the numeric PipelineConfig fields; numbers
# not listed (learning rates, loss weight, distances, counts) must be at least 0
_RANGES = {
    "assoc_mode": (f"one of {MODES}", lambda v: v in MODES),
    **dict.fromkeys(("qd_accept", "theta_alpha"), _UNIT),
    "tau": ("above 0", lambda v: v > 0),
    **dict.fromkeys(("stride", "workers"), ("at least 1", lambda v: v >= 1)),
    "lr_mean": ("0 (Gaussian means are fixed at spawn)", lambda v: v == 0),
}


@dataclass
class PipelineConfig:
    """Every tunable of the mapping loop; serializable as flat JSON."""

    # association
    assoc_mode: str = "qd+iou"  # one of MODES
    qd_accept: float = 0.6
    tau: float = 1.0
    merge_duplicate_raw: float = 0.1
    # update masks
    theta_alpha: float = 0.9  # accumulation below this flags missing geometry
    theta_d: float = 0.1      # meters
    theta_c: float = 0.1      # max per-channel color error
    include_background: bool = False
    # gaussians
    enable_gaussians: bool = True
    stride: int = 4
    gaussian_iters: int = 30
    lam: float = 0.5
    # learning rates of Gaussian training; a group whose rate is 0 stays fixed
    lr_mean: float = 0.0  # only 0 is accepted (see _RANGES)
    lr_color: float = 0.04
    lr_opacity: float = 0.02
    train_all: bool = False
    # quadric optimization
    quadric_every: int = 10
    quadric_iters: int = 60
    quadric_final_iters: int = 200
    # runtime: accepted (at least 1) and has no effect; mapping runs on the
    # calling thread
    workers: int = 1

    def __setattr__(self, name: str, value) -> None:
        """Store `value` as field `name`, or raise InvalidParameterError naming it.

        The value must have the field's type (a bool is no int, an int is a
        float), a float must be finite (an int too large for a float is not),
        and `assoc_mode` and every number must lie in its `_RANGES` entry.  A
        refused value leaves the field as it was.  `__init__` assigns through
        here too, in field order, so no config holds a refused value.
        """
        f = self.__dataclass_fields__.get(name)
        if f is None:
            raise InvalidParameterError(f"unknown config key {name!r}")
        want = type(f.default)
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
            raise InvalidParameterError(
                f"config key {name!r} must be {want.__name__}, got {value!r}"
            )
        if want is float:
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise InvalidParameterError(
                    f"config key {name!r} must be finite, got an int too large for a float"
                ) from None
            if not finite:
                raise InvalidParameterError(f"config key {name!r} must be finite, got {value!r}")
        if want is not bool:  # the numbers and assoc_mode
            text, ok = _RANGES.get(name, _AT_LEAST_0)
            if not ok(value):
                raise InvalidParameterError(f"config key {name!r} must be {text}, got {value!r}")
        object.__setattr__(self, name, value)

    def to_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, ValueError) as e:  # ValueError: bad JSON, or an int too long to parse
            raise InvalidParameterError(f"cannot read config {path}: {e}") from e
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Config from a flat dict.

        Raises InvalidParameterError on unknown keys, then on the first value
        refused in field order.
        """
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)
