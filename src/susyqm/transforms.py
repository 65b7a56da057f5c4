"""Parameter transforms: the five parameter-map variants and the searchable kinds.

A transform maps a family's parameter dict one step along its orbit.  The
scalar variants (translation, scaling, power scaling, projective) act on
one named parameter and are the kinds a transform search scans; a cyclic
transform is declared extensionally and never searched.  A scalar
variant's image of one parameter value has one rule,
``ParameterTransform._image``, which ``apply`` and every search trial run.
This module is pure Python: the catalog's records and the CLI's parser
read it without loading numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import TransformError

#: Default coarse samples per candidate of a transform search (and --budget).
DEFAULT_BUDGET = 33
#: Largest budget a search (and --budget) takes.  A search scores its trials
#: in blocks of at most 96 KiB or one grid row, whatever the budget, so the
#: cap bounds its coarse sample list, its score memo and its run time.
MAX_BUDGET = 129


def _params_close(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= 1e-12 * (1.0 + abs(a[k])) for k in a)


class ParameterTransform:
    """Base of the five parameter-map variants; maps a parameter dict forward.

    Scalar variants act on one named parameter (``param``), defaulting to
    the only parameter when the dict has exactly one.  Applied to a
    parameter-free family (empty dict) every scalar variant is vacuous and
    the orbit is constant.

    A scalar variant is its knob check and its knob map, both taking the
    knob values in ``knobs`` order: construction refuses a knob that is not
    a real number, then runs the check; ``apply`` runs the map on the target
    parameter.  A search candidate (``TransformCandidate``) holds the class
    and its fixed knobs and runs the same two on bare knob values, so its
    trials build no transform objects.  ``kind`` names the class only at
    the edges: the CLI's ``--transform`` flag and ``to_dict``.
    """

    kind = "base"
    #: (name, type) of each knob in constructor order, after which comes
    #: ``param``.  The CLI's knob flags coerce to these types, so ``p``
    #: stays an int where the class needs one.
    knobs: tuple[tuple[str, type], ...] = ()

    @staticmethod
    def check_knobs(*knobs) -> None:
        """Raise TransformError unless the knob values are in the class's domain."""

    @staticmethod
    def knob_map(a: float, *knobs) -> float:
        """The image of one parameter value under the class's map at these knobs."""
        raise NotImplementedError

    def __post_init__(self):
        values = self._knob_values()
        for (name, _), value in zip(self.knobs, values):
            if not isinstance(value, numbers.Real):
                raise TransformError(f"{self.kind} knob {name}={value!r} is not a real number")
        self.check_knobs(*values)

    def _knob_values(self) -> tuple:
        return tuple(getattr(self, name) for name, _ in self.knobs)

    def apply(self, params: dict) -> dict:
        return self._mapped(params, self.param, self._knob_values())

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name, _ in self.knobs},
                "param": self.param}

    @staticmethod
    def _target(params: dict, param: str | None) -> tuple[str, float] | tuple[None, None]:
        """The target parameter's name and float value; (None, None) for no
        parameters.  TransformError where the target is missing, ambiguous
        or not a real number."""
        if not params:
            return None, None
        if param is None:
            if len(params) != 1:
                raise TransformError(
                    f"transform target is ambiguous for parameters {sorted(params)}; set param=")
            param = next(iter(params))
        elif param not in params:
            raise TransformError(f"transform targets {param!r}, not in parameters {sorted(params)}")
        try:
            return param, float(params[param])
        except (TypeError, ValueError):
            raise TransformError(f"transform target {param}={params[param]!r} "
                                 "is not a real number") from None
        except OverflowError as exc:
            raise TransformError(f"transform target {param}={params[param]!r} "
                                 f"cannot be converted to float ({exc})") from None

    @classmethod
    def _image(cls, params: dict, target: str, value: float, knobs: tuple) -> float:
        """``knob_map`` of ``value`` = float(params[target]) at these knobs:
        the one place a knob map runs.  TransformError where the map divides
        by zero, overflows or is not finite, naming the value as given."""
        try:
            new = cls.knob_map(value, *knobs)
        except (ZeroDivisionError, OverflowError) as exc:
            raise TransformError(f"transform undefined at {target}={params[target]}: "
                                 f"{exc.args[-1]}") from None
        if not math.isfinite(new):
            raise TransformError(f"transform sends {target}={params[target]} to a non-finite value")
        return new

    @classmethod
    def _mapped(cls, params: dict, param: str | None, knobs: tuple) -> dict:
        """params with the target parameter sent through ``_image``."""
        out = dict(params)
        target, value = cls._target(params, param)
        if target is not None:
            out[target] = cls._image(params, target, value, knobs)
        return out


@dataclass(frozen=True)
class Translation(ParameterTransform):
    """a → a + alpha."""

    alpha: float
    param: str | None = None
    kind = "translation"
    knobs = (("alpha", float),)

    @staticmethod
    def knob_map(a: float, alpha: float) -> float:
        return a + alpha


@dataclass(frozen=True)
class Scaling(ParameterTransform):
    """a → q·a with 0 < q < 1."""

    q: float
    param: str | None = None
    kind = "scaling"
    knobs = (("q", float),)

    @staticmethod
    def check_knobs(q: float) -> None:
        if not 0.0 < q < 1.0:
            raise TransformError(f"scaling requires 0 < q < 1, got q={q}")

    @staticmethod
    def knob_map(a: float, q: float) -> float:
        return q * a


@dataclass(frozen=True)
class PowerScaling(ParameterTransform):
    """a → q·aᵖ with 0 < q < 1 and integer p."""

    q: float
    p: int
    param: str | None = None
    kind = "power-scaling"
    knobs = (("q", float), ("p", int))

    @staticmethod
    def check_knobs(q: float, p: int) -> None:
        if not 0.0 < q < 1.0:
            raise TransformError(f"power scaling requires 0 < q < 1, got q={q}")
        if not isinstance(p, int) or isinstance(p, bool):
            raise TransformError(f"power scaling requires integer p, got {p!r}")

    @staticmethod
    def knob_map(a: float, q: float, p: int) -> float:
        return q * a**p


@dataclass(frozen=True)
class Projective(ParameterTransform):
    """a → q·a/(1 + p·a) with q > 0 and p < 1."""

    q: float
    p: float
    param: str | None = None
    kind = "projective"
    knobs = (("q", float), ("p", float))

    @staticmethod
    def check_knobs(q: float, p: float) -> None:
        if not q > 0.0:
            raise TransformError(f"projective requires q > 0, got q={q}")
        if not p < 1.0:
            raise TransformError(f"projective requires p < 1, got p={p}")

    @staticmethod
    def knob_map(a: float, q: float, p: float) -> float:
        denom = 1.0 + p * a
        if denom == 0.0:
            raise TransformError(f"projective map singular at a={a}")
        return q * a / denom


@dataclass(frozen=True)
class Cyclic(ParameterTransform):
    """Extensional cycle a₀ → a₁ → ... → a_{p-1} → a₀ of parameter dicts."""

    values: tuple[dict, ...]
    kind = "cyclic"

    def __post_init__(self):
        if len(self.values) < 1:
            raise TransformError("cyclic transform needs at least one parameter map")
        object.__setattr__(self, "values", tuple(dict(v) for v in self.values))

    @property
    def period(self) -> int:
        return len(self.values)

    def apply(self, params: dict) -> dict:
        for k, v in enumerate(self.values):
            if _params_close(params, v):
                return dict(self.values[(k + 1) % self.period])
        raise TransformError(f"parameters {params} are not on the declared cycle")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "period": self.period, "values": list(self.values)}


_UNIT_INSET = (1.0 / 32.0, 1.0 - 1.0 / 32.0)

#: The searchable transform classes in scan order, each with the interval
#: its first knob is scanned on and the values its other knobs are fixed
#: at, one tuple per candidate.  Open intervals like q ∈ (0,1) are scanned
#: on a closed inset.  Ties in residual quality resolve toward the earliest
#: entry.
_SEARCH_SPACES = (
    (Translation, (-5.0, 5.0), ((),)),
    (Scaling, _UNIT_INSET, ((),)),
    (PowerScaling, _UNIT_INSET, ((2,), (3,))),
    (Projective, _UNIT_INSET, ((0.25,), (0.5,))),
)

#: Kind name -> class, for every searchable transform kind, in scan order.
TRANSFORM_KINDS: dict[str, type[ParameterTransform]] = {
    cls.kind: cls for cls, _, _ in _SEARCH_SPACES}
