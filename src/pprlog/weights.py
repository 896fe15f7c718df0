"""Parameter vectors and edge weighting functions.

An edge's raw weight is f(w, phi) where phi is the edge's sparse feature
vector and w maps feature names to real weights (default 1.0).  Two
weighting functions are provided:

* ``linear``: sum_i w[i] * phi[i], floored at a small positive constant
  so transition probabilities stay well-defined.
* ``exp``: exp(sum_i w[i] * phi[i]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

LINEAR_FLOOR = 1e-9

# Sparse feature vector: ground feature name -> value.
FeatureVector = dict[str, float]


class ParameterVector(dict):
    """feature name -> weight; unseen features weigh 1.0."""

    def __missing__(self, key):
        return 1.0

    def copy(self) -> "ParameterVector":
        return ParameterVector(self)


@dataclass(frozen=True)
class WeightFn:
    name: str
    value: Callable[[float], float]        # raw weight from the dot product
    array: Callable[[np.ndarray], np.ndarray]     # ``value`` elementwise
    # d raw/d dot from (dot, raw), as a new array the caller may modify
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _linear_value(dot: float) -> float:
    # NaN passes through, as it does through np.maximum
    return LINEAR_FLOOR if dot <= LINEAR_FLOOR else dot


LINEAR = WeightFn("linear", _linear_value,
                  lambda dot: np.maximum(dot, LINEAR_FLOOR),
                  lambda dot, raw: (dot > LINEAR_FLOOR).astype(np.float64))
EXP = WeightFn("exp", math.exp, np.exp, lambda dot, raw: raw.copy())

WEIGHT_FNS = {"linear": LINEAR, "exp": EXP}


def left_sum(values: Iterable[float]) -> float:
    """The floats added one at a time from the left, starting at 0.0.

    ``sum`` gives these bytes up to Python 3.11, but from 3.12 it adds
    floats with compensation, so the last bits of a sum, and the outputs
    built from it, would depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def edge_weight(fn: WeightFn, w: ParameterVector, phi: FeatureVector) -> float:
    dot = left_sum(w[name] * val for name, val in phi.items())
    raw = fn.value(dot)
    if not (raw > 0.0) or not math.isfinite(raw):
        raise ValueError(f"nonpositive or non-finite edge weight {raw} "
                         f"for features {phi}")
    return raw


def save_params(w: ParameterVector) -> str:
    return "".join(f"{name}\t{float(w[name])!r}\n" for name in sorted(w))


def load_params(text: str) -> ParameterVector:
    """The weights of ``save_params`` text.  Raises ValueError, naming the
    line, for a line that is not ``name<TAB>weight`` or a weight that is
    not a finite number."""
    w = ParameterVector()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        name, _, value = line.rpartition("\t")
        if not name:
            raise ValueError(f"line {lineno}: expected name<TAB>weight, "
                             f"got {line!r}")
        try:
            weight = float(value)
        except ValueError:
            weight = math.nan
        if not math.isfinite(weight):
            raise ValueError(f"line {lineno}: weight {value!r} of {name!r} "
                             f"is not a finite number")
        w[name] = weight
    return w
