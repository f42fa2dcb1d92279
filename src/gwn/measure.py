"""Finite atomic reference measures.

The whole package works over a fixed finite set of atoms x_0, ..., x_{m-1}
carrying strictly positive weights w_i.  A "test function" is any length-m
real (or complex) vector of values on the atoms; integration is the weighted
sum.  Generalized functions concentrated at single atoms come in two
conventions, both provided here and used consistently downstream:

* direction convention: ``delta_direction(i)`` is the unit point mass at
  atom i, pairing with a test function by plain evaluation, <d_i, f> = f_i.
  Random configurations omega = sum_i s_i d_i pair as <omega, f> = sum_i s_i f_i.
* density convention: ``delta_density(i)`` is the density of that point mass
  with respect to the measure, [j == i] / w_j, so that the weighted sum
  sum_j w_j delta_i(j) f_j again returns f_i.  Kernels of generalized
  functions on products of the atom set are stored in this convention.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, DomainError


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite measure sum_i w_i delta_{x_i} with all w_i > 0.

    Atoms are indexed 0..m-1; only the weights matter.  Instances are
    immutable (the weight array is frozen) and safe to share across threads.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise DimensionError("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DomainError("all weights must be finite and > 0")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        """Number of atoms."""
        return self.weights.size

    @property
    def total_mass(self) -> float:
        """Compensated sum of the weights (stable under atom reordering)."""
        return math.fsum(self.weights.tolist())

    def check_function(self, f) -> np.ndarray:
        """Validate and return a test function as a numpy vector of length m."""
        arr = np.asarray(f)
        if arr.shape != (self.m,):
            raise DimensionError(
                f"test function has shape {arr.shape}, expected ({self.m},)")
        return arr

    def integrate(self, f) -> float:
        """Integral of a test function: sum_i w_i f_i."""
        arr = self.check_function(f)
        return complex(self.weights @ arr) if np.iscomplexobj(arr) else float(self.weights @ arr)

    def l2_inner(self, f, g) -> float:
        """L^2 inner product sum_i w_i conj(f_i) g_i."""
        fa = self.check_function(f)
        ga = self.check_function(g)
        val = self.weights @ (np.conj(fa) * ga)
        return complex(val) if np.iscomplexobj(val) else float(val)

    def indicator(self, atoms) -> np.ndarray:
        """0/1 test function supported on the given atom indices."""
        chi = np.zeros(self.m)
        idx = np.asarray(atoms, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.m):
            raise DimensionError("atom index out of range")
        chi[idx] = 1.0
        return chi

    def delta_direction(self, i: int) -> np.ndarray:
        """Unit point mass at atom i in the direction convention (<d_i, f> = f_i)."""
        self._check_atom(i)
        e = np.zeros(self.m)
        e[i] = 1.0
        return e

    def delta_density(self, i: int) -> np.ndarray:
        """Density of the unit point mass at atom i: [j == i] / w_j."""
        self._check_atom(i)
        d = np.zeros(self.m)
        d[i] = 1.0 / self.weights[i]
        return d

    def _check_atom(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise DimensionError(f"atom index {i} out of range for m={self.m}")

    def to_json_dict(self) -> dict:
        return {"weights": [float(w) for w in self.weights]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AtomicMeasure":
        w = d.get("weights") if isinstance(d, dict) else None
        if not isinstance(w, list):
            raise DomainError("measure JSON must be an object with a 'weights' array")
        return cls(np.asarray([_json_number(x, "a weight") for x in w], dtype=float))


def _json_number(x, what: str) -> float:
    """float(x) for a JSON number or numeric string, refusing true and false."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Real, str)):
        raise ContractError(f"{what} must be a number, got {x!r}")
    return float(x)


def load_measure(path) -> AtomicMeasure:
    """Read an AtomicMeasure from a JSON file of the form {"weights": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        return AtomicMeasure.from_json_dict(json.load(fh))


def save_measure(measure: AtomicMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure.to_json_dict(), fh, indent=2)
        fh.write("\n")
