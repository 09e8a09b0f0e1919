"""Named observables addressable from the command line.

Three kinds are understood:

* coordinates       ``x1``, ``x2``, ...
* monomials         products of coordinate powers, e.g. ``x1^2*x2``
* Fourier modes     ``cos1``, ``sin2``, or with a harmonic ``cos1:3``
                    (meaning cos(3 x_1) on the torus)

Monomials vectorize on both oracle systems; Fourier modes only on a torus
system, which carries its grid nodes (they are not polynomials, so the
Galerkin truncation would not represent them exactly).  In the Hermite
basis a monomial's coefficients are products of one-axis closed forms, so
no quadrature grid is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, sqrt
from typing import Callable

import numpy as np

from .spectral_oracle import DiscretizedSystem

Array = np.ndarray

_MONO_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_FOURIER = re.compile(r"^(cos|sin)(\d+)(?::(\d+))?$")


@dataclass
class Observable:
    name: str
    fn: Callable[[Array], Array]  # (..., dim) -> (...)
    powers: tuple[int, ...] | None = None  # per-axis exponents; None for Fourier


def parse_observable(spec: str, dim: int) -> Observable:
    """Turn an observable name into a vectorized callable."""
    text = spec.strip().lower()
    if not text:
        raise ValueError("empty observable spec")

    match = _FOURIER.match(text)
    if match:
        trig, axis_s, harmonic_s = match.groups()
        axis = int(axis_s) - 1
        harmonic = int(harmonic_s) if harmonic_s else 1
        if not 0 <= axis < dim:
            raise ValueError(f"observable {spec!r}: axis out of range for dim {dim}")
        if harmonic < 1:
            raise ValueError(f"observable {spec!r}: harmonic must be >= 1")
        base = np.cos if trig == "cos" else np.sin

        def fn(x, _axis=axis, _h=harmonic, _base=base):
            x = np.asarray(x, dtype=float)
            return _base(_h * x[..., _axis])

        return Observable(name=text, fn=fn)

    powers: dict[int, int] = {}
    for factor in text.split("*"):
        match = _MONO_FACTOR.match(factor.strip())
        if not match:
            raise ValueError(
                f"cannot parse observable {spec!r}; expected a coordinate "
                "monomial like 'x1' or 'x1^2*x2', or a Fourier mode like 'cos1'"
            )
        axis = int(match.group(1)) - 1
        power = int(match.group(2)) if match.group(2) else 1
        if not 0 <= axis < dim:
            raise ValueError(f"observable {spec!r}: axis out of range for dim {dim}")
        if power < 1:
            raise ValueError(f"observable {spec!r}: powers must be >= 1")
        powers[axis] = powers.get(axis, 0) + power

    def fn(x, _powers=tuple(powers.items())):
        x = np.asarray(x, dtype=float)
        out = x[..., _powers[0][0]] ** _powers[0][1]  # fresh, even for power 1
        for axis, power in _powers[1:]:
            out *= x[..., axis] ** power
        return out

    return Observable(name=text, fn=fn,
                      powers=tuple(powers.get(ax, 0) for ax in range(dim)))


def _power_coefficient(p: int, a: int) -> float:
    """Coefficient of He_a / sqrt(a!) in x^p: p! / (j! 2^j sqrt(a!)), p - a = 2j."""
    j, odd = divmod(p - a, 2)
    if j < 0 or odd:
        return 0.0
    return factorial(p) // (factorial(j) * 2**j) / sqrt(factorial(a))


def observable_vector(sys: DiscretizedSystem, obs: Observable) -> Array:
    """Values at a torus system's grid nodes, or Hermite coefficients."""
    if sys.points is not None:
        return np.asarray(obs.fn(sys.points), dtype=float)
    if obs.powers is None:
        raise ValueError(
            f"observable {obs.name!r} is not polynomial; the Gaussian "
            "backend represents monomials only"
        )
    alphas = np.array(sys.multi_indices)  # (n, dim)
    basis_degree = int(alphas.sum(axis=1).max())
    if sum(obs.powers) > basis_degree:
        raise ValueError(
            f"observable degree {sum(obs.powers)} exceeds the basis degree "
            f"{basis_degree}; raise --degree"
        )
    # the coefficient on prod_i He_{a_i} is the product of one-axis ones
    table = np.array([[_power_coefficient(p, a)
                       for a in range(basis_degree + 1)]
                      for p in obs.powers])
    return np.prod(table[np.arange(len(obs.powers)), alphas], axis=1)
