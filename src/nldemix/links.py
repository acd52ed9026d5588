"""Scalar link functions g with derivative g' and antiderivative Theta.

Each link carries capability flags: the sign link evaluates only, and
requesting its derivative or potential raises :class:`CapabilityError`.
That statically separates the one-shot path (unknown g, no derivative
needed) from the descent path (known g).

Derivative bounds (l1, l2) certify l1 <= g'(u) <= l2.  For "linsin"
(g(u) = 2u + sin u) they hold globally and exactly: (1, 3).  The logistic
links have g' -> 0 in the tails, so their l1 is taken on a declared working
interval [-R, R] (default R = 20); l2 = 1/4 is the global maximum at 0.

Potentials are normalized so Theta(0) = 0, making loss values comparable
across links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LINK_KINDS = ("sign", "linsin", "logistic", "shifted-logistic")

_LN2 = float(np.log(2.0))


class CapabilityError(Exception):
    """A link was asked for a capability (derivative/potential) it lacks."""


@dataclass(frozen=True)
class LinkFunction:
    """Scalar nonlinearity with optional derivative and antiderivative.

    eval_fn, deriv_fn, potential_fn operate elementwise on arrays.
    l1, l2 bound g' on [-radius, radius] when deriv_fn is present.
    """

    name: str
    eval_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], np.ndarray] | None = None
    potential_fn: Callable[[np.ndarray], np.ndarray] | None = None
    l1: float = 0.0
    l2: float = 0.0
    radius: float = field(default=20.0)

    @property
    def has_derivative(self) -> bool:
        return self.deriv_fn is not None

    @property
    def has_potential(self) -> bool:
        return self.potential_fn is not None


def _linsin(u: np.ndarray) -> np.ndarray:
    return 2.0 * u + np.sin(u)


def _linsin_deriv(u: np.ndarray) -> np.ndarray:
    return 2.0 + np.cos(u)


def _linsin_potential(u: np.ndarray) -> np.ndarray:
    return u * u - np.cos(u) + 1.0


def _logistic_potential(u: np.ndarray) -> np.ndarray:
    # log(1 + e^u) - log 2, overflow-safe.
    return np.logaddexp(0.0, u) - _LN2


def _logistic(u: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-u), mirrored by sign: e = e^-|u| <= 1 cannot overflow, and
    # e / (1 + e) keeps full relative precision in the left tail.
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _logistic_deriv(u: np.ndarray) -> np.ndarray:
    # p (1 - p) = e / (1 + e)^2 with e = e^-|u|, without cancellation.
    e = np.exp(-np.abs(u))
    return e / (1.0 + e) ** 2


def _shifted_logistic(u: np.ndarray) -> np.ndarray:
    # (1 - e^-u) / (2 (1 + e^-u)) = logistic(u) - 1/2 = tanh(u/2)/2.
    return 0.5 * np.tanh(0.5 * u)


def _shifted_logistic_potential(u: np.ndarray) -> np.ndarray:
    # ln cosh(u/2), via the logistic potential minus u/2.
    return np.logaddexp(0.0, u) - _LN2 - 0.5 * u


def make_link(name: str, radius: float = 20.0) -> LinkFunction:
    """Build a link by name: "sign", "linsin", "logistic", "shifted-logistic"."""
    if radius <= 0:
        raise ValueError(f"working interval radius must be positive, got {radius}")
    if name == "sign":
        return LinkFunction(name="sign", eval_fn=np.sign, radius=radius)
    if name == "linsin":
        return LinkFunction(
            name="linsin",
            eval_fn=_linsin,
            deriv_fn=_linsin_deriv,
            potential_fn=_linsin_potential,
            l1=1.0,
            l2=3.0,
            radius=radius,
        )
    if name == "logistic":
        edge = float(_logistic_deriv(np.float64(radius)))
        return LinkFunction(
            name="logistic",
            eval_fn=_logistic,
            deriv_fn=_logistic_deriv,
            potential_fn=_logistic_potential,
            l1=edge,
            l2=0.25,
            radius=radius,
        )
    if name == "shifted-logistic":
        edge = float(_logistic_deriv(np.float64(radius)))
        return LinkFunction(
            name="shifted-logistic",
            eval_fn=_shifted_logistic,
            deriv_fn=_logistic_deriv,
            potential_fn=_shifted_logistic_potential,
            l1=edge,
            l2=0.25,
            radius=radius,
        )
    raise ValueError(f"unknown link {name!r}; expected one of {LINK_KINDS}")


def link_eval(g: LinkFunction, u):
    """g(u), elementwise."""
    return g.eval_fn(np.asarray(u, dtype=float))


def link_deriv(g: LinkFunction, u):
    """g'(u); raises CapabilityError for links without a derivative."""
    if g.deriv_fn is None:
        raise CapabilityError(f"link {g.name!r} has no derivative")
    return g.deriv_fn(np.asarray(u, dtype=float))


def link_potential(g: LinkFunction, u):
    """Theta(u) with Theta(0) = 0 and Theta' = g; raises CapabilityError
    for links without a potential."""
    if g.potential_fn is None:
        raise CapabilityError(f"link {g.name!r} has no potential")
    return g.potential_fn(np.asarray(u, dtype=float))


def derivative_bounds(g: LinkFunction) -> tuple[float, float]:
    """(l1, l2) with l1 <= g' <= l2 on [-radius, radius]."""
    if g.deriv_fn is None:
        raise CapabilityError(f"link {g.name!r} has no derivative")
    return (g.l1, g.l2)
