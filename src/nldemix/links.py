"""Scalar link functions g with derivative g' and antiderivative Theta.

A link is known, with g' and Theta, or unknown, with g alone (sign); asking
an unknown link for g' or Theta raises :class:`CapabilityError`.  oneshot
and nlcd_lasso read only y and run on any link; dht and dst need a known g.

Potentials are normalized so Theta(0) = 0, making loss values comparable
across links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .transforms import _check_choice

__all__ = ["LinkFunction", "CapabilityError", "make_link", "link_eval", "link_deriv",
           "link_potential"]

_LN2 = float(np.log(2.0))


class CapabilityError(Exception):
    """An unknown link was asked for its derivative or potential."""


@dataclass(frozen=True)
class LinkFunction:
    """Scalar nonlinearity g; known when both g' and Theta are set.

    eval_fn, deriv_fn, potential_fn operate elementwise on arrays.
    """

    name: str
    eval_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], np.ndarray] | None = None
    potential_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def known(self) -> bool:
        return self.deriv_fn is not None and self.potential_fn is not None


def _require(link: LinkFunction, who: str) -> None:
    """CapabilityError unless `link` is known."""
    if not link.known:
        raise CapabilityError(
            f"{who} requires a link with a derivative and a potential; {link.name!r} has none")


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


# name -> (g, g', Theta); the two logistic links share g' = p (1 - p).
_LINKS = {
    "sign": (np.sign, None, None),
    "linsin": (_linsin, _linsin_deriv, _linsin_potential),
    "logistic": (_logistic, _logistic_deriv, _logistic_potential),
    "shifted-logistic": (_shifted_logistic, _logistic_deriv, _shifted_logistic_potential),
}
LINK_KINDS = tuple(_LINKS)


def make_link(name: str) -> LinkFunction:
    """Build a link by name: "sign", "linsin", "logistic", "shifted-logistic"."""
    return LinkFunction(name, *_LINKS[_check_choice("link", name, LINK_KINDS)])


def link_eval(g: LinkFunction, u):
    """g(u), elementwise."""
    return g.eval_fn(np.asarray(u, dtype=float))


def link_deriv(g: LinkFunction, u):
    """g'(u); raises CapabilityError for an unknown link."""
    _require(g, "link_deriv")
    return g.deriv_fn(np.asarray(u, dtype=float))


def link_potential(g: LinkFunction, u):
    """Theta(u) with Theta(0) = 0 and Theta' = g; raises CapabilityError
    for an unknown link."""
    _require(g, "link_potential")
    return g.potential_fn(np.asarray(u, dtype=float))
