"""Link functions: values, calculus identities, capability gating."""

import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import expit

from nldemix import links
from nldemix.links import (
    LINK_KINDS,
    CapabilityError,
    LinkFunction,
    link_deriv,
    link_eval,
    link_potential,
    make_link,
)


class TestConstruction:
    def test_known_names(self):
        for name in LINK_KINDS:
            assert make_link(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_link("relu")

    def test_fields_are_pinned(self):
        # The two logistic links share g'.
        pinned = {
            "sign": (np.sign, None, None),
            "linsin": (links._linsin, links._linsin_deriv, links._linsin_potential),
            "logistic": (links._logistic, links._logistic_deriv, links._logistic_potential),
            "shifted-logistic": (links._shifted_logistic, links._logistic_deriv,
                                 links._shifted_logistic_potential),
        }
        for name, (g, g_prime, theta) in pinned.items():
            link = make_link(name)
            assert (link.name, link.eval_fn, link.deriv_fn, link.potential_fn) == (
                name, g, g_prime, theta)

    def test_known_links(self):
        assert not make_link("sign").known
        for name in ("linsin", "logistic", "shifted-logistic"):
            assert make_link(name).known

    def test_a_link_with_one_of_derivative_and_potential_is_unknown(self):
        half = [LinkFunction("d", np.tanh, deriv_fn=np.cosh),
                LinkFunction("p", np.tanh, potential_fn=np.cosh)]
        for g in half:
            assert not g.known
            for call in (link_deriv, link_potential):
                with pytest.raises(CapabilityError, match=f"; {g.name!r} has none$"):
                    call(g, np.zeros(3))


class TestCapabilityGating:
    def test_sign_derivative_raises(self):
        with pytest.raises(CapabilityError):
            link_deriv(make_link("sign"), np.zeros(3))

    def test_sign_potential_raises(self):
        with pytest.raises(CapabilityError):
            link_potential(make_link("sign"), np.zeros(3))


class TestValues:
    def test_sign_values(self):
        g = make_link("sign")
        np.testing.assert_array_equal(
            link_eval(g, np.array([-2.5, -0.0, 0.0, 3.0])),
            np.array([-1.0, 0.0, 0.0, 1.0]),
        )

    def test_linsin_values(self):
        g = make_link("linsin")
        u = np.array([0.0, np.pi / 2.0, -np.pi])
        np.testing.assert_allclose(
            link_eval(g, u), np.array([0.0, np.pi + 1.0, -2.0 * np.pi]), atol=1e-14
        )
        np.testing.assert_allclose(
            link_deriv(g, u), np.array([3.0, 2.0, 1.0]), atol=1e-14
        )
        np.testing.assert_allclose(
            link_potential(g, u),
            np.array([0.0, np.pi**2 / 4.0 + 1.0, np.pi**2 + 2.0]),
            atol=1e-14,
        )

    def test_logistic_values(self):
        g = make_link("logistic")
        u = np.array([0.0, 2.0, -2.0])
        np.testing.assert_allclose(link_eval(g, u), expit(u), atol=1e-14)
        np.testing.assert_allclose(link_deriv(g, u), expit(u) * (1 - expit(u)))
        assert link_potential(g, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_shifted_logistic_is_centered_logistic(self):
        g = make_link("shifted-logistic")
        u = np.linspace(-6, 6, 41)
        np.testing.assert_allclose(link_eval(g, u), expit(u) - 0.5, atol=1e-14)
        # odd function, saturating at +/- 1/2
        np.testing.assert_allclose(link_eval(g, u), -link_eval(g, -u), atol=1e-14)
        assert abs(link_eval(g, np.array([50.0]))[0] - 0.5) < 1e-12

    @pytest.mark.parametrize("name, shift", [("logistic", 0.0), ("shifted-logistic", 0.5)])
    def test_sigmoid_matches_expit_without_overflow(self, name, shift):
        g = make_link(name)
        u = np.linspace(-800.0, 800.0, 16001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = link_eval(g, u)
            derivs = link_deriv(g, u)
        np.testing.assert_allclose(vals, expit(u) - shift, rtol=0, atol=1e-15)
        np.testing.assert_allclose(derivs, expit(u) * (1 - expit(u)), rtol=0, atol=1e-15)
        assert link_eval(g, np.array([-800.0]))[0] == -shift
        assert link_eval(g, np.array([800.0]))[0] == 1.0 - shift

    def test_logistic_keeps_relative_precision_in_both_tails(self):
        # 60-digit decimal reference: relative precision holds in the left
        # tail down to subnormals, not just absolute precision.
        def reference(u):
            with localcontext() as ctx:
                ctx.prec = 60
                e = Decimal(-abs(u)).exp()
                p = (Decimal(1) if u >= 0 else e) / (1 + e)
                return float(p), float(e / (1 + e) ** 2)

        g = make_link("logistic")
        u = np.array([-800.0, -745.0, -700.0, -40.0, -30.0, -20.0, -1.0, 0.0,
                      1.0, 30.0, 700.0, 800.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            vals = link_eval(g, u)
            derivs = link_deriv(g, u)
        for ui, got_p, got_d in zip(u, vals, derivs):
            want_p, want_d = reference(ui)
            assert abs(got_p - want_p) <= 4 * np.spacing(want_p), ui
            assert abs(got_d - want_d) <= 4 * np.spacing(want_d), ui
        want = reference(20.0)[1]
        assert abs(links._logistic_deriv(np.float64(20.0)) - want) <= 4 * np.spacing(want)

    def test_potential_overflow_safe(self):
        for name in ("logistic", "shifted-logistic"):
            vals = link_potential(make_link(name), np.array([-800.0, 800.0]))
            assert np.all(np.isfinite(vals))


class TestCalculusIdentities:
    @pytest.mark.parametrize("name", ["linsin", "logistic", "shifted-logistic"])
    def test_deriv_matches_finite_difference(self, name):
        g = make_link(name)
        rng = np.random.default_rng(17)
        u = rng.uniform(-5, 5, size=200)
        h = 1e-6
        fd = (link_eval(g, u + h) - link_eval(g, u - h)) / (2 * h)
        np.testing.assert_allclose(link_deriv(g, u), fd, atol=1e-8)

    @pytest.mark.parametrize("name", ["linsin", "logistic", "shifted-logistic"])
    def test_potential_prime_is_eval(self, name):
        g = make_link(name)
        rng = np.random.default_rng(23)
        u = rng.uniform(-5, 5, size=200)
        h = 1e-6
        fd = (link_potential(g, u + h) - link_potential(g, u - h)) / (2 * h)
        np.testing.assert_allclose(link_eval(g, u), fd, atol=1e-8)

    @pytest.mark.parametrize("name", ["linsin", "logistic", "shifted-logistic"])
    def test_potential_zero_at_origin(self, name):
        assert link_potential(make_link(name), np.array([0.0]))[0] == pytest.approx(
            0.0, abs=1e-15
        )

    @pytest.mark.parametrize("name", ["linsin", "logistic", "shifted-logistic"])
    def test_potential_convex(self, name):
        g = make_link(name)
        u = np.linspace(-10, 10, 201)
        vals = link_potential(g, u)
        # midpoint convexity on the sampled grid
        assert np.all(vals[1:-1] <= 0.5 * (vals[:-2] + vals[2:]) + 1e-12)

    @pytest.mark.parametrize("name", ["linsin", "shifted-logistic"])
    def test_odd_links_have_potential_minimum_at_zero(self, name):
        # g(0) = 0 for these links, so Theta is nonnegative with minimum 0
        vals = link_potential(make_link(name), np.linspace(-10, 10, 201))
        assert np.all(vals >= -1e-12)


class TestDerivativeBounds:
    def test_linsin_bounds_global(self):
        g = make_link("linsin")
        u = np.linspace(-50, 50, 10001)
        d = link_deriv(g, u)
        assert d.min() >= 1.0 - 1e-12 and d.max() <= 3.0 + 1e-12

    @pytest.mark.parametrize("name", ["logistic", "shifted-logistic"])
    def test_logistic_bounds_on_working_interval(self, name):
        g = make_link(name)
        lower = links._logistic_deriv(np.float64(20.0))
        u = np.linspace(-20.0, 20.0, 40001)
        d = link_deriv(g, u)
        assert d.max() <= 0.25 + 1e-12
        assert d.min() >= lower * (1 - 1e-12)
        # the lower bound is attained at the interval edges
        np.testing.assert_allclose(link_deriv(g, np.array([-20.0, 20.0])), lower, rtol=1e-12)
