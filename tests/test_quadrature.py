import numpy as np
import pytest

from isospec.quadrature import integral, running_integral


def test_running_integral_zero_at_origin():
    xs = np.linspace(0, np.pi, 101)
    out = running_integral(np.sin(xs), xs[1] - xs[0])
    assert out[0] == 0.0


def test_exact_for_cubics_at_every_node():
    # Simpson pairs and the 3/8 / first-cell closures all integrate cubics exactly
    xs = np.linspace(0, np.pi, 41)
    f = 2 * xs**3 - xs**2 + 3 * xs - 1
    exact = 0.5 * xs**4 - xs**3 / 3 + 1.5 * xs**2 - xs
    out = running_integral(f, xs[1] - xs[0])
    assert np.max(np.abs(out - exact)) < 1e-12


@pytest.mark.parametrize("n,bound", [(401, 2e-9), (801, 2e-10)])
def test_fourth_order_at_all_nodes(n, bound):
    # measured 7.5e-10 at n=401 for this integrand; bound leaves ~3x headroom
    xs = np.linspace(0, np.pi, n)
    f = np.sin(xs) ** 2 + np.sin(2 * xs) ** 2
    exact = xs - np.sin(2 * xs) / 4 - np.sin(4 * xs) / 8
    out = running_integral(f, xs[1] - xs[0])
    assert np.max(np.abs(out - exact)) < bound


def test_vector_valued_integrands_ride_along():
    xs = np.linspace(0, np.pi, 81)
    f = np.stack([np.cos(xs), np.sin(xs)], axis=-1)
    out = running_integral(f, xs[1] - xs[0])
    assert out.shape == f.shape
    assert np.allclose(out[:, 0], np.sin(xs), atol=1e-9)
    assert np.allclose(out[:, 1], 1 - np.cos(xs), atol=1e-9)


def test_full_integral_matches_last_prefix():
    # bit for bit at odd and even n, small and large, with trailing axes riding along
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 200, 201, 400, 401):
        xs = np.linspace(0, np.pi, n)
        h = np.pi / max(n - 1, 1)
        f = np.exp(-xs)
        assert integral(f, h) == running_integral(f, h)[-1], n
        g = np.stack([np.cos(3 * xs), np.sin(xs) ** 2], axis=-1)[:, :, None] * np.arange(1, 4)
        assert np.array_equal(integral(g, h), running_integral(g, h)[-1]), n

