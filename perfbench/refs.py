"""Reference formulas that check the program's outputs.

Nothing here imports the program.  Every formula is written from the
conventions in the package README (see the README of this directory for the
list), vectorized over numpy arrays so the checks after a run cost little.

Constituent states are passed as ``(kind, p1, p2)`` arrays:

* ``noon``: ``p1`` is the (possibly non-integer) photon number;
* ``ecs``: ``p1`` is the coherent amplitude alpha;
* ``escs``: ``p1`` is alpha, ``p2`` the squeeze factor of the constituent;
* ``esvs``: ``p1`` is the squeeze factor r.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("noon", "ecs", "escs", "esvs")
DENSE_CHUNK = 256  # Fisher matrices inverted per numpy call


def moments(kind: str, p1, p2=None):
    """(<n>, <n^2>, vacuum overlap probability) of a constituent state."""
    p1 = np.asarray(p1, dtype=np.float64)
    if kind == "noon":
        return p1, p1 * p1, np.where(p1 == 0.0, 1.0, 0.0)
    if kind == "ecs":
        a2 = p1 * p1
        return a2, a2 + a2 * a2, np.exp(-a2)
    if kind == "esvs":
        sh2 = np.sinh(p1) ** 2
        return sh2, 3.0 * sh2 * sh2 + 2.0 * sh2, 1.0 / np.cosh(p1)
    if kind == "escs":
        r = np.asarray(p2, dtype=np.float64)
        a2 = p1 * p1
        sh2 = np.sinh(r) ** 2
        mean = a2 + sh2
        var = a2 * np.exp(2.0 * r) + 2.0 * sh2 * np.cosh(r) ** 2
        return mean, mean * mean + var, np.exp(-a2 * (1.0 - np.tanh(r))) / np.cosh(r)
    raise ValueError(f"unknown family {kind!r}")


def balanced_nbar(d, mean_n, vacuum_prob):
    """Mean total photons <n>/(1 + d p0) of the balanced (d+1)-mode probe."""
    return mean_n / (1.0 + d * vacuum_prob)


def balanced_b2(d, vacuum_prob):
    return 1.0 / ((d + 1.0) * (1.0 + d * vacuum_prob))


def bound_from_f(d, n_bar, f):
    """Balanced bound d(d+1)/4 f (1/n_bar + 1/((d+1)/f - d n_bar))."""
    return d * (d + 1.0) / 4.0 * f * (1.0 / n_bar + 1.0 / ((d + 1.0) / f - d * n_bar))


def bound_from_weights(d, mean_n, mean_n2, b2):
    """Bound d/(4<n^2>) (1/b^2 + 1/(R - d b^2)) for probing weight b^2."""
    big_r = mean_n2 / mean_n**2
    return d / (4.0 * mean_n2) * (1.0 / b2 + 1.0 / (big_r - d * b2))


def noon_bound(d, n_bar):
    """NOON value d(d+1)/(2 n_bar^2)."""
    return d * (d + 1.0) / (2.0 * n_bar * n_bar)


def dense_inverse_bound(d: int, mean_n, mean_n2, b2):
    """Trace of the numpy inverse of the Fisher matrix a I - c O.

    a = 4 b^2 <n^2> and c = 4 b^4 <n>^2; the matrices are built and inverted
    densely, in chunks, without using their rank-one structure.
    """
    mean_n, mean_n2, b2 = (np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (mean_n, mean_n2, b2))
    out = np.empty(len(mean_n))
    eye, ones = np.eye(d), np.ones((d, d))
    for lo in range(0, len(mean_n), DENSE_CHUNK):
        sl = slice(lo, lo + DENSE_CHUNK)
        a = 4.0 * b2[sl] * mean_n2[sl]
        c = 4.0 * b2[sl] ** 2 * mean_n[sl] ** 2
        mats = a[:, None, None] * eye - c[:, None, None] * ones
        out[sl] = np.trace(np.linalg.inv(mats), axis1=1, axis2=2)
    return out


def _bisect(fn, target, lo, hi, iterations: int = 200):
    """Vectorized bisection of an increasing map fn on [lo, hi]."""
    lo = np.array(lo, dtype=np.float64) * np.ones_like(target)
    hi = np.array(hi, dtype=np.float64) * np.ones_like(target)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def solve_parameter(kind: str, d, n_bar, r_prime=None):
    """Free parameter of the family whose balanced probe has mean n_bar."""
    d = np.asarray(d, dtype=np.float64)
    n_bar = np.asarray(n_bar, dtype=np.float64)
    if kind == "noon":
        return n_bar
    if kind == "esvs":
        # n_bar <= sinh^2 r, and sinh^2 r <= (1 + d) n_bar
        hi = np.arcsinh(np.sqrt((1.0 + d) * n_bar)) + 1.0
        return _bisect(lambda r: balanced_nbar(d, *_m01("esvs", r)), n_bar, 0.0, hi)
    # alpha^2 lies between 0 and (1 + d) n_bar for both coherent families
    hi = np.sqrt((1.0 + d) * n_bar) + 1.0
    return _bisect(lambda a: balanced_nbar(d, *_m01(kind, a, r_prime)), n_bar, 0.0, hi)


def _m01(kind, p1, p2=None):
    mean, _, vac = moments(kind, p1, p2)
    return mean, vac


def balanced_report(kind: str, d, p1, p2=None):
    """Reference columns (qcrb, f, R, b2, n_tilde, n_bar) of a balanced probe."""
    mean, mean2, vac = moments(kind, p1, p2)
    n_bar = balanced_nbar(d, mean, vac)
    f = mean / mean2
    return {
        "qcrb": bound_from_f(d, n_bar, f),
        "f": f,
        "R": mean2 / mean**2,
        "b2": balanced_b2(d, vac),
        "n_tilde": mean,
        "n_bar": n_bar,
    }


def ellipse_reference_weight(d, vacuum_prob, b2):
    """Larger root c of the normalization ellipse A b^2 + B b c + c^2 = 1.

    A = d + d(d-1) p0 and B = 2 d p0 come from the overlaps between the
    d+1 components; the larger root holds the balanced point c = b.
    """
    a_coef = d + d * (d - 1.0) * vacuum_prob
    b_coef = 2.0 * d * vacuum_prob
    b = np.sqrt(b2)
    disc = np.maximum(b_coef**2 * b2 - 4.0 * (a_coef * b2 - 1.0), 0.0)
    return 0.5 * (-b_coef * b + np.sqrt(disc))


def optimized_report(kind: str, d, p1, p2=None):
    """Reference columns of the weight-optimized unbalanced probe.

    b^2 = min(R/(d + sqrt d), boundary) with the ellipse boundary
    1/(d (1 + d p0)(1 - p0)); n_bar is the true mean (c^2 + d b^2)<n>.
    """
    mean, mean2, vac = moments(kind, p1, p2)
    big_r = mean2 / mean**2
    stationary = big_r / (d + np.sqrt(d))
    boundary = 1.0 / (d * (1.0 + d * vac) * (1.0 - vac))
    b2 = np.minimum(stationary, boundary)
    # at the boundary the ellipse is tangent and c is the double root -B b / 2
    c = np.where(
        stationary < boundary,
        ellipse_reference_weight(d, vac, b2),
        -d * vac * np.sqrt(b2),
    )
    return {
        "qcrb": bound_from_weights(d, mean, mean2, b2),
        "f": mean / mean2,
        "R": big_r,
        "b2": b2,
        "n_tilde": mean,
        "n_bar": (c * c + d * b2) * mean,
        "c": c,
    }


def heralded_amplitudes(r):
    """|c_0|..|c_4| of the heralded branch: 0 : 2 sqrt2 : 2 sqrt(3t) : 2 sqrt3 t : 3 t^1.5."""
    t = np.tanh(np.asarray(r, dtype=np.float64))
    mags = np.stack(
        [np.zeros_like(t), np.full_like(t, 2.0 * np.sqrt(2.0)), 2.0 * np.sqrt(3.0 * t), 2.0 * np.sqrt(3.0) * t,
         3.0 * t**1.5],
        axis=-1,
    )
    return mags / np.linalg.norm(mags, axis=-1, keepdims=True)


def heralded_success_probability(r):
    """t^2 g^2 e^{-3t/2} / (32 cosh r), g^2 = 8 + 12t + 12t^2 + 9t^3."""
    r = np.asarray(r, dtype=np.float64)
    t = np.tanh(r)
    g2 = 8.0 + 12.0 * t + 12.0 * t * t + 9.0 * t**3
    return t * t * g2 * np.exp(-1.5 * t) / (32.0 * np.cosh(r))


def heralded_moments(r):
    """(<n>, <n^2>) of the heralded branch state; it has no vacuum term."""
    p = heralded_amplitudes(r) ** 2
    n = np.arange(5.0)
    return p @ n, p @ (n * n)
