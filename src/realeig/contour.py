"""Vertical-line contour integration for Mellin-Barnes type integrands."""
from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergentError
from .quadrature import QuadratureSpec, gauss_kronrod_adaptive

_TWO_PI = 2.0 * math.pi


def contour_line_integral(f, re_line: float, spec: QuadratureSpec) -> complex:
    """(1 / 2 pi i) * integral of f over the line Re s = re_line.

    f must be vectorized over complex ndarrays, analytic on the line, and
    decay at least like |Im s|^(-1-eps).  The line is integrated in Im s
    directly, so oscillation from x^{-s} factors stays resolvable: a
    central panel on [-1, 1], then panels expanded geometrically outward
    until two in a row stop contributing.

    For conjugate-symmetric integrands the result is real; an imaginary
    residue at or below 1e-10 (relative to the magnitude) is zeroed.
    """
    def g(t):
        t = np.asarray(t)
        return f(re_line + 1j * t)

    panel_spec = QuadratureSpec(rel_tol=spec.rel_tol * 0.5,
                                abs_tol=spec.abs_tol,
                                max_depth=spec.max_depth + 12)
    value, err, _ = gauss_kronrod_adaptive(g, -1.0, 1.0, panel_spec)
    t_edge = 1.0
    quiet = 0
    while t_edge < 2 ** 26:
        scale = max(abs(value), spec.abs_tol)
        tail_spec = QuadratureSpec(rel_tol=0.1,
                                   abs_tol=max(scale * spec.rel_tol * 0.02, 5e-324),
                                   max_depth=spec.max_depth + 14)
        hi, ehi, _ = gauss_kronrod_adaptive(g, t_edge, 2 * t_edge, tail_spec)
        lo, elo, _ = gauss_kronrod_adaptive(g, -2 * t_edge, -t_edge, tail_spec)
        value = value + hi + lo
        err += ehi + elo
        # one quiet panel can be an oscillation zero; require two in a row
        if abs(hi) + abs(lo) < spec.rel_tol / 10.0 * max(abs(value), spec.abs_tol):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        t_edge *= 2.0
    else:
        raise NonConvergentError(
            "contour tail still contributing at the panel cap",
            value=value / _TWO_PI, err_est=err / _TWO_PI)

    result = complex(value) / _TWO_PI
    if abs(result.imag) <= 1e-10 * max(1.0, abs(result.real)):
        result = complex(result.real, 0.0)
    return result
