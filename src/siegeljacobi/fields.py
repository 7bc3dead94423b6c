"""Scalar fields: the batched-field marker, and the built-in fields on the
degree-(1,1) Siegel-Jacobi space (the eigenfunction family of the invariant
Laplacian and the K-Bessel integral evaluated by quadrature).

A field is a callable on points. A batched field takes a stack of points
(parts with a leading batch axis, see ``spaces``) and returns one value per
point; ``diffops`` hands it all the points of a stencil in one call, and
hands any other field one single point at a time.
"""
from __future__ import annotations

import inspect

import numpy as np

from .errors import DomainError
from .linalg import real_array


def batched(fn):
    """Mark fn as a batched field."""
    fn.batched = True
    return fn


def is_batched(f) -> bool:
    """True iff f, or a function it wraps through ``__wrapped__``, is batched."""
    return getattr(inspect.unwrap(f), "batched", False)


def bessel_k(s: complex, z):
    """K_s(z) = (1/2) integral_0^inf exp(-(z/2)(t + 1/t)) t^{s-1} dt for Re z > 0,
    via t = e^theta and the trapezoid rule of step 1/64 on |theta| <= 8. An array
    of z gives the array of values, each with the bits of the scalar call."""
    zs = real_array(z, "z")
    if not np.all(zs > 0):    # a nan is not positive
        raise DomainError("the integral representation needs Re z > 0")
    step = 1.0 / 64.0
    theta = np.arange(-8.0, 8.0 + step, step)
    integrand = np.exp(-zs.reshape(-1, 1) * np.cosh(theta) + s * theta)
    vals = 0.5 * step * np.sum(integrand, axis=-1)
    return complex(vals[0]) if zs.ndim == 0 else vals.astype(complex).reshape(zs.shape)


def _coords(p):
    """x + iy = omega and u + iv = z, one entry per point of a stack (z = 0
    on the Siegel space)."""
    omega = p.omega[..., 0, 0]
    z = p.z[..., 0, 0] if hasattr(p, "z") else np.zeros_like(omega)
    return omega.real, omega.imag, z.real, z.imag


def builtin_field(name: str, s: complex = 1.0, a: float = 1.0):
    """Batched fields keyed by name; ``s`` and ``a`` parametrize the
    power/Bessel families. Names: y^s, y^s*x, y^s*u, y^s*v, y^s*u*v, y^s*x*v,
    x, y, u, v, xv, uv, bessel, const."""
    def ys(y):    # libm pow on each entry, as y**s on one Python float
        return np.float_power(y, s)

    simple = {
        "x": lambda x, y, u, v: x,
        "y": lambda x, y, u, v: y,
        "u": lambda x, y, u, v: u,
        "v": lambda x, y, u, v: v,
        "xv": lambda x, y, u, v: x * v,
        "uv": lambda x, y, u, v: u * v,
        "const": lambda x, y, u, v: np.ones_like(x),
        "y^s": lambda x, y, u, v: ys(y),
        "y^s*x": lambda x, y, u, v: ys(y) * x,
        "y^s*u": lambda x, y, u, v: ys(y) * u,
        "y^s*v": lambda x, y, u, v: ys(y) * v,
        "y^s*u*v": lambda x, y, u, v: ys(y) * u * v,
        "y^s*x*v": lambda x, y, u, v: ys(y) * x * v,
    }
    if name in simple:
        fn = simple[name]
        return batched(lambda p: np.asarray(fn(*_coords(p)), dtype=complex))
    if name == "bessel":
        if a == 0:
            raise DomainError("the Bessel eigenfunction needs a nonzero frequency")

        @batched
        def field(p):
            x, y, _, _ = _coords(p)
            return np.sqrt(y) * bessel_k(s - 0.5, 2.0 * np.pi * abs(a) * y) \
                * np.exp(2j * np.pi * a * x)

        return field
    raise DomainError(f"unknown builtin field {name!r}")


def eigenfunction_table(s: complex):
    """(name, eigenvalue) rows of the degree-(1,1) Laplacian table at
    parameters A = B = 1."""
    lam_minus = s * (s - 1.0)
    lam_plus = s * (s + 1.0)
    return [
        ("y^s", lam_minus), ("y^s*x", lam_minus), ("y^s*u", lam_minus),
        ("y^s*v", lam_plus), ("y^s*u*v", lam_plus), ("y^s*x*v", lam_plus),
        ("x", 0.0), ("y", 0.0), ("u", 0.0), ("v", 0.0), ("xv", 0.0), ("uv", 0.0),
    ]
