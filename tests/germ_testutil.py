"""Shared fuzz helpers for the test suite."""

from germ.errors import UnassignedDependency, ValidationError
from germ.fields import field_create
from germ.series import Germ1D, Series


def make_germ(field, m, d, trunc, rng, r0_cap=1, density=0.9):
    """A random superattracting germ g(x^(p^m)) with g = y^d (1 + eps),
    eps_0 = 1 and dense random higher coefficients.

    ``r0_cap`` bounds the first separable witness: coefficients eps_n with
    nu_p(d+n) = 0 and n < r0_cap are zeroed, and eps at the first index with
    nu_p(d+n) = 0 and n >= r0_cap is forced nonzero, so profiles stay
    resolvable within the truncation budget.
    """
    from germ.series import nu_p
    p = field.p
    step = p ** m
    ty = trunc // step
    n_eps = ty - d
    unit = [field.one]
    forced = None
    for n in range(1, n_eps + 1):
        if nu_p(p, d + n) == 0:
            if n < r0_cap:
                unit.append(field.zero)
                continue
            if forced is None:
                forced = n
                unit.append(1 + rng.randrange(field.q - 1))
                continue
        unit.append(field.rand(rng) if rng.random() < density else field.zero)
    co = [field.zero] * (trunc + 1)
    for n, c in enumerate(unit):
        idx = step * (d + n)
        if idx <= trunc:
            co[idx] = c
    return Germ1D(field, Series(field, co, trunc))


def schoolbook_conv(field, a, b, n):
    """Reference for ``field.conv``: the first n+1 coefficients of a*b,
    from the domain's scalar add and mul only, each output summed in
    increasing index of a."""
    out = [field.zero] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def standard_fields():
    return field_create(3, 1), field_create(3, 2), field_create(2, 2)


def lhs_rhs_coeffs(f, f_target, phi, n):
    """Degree-n coefficients of both sides of the unit conjugacy relation:
    (1+eps(y)) phi(y^d(1+eps)) vs (T^m phi)^d (1 + eps~(y T^m phi)).

    Computed by truncated series algebra over the y-coordinate; all entering
    coefficients must lie within the truncations."""
    g, m = f.split()
    gt, mt = f_target.split()
    if mt != m:
        raise ValidationError("targets must share the Frobenius depth m")
    d = g.ord()
    u = Series(f.dom, g.coeffs[d:], g.trunc - d)
    ut = Series(f.dom, gt.coeffs[gt.ord():], gt.trunc - gt.ord())
    w = u.shift(d)
    phi_y = phi.truncate(min(phi.trunc, n))
    lhs = u.mul(phi_y.compose(w, trunc=n), trunc=n)
    tphi = phi_y.twist(m)
    ytp = tphi.shift(1)
    # ut is the full unit 1 + eps~, so composing with y*T^m(phi) already
    # carries the constant term
    rhs = tphi.pow_int(d, trunc=n).mul(ut.compose(ytp, trunc=n), trunc=n)
    if n > lhs.trunc or n > rhs.trunc:
        raise UnassignedDependency(
            f"degree {n} exceeds determined range (lhs {lhs.trunc}, "
            f"rhs {rhs.trunc})")
    return lhs.coeff(n), rhs.coeff(n)
