"""Monomial conjugacy for superattracting germs in several variables.

Germs have the shape f(x) = C x^D (1 + eps(x)) with C a vector of nonzero
constants, D a nonnegative integer exponent matrix acting by
(x^D)_j = prod_i x_i^(D[i][j]), and eps a vector of series vanishing at 0.
When det(D) is coprime to p, f is conjugate to its leading monomial part
via the truncated product of (1 + eps o f^(k-1))^(D^-k); the rational matrix
powers stay p-integral, so each factor is a well-defined binomial power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DetDivisibleByP, ScalingFailure, SingularMatrix,
                     ValidationError, WitnessFailure)
from .fields import climb, field_roots
from .series import binomial_pow


# ---------------------------------------------------------------------------
# exact rational matrices (lists of lists of Fraction)
# ---------------------------------------------------------------------------

def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def gauss_jordan(a):
    """(rank, det, inverse or None) of a square matrix: one exact Fraction
    elimination of [A | I]."""
    n = len(a)
    x = [[Fraction(v) for v in row] + e for row, e in zip(a, mat_identity(n))]
    det = Fraction(1)
    rank = 0
    for col in range(n):
        piv = next((j for j in range(rank, n) if x[j][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            x[rank], x[piv] = x[piv], x[rank]
            det = -det
        det *= x[rank][col]
        inv = 1 / x[rank][col]
        x[rank] = [v * inv for v in x[rank]]
        for j in range(n):
            if j != rank and x[j][col] != 0:
                c = x[j][col]
                x[j] = [u - c * v for u, v in zip(x[j], x[rank])]
        rank += 1
    return rank, det, ([row[n:] for row in x] if rank == n else None)


def mat_inv(a):
    """Inverse over exact rationals; raises SingularMatrix."""
    inv = gauss_jordan(a)[2]
    if inv is None:
        raise SingularMatrix("matrix is not invertible")
    return inv


def int_det(a):
    """Determinant of an integer matrix, as an int."""
    return int(gauss_jordan(a)[1])


# ---------------------------------------------------------------------------
# multivariate truncated series
# ---------------------------------------------------------------------------

class MultiSeries:
    """Sparse terms {exponent tuple: coefficient} with a total-degree bound."""

    __slots__ = ("dom", "nvars", "trunc", "terms")

    def __init__(self, dom, nvars, trunc, terms=None):
        self.dom = dom
        self.nvars = nvars
        self.trunc = trunc
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if min(e) < 0:
                    raise ValidationError(f"negative exponent {e}")
                if sum(e) <= trunc and not dom.is_zero(c):
                    self.terms[tuple(e)] = c

    @classmethod
    def zero(cls, dom, nvars, trunc):
        return cls(dom, nvars, trunc)

    @classmethod
    def const(cls, dom, nvars, trunc, value):
        s = cls(dom, nvars, trunc)
        if not dom.is_zero(value):
            s.terms[(0,) * nvars] = value
        return s

    @classmethod
    def one(cls, dom, nvars, trunc):
        return cls.const(dom, nvars, trunc, dom.one)

    @classmethod
    def variable(cls, dom, nvars, trunc, i):
        s = cls(dom, nvars, trunc)
        e = [0] * nvars
        e[i] = 1
        s.terms[tuple(e)] = dom.one
        return s

    def copy(self):
        s = MultiSeries(self.dom, self.nvars, self.trunc)
        s.terms = dict(self.terms)
        return s

    def is_zero(self):
        return not self.terms

    def ord_floor(self):
        """Minimal total degree of a stored term; trunc+1 when zero."""
        if not self.terms:
            return self.trunc + 1
        return min(sum(e) for e in self.terms)

    def coeff(self, e):
        return self.terms.get(tuple(e), self.dom.zero)

    def __add__(self, other):
        t = min(self.trunc, other.trunc)
        dom = self.dom
        out = MultiSeries(dom, self.nvars, t)
        terms = {}
        for src in (self.terms, other.terms):
            for e, c in src.items():
                if sum(e) > t:
                    continue
                cur = terms.get(e)
                terms[e] = c if cur is None else dom.add(cur, c)
        out.terms = {e: c for e, c in terms.items() if not dom.is_zero(c)}
        return out

    def __neg__(self):
        out = MultiSeries(self.dom, self.nvars, self.trunc)
        neg = self.dom.neg
        out.terms = {e: neg(c) for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        dom = self.dom
        out = MultiSeries(dom, self.nvars, self.trunc)
        if dom.is_zero(c):
            return out
        out.terms = {e: dom.mul(c, v) for e, v in self.terms.items()}
        return out

    def mul(self, other, trunc=None):
        dom = self.dom
        t = min(self.trunc + other.ord_floor(), other.trunc + self.ord_floor())
        if trunc is not None:
            t = min(t, trunc)
        out = MultiSeries(dom, self.nvars, t)
        if not self.terms or not other.terms:
            return out
        add, mul = dom.add, dom.mul
        terms = {}
        items2 = sorted(other.terms.items(), key=lambda kv: sum(kv[0]))
        degs2 = [sum(e) for e, _ in items2]
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > t:
                continue
            for (e2, c2), d2 in zip(items2, degs2):
                if d1 + d2 > t:
                    break
                e = tuple(a + b for a, b in zip(e1, e2))
                v = mul(c1, c2)
                cur = terms.get(e)
                terms[e] = v if cur is None else add(cur, v)
        out.terms = {e: c for e, c in terms.items() if not dom.is_zero(c)}
        return out

    def __mul__(self, other):
        return self.mul(other)

    def pow_int(self, h, trunc=None):
        t = self.trunc if trunc is None else trunc
        result = MultiSeries.one(self.dom, self.nvars, t)
        base = self
        while h:
            if h & 1:
                result = result.mul(base, trunc=t)
                if result.is_zero():
                    return result
            h >>= 1
            if h:
                base = base.mul(base, trunc=t)
        return result

    def compose(self, gs, trunc=None):
        """Substitute the vector gs (each with ord >= 1) for the variables."""
        dom = self.dom
        t = self.trunc if trunc is None else trunc
        for g in gs:
            if g.ord_floor() < 1:
                raise ValidationError("substituted series must vanish at 0")
        powers = [[MultiSeries.one(dom, gs[0].nvars, t)] for _ in gs]
        out = MultiSeries(dom, gs[0].nvars, t)
        for e, c in sorted(self.terms.items(), key=lambda kv: sum(kv[0])):
            if sum(e) > t:
                continue
            piece = MultiSeries.const(dom, gs[0].nvars, t, c)
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1].mul(gs[i], trunc=t))
                    piece = piece.mul(pw[k], trunc=t)
                    if piece.is_zero():
                        break
            out = out + piece
        return out

    def agree(self, other):
        diff = self - other
        return None if diff.is_zero() else min(
            (sum(e) for e in diff.terms), default=None)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        body = " + ".join(f"{c}*x^{list(e)}" for e, c in items[:6])
        return f"<MultiSeries {body or '0'} (deg<={self.trunc})>"


def multi_unit_power(units, mat):
    """Componentwise (1+eps)^M: out_j = prod_i units_i^(M[i][j]).

    Every nonzero entry of the rational matrix goes through binomial_coeffs,
    which raises PadicObstruction unless it is p-integral."""
    dom = units[0].dom
    cols = len(mat[0])
    out = []
    for j in range(cols):
        acc = MultiSeries.one(dom, units[0].nvars, units[0].trunc)
        for i, u in enumerate(units):
            q = mat[i][j]
            if q != 0:
                acc = acc.mul(binomial_pow(u, q.numerator, q.denominator),
                              trunc=acc.trunc)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# germs and the conjugacy
# ---------------------------------------------------------------------------

@dataclass
class MultiGerm:
    dom: object
    cvec: tuple          # leading constants, nonzero codes
    dmat: tuple          # D[i][j]: exponent of x_i in component j
    eps: tuple           # vector of MultiSeries vanishing at 0
    trunc: int

    def __post_init__(self):
        n = len(self.cvec)
        dom = self.dom
        if any(dom.is_zero(c) for c in self.cvec):
            raise ValidationError("leading constants must be nonzero")
        for j in range(n):
            if sum(self.dmat[i][j] for i in range(n)) < 1:
                raise ValidationError(f"component {j} must be nonconstant")
        total = sum(sum(row) for row in self.dmat)
        if total < n + 1:
            raise ValidationError("germ is not superattracting")
        for s in self.eps:
            if s.ord_floor() < 1:
                raise ValidationError("eps must vanish at 0")

    @property
    def nvars(self):
        return len(self.cvec)

    def identity_vector(self):
        return [MultiSeries.variable(self.dom, self.nvars, self.trunc, i)
                for i in range(self.nvars)]

    def apply(self, gs, trunc=None):
        """f o g for a vector of series g (ord >= 1 componentwise)."""
        dom = self.dom
        t = self.trunc if trunc is None else trunc
        out = []
        for mono, eps in zip(self.monomial_part(gs, trunc=t), self.eps):
            unit = MultiSeries.one(dom, self.nvars, t) + eps.compose(gs, trunc=t)
            out.append(mono.mul(unit, trunc=t))
        return out

    def monomial_part(self, gs, trunc=None):
        dom = self.dom
        t = self.trunc if trunc is None else trunc
        out = []
        for j in range(self.nvars):
            mono = MultiSeries.const(dom, self.nvars, t, self.cvec[j])
            for i in range(self.nvars):
                k = self.dmat[i][j]
                if k:
                    mono = mono.mul(gs[i].pow_int(k, trunc=t), trunc=t)
            out.append(mono)
        return out


def monomial_conjugacy(f: MultiGerm, trunc=12):
    """(Phi, verified): Phi(x) = x*phi(x) conjugating f onto C x^D.

    Built as the finite truncated product of (1 + eps o f^(k-1))^(D^-k);
    the vanishing order of eps o f^(k-1) must grow strictly, which makes the
    product stabilize.  Verified by brute-force composition to the total
    degree bound."""
    dom = f.dom
    p = dom.p
    n = f.nvars
    _, det, dinv = gauss_jordan(f.dmat)
    det = int(det)
    if det == 0:
        raise SingularMatrix("exponent matrix is singular")
    if math.gcd(det, p) != 1:
        raise DetDivisibleByP(f"det D = {det} is divisible by p = {p}")
    t = trunc
    one_vec = [MultiSeries.one(dom, n, t) for _ in range(n)]
    phi = one_vec
    cur = [MultiSeries.variable(dom, n, t, i) for i in range(n)]  # f^(0)
    dinvk = mat_identity(n)
    prev_ord = 0
    k = 1
    while True:
        epsk = [s.compose(cur, trunc=t) for s in f.eps]
        o = min(s.ord_floor() for s in epsk)
        if o > t:
            break
        if o <= prev_ord:
            raise ValidationError(
                f"vanishing order stalled at {o} after {k - 1} iterates; "
                "the product does not stabilize")
        prev_ord = o
        dinvk = mat_mul(dinvk, dinv)
        units = [MultiSeries.one(dom, n, t) + s for s in epsk]
        factors = multi_unit_power(units, dinvk)
        phi = [a.mul(b, trunc=t) for a, b in zip(phi, factors)]
        cur = f.apply(cur, trunc=t)
        k += 1
    xs = [MultiSeries.variable(dom, n, t, i) for i in range(n)]
    phi_full = [xs[i].mul(phi[i], trunc=t) for i in range(n)]
    lhs = [phi_full[j].compose(f.apply(xs, trunc=t), trunc=t)
           for j in range(n)]
    rhs = f.monomial_part(phi_full, trunc=t)
    for j in range(n):
        bad = lhs[j].agree(rhs[j])
        if bad is not None:
            raise WitnessFailure(
                f"product witness fails at component {j}, degree {bad}")
    return phi_full, t


@dataclass
class DiagonalScaling:
    delta: tuple | None
    field: object
    moduli_rank: int | None
    extended: bool


def diagonal_scaling(cvec, dmat, field):
    """Solve Delta^(D - I) = C^-1 so x -> Delta x scales C to ones.

    Possible exactly when 1 is not an eigenvalue of D over Q, i.e.
    det(D - I) != 0; otherwise returns the moduli dimension rank(D - I).
    Root extractions may extend the field (flagged)."""
    n = len(cvec)
    m_int = [[dmat[i][j] - (1 if i == j else 0) for j in range(n)]
             for i in range(n)]
    rank, det, inv = gauss_jordan(m_int)
    if det == 0:
        return DiagonalScaling(None, field, rank, False)
    adj = [[int(det * v) for v in row] for row in inv]  # det * inverse
    det = int(det)
    q_abs, sign = abs(det), (1 if det > 0 else -1)

    def solve(cur, emb):
        binv = [cur.inv(emb(c)) for c in cvec]
        rhos = []
        for l in range(n):
            coeffs = [cur.zero] * (q_abs + 1)
            coeffs[0] = cur.neg(cur.pow(binv[l], sign))
            coeffs[q_abs] = cur.one
            rhos.append(field_roots(cur, coeffs)[0])
        return cur, binv, rhos

    (cur, binv, rhos), _ = climb(field, solve)
    delta = []
    for i in range(n):
        acc = cur.one
        for l in range(n):
            acc = cur.mul(acc, cur.pow(rhos[l], adj[l][i]))
        delta.append(acc)
    # verify Delta^(D-I) = C^-1 exactly
    for j in range(n):
        acc = cur.one
        for i in range(n):
            acc = cur.mul(acc, cur.pow(delta[i], m_int[i][j]))
        if acc != binv[j]:
            raise ScalingFailure("diagonal scaling failed verification")
    return DiagonalScaling(tuple(delta), cur, None, cur is not field)
