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

from .errors import (
    DetDivisibleByP,
    PadicObstruction,
    SingularMatrix,
    ValidationError,
)
from .fields import FieldElement, poly_roots
from .series import binomial_coeffs, nu_p


# ---------------------------------------------------------------------------
# exact rational matrices (lists of lists of Fraction)
# ---------------------------------------------------------------------------

def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_inv(a):
    """Gauss-Jordan over exact rationals; raises SingularMatrix."""
    n = len(a)
    x = [[Fraction(v) for v in row] for row in a]
    y = mat_identity(n)
    for i in range(n):
        piv = next((j for j in range(i, n) if x[j][i] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is not invertible")
        if piv != i:
            x[i], x[piv] = x[piv], x[i]
            y[i], y[piv] = y[piv], y[i]
        inv = 1 / x[i][i]
        x[i] = [v * inv for v in x[i]]
        y[i] = [v * inv for v in y[i]]
        for j in range(n):
            if j != i and x[j][i] != 0:
                c = x[j][i]
                x[j] = [u - c * v for u, v in zip(x[j], x[i])]
                y[j] = [u - c * v for u, v in zip(y[j], y[i])]
    return y


def mat_rank(a):
    n, m = len(a), len(a[0])
    x = [[Fraction(v) for v in row] for row in a]
    rank, row = 0, 0
    for col in range(m):
        piv = next((j for j in range(row, n) if x[j][col] != 0), None)
        if piv is None:
            continue
        x[row], x[piv] = x[piv], x[row]
        inv = 1 / x[row][col]
        x[row] = [v * inv for v in x[row]]
        for j in range(n):
            if j != row and x[j][col] != 0:
                c = x[j][col]
                x[j] = [u - c * v for u, v in zip(x[j], x[row])]
        rank += 1
        row += 1
    return rank


def int_det(a):
    """Integer determinant by fraction-free expansion (n <= 4 in practice)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
            total += (-1) ** j * a[0][j] * int_det(minor)
    return total


def int_adjugate(a):
    """adj(a) with adj(a) @ a = det(a) * I, exact integers."""
    n = len(a)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            out[i][j] = (-1) ** (i + j) * int_det(minor)
    return out


def matrix_power_padic(d_mat, k, p):
    """(D^-k as exact rationals, p-integrality flag).

    The flag is true iff every entry a/b has nu_p(a) >= nu_p(b); this is
    implied by gcd(det D, p) = 1 but verified entrywise."""
    det = int_det(d_mat)
    if det == 0:
        raise SingularMatrix("exponent matrix is singular")
    inv = mat_inv([[Fraction(v) for v in row] for row in d_mat])
    out = mat_identity(len(d_mat))
    for _ in range(k):
        out = mat_mul(out, inv)
    flag = all(nu_p(p, q.numerator) >= nu_p(p, q.denominator)
               for row in out for q in row)
    return out, flag


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

    def ord(self):
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
        t = min(self.trunc + other.ord(), other.trunc + self.ord())
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
            if g.ord() < 1:
                raise ValidationError("substituted series must vanish at 0")
        powers = [{0: MultiSeries.one(dom, gs[0].nvars, t)} for _ in gs]

        def power(i, k):
            cache = powers[i]
            if k not in cache:
                cache[k] = power(i, k - 1).mul(gs[i], trunc=t)
            return cache[k]

        out = MultiSeries(dom, gs[0].nvars, t)
        for e, c in sorted(self.terms.items(), key=lambda kv: sum(kv[0])):
            if sum(e) > t:
                continue
            piece = MultiSeries.const(dom, gs[0].nvars, t, c)
            for i, k in enumerate(e):
                if k:
                    piece = piece.mul(power(i, k), trunc=t)
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


def pow_frac(u, a, b):
    """u**(a/b) for a unit multivariate series with u(0) = 1."""
    dom = u.dom
    one = MultiSeries.one(dom, u.nvars, u.trunc)
    w = u - one
    if w.is_zero():
        return one
    if a == 0:
        return one
    coeffs = binomial_coeffs(dom, a, b, u.trunc + 1)
    out = one
    acc = None
    ow = w.ord()
    for n in range(1, u.trunc + 1):
        if n * ow > u.trunc:
            break
        acc = w if acc is None else acc.mul(w, trunc=u.trunc)
        if not dom.is_zero(coeffs[n]):
            out = out + acc.scale(coeffs[n])
    return out


def multi_unit_power(units, mat):
    """Componentwise (1+eps)^M: out_j = prod_i units_i^(M[i][j]).

    Every entry of the rational matrix must be p-integral."""
    dom = units[0].dom
    p = dom.p
    for row in mat:
        for q in row:
            if nu_p(p, q.numerator) < nu_p(p, q.denominator):
                raise PadicObstruction(f"entry {q} is not p-integral")
    cols = len(mat[0])
    out = []
    for j in range(cols):
        acc = MultiSeries.one(dom, units[0].nvars, units[0].trunc)
        for i, u in enumerate(units):
            q = mat[i][j]
            if q != 0:
                acc = acc.mul(pow_frac(u, q.numerator, q.denominator),
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
            if s.ord() < 1:
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
    det = int_det([list(r) for r in f.dmat])
    if det == 0:
        raise SingularMatrix("exponent matrix is singular")
    if math.gcd(det, p) != 1:
        raise DetDivisibleByP(f"det D = {det} is divisible by p = {p}")
    t = trunc
    one_vec = [MultiSeries.one(dom, n, t) for _ in range(n)]
    phi = one_vec
    cur = [MultiSeries.variable(dom, n, t, i) for i in range(n)]  # f^(0)
    dinv = mat_inv([list(r) for r in f.dmat])
    dinvk = mat_identity(n)
    prev_ord = 0
    k = 1
    while True:
        epsk = [s.compose(cur, trunc=t) for s in f.eps]
        o = min(s.ord() for s in epsk)
        if o > t:
            break
        if o <= prev_ord:
            raise ValidationError(
                f"vanishing order stalled at {o} after {k - 1} iterates; "
                "the product does not stabilize")
        prev_ord = o
        dinvk = mat_mul(dinvk, dinv)
        for row in dinvk:
            for q in row:
                if nu_p(p, q.numerator) < nu_p(p, q.denominator):
                    raise PadicObstruction(
                        f"entry {q} of D^-{k} is not p-integral")
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
            raise ValidationError(
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
    det = int_det(m_int)
    if det == 0:
        return DiagonalScaling(None, field,
                               mat_rank([[Fraction(v) for v in row]
                                         for row in m_int]), False)
    adj = int_adjugate(m_int)
    q_abs, sign = abs(det), (1 if det > 0 else -1)
    # any extension restarts the whole solve in the bigger field, so every
    # derived value reaches it through the single cached one-hop embedding
    cur = field
    while True:
        emb = field.embed_map(cur)
        binv = [cur.inv(emb(c)) for c in cvec]
        rhos = []
        grew = None
        for l in range(n):
            target = cur.pow(binv[l], sign)
            coeffs = [cur.zero] * (q_abs + 1)
            coeffs[0] = cur.neg(target)
            coeffs[q_abs] = cur.one
            roots, new_field = poly_roots(
                [FieldElement(cur, c) for c in coeffs], allow_extension=True)
            if new_field is not cur:
                grew = new_field
                break
            rhos.append(roots[0].code)
        if grew is None:
            break
        cur = grew
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
            raise AssertionError("diagonal scaling failed verification")
    return DiagonalScaling(tuple(delta), cur, None, cur is not field)
