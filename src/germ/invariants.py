"""Discrete conjugacy invariants of one-dimensional superattracting germs.

The profile of a germ f is the tuple (m, d, e, r): m counts Frobenius
factors, d is the separable part of the vanishing order, e = nu_p(d), and
r = (r_0 >= ... >= r_e = 0) records the first witness positions per
p-valuation level.  On top of the profile sit the fiber-index map J, its
table (one row per n, grouped by J into fibers), the fiber representatives
N' and N'', and the composition / iteration / infinity predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeTooSmall, InsufficientPrecision, ValidationError
from .series import Germ1D, Series, nu_p


@dataclass(frozen=True)
class InvariantProfile:
    p: int
    m: int
    d: int
    e: int
    r: tuple

    def __post_init__(self):
        if self.d * self.p ** self.m < 2:
            raise ValidationError("profile is not superattracting: d*p^m < 2")
        if self.e != int(nu_p(self.p, self.d)):
            raise ValidationError("e must equal nu_p(d)")
        if len(self.r) != self.e + 1:
            raise ValidationError("r must have length e+1")
        if self.r[-1] != 0:
            raise ValidationError("r_e must be 0")
        if any(self.r[u] < self.r[u + 1] for u in range(self.e)):
            raise ValidationError("r must be non-increasing")
        for u in range(1, self.e):
            if self.r[u] < self.r[u - 1] and nu_p(self.p, self.r[u]) != u:
                raise ValidationError(f"fresh drop r_{u} must have nu_p = {u}")

    def to_dict(self):
        return {"m": self.m, "d": self.d, "e": self.e, "r": list(self.r)}


def profile(f: Germ1D) -> InvariantProfile:
    """The (m, d, e, r) tuple of a germ, computed by scanning the unit part.

    Raises InsufficientPrecision when the truncation cannot witness some r_u;
    the exception carries the minimal truncation that would settle it.
    """
    dom = f.dom
    p = dom.p
    g, m = f.split()
    d = g.ord()
    e = int(nu_p(p, d))
    avail = g.trunc - d  # largest trusted epsilon index
    eps_nonzero = [not dom.is_zero(g.coeff(d + n)) for n in range(avail + 1)]

    def needed(n):
        return p ** m * (d + n + 1)

    r = []
    r0 = None
    for n in range(avail + 1):
        if eps_nonzero[n] and nu_p(p, d + n) == 0:
            r0 = n
            break
    if r0 is None:
        raise InsufficientPrecision(
            f"no witness for r_0 within truncation {f.trunc}",
            needed=needed(avail + 1))
    r.append(r0)
    for u in range(1, e + 1):
        prev = r[-1]
        witness = None
        for n in range(0, min(prev, avail + 1)):
            if eps_nonzero[n] and nu_p(p, d + n) == u:
                witness = n
                break
        if witness is not None:
            r.append(witness)
        elif avail >= prev - 1:
            r.append(prev)
        else:
            raise InsufficientPrecision(
                f"cannot decide r_{u}: epsilon known to index {avail}, "
                f"need index {prev - 1}", needed=needed(prev - 1))
    return InvariantProfile(p, m, d, e, tuple(r))


# ---------------------------------------------------------------------------
# the fiber-index map J and its combinatorics
# ---------------------------------------------------------------------------

def jays(prof: InvariantProfile, n: int):
    """(J_0(n), ..., J_e(n)) exactly, and J(n) = max as an int.  J_k(n) is
    an int where p^k divides n - r_k (0 where it vanishes), a Fraction
    elsewhere."""
    p = prof.p
    vals = []
    vn = nu_p(p, n)
    for k in range(prof.e + 1):
        if k <= vn and n > prof.r[k]:
            j, rem = divmod(n - prof.r[k], p ** k)
            vals.append(Fraction(n - prof.r[k], p ** k) if rem else j)
        else:
            vals.append(0)
    top = max(vals)
    if top.denominator != 1:
        raise AssertionError(f"J({n}) is not an integer: {top}")
    return tuple(vals), int(top)


def n_prime(prof: InvariantProfile, j: int) -> int:
    """N'(j) = min_k (r_k + p^k j); satisfies J(N'(j)) = j."""
    p = prof.p
    return min(prof.r[k] + p ** k * j for k in range(prof.e + 1))


def preceq_key(p, e, n):
    """Sort key of the total order: lexicographic on (nu_p(n) ^ e, n)."""
    return (min(nu_p(p, n), e), n)


@dataclass
class JTable:
    """J over 0 <= n < n_max: one ``jays`` row per n, and the n grouped by
    J into fibers (ascending)."""
    profile: InvariantProfile
    n_max: int  # exclusive
    rows: list  # per n: (vals tuple, J int), as jays gives them
    fibers: dict  # J -> [n, ...]

    @classmethod
    def build(cls, prof, n_max):
        rows = [jays(prof, n) for n in range(n_max)]
        fibers = {}
        for n, (_, j) in enumerate(rows):
            fibers.setdefault(j, []).append(n)
        return cls(prof, n_max, rows, fibers)

    @classmethod
    def through_fiber(cls, prof, j_hi):
        """The table to n_hi = r_0 + j_hi.  It holds every fiber j <= j_hi
        whole, since J(n) >= J_0(n) = n - r_0 for n > r_0."""
        n_hi = prof.r[0] + j_hi
        if jays(prof, n_hi + 1)[1] <= j_hi:
            raise AssertionError("fiber member beyond working order")
        return cls.build(prof, n_hi + 1)

    def fiber(self, j):
        """The n < n_max with J(n) = j, ascending."""
        return self.fibers.get(j, [])

    def n_doubleprime(self, j):
        """N''(j): the preceq-minimum of the fiber of j."""
        prof = self.profile
        return min(self.fiber(j),
                   key=lambda n: preceq_key(prof.p, prof.e, n))

    def to_tsv(self):
        e = self.profile.e
        rset = set(self.profile.r)
        header = ["n"] + [f"J{k}" for k in range(e + 1)] + ["J"]
        lines = ["\t".join(header)]

        def cell(value, marker):
            if marker:
                return "x"
            if value == 0:
                return ""
            return str(value) if value.denominator != 1 else str(int(value))

        for n in range(self.n_max):
            vals, top = self.rows[n]
            cells = [str(n)]
            for k in range(e + 1):
                cells.append(cell(vals[k], n == self.profile.r[k]))
            if n in rset:
                cells.append("x")
            else:
                cells.append(str(top) if top else "")
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def stable_threshold(prof: InvariantProfile) -> Fraction:
    """max_{k>=1} (r_0 - r_k)/(p^k - 1); fibers above it are singletons."""
    if prof.e < 1:
        raise ValidationError("threshold needs e >= 1")
    p = prof.p
    return max(Fraction(prof.r[0] - prof.r[k], p ** k - 1)
               for k in range(1, prof.e + 1))


def choice_bound(prof: InvariantProfile) -> Fraction:
    """r_0/(p-1): representatives N(j) are chosen for 0 < j below this."""
    return Fraction(prof.r[0], prof.p - 1)


# ---------------------------------------------------------------------------
# composition, iteration, polynomials at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComposeBound:
    m: int
    d: int
    e: int
    r_bound: tuple
    flags: tuple  # per u: "certain" | "generic"

    def to_dict(self):
        return {"m": self.m, "d": self.d, "e": self.e,
                "r_bound": list(self.r_bound), "flags": list(self.flags)}


def compose_bound(prof1: InvariantProfile, prof2: InvariantProfile):
    """Predicted profile of f'' o f' where prof1 = profile(f') (inner, applied
    first) and prof2 = profile(f'').  m, d, e are exact; each r_u is a lower
    bound, flagged "certain" when forced (unique minimiser, or u in {0, e})."""
    if prof1.p != prof2.p:
        raise ValidationError("profiles over different characteristics")
    p = prof1.p
    m = prof1.m + prof2.m
    d = prof1.d * prof2.d
    e = prof1.e + prof2.e
    r_bound, flags = [], []
    for u in range(e + 1):
        vals = []
        for h in range(prof1.e + 1):
            k = u - h
            if 0 <= k <= prof2.e:
                vals.append(prof1.d * prof2.r[k] + p ** k * prof1.r[h])
        mn = min(vals)
        certain = u in (0, e) or vals.count(mn) == 1
        r_bound.append(mn)
        flags.append("certain" if certain else "generic")
    return ComposeBound(m, d, e, tuple(r_bound), tuple(flags))


@dataclass(frozen=True)
class IterateFragment:
    m: int
    d: int
    e: int
    r0: int

    def to_dict(self):
        return {"m": self.m, "d": self.d, "e": self.e, "r0": self.r0}


def iterate_profile(prof: InvariantProfile, n: int) -> IterateFragment:
    """Invariants of the n-th iterate: exact big-integer formulas."""
    if n < 1:
        raise ValidationError("iterate count must be >= 1")
    dn = prof.d ** n
    if prof.e >= 1:
        r0 = prof.r[0] * (dn - 1) // (prof.d - 1)
    else:
        r0 = 0
    return IterateFragment(prof.m * n, dn, prof.e * n, r0)


def compose_germs(f1: Germ1D, f2: Germ1D, trunc=None) -> Germ1D:
    """Brute-force composition f2 o f1 of germs over the same domain."""
    t = min(f1.trunc, f2.trunc) if trunc is None else trunc
    s = f2.series.compose(f1.series, trunc=t)
    return Germ1D(f1.dom, s)


def iterate_germ(f: Germ1D, n: int, trunc=None) -> Germ1D:
    g = f
    for _ in range(n - 1):
        g = compose_germs(g, f, trunc=trunc)
    return g


def germ_at_infinity(coeffs, trunc=None) -> Germ1D:
    """The germ at infinity of the polynomial with the given FieldElement
    coefficients (low degree first), in the coordinate x = 1/z.

    The profile of the result always satisfies r_0 <= d; this is asserted.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 2:
        raise DegreeTooSmall("polynomial action at infinity needs degree >= 2")
    field = coeffs[-1].field
    t = trunc if trunc is not None else 2 * deg + 4
    # 1/P(1/x) = x^deg / sum_j c_(deg-j) x^j
    denom = Series(field, [coeffs[deg - j].code for j in range(deg + 1)], t)
    f = denom.reciprocal().shift(deg).truncate(t)
    germ = Germ1D(field, f)
    prof = profile(germ)
    if prof.r[0] > prof.d:
        raise AssertionError(
            f"r_0 = {prof.r[0]} exceeds d = {prof.d} for a polynomial germ")
    return germ
