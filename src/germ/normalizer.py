"""The classification engine for one-dimensional superattracting germs.

Given a germ f = g(x^(p^m)) with g(y) = y^d (1 + eps(y)), eps_0 = 1, the
conjugacy relation between f and a candidate target splits per y-degree n
into one coefficient equation.  Equations are solved fiber by fiber along
the index map J: the fiber of j fixes the witness coefficient phi_j (from
the chosen representative N(j), whose target coefficient is set to zero)
and the target coefficients at the remaining fiber members.  The fibers
and representatives come from one J table per solve, built once to the
working order n_hi = r_0 + j_hi (``invariants.JTable``); ``normal_form``
reuses it across extension restarts, since the profile is the same in
every field.

The unknown phi_j enters the degree-n equation only through an additive
polynomial sum_k R_k z^(p^(m+k)) - L z, where the R_k come from the
invariant positions r_k and L is the (exactly computable) linear
coefficient on the left-hand side.  That map is F_p-linear, so over a
finite field phi_j solves a k x k linear system over F_p; only when it has
no solution is the minimal field extension located (``NeedExtension``),
and ``fields.climb`` restarts the solve there.  Everything else is read
from the domain's two side kernels (``germ.sides``), fed each phi_j as it
is fixed:

- the left side is linear in the phi's, sum phi_h (1+eps) w^h with
  w = y^d (1+eps); ``dom.left_side`` gives its coefficients from the fixed
  phi's and the coefficient of each unknown;
- the right side needs single coefficients of (T^m phi)^(d+i) for the
  finitely many i with nonzero target coefficient, reduced along the
  base-p digits of the exponent to "chains" (T^tau phi)^M, which
  ``dom.right_side`` gives with the unfixed phi's read as zero.

Over F_q((t)) the kernels add every term in one fixed order, since that
order sets each output's precision: one product and one scaled update per
phi on the left, and chain sums whose final terms are kept and whose term
reading the newest unknown is added last.  Over F_q they regroup the same
sums: the left side adds fixed phi's in blocks by baby-step/giant-step,
and the chains are relaxed products.  The engine itself never learns
which.

Setting unassigned coefficients to zero during evaluation is sound: the
dependence of each equation on not-yet-fixed unknowns other than phi_j is
identically zero, which the engine also asserts where cheap.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field as dc_field

from .errors import (
    InsufficientPrecision,
    NotCoprime,
    OracleFailure,
    ShapeViolation,
    UnassignedDependency,
    UnsolvableRoot,
    ValidationError,
)
from .fields import climb, field_roots
from .invariants import (
    InvariantProfile,
    JTable,
    choice_bound,
    jays,
    n_prime,
    profile,
)
from .series import Germ1D, Series, binomial_pow, nu_p, revert


@dataclass
class NormalForm:
    """Target germ (x^(p^m))^d * a(x^(p^m)) satisfying the four support
    conditions for the chosen representative rule."""
    m: int
    d: int
    e: int
    r: tuple
    a: list          # raw domain coefficients a_0..deg(a)
    dom: object
    choice: str
    nj_table: dict | None = None

    @property
    def b(self):
        """Coefficient at the separable invariant position r_0."""
        return self.a[self.r[0]] if self.r[0] < len(self.a) else self.dom.zero

    def germ(self, trunc):
        return target_germ(self.dom, self.m, self.d, self.a, trunc)


@dataclass
class ConjugacyWitness:
    """Phi(x) = x*phi(x) with phi(0) = 1, conjugating the (normalized) source
    germ onto the target; composing with x -> linear^-1 * x first handles an
    unnormalized source."""
    phi: Series
    linear: object
    verified_order: int
    transcript: list = dc_field(default_factory=list)


@dataclass
class ConjReport:
    ok: bool
    checked_order: int
    first_disagreement: int | None


def target_germ(dom, m, d, a, trunc):
    """The germ (x^(p^m))^d * a(x^(p^m)) to order ``trunc``, for the raw
    coefficients a_0, a_1, ... of a."""
    step = dom.p ** m
    s = Series.zeros(dom, trunc)
    for n, c in enumerate(a):
        idx = step * (d + n)
        if idx <= trunc:
            s.coeffs[idx] = c
    return Germ1D(dom, s)


# ---------------------------------------------------------------------------
# the solver engine
# ---------------------------------------------------------------------------

def _representative(fibers, rule, nj_table, j):
    """N(j) under the named representative rule, checked against the fiber
    of j in the J table ``fibers``; a "custom" entry overrides N''(j)."""
    if rule == "nprime":
        n = n_prime(fibers.profile, j)
    elif rule == "custom" and nj_table and j in nj_table:
        n = nj_table[j]
    elif rule in ("ndoubleprime", "custom"):
        n = fibers.n_doubleprime(j)
    else:
        raise ValidationError(f"unknown N(j) rule {rule!r}")
    members = fibers.fiber(j)
    if n not in members:
        raise ValidationError(
            f"N({j}) = {n} is not in the fiber {members}")
    return n


class _Engine:
    """The fiber recursion.  Given ``target_unit`` it solves onto that
    prescribed target; otherwise it chooses the normal form's coefficients."""

    def __init__(self, dom, prof, eps_unit, j_hi, *, nj_rule="ndoubleprime",
                 nj_table=None, target_unit=None, prefix=(), fibers=None):
        self.dom = dom
        self.p = dom.p
        self.m, self.d, self.e, self.r = prof.m, prof.d, prof.e, prof.r
        self.j_hi = j_hi
        self.n_hi = prof.r[0] + j_hi
        n_hi = self.n_hi
        if fibers is None:
            fibers = JTable.through_fiber(prof, j_hi)
        self.fibers = fibers
        eps = list(eps_unit[: n_hi + 1])
        self.eps = dom.vector(eps + [dom.zero] * (n_hi + 1 - len(eps)))
        self.prescribed = target_unit is not None
        self.nj_rule = nj_rule
        self.nj_table = nj_table
        self.prefix = tuple(prefix)
        self.choice_points = []
        self.transcript = []

        self.phis = [dom.one]
        self.supp = []              # (i, step, M, tau) with eps_t[i] != 0
        self.eps_t = {}
        self.left = dom.left_side(self.eps, self.d, n_hi)
        self.right = dom.right_side(n_hi, self.supp)

        # slot bases: the distinct invariant positions, with the multiplier
        # of the unknown's Frobenius power they inject into the right side
        self.slot_bases = []
        for i0 in sorted(set(self.r)):
            kappa = int(nu_p(self.p, self.d + i0))
            mult = ((self.d + i0) // self.p ** kappa) % self.p
            self.slot_bases.append((i0, kappa, mult))

        if self.prescribed:
            for i, v in enumerate(target_unit[: n_hi + 1]):
                if not dom.is_zero(v):
                    self._register_eps(i, v, record=False)

    # -- bookkeeping ---------------------------------------------------------

    def _take_choice(self, count):
        pos = len(self.choice_points)
        self.choice_points.append(count)
        idx = self.prefix[pos] if pos < len(self.prefix) else 0
        if idx >= count:
            raise ValidationError("choice prefix out of range")
        return idx

    def _register_eps(self, i, value, record=True):
        self.eps_t[i] = value
        if not self.dom.is_zero(value):
            kappa = int(nu_p(self.p, self.d + i))
            step = self.p ** kappa
            insort(self.supp, (i, step, (self.d + i) // step, self.m + kappa))
        if record:
            self.transcript.append(
                {"kind": "eps", "n": i, "value": value})

    # -- the two sides -------------------------------------------------------

    def _lhs(self, n, last):
        """lhs_n from the assigned phi's; asserts that no phi_h with
        h > ``last`` enters it."""
        for h in range(last + 1, n // self.d + 1):
            if not self.dom.is_zero(self.left.unknown_coef(n, h)):
                raise UnassignedDependency(
                    f"lhs at degree {n} touches unassigned phi_{h}")
        return self.left.coef(n)

    def _rhs_known(self, n):
        """rhs_n with every unassigned unknown read as zero."""
        supp = self.supp[: bisect_right(self.supp, (n, math.inf))]
        chain = self.right.coef
        return self.dom.dot([
            (self.eps_t[i], chain(tau, mexp, (n - i) // step))
            for i, step, mexp, tau in supp if (n - i) % step == 0])

    def _slots(self, n, j):
        """[(s, coeff)]: the unknown enters rhs_n as coeff * z^(p^s)."""
        out = []
        dom = self.dom
        for (i0, kappa, mult) in self.slot_bases:
            v = self.eps_t.get(i0)
            if v is None or dom.is_zero(v):
                continue
            rem = n - i0
            step = self.p ** kappa
            if rem >= 0 and rem % step == 0 and rem // step == j:
                out.append((self.m + kappa, dom.mul(dom.from_int(mult), v)))
        return out

    # -- the unknown's additive equation ------------------------------------------

    def _unknown_candidates(self, q, slots, zl, n):
        """Solutions z of sum coeff * z^(p^s) - zl*z = q, deterministic order;
        with none, the domain's ``additive_roots`` raises."""
        dom = self.dom
        exps = {}
        for s, coeff in slots:
            exps[s] = dom.add(exps[s], coeff) if s in exps else coeff
        if not dom.is_zero(zl):
            exps[0] = dom.sub(exps.get(0, dom.zero), zl)
        exps = {s: c for s, c in exps.items() if not dom.is_zero(c)}
        if not exps:
            raise UnassignedDependency(
                f"equation at degree {n} has no dependence on the unknown")
        if len(exps) == 1:
            (s, c), = exps.items()
            return [dom.frob_root(dom.mul(q, dom.inv(c)), s)]
        return dom.additive_roots(exps.items(), q)

    # -- assignment ------------------------------------------------------------------

    def _assign_phi(self, j, value):
        if j != len(self.phis):
            raise AssertionError("phi assigned out of order")
        self.phis.append(value)
        self.transcript.append({"kind": "phi", "n": j, "value": value})
        self.left.assign(j, value)
        self.right.assign(j, value)

    # -- driving ----------------------------------------------------------------------

    def solve(self):
        if not self.prescribed:
            for n in self.fibers.fiber(0):
                self._register_eps(n, self.eps[n])
        for j in range(1, self.j_hi + 1):
            members = self.fibers.fiber(j)
            if self.prescribed:
                self._solve_fiber_prescribed(j, members)
            else:
                self._solve_fiber_normal(j, members)
        return self

    def _solve_fiber_normal(self, j, members):
        dom = self.dom
        nstar = _representative(self.fibers, self.nj_rule, self.nj_table, j)
        q = dom.sub(self._lhs(nstar, j), self._rhs_known(nstar))
        cands = self._unknown_candidates(
            q, self._slots(nstar, j), self.left.unknown_coef(nstar, j), nstar)
        idx = self._take_choice(len(cands))
        self._register_eps(nstar, dom.zero)
        self.transcript[-1]["roots_considered"] = len(cands)
        self._assign_phi(j, cands[idx])
        for n in members:
            if n == nstar:
                continue
            val = dom.sub(self._lhs(n, j), self._rhs_known(n))
            self._register_eps(n, val)
        # full re-evaluation of the representative equation, now that the
        # unknown is fixed: catches any slip in the slot bookkeeping
        if not dom.is_zero_to_prec(
                dom.sub(self._lhs(nstar, j), self._rhs_known(nstar))):
            raise UnassignedDependency(
                f"equation at degree {nstar} fails after solving fiber {j}")

    def _solve_fiber_prescribed(self, j, members):
        dom = self.dom
        pieces = []
        for n in members:
            pieces.append((n, self._lhs(n, j), self.left.unknown_coef(n, j),
                           self._rhs_known(n), self._slots(n, j)))
        # prefer equations with the simplest dependence on the unknown; fall
        # through when a member's additive equation is not solvable here
        order = sorted((pc for pc in pieces
                        if pc[4] or not dom.is_zero(pc[2])),
                       key=lambda pc: (len(pc[4]), pc[0]))
        if not order:
            raise UnassignedDependency(
                f"fiber {j} has no equation touching phi_{j}")
        winner = None
        last_err = None
        for n, lhs0, zl, rhs0, slots in order:
            q = dom.sub(lhs0, rhs0)
            try:
                cands = self._unknown_candidates(q, slots, zl, n)
            except UnsolvableRoot as exc:
                last_err = exc
                continue
            for z in cands:
                if all(self._member_residual_zero(pc, z) for pc in pieces):
                    winner = z
                    break
            if winner is not None:
                break
        if winner is None:
            if last_err is not None:
                raise last_err
            raise UnsolvableRoot(
                f"no root of the fiber-{j} equation matches the prescribed "
                f"target at degrees {[pc[0] for pc in pieces]}")
        self._assign_phi(j, winner)

    def _member_residual_zero(self, piece, z):
        dom = self.dom
        n, lhs0, zl, rhs0, slots = piece
        one = dom.one
        lhs = dom.dot([(lhs0, one), (zl, z)])
        rhs = dom.dot([(rhs0, one)] +
                      [(coeff, dom.frob(z, s)) for s, coeff in slots])
        return dom.is_zero_to_prec(dom.sub(lhs, rhs))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def solve_prescribed(dom, prof: InvariantProfile, unit, j_hi, target_unit):
    """Witness coefficients phi_0..phi_j_hi onto a prescribed target.

    ``unit`` is the unit part 1 + eps of the normalized source and
    ``target_unit`` that of the target, both as coefficient lists over
    ``dom``; the fiber recursion fixes each phi_j from the equations its
    fiber shares with the target.  Returns (phis, transcript).  Nothing is
    checked by composition: callers verify the witness themselves."""
    eng = _Engine(dom, prof, unit, j_hi, target_unit=target_unit)
    eng.solve()
    return eng.phis, eng.transcript


def normalize_unit(f: Germ1D):
    """Conjugate by x -> lam*x so the leading unit coefficient becomes 1.

    Returns (f', lam, field); the field is extended when the needed root of
    z^(d p^m - 1) does not exist.  lam is chosen deterministically (smallest
    coefficient vector) among the roots.
    """
    dom = f.dom
    s = f.series
    bigd = s.ord()
    lead = s.coeffs[bigd]
    if dom.is_zero(dom.sub(lead, dom.one)):
        return f, dom.one, dom

    def solve(fld, emb):
        coeffs = [fld.zero] * bigd
        coeffs[0] = fld.neg(fld.inv(emb(lead)))
        coeffs[bigd - 1] = fld.one
        return fld, emb, field_roots(fld, coeffs)[0]

    (dom, emb, lam), _ = climb(dom, solve)
    lam_pow = dom.inv(lam)  # lam^(l-1) at l = 0
    out = []
    for c in s.coeffs:
        out.append(dom.mul(lam_pow, emb(c)))
        lam_pow = dom.mul(lam_pow, lam)
    return Germ1D(dom, Series(dom, out, s.trunc)), lam, dom


def min_trunc(prof: InvariantProfile) -> int:
    """Smallest working order the solver accepts for this profile."""
    p = prof.p
    return p ** prof.m * (prof.d + (p * prof.r[0]) // (p - 1) + 1)


def normal_form(f: Germ1D, choice="ndoubleprime", trunc=64,
                allow_extension=True, nj_table=None, _prefix=()):
    """Solve the conjugacy recursion: returns (NormalForm, ConjugacyWitness).

    The witness phi has phi(0) = 1 and conjugates the unit-normalized germ
    onto the normal form, verified to order ``trunc`` by the independent
    composition oracle.  Deterministic: root choices use a fixed total order
    on field elements.  A fiber with no root in the field restarts the solve
    one hop up the tower (``fields.climb``).
    """
    f0, lam, dom = normalize_unit(f)
    if f0.series.trunc < trunc:
        # the germ is its polynomial: declaring more exact zeros is sound
        f0 = Germ1D(dom, f0.series.extended(trunc))
    prof = profile(f0)
    if trunc < min_trunc(prof):
        raise InsufficientPrecision(
            f"normal_form needs truncation >= {min_trunc(prof)}",
            needed=min_trunc(prof))
    j_hi = trunc - 1
    # an embedding keeps the zero pattern, so prof and its fibers hold in
    # every field of the extension chain
    fibers = JTable.through_fiber(prof, j_hi)
    if nj_table is not None:
        choice = "custom"
        for j, n in nj_table.items():
            # entries past the table's fibers are checked on J itself
            if n not in fibers.fiber(j) and jays(prof, n)[1] != j:
                raise ValidationError(f"custom table: J({n}) != {j}")
    g, _ = f0.split()
    unit = g.coeffs[g.ord():]

    def solve(fld, emb):
        eng = _Engine(fld, prof, [emb(c) for c in unit], j_hi,
                      nj_rule=choice, nj_table=nj_table, prefix=_prefix,
                      fibers=fibers)
        return eng.solve(), emb

    (eng, emb), fields = climb(dom, solve, allow_extension)
    eng.transcript[:0] = [{"kind": "extension", "n": None, "value": None,
                           "k": fld.k} for fld in fields]
    dom = eng.dom
    f0 = Germ1D(dom, Series(dom, [emb(c) for c in f0.series.coeffs],
                            f0.series.trunc))
    lam = emb(lam)
    nz = [n for n, v in eng.eps_t.items() if not dom.is_zero(v)]
    deg = max(nz) if nz else 0
    if prof.e >= 1:
        bound = choice_bound(prof) * prof.p
        if deg >= bound:
            raise ShapeViolation(
                f"target support reaches degree {deg} >= {bound}")
    elif deg > 0:
        raise ShapeViolation("coprime-degree target must be x^(d p^m)")
    a = [dom.zero] * (deg + 1)
    for n, v in eng.eps_t.items():
        if n <= deg:
            a[n] = v
    nf = NormalForm(prof.m, prof.d, prof.e, prof.r, a, dom, choice, nj_table)
    phi = Series(dom, list(eng.phis), j_hi)
    report = verify_conjugacy(f0, nf.germ(trunc), phi.shift(1), trunc)
    if not report.ok:
        raise OracleFailure(
            f"solver output fails the composition oracle at degree "
            f"{report.first_disagreement}")
    wit = ConjugacyWitness(phi, lam, report.checked_order, eng.transcript)
    wit.choice_points = eng.choice_points
    return nf, wit


def enumerate_normal_forms(f: Germ1D, choice="ndoubleprime", trunc=64,
                           limit=128):
    """All normal forms reachable by varying the solver's root choices.

    Exhaustive depth-first exploration of the (finite) root-choice tree;
    returns a list of (NormalForm, ConjugacyWitness)."""
    results = []
    seen = set()

    def explore(prefix):
        if len(results) >= limit:
            return
        nf, wit = normal_form(f, choice=choice, trunc=trunc, _prefix=prefix)
        results.append((nf, wit))
        cps = wit.choice_points
        for pos in range(len(prefix), len(cps)):
            for alt in range(1, cps[pos]):
                key = prefix[: pos] + (0,) * (pos - len(prefix)) + (alt,)
                if key not in seen:
                    seen.add(key)
                    explore(key)

    explore(())
    return results


def verify_conjugacy(f: Germ1D, f_target: Germ1D, phi_full: Series, trunc):
    """Brute-force check of Phi o f = f_target o Phi by full composition.

    ``phi_full`` is Phi itself (order of vanishing 1).  Shares no code with
    the solver's incremental coefficient extraction."""
    lhs = phi_full.compose(f.series, trunc=trunc)
    rhs = f_target.series.compose(phi_full, trunc=trunc)
    checked = min(lhs.trunc, rhs.trunc, trunc)
    bad = lhs.truncate(checked).agree_order(rhs.truncate(checked))
    return ConjReport(bad is None, checked, bad)


def check_nf_conditions(nf: NormalForm):
    """The four support conditions plus the degree bound, as booleans."""
    dom = nf.dom
    p = dom.p
    out = {}
    a = nf.a
    get = lambda n: a[n] if n < len(a) else dom.zero
    out["i_unit"] = dom.is_zero(dom.sub(get(0), dom.one))
    ok = True
    for u in range(nf.e):
        for n in range(1, nf.r[u]):
            if nu_p(p, n) == u and not dom.is_zero(get(n)):
                ok = False
    out["ii_zeros_below_r"] = ok
    out["iii_r_nonzero"] = all(not dom.is_zero(get(nf.r[u]))
                               for u in range(nf.e))
    prof = InvariantProfile(p, nf.m, nf.d, nf.e, nf.r)
    ok = True
    if nf.e >= 1:
        j_top = math.ceil(choice_bound(prof)) - 1   # every j < r_0/(p-1)
        fibers = JTable.through_fiber(prof, j_top)
        for j in range(1, j_top + 1):
            n = _representative(fibers, nf.choice, nf.nj_table, j)
            if not dom.is_zero(get(n)):
                ok = False
    out["iv_representatives_zero"] = ok
    if nf.e == 0:
        out["degree_bound"] = len(a) == 1 and out["i_unit"]
    else:
        out["degree_bound"] = len(a) - 1 < p * choice_bound(prof)
    return out


def bhard_extract(nf: NormalForm):
    """Regroup an ndoubleprime normal form as a(x^(p^(m+1))) + b x^(r_0 p^m).

    Every surviving exponent other than r_0 must be divisible by p; the
    regrouped polynomial a(z) has degree < r_0/(p-1)."""
    if nf.e < 1:
        raise ValidationError("the regrouped shape needs e >= 1")
    if nf.choice != "ndoubleprime":
        raise ValidationError("extraction is defined for ndoubleprime forms")
    dom = nf.dom
    p = dom.p
    r0 = nf.r[0]
    a_z = {}
    b = None
    for n, c in enumerate(nf.a):
        if dom.is_zero(c):
            continue
        if n == r0:
            b = c
            continue
        if n % p:
            raise ShapeViolation(
                f"exponent {n} is neither r_0 nor divisible by p")
        a_z[n // p] = c
    if b is None or dom.is_zero(b):
        raise ShapeViolation("vanishing coefficient at the invariant position")
    deg = max(a_z) if a_z else 0
    if a_z and not deg < choice_bound(
            InvariantProfile(p, nf.m, nf.d, nf.e, nf.r)):
        raise ShapeViolation(f"deg a = {deg} >= r_0/(p-1)")
    out = [dom.zero] * (deg + 1)
    for n, c in a_z.items():
        out[n] = c
    return out, b


def bottcher_product(f: Germ1D, trunc=64):
    """The coprime-degree conjugacy as a truncated infinite product.

    Needs gcd(d, p) = 1 and a unit-normalized germ.  Factors are
    (1 + eps^(n))^(1/d^(n+1)) with eps^(0) the m-fold Frobenius-root twist
    of eps and eps^(n+1) the twist of eps^(n) o g; factors beyond the
    truncation are units that differ from 1 only past the working order."""
    dom = f.dom
    prof = profile(f)
    p, m, d = dom.p, prof.m, prof.d
    if d % p == 0:
        raise NotCoprime(f"d = {d} shares the characteristic {p}")
    if d < 2:
        # the truncated product does not stabilize formally when d = 1;
        # the fiber recursion (normal_form) covers that case
        raise ValidationError("bottcher_product needs d >= 2")
    j_hi = trunc - 1
    step = p ** m
    src = f.series.extended(step * (d + j_hi))
    g, _ = Germ1D(dom, src).split()
    du = g.ord()
    if not dom.is_zero(dom.sub(g.coeffs[du], dom.one)):
        raise ValidationError("bottcher_product needs a unit-normalized germ")
    t_y = g.trunc - d
    u = Series(dom, g.coeffs[d:], t_y)
    eps = u - Series.one(dom, t_y)
    phi = Series.one(dom, t_y)
    level = eps.untwist(m)
    denom = d
    while not level.is_zero_to_prec():
        phi = phi.mul(binomial_pow(Series.one(dom, t_y) + level, 1, denom),
                      trunc=t_y)
        nxt = level.compose(g, trunc=t_y)
        level = nxt.untwist(m)
        denom *= d
    target = Germ1D(dom, Series.monomial(dom, dom.one, step * d, trunc))
    report = verify_conjugacy(f, target, phi.shift(1), trunc)
    if not report.ok:
        raise OracleFailure(
            f"product construction fails the composition oracle at degree "
            f"{report.first_disagreement}")
    return ConjugacyWitness(phi.truncate(j_hi), dom.one, report.checked_order,
                            [{"kind": "product"}])


def random_conjugate(f: Germ1D, seed, trunc=None):
    """(f', Phi) with f' = Phi o f o Phi^-1 for a seeded random unit Phi."""
    import random as _random
    dom = f.dom
    t = f.trunc if trunc is None else trunc
    rng = _random.Random(seed)
    phi = [dom.one] + [dom.rand(rng) for _ in range(t - 1)]
    phi_full = Series(dom, phi, t - 1).shift(1)
    psi = revert(phi_full)
    inner = f.series.compose(psi, trunc=t)
    outer = phi_full.compose(inner, trunc=t)
    return Germ1D(dom, outer), phi_full
