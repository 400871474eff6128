"""The two sides of the engine's coefficient equations, as domain kernels.

The normal-form engine (``germ.normalizer``) solves the conjugacy relation
degree by degree while the witness phi = sum phi_h y^h is fixed one
coefficient at a time (phi_0 = 1).  It reads two kinds of coefficients
with every phi_h not yet fixed read as zero:

- the left side, coefficient n of (1+eps) phi(w) with w = y^d (1+eps),
  that is sum_h phi_h W_h[n] with W_h = y^(dh) u^(h+1) and u = 1+eps;
- the right side's chains, coefficient l of (T^tau phi)^M for the twist
  T^tau (coefficientwise Frobenius) and an exponent M.

A domain hands the engine one kernel for each, through
``left_side(unit, d, n_hi)`` and ``right_side(n_hi, supp)``.  Both are fed
each phi_j in order by ``assign(j, value)``; the left kernel answers
``coef(n)`` (the left side from the fixed phi's) and ``unknown_coef(n, h)``
(W_h[n], the coefficient of phi_h in it), the right kernel
``coef(tau, M, l)``.

Two implementations of each live here, both written over the domain
protocol alone:

- :class:`OrderedLeft` and :class:`OrderedRight` keep the order in which
  the engine has always added its terms: each sum is one ``dot`` in
  increasing h, pulled when it is read, and a chain's term that reads the
  newest unknown is added last.  Over F_q((t)) that order fixes every
  output's precision, so ``LaurentDomain`` uses them, and they are the
  reference the fast kernels are checked against.
- :class:`BlockLeft` and :class:`RelaxedRight` regroup the same sums into
  few long products, which is exact only over a field: ``Field`` uses
  them.  The left side adds fixed phi's in blocks evaluated by Brent and
  Kung's baby-step/giant-step scheme ("Fast algorithms for manipulating
  formal power series", JACM 25(4), 1978), and the chains are relaxed
  products (van der Hoeven, "Relax, but don't be too lazy", J. Symbolic
  Comput. 34(6), 2002).
"""

from __future__ import annotations

import math
from bisect import bisect_left


# ---------------------------------------------------------------------------
# the ordered kernels: every sum in the engine's historical order
# ---------------------------------------------------------------------------

class OrderedLeft:
    """The left side, pulled when read: coefficient n is one ``dot`` of
    (phi_h, W_h[n]) over the fixed h <= n/d, h increasing, with W_h =
    W_(h-1) * w by one ``conv`` each.  The h whose W_h[n] is the exact
    zero, which ``dot`` skips, are left out when the W_h is formed.  A sum
    is kept with its term count and extended after a leading (sum, 1)
    pair: the same partial sums."""

    def __init__(self, dom, unit, d, n_hi):
        self.dom, self.d, self.n_hi = dom, d, n_hi
        self.wlist = []                     # W_h = (1+eps) * w^h
        self.nonzero = [[] for _ in range(n_hi + 1)]    # h: W_h[n] != 0
        self._keep(unit, 0)
        self.phis = [dom.one]
        self.sums = [(0, dom.zero)] * (n_hi + 1)    # (terms, their sum)

    def _keep(self, w, lo):
        """Append W_h = w, which vanishes below degree lo, and enter h in
        ``nonzero`` at each degree where W_h is not ``dom.zero``, the exact
        zero the kernels give back (an exact zero made otherwise would be
        entered, and ``dot`` skips it)."""
        h, zero, nonzero = len(self.wlist), self.dom.zero, self.nonzero
        self.wlist.append(w)
        for n in [n for n, c in enumerate(w[lo: self.n_hi + 1], lo)
                  if c != zero]:
            nonzero[n].append(h)

    def _W(self, h):
        dom, d, n_hi = self.dom, self.d, self.n_hi
        while len(self.wlist) <= h:
            # W_hh = W_(hh-1) * y^d (1+eps); W_(hh-1) vanishes below d(hh-1)
            lo = d * len(self.wlist)
            prod = dom.conv(self.wlist[-1][lo - d: n_hi + 1 - d],
                            self.wlist[0], n_hi - lo)
            self._keep(dom.vector([dom.zero] * min(lo, n_hi + 1)) + prod, lo)
        return self.wlist[h]

    def coef(self, n):
        top = min(len(self.phis), n // self.d + 1)
        done, acc = self.sums[n]
        if done < top:              # a first read's acc is the exact zero
            self._W(top - 1)
            wlist, phis, hs = self.wlist, self.phis, self.nonzero[n]
            acc = self.dom.dot([(acc, self.dom.one)] + [
                (phis[h], wlist[h][n])
                for h in hs[bisect_left(hs, done): bisect_left(hs, top)]])
            self.sums[n] = (top, acc)
        return acc

    def unknown_coef(self, n, h):
        return self._W(h)[n] if self.d * h <= n else self.dom.zero

    def assign(self, j, value):
        self.phis.append(value)


class OrderedRight:
    """The chains, as running power families and memoised sums.

    (T^tau phi)^M is read along the base-p digits of M: for M < p it is a
    power psi^M of psi = T^tau phi, a whole vector; a fixed phi_j is
    written as psi_j after the binomial updates of the higher powers,
    which read the old psi.  Otherwise it is psi^c0 times
    (T^(tau+1) phi)^(M // p) at y^p, c0 = M mod p, whose coefficient l
    sums s_b a_(l-pb) over b.  The terms b >= 1 are one ``dot``, left to
    right, kept once they are all final; the term b = 0 reads a_l, the
    newest unknown, and is added last, so a value read before that unknown
    is fixed and the final value share one sum.  Each coefficient is kept
    once it no longer depends on unfixed phi's.

    ``supp`` is the engine's registered support, (i, step, M, tau)
    entries: a family starts with every power the support will read and
    grows only when a later entry needs a higher one, since over a Laurent
    domain a power's precision depends on when it was formed.
    """

    def __init__(self, dom, n_hi, supp):
        self.dom, self.p, self.n_hi, self.supp = dom, dom.p, n_hi, supp
        self.phis = [dom.one]
        self.frontier = 0
        self.twistpow = {}      # tau -> [None, psi as a list, ..., psi^c]
        self.chains = {}                    # (tau, M) -> memoised prefix
        self.partials = {}                  # (tau, M, l) -> final b >= 1 sum

    def assign(self, j, value):
        dom, n_hi = self.dom, self.n_hi
        self.phis.append(value)
        self.frontier = j
        if dom.is_zero(value):
            return
        for tau, fam in self.twistpow.items():
            dtw = dom.frob(value, tau)
            for c in range(len(fam) - 1, 1, -1):
                dpow = dom.one
                for l in range(1, c + 1):
                    dpow = dom.mul(dpow, dtw)
                    off = j * l
                    if off > n_hi:
                        break
                    coef = math.comb(c, l) % self.p
                    if coef == 0:
                        continue
                    cd = [dom.mul(dom.from_int(coef), dpow)]
                    if c != l:
                        cd = dom.conv(cd, fam[c - l], n_hi - off)
                    fam[c] = dom.add_shifted(fam[c], cd, off, n_hi + 1)
            fam[1][j] = dtw

    def _twist_power(self, tau, c):
        """Coefficients of psi^c, psi = T^tau phi."""
        dom, n_hi = self.dom, self.n_hi
        fam = self.twistpow.get(tau)
        if fam is None:
            psi = [dom.frob(v, tau) for v in self.phis]
            fam = [None, psi + [dom.zero] * (n_hi + 1 - len(psi))]
            self.twistpow[tau] = fam
            for (_, _, mexp, tau0) in self.supp:
                if tau0 <= tau:
                    c = max(c, mexp // self.p ** (tau - tau0) % self.p)
        while len(fam) <= c:
            fam.append(dom.conv(fam[-1], fam[1], n_hi))
        return fam[c]

    def _final_cap(self, tau, mexp):
        if mexp % self.p:
            return self.frontier
        return self.p * self._final_cap(tau + 1, mexp // self.p) + self.p - 1

    def coef(self, tau, mexp, l):
        """Coefficient l of (T^tau phi)^mexp."""
        dom = self.dom
        if l < 0 or l > self.n_hi:
            return dom.zero
        if mexp == 0:
            return dom.one if l == 0 else dom.zero
        if mexp < self.p:
            return self._twist_power(tau, mexp)[l]
        if mexp % self.p == 0:
            if l % self.p:
                return dom.zero
            return self.coef(tau + 1, mexp // self.p, l // self.p)
        key = (tau, mexp)
        vals = self.chains.get(key)
        if vals is None:
            vals = []
            self.chains[key] = vals
        if l < len(vals):
            return vals[l]
        cap = min(l, self._final_cap(tau, mexp))
        while len(vals) <= cap:
            vals.append(self._chain_compute(tau, mexp, len(vals), True))
        if l < len(vals):
            return vals[l]
        return self._chain_compute(tau, mexp, l, False)  # transient

    def _chain_compute(self, tau, mexp, l, final):
        dom, p = self.dom, self.p
        mp = mexp // p
        small = self._twist_power(tau, mexp % p)
        key = (tau, mexp, l)
        rest = self.partials.pop(key, None) if final else \
            self.partials.get(key)
        if mp < p:
            inner = self._twist_power(tau + 1, mp)
        else:
            inner = [self.coef(tau + 1, mp, b) for b in
                     range(1 if rest is not None else l // p + 1)]
        if rest is None:
            rest = dom.dot([(inner[b], small[l - p * b])
                            for b in range(1, l // p + 1)])
            if not final and l - p <= self.frontier and \
                    l // p <= self._final_cap(tau + 1, mp):
                self.partials[key] = rest
        return dom.dot([(rest, dom.one), (inner[0], small[l])])


# ---------------------------------------------------------------------------
# the fast kernels over a field: blocks and relaxed products
# ---------------------------------------------------------------------------

class BlockLeft:
    """The left side with the fixed phi's added in blocks.

    A block phi_J..phi_(J+B-1) enters only degrees from dJ on, where it
    adds y^(dJ) u^(J+1) P(w) with P(z) = sum_i phi_(J+i) z^i.  So the phi's
    are kept until a read reaches degree dJ, and then added as one block.
    How long a block grows is the slack between dJ and the degrees the
    engine reads meanwhile: nothing to tune.  P(w) is formed by
    baby-step/giant-step: with k about sqrt(B), the baby steps w^i = y^(di)
    u^i (i <= k, each cut at the block's last degree and kept for the
    later, shorter blocks) give each giant-step coefficient
    Q_m = sum_(i<k) phi_(J+mk+i) w^i, and P(w) = sum_m w^(km) Q_m by
    Horner's rule, one ``conv`` with u^k per step.
    """

    def __init__(self, dom, unit, d, n_hi):
        self.dom, self.d, self.n_hi = dom, d, n_hi
        self.unit = unit
        self.acc = unit                     # phi_0 W_0 = u
        self.start, self.block = 1, []      # the phi's from start on, kept
        self.baby = [dom.vector([dom.one]), unit]   # u^i
        self.upow = (1, unit)               # (e, u^e), e <= start + 1

    def assign(self, j, value):
        self.block.append(value)

    def coef(self, n):
        if self.block and n >= self.d * self.start:
            self._flush()
        return self.acc[n]

    def unknown_coef(self, n, h):
        """W_h[n] = u^(h+1)[n - dh]: for h the pending block's start (the
        unknown, whenever it enters a read), from u^(h+1), which that
        block needs anyway; otherwise by squaring."""
        t = n - self.d * h
        if t < 0:
            return self.dom.zero
        if h != self.start:
            return self._unit_power(h + 1, t)[t]
        self.upow = (h + 1, self._unit_power(h + 1, self.n_hi - self.d * h,
                                             *self.upow))
        return self.upow[1][t]

    def _unit_power(self, e, t, e0=0, out=None):
        """u^e to degree t: ``out`` = u^e0 (None for e0 = 0) times
        u^(e - e0) by squaring."""
        conv, base = self.dom.conv, self.unit
        e -= e0
        while e:
            if e & 1:
                out = base if out is None else conv(out, base, t)
            e >>= 1
            if e:
                base = conv(base, base, t)
        return out

    def _flush(self):
        dom, d, n_hi = self.dom, self.d, self.n_hi
        conv, add_shifted = dom.conv, dom.add_shifted
        phis, start = self.block, self.start
        self.start, self.block = start + len(phis), []
        top = n_hi - d * start              # the block's last degree, from dJ
        phis = phis[: top // d + 1]         # phi_h enters from degree dh on
        if top < 0 or all(dom.is_zero(c) for c in phis):
            return
        k = math.isqrt(len(phis) - 1) + 1
        baby = self.baby
        while len(baby) <= k:       # none is read past the block's top
            baby.append(conv(baby[-1], self.unit, top - d * len(baby)))
        horner = None
        for m in range((len(phis) - 1) // k, -1, -1):
            tm = top - d * k * m            # >= 0, as phis stop at top // d
            chunk = phis[m * k: m * k + k]
            # Q_m to degree tm, or its constant term when it is one phi
            width = tm + 1 if len(chunk) > 1 else 1
            q = ()                          # Q_m, a sum of no terms yet
            for i, c in enumerate(chunk):
                if not dom.is_zero(c) and d * i < width:
                    term = [c] if i == 0 else \
                        conv([c], baby[i], width - 1 - d * i)
                    q = add_shifted(q, term, d * i, width)
            if horner is not None and tm >= d * k:
                q = add_shifted(q, conv(baby[k], horner, tm - d * k), d * k,
                                tm + 1)
            horner = q
        # u^(J+1) from the last power formed, whose cut is longer
        upow = self._unit_power(start + 1, top, *self.upow)
        self.upow = (start + 1, upow)
        self.acc = add_shifted(self.acc, conv(upow, horner, top), d * start,
                               n_hi + 1)


# a relaxed product adds its terms a_i b_j with min(i, j) below this a
# column at a time, and the others in squares from this size on
_STRIP = 32


class RelaxedRight:
    """The chains as relaxed products of online series.

    (T^tau phi)^M is a tree of nodes: the twist psi = T^tau phi; for
    1 < M < p the product psi * psi^(M-1); for M >= p the dilation of
    (T^(tau+1) phi)^(M // p) to y^p, times psi^(M mod p) unless that is 1.
    Every node keeps its coefficients up to the frontier, the last fixed
    phi, and reads the coefficient just past it with that unknown as zero.

    A product h = a * b of two online series with a_0 = b_0 = 1 (as every
    node has, since phi_0 = 1) adds its terms a_i b_j, i, j >= 1, into a
    running sum as soon as both factors are final, from degree n + 1 on
    when the frontier reaches n: the strip min(i, j) < 32 a column at a
    time, a[1:32] b_n and b[1:32] a_n, each a one-term ``conv``; the rest
    in squares, for each s = 2^k >= 32 dividing n + 1 with n + 1 >= 2s the
    square a[s:2s] x b[n+1-s:n+1] and, when n + 1 > 2s, its mirror, each
    one ``conv``.  Every term with i + j = l is in the sum by the time the
    frontier reaches l - 1, so h_l = sum + a_l + b_l: the newest diagonal
    is the two terms that read the unknown.  A read further ahead
    multiplies the whole truncated series.
    """

    def __init__(self, dom, n_hi):
        self.dom, self.n_hi = dom, n_hi
        self.phis = [dom.one]
        self.nodes = {}

    def assign(self, j, value):
        self.phis.append(value)

    def coef(self, tau, mexp, l):
        if l < 0 or l > self.n_hi:
            return self.dom.zero
        return self._node(tau, mexp).coef(l)

    def _node(self, tau, mexp):
        node = self.nodes.get((tau, mexp))
        if node is None:
            p = self.dom.p
            if mexp == 1:
                node = _Twist(self, tau)
            elif mexp < p:
                node = _Product(self, self._node(tau, 1),
                                self._node(tau, mexp - 1))
            else:
                node = _Dilate(self, self._node(tau + 1, mexp // p))
                if mexp % p:
                    node = _Product(self, self._node(tau, mexp % p), node)
            self.nodes[(tau, mexp)] = node
        return node


class _Twist:
    """psi = T^tau phi: coefficient l is phi_l's Frobenius twist."""

    def __init__(self, kern, tau):
        self.kern, self.tau, self.vals = kern, tau, []

    def sync(self):
        vals, phis = self.vals, self.kern.phis
        if len(vals) < len(phis):
            frob, tau = self.kern.dom.frob, self.tau
            vals += [frob(v, tau) for v in phis[len(vals):]]
        return vals

    def coef(self, l):
        vals = self.sync()
        return vals[l] if l < len(vals) else self.kern.dom.zero

    def series(self, n):
        vals = self.sync()[: n + 1]
        return vals + [self.kern.dom.zero] * (n + 1 - len(vals))


class _Dilate:
    """s(y^p) for an online series s."""

    def __init__(self, kern, inner):
        self.kern, self.inner, self.vals = kern, inner, []

    def sync(self):
        vals, inner, p = self.vals, self.inner, self.kern.dom.p
        zero, top = self.kern.dom.zero, len(self.kern.phis)
        while len(vals) < top:
            l = len(vals)
            vals.append(zero if l % p else inner.coef(l // p))
        return vals

    def coef(self, l):
        p = self.kern.dom.p
        return self.kern.dom.zero if l % p else self.inner.coef(l // p)

    def series(self, n):
        dom = self.kern.dom
        out = [dom.zero] * (n + 1)
        out[:: dom.p] = self.inner.series(n // dom.p)
        return out


class _Product:
    """a * b for online series a, b with a_0 = b_0 = 1 (see
    :class:`RelaxedRight`)."""

    def __init__(self, kern, a, b):
        self.dom, self.phis, self.a, self.b = kern.dom, kern.phis, a, b
        self.vals = []
        self.acc = [kern.dom.zero] * (kern.n_hi + 1)

    def sync(self):
        vals = self.vals
        if len(vals) < len(self.phis):
            av, bv = self.a.sync(), self.b.sync()
            while len(vals) < len(self.phis):
                self._step(len(vals), av, bv)
        return vals

    def _step(self, n, av, bv):
        dom = self.dom
        if n == 0:
            self.vals.append(dom.one)
            return
        self.vals.append(dom.add(self.acc[n], dom.add(av[n], bv[n])))
        # the strip: a_i b_n for i <= n and a_n b_i for i < n, i < _STRIP
        self._add_at(n + 1, av[1: min(_STRIP, n + 1)], bv[n])
        self._add_at(n + 1, bv[1: min(_STRIP, n)], av[n])
        top, s = n + 1, _STRIP
        while top % s == 0 and top >= 2 * s and top < len(self.acc):
            cut = min(2 * s - 2, len(self.acc) - 1 - top)
            prod = dom.conv(av[s: 2 * s], bv[top - s: top], cut)
            self._add_at(top, prod)
            if top > 2 * s:
                if self.a is not self.b:    # else the mirror is prod
                    prod = dom.conv(bv[s: 2 * s], av[top - s: top], cut)
                self._add_at(top, prod)
            s *= 2

    def _add_at(self, off, terms, c=None):
        """Add the vector ``terms``, times the scalar c if one is given,
        into the running sum from degree off on."""
        dom, acc = self.dom, self.acc
        n = min(len(terms), len(acc) - off)
        if n <= 0 or c is not None and dom.is_zero(c):
            return
        if c is not None:
            terms = dom.conv([c], terms, n - 1)
        acc[off: off + n] = dom.add_shifted(acc[off: off + n], terms, 0, n)

    def coef(self, l):
        vals = self.sync()
        if l < len(vals):
            return vals[l]
        if l == len(vals):
            dom = self.dom
            return dom.add(self.acc[l], dom.add(self.a.coef(l),
                                                self.b.coef(l)))
        return self.series(l)[l]

    def series(self, n):
        return self.dom.conv(self.a.series(n), self.b.series(n), n)
