"""Exact arithmetic in finite fields F_{p^k}.

Elements are stored as integer codes: the coefficient vector (c_0, ..., c_{k-1})
in the polynomial basis of the modulus is packed as sum(c_i * p**i).  The
:class:`Field` object owns all arithmetic on codes (a "domain" in the sense
used by the series module); :class:`FieldElement` is a thin operator-overloading
wrapper around (field, code) for the public API.

Fields are canonical: ``field_create`` returns one shared descriptor per
(p, k, modulus).  Extensions are always built over the prime field, and
embeddings along the tower are computed once and cached.
"""

from __future__ import annotations

import functools
import random

from .errors import (
    CompositeP,
    DivisionByZero,
    FieldTooLarge,
    IncompatibleFields,
    NoRootInField,
    ReducibleModulus,
    ValidationError,
)
from .sides import BlockLeft, RelaxedRight

FIELD_CAP = 2 ** 64
_TABLE_LIMIT = 1 << 16      # build exp/log tables up to this field size

# byte v -> the numeral of v, so int(digits.translate(_NUMERALS)[::-1], p)
# reads a little-endian digit string back into a code when p <= 36
_NUMERALS = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"0")


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond the 2**64 field cap."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over a domain: code lists, low degree first, no trailing zeros
# ---------------------------------------------------------------------------

def _strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _support_len(codes, cap):
    """Length of codes[:cap] without its trailing zeros."""
    if type(codes) is bytes:
        return len(codes[:cap].rstrip(b"\0"))
    n = min(len(codes), cap)
    while n and codes[n - 1] == 0:
        n -= 1
    return n


def compose_by_powers(dom, outer, inner, og, t):
    """The first t+1 coefficients of outer(inner), for coefficient
    sequences of ``dom`` and an inner series of order og >= 1, as a vector.

    The power loop: inner**l has order exactly l*og (a product of leading
    coefficients is never an exact zero), so each power is one ``conv`` of
    the last with inner's tail, kept from l*og on, and outer[l] times it is
    added in by ``add_shifted``, l increasing.  Powers past the outer's
    last nonzero coefficient, or of order past t, are never formed.  The
    whole of ``LaurentDomain.compose`` and the leaf of ``Field.compose``."""
    zero = dom.is_zero
    deg = min(len(outer) - 1, t // og)
    while deg > 0 and zero(outer[deg]):
        deg -= 1
    out = dom.add_shifted(outer[:1], (), 0, t + 1)     # outer[0], padded
    tail, power = inner[og: t + 1], None
    for l in range(1, deg + 1):
        lo = l * og
        power = tail if power is None else dom.conv(power, tail, t - lo)
        if not zero(outer[l]):
            out = dom.add_shifted(out, dom.conv([outer[l]], power, t - lo),
                                  lo, t + 1)
    return out


def _poly_mul(dom, f, g):
    if not f or not g:
        return []
    return _strip(list(dom.conv(f, g, len(f) + len(g) - 2)))


def _poly_sub(dom, f, g):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return _strip([dom.sub(a, b) for a, b in zip(f, g)])


def _poly_divmod(dom, f, g):
    """(f // g, f mod g) for nonzero g; each quotient digit c adds -c
    times the low terms of g."""
    f = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(f) - dg)
    terms = [(i, c) for i, c in enumerate(g[:dg]) if c]
    add, mul, neg = dom.add, dom.mul, dom.neg
    inv = None if g[-1] == 1 else dom.inv(g[-1])
    while len(f) > dg:
        c = f.pop()
        if c:
            if inv is not None:
                c = mul(c, inv)
            shift = len(f) - dg
            q[shift] = c
            c = neg(c)
            for i, gi in terms:
                f[shift + i] = add(f[shift + i], mul(c, gi))
    return _strip(q), _strip(f)


def _poly_monic(dom, f):
    if not f or f[-1] == 1:
        return list(f)
    c = dom.inv(f[-1])
    return [dom.mul(a, c) for a in f]


def _poly_gcd(dom, f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, _poly_divmod(dom, f, g)[1]
    return _poly_monic(dom, f)


def _poly_powmod(dom, f, e, g):
    """f**e mod g, g monic."""
    r = [1]
    f = _poly_divmod(dom, f, g)[1]
    while e:
        if e & 1:
            r = _poly_divmod(dom, _poly_mul(dom, r, f), g)[1]
        f = _poly_divmod(dom, _poly_mul(dom, f, f), g)[1]
        e >>= 1
    return r


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _first_factor_degree(field, f, limit):
    """Distinct-degree search for monic f over ``field`` (q elements): the
    first delta <= limit with gcd(f, x**(q**delta) - x) != 1, else None."""
    x = [0, 1]
    y = x
    for delta in range(1, limit + 1):
        y = _poly_powmod(field, y, field.q, f)
        if len(_poly_gcd(field, f, _poly_sub(field, y, x))) != 1:
            return delta
    return None


def _is_irreducible(f, p, start=1):
    """Ben-Or's test for monic f over Z_p: a reducible f of degree n has a
    factor of degree d <= n/2, which divides x**(p**d) - x.

    x**(p**d) mod f comes from the fold-row product built from f.  The
    x**(p**d) - x are multiplied together mod f and the product's gcd with
    f (:meth:`_FoldProduct.gcd`) is taken at d = 1, 2, 4, 8, .. and n/2, so a
    factor of degree d shows at the first of those at or after d, for a
    gcd per doubling of d instead of one per d.  A caller that has ruled
    out every factor of degree below ``start`` passes it."""
    n = len(f) - 1
    last = n // 2
    if n <= 1 or start > last:
        return n >= 1
    ring = _FoldProduct(p, f)
    y, acc = p, 1                               # p: the code of x
    for d in range(1, last + 1):
        y = ring.pow(y, p)
        if d < start:
            continue
        # the code of x**(p**d) - x: one off the digit of x, mod p
        h = y - p if y // p % p else y + (p - 1) * p
        acc = h if acc == 1 else ring.mul(acc, h)
        if d & (d - 1) == 0 or d == last:
            if len(ring.gcd(f, ring.digits(acc))) != 1:
                return False
            acc = 1
    return True


def _factor_sieve(p, k):
    """(test, top): ``test(f)`` is true when the monic f of degree k over
    F_p (a code list, low degree first) has no factor of degree <= top, the
    least of k // 2 and the largest d with p**d <= 128 (for p = 3 a sieve
    to degree 5, over F_{3^5}, dropped no candidate of the (3, 27) search
    that degree 4 kept); top is 0 unless a byte holds a digit product,
    (p - 1)**2 < 256.

    A factor of degree e <= top means a root in F_{p^d} for the multiple d
    of e in (top/2, top], so f is evaluated at every nonzero a of those
    fields at once.  The digits of a**i over all the points, digit plane
    by digit plane, are one int per exponent i, one byte a digit; f(a) is
    the sum of c_i times those ints, reduced by translates whenever a byte
    could overflow, and a point whose planes are all 0 is a root."""
    top = 0
    while (p - 1) ** 2 < 256 and p ** (top + 1) <= 128 and top < k // 2:
        top += 1
    # the points g**t, t < q - 1, of each field, as its exp table
    exps = [bytes(field_create(p, d)._exp)
            for d in range(top // 2 + 1, top + 1)]
    n = sum(map(len, exps))
    size = n * top
    tabs = _digit_tables(p)
    byte_mod, step = tabs.byte_mod, (p - 1) ** 2
    powers = {}

    def planes(i):
        # digit j of a**i over every point a: byte j*n + t for point t;
        # (g**t)**i is exp[t*i mod (q-1)], every i-th entry of exp repeated
        x = powers.get(i)
        if x is None:
            codes = b"".join((e * i)[::i] if i else b"\1" * len(e)
                             for e in exps)
            x = powers[i] = int.from_bytes(b"".join(
                codes.translate(tabs.planes[j]) for j in range(top)),
                "little")
        return x

    def test(f):
        if not top:
            return True
        if not f[0]:        # a root at 0
            return False
        acc, room = 0, 255
        for i, c in enumerate(f):
            if c:
                if room < step:
                    acc = int.from_bytes(acc.to_bytes(size, "little")
                                         .translate(byte_mod), "little")
                    room = 256 - p
                acc += c * planes(i)
                room -= step
        digits = acc.to_bytes(size, "little").translate(byte_mod)
        nonzero = 0
        for j in range(0, size, n):
            nonzero |= int.from_bytes(digits[j: j + n], "little")
        return 0 not in nonzero.to_bytes(n, "little")
    return test, top


@functools.cache
def default_modulus(p, k):
    """Deterministic monic irreducible of degree k over Z_p.

    The search counts an index upward and unpacks it base p into the low
    coefficients (c_0 least significant), so two runs agree bit for bit.
    A candidate with a root at 0, 1 or -1 is reducible and skips Ben-Or's
    test, and so does, for p <= 16, one with a factor of degree up to a
    bound found by evaluation over small fields (:func:`_factor_sieve`);
    the test starts past that bound.  Memoized: every climb of the tower
    asks again for the same (p, k).
    """
    if k == 1:
        return (0, 1)
    sieve, top = _factor_sieve(p, k)
    idx = 1
    while True:
        c, rest = [], idx
        for _ in range(k):
            c.append(rest % p)
            rest //= p
        if rest == 0 and c[0] != 0:
            f = c + [1]
            if sum(f) % p and (sum(f[::2]) - sum(f[1::2])) % p and \
                    sieve(f) and _is_irreducible(f, p, top + 1):
                return tuple(f)
        if rest:
            raise ReducibleModulus(f"no irreducible of degree {k} found mod {p}")
        idx += 1


# ---------------------------------------------------------------------------
# digit vectors packed in ints: tables per p, products mod a monic polynomial
# ---------------------------------------------------------------------------

def _radix_table(digits, base, places):
    """Entry x: the sum of digits[x_i] * base**places[i] over the digits
    x_i of x in radix len(digits), low first; one comprehension a digit."""
    out = [0]
    for i in places:
        w = base ** i
        out = [v + c * w for c in digits for v in out]
    return out


class _DigitTables:
    """Tables of base-p digits, built once per p by :func:`_digit_tables`
    and shared by every field and ring of characteristic p.

    For ``bytes.translate`` (p < 256): ``byte_mod`` and ``planes[i]`` take
    a byte v to v % p and v // p**i % p, for the p**(i+1) <= 256;
    ``plane_digits[x]`` are the digits of x below p**len(planes).
    """

    def __init__(self, p):
        self.p = p
        self.byte_mod = None
        self.planes = []
        if p < 256:
            self.byte_mod = bytes(v % p for v in range(256))
            while p ** (len(self.planes) + 1) <= 256:
                w = p ** len(self.planes)
                self.planes.append(bytes(v // w % p for v in range(256)))
        self.plane_digits = [bytes(plane[x] for plane in self.planes)
                             for x in range(p ** len(self.planes))]


_digit_tables = functools.cache(_DigitTables)


@functools.cache
def _byte_weight(p, j):
    """The translate table of byte j of a slot: v -> v * 256**j % p."""
    return bytes(v * pow(256, j, p) % p for v in range(256))


class _FoldProduct:
    """Products of codes modulo a monic f of degree n over Z_p, with no
    table of the p**n residues: the packed-digit layer of the field kernel.

    A code packs the digit vector (c_0, ..., c_(n-1)) as sum(c_i * p**i).
    :meth:`planes` lays codes out in strides of 2n-1 slots, digit j of code
    i in slot i*stride + j, and :meth:`spread` packs the slots into one
    int; two such ints multiply once, each slot wide enough for its digit
    sum.  :meth:`reduce` takes every slot mod p, :meth:`fold` folds slots
    n .. 2n-2 of every stride back along ``fold_rows`` (x**n .. x**(2n-2)
    mod f at ``width`` bytes a slot, enough for n*(p-1)**2) by
    :meth:`along`, the step :meth:`linear` applies a matrix with, and
    :meth:`codes` reads codes back.  One product is the case of one code a
    side (:meth:`digits`, :meth:`code`).  A sum is the same steps with no
    product and no fold: the digits of each code at one ``sum_width``-byte
    slot apiece, added as ints and reduced (:meth:`add`, :meth:`neg`).
    """

    def __init__(self, p, f):
        n = len(f) - 1
        self.p, self.n, self.stride = p, n, 2 * n - 1
        self.modulus = tuple(f)
        self.width = (n * (p - 1) ** 2).bit_length() + 7 >> 3
        self.tables = _digit_tables(p)
        # codes are cut into chunks of ``span`` digits, a byte when p < 256
        self.span = span = max(1, min(n, len(self.tables.planes)))
        self.base = p ** span
        self.span_weights = sum(p ** (span - 1 - i) << 8 * i
                                for i in range(span))
        # a slot wide enough for two digits, and p in every one of n slots
        self.sum_width = (2 * p - 1).bit_length() + 7 >> 3
        self.p_slots = self.spread([p] * n, self.sum_width)
        row = x_n = [(-c) % p for c in f[:n]]
        packed = self.spread(row, self.width)
        self.fold_rows = []
        for _ in range(n - 1):
            self.fold_rows.append(packed)
            # times x: up one digit, the digit of x**n folded back; with
            # that digit 0 (most rows, when f's low part is short) a shift
            top, row = row[-1], [0] + row[:-1]
            if top:
                row = [(lo + top * c) % p for lo, c in zip(row, x_n)]
                packed = self.spread(row, self.width)
            else:
                packed <<= 8 * self.width

    def digits(self, code):
        """The n digits of a code, low first: bytes when p < 256."""
        out, n = [], self.n
        if self.p >= 256:
            for _ in range(n):
                code, d = divmod(code, self.p)
                out.append(d)
            return out
        plane_digits = self.tables.plane_digits
        size = len(plane_digits)
        while code:
            code, x = divmod(code, size)
            out.append(plane_digits[x])
        return b"".join(out).ljust(n, b"\0")[:n]

    def code(self, digits):
        """The code of a digit sequence (values below p), low first."""
        p = self.p
        if p <= 36:
            return int(bytes(digits).translate(_NUMERALS)[::-1], p)
        code = 0
        for d in reversed(digits):
            code = code * p + d
        return code

    def pack(self, code):
        return self.spread(self.digits(code), self.width)

    def spread(self, digits, width):
        """One int holding digits[i] in the i-th slot of ``width`` bytes."""
        if width == 1:
            return int.from_bytes(digits, "little")
        if self.p >= 256:
            return int.from_bytes(b"".join(d.to_bytes(width, "little")
                                           for d in digits), "little")
        buf = bytearray(len(digits) * width)
        buf[::width] = digits
        return int.from_bytes(buf, "little")

    def planes(self, codes, stride):
        """Digit j of codes[i] in slot i*stride + j, zeros elsewhere: bytes
        when p < 256, where each digit of a chunk is one translate."""
        p, n, span = self.p, self.n, self.span
        out = bytearray(len(codes) * stride) if p < 256 else \
            [0] * (len(codes) * stride)
        for j in range(0, n, span):
            chunk = codes if n <= span else \
                [c // p ** j % self.base for c in codes]
            if p >= 256:
                out[j::stride] = chunk
                continue
            chunk = bytes(chunk)
            for i, plane in enumerate(self.tables.planes[: n - j]):
                out[j + i::stride] = chunk.translate(plane)
        return out

    def reduce(self, x, count, width):
        """The first ``count`` width-byte slots of x, each mod p: bytes when
        p < 256.  For p <= 128, byte j of each slot becomes its weight mod
        p by a translate, and the weights sum in a byte, reduced by one more
        translate whenever the next could overflow it."""
        size = count * width
        if x.bit_length() > 8 * size:
            x &= (1 << 8 * size) - 1
        raw = x.to_bytes(size, "little")
        if width == 1:
            return raw.translate(self.tables.byte_mod)
        p, byte_mod = self.p, self.tables.byte_mod
        if p > 128:
            digits = [int.from_bytes(raw[i: i + width], "little") % p
                      for i in range(0, size, width)]
            return bytes(digits) if p < 256 else digits
        acc = top = 0       # top: the largest a byte of acc can hold
        for j in range(width):
            if top + p > 256:
                acc = int.from_bytes(acc.to_bytes(count, "little").translate(
                    byte_mod), "little")
                top = p - 1
            acc += int.from_bytes(
                raw[j::width].translate(_byte_weight(p, j)), "little")
            top += p - 1
        return acc.to_bytes(count, "little").translate(byte_mod)

    def along(self, whole, rows, first, ones):
        """The sum over e of rows[e] times slot first + e of every stride of
        the packed int whole, each stride's foot marked by a 1 in ones."""
        bits = 8 * self.width
        slot, acc = ones * ((1 << bits) - 1), 0
        for e, row in enumerate(rows, first):
            acc += (whole >> bits * e & slot) * row
        return acc

    def fold(self, digits, count, stride):
        """Reduced digits, slots n .. 2n-2 of every stride folded back into
        slots 0 .. n-1 and zeroed, up to slot n-1 of the last stride."""
        n, width = self.n, self.width
        if n == 1:
            return digits
        whole = self.spread(digits, width)
        ones = int.from_bytes(b"\1".ljust(stride * width, b"\0") * count,
                              "little")
        acc = whole & ones * ((1 << 8 * width * n) - 1)
        acc += self.along(whole, self.fold_rows, n, ones)
        return self.reduce(acc, (count - 1) * stride + n, width)

    def codes(self, digits, count, stride):
        """The codes of folded digits, one a stride: bytes when q <= 256.
        Times ``span_weights`` every slot holds the code of the ``span``
        digits that end there, so a code is read as ceil(n/span) bytes."""
        n, span = self.n, self.span
        if span > 1:
            digits = (int.from_bytes(digits, "little") * self.span_weights
                      ).to_bytes(count * stride, "little")
        chunks = [digits[j + span - 1::stride] for j in range(0, n, span)]
        out = chunks.pop()
        for chunk in reversed(chunks):
            out = [c * self.base + d for c, d in zip(out, chunk)]
        return out

    def product(self, x, y, count, stride, width):
        """The folded digits of the first ``count`` strides of x * y."""
        return self.fold(self.reduce(x * y, count * stride, width), count,
                         stride)

    def mul(self, a, b):
        return self.code(self.product(self.pack(a), self.pack(b), 1,
                                      self.stride, self.width))

    def add(self, a, b):
        width = self.sum_width
        return self.code(self.reduce(self.spread(self.digits(a), width) +
                                     self.spread(self.digits(b), width),
                                     self.n, width))

    def neg(self, a):
        """p minus each digit, which the reduction takes to 0 for digit 0."""
        width = self.sum_width
        return self.code(self.reduce(self.p_slots -
                                     self.spread(self.digits(a), width),
                                     self.n, width))

    def pow(self, a, e):
        """a**e by squaring, packed from the first product to the last."""
        stride, width = self.stride, self.width
        x, r = self.pack(a), None
        while e:
            if e & 1:
                r = x if r is None else self.spread(
                    self.product(r, x, 1, stride, width), width)
            e >>= 1
            if e:
                x = self.spread(self.product(x, x, 1, stride, width), width)
        return 1 if r is None else self.code(self.reduce(r, self.n, width))

    def gcd(self, a, b):
        """The monic gcd of two polynomials over Z_p, digit sequences low
        first, as a list: Euclid on the digits packed one ``width``-byte
        slot apiece.  Each quotient digit c of x mod a monic y adds
        (p - c) * y under x's leading slot, which takes that slot to p, and
        reduces once: a slot then holds at most p(p - 1) <= 2(p - 1)**2,
        within the width for n >= 2."""
        p, width, reduce, spread = self.p, self.width, self.reduce, \
            self.spread
        bits = 8 * width
        x, y = spread(a, width), spread(b, width)
        while y:
            dy = (y.bit_length() - 1) // bits
            c = y >> bits * dy
            if c != 1:
                y = spread(reduce(y * pow(c, -1, p), dy + 1, width), width)
            while x:
                dx = (x.bit_length() - 1) // bits
                if dx < dy:
                    break
                x += (p - (x >> bits * dx)) * y << bits * (dx - dy)
                x = spread(reduce(x, dx, width), width)
            x, y = y, x
        if not x:
            return []
        dx = (x.bit_length() - 1) // bits
        return list(reduce(x * pow(x >> bits * dx, -1, p), dx + 1, width))

    def linear(self, cols, a):
        """The digits of the image of code a under the F_p-linear map that
        takes x**i to the digits packed in cols[i]."""
        return self.reduce(self.along(self.pack(a), cols, 0, 1), self.n,
                           self.width)


# ---------------------------------------------------------------------------
# the field kernel
# ---------------------------------------------------------------------------

_REGISTRY = {}


class Field:
    """Descriptor plus arithmetic kernel for F_{p^k}.

    All kernel methods act on integer codes.  Vectors of codes have one
    type per field, :attr:`vector` (bytes when q <= 256, else list): the
    vector kernels ``conv``, ``add_shifted`` and ``compose`` take any
    sequence of codes and give back a new vector of that type, writing
    into no argument.  Do not instantiate directly; use
    :func:`field_create` so descriptors stay canonical.  Descriptors are
    immutable after construction and safe to share; the lazily filled
    embedding and Frobenius caches only ever grow and their entries are
    pure, so concurrent readers cannot observe a wrong value.  One more
    cache holds a single entry: the last additive map solved, with its
    reduced form (:func:`additive_roots`).  A solve over one field asks
    for the same map many times in a row, so one slot is as good as an
    unbounded cache there.  The slot is set in ``_build_tables`` with
    every other attribute and replaced as one tuple, so a reader sees the
    old map or the new one, each whole and pure, and never half of either.

    Fields up to 2**16 elements multiply through exp/log tables.  Above
    that, products, powers and inverses go through the fold-row product
    (:class:`_FoldProduct`) and the Frobenius through its matrix.  Each
    field adds by one rule (:meth:`add`): xor, mod p, the exp chain's
    radix-(2p-1) respread up to 2**16 elements, or one packed sum above.
    """

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1
        # the one type of the vectors the kernels give back: codes fit a
        # byte when q <= 256
        self.vector = bytes if self.q <= 256 else list
        self._emb = {}
        self._frob = {}     # m -> codes and packed slots of the basis images
        self._ring = _FoldProduct(p, self.modulus)
        self._build_tables()

    # -- construction helpers ----------------------------------------------

    def _decode(self, code):
        return list(self._ring.digits(code))

    def _raw_mul(self, a, b):
        """Table-free multiplication; used to bootstrap the tables."""
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._ring.mul(a, b)

    def _raw_pow(self, a, e):
        if self.k == 1:
            return pow(a, e, self.p)
        return self._ring.pow(a, e)

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        self._exp = self._log = self._neg_tab = None
        # byte v -> v % p: reduces every one-byte slot of a packed sum or
        # product in one bytes.translate; a byte holds any sum of two digits
        self._mod_bytes = None
        if k == 1 and 2 * (p - 1) < 256:
            self._mod_bytes = _digit_tables(p).byte_mod
        # odd p, k > 1, up to 2**16 elements: codes respread to radix
        # r = 2p-1 (``_spread``) add with no carry, and a sum s reads back
        # mod p as lo[s % R] + hi[s // R], its low h and high k-h digits
        # (``_unspread`` = (R, lo, hi)); the exp chain adds by them too
        self._spread = self._unspread = None
        # codes add packed one to a byte: xor over F_{2^k}; for odd p, when
        # (2p-1)**k <= 256, every respread code (``_add_in``, none over
        # F_p) is a byte and the byte sums read back through ``_add_out``,
        # as one scalar sum does in ``add``
        self._byte_add = p == 2 and q <= 256 or \
            p != 2 and (2 * p - 1) ** k <= 256
        self._add_in, self._add_out = None, self._mod_bytes
        # translate tables of bytes vectors when q <= 256: the logs (q - 1
        # for the log of 0), the Frobenius, and c -> the row of y -> c*y
        # (all zeros for c = 0, so conv scales by a zero digit unchecked).
        # Every attribute is set here, in one order, on every field: one
        # added later would slow every attribute read of that field
        self._log_row = self._frob_row = None
        self._rows = {0: bytes(256)}
        # the last additive map solved over this field, with its reduced
        # form: (terms, cols, free, kernel), see :func:`additive_roots`
        self._additive = None
        # the most terms a one-byte slot of an F_p product can sum
        self._byte_terms = 255 // (p - 1) ** 2 if k == 1 else 0
        # conv scales copies of the longer operand when the shorter has
        # fewer terms than this: one over a table field, and fewer than k
        # over F_{2^k} and the odd-p fields of at most 256 elements
        self._scale_terms = 0
        if q > _TABLE_LIMIT:
            return
        self._scale_terms = max(k, 2) if p == 2 or q <= 256 else 2
        h = (k + 1) // 2
        if p != 2 and k > 1:
            # each table over the low h digits and the high k-h apart; a
            # whole table is their sums, the low index running fastest
            r, halves = 2 * p - 1, (range(h), range(h, k))
            lo, hi = (_radix_table(range(p), r, part) for part in halves)
            self._spread = [x + y for y in hi for x in lo]
            lo, hi = (_radix_table([d % p for d in range(r)], p, part)
                      for part in halves)
            self._unspread = (r ** h, lo, hi)
            if self._byte_add:
                self._add_in = bytes(self._spread).ljust(256, b"\0")
                self._add_out = bytes(x + y for y in hi
                                      for x in lo).ljust(256, b"\0")
        factors = _prime_factors(q - 1) if q > 2 else []
        g = 1  # q == 2
        # a constant of F_p has order dividing p - 1 < q - 1 when k > 1
        for cand in range(p if k > 1 else 2, q):
            if all(self._raw_pow(cand, (q - 1) // t) != 1 for t in factors):
                g = cand
                break
        # x -> g*x is F_p-linear: split x = lo + P*hi and add the images of
        # the halves, each half table summed digit by digit from the images
        # of d*p**i, (p-1)*k products in all
        P = p ** h
        add = self.add
        lo_tab, hi_tab = [0], [0]
        for i in range(k):
            tab = lo_tab if i < h else hi_tab
            col = [0] + [self._raw_mul(g, d * p ** i) for d in range(1, p)]
            tab[:] = [add(v, c) for c in col for v in tab]
        exp = [1] * (q - 1)
        x = 1
        if p == 2:
            for i in range(1, q - 1):
                x = exp[i] = lo_tab[x & P - 1] ^ hi_tab[x >> h]
        elif k == 1:
            for i in range(1, q - 1):
                x = exp[i] = lo_tab[x]
        else:
            # the two images respread, added and read back, as in ``add``
            spread, (R, lo_out, hi_out) = self._spread, self._unspread
            lo_tab = [spread[v] for v in lo_tab]
            hi_tab = [spread[v] for v in hi_tab]
            for i in range(1, q - 1):
                s = lo_tab[x % P] + hi_tab[x // P]
                x = exp[i] = lo_out[s % R] + hi_out[s // R]
        log = [-1] * q
        for i, c in enumerate(exp):
            log[c] = i
        self._exp, self._log = exp, log
        if p != 2:  # -1 = g**((q-1)/2); negation is the identity when p = 2
            # -g**i = g**(i + (q-1)/2): the exp table turned by half a turn
            half = (q - 1) // 2
            self._neg_tab = neg = [0] * q
            for c, d in zip(exp, exp[half:] + exp[:half]):
                neg[c] = d
        if q <= 256:
            self._log_row = bytes([q - 1] + log[1:]).ljust(256, b"\0")
            self._frob_row = bytes([0] + [exp[log[a] * p % (q - 1)]
                                          for a in range(1, q)]).ljust(256,
                                                                       b"\0")

    # -- kernel ops on codes -------------------------------------------------

    def add(self, a, b):
        """a + b: (a + b) % p over F_p, xor over F_{2^k}, by ``_spread``
        over the odd-p table fields with k > 1, read back in one lookup of
        ``_add_out`` when (2p-1)**k <= 256, and one packed sum
        (:meth:`_FoldProduct.add`) over the other fields."""
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        spread = self._spread
        if spread is not None:
            s = spread[a] + spread[b]
            out = self._add_out
            if out is not None:
                return out[s]
            R, lo, hi = self._unspread
            return lo[s % R] + hi[s // R]
        return self._ring.add(a, b)

    def neg(self, a):
        """-a: the identity when p = 2, the table up to 2**16 elements,
        -a % p over a larger F_p, and one packed negation above that."""
        if self.p == 2:
            return a
        if self._neg_tab is not None:
            return self._neg_tab[a]
        if self.k == 1:
            return -a % self.p
        return self._ring.neg(a)

    def sub(self, a, b):
        if self.k == 1:     # one call, not three, for the F_p subtractions
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def add_shifted(self, lo, hi, off, n):
        """The first n coefficients of lo + x**off * hi, for code
        sequences lo and hi and off >= 0, as a new :attr:`vector`.

        Codes below 256 pack one to a byte: over F_{2^k} the two packed ints
        are xored; over F_p with 2(p-1) < 256, and over F_{p^k} with
        (2p-1)**k <= 256 once each code is respread to radix 2p-1 by a
        translate, they are added, which carries nothing from one byte
        into the next, and every byte is read back mod p by one translate.
        Otherwise the codes add one by one: xor when p = 2, and by ``add``
        over odd p.
        """
        top = len(hi) if len(hi) < n - off else n - off
        if self._byte_add:
            a, b = lo[:n], hi[:top]
            if self._add_in is not None and top > 0:
                a = bytes(a).translate(self._add_in)
                b = bytes(b).translate(self._add_in)
            if top <= 0:
                return int.from_bytes(a, "little").to_bytes(n, "little")
            if self.p == 2:
                return (int.from_bytes(a, "little") ^
                        int.from_bytes(b, "little") << 8 * off
                        ).to_bytes(n, "little")
            return (int.from_bytes(a, "little") +
                    (int.from_bytes(b, "little") << 8 * off)
                    ).to_bytes(n, "little").translate(self._add_out)
        out = list(lo[:n])
        out += [0] * (n - len(out))
        if top > 0:
            pairs = zip(out[off: off + top], hi[:top])
            if self.p == 2:
                out[off: off + top] = [x ^ y for x, y in pairs]
            else:
                add = self.add
                out[off: off + top] = [add(x, y) for x, y in pairs]
        return out if self.vector is list else bytes(out)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._raw_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self._raw_pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def conv(self, a, b, n):
        """The first n+1 coefficients of the product of the code sequences
        a and b, as a new :attr:`vector`.

        Kronecker substitution through the packed-digit layer
        (:class:`_FoldProduct`), slots wide enough for the largest digit sum
        min(len)*k*(p-1)**2.  Two branches, chosen by operand length, stay
        in front, each timed faster than the layer on the operands the
        benchmark pool gives it.  Over a table field, a shorter operand of
        one term, or of fewer than k over F_{2^k} and the odd-p fields of
        at most 256 elements, scales shifted copies of the longer one
        through the exp/log tables, one translate each on bytes, and the
        copies after the first are added by :meth:`add_shifted`: a
        one-term operand, the engine's updates of whole vectors, is one
        translate.  Over F_p with one-byte slots, the layer's stride-1,
        width-1 case runs inline: about 1 us a call against 5-6 us through
        the layer, for the short F_p products of the normal-form and fuzz
        pools (some 1,300 calls an nf-high-order pool pass, 1,070 a
        fuzz-small one).
        """
        if n < 0:
            return self.vector(())
        if self.vector is bytes:
            # bytes are taken at their length unscanned: a zero digit at
            # the end can only widen a slot; others lose it at conversion
            if type(a) is not bytes:
                a = bytes(a[: n + 1]).rstrip(b"\0")
            if type(b) is not bytes:
                b = bytes(b[: n + 1]).rstrip(b"\0")
            la = len(a) if len(a) <= n else n + 1
            lb = len(b) if len(b) <= n else n + 1
        else:
            la, lb = _support_len(a, n + 1), _support_len(b, n + 1)
        if not la or not lb:
            return self.vector(bytes(n + 1))
        if la < self._scale_terms or lb < self._scale_terms:
            if la > lb:
                a, b, la = b, a, lb
            out = self._scale(a[0], b, n)
            for i in range(1, la):
                if a[i]:
                    out = self.add_shifted(out, self._scale(a[i], b, n - i),
                                           i, n + 1)
            return out
        if la <= self._byte_terms or lb <= self._byte_terms:
            prod = int.from_bytes(a[:la], "little") * \
                int.from_bytes(b[:lb], "little")
            m = la + lb - 1
            out = prod.to_bytes(m if m > n else n + 1, "little")[: n + 1]
            return out.translate(self._mod_bytes)
        p, k = self.p, self.k
        m = min(n + 1, la + lb - 1)
        ring = self._ring
        stride = ring.stride
        width = (min(la, lb) * k * (p - 1) ** 2).bit_length() + 7 >> 3
        out = ring.codes(ring.product(
            ring.spread(ring.planes(a[:la], stride), width),
            ring.spread(ring.planes(b[:lb], stride), width),
            m, stride, width), m, stride)
        return out + self.vector(bytes(n + 1 - m))

    def _scale(self, c, v, n):
        """The first n+1 coefficients of c times the code sequence v, over
        a table field, as a vector: one translate through
        :meth:`_scale_row` on bytes."""
        if self.vector is bytes:
            return v[: n + 1].translate(self._scale_row(c)).ljust(n + 1,
                                                                  b"\0")
        exp, log, q1, lc = self._exp, self._log, self.q - 1, self._log[c]
        out = [exp[(lc + log[y]) % q1] if y else 0 for y in v[: n + 1]] \
            if c else []
        out += [0] * (n + 1 - len(out))
        return out

    def _scale_row(self, c):
        """The translate table of y -> c*y on the codes, over a field of at
        most 256 elements, built on first use for nonzero c: the logs read
        through the exp table turned by log c, with 0 at q - 1."""
        row = self._rows.get(c)
        if row is None:
            lc, exp = self._log[c], self._exp
            row = self._rows[c] = self._log_row.translate(
                bytes(exp[lc:] + exp[:lc] + [0]).ljust(256, b"\0"))
        return row

    def compose(self, outer, inner, og, t):
        """The first t+1 coefficients of outer(inner), for code sequences
        and an inner series of order og >= 1, as a new :attr:`vector`.

        The Frobenius split (Bernstein, "Composing power series over a
        finite ring in essentially linear time", J. Symbolic Comput. 26(3),
        1998): g**p = (Tg)(x**p) for T the coefficientwise Frobenius, so
        with F_i(y) = sum_k outer[i + p*k] y**k,

            F(g) = sum_(i<p) g**i * (F_i o Tg)(x**p),

        and F_i o Tg is needed only to (t - i*og) // p: p compositions of
        size t/p, plus fewer than 2p products of size t.  The leaf is the
        power loop (:func:`compose_by_powers`): an outer of degree below p,
        or one whose powers of the inner reach no further than degree 8.
        Over an exact field the two sum the same terms, so they agree
        coefficient for coefficient.
        """
        # converted once, so the split slices and twists the field's vectors
        return self._compose(self.vector(outer[: t // og + 1]),
                             self.vector(inner[: t + 1]), og, t)

    def _compose(self, outer, inner, og, t):
        p = self.p
        deg = _support_len(outer, t // og + 1) - 1
        if deg < p or deg * og <= 8:
            return compose_by_powers(self, outer, inner, og, t)
        if self.k == 1:
            twisted = inner
        elif self.vector is bytes:
            twisted = inner.translate(self._frob_row)
        else:
            twisted = [self.frob(c) for c in inner]
        out = self.vector(bytes(t + 1))
        # power: g**formed, kept from its order formed*og on
        tail, power, formed = inner[og:], None, 0
        for i in range(p):
            lo = i * og
            ti = (t - lo) // p
            part = outer[i::p]
            if lo > t or not _support_len(part, ti // og + 1):
                continue
            while formed < i:
                formed += 1
                power = tail if power is None else \
                    self.conv(power, tail, t - formed * og)
            sub = self._compose(part, twisted[: ti + 1], og, ti)
            dilated = [0] * (t - lo + 1)
            dilated[::p] = sub
            if power is not None:
                dilated = self.conv(power, dilated, t - lo)
            out = self.add_shifted(out, dilated, lo, t + 1)
        return out

    def left_side(self, unit, d, n_hi):
        """The engine's left-side kernel: fixed phi's added in blocks by
        baby-step/giant-step (:class:`~germ.sides.BlockLeft`)."""
        return BlockLeft(self, unit, d, n_hi)

    def right_side(self, n_hi, supp):
        """The engine's chain kernel: relaxed products
        (:class:`~germ.sides.RelaxedRight`); over a field no sum's order
        matters, so the registered support is not read."""
        return RelaxedRight(self, n_hi)

    def dot(self, pairs):
        """The sum of x*y over the (x, y) code pairs, zero terms skipped."""
        add, mul, acc = self.add, self.mul, 0
        for x, y in pairs:
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def packed_mod(self, terms):
        """The byte v -> v % p table when a one-byte slot holds a reduced
        digit plus `terms` digit products, so acc + x*y over units of at
        most `terms` digits adds packed and reduces in one translate; else
        None."""
        p1 = self.p - 1
        if self._mod_bytes is not None and p1 + terms * p1 * p1 <= 255:
            return self._mod_bytes
        return None

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        return self._raw_pow(a, e)

    def frob(self, a, m=1):
        """a**(p**m): a power through the tables, and on a table-free field
        the F_p-linear Frobenius matrix, whose columns are the images of the
        basis (:meth:`_frob_images`)."""
        if self._exp is None and self.k > 1:
            ring = self._ring
            return ring.code(ring.linear(self._frob_images(m)[1], a))
        return self.pow(a, self.p ** (m % self.k))

    def frob_root(self, a, m=1):
        """The unique root of y**(p**m) = a; finite fields are perfect.
        Frobenius has order k, so its inverse is k - m more applications."""
        return self.frob(a, -m % self.k)

    def _frob_images(self, m):
        """The codes of (alpha**i)**(p**m) for i < k, and the same packed as
        slot ints: the columns of the Frobenius matrix, found once per m."""
        m %= self.k
        images = self._frob.get(m)
        if images is None:
            beta = self.pow(self.p if self.k > 1 else 1, self.p ** m)
            codes = [1]
            for _ in range(self.k - 1):
                codes.append(self.mul(codes[-1], beta))
            packed = [self._ring.pack(c) for c in codes]
            images = self._frob[m] = (codes, packed)
        return images

    def min_poly(self, a):
        """The minimal polynomial of a over F_p, low degree first, as codes
        of the prime subfield; the same for every image of a in the tower."""
        orbit = [a]
        b = self.frob(a)
        while b != a:
            orbit.append(b)
            b = self.frob(b)
        poly = [1]
        for r in orbit:  # times (x - r): a linear factor needs no conv
            poly = [self.sub(hi, self.mul(r, lo))
                    for hi, lo in zip([0] + poly, poly + [0])]
        return tuple(poly)

    def from_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a == 0

    is_zero_to_prec = is_zero  # every field element is exact

    def to_vec(self, a):
        return tuple(self._decode(a))

    def from_vec(self, vec):
        if len(vec) > self.k:
            raise ValidationError("vector longer than the extension degree")
        return self._ring.code([c % self.p for c in vec] +
                               [0] * (self.k - len(vec)))

    def rand(self, rng):
        return rng.randrange(self.q)

    def elements(self):
        return range(self.q)

    def additive_roots(self, terms, q):
        """The solutions of sum(c * z**(p**s)) = q (see the module function
        :func:`additive_roots`); NeedExtension when there is none."""
        roots = additive_roots(self, terms, q)
        if roots:
            return roots
        coeffs = [0] * (self.p ** max(s for s, _ in terms) + 1)
        coeffs[0] = self.neg(q)
        for s, c in terms:
            coeffs[self.p ** s] = self.add(coeffs[self.p ** s], c)
        raise NeedExtension(root_extension(self, coeffs))

    # -- tower ----------------------------------------------------------------

    def embed_map(self, other):
        """Cached code-level embedding self -> other; needs self.k | other.k."""
        if other is self:
            return lambda a: a
        if not isinstance(other, Field) or other.p != self.p \
                or other.k % self.k != 0:
            raise IncompatibleFields(
                f"no embedding F_{self.p}^{self.k} -> target")
        key = id(other)
        if key in self._emb:
            return self._emb[key]
        if self.k == 1:
            fn = lambda a: a  # prime subfield: codes agree
        else:
            mod_up = [other.from_int(c) for c in self.modulus]
            roots = _field_roots(other, mod_up, random.Random(0))
            if not roots:
                raise IncompatibleFields("modulus has no root upstairs")
            alpha = min(roots, key=other.to_vec)
            powers = [1]
            for _ in range(self.k - 1):
                powers.append(other.mul(powers[-1], alpha))
            cache = {}

            def fn(a, _f=self, _o=other, _pw=powers, _c=cache):
                r = _c.get(a)
                if r is None:
                    r = 0
                    for c, w in zip(_f._decode(a), _pw):
                        if c:
                            r = _o.add(r, _o.mul(c, w))
                    _c[a] = r
                return r
        self._emb[key] = fn
        return fn

    # -- misc -----------------------------------------------------------------

    def element(self, value):
        """Wrap an int (reduced mod p) or coefficient vector as a FieldElement."""
        if isinstance(value, (list, tuple)):
            return FieldElement(self, self.from_vec(value))
        return FieldElement(self, value % self.p)

    def wrap(self, code):
        return FieldElement(self, code)

    def to_dict(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k}, modulus={list(self.modulus)})"


def field_create(p, k, modulus=None):
    """Create (or fetch) the descriptor for F_{p^k}.

    A deterministic default modulus is generated when none is given.  Raises
    CompositeP / ReducibleModulus / FieldTooLarge on bad input.
    """
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if k < 1:
        raise ValidationError("extension degree must be >= 1")
    if p ** k > FIELD_CAP:
        raise FieldTooLarge(f"{p}^{k} exceeds the configured cap 2^64")
    if modulus is None:
        modulus = default_modulus(p, k)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree k")
        # only irreducible moduli are ever registered
        if (p, k, modulus) not in _REGISTRY and \
                not _is_irreducible(list(modulus), p):
            raise ReducibleModulus("modulus is reducible")
    key = (p, k, modulus)
    f = _REGISTRY.get(key)
    if f is None:
        f = Field(p, k, modulus)
        _REGISTRY[key] = f
    return f


# ---------------------------------------------------------------------------
# root finding (Cantor-Zassenhaus, degree-1 equal-degree splitting)
# ---------------------------------------------------------------------------

def _split_linear(field, g, rng):
    """All roots of g, where g is monic, squarefree and splits into linear
    factors over the field."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [field.neg(g[0])]
    q = field.q
    while True:
        r = _strip([field.rand(rng) for _ in range(deg)])
        if not r:
            continue
        if field.p == 2:
            # absolute trace r + r^2 + ... + r^(2^(k-1)) splits in char 2,
            # where subtraction is addition
            s = list(r)
            acc = list(r)
            for _ in range(field.k - 1):
                acc = _poly_divmod(field, _poly_mul(field, acc, acc), g)[1]
                s = _poly_sub(field, s, acc)
            if not s:
                continue
            t = _poly_gcd(field, g, s)
        else:
            s = _poly_powmod(field, r, (q - 1) // 2, g)
            t = _poly_gcd(field, g, _poly_sub(field, s, [1]))
        if 0 < len(t) - 1 < deg:
            other = _poly_divmod(field, g, t)[0]
            return _split_linear(field, t, rng) + \
                _split_linear(field, other, rng)


def _field_roots(field, coeffs, rng):
    """Distinct roots (codes) of the code-coefficient polynomial in field."""
    f = _strip(list(coeffs))
    if not f:
        raise ValidationError("zero polynomial")
    roots = []
    if len(f) > 1 and f[0] == 0:
        roots.append(0)
        while f and f[0] == 0:
            f.pop(0)
    if len(f) <= 1:
        return roots
    f = _poly_monic(field, f)
    xq = _poly_powmod(field, [0, 1], field.q, f)
    g = _poly_gcd(field, f, _poly_sub(field, xq, [0, 1]))
    roots.extend(_split_linear(field, g, rng))
    return roots


class NeedExtension(Exception):
    """A solve has no root in its field; ``field`` is the smallest
    extension that holds one."""

    def __init__(self, field):
        super().__init__(f"needs F_{field.p}^{field.k}")
        self.field = field


def climb(base, solve, allow_extension=True):
    """Run ``solve(field, emb)`` over ``base``, and again over each field a
    NeedExtension from it names; ``emb`` maps codes of ``base`` into
    ``field`` by the cached one-hop embedding, so values carried over stay
    coherent across restarts (a stepwise chain may pick different roots).

    Returns (result, the fields climbed to, in order).  Every hop must make
    the degree k larger and ``field_create`` refuses fields above FIELD_CAP,
    so the climb ends.  Without ``allow_extension``, and on a hop that does
    not grow the field, the NeedExtension becomes NoRootInField.
    """
    field, fields = base, []
    while True:
        try:
            return solve(field, base.embed_map(field)), fields
        except NeedExtension as ex:
            if not allow_extension or ex.field.k <= field.k:
                raise NoRootInField("no root in the current field") from None
            field = ex.field
            fields.append(field)


def field_roots(field, codes):
    """The distinct roots in ``field`` of the polynomial with code
    coefficients ``codes`` (low degree first), sorted by coefficient vector;
    NeedExtension when there is none."""
    roots = _field_roots(field, codes, random.Random(0))
    if not roots:
        raise NeedExtension(root_extension(field, codes))
    return sorted(roots, key=field.to_vec)


def poly_roots(coeffs, allow_extension=False):
    """All roots of the polynomial with the given FieldElement coefficients.

    Returns (roots, field), the roots sorted by coefficient vector.  With
    ``allow_extension`` they come from the smallest extension holding one
    when the current field holds none; otherwise that raises NoRootInField.
    """
    coeffs = list(coeffs)
    if not coeffs or all(c.code == 0 for c in coeffs):
        raise ValidationError("not all coefficients may be zero")
    base = max((c.field for c in coeffs), key=lambda f: f.k)
    codes = [c.embed(base).code for c in coeffs]

    def solve(field, emb):
        return field, field_roots(field, [emb(c) for c in codes])

    (field, roots), _ = climb(base, solve, allow_extension)
    return [FieldElement(field, r) for r in roots], field


def root_extension(field, codes):
    """The smallest field F_{q^delta} above ``field`` in which the polynomial
    with the given code coefficients (low degree first) has a root: the first
    delta with gcd(x^(q^delta) - x, f) != 1.  ``field`` itself when delta
    is 1."""
    f = _poly_monic(field, _strip(list(codes)))
    delta = _first_factor_degree(field, f, len(f) - 1)
    if delta is None:
        raise NoRootInField("no factor degree located (inconsistent input)")
    return field if delta == 1 else field_create(field.p, field.k * delta)


# ---------------------------------------------------------------------------
# additive equations: linear algebra over the prime field
# ---------------------------------------------------------------------------

def additive_roots(field, terms, q):
    """All z in ``field`` with sum(c * z**(p**s)) = q, for the (s, c) code
    pairs in ``terms``; codes sorted by coefficient vector, the order
    :func:`field_roots` returns.  Empty when the field holds no solution.

    The left side is a linearized polynomial, so z -> sum(c * z**(p**s)) is
    F_p-linear: the solutions are one particular solution plus the kernel of
    a k x k matrix over F_p.  The map is reduced once
    (:func:`_additive_map`) and kept in the field's one-map slot, so a
    right side q costs one matrix-vector product through the packed-digit
    layer, a look at the digits that must vanish, and the enumeration.
    """
    terms = tuple(sorted(terms))
    slot = field._additive
    if slot is None or slot[0] != terms:
        # replaced as one tuple: a reader never sees half of a map
        slot = field._additive = (terms,) + _additive_map(field, terms)
    _, cols, free, kernel = slot
    z = field._ring.linear(cols, q)
    if any(z[i] for i in free):
        return []
    p, code = field.p, field._ring.code
    return [code(x) for x in sorted([(a + b) % p for a, b in zip(z, v)]
                                    for v in kernel)]


def _additive_map(field, terms):
    """(cols, free, kernel) for the map z -> sum(c * z**(p**s)) over F_p.

    Column i of its matrix M holds the digits of the image of alpha**i,
    from the cached Frobenius images of the basis.  [M | I] is row-reduced
    once, so E*M is in reduced echelon form for the row operations E.  G
    takes row j of E to the j-th pivot column and the rows of E past the
    rank to the free columns, so G*q holds a particular solution at the
    pivot columns and, exactly when q is in the image, zeros at the
    ``free`` ones; ``cols`` are G's columns packed for
    :meth:`_FoldProduct.linear`.  ``kernel`` lists all p**len(free) digit
    vectors of the kernel."""
    p, k = field.p, field.k
    images = [0] * k
    for s, c in terms:
        for i, image in enumerate(field._frob_images(s)[0]):
            images[i] = field.add(images[i], field.mul(c, image))
    rows = [list(row) + [int(i == j) for j in range(k)]
            for i, row in enumerate(zip(*map(field._decode, images)))]
    pivots = _reduced_echelon(rows, k, p)
    free = [col for col in range(k) if col not in pivots]
    g = [None] * k
    for col, row in zip(pivots + free, rows):
        g[col] = row[k:]
    ring = field._ring
    cols = [ring.spread([row[i] for row in g], ring.width) for i in range(k)]
    kernel = [[0] * k]
    for col in free:
        v = [0] * k
        v[col] = 1
        for pivot, row in zip(pivots, rows):
            v[pivot] = -row[col] % p
        kernel = [[(a + t * b) % p for a, b in zip(x, v)]
                  for x in kernel for t in range(p)]
    return cols, free, kernel


def _reduced_echelon(rows, k, p):
    """Row-reduce the list rows in place over F_p, pivoting in the first k
    columns only: the pivot columns in order, their rows first."""
    pivots = []
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[r])]
        pivots.append(col)
    return pivots


# ---------------------------------------------------------------------------
# the element wrapper
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of F_{p^k}: coefficient vector in the modulus basis."""

    __slots__ = ("field", "code", "_hash")

    def __init__(self, field, code):
        self.field = field
        self.code = code
        self._hash = None

    @property
    def coeffs(self):
        return self.field.to_vec(self.code)

    def embed(self, other):
        if other is self.field:
            return self
        return FieldElement(other, self.field.embed_map(other)(self.code))

    def _pair(self, other):
        if isinstance(other, int):
            return self, FieldElement(self.field, self.field.from_int(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is self.field:
            return self, other
        if other.field.k % self.field.k == 0 and \
                other.field.p == self.field.p:
            return self.embed(other.field), other
        if self.field.k % other.field.k == 0 and \
                self.field.p == other.field.p:
            return self, other.embed(self.field)
        raise IncompatibleFields("elements of unrelated fields")

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.add(a.code, b.code))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.sub(a.code, b.code))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.mul(a.code, b.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.div(a.code, b.code))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow(self.code, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.code))

    def is_zero(self):
        return self.code == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is self.field:
            return self.code == other.code
        try:
            a, b = self._pair(other)
        except IncompatibleFields:
            return False
        return a.code == b.code

    def __hash__(self):
        # equal elements of different fields in one tower must hash equal,
        # so hash what embeddings preserve; the minimal polynomial costs a
        # Frobenius orbit, so it is found once per element
        if self._hash is None:
            self._hash = hash((self.field.p, self.field.min_poly(self.code)))
        return self._hash

    def __repr__(self):
        if self.field.k == 1:
            return f"F{self.field.p}({self.code})"
        return f"F{self.field.q}{list(self.coeffs)}"

