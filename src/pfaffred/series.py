"""Exact truncated power series over Q in two variables.

Every series is either exact (a polynomial known in full; its window is
effectively infinite and the stored orders are only a default working
precision for operations that must truncate, such as unit inversion) or
truncated: known on the rectangle i < tx, j < ty and unknown outside it.
All operations propagate the guaranteed window pessimistically, so zero
tests and equality are certified claims about the window; on exact inputs
the verdicts are unconditional.

A series stores integer numerators over one denominator: its coefficient
at x^i y^j is num[(i, j)] / den.  The form is canonical: den > 0, the gcd
of den and every numerator is 1, den is 1 when there are no terms, and
zero numerators are never stored.  Every operation runs on these
integers: a product accumulates numerators and divides the sum by one
gcd, a sum works over the lcm of the two denominators, and a product by
an exact monic monomial x^i y^j only moves the other factor's numerators
by (i, j).  Fractions are built only when a coefficient is read (coeff,
terms, coeffs).

Sums of products are computed many at a time (dots): the entries of a
matrix product, or of B A - A B, are one call, and each distinct operand
is prepared once per call, however many sums it enters.  A series s
enters a sum as it is as the term (c, s, ONE), ONE the exact 1 at nominal
orders (0, 0).  A product by an exact monic monomial x^i y^j, ONE
included, is moved, not multiplied: the other factor's numerators, moved
by (i, j), are added after the products, unprepared.  A sum whose other
products fit in no more exponent slots than they have term pairs is
computed by Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 44, 2009):
each operand's windowed numerators are packed into one integer, once per
call, exponent (i, j) into the signed slot i * stride + j of `bits` bits;
each product is one big-integer multiply, and each sum's scaled products
are summed and unpacked once.  A slot of one product receives at most
min(#a, #b) term pairs, so a sum's slot is at most bound = sum over its
products of (den / da db) max|a| max|b| min(#a, #b) in absolute value;
bits = 8 ceil((bound.bit_length() + 2) / 8) keeps every slot below
2^(bits - 2), and a bias of 2^(bits - 1) in every slot makes the total
nonnegative, so that one to_bytes splits it into its slots.  One call
packs at one stride and one slot width, the largest that any of its
packed sums needs: a longer stride or a wider slot than a sum needs
leaves its slot values as they are.  A sparser sum (such as
c + k x^121 y^120 times itself) takes the term-pair loop, with the same
numerators.

The public constructor BiSeries(...) validates: it checks the orders and
exponents, coerces each coefficient with q() (ints pass as they are),
drops zeros and, for a truncated series, terms outside the window, and
brings the rest over their least common denominator.  It serves the
const/zero/monomial constructors and users.  Everything else builds its
series with the trusted BiSeries._of, which stores its arguments
unchecked, or with BiSeries._reduced, which first divides out the gcd:
internal operations and the matrix-layer rebuilds, where the invariants
(the canonical form, nonnegative exponents, terms of a truncated series
inside its window) hold by construction, and the document reader
(io.py), which checks the exponents and reduces each rational itself.
A series is immutable: its num dict is never mutated after construction,
so its valuations are computed once, on first use, and kept in its _val
slot, and a shift by (0, 0) returns the series itself.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import itemgetter

from .errors import TruncationExhausted, ZeroConstantTerm

INF_ORDER = 10**9


def other(var):
    """The other variable of the pair (x, y)."""
    return "y" if var == "x" else "x"


def exponent(var, k, j=0):
    """The exponent pair of var^k w^j, w the other variable."""
    return (k, j) if var == "x" else (j, k)


def q(value) -> Fraction:
    """Coerce ints, strings 'a/b' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _valuations_once(s):
    """(val_x, val_y) of s, computed on first use and kept in its _val slot."""
    v = s._val
    if v is None:
        if s.num:
            v = (min(s.num)[0], min(map(itemgetter(1), s.num)))
        else:
            v = (s._eff_tx(), s._eff_ty())
        s._val = v
    return v


def dot(pairs):
    """The sum of a * b over pairs (a, b) of BiSeries, with the window that
    the sequential sum of the products has: the one-sum case of dots."""
    return dots([[(1, a, b) for a, b in pairs]])[0]


def dots(sums):
    """One BiSeries per list of terms (c, a, b) in sums, c = 1 or -1: the
    sum of c * a * b over its terms, with the window that the sequential
    sum of the products has.

    A sum is exact iff every product is, and its nominal orders are then
    the maximum over all operands (0 when it has no terms).  Otherwise its
    window is the minimum over the truncated products' windows, each from
    the product rule (the unknown terms of one factor enter at the other
    factor's valuation, per variable), and only terms inside it are kept.
    An exact zero factor makes an exact zero product.  When a single
    product is left and one of its factors is an exact monic monomial
    x^i y^j, the sum is the other factor's numerators moved by (i, j),
    negated for c = -1, over its denominator.  Otherwise the numerators of
    the products are accumulated over one common denominator, those of the
    products by an exact monic monomial are moved and added to them, and
    the sum is divided by its gcd with that denominator.

    One rule picks the algorithm: a sum whose products (those by an exact
    monic monomial left out) have no more slots i * stride + j, height *
    stride in all (each one more than their largest x-, y-exponent), than
    windowed term pairs is packed, in-window slots only; any other sum
    multiplies the windowed term pairs one by one.  Both give the same
    numerators.  Each distinct operand is prepared once per call (an
    _Operand), and the packed sums share one stride and one slot width,
    the largest that any of them needs (see the module docstring).
    """
    out = []
    prepared = {}
    packed = []
    for terms in sums:
        live = []
        exact = True
        tx = ty = INF_ORDER
        for t in terms:
            _, a, b = t
            if (a.exact and not a.num) or (b.exact and not b.num):
                continue
            live.append(t)
            if not (a.exact and b.exact):
                exact = False
                (vax, vay), (vbx, vby) = _valuations_once(a), _valuations_once(b)
                tx = min(tx, vax + b._eff_tx(), vbx + a._eff_tx())
                ty = min(ty, vay + b._eff_ty(), vby + a._eff_ty())
        if exact:
            # Plain comparisons: this runs for most entries of every product.
            ox = oy = 0
            for _, a, b in terms:
                if a.tx > ox:
                    ox = a.tx
                if b.tx > ox:
                    ox = b.tx
                if a.ty > oy:
                    oy = a.ty
                if b.ty > oy:
                    oy = b.ty
            orders = (ox, oy)
        else:
            orders = (tx, ty)
        if not live:
            out.append(BiSeries._of({}, 1, *orders, exact))
            continue
        # Products by an exact monic monomial x^i y^j are moved, not
        # multiplied: the other factor's numerators, moved by (i, j).
        moved, products = [], []
        imax = jmax = pairs_in = 0
        for c, a, b in live:
            if (len(a.num) == 1 and a.exact and a.den == 1
                    and 1 in a.num.values()):
                moved.append((c, *a.num, b))
            elif (len(b.num) == 1 and b.exact and b.den == 1
                    and 1 in b.num.values()):
                moved.append((c, *b.num, a))
            else:
                # Each product's numerators over its own denominator
                # da * db, inside the window.
                pa = _operand(prepared, a, exact, tx, ty)
                pb = _operand(prepared, b, exact, tx, ty)
                if pa and pb:
                    imax = max(imax, pa.imax + pb.imax)
                    jmax = max(jmax, pa.jmax + pb.jmax)
                    pairs_in += len(pa.terms) * len(pb.terms)
                    products.append((c, a.den * b.den, pa, pb))
        if len(live) == 1 and moved:
            [(c, (di, dj), other)] = moved
            if c == 1:
                num = {(i + di, j + dj): v for (i, j), v in other.num.items()}
            else:
                num = {(i + di, j + dj): -v for (i, j), v in other.num.items()}
            out.append(BiSeries._of(num, other.den, *orders, exact))
            continue
        stride, height = jmax + 1, imax + 1
        den = lcm(*[d for _, d, _, _ in products], *[m[2].den for m in moved])
        if stride * height <= pairs_in:
            bound = sum(den // d * pa.top * pb.top
                        * min(len(pa.terms), len(pb.terms))
                        for _, d, pa, pb in products)
            packed.append((len(out), products, moved, den, stride, height,
                           8 * ((bound.bit_length() + 9) // 8), orders, exact))
            out.append(None)
            continue
        acc = defaultdict(int)
        for c, d, pa, pb in products:
            scale = c * (den // d)
            for (i1, j1), x in pa.terms:
                x *= scale
                for (i2, j2), y in pb.terms:
                    if i1 + i2 < tx and j1 + j2 < ty:
                        acc[i1 + i2, j1 + j2] += x * y
        out.append(_summed({e: v for e, v in acc.items() if v}, moved, den,
                           orders, exact))
    if packed:
        _packed_sums(packed, out)
    return out


def _operand(prepared, s, exact, tx, ty):
    """The _Operand of s for a sum with window (tx, ty), exact or not,
    kept in `prepared` for the rest of the call; None when s has no terms
    on the window.  An exact sum, and a truncated s inside the window,
    take all of s's terms, once per call; any other s is cut to the
    window, and shares the whole s's _Operand when the cut drops
    nothing."""
    whole = exact or not (s.exact or s.tx > tx or s.ty > ty)
    key = id(s) if whole else (id(s), tx, ty)
    if key in prepared:
        return prepared[key]
    terms = s.num.items()
    if not whole:
        cut = [t for t in terms if t[0][0] < tx and t[0][1] < ty]
        if len(cut) == len(terms):
            p = prepared[key] = _operand(prepared, s, True, tx, ty)
            return p
        terms = cut
    p = prepared[key] = _Operand(terms) if terms else None
    return p


class _Operand:
    """An operand's terms ((i, j), v) on the window of the sums it enters,
    with their largest x- and y-exponents and |numerator|; their packed
    integer is computed on first use.  All packed sums of one call of dots
    share one stride and slot width, so the first packing serves them
    all."""

    __slots__ = ("terms", "imax", "jmax", "top", "_packed")

    def __init__(self, terms):
        self.terms = terms
        # One pass of plain comparisons: this runs for every operand.
        imax = jmax = top = 0
        for (i, j), v in terms:
            if i > imax:
                imax = i
            if j > jmax:
                jmax = j
            if v > top:
                top = v
            elif -v > top:
                top = -v
        self.imax, self.jmax, self.top = imax, jmax, top
        self._packed = None

    def packed(self, stride, bits):
        if self._packed is None:
            self._packed = _pack(self.terms, stride, bits)
        return self._packed


def _packed_sums(packed, out):
    """Fill out[k] for each packed sum (k, products, moved, den, stride,
    height, bits, orders, exact) of one call of dots: each operand packed
    once, at the largest stride and slot width of the call, each product
    one multiply, and each sum unpacked once, in-window slots only, before
    its moved terms are added."""
    stride = max(p[4] for p in packed)
    bits = max(p[6] for p in packed)
    width = bits // 8
    half = 1 << (bits - 1)
    for k, products, moved, den, jstride, height, _, orders, exact in packed:
        total = 0
        for c, d, pa, pb in products:
            p = pa.packed(stride, bits) * pb.packed(stride, bits)
            if d != den:
                p *= den // d
            total = total + p if c == 1 else total - p
        slots = height * stride
        buf = (total + int.from_bytes(half.to_bytes(width, "little") * slots,
                                      "little")).to_bytes(width * slots, "little")
        tx, ty = (INF_ORDER, INF_ORDER) if exact else orders
        num = {}
        for i in range(min(tx, height)):
            for j in range(min(ty, jstride)):
                at = (i * stride + j) * width
                v = int.from_bytes(buf[at:at + width], "little") - half
                if v:
                    num[(i, j)] = v
        out[k] = _summed(num, moved, den, orders, exact)


def _summed(num, moved, den, orders, exact):
    """The sum num / den + c x^i y^j s over the moved terms (c, (i, j), s)
    of a sum of dots, its terms inside the window `orders` unless exact."""
    tx, ty = (INF_ORDER, INF_ORDER) if exact else orders
    for c, (di, dj), s in moved:
        scale = c * (den // s.den)
        for (i, j), v in s.num.items():
            i += di
            j += dj
            if i < tx and j < ty:
                v = num.get((i, j), 0) + scale * v
                if v:
                    num[(i, j)] = v
                else:
                    del num[(i, j)]
    return BiSeries._reduced(num, den, *orders, exact)


def _pack(terms, stride, bits):
    """The integer sum of v * 2^(bits * (i * stride + j)) over the terms
    ((i, j), v): one signed slot of `bits` bits per exponent."""
    packed = 0
    for (i, j), v in terms:
        packed += v << (bits * (i * stride + j))
    return packed


class BiSeries:
    """Formal power series in (x, y) over Q, stored as integer numerators
    num over one denominator den (see the module docstring).

    The _val slot holds (val_x, val_y) once they have been read, and None
    before."""

    __slots__ = ("num", "den", "tx", "ty", "exact", "_val")

    def __init__(self, coeffs, tx, ty, exact=False):
        if tx < 0 or ty < 0:
            raise ValueError("truncation orders must be nonnegative")
        clean = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i},{j})")
            if not exact and (i >= tx or j >= ty):
                continue
            if not isinstance(c, int):
                c = q(c)
            if c:
                clean[(i, j)] = c
        den = lcm(*[c.denominator for c in clean.values()])
        self.num = {e: c.numerator * (den // c.denominator)
                    for e, c in clean.items()}
        self.den = den
        self.tx = tx
        self.ty = ty
        self.exact = exact
        self._val = None

    @classmethod
    def _of(cls, num, den, tx, ty, exact):
        """The series with exactly these fields, unchecked: num must map
        nonnegative exponents to nonzero ints, inside the window unless
        exact, in canonical form with den, and must not be mutated
        afterwards."""
        s = object.__new__(cls)
        s.num = num
        s.den = den
        s.tx = tx
        s.ty = ty
        s.exact = exact
        s._val = None
        return s

    @classmethod
    def _reduced(cls, num, den, tx, ty, exact):
        """_of after dividing num and den > 0 by their gcd."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: v // g for e, v in num.items()}
                den //= g
        return cls._of(num, den, tx, ty, exact)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, tx, ty):
        return cls({}, tx, ty, exact=True)

    @classmethod
    def const(cls, value, tx, ty):
        return cls({(0, 0): value}, tx, ty, exact=True)

    @classmethod
    def monomial(cls, value, i, j, tx, ty):
        return cls({(i, j): value}, tx, ty, exact=True)

    # -- window bookkeeping --------------------------------------------------

    def _eff_tx(self):
        return INF_ORDER if self.exact else self.tx

    def _eff_ty(self):
        return INF_ORDER if self.exact else self.ty

    @property
    def window(self):
        return (self.tx, self.ty)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a new dict {(i, j): Fraction}."""
        return {e: Fraction(v, self.den) for e, v in self.num.items()}

    def coeff(self, i, j) -> Fraction:
        return Fraction(self.num.get((i, j), 0), self.den)

    def terms(self):
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.num

    def val_x(self) -> int:
        """Certified x-valuation; the window for a truncated zero series,
        effectively infinite for an exact zero."""
        return _valuations_once(self)[0]

    def val_y(self) -> int:
        return _valuations_once(self)[1]

    def val(self, var) -> int:
        return self.val_x() if var == "x" else self.val_y()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        """Equality on the common window (full support when both exact)."""
        if not isinstance(other, BiSeries):
            return NotImplemented
        tx = min(self._eff_tx(), other._eff_tx())
        ty = min(self._eff_ty(), other._eff_ty())
        a = {e: v * other.den for e, v in self.num.items()
             if e[0] < tx and e[1] < ty}
        b = {e: v * self.den for e, v in other.num.items()
             if e[0] < tx and e[1] < ty}
        return a == b

    __hash__ = None

    def __repr__(self):
        if not self.num:
            body = "0"
        else:
            parts = []
            for (i, j), c in self.terms():
                mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
                mono += "" if j == 0 else ("y" if j == 1 else f"y^{j}")
                if mono and c == 1:
                    parts.append(mono)
                elif mono and c == -1:
                    parts.append(f"-{mono}")
                elif mono:
                    parts.append(f"{c}*{mono}")
                else:
                    parts.append(str(c))
            body = " + ".join(parts).replace("+ -", "- ")
        tail = "exact" if self.exact else f"+O(x^{self.tx},y^{self.ty})"
        return f"<{body} {tail}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return BiSeries.const(other, self.tx, self.ty)._merge(self, -1)

    def _merge(self, other, sign):
        """self + sign * other for sign 1 or -1, over lcm(da, db): other's
        numerators, negated for -1, are merged into a copy of self's."""
        if isinstance(other, (int, Fraction)):
            other = BiSeries.const(other, self.tx, self.ty)
        den = self.den
        if other.den == den:
            out = dict(self.num)
            sb = sign
        else:
            den = lcm(den, other.den)
            sa = den // self.den
            out = {e: v * sa for e, v in self.num.items()}
            sb = sign * (den // other.den)
        for e, v in other.num.items():
            v *= sb
            s = out.get(e)
            if s is not None:
                v += s
                if not v:
                    del out[e]
                    continue
            out[e] = v
        if self.exact and other.exact:
            return BiSeries._reduced(out, den, max(self.tx, other.tx),
                                     max(self.ty, other.ty), True)
        tx = min(self._eff_tx(), other._eff_tx())
        ty = min(self._eff_ty(), other._eff_ty())
        return BiSeries._reduced({e: v for e, v in out.items()
                                  if e[0] < tx and e[1] < ty}, den, tx, ty,
                                 False)

    def __neg__(self):
        return BiSeries._of({e: -v for e, v in self.num.items()}, self.den,
                            self.tx, self.ty, self.exact)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return BiSeries.zero(self.tx, self.ty)
            p = other.numerator
            return BiSeries._reduced({e: v * p for e, v in self.num.items()},
                                     self.den * other.denominator,
                                     self.tx, self.ty, self.exact)
        return dot([(self, other)])

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse of a unit series.

        Exact constants invert exactly; everything else is computed to the
        stored working window and marked truncated.  With u = N / den and
        c the constant term of N, the coefficient of x^i y^j in 1/N is
        w[(i, j)] / c^(i+j+1) for integers w, because each step of the
        graded fill divides by c once and raises i + j by at least 1.
        """
        c = self.num.get((0, 0))
        if c is None:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        if self.exact and len(self.num) == 1:
            return BiSeries._of({(0, 0): self.den if c > 0 else -self.den},
                                abs(c), self.tx, self.ty, True)
        tx, ty = self.tx, self.ty
        powers = [1]
        for _ in range(tx + ty):
            powers.append(powers[-1] * c)
        terms = [(k, l, a) for (k, l), a in self.num.items() if (k, l) != (0, 0)]
        w = {(0, 0): 1}
        # Cell (i, j) reads only cells (i - k, j - l) with (k, l) != (0, 0),
        # all of which come before it in row-major order.
        for i, j in product(range(tx), range(ty)):
            s = 0
            for k, l, a in terms:
                if k <= i and l <= j:
                    b = w.get((i - k, j - l))
                    if b is not None:
                        s += a * b * powers[k + l - 1]
            if s:
                w[(i, j)] = -s
        top = max(i + j for i, j in w) + 1
        den = powers[top]
        sign = 1 if den > 0 else -1
        # w[(0, 0)] lies outside a window with tx or ty 0.
        num = {(i, j): sign * self.den * v * powers[top - i - j - 1]
               for (i, j), v in w.items() if i < tx and j < ty}
        return BiSeries._reduced(num, abs(den), tx, ty, False)

    def delta(self, var):
        """Euler derivative: x^i y^j maps to i x^i y^j (var='x') or j x^i y^j."""
        k = 0 if var == "x" else 1
        return BiSeries._reduced(
            {e: v * e[k] for e, v in self.num.items() if e[k] != 0},
            self.den,
            self.tx,
            self.ty,
            self.exact,
        )

    def coefficient(self, var, k):
        """The coefficient of var^k, a series in the other variable, on the
        same window and with the same exactness."""
        m = 0 if var == "x" else 1
        return BiSeries._reduced(
            {exponent(var, 0, e[1 - m]): v for e, v in self.num.items()
             if e[m] == k},
            self.den, self.tx, self.ty, self.exact)

    # -- window and monomial manipulation -----------------------------------

    def truncated(self, tx, ty):
        """Hard truncation: the result is a truncated series even when the
        input was exact; self when the window does not change."""
        tx = min(self._eff_tx(), tx)
        ty = min(self._eff_ty(), ty)
        if not self.exact and (tx, ty) == (self.tx, self.ty):
            return self
        return BiSeries._reduced({e: v for e, v in self.num.items()
                                  if e[0] < tx and e[1] < ty}, self.den, tx,
                                 ty, False)

    def shift(self, dx, dy):
        """Multiply by the monomial x^dx y^dy (dx, dy >= 0); self for
        (0, 0)."""
        if dx == 0 and dy == 0:
            return self
        return BiSeries._of(
            {(i + dx, j + dy): v for (i, j), v in self.num.items()},
            self.den,
            min(self.tx + dx, INF_ORDER),
            min(self.ty + dy, INF_ORDER),
            self.exact,
        )

    def divide_monomial(self, dx, dy):
        """Exact division by x^dx y^dy; every stored term must be divisible."""
        if dx == 0 and dy == 0:
            return self
        for (i, j) in self.num:
            if i < dx or j < dy:
                raise TruncationExhausted(
                    f"series not divisible by x^{dx} y^{dy}", window=self.window
                )
        if self.exact:
            tx, ty = max(self.tx - dx, 1), max(self.ty - dy, 1)
        else:
            tx, ty = self.tx - dx, self.ty - dy
            if tx < 0 or ty < 0:
                raise TruncationExhausted(
                    "window exhausted by monomial division", window=self.window
                )
        return BiSeries._of(
            {(i - dx, j - dy): v for (i, j), v in self.num.items()}, self.den,
            tx, ty, self.exact,
        )

    def eval_zero(self, var):
        """Set one variable to zero: the terms free of it, on the same window."""
        k = 0 if var == "x" else 1
        if not self.exact and self.window[k] < 1:
            raise TruncationExhausted(f"no {var}^0 information", window=self.window)
        return BiSeries._reduced({e: v for e, v in self.num.items() if e[k] == 0},
                                 self.den, self.tx, self.ty, self.exact)

    def ramify(self, var, s):
        """Substitute var by its s-th power: its exponent i becomes s*i."""
        if s < 1:
            raise ValueError("ramification index must be >= 1")
        if s == 1:
            return self
        if var == "x":
            return BiSeries._of({(i * s, j): v for (i, j), v in self.num.items()},
                                self.den, min(self.tx * s, INF_ORDER), self.ty,
                                self.exact)
        return BiSeries._of({(i, j * s): v for (i, j), v in self.num.items()},
                            self.den, self.tx, min(self.ty * s, INF_ORDER),
                            self.exact)


# A term (c, s, ONE) of dots adds c * s with s's window and nominal orders.
ONE = BiSeries.const(1, 0, 0)
