"""Exact truncated power series over Q, in one and two variables.

Every series is either exact (a polynomial known in full; its window is
effectively infinite and the stored orders are only a default working
precision for operations that must truncate, such as unit inversion) or
truncated: known on the rectangle i < tx, j < ty and unknown outside it.
All operations propagate the guaranteed window pessimistically, so zero
tests and equality are certified claims about the window; on exact inputs
the verdicts are unconditional.  Coefficients are fractions.Fraction in
lowest terms; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TruncationExhausted, ZeroConstantTerm

INF_ORDER = 10**9


def q(value) -> Fraction:
    """Coerce ints, strings 'a/b' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _graded(support):
    return sorted(support, key=lambda e: (e[0] + e[1], e))


class BiSeries:
    """Formal power series in (x, y) with Fraction coefficients."""

    __slots__ = ("coeffs", "tx", "ty", "exact")

    def __init__(self, coeffs, tx, ty, exact=False):
        if tx < 0 or ty < 0:
            raise ValueError("truncation orders must be nonnegative")
        clean = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i},{j})")
            if not exact and (i >= tx or j >= ty):
                continue
            c = q(c)
            if c != 0:
                clean[(i, j)] = c
        self.coeffs = clean
        self.tx = tx
        self.ty = ty
        self.exact = exact

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, tx, ty):
        return cls({}, tx, ty, exact=True)

    @classmethod
    def const(cls, value, tx, ty):
        return cls({(0, 0): q(value)}, tx, ty, exact=True)

    @classmethod
    def monomial(cls, value, i, j, tx, ty):
        return cls({(i, j): q(value)}, tx, ty, exact=True)

    # -- window bookkeeping --------------------------------------------------

    def _eff_tx(self):
        return INF_ORDER if self.exact else self.tx

    def _eff_ty(self):
        return INF_ORDER if self.exact else self.ty

    @property
    def window(self):
        return (self.tx, self.ty)

    # -- inspection --------------------------------------------------------

    def coeff(self, i, j) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def terms(self):
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def val_x(self) -> int:
        """Certified x-valuation; the window for a truncated zero series,
        effectively infinite for an exact zero."""
        return min((i for i, _ in self.coeffs), default=self._eff_tx())

    def val_y(self) -> int:
        return min((j for _, j in self.coeffs), default=self._eff_ty())

    def val(self, var) -> int:
        return self.val_x() if var == "x" else self.val_y()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        """Equality on the common window (full support when both exact)."""
        if not isinstance(other, BiSeries):
            return NotImplemented
        tx = min(self._eff_tx(), other._eff_tx())
        ty = min(self._eff_ty(), other._eff_ty())
        a = {e: c for e, c in self.coeffs.items() if e[0] < tx and e[1] < ty}
        b = {e: c for e, c in other.coeffs.items() if e[0] < tx and e[1] < ty}
        return a == b

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
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
        if isinstance(other, (int, Fraction)):
            other = BiSeries.const(other, self.tx, self.ty)
        if self.exact and other.exact:
            out = dict(self.coeffs)
            for e, c in other.coeffs.items():
                out[e] = out.get(e, Fraction(0)) + c
            return BiSeries(out, max(self.tx, other.tx), max(self.ty, other.ty),
                            exact=True)
        tx = min(self._eff_tx(), other._eff_tx())
        ty = min(self._eff_ty(), other._eff_ty())
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return BiSeries(out, tx, ty)

    __radd__ = __add__

    def __neg__(self):
        return BiSeries({e: -c for e, c in self.coeffs.items()}, self.tx,
                        self.ty, exact=self.exact)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries.const(other, self.tx, self.ty)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = q(other)
            if c == 0:
                return BiSeries.zero(self.tx, self.ty)
            return BiSeries({e: v * c for e, v in self.coeffs.items()},
                            self.tx, self.ty, exact=self.exact)
        if (self.exact and not self.coeffs) or (other.exact and not other.coeffs):
            return BiSeries.zero(max(self.tx, other.tx), max(self.ty, other.ty))
        exact = self.exact and other.exact
        # Unknown terms of one factor enter at the other factor's
        # valuation, per variable.
        tx = min(self.val_x() + other._eff_tx(), other.val_x() + self._eff_tx())
        ty = min(self.val_y() + other._eff_ty(), other.val_y() + self._eff_ty())
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if not exact and (i >= tx or j >= ty):
                    continue
                e = (i, j)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        if exact:
            return BiSeries(out, max(self.tx, other.tx),
                            max(self.ty, other.ty), exact=True)
        return BiSeries(out, min(tx, INF_ORDER), min(ty, INF_ORDER))

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse of a unit series.

        Exact constants invert exactly; everything else is computed to the
        stored working window and marked truncated.
        """
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        if self.exact and len(self.coeffs) == 1:
            return BiSeries({(0, 0): 1 / c0}, self.tx, self.ty, exact=True)
        tx, ty = self.tx, self.ty
        inv = {(0, 0): 1 / c0}
        todo = [(i, j) for i in range(tx) for j in range(ty) if (i, j) != (0, 0)]
        for i, j in _graded(todo):
            s = Fraction(0)
            for (k, l), a in self.coeffs.items():
                if (k, l) == (0, 0) or k > i or l > j:
                    continue
                b = inv.get((i - k, j - l))
                if b is not None:
                    s += a * b
            if s:
                inv[(i, j)] = -s / c0
        return BiSeries(inv, tx, ty)

    def delta(self, var):
        """Euler derivative: x^i y^j maps to i x^i y^j (var='x') or j x^i y^j."""
        k = 0 if var == "x" else 1
        return BiSeries(
            {e: c * e[k] for e, c in self.coeffs.items() if e[k] != 0},
            self.tx,
            self.ty,
            exact=self.exact,
        )

    # -- window and monomial manipulation -----------------------------------

    def truncated(self, tx, ty):
        """Hard truncation: the result is a truncated series even when the
        input was exact."""
        tx = min(self._eff_tx(), tx)
        ty = min(self._eff_ty(), ty)
        return BiSeries(self.coeffs, tx, ty)

    def shift(self, dx, dy):
        """Multiply by the monomial x^dx y^dy (dx, dy >= 0)."""
        return BiSeries(
            {(i + dx, j + dy): c for (i, j), c in self.coeffs.items()},
            min(self.tx + dx, INF_ORDER),
            min(self.ty + dy, INF_ORDER),
            exact=self.exact,
        )

    def divide_monomial(self, dx, dy):
        """Exact division by x^dx y^dy; every stored term must be divisible."""
        if dx == 0 and dy == 0:
            return self
        for (i, j) in self.coeffs:
            if i < dx or j < dy:
                raise TruncationExhausted(
                    f"series not divisible by x^{dx} y^{dy}", window=self.window
                )
        if self.exact:
            return BiSeries(
                {(i - dx, j - dy): c for (i, j), c in self.coeffs.items()},
                max(self.tx - dx, 1),
                max(self.ty - dy, 1),
                exact=True,
            )
        tx, ty = self.tx - dx, self.ty - dy
        if tx < 0 or ty < 0:
            raise TruncationExhausted(
                "window exhausted by monomial division", window=self.window
            )
        return BiSeries(
            {(i - dx, j - dy): c for (i, j), c in self.coeffs.items()}, tx, ty
        )

    def eval_zero(self, var):
        """Set one variable to zero; result is a UniSeries in the other."""
        if var == "x":
            if not self.exact and self.tx < 1:
                raise TruncationExhausted("no x^0 information", window=self.window)
            return UniSeries(
                {j: c for (i, j), c in self.coeffs.items() if i == 0},
                self.ty, exact=self.exact,
            )
        if not self.exact and self.ty < 1:
            raise TruncationExhausted("no y^0 information", window=self.window)
        return UniSeries(
            {i: c for (i, j), c in self.coeffs.items() if j == 0},
            self.tx, exact=self.exact,
        )

    def only_var(self, var):
        """True if every stored term involves only the given variable."""
        k = 1 if var == "x" else 0
        return all(e[k] == 0 for e in self.coeffs)


class UniSeries:
    """Formal power series in one variable over Q."""

    __slots__ = ("coeffs", "trunc", "exact")

    def __init__(self, coeffs, trunc, exact=False):
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        clean = {}
        for i, c in coeffs.items():
            if i < 0:
                raise ValueError(f"negative exponent {i}")
            if not exact and i >= trunc:
                continue
            c = q(c)
            if c != 0:
                clean[i] = c
        self.coeffs = clean
        self.trunc = trunc
        self.exact = exact

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc, exact=True)

    @classmethod
    def const(cls, value, trunc):
        return cls({0: q(value)}, trunc, exact=True)

    def _eff(self):
        return INF_ORDER if self.exact else self.trunc

    def coeff(self, i) -> Fraction:
        return self.coeffs.get(i, Fraction(0))

    def terms(self):
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def val(self) -> int:
        return min(self.coeffs, default=self._eff())

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        t = min(self._eff(), other._eff())
        a = {i: c for i, c in self.coeffs.items() if i < t}
        b = {i: c for i, c in other.coeffs.items() if i < t}
        return a == b

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            body = " + ".join(
                (str(c) if i == 0 else (f"{c}*t^{i}" if c != 1 else f"t^{i}"))
                for i, c in self.terms()
            ).replace("+ -", "- ")
        tail = "exact" if self.exact else f"+O(t^{self.trunc})"
        return f"<{body} {tail}>"

    def __add__(self, other):
        if self.exact and other.exact:
            out = dict(self.coeffs)
            for i, c in other.coeffs.items():
                out[i] = out.get(i, Fraction(0)) + c
            return UniSeries(out, max(self.trunc, other.trunc), exact=True)
        t = min(self._eff(), other._eff())
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return UniSeries(out, t)

    def __neg__(self):
        return UniSeries({i: -c for i, c in self.coeffs.items()}, self.trunc,
                         exact=self.exact)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniSeries({i: c * q(other) for i, c in self.coeffs.items()},
                             self.trunc, exact=self.exact)
        if (self.exact and not self.coeffs) or (other.exact and not other.coeffs):
            return UniSeries.zero(max(self.trunc, other.trunc))
        exact = self.exact and other.exact
        t = min(self.val() + other._eff(), other.val() + self._eff())
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if not exact and i + j >= t:
                    continue
                s = out.get(i + j, Fraction(0)) + a * b
                if s:
                    out[i + j] = s
                elif i + j in out:
                    del out[i + j]
        if exact:
            return UniSeries(out, max(self.trunc, other.trunc), exact=True)
        return UniSeries(out, min(t, INF_ORDER))

    __rmul__ = __mul__

    def ramify(self, s):
        """Substitute the variable by its s-th power: exponent i becomes s*i."""
        if s < 1:
            raise ValueError("ramification index must be >= 1")
        if s == 1:
            return self
        return UniSeries(
            {i * s: c for i, c in self.coeffs.items()},
            min(self.trunc * s, INF_ORDER),
            exact=self.exact,
        )

    def to_bi(self, var, other_trunc):
        """Embed into BiSeries supported on one variable."""
        if var == "x":
            return BiSeries({(i, 0): c for i, c in self.coeffs.items()},
                            self.trunc, other_trunc, exact=self.exact)
        return BiSeries({(0, i): c for i, c in self.coeffs.items()},
                        other_trunc, self.trunc, exact=self.exact)

