"""Exact univariate polynomial and rational-function arithmetic over Q.

Coefficients are arbitrary-precision `fractions.Fraction` values; every value
is immutable and every operation is a pure function, so results are safe to
share between threads and compare structurally with ``==``.  Polynomials carry
a variable tag (``y``, ``x``, ``t``, ``u``, ...) so values from different
rings cannot be mixed silently; constants are compatible with any tag.

The zero polynomial has an empty coefficient tuple and ``degree() is None``
(a deliberate sentinel: degree arithmetic on zero is always a bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Sequence

Rat = Fraction

# Guards for divisor enumeration in rational_roots: fail loudly instead of
# silently truncating the candidate set.
_TRIAL_DIVISION_BOUND = 10**6
_PRIMALITY_CERT_BOUND = 10**12
_MAX_ROOT_CANDIDATES = 10**6


class ResourceLimitError(RuntimeError):
    """An exact computation exceeded its enumeration budget."""


class InternalInconsistencyError(RuntimeError):
    """An internally rechecked identity failed: an implementation bug,
    never a property of the input."""


def _as_coeff(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"unsupported coefficient type: {type(value).__name__}")


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial: ``coeffs[i]`` multiplies ``var**i``.

    Trailing zero coefficients are stripped on construction, so equal
    polynomials are structurally equal.  Coefficients are always Fractions
    (ints are converted); there are no polynomials over polynomial rings.
    """

    var: str
    coeffs: tuple

    def __init__(self, var: str, coeffs: Sequence = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> Poly:
        return cls(var, ())

    @classmethod
    def const(cls, var: str, value) -> Poly:
        return cls(var, (value,))

    @classmethod
    def gen(cls, var: str) -> Poly:
        """The polynomial ``var`` itself."""
        return cls(var, (0, 1))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def degree(self):
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _join_var(self, other: Poly) -> str:
        if self.var == other.var:
            return self.var
        if self.is_constant():
            return other.var
        if other.is_constant():
            return self.var
        raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        var = self._join_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(var, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return Poly(self.var, tuple(c * k for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        var = self._join_var(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(var, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.const(self.var, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divrem(self, divisor: Poly) -> tuple[Poly, Poly]:
        """Euclidean division: returns (q, r) with self = q*divisor + r."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = self._join_var(divisor)
        rem = list(self.coeffs)
        dd = len(divisor.coeffs) - 1
        lead = divisor.coeffs[-1]
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            factor = rem[-1] / lead
            quo[k] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[i + k] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(var, quo), Poly(var, rem)

    def exact_div(self, divisor: Poly) -> Poly:
        q, r = self.divrem(divisor)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def diff(self) -> Poly:
        """Formal derivative with respect to the polynomial's own variable."""
        return Poly(self.var, tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly(self.var, tuple(c / lead for c in self.coeffs))

    def __call__(self, point):
        """Evaluate by Horner's rule; works for any ring value (Fraction,
        RatFunc, ...) supporting ``*`` and ``+`` with Fractions."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * point + c
        return Fraction(0) if result is None else result

    def __repr__(self) -> str:
        return f"Poly({self.var!r}, {list(self.coeffs)!r})"


def content_and_primitive(p: Poly) -> tuple[Fraction, Poly]:
    """Write p = content * primitive with integer coprime coefficients and a
    positive leading coefficient on the primitive part."""
    if p.is_zero():
        return Fraction(0), p
    content, ints = _integer_form(p)
    return content, Poly(p.var, ints)


def primitive_part(p: Poly) -> Poly:
    return content_and_primitive(p)[1]


def _integer_form(p: Poly) -> tuple[Fraction, list[int]]:
    """Content and primitive integer coefficients of a nonzero p, read off
    the numerators and denominators without Fraction arithmetic."""
    coeffs = p.coeffs
    den = _int_lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    common = _int_gcd(*ints)
    if ints[-1] < 0:
        common = -common
    if common != 1:
        ints = [v // common for v in ints]
    return Fraction(common, den), ints


def _int_clear(p: Poly) -> list[int]:
    return _integer_form(p)[1]


# -- gcd by Brown's modular method (JACM 18, 1971) -----------------------
# p not dividing gcd(lc a, lc b) gives deg gcd(a mod p, b mod p) >= deg gcd(a, b):
# a constant image proves coprimality; a least-degree lift dividing a, b is the gcd.

# Miller-Rabin with these bases is deterministic below 3.3 * 10^24.
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _WITNESS_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime(index: int) -> int:
    """The index-th prime below 2^62, counting down; found on first use."""
    n = _prime(index - 1) - 2 if index else 2**62 - 1
    while not _is_prime(n):
        n -= 2
    return n


def _int_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of the images mod p of two primitive integer polynomials."""
    a = _int_trim([c % p for c in a])
    b = _int_trim([c % p for c in b])
    if len(a) < len(b):
        a, b = b, a
    while True:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        n = len(b) - 1
        if n == 0:
            return b
        low = b[:n]
        for k in range(len(a) - 1 - n, -1, -1):
            q = a[k + n]
            if q:
                a[k:k + n] = [(x - q * y) % p for x, y in zip(a[k:k + n], low)]
        del a[n:]
        if not _int_trim(a):
            return b
        a, b = b, a


def _int_divides(d: list[int], f: list[int]) -> bool:
    """Whether d divides f in Z[y], by division with an integer quotient."""
    r = list(f)
    n, lead = len(d) - 1, d[-1]
    for k in range(len(r) - 1 - n, -1, -1):
        q, m = divmod(r[k + n], lead)
        if m:
            return False
        if q:
            r[k:k + n] = [x - q * y for x, y in zip(r[k:k + n], d)]
    return not any(r[:n])


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, from its images modulo the primes below
    2^62 that do not divide gamma = gcd(lc a, lc b), combined by CRT.

    Each image has degree >= deg gcd, so a constant image proves coprimality,
    and a lift of least image degree is returned once it divides a and b.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    var = a._join_var(b)
    if a.is_zero():
        return Poly(var, b.coeffs).monic()
    if b.is_zero():
        return Poly(var, a.coeffs).monic()
    if a.is_constant() or b.is_constant():
        return Poly.const(var, 1)
    fa, fb = _int_clear(a), _int_clear(b)
    gamma = _int_gcd(fa[-1], fb[-1])
    # images of gamma/lc(g) * g, the gcd g scaled to leading coefficient gamma
    lifted: list[int] = []
    modulus = 1
    for index in count():
        p = _prime(index)
        if gamma % p == 0:
            continue
        image = _gcd_mod(fa, fb, p)
        if len(image) == 1:
            return Poly.const(var, 1)
        if lifted and len(image) > len(lifted):
            continue  # p is unlucky
        image = [c * gamma % p for c in image]
        if not lifted or len(image) < len(lifted):
            # every earlier prime was unlucky
            lifted, modulus = [c - p if 2 * c > p else c for c in image], p
            continue
        if all((c - r) % p == 0 for c, r in zip(lifted, image)):
            # the lift is stable under p: test it
            common = _int_gcd(*lifted)
            candidate = [c // common for c in lifted]
            if candidate[-1] < 0:
                candidate = [-c for c in candidate]
            if _int_divides(candidate, fa) and _int_divides(candidate, fb):
                lead = candidate[-1]
                return Poly(var, [Fraction(c, lead) for c in candidate])
        inverse = pow(modulus, -1, p)
        step, modulus = modulus, modulus * p
        half = modulus // 2
        lifted = [c + step * ((r - c) * inverse % p) for c, r in zip(lifted, image)]
        lifted = [c - modulus if c > half else c for c in lifted]


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod(f_i ** m_i) with the f_i monic,
    squarefree and pairwise coprime."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if p.is_constant():
        return []
    whole = p.monic()
    deriv = whole.diff()
    g = gcd(whole, deriv)
    if g.is_constant():
        return [(whole, 1)]
    c = whole.exact_div(g)
    d = deriv.exact_div(g) - c.diff()
    out: list[tuple[Poly, int]] = []
    mult = 1
    while not c.is_constant():
        f = gcd(c, d)
        c_next = c.exact_div(f)
        d = d.exact_div(f) - c_next.diff()
        c = c_next
        if not f.is_constant():
            out.append((f, mult))
        mult += 1
    return out


def is_squarefree(p: Poly) -> bool:
    if p.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if p.is_constant():
        return True
    return gcd(p, p.diff()).is_constant()


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_constant():
        return Poly.const(p.var, 1)
    return p.monic().exact_div(gcd(p, p.diff()))


def normalized_part(p: Poly) -> Poly:
    """Primitive squarefree part with positive leading coefficient: the
    canonical representative used by every resultant consumer."""
    sqf = squarefree_part(p)
    return primitive_part(sqf)


# -- resultants ----------------------------------------------------------


def resultant(a: Poly, b: Poly) -> Poly:
    """Resultant over Q, equal to the Sylvester determinant in argument
    order (a, b), returned as a constant polynomial.

    Computed by the Euclidean remainder sequence, with res(a, b) =
    (-1)^(mn) lc(b)^(m - deg r) res(b, r) for r = a mod b.  The decision
    procedures never call it (they build their resultants from power sums);
    it stays as the independent oracle they are tested against.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    var = a._join_var(b)
    m, n = a.degree(), b.degree()
    result = Fraction(1)
    while n > 0:
        r = a.divrem(b)[1]
        if r.is_zero():
            return Poly.zero(var)
        result *= (-1) ** (m * n) * b.leading() ** (m - r.degree())
        a, b, m, n = b, r, n, r.degree()
    return Poly.const(var, result * b.leading() ** m)


# -- rational roots ------------------------------------------------------


def _positive_divisors(n: int) -> list[int]:
    """All positive divisors of ``n > 0``; aborts loudly when ``n`` cannot be
    certified factored within the trial-division budget."""
    factors: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m and d <= _TRIAL_DIVISION_BOUND:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        if d * d <= m and m > _PRIMALITY_CERT_BOUND:
            raise ResourceLimitError(
                f"cannot enumerate divisors of {n}: cofactor too large to certify prime")
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [dv * prime**e for dv in divs for e in range(mult + 1)]
        if len(divs) > _MAX_ROOT_CANDIDATES:
            raise ResourceLimitError(f"too many divisors for {n}")
    return divs


def _extract_root(rest: Poly, root: Fraction,
                  roots: list[tuple[Fraction, int]]) -> Poly:
    mult = 0
    while not rest.is_constant() and rest(root) == 0:
        rest = rest.exact_div(Poly(rest.var, (-root, 1)))
        mult += 1
    if mult:
        roots.append((root, mult))
    return rest


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots with multiplicities, by divisor enumeration on the
    primitive integer form, plus the rational-root-free cofactor.

    Candidates are the classical p/q with p dividing the trailing and q the
    leading coefficient; almost all are rejected by the integer screen
    (q*k - p) | P(k) at k = 1 and k = -1 before any exact evaluation.  The
    returned pairs and cofactor reconstruct ``p`` exactly:
    ``p == cofactor * prod((var - root) ** mult)``.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    roots: list[tuple[Fraction, int]] = []
    rest = p
    low = 0
    while low < len(rest.coeffs) and rest.coeffs[low] == 0:
        low += 1
    if low:
        roots.append((Fraction(0), low))
        rest = Poly(rest.var, rest.coeffs[low:])
    # peel small integer roots first so the screen anchors P(1), P(-1) are
    # nonzero (ratio polynomials always have the root 1, for instance)
    for anchor in (1, -1, 2, -2, 3, -3):
        rest = _extract_root(rest, Fraction(anchor), roots)
    if rest.is_constant():
        roots.sort()
        return roots, rest
    ints = _int_clear(rest)
    at_one = sum(ints)
    at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    div_trail = _positive_divisors(abs(ints[0]))
    div_lead = _positive_divisors(abs(ints[-1]))
    if 2 * len(div_trail) * len(div_lead) > _MAX_ROOT_CANDIDATES:
        raise ResourceLimitError("too many rational root candidates")
    for den in div_lead:
        for num in div_trail:
            if _int_gcd(num, den) != 1:
                continue  # the reduced form is enumerated separately
            for signed in (num, -num):
                if (den - signed == 0 or at_one % (den - signed) == 0) and \
                        (den + signed == 0 or at_minus_one % (den + signed) == 0):
                    rest = _extract_root(rest, Fraction(signed, den), roots)
                    if rest.is_constant():
                        roots.sort()
                        return roots, rest
    roots.sort()
    return roots, rest


# -- rational functions --------------------------------------------------


@dataclass(frozen=True)
class RatFunc:
    """Canonical fraction of two polynomials: coprime, monic denominator.

    Construction normalizes, so two RatFunc values are equal as rational
    functions exactly when they are structurally equal.
    """

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.var, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        var = num._join_var(den)
        if num.is_zero():
            num, den = Poly.zero(var), Poly.const(var, 1)
        else:
            common = gcd(num, den)
            if not common.is_constant():
                num, den = num.exact_div(common), den.exact_div(common)
            lead = den.leading()
            if lead != 1:
                num, den = num * (1 / lead), den.monic()
            num, den = Poly(var, num.coeffs), Poly(var, den.coeffs)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, var: str, value) -> RatFunc:
        return cls(Poly.const(var, value))

    @classmethod
    def zero(cls, var: str) -> RatFunc:
        return cls(Poly.zero(var))

    @classmethod
    def gen(cls, var: str) -> RatFunc:
        return cls(Poly.gen(var))

    # -- structure ----------------------------------------------------

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.num.constant_value()

    def is_proper(self) -> bool:
        if self.num.is_zero():
            return True
        return len(self.num.coeffs) < len(self.den.coeffs)

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    # -- field operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.var, other)
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, RatFunc):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> RatFunc:
        if self.is_zero():
            raise ZeroDivisionError("zero rational function has no inverse")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> RatFunc:
        if not isinstance(n, int):
            raise ValueError("rational-function powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def diff(self) -> RatFunc:
        """Formal derivative with respect to the function's own variable."""
        return RatFunc(self.num.diff() * self.den - self.num * self.den.diff(),
                       self.den * self.den)

    def proper_split(self) -> tuple[Poly, RatFunc]:
        """self = polynomial part + proper remainder fraction."""
        q, r = self.num.divrem(self.den)
        return q, RatFunc(r, self.den)

    def __call__(self, point):
        denom = self.den(point)
        if isinstance(denom, Fraction) and denom == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(point) / denom

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
