"""Exact univariate polynomial and rational-function arithmetic over Q.

Coefficients are arbitrary-precision `fractions.Fraction` values at the
interface.  Products and division clear each operand to a list of integers
over one common denominator, run their loops over Z (division as integer
pseudo-division) and build the result's Fractions once.  A rational function
is normalised once, when it is built from arbitrary parts; its operations
keep that form by Henrici's gcds of the factors rather than one gcd of the
products, and take none where the parts are known to be coprime.  Every
value is immutable and every operation is a pure function, so results are
safe to share between threads and compare structurally with ``==``.
Polynomials carry a variable tag (``y``, ``x``, ``t``, ``u``, ...) so values
from different rings cannot be mixed silently; constants are compatible with
any tag.

The zero polynomial has an empty coefficient tuple and ``degree() is None``
(a deliberate sentinel: degree arithmetic on zero is always a bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd as _int_gcd
from math import isqrt
from math import lcm as _int_lcm
from typing import Sequence


class ResourceLimitError(RuntimeError):
    """An input or an intermediate value exceeded a documented size bound."""


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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return Poly(self.var, tuple(c * k for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        var = self._join_var(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(var)
        fa, da = _cleared(self.coeffs)
        fb, db = _cleared(other.coeffs)
        den = da * db
        return Poly(var, [Fraction(c, den) for c in _int_mul(fa, fb)])

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
        """Euclidean division: returns (q, r) with self = q*divisor + r.

        With self = f/da and divisor = g/db cleared to integer lists, the
        pseudo-division lc(g)^e * f = Q*g + R in Z[y], e = deg f - deg g + 1,
        gives q = Q*db/(lc(g)^e * da) and r = R/(lc(g)^e * da).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = self._join_var(divisor)
        e = len(self.coeffs) - len(divisor.coeffs) + 1
        if e <= 0:
            return Poly.zero(var), Poly(var, self.coeffs)
        f, da = _cleared(self.coeffs)
        g, db = _cleared(divisor.coeffs)
        quo, rem, scale = _int_pseudo_divrem(f, g)
        den = scale * da
        return (Poly(var, [Fraction(c * db, den) for c in quo]),
                Poly(var, [Fraction(c, den) for c in rem]))

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


def _cleared(coeffs: tuple) -> tuple[list[int], int]:
    """Integer coefficients and their common denominator: coeffs[i] is
    ints[i]/den, read off the numerators and denominators without Fraction
    arithmetic."""
    # a list, not a generator: quicker on short operands, and over many lines
    # it leaves a lower memory peak
    den = _int_lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _integer_form(p: Poly) -> tuple[Fraction, list[int]]:
    """Content and primitive integer coefficients of a nonzero p."""
    ints, den = _cleared(p.coeffs)
    prim = _primitive(ints)
    return Fraction(ints[-1], den * prim[-1]), prim


def _int_clear(p: Poly) -> list[int]:
    return _integer_form(p)[1]


def _primitive(ints: list[int]) -> list[int]:
    """Primitive part, with a positive leading coefficient, of a nonzero
    integer polynomial."""
    common = _int_gcd(*ints)
    if ints[-1] < 0:
        common = -common
    return ints if common == 1 else [v // common for v in ints]


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


def _int_mul(fa: list[int], fb: list[int]) -> list[int]:
    """Product of two integer coefficient lists; [] is zero."""
    if not fa or not fb:
        return []
    n = len(fb)
    out = [0] * (len(fa) + n - 1)
    for i, a in enumerate(fa):
        if a:
            out[i:i + n] = [x + a * b for x, b in zip(out[i:i + n], fb)]
    return out


def _int_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _int_trim(out)


def _int_pseudo_divrem(f: list[int], g: list[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division in Z[y]: (Q, R, lc(g)^e) with lc(g)^e * f = Q*g + R,
    e = max(deg f - deg g + 1, 0)."""
    e = len(f) - len(g) + 1
    if e <= 0:
        return [], f, 1
    n, lead = len(g) - 1, g[-1]
    scale = lead**e
    r = [c * scale for c in f]
    quo = [0] * e
    # Q has integer coefficients, so every quotient step divides exactly
    for k in range(e - 1, -1, -1):
        q = r[k + n] // lead
        if q:
            quo[k] = q
            r[k:k + n] = [x - q * y for x, y in zip(r[k:k + n], g)]
    return quo, _int_trim(r[:n]), scale


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


def _int_quotient(d: list[int], f: list[int]) -> list[int] | None:
    """f / d in Z[y], or None when d does not divide f there."""
    r = list(f)
    n, lead = len(d) - 1, d[-1]
    quo = [0] * max(len(r) - n, 0)
    for k in range(len(r) - 1 - n, -1, -1):
        q, m = divmod(r[k + n], lead)
        if m:
            return None
        if q:
            quo[k] = q
            r[k:k + n] = [x - q * y for x, y in zip(r[k:k + n], d)]
    return None if any(r[:n]) else quo


def _int_exact_quotient(d: list[int], f: list[int]) -> list[int]:
    """f / d, in Z[y] by Gauss's lemma for a primitive d dividing f over Q."""
    if (quotient := _int_quotient(d, f)) is None:
        raise ValueError("division is not exact")
    return quotient


def _int_inverse_mod(r: list[int], v: list[int]) -> tuple[Fraction, list[int]]:
    """The inverse of r modulo v over Q, for integer lists with deg r < deg v,
    as a Fraction scale times a primitive integer list.

    Extended Euclid by pseudo-division, with s*r = rem (mod v) kept over Z:
    each remainder and its cofactor s are divided by their joint content
    (Brown & Traub, JACM 18, 1971).  deg s < deg v throughout, so the
    cofactor of the constant remainder c is the inverse times c.
    """
    r0, s0, r1, s1 = v, [], r, [1]
    while len(r1) > 1:
        q, rem, k = _int_pseudo_divrem(r0, r1)
        if not rem:
            break
        s = _int_add([k * c for c in s0], [-c for c in _int_mul(q, s1)])
        common = _int_gcd(*rem, *s)
        r0, s0, r1, s1 = r1, s1, [c // common for c in rem], [c // common for c in s]
    if len(r1) != 1:
        raise InternalInconsistencyError(
            "expected an element invertible modulo the denominator")
    prim = _primitive(s1)
    return Fraction(s1[-1], r1[0] * prim[-1]), prim


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
    g = _int_poly_gcd(_int_clear(a), _int_clear(b))
    return Poly(var, [Fraction(c, g[-1]) for c in g])


def _int_poly_gcd(fa: list[int], fb: list[int]) -> list[int]:
    """The primitive gcd, with a positive leading coefficient, of two
    nonzero primitive integer polynomials; see :func:`gcd`."""
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
            return [1]
        if lifted and len(image) > len(lifted):
            continue  # p is unlucky
        image = [c * gamma % p for c in image]
        if not lifted or len(image) < len(lifted):
            # every earlier prime was unlucky
            lifted, modulus = [c - p if 2 * c > p else c for c in image], p
            continue
        if all((c - r) % p == 0 for c, r in zip(lifted, image)):
            # the lift is stable under p: test it
            candidate = _primitive(lifted)
            if _int_quotient(candidate, fa) is not None and \
                    _int_quotient(candidate, fb) is not None:
                return candidate
        inverse = pow(modulus, -1, p)
        step, modulus = modulus, modulus * p
        half = modulus // 2
        lifted = [c + step * ((r - c) * inverse % p) for c, r in zip(lifted, image)]
        lifted = [c - modulus if c > half else c for c in lifted]


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm on the primitive integer form of p: p = lc *
    prod(f_i ** m_i), the f_i monic, squarefree, pairwise coprime and listed
    by increasing m_i; every gcd is primitive, so every division is exact."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if p.is_constant():
        return []
    # the first step divides out gcd(p, p'), which is no factor of p
    c = _int_clear(p)
    d = _derivative(c)
    out: list[tuple[Poly, int]] = []
    mult = 0
    while len(c) > 1:
        f = c if not d else [1] if len(d) == 1 else _int_poly_gcd(c, _primitive(d))
        c = _int_exact_quotient(f, c)
        d = _int_add(_int_exact_quotient(f, d), [-v for v in _derivative(c)])
        if mult and len(f) > 1:
            out.append((Poly(p.var, [Fraction(v, f[-1]) for v in f]), mult))
        mult += 1
    return out


def is_squarefree(p: Poly) -> bool:
    if p.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if len(p.coeffs) <= 2:     # constant or linear: p' is constant
        return True
    return gcd(p, p.diff()).is_constant()


def normalized_part(p: Poly) -> Poly:
    """Primitive squarefree part with positive leading coefficient: the
    canonical representative used by every resultant consumer."""
    if p.is_constant():
        return Poly.const(p.var, 1)
    return Poly(p.var, _squarefree_part(_int_clear(p)))


def _squarefree_part(f: list[int]) -> list[int]:
    """Primitive squarefree part of a nonconstant primitive integer
    polynomial."""
    return _int_quotient(_int_poly_gcd(f, _primitive(_derivative(f))), f)


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


# -- rational roots by p-adic lifting (Loos, SIAM J. Comput. 12, 1983) ---
# For a prime p not dividing lc(f) with f mod p squarefree, each rational root
# r = num/den of f reduces to a simple root mod p, and Newton steps lift it to
# r mod p^k.  As den | lc and num | f(0), lc*r is an integer of absolute value
# at most |lc*f(0)|, read off as the symmetric residue of lc*r once
# p^k > 2|lc*f(0)|.  Candidates are accepted only by exact division in Z[y].


def _eval_mod(f: list[int], x: int, m: int) -> int:
    value = 0
    for c in reversed(f):
        value = (value * x + c) % m
    return value


def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _lucky_prime(f: list[int]) -> tuple[list[int], int]:
    """The first prime p not dividing lc(h) with h mod p squarefree, where h
    is f until one image of f is not squarefree, and from then on f's
    primitive squarefree part."""
    h = f
    for p in count(2):
        if h[-1] % p == 0 or not all(p % q for q in range(2, isqrt(p) + 1)):
            continue
        dh = [c % p for c in _derivative(h)]
        if any(dh) and len(_gcd_mod(h, dh, p)) == 1:
            return h, p
        if h is f:
            h = _squarefree_part(f)


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots with multiplicities, by p-adic lifting of the roots
    of the primitive integer form modulo a small prime, plus the
    rational-root-free cofactor.

    The returned pairs and cofactor reconstruct ``p`` exactly:
    ``p == cofactor * prod((var - root) ** mult)``.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    low = next(i for i, c in enumerate(p.coeffs) if c)
    roots = [(Fraction(0), low)] if low else []
    stripped = Poly(p.var, p.coeffs[low:])
    if stripped.is_constant():
        return roots, stripped
    content, f = _integer_form(stripped)
    h, prime = _lucky_prime(f)
    dh = _derivative(h)
    lead, bound = h[-1], 2 * abs(h[-1] * h[0])
    rest = f
    for r in range(prime):
        if _eval_mod(h, r, prime):
            continue
        modulus = prime
        while modulus <= bound:
            modulus *= modulus
            r = (r - _eval_mod(h, r, modulus)
                 * pow(_eval_mod(dh, r, modulus), -1, modulus)) % modulus
        v = lead * r % modulus
        root = Fraction(v - modulus if 2 * v > modulus else v, lead)
        num, den = root.numerator, root.denominator
        if f[0] % num or f[-1] % den:
            continue
        mult = 0
        while (quotient := _int_quotient([-num, den], rest)) is not None:
            rest, mult = quotient, mult + 1
        if mult:
            roots.append((root, mult))
            content *= den**mult
    roots.sort()
    return roots, Poly(p.var, [content * c for c in rest])


# -- rational functions --------------------------------------------------


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """p/g and q/g for g = gcd(p, q), taken as 1 when p or q is constant."""
    if p.is_constant() or q.is_constant():
        return p, q
    g = gcd(p, q)
    return (p, q) if g.is_constant() else (p.exact_div(g), q.exact_div(g))


@dataclass(frozen=True)
class RatFunc:
    """Canonical fraction of two polynomials: coprime, monic denominator.

    Construction normalizes, so two RatFunc values are equal as rational
    functions exactly when they are structurally equal.  ``RatFunc(num, den)``
    takes one gcd of its arguments; the operations keep the canonical form of
    their operands instead (Henrici, JACM 3, 1956; Knuth, TAOCP vol. 2,
    §4.5.1).  Negation, inverse, powers and :meth:`proper_split` take no gcd;
    a/b * c/d takes gcd(a, d) and gcd(c, b); a/b + c/d takes g = gcd(b, d)
    and, when g is not 1, gcd(a*(d/g) + c*(b/g), g); :meth:`diff` runs the
    full normalisation.
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
            num, den = _cancel(num, den)
            lead = den.leading()
            if lead != 1:
                num, den = num * (1 / lead), den.monic()
            num, den = Poly(var, num.coeffs), Poly(var, den.coeffs)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> RatFunc:
        """num/den for coprime parts and a monic den (any den if num is 0),
        tagged as the constructor tags them, with no gcd."""
        if num.is_zero() or num.var != den.var:
            var = num._join_var(den)
            num, den = Poly(var, num.coeffs), Poly(var, den.coeffs if num.coeffs else (1,))
        value = object.__new__(cls)
        object.__setattr__(value, "num", num)
        object.__setattr__(value, "den", den)
        return value

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, var: str, value) -> RatFunc:
        return cls._reduced(Poly.const(var, value), Poly.const(var, 1))

    @classmethod
    def zero(cls, var: str) -> RatFunc:
        return cls.const(var, 0)

    @classmethod
    def gen(cls, var: str) -> RatFunc:
        return cls._reduced(Poly.gen(var), Poly.const(var, 1))

    # -- structure ----------------------------------------------------

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

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
            return RatFunc._reduced(other, Poly.const(other.var, 1))
        if isinstance(other, RatFunc):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (a, b), (c, d) = (self.num, self.den), (other.num, other.den)
        if b.is_constant() or d.is_constant() or (g := gcd(b, d)).is_constant():
            return RatFunc._reduced(a * d + c * b, b * d)
        b_g, d_g = b.exact_div(g), d.exact_div(g)
        # with g2 = gcd(t, g), the sum is (t/g2) / ((b/g) * (d/g) * (g/g2))
        t, g = _cancel(a * d_g + c * b_g, g)
        return RatFunc._reduced(t, b_g * d_g * g)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return RatFunc._reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> RatFunc:
        if self.is_zero():
            raise ZeroDivisionError("zero rational function has no inverse")
        return RatFunc._reduced(self.den * (1 / self.num.leading()), self.num.monic())

    def __pow__(self, n: int) -> RatFunc:
        if not isinstance(n, int):
            raise ValueError("rational-function powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._reduced(self.num**n, self.den**n)

    def diff(self) -> RatFunc:
        """Formal derivative with respect to the function's own variable."""
        return RatFunc(self.num.diff() * self.den - self.num * self.den.diff(),
                       self.den * self.den)

    def proper_split(self) -> tuple[Poly, RatFunc]:
        """self = polynomial part + proper remainder fraction."""
        q, r = self.num.divrem(self.den)
        return q, RatFunc._reduced(r, self.den)

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
