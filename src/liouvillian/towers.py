"""Explicit liouvillian witness towers.

A :class:`TowerWitness` declares a single generator over the constants —
either an antiderivative generator ``t`` with ``t' = 1`` or an exponential
generator ``v`` with ``v' = rate * v`` — together with a rational expression
in that generator whose coefficients live in Q or in a single quadratic
extension ``lam^2 = c``.  The data is deliberately inert; all arithmetic on
it happens in the verification module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import RatFunc

ANTIDERIVATIVE = "antiderivative"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class QuadExtension:
    """A declared square root: ``symbol`` squares to the rational ``square``."""

    symbol: str
    square: Fraction


@dataclass(frozen=True)
class QuadValue:
    """``base + symbol * lam_part`` with both components rational functions in
    the tower generator.  Without a declared extension, ``lam_part`` is 0."""

    base: RatFunc
    lam_part: RatFunc

    @classmethod
    def rational(cls, value: RatFunc) -> QuadValue:
        return cls(value, RatFunc.zero(value.var))

    @classmethod
    def constant(cls, var: str, base, lam_part=0) -> QuadValue:
        return cls(RatFunc.const(var, base), RatFunc.const(var, lam_part))


@dataclass(frozen=True)
class Generator:
    """One tower step: name is the generator's variable tag; exponential
    generators carry their constant rate (an element of Q or Q(lam))."""

    name: str
    kind: str  # ANTIDERIVATIVE | EXPONENTIAL
    rate: QuadValue | None = None


@dataclass(frozen=True)
class TowerWitness:
    """A checkable liouvillian witness: the claimed solution ``expression``
    over the declared generator, plus the identity it is claimed to satisfy."""

    generators: tuple[Generator, ...]
    quad_ext: QuadExtension | None
    expression: QuadValue
    relation: str


def antiderivative_witness(expression: RatFunc, relation: str,
                           name: str = "t") -> TowerWitness:
    gen = Generator(name, ANTIDERIVATIVE)
    return TowerWitness((gen,), None, QuadValue.rational(expression), relation)


def exponential_witness(expression: QuadValue, rate: QuadValue, relation: str,
                        quad_ext: QuadExtension | None,
                        name: str = "v") -> TowerWitness:
    gen = Generator(name, EXPONENTIAL, rate)
    return TowerWitness((gen,), quad_ext, expression, relation)
