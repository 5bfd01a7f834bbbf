"""Seeded input corpora for the benchmark workloads.

Every corpus is a list of :class:`Case` values: the subcommand, the input line
the program sees, and the answer known by construction (``None`` where only the
oracle can tell).  Polynomials are built here with plain ``Fraction`` lists so
that neither the program nor sympy is imported before the timed passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("auto_pool", "auto_hard", "qx_mix")
QX_PROCEDURES = ("square", "degbound", "antider", "logderiv", "abel")


@dataclass(frozen=True)
class Case:
    procedure: str
    text: str
    expect: dict | None


# -- dense polynomials over Q: coefficient lists, lowest degree first -------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _scale(a, c):
    return _trim([c * x for x in a])


def _diff(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def _linear(root: Fraction):
    return [-root, Fraction(1)]


def render_poly(p: list[Fraction], var: str) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        power = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        body = str(mag) if not power else (power if mag == 1 else f"{mag}*{power}")
        sign = "-" if c < 0 else "+"
        parts.append(body if not parts and c > 0 else
                     f"-{body}" if not parts else f" {sign} {body}")
    return "".join(parts)


def _shifted(var: str, c: Fraction) -> str:
    """``(var - c)`` as text."""
    if c == 0:
        return var
    return f"({var} - {c})" if c > 0 else f"({var} + {-c})"


# -- the acceptance-pool generators (same draws as tests/helpers.py) -------


def _rand_fraction(rng, span=9, max_den=4, nonzero=False):
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def _rand_poly(rng, max_deg=3, span=9, nonzero=False):
    while True:
        degree = rng.randint(0, max_deg)
        p = _trim([_rand_fraction(rng, span) for _ in range(degree + 1)])
        if p or not nonzero:
            return p


def _rand_ratfunc(rng, max_deg=3, span=6, nonzero=False):
    while True:
        num = _rand_poly(rng, max_deg, span)
        den = _rand_poly(rng, max_deg, span, nonzero=True)
        if num or not nonzero:
            return num, den


def _rand_distinct(rng, count, span=4, max_den=2):
    values: set[Fraction] = set()
    while len(values) < count:
        values.add(_rand_fraction(rng, span, max_den))
    return sorted(values)


def _quotient(num, den, var) -> str:
    return f"({render_poly(num, var)})/({render_poly(den, var)})"


def auto_pool(seed: int, count: int = 1500) -> list[Case]:
    """``y' = R(y)`` drawn like ``tests/test_acceptance.py::_autonomous_pool``:
    35% from chosen residues, 20% exact derivatives, 45% random of degree <= 2.
    With seed 317 the first 1000 are that pool.  The cost of a pool varies
    with the seed; 1500 lines keep that spread under 8% of the median."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        dice = rng.random()
        if dice < 0.35:
            poles = _rand_distinct(rng, rng.randint(1, 3))
            residues = [_rand_fraction(rng, 2, 2, nonzero=True) for _ in poles]
            den = [Fraction(1)]
            for pole in poles:
                den = _mul(den, _linear(pole))
            num: list[Fraction] = []
            for i, residue in enumerate(residues):
                term = [residue]
                for j, pole in enumerate(poles):
                    if j != i:
                        term = _mul(term, _linear(pole))
                num = _add(num, term)
            # 1/R = sum r_i/(y - c_i): rational residues, simple poles
            cases.append(Case("autonomous", _quotient(den, num, "y"),
                              {"status": "liouvillian", "branch": "log_derivative",
                               "witness": True}))
        elif dice < 0.55:
            p, q = _rand_ratfunc(rng, 2, 2)
            dnum = _add(_mul(_diff(p), q), _scale(_mul(p, _diff(q)), Fraction(-1)))
            if not dnum:
                continue
            # 1/R = (p/q)' exactly
            cases.append(Case("autonomous", _quotient(_mul(q, q), dnum, "y"),
                              {"status": "liouvillian", "branch": "antiderivative",
                               "witness": True}))
        else:
            num, den = _rand_ratfunc(rng, 2, 3, nonzero=True)
            cases.append(Case("autonomous", _quotient(num, den, "y"), None))
    return cases


# -- large autonomous inputs -------------------------------------------------

# Inputs that end in a resource-limit error today, with the error text the
# program prints and the verdict sympy gives for them.
KNOWN_DEFECTS = {
    "(y-1/3)*(y-5/7)*(y+11/13)":
        ("resource limit: too many rational root candidates",
         "liouvillian, with a witness"),
    "y^2 - 10000019*10000079":
        ("resource limit: cannot enumerate divisors of 400003920006004: "
         "cofactor too large to certify prime",
         "liouvillian, with a certificate"),
    "y^2 - 1000003*1000033":
        ("resource limit: cannot enumerate divisors of 4000144000396: "
         "cofactor too large to certify prime",
         "liouvillian, with a certificate"),
    "(y^2+1)*(y^2+2)*(y^2+3)*(y^2+5)":
        ("resource limit: too many rational root candidates",
         "not_liouvillian"),
    "y^3-7*y+1234567":
        ("resource limit: cannot enumerate divisors of 41152203290831: "
         "cofactor too large to certify prime",
         "not_liouvillian"),
}


def auto_hard(seed: int) -> list[Case]:
    """A fixed list of large ``autonomous`` inputs; the seed only reorders it."""
    cases = []
    for d in range(2, 9):
        poles = " + ".join(f"1/(y - {i})" for i in range(1, d + 1))
        # 1/R = sum 1/(y - i): every residue is 1
        cases.append(Case("autonomous", f"1/({poles})",
                          {"status": "liouvillian", "branch": "log_derivative",
                           "witness": True}))
        cases.append(Case("autonomous", f"y^{d} + 1", None))
        cases.append(Case("autonomous", f"y^{d} + y + 1", None))
    for k in (8, 16, 24, 32, 40, 48):
        # residues 1, k and -k/2: the witness has degree about 3k/2
        cases.append(Case("autonomous", f"1/(1/y + {k}/(y - 1/3) - {k // 2}/(y + 2/5))",
                          {"status": "liouvillian", "branch": "log_derivative",
                           "witness": True}))
    cases.extend(Case("autonomous", text, None) for text in KNOWN_DEFECTS)
    random.Random(seed).shuffle(cases)
    return cases


# -- the Q(x) mix --------------------------------------------------------------


# The qx_mix builders take the line's index within its subcommand and pick
# the shape of the line from it, so every seed has the same mix of shapes
# and only the coefficients change.


def _square_case(rng, i: int) -> Case:
    """P = lc * prod (y - r_i)^m_i * (y^2 + s)^e, so degree and squarefreeness
    are known: (y^2 + s) with s > 0 has no rational root."""
    factors = [_linear(root) for root in _rand_distinct(rng, i % 4, span=5, max_den=3)]
    if (i // 4) % 3 == 0:
        factors.append([Fraction(rng.randint(1, 7)), Fraction(0), Fraction(1)])
    squarefree = not factors or (i // 12) % 5 != 0
    if not squarefree:
        factors.append(factors[0])        # one repeated factor
    p = [_rand_fraction(rng, 5, 3, nonzero=True)]
    for factor in factors:
        p = _mul(p, factor)
    degree = len(p) - 1
    if degree >= 3:
        status = "not_liouvillian" if squarefree else "inapplicable"
    elif degree == 2 and not squarefree:
        status = "inapplicable"
    else:
        status = "liouvillian"
    return Case("square", render_poly(p, "y"), {"status": status})


def _rand_coeff_text(rng, var="x") -> str:
    """A random nonzero element of Q(x), as text."""
    num = _rand_poly(rng, 2, 4, nonzero=True)
    den = _rand_poly(rng, 2, 4, nonzero=True)
    if len(den) == 1:
        return f"({render_poly(_scale(num, 1 / den[0]), var)})"
    return _quotient(num, den, var)


def _degbound_case(rng, i: int) -> Case:
    degree = i % 7
    terms = []
    for k in range(degree, -1, -1):
        if k < degree and rng.random() < 0.4:
            continue
        power = "" if k == 0 else ("*y" if k == 1 else f"*y^{k}")
        terms.append(_rand_coeff_text(rng) + power)
    status = ("no_solution_in_antiderivative_towers" if degree >= 3
              else "inconclusive")
    return Case("degbound", " + ".join(terms),
                {"status": status, "degree": degree})


def _derivative_terms(rng, var, count) -> list[str]:
    """Summands of g' for g = poly + sum a/(var - c)^k: exact derivatives."""
    terms = []
    poly = _rand_poly(rng, 3, 5)
    if _diff(poly):
        terms.append(f"({render_poly(_diff(poly), var)})")
    for _ in range(count):
        a = _rand_fraction(rng, 5, 3, nonzero=True)
        c = _rand_fraction(rng, 4, 2)
        k = rng.randint(1, 3)
        terms.append(f"({-k * a})/{_shifted(var, c)}^{k + 1}")
    return terms


def _log_terms(rng, var, count) -> list[str]:
    """Summands r/(var - c) with nonzero r at distinct poles."""
    return [f"({_rand_fraction(rng, 5, 3, nonzero=True)})/{_shifted(var, c)}"
            for c in _rand_distinct(rng, count, span=6, max_den=3)]


def _antider_case(rng, i: int) -> Case:
    terms = _derivative_terms(rng, "x", 1 + i % 3)
    has_log = i % 5 < 2
    if has_log:
        terms += _log_terms(rng, "x", 1 + (i // 5) % 2)
    rng.shuffle(terms)
    return Case("antider", " + ".join(terms),
                {"status": "inconclusive" if has_log else "liouvillian"})


def _logderiv_case(rng, i: int) -> Case:
    poles = _rand_distinct(rng, 1 + i % 4, span=6, max_den=3)
    integral = (i // 4) % 2 == 0
    residues = []
    for _ in poles:
        r = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        if not integral:
            r /= rng.choice((1, 2, 3))
        residues.append(r)
    kind = "rational" if all(r.denominator == 1 for r in residues) else "algebraic"
    terms = [f"({r})/{_shifted('x', c)}" for r, c in zip(residues, poles)]
    spoiler = (i // 8) % 7
    if spoiler == 0:
        terms.append(render_poly(_rand_poly(rng, 2, 4, nonzero=True), "x"))
        kind = "no"          # polynomial part: not proper
    elif spoiler == 1:
        terms.append(f"1/{_shifted('x', poles[0])}^2")
        kind = "no"          # double pole
    elif spoiler == 2:
        terms.append(f"{rng.randint(1, 5)}/(x^2 - {rng.choice((2, 3, 5, 6, 7))})")
        kind = "no"          # residues +-c/(2*sqrt(s)) are irrational
    rng.shuffle(terms)
    status = "inconclusive" if kind == "no" else "liouvillian"
    return Case("logderiv", " + ".join(terms), {"status": status, "kind": kind})


def _abel_case(rng, index: int) -> Case:
    """Coefficients a_1..a_n with a_{i+1} = b_{i+1} / gamma^i, where gamma is
    chosen and each b is built with or without a rational antiderivative."""
    n = 2 + index % 3
    shape = (index // 3) % 20 / 20
    gamma_num, gamma_den = [Fraction(1)], [Fraction(1)]
    if shape < 0.3:
        a1 = "0"
        scaling = "pass"
    else:
        poles = _rand_distinct(rng, rng.randint(1, 2), span=4, max_den=2)
        ks = [rng.choice((-2, -1, 1, 2)) for _ in poles]
        a1 = " + ".join(f"({k})/{_shifted('x', c)}" for k, c in zip(ks, poles))
        if shape < 0.75:
            scaling = "pass"
            for k, c in zip(ks, poles):
                for _ in range(abs(k)):
                    if k > 0:
                        gamma_num = _mul(gamma_num, _linear(c))
                    else:
                        gamma_den = _mul(gamma_den, _linear(c))
        elif shape < 0.9:
            a1 += f" + 1/(2*{_shifted('x', poles[0] + 7)})"
            scaling = "unsupported"      # a non-integer residue: gamma is algebraic
        else:
            a1 += f" + {rng.randint(1, 3)}*x"
            scaling = "fail"             # polynomial part: no gamma at all
    coeffs = [a1]
    without_anti = []
    for i in range(1, n):
        terms = _derivative_terms(rng, "x", rng.randint(0, 2))
        has_log = (index + i) % 5 < 3
        if has_log:
            terms += _log_terms(rng, "x", 1)
        if not terms:
            terms = ["(1)"]
        without_anti.append(has_log)
        # a_{i+1} = b / gamma^i with gamma = gamma_num / gamma_den
        b = " + ".join(terms)
        up = render_poly(_power(gamma_den, i), "x")
        down = render_poly(_power(gamma_num, i), "x")
        coeffs.append(f"({b})*({up})/({down})")
    if scaling == "unsupported":
        status = "unsupported"
    elif scaling == "fail":
        status = "inconclusive"
    elif n >= 3 and without_anti[0] and without_anti[1]:
        status = "algebraic_only"
    else:
        status = "inconclusive"
    return Case("abel", ";".join(coeffs), {"status": status})


def _power(p, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = _mul(out, p)
    return out


_QX_BUILDERS = {"square": _square_case, "degbound": _degbound_case,
                "antider": _antider_case, "logderiv": _logderiv_case,
                "abel": _abel_case}


def qx_mix(seed: int, per_procedure: int = 240) -> list[Case]:
    """Equal-sized seeded corpora for the five subcommands other than
    ``autonomous``."""
    rng = random.Random(seed)
    return [_QX_BUILDERS[name](rng, i) for name in QX_PROCEDURES
            for i in range(per_procedure)]


def build(name: str, seed: int) -> list[Case]:
    if name == "auto_pool":
        return auto_pool(seed)
    if name == "auto_hard":
        return auto_hard(seed)
    if name == "qx_mix":
        return qx_mix(seed)
    raise ValueError(f"unknown workload {name!r}")
