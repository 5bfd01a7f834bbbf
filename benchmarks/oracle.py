"""Independent correctness oracle for the benchmark, built on sympy.

It checks every verdict against the answer known by construction, or, where
no answer is known, against sympy's residues of 1/R.  Every emitted witness
is substituted back into its identity with sympy's rational function fields;
``liouvillian.verify`` is never used.
"""

from __future__ import annotations

import re
from functools import lru_cache

import sympy
from sympy import QQ
from sympy.integrals.rationaltools import ratint_ratpart

from workloads import KNOWN_DEFECTS

Y = sympy.Symbol("y")
_ALLOWED = re.compile(r"[0-9a-z+\-*/^() ]*")
_INTEGER = re.compile(r"(?<!\*\*)\b\d+")


class OracleError(RuntimeError):
    """The oracle cannot decide an input; the workload needs changing."""


@lru_cache(maxsize=None)
def _field(names: str):
    return sympy.field(names, QQ)


def value(text: str, names: str, **bound):
    """``text`` (the program's expression grammar) as an element of
    Q(names); ``bound`` substitutes field elements for some names."""
    if not _ALLOWED.fullmatch(text):
        raise OracleError(f"unexpected characters in {text!r}")
    field, *gens = _field(names)
    scope = {"__builtins__": {}, "K": field}
    scope.update(zip(names.split(","), gens))
    scope.update(bound)
    source = _INTEGER.sub(lambda m: f"K({m.group()})", text.replace("^", "**"))
    return field(eval(source, scope))  # noqa: S307 - whitelisted grammar


# -- ground truth for y' = R(y) ---------------------------------------------


def _residues(p, q):
    """Residues of p/q at the roots of the squarefree q: exact where sympy
    gives the roots in radicals (factors of degree <= 2), else numeric."""
    p_expr, dq_expr = p.as_expr(), q.diff(0).as_expr()
    exact, numeric = [], []
    for factor, _ in q.factor_list()[1]:
        poly = sympy.Poly(factor.as_expr(), Y)
        if poly.degree() <= 2:
            for root in sympy.roots(poly, multiple=True):
                exact.append(sympy.radsimp(p_expr.subs(Y, root) / dq_expr.subs(Y, root)))
        else:
            for root in poly.nroots(n=60):
                numeric.append(sympy.N(p_expr.subs(Y, root) / dq_expr.subs(Y, root), 50))
    return exact, numeric


def autonomous_truth(text: str) -> dict:
    """The verdict for y' = R(y): liouvillian iff 1/R is an exact derivative,
    or is proper over a squarefree denominator with commensurable residues."""
    flipped = 1 / value(text, "y")
    p, q = flipped.numer, flipped.denom
    no = {"status": "not_liouvillian", "branch": "none", "witness": False}
    anti = {"status": "liouvillian", "branch": "antiderivative", "witness": True}
    if q.degree() == 0:
        return anti
    if q.gcd(q.diff(0)).degree() > 0:
        # an exact derivative iff Hermite reduction of the proper part
        # leaves no logarithmic part
        _, proper = p.div(q)
        _, log_part = ratint_ratpart(sympy.Poly(proper.as_expr(), Y),
                                     sympy.Poly(q.as_expr(), Y), Y)
        return anti if log_part == 0 else no
    if p.degree() >= q.degree():
        return no        # simple poles with nonzero residues, plus a polynomial part
    exact, numeric = _residues(p, q)
    values = [complex(sympy.N(r, 50)) for r in exact] + [complex(r) for r in numeric]
    for other in values[1:]:
        ratio = other / values[0]
        if abs(ratio.imag) > 1e-20 * abs(ratio):
            return no
    if numeric:
        raise OracleError(f"cannot decide commensurability for {text!r}")
    ratios = [sympy.radsimp(r / exact[0]).is_rational for r in exact]
    if None in ratios:
        raise OracleError(f"cannot decide residue ratios for {text!r}")
    if not all(ratios):
        return no
    return {"status": "liouvillian", "branch": "log_derivative",
            "witness": bool(exact[0].is_rational)}


# -- witness identities ---------------------------------------------------------


def _is_antiderivative(z_text: str, f, var: str) -> bool:
    """z' = f in Q(var)."""
    return value(z_text, var).diff(_field(var)[1]) == f


def _is_log_derivative(z_text: str, f, var: str) -> bool:
    """z' = f * z in Q(var)."""
    z = value(z_text, var)
    return z.diff(_field(var)[1]) == f * z


def _square_witness_ok(text: str, witness: dict) -> bool:
    """(y')^2 = P(y), with y' from the generator rule, modulo lam^2 = c."""
    gen = witness["generators"][0]
    ext = witness["quad_ext"]
    symbol = ext["symbol"] if ext else "lam"
    names = f"{gen['name']},{symbol}"
    field, g, lam = _field(names)
    y = value(witness["y"], names)
    dy = y.diff(g)
    if gen["kind"] != "antiderivative":
        dy = dy * value(gen["rate"], names) * g
    residual = (dy * dy - value(text, names, y=y)).numer
    if ext:
        residual = residual.rem((lam**2 - value(ext["square"], names)).numer)
    return residual == 0


def _abel_details_ok(text: str, details: dict) -> bool:
    """gamma' = a1 * gamma, and scaled_i = a_{i+1} * gamma^i (0 for i = 0)."""
    gamma = details["gamma"]
    if gamma is None:
        return True
    coeffs = [value(piece, "x") for piece in text.split(";")]
    if not _is_log_derivative(gamma, coeffs[0], "x"):
        return False
    g = value(gamma, "x")
    scaled = [value(s, "x") for s in details["scaled_coeffs"]]
    return scaled[0] == 0 and all(s == a * g**i for i, (s, a)
                                  in enumerate(zip(scaled, coeffs)) if i)


# -- the check -------------------------------------------------------------------


def check(case, report) -> str | None:
    """None when the report is right for the case; otherwise what is wrong.
    An error record is right only for a known defect: the program's limits
    count work, not time, so any other error is a regression."""
    if report["status"] == "error":
        return None if case.text in KNOWN_DEFECTS else f"error: {report['error']}"
    expect = case.expect
    if expect is None:
        expect = autonomous_truth(case.text)
    for key in ("status", "branch"):
        if key in expect and report[key] != expect[key]:
            return f"{key} {report[key]!r}, expected {expect[key]!r}"
    proc, witness, details = case.procedure, report["witness"], report["details"]
    if proc == "autonomous":
        if (witness is not None) != expect["witness"]:
            return f"witness presence {witness is not None}, expected {expect['witness']}"
        if witness is not None:
            # R * z' = 1, or R * z' = a * z
            flipped = 1 / value(case.text, "y")
            ok = (_is_antiderivative(witness["z"], flipped, "y")
                  if report["branch"] == "antiderivative" else
                  _is_log_derivative(witness["z"],
                                     flipped * value(witness["scale"], "y"), "y"))
            if not ok:
                return f"witness z = {witness['z']} fails its identity"
    elif proc == "square":
        if (witness is not None) != (expect["status"] == "liouvillian"):
            return "witness presence does not match the verdict"
        if witness is not None and not _square_witness_ok(case.text, witness):
            return f"witness y = {witness['y']} fails (y')^2 = P(y)"
    elif proc == "degbound":
        if details["degree"] != expect["degree"]:
            return f"degree {details['degree']}, expected {expect['degree']}"
    elif proc == "antider":
        if (witness is not None) != (expect["status"] == "liouvillian"):
            return "witness presence does not match the verdict"
        if witness is not None and not _is_antiderivative(
                witness["z"], value(case.text, "x"), "x"):
            return f"antiderivative z = {witness['z']} fails dz/dx = f"
    elif proc == "logderiv":
        if details["kind"] != expect["kind"]:
            return f"kind {details['kind']!r}, expected {expect['kind']!r}"
        if details["kind"] == "rational" and not _is_log_derivative(
                details["gamma"], value(case.text, "x"), "x"):
            return f"gamma = {details['gamma']} fails gamma' = f*gamma"
    elif proc == "abel":
        if not _abel_details_ok(case.text, details):
            return "gamma or the scaled coefficients fail their identities"
    return None
