"""Closed-form approximation bounds for the greedy and local-search guarantees.

Every formula has a float fast path and an exact ``Fraction`` path
(``exact=True``); the float path never materializes the huge powers directly,
so it stays finite out to arbitrary parameter sizes, while the exact path is
one pass of plain int arithmetic (a few Fraction operations for ``ls_bound``)
per parameter and serves as a cross-check.  Exact ``greedy_ratio`` takes
about 6 ms at p = 100 and 0.13 s at p = 200, exact ``ls_bound`` about
2 ms at s = 1000 (2-vCPU Xeon, Python 3.11).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .core import Value, violates

_LOG_OVERFLOW = 700.0  # beyond exp overflow; terms degenerate gracefully


def _growth(i: int, exact: bool):
    """The per-step growth factor (i+1)/i in the requested arithmetic."""
    return Fraction(i + 1, i) if exact else (i + 1) / i


def geometric_identity(i: int, n: int, exact: bool = False):
    """Left and right sides of the geometric-sum identity

        sum_{j=1..n} x^(j-1) = i x^n - i,   x = (i+1)/i.

    Returns the pair; the two sides agree to 1e-12 relative in float mode and
    exactly in rational mode.
    """
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    x = _growth(i, exact)
    lhs = sum(x ** (j - 1) for j in range(1, n + 1))
    rhs = i * x**n - i
    return lhs, rhs


def weighted_geometric_identity(i: int, n: int, exact: bool = False):
    """Left and right sides of the differentiated geometric identity

        sum_{j=1..n} j x^(j-1) = n i^2 x^(n+1) - (n+1) i^2 x^n + i^2,
        x = (i+1)/i.
    """
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    x = _growth(i, exact)
    lhs = sum(j * x ** (j - 1) for j in range(1, n + 1))
    rhs = n * i**2 * x ** (n + 1) - (n + 1) * i**2 * x**n + i**2
    return lhs, rhs


def _require_chain_index(i: int, p: int) -> None:
    if p < 2:
        raise ValueError("need p >= 2")
    if not 1 <= i <= p - 1:
        raise ValueError(f"chain index i must be in 1..{p - 1}")


def a_star(i: int, p: int, exact: bool = False):
    """Closed form 2 i^2 ((i+1)/i)^p - 2 i^2 - i p of the step-i chain coefficient."""
    _require_chain_index(i, p)
    x = _growth(i, exact)
    return 2 * i * i * x**p - 2 * i * i - i * p


def b_star(i: int, p: int, exact: bool = False):
    """Companion coefficient; identically a_star(i, p) - i."""
    return a_star(i, p, exact) - i


def a_star_from_sum(i: int, p: int, exact: bool = False):
    """Defining sum of a_star: sum_{j=1..p} (i + p - j) ((i+1)/i)^(j-1)."""
    _require_chain_index(i, p)
    x = _growth(i, exact)
    return sum((i + p - j) * x ** (j - 1) for j in range(1, p + 1))


def b_star_from_sum(i: int, p: int, exact: bool = False):
    """Defining sum of b_star: sum_{j=1..p-1} (i + p - j + 1) ((i+1)/i)^(j-1)."""
    _require_chain_index(i, p)
    x = _growth(i, exact)
    return sum((i + p - j + 1) * x ** (j - 1) for j in range(1, p))


def greedy_ratio(p: int, exact: bool = False):
    """Worst-case OPT/greedy bound for a cardinality constraint of p.

    Evaluates the chain bound

        ( sum_{i=1..p-1} (i / a*_i) prod_{j=i+1..p-1} (b*_j / a*_j) )^(-1)
            = 1 / (1 - prod_{i=1..p-1} b*_i / a*_i),

    where the sum telescopes because b*_i / a*_i = 1 - i / a*_i.  The exact
    rational mode takes the product form in one integer pass, affordable to
    about p = 200.  The float mode keeps the running sum, with the product
    as ratios in (0, 1): in floats 1 - prod loses about three bits.  The
    tests check both against the same product taken with the defining sums
    (``a_star_from_sum``, ``b_star_from_sum``) in place of the closed forms.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if exact:
        return _greedy_exact(p)
    return _greedy_float(p, ((2.0 * i, math.log1p(1.0 / i)) for i in range(p - 1, 0, -1)))


def _greedy_exact(p: int) -> Fraction:
    """The chain bound 1 / (1 - prod b*_i / a*_i) over integers.

    With x = (i+1)/i, a*_i = N_i / i^p where N_i = 2 i^2 (i+1)^p - (2 i^2 + i p) i^p,
    so b*_i / a*_i = (N_i - i^(p+1)) / N_i.  The product is num / den with
    den = prod N_i and num = prod (N_i - i^(p+1)), so the bound is
    den / (den - num): two int products, and only the final Fraction reduces.
    """
    num, den = 1, 1
    upper = p**p  # (i+1)^p at i = p-1
    for i in range(p - 1, 0, -1):
        lower = i**p
        n_i = 2 * i * i * upper - (2 * i * i + i * p) * lower
        num *= n_i - i * lower
        den *= n_i
        upper = lower
    return Fraction(den, den - num)


def _greedy_float(p: int, steps: Iterable[tuple[float, float]]) -> float:
    """The chain bound in floats, from a*_i / i = 2 i expm1(p log1p(1/i)) - p.

    ``steps`` yields the pairs (2.0 * i, log1p(1/i)) for i = p-1 down to 1.
    Neither depends on p, so ``greedy_ratio_table`` builds them once for all
    rows and hands each row its suffix.  2.0 * i is exact in binary64 and
    ``2.0 * i * e`` evaluates as ``(2.0 * i) * e``, so taking the product out
    of the loop leaves every float operation and its order as they were and
    each row keeps its bits.  Once the power exceeds float range the step's
    ratios (i / a*_i, b*_i / a*_i) are (0, 1) to double precision, so the
    step leaves both accumulators unchanged.
    """
    total = 0.0
    prod = 1.0
    expm1 = math.expm1
    limit = _LOG_OVERFLOW
    p_float = float(p)  # the conversion int-float arithmetic would do per step
    for two_i, log_step in steps:
        log_power = p_float * log_step
        if log_power > limit:
            continue
        inv = 1.0 / (two_i * expm1(log_power) - p_float)
        total += inv * prod
        prod *= 1.0 - inv
    return 1.0 / total


def greedy_limit() -> float:
    """The limit L of ``greedy_ratio(p)`` as p grows: the paper's "5.95".

        L = 1 / (1 - e^(-K)),   K = int_0^1 du / g(u) = int_1^inf dt / (t (2 e^t - 2 - t)),

    with g(u) = 2 u (e^(1/u) - 1) - 1, so K = 0.18381462698992831...
    and L = 5.9555727340210807... (mpmath at 30 digits, from both integrals).

    Derivation.  ``greedy_ratio(p)`` is 1 / (1 - P_p) with
    P_p = prod_{i=1..p-1} b*_i / a*_i, so L = 1 / (1 - e^(-K)) once
    log P_p tends to -K.  Put i = p u.  Then a*_i / i = 2 i ((1 + 1/i)^p - 1) - p,
    and p log(1 + 1/i) tends to 1/u, so a*_i / i = p g(u) + o(p) at each
    fixed u in (0, 1], and the factors are b*_i / a*_i = 1 - i / a*_i with
    i / a*_i ~ 1 / (p g(u)).  So log P_p, the sum of the
    log(1 - i / a*_i) ~ -1 / (p g(u)), is a Riemann sum of -1 / g(u) with
    step 1/p and tends to -int_0^1 du / g(u) = -K.  The substitution
    t = 1/u gives the second form of K.

    Argued: the product form, which is exact at every p; the limit p g(u)
    of a*_i / i at fixed u; and that g decreases on (0, 1] from infinity to
    g(1) = 2e - 3, so 1/g is bounded by 1 / (2e - 3) and continuous on
    [0, 1] with value 0 at 0.  Only checked numerically: that log P_p
    converges to the integral (the errors are not uniform in u, and the end
    i << p, where (1 + 1/i)^p is far from e^(p/i), is only seen to
    contribute nothing), so that L is the limit of the chain bound.
    L - greedy_ratio(p) reads 0.5697 at p = 10, 6.052e-3 at 1,000 and
    6.056e-4 at 10^4, so p (L - greedy_ratio(p)) tends to about 6.056, and
    every float row to p = 2,000 and every exact row to p = 100 lies
    below L.  L is the limit of this bound, not a proven bound on the
    class.

    K is computed by Romberg integration of 1/g over [0, 1] (1,024 panels,
    10 extrapolations), which is smooth there and flat at 0; it matches the
    30-digit value to about 1e-16.
    """

    def inv_g(u: float) -> float:
        if u * _LOG_OVERFLOW < 1:  # 1/g(u) < e^(-700): zero in floats
            return 0.0
        return 1.0 / (2.0 * u * math.expm1(1.0 / u) - 1.0)

    # Row k holds the trapezoid rule on 2**k panels and its extrapolations.
    row = [(inv_g(0.0) + inv_g(1.0)) / 2]
    for k in range(1, 11):
        h = 0.5**k
        new = [row[0] / 2 + h * math.fsum(inv_g(j * h) for j in range(1, 2**k, 2))]
        for m in range(1, k + 1):
            new.append(new[m - 1] + (new[m - 1] - row[m - 1]) / (4**m - 1))
        row = new
    return -1.0 / math.expm1(-row[-1])


def ls_discrete_bound(s: int, t: int, exact: bool = False):
    """Local-search bound before the continuous relaxation, for basis size s
    and exchange count t in 2..s:

        (2 s y^2 - 2 t y - 2 s) / ((2 s - t) y - 2 s),   y = ((s+1)/s)^t.

    The denominator is provably positive on the stated range (``ls_bound``
    has the proof) and is asserted.
    """
    if not 2 <= t <= s:
        raise ValueError("need 2 <= t <= s")
    y = _growth(s, exact) ** t
    num = 2 * s * y * y - 2 * t * y - 2 * s
    den = (2 * s - t) * y - 2 * s
    if not den > 0:
        raise ArithmeticError(f"nonpositive denominator at s={s}, t={t}")
    return num / den


def ls_bound(s: int, exact: bool = False):
    """Worst-case OPT/local-search bound for a matroid of rank s: the maximum
    of ls_discrete_bound(s, t) over t in 2..s, which is attained at t = s.

    Proof that the bound is strictly increasing in t.  Write
    l = s ln(1 + 1/s), r = t/s, a = r l, z = e^a = ((s+1)/s)^t and
    c = 1 + 2 l.  From u - u^2/2 < ln(1+u) < u at u = 1/s,
    3/4 <= 1 - 1/(2s) < l < 1, and 0 < a <= l for t in 2..s.  Dividing
    numerator and denominator by s gives ls_discrete_bound(s, t) = h(r) =
    N / D, which is g_continuous(((s+1)/s)^s, r), with dz/dr = l z and

        N = 2 z^2 - 2 r z - 2,    D = (2 - r) z - 2.

    D > 0 on (0, 1]: e^a > 1 + a + a^2/2 and 2 - r > 0 give
    D > (2 - r)(1 + a + a^2/2) - 2 = r q(r), where
    q(r) = (2l - 1) + r (l^2 - l) - r^2 l^2 / 2.  q is concave in r, so on
    [0, 1] it is at least min(q(0), q(1)); q(0) = 2l - 1 > 1/2 and
    q(1) = l^2/2 + l - 1 >= 9/32 + 3/4 - 1 > 0.

    h is strictly increasing on (0, 1]: with ' = d/dr, N' = z (4 l z - 2 - 2a)
    and D' = z (2l - 1 - a), and collecting powers of z,

        N' D - N D' = 2z [(c - a) z^2 - 2c z + (c + a)]
                    = 2z (z - 1) ((c - a) z - (c + a)).

    As z > 1 and D^2 > 0, h' has the sign of (c - a) e^a - (c + a).  Since
    c - a > 0 (a < 1 < c), e^a > 1 + a + a^2/2 gives

        (c - a) e^a - (c + a) > a [(1 + a/2)(c - a) - 2].

    (1 + a/2)(c - a) is concave in a, equal to c = 1 + 2l > 2 at a = 0 and
    to (1 + l)(1 + l/2) >= (7/4)(11/8) > 2 at a = l, so it exceeds 2 on all
    of [0, l] and h' > 0.  Hence the maximum over t in 2..s is at t = s,
    strictly; as s grows it tends to g_continuous(e, 1) ~ 10.22.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    return ls_discrete_bound(s, s, exact)


_X_LOWER = 2.25
_X_UPPER = math.e


def _g_raw(x, r):
    """g(x, r) with only the well-definedness constraint (positive denominator)."""
    num = 2 * x ** (2 * r) - 2 * r * x**r - 2
    den = (2 - r) * x**r - 2
    if not den > 0:
        raise ValueError(f"denominator (2-r) x^r - 2 not positive at x={x}, r={r}")
    return num / den


def g_continuous(x, r):
    """The continuous relaxation g(x, r) = (2 x^(2r) - 2 r x^r - 2) / ((2-r) x^r - 2).

    Domain: 2.25 <= x <= e and 0 < r <= 1, where x stands in for
    ((s+1)/s)^s and r for t/s.  Integer r keeps exact operands exact.
    """
    if not 0 < r <= 1:
        raise ValueError("need 0 < r <= 1")
    if not _X_LOWER <= x <= _X_UPPER + 1e-12:
        raise ValueError(f"x = {x} outside [{_X_LOWER}, e]")
    return _g_raw(x, r)


def g_stationary(r):
    """Interior stationary point of g in x and its value, in closed form:

        x* = ((2+r)/(2-r))^(1/r),     g(x*, r) = (2 r^2 + 8) / (r - 2)^2.

    The closed-form value is re-derived by direct evaluation of g at x* and
    must agree to 1e-9 relative (exactly for integer r, where x* is rational).
    """
    if not 0 < r <= 1:
        raise ValueError("need 0 < r <= 1")
    exact = isinstance(r, Rational) and Fraction(r).denominator == 1
    if exact:
        # The only integer r in (0, 1] is 1, where x* = 3 is rational.
        x_star = 3
        g_value = Fraction(2 + 8, 1)
        direct = _g_raw(Fraction(x_star), 1)
        if direct != g_value:
            raise ArithmeticError("stationary value does not match direct evaluation")
        return x_star, int(g_value)
    x_star = ((2 + r) / (2 - r)) ** (1 / r)
    g_value = (2 * r * r + 8) / (r - 2) ** 2
    direct = _g_raw(x_star, r)
    if abs(direct - g_value) > 1e-9 * max(1.0, abs(g_value)):
        raise ArithmeticError("stationary value does not match direct evaluation")
    return x_star, g_value


def rearrangement_check(
    alphas: Sequence[Value], betas: Sequence[Value], xs: Sequence[Value]
) -> bool:
    """Verify the sorted-sequence averaging inequality

        (sum alpha_i x_i)(sum beta_i) >= (sum beta_i x_{n+1-i})(sum alpha_i)

    for three equal-length non-increasing nonnegative sequences.  Sequences
    that are not sorted non-increasing (or go negative) are rejected.
    """
    seqs = [tuple(alphas), tuple(betas), tuple(xs)]
    n = len(seqs[0])
    if any(len(s) != n for s in seqs) or n == 0:
        raise ValueError("three equal-length nonempty sequences required")
    for name, s in zip(("alphas", "betas", "xs"), seqs):
        if any(s[i] < s[i + 1] for i in range(n - 1)):
            raise ValueError(f"{name} must be non-increasing")
        if s[-1] < 0:
            raise ValueError(f"{name} must be nonnegative")
    al, be, x = seqs
    lhs = sum(a * v for a, v in zip(al, x)) * sum(be)
    rhs = sum(b * v for b, v in zip(be, reversed(x))) * sum(al)
    return not violates(lhs, rhs)


@dataclass(frozen=True)
class RatioTable:
    """Tabulated bound values: one (parameter, bound, arithmetic-mode) row each."""

    rows: tuple[tuple[int, Value, str], ...]
    kind: str
    precision: str = "float64"
    formula_version: str = "1"

    def __post_init__(self):
        for param, bound, _ in self.rows:
            if param >= 2 and not bound > 1:
                raise ValueError(f"bound {bound} at parameter {param} should exceed 1")

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "precision": self.precision,
            "formula_version": self.formula_version,
            "rows": [
                {"param": p, "bound": _plain(b), "mode": m} for p, b, m in self.rows
            ],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["param", "bound", "mode"])
        for p, b, m in self.rows:
            writer.writerow([p, _plain(b), m])
        return out.getvalue()


_DIGIT_CHUNK = 500  # below the smallest int-to-str limit Python accepts (640)


def _decimal(n: int) -> str:
    """Decimal digits of a nonnegative int of any size.

    Python refuses int-to-str conversions past a digit limit (4300 by
    default), which exact bounds pass from p = 58.  Converting in fixed-size
    chunks renders them without lifting that limit for the whole process.
    """
    chunk = 10**_DIGIT_CHUNK
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:0{_DIGIT_CHUNK}d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def _plain(v: Value):
    """Exact rationals render as 'p/q' strings (integral ones as 'p')."""
    if isinstance(v, Fraction):
        sign = "-" if v < 0 else ""
        num = sign + _decimal(abs(v.numerator))
        return num if v.denominator == 1 else f"{num}/{_decimal(v.denominator)}"
    return v


def greedy_ratio_table(params: Sequence[int], exact: bool = False) -> RatioTable:
    """``greedy_ratio`` at each parameter, in the order given.

    The float rows share one list of the p-free step pairs
    (2.0 * i, log1p(1/i)) up to the largest parameter, and each row runs
    ``_greedy_float`` over its suffix: the same loop, operations and order
    as the scalar call, so every row equals ``greedy_ratio(p)`` bit for bit.
    """
    mode = "rational" if exact else "float64"
    if exact:
        rows = tuple((p, greedy_ratio(p, exact=True), mode) for p in params)
    else:
        if min(params, default=2) < 2:
            raise ValueError("need p >= 2")
        top = max(params, default=0)
        # steps[top - p] is i = p - 1, so a row walks the suffix that starts there.
        steps = [(2.0 * i, math.log1p(1.0 / i)) for i in range(top - 1, 0, -1)]
        rows = tuple((p, _greedy_float(p, steps[top - p :]), mode) for p in params)
    return RatioTable(rows, kind="greedy", precision=mode)


def ls_bound_table(params: Sequence[int], exact: bool = False) -> RatioTable:
    mode = "rational" if exact else "float64"
    rows = tuple((s, ls_bound(s, exact=exact), mode) for s in params)
    return RatioTable(rows, kind="local", precision=mode)
