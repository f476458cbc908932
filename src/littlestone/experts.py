"""Combinatorial and closed-form quantities for prediction with expert advice.

``capacity_D(n, k)`` is the largest d with 2^d <= n * binom(d, <=k), the
classical binomial-weights mistake bound; it is computed purely with integer
arithmetic.  ``mstar2_closed_form`` gives the exact optimal randomized loss
for two experts.  The remaining functions are the asymptotic approximations
of capacity_D: the binary entropy h, f(p) = (1 - h(p)) / p with its inverse
on (0, 1/2], the fixed point d_star of d = log2(n) + d * h(k/d), and the
upper-bound family up(n, k, beta).  Root finding uses plain bisection with
hard residual tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ApproxValue:
    """A floating-point quantity tagged with how it was obtained."""

    value: float
    method: str  # exact-integer | closed-form-rational | root-find
    residual: float | None = None

    def __float__(self) -> float:
        return self.value


def binomial_sum(d: int, k: int) -> int:
    """binom(d, <=k): number of subsets of [d] of size at most k, exact."""
    if d < 0 or k < 0:
        raise ValueError("arguments must be non-negative")
    return sum(math.comb(d, i) for i in range(min(d, k) + 1))


def capacity_D(n: int, k: int) -> int:
    """Largest d with 2^d <= n * binom(d, <=k), by upward integer scan.

    For n >= 2 the scan starts at 2k+1, which always satisfies the
    inequality (binom(2k+1, <=k) = 2^2k); beyond 2k the tested ratio is
    strictly decreasing, so the first failure pins the maximum.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    d = 2 * k + 1 if n >= 2 else 0
    while 2 ** (d + 1) <= n * binomial_sum(d + 1, k):
        d += 1
    return d


def mstar2_closed_form(k: int) -> Fraction:
    """Optimal randomized loss against two experts, one of which errs <= k times:
    k + (k + 1/2) * binom(2k, k) / 4^k, exact."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return k + Fraction((2 * k + 1) * math.comb(2 * k, k), 2 * 4**k)


def sphere_packing_bound(n: int, t: int, k: int, clamp: bool = False) -> Fraction:
    """Upper bound n * binom(t, <=k) / 2^t on the probability that a uniform
    length-t label sequence is matched by one of n experts up to k errors."""
    if not t >= k >= 0:
        raise ValueError("need t >= k >= 0")
    out = Fraction(n * binomial_sum(t, k), 2**t)
    if clamp and out > 1:
        return Fraction(1)
    return out


def entropy(p: float) -> ApproxValue:
    """Binary entropy h(p) in bits."""
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    val = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    return ApproxValue(val, "closed-form-rational")


def f_of(p: float) -> ApproxValue:
    """f(p) = (1 - h(p)) / p, strictly decreasing from +inf to 0 on (0, 1/2]."""
    if not 0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    return ApproxValue((1 - entropy(p).value) / p, "closed-form-rational")


_F_INV_TOL = 1e-10


def f_inverse(c: float) -> ApproxValue:
    """The unique p in (0, 1/2] with f(p) = c, by bisection.

    c = 0 is rejected: the solution degenerates to the endpoint limit
    p -> 1/2.  The returned residual |f(p) - c| is at most 1e-10.
    """
    if c <= 0:
        raise ValueError("c must be positive (f -> 0 only in the p=1/2 limit)")
    lo, hi = 1e-17, 0.5
    # f(lo) is astronomically large; f(hi) = 0 < c.
    for _ in range(200):
        mid = (lo + hi) / 2
        stuck = mid == lo or mid == hi  # no float lies strictly between them
        if f_of(mid).value > c:
            lo = mid
        else:
            hi = mid
        if stuck:  # every later step would leave (lo, hi) as it is
            break
    p = (lo + hi) / 2
    residual = abs(f_of(p).value - c)
    if residual > _F_INV_TOL:
        raise ArithmeticError(
            f"f_inverse({c}) did not converge: bracket [{lo}, {hi}], residual {residual}"
        )
    return ApproxValue(p, "root-find", residual)


def d_star(n: int, k: int) -> ApproxValue:
    """Solution of d = log2(n) + d * h(k/d), i.e. d = k / f_inverse(log2(n)/k).

    Defined for n >= 2 and k >= 1; always at least capacity_D(n, k).
    """
    if n < 2:
        raise ValueError("d_star needs n >= 2")
    if k < 1:
        raise ValueError("d_star needs k >= 1 (the k=0 regime is just log2 n)")
    c = math.log2(n) / k
    p = f_inverse(c)
    d = k / p.value
    residual = abs(d - math.log2(n) - d * entropy(k / d).value)
    if residual > 1e-8:
        raise ArithmeticError(f"d_star({n}, {k}): residual {residual} too large")
    return ApproxValue(d, "root-find", residual)


def vovk_up(n: int, k: int, beta: float) -> ApproxValue:
    """up(n, k, beta) = (log2 n + k log2(1/beta)) / log2(2 / (1 + beta)).

    Every beta in (0, 1) gives an upper bound on capacity_D(n, k); the
    minimum over beta equals d_star(n, k).
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    num = math.log2(n) + k * math.log2(1 / beta)
    den = math.log2(2 / (1 + beta))
    return ApproxValue(num / den, "closed-form-rational")


def _as_exact(eps) -> Fraction:
    # Floats go through their decimal rendering so that 0.05 means 1/20,
    # keeping the exponent denominators small enough for exact comparison.
    if isinstance(eps, float):
        return Fraction(str(eps))
    return Fraction(eps)


def binomial_estimate_check(d: int, k: int, eps) -> bool:
    """Exact check of two binomial-tail growth estimates.

    With m = floor((1+eps) d), tests

        binom(m, <=k) <= (d / (d-k))^(eps d)          * binom(d, <=k)
        binom(m, <=k) <= 2^(eps d - eps^2 k / 3)      * binom(d, <=k)

    the second only when k <= d/2 and eps <= 1/3.  Both sides are compared
    after raising to the exponent's denominator, so the verdict is exact for
    rational eps (floats are read as their decimal literal).
    """
    eps = _as_exact(eps)
    if not d >= k >= 1:
        raise ValueError("need d >= k >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = math.floor((1 + eps) * d)
    left = binomial_sum(m, k)
    base = binomial_sum(d, k)

    ok = True
    if k < d:
        # (left/base)^b <= (d/(d-k))^a  with  eps*d = a/b in lowest terms.
        q = eps * d
        a, b = q.numerator, q.denominator
        ok = left**b * (d - k) ** a <= d**a * base**b
    if ok and 2 * k <= d and eps <= Fraction(1, 3):
        q2 = eps * d - eps * eps * k / 3
        a2, b2 = q2.numerator, q2.denominator
        if a2 < 0:
            ok = False
        else:
            ok = left**b2 <= 2**a2 * base**b2
    return ok


def harmonic_number(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exact."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def up_min_over_grid(n: int, k: int, grid_size: int = 50) -> float:
    """Minimum of up(n, k, .) over an even beta grid in (0, 1)."""
    return min(
        vovk_up(n, k, j / (grid_size + 1)).value for j in range(1, grid_size + 1)
    )
