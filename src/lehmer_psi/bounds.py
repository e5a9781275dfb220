"""The order-sum inequality catalog as executable checks.

Six upper-bound variants for noncyclic groups (coefficients multiplying
psi(C_n)), the nilpotent lower bound, and the witness lower bound for
noncyclic nilpotent groups of order 4n. The paper states that floor as
phi(n)/(2n), which holds only when 3 | n; the provable floor is
7*phi(n)/(16n) (see witness_lower_bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DomainError, Factorization, _coerce, euler_phi, factor, is_prime, is_squarefree
from .groups import GroupSpec, psi, psi_cyclic

VARIANTS = ("i", "ii", "iii", "iv", "v", "vi")


def upper_coefficient(
    variant: str,
    *,
    q: int | None = None,
    alpha: int | None = None,
    l: int | None = None,
    mode: str = "corrected",
) -> Fraction:
    """Coefficient c with psi(G) <= c * psi(C_n) for the variant's class.

    Variant vi takes mode "corrected" (default, 1/3 + 2l/(3 psi(C_l)), which
    matches the extremal family exactly) or "as-printed" (1/3 + 2l/psi(C_l),
    kept only to pin its failure; it exceeds 1 already at l=3).
    """
    if variant == "i":
        return Fraction(7, 11)
    if variant == "ii":
        if q is None or not is_prime(q):
            raise DomainError(f"variant ii needs a prime q, got {q}")
        return Fraction(((q * q - 1) * q + 1) * (q + 1), q**5 + 1)
    if variant == "iii":
        return Fraction(13, 21)
    if variant == "iv":
        return Fraction(27, 43)
    if variant == "v":
        if alpha is None or alpha < 4:
            raise DomainError(f"variant v needs alpha >= 4, got {alpha}")
        return Fraction(2 ** (2 * alpha + 3) + 7, 7 * (1 + 2 ** (2 * alpha + 1)))
    if variant == "vi":
        if l is None or l < 3 or factor(l).omega != 1:
            raise DomainError(f"variant vi needs a prime power l >= 3, got {l}")
        if mode == "corrected":
            return Fraction(1, 3) + Fraction(2 * l, 3 * psi_cyclic(l))
        if mode == "as-printed":
            return Fraction(1, 3) + Fraction(2 * l, psi_cyclic(l))
        raise DomainError(f"unknown mode {mode!r}")
    raise DomainError(f"unknown variant {variant!r}")


def _min_sylow_part(f: Factorization) -> int:
    return min(p**a for p, a in f)


def nilpotent_lower_bound(f: Factorization | int) -> int:
    """prod p*(p**a - 1) + 1 over the factorization; the floor for psi of a
    nilpotent group, attained exactly when every Sylow subgroup has prime
    exponent.
    """
    f = _coerce(f)
    if f.value < 2:
        raise DomainError("the nilpotent floor needs n >= 2")
    r = 1
    for p, a in f:
        r *= p * (p**a - 1)
    return r + 1


def witness_lower_bound(f: Factorization | int, mode: str = "as-stated") -> Fraction:
    """Lower bound for psi'' of a noncyclic nilpotent group of order 4n,
    n odd squarefree >= 3.

    The as-stated floor phi(n)/(2n) is the claim the exclusion chains build
    on, but it is an overstatement: psi''(C2 x C2) = 7/16, not >= 1/2, so the
    floor actually holds iff 3 | n (counterexample n=5: 147/400 < 2/5).
    Mode "provable" returns 7*phi(n)/(16n), which does follow from
    psi(C_n) > n*phi(n) and holds unconditionally.
    """
    f = _coerce(f)
    n = f.value
    if n < 3 or n % 2 == 0:
        raise DomainError(f"witness floor needs odd n >= 3, got {n}")
    if not is_squarefree(f):
        raise DomainError(f"witness floor needs squarefree n, got {n}")
    if mode == "as-stated":
        return Fraction(euler_phi(f), 2 * n)
    if mode == "provable":
        return Fraction(7 * euler_phi(f), 16 * n)
    raise DomainError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    applicable: bool
    lhs: Fraction | int | None
    rhs: Fraction | int | None
    holds: bool | None
    equality: bool | None

    def as_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "applicable": self.applicable,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "holds": self.holds,
            "equality": self.equality,
        }


def check_bounds(g: GroupSpec) -> list[BoundReport]:
    """Evaluate every applicable catalog bound for the spec; inapplicable
    bounds are still listed with applicable=False so nothing is skipped
    silently.
    """
    n = g.order
    f = factor(n)
    psi_g = psi(g)
    psi_cn = psi_cyclic(f)
    cyclic = g.is_cyclic
    v2 = next((a for p, a in f if p == 2), 0)
    m_odd = n >> v2
    f_odd = Factorization._proven(m_odd, f.factors[1:] if v2 else f.factors)
    reports = [
        BoundReport("cyclic-maximum", True, psi_g, psi_cn, psi_g <= psi_cn, psi_g == psi_cn),
        BoundReport("order-square", True, psi_g, n * n, psi_g <= n * n, psi_g == n * n),
    ]

    def not_applicable(bound_id: str) -> BoundReport:
        return BoundReport(bound_id, False, None, None, None, None)

    # upper_coefficient keyword arguments for each variant that applies
    upper_kwargs = {} if cyclic or n == 1 else {
        "i": {} if v2 == 2 else None,
        "ii": {"q": f.factors[0][0]},
        "iii": {} if v2 == 1 else None,
        "iv": {} if v2 == 3 else None,
        "v": {"alpha": v2} if v2 >= 4 else None,
        "vi": {"l": _min_sylow_part(f_odd)} if v2 == 1 and m_odd > 1 else None,
    }
    for v in VARIANTS:
        kwargs = upper_kwargs.get(v)
        if kwargs is None:
            reports.append(not_applicable(f"upper-{v}"))
            continue
        rhs = upper_coefficient(v, **kwargs) * psi_cn
        reports.append(BoundReport(f"upper-{v}", True, psi_g, rhs, psi_g <= rhs, psi_g == rhs))

    if n >= 2 and g.is_nilpotent:
        floor = nilpotent_lower_bound(f)
        reports.append(
            BoundReport("nilpotent-floor", True, psi_g, floor, psi_g >= floor, psi_g == floor)
        )
    else:
        reports.append(not_applicable("nilpotent-floor"))

    if (
        v2 == 2
        and m_odd >= 3
        and not cyclic
        and g.is_nilpotent
        and is_squarefree(f_odd)
    ):
        lhs = Fraction(psi_g, n * n)
        rhs = witness_lower_bound(f_odd)
        # the as-stated floor is an overstatement and fails whenever 3 does
        # not divide the odd part; the report says so rather than hiding it
        reports.append(BoundReport("witness-floor", True, lhs, rhs, lhs > rhs, lhs == rhs))
        rhs_p = witness_lower_bound(f_odd, mode="provable")
        reports.append(
            BoundReport("witness-floor-provable", True, lhs, rhs_p, lhs > rhs_p, lhs == rhs_p)
        )
    else:
        reports.append(not_applicable("witness-floor"))
        reports.append(not_applicable("witness-floor-provable"))

    return reports
