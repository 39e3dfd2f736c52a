"""CPISync: set reconciliation by characteristic polynomial interpolation.

Minsky, Trachtenberg & Zippel's method [41] is the paper's section 2.1
counterpoint to IBLTs: "several approaches involve more computation but
are smaller in size"; Eppstein et al. [23] show IBLTs win on CPU for
differences under ~10k while CPISync wins on bytes (it is essentially
information-optimal: one field element per difference element).
Implementing it makes that trade-off measurable inside this repository
(see ``bench_extension_cpisync``).

How it works, over a prime field GF(p) with p > the key universe:

* Party A's set has characteristic polynomial
  ``chi_A(z) = prod_{x in A} (z - x)``; likewise B.
* A sends ``chi_A`` *evaluated at m-bar agreed sample points* (plus its
  set size) -- ``m-bar`` is an upper bound on the symmetric difference.
* B divides by her own evaluations; the quotients are samples of the
  rational function ``chi_A / chi_B`` whose numerator/denominator are
  the characteristic polynomials of (A - B) and (B - A) -- everything
  common cancels.  B interpolates that rational function (a linear
  solve), and the polynomial roots are exactly the differing elements.
* Extra sample points verify the result; a bound that was too small is
  *detected*, not silently wrong.

Everything here -- field arithmetic, dense polynomials, Gaussian
elimination, probabilistic root finding (Rabin splitting) -- is from
scratch; p = 2^127 - 1 (a Mersenne prime) keeps reductions cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import DecodeFailure, ParameterError

#: The field modulus: the Mersenne prime 2^127 - 1 (keys are 64-bit).
FIELD_PRIME = (1 << 127) - 1

#: Serialized bytes per field element.
FIELD_BYTES = 16

#: Extra agreed evaluation points used purely for verification.
VERIFY_POINTS = 2


# ---------------------------------------------------------------------------
# Polynomials over GF(p), dense little-endian coefficient lists
# ---------------------------------------------------------------------------

def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def poly_eval(poly: Sequence[int], x: int, p: int = FIELD_PRIME) -> int:
    """Evaluate by Horner's rule."""
    acc = 0
    for coeff in reversed(poly):
        acc = (acc * x + coeff) % p
    return acc


def poly_mul(a: Sequence[int], b: Sequence[int],
             p: int = FIELD_PRIME) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_divmod(num: Sequence[int], den: Sequence[int],
                p: int = FIELD_PRIME) -> tuple[list, list]:
    den = _trim(list(den))
    if not den:
        raise ParameterError("polynomial division by zero")
    num = list(num)
    inv_lead = pow(den[-1], p - 2, p)
    deg_d = len(den) - 1
    quot = [0] * max(0, len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        coeff = num[i] % p
        if coeff == 0:
            continue
        factor = coeff * inv_lead % p
        quot[i - deg_d] = factor
        for j, dj in enumerate(den):
            num[i - deg_d + j] = (num[i - deg_d + j] - factor * dj) % p
    return _trim(quot), _trim(num[:deg_d])


def poly_gcd(a: Sequence[int], b: Sequence[int],
             p: int = FIELD_PRIME) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = poly_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _poly_powmod(base: list, exponent: int, modulus: list,
                 p: int = FIELD_PRIME) -> list:
    """``base^exponent mod modulus`` by square-and-multiply."""
    _, result = poly_divmod([1], modulus, p)
    result = [1] if not result else result
    _, base = poly_divmod(base, modulus, p)
    while exponent:
        if exponent & 1:
            _, result = poly_divmod(poly_mul(result, base, p), modulus, p)
        base_sq = poly_mul(base, base, p)
        _, base = poly_divmod(base_sq, modulus, p)
        exponent >>= 1
    return result


def poly_roots(poly: Sequence[int], p: int = FIELD_PRIME,
               rng: random.Random | None = None,
               _depth: int = 0) -> list:
    """All roots of a polynomial that splits into distinct linear factors.

    Rabin's algorithm: ``gcd(f, (x+a)^((p-1)/2) - 1)`` splits the roots
    by quadratic-residue character of ``root + a``; random shifts ``a``
    recurse until linear.  Our inputs (characteristic polynomials of
    sets) are always square-free products of linear factors.
    """
    poly = _trim(list(poly))
    rng = rng or random.Random(0xC915)
    if len(poly) <= 1:
        return []
    if len(poly) == 2:
        inv = pow(poly[1], p - 2, p)
        return [(-poly[0] * inv) % p]
    if _depth > 200:
        raise DecodeFailure("root finding failed to converge")
    shift = rng.randrange(p)
    half = _poly_powmod([shift, 1], (p - 1) // 2, list(poly), p)
    half = list(half)
    if half:
        half[0] = (half[0] - 1) % p
    else:
        half = [(p - 1) % p]
    left = poly_gcd(poly, half, p)
    if len(left) <= 1 or len(left) == len(poly):
        return poly_roots(poly, p, rng, _depth + 1)
    right, _ = poly_divmod(poly, left, p)
    return (poly_roots(left, p, rng, _depth + 1)
            + poly_roots(right, p, rng, _depth + 1))


def _solve_linear(matrix: list, rhs: list, p: int = FIELD_PRIME) -> list:
    """Particular solution of a linear system over GF(p) (free vars = 0).

    When the difference-degree bounds overshoot the true degrees, the
    rational function is determined only up to a common polynomial
    factor, so the system is legitimately rank-deficient; any solution
    works because :func:`reconcile` strips ``gcd(P, Q)`` afterwards.
    Raises :class:`DecodeFailure` only on an *inconsistent* system.
    """
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    cols = len(matrix[0]) if n else 0
    row = 0
    pivot_of_col: dict = {}
    for col in range(cols):
        pivot = next((r for r in range(row, n) if aug[r][col] % p), None)
        if pivot is None:
            continue  # free column: variable fixed to 0 below
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [v * inv % p for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(v - factor * w) % p
                          for v, w in zip(aug[r], aug[row])]
        pivot_of_col[col] = row
        row += 1
    # Consistency of the remaining (zeroed-out) equations.
    for r in range(row, n):
        if not any(v % p for v in aug[r][:cols]) and aug[r][cols] % p:
            raise DecodeFailure("inconsistent CPISync system")
    return [aug[pivot_of_col[c]][cols] % p if c in pivot_of_col else 0
            for c in range(cols)]


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

def sample_points(count: int, p: int = FIELD_PRIME) -> list:
    """Agreed evaluation points, taken from the top of the field.

    Keys are < 2^64, so points >= p - count can never collide with a
    set element (which would zero a characteristic evaluation).
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    return [(p - 1 - i) for i in range(count)]


@dataclass(frozen=True)
class CPISyncDigest:
    """What one party transmits: set size + evaluations at agreed points."""

    set_size: int
    evaluations: tuple
    mbar: int

    def serialized_size(self) -> int:
        """Wire bytes: the evaluations plus a small header."""
        return FIELD_BYTES * len(self.evaluations) + 9


def make_digest(items: Iterable[int], mbar: int,
                p: int = FIELD_PRIME) -> CPISyncDigest:
    """Evaluate the characteristic polynomial at ``mbar + verify`` points."""
    if mbar < 1:
        raise ParameterError(f"mbar must be >= 1, got {mbar}")
    items = list(items)
    points = sample_points(mbar + VERIFY_POINTS, p)
    evals = []
    for z in points:
        acc = 1
        for x in items:
            acc = acc * (z - x) % p
        evals.append(acc)
    return CPISyncDigest(set_size=len(items), evaluations=tuple(evals),
                         mbar=mbar)


def reconcile(digest: CPISyncDigest, local_items: Iterable[int],
              p: int = FIELD_PRIME) -> tuple[frozenset, frozenset]:
    """Recover (remote-only, local-only) from a digest and the local set.

    Raises :class:`DecodeFailure` when the true symmetric difference
    exceeds the digest's ``mbar`` bound (detected via the verification
    points or a singular system), mirroring an IBLT decode failure.
    """
    local_items = list(local_items)
    local_digest = make_digest(local_items, digest.mbar, p)
    points = sample_points(digest.mbar + VERIFY_POINTS, p)

    # f(z) = chi_remote(z) / chi_local(z) = P(z) / Q(z) where P, Q are
    # the characteristic polynomials of the two difference sets.
    ratios = [
        remote * pow(local, p - 2, p) % p
        for remote, local in zip(digest.evaluations,
                                 local_digest.evaluations)
    ]

    delta = digest.set_size - len(local_items)
    mbar = digest.mbar
    # deg P - deg Q = delta and deg P + deg Q <= mbar; pad to parity.
    if (mbar + delta) % 2:
        mbar += 1
    deg_p = (mbar + delta) // 2
    deg_q = (mbar - delta) // 2
    if deg_p < 0 or deg_q < 0:
        raise DecodeFailure(
            f"size delta {delta} exceeds the m-bar bound {digest.mbar}")

    # Monic P, Q: unknowns are the lower coefficients.  Each sample
    # point yields  ratio * Q(z) - P(z) = 0.
    unknowns = deg_p + deg_q
    if unknowns == 0:
        remote_only: frozenset = frozenset()
        local_only: frozenset = frozenset()
        _verify(ratios, points, [1], [1], p)
        return remote_only, local_only

    rows = []
    rhs = []
    equations = min(len(points), unknowns + VERIFY_POINTS)
    for z, ratio in list(zip(points, ratios))[:equations]:
        row = [0] * unknowns
        zp = 1
        for j in range(deg_p):            # -P's lower coefficients
            row[j] = (-zp) % p
            zp = zp * z % p
        z_to_degp = pow(z, deg_p, p)
        zq = 1
        for j in range(deg_q):            # +ratio * Q's lower coefficients
            row[deg_p + j] = ratio * zq % p
            zq = zq * z % p
        z_to_degq = pow(z, deg_q, p)
        rows.append(row)
        rhs.append((z_to_degp - ratio * z_to_degq) % p)
    solution = _solve_linear(rows, rhs, p)

    poly_p = solution[:deg_p] + [1]
    poly_q = solution[deg_p:] + [1]
    common = poly_gcd(poly_p, poly_q, p)
    if len(common) > 1:
        poly_p, _ = poly_divmod(poly_p, common, p)
        poly_q, _ = poly_divmod(poly_q, common, p)
    _verify(ratios, points, poly_p, poly_q, p)

    remote_roots = poly_roots(poly_p, p)
    local_roots = poly_roots(poly_q, p)
    if (len(remote_roots) != len(poly_p) - 1
            or len(local_roots) != len(poly_q) - 1):
        raise DecodeFailure("difference polynomials failed to split")
    local_set = set(local_items)
    local_only = frozenset(local_roots) & frozenset(local_set)
    if len(local_only) != len(local_roots):
        raise DecodeFailure("recovered roots are not local elements")
    return frozenset(remote_roots), frozenset(local_roots)


def _verify(ratios, points, poly_p, poly_q, p) -> None:
    for z, ratio in zip(points, ratios):
        qz = poly_eval(poly_q, z, p)
        pz = poly_eval(poly_p, z, p)
        if (ratio * qz - pz) % p:
            raise DecodeFailure(
                "verification points disagree: symmetric difference "
                "exceeds the m-bar bound")


def cpisync_size_bytes(mbar: int) -> int:
    """Wire size of a digest for a difference bound of ``mbar``."""
    if mbar < 1:
        raise ParameterError(f"mbar must be >= 1, got {mbar}")
    return FIELD_BYTES * (mbar + VERIFY_POINTS) + 9
