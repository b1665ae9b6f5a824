"""Exact modular arithmetic: NTT-friendly primes and Montgomery representations.

Words are capped at 59 bits.  Moduli below 2^31 default to a 32-bit
Montgomery radix and larger ones to a 64-bit radix; the vector kernels in
poly.py reduce both, and any narrower radix with q*R < 2^63, exactly on
uint64 arrays.  The word-level functions here are the big-integer reference
they are tested against.

Data words carry a representation tag:

    NM  non-Montgomery        X
    SM  single-Montgomery     X*R   mod q
    DM  double-Montgomery     X*R^2 mod q

MontMult multiplies values and divides by R once, so tags compose additively
minus one: SM*SM -> SM, NM*DM -> SM, SM*NM -> NM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NM, SM, DM = 0, 1, 2

REPR_NAMES = {NM: "nm", SM: "sm", DM: "dm"}
REPR_BY_NAME = {v: k for k, v in REPR_NAMES.items()}


class ReprError(ValueError):
    """Illegal Montgomery representation combination."""


def compose_repr(a: int, b: int) -> int:
    """Tag of MontMult(x_a, y_b): radix exponents add, reduction removes one."""
    e = a + b - 1
    if e not in (NM, SM, DM):
        raise ReprError(
            f"cannot MontMult {REPR_NAMES[a]} by {REPR_NAMES[b]}: "
            f"result radix exponent {e} is not representable"
        )
    return e


@dataclass(frozen=True)
class Modulus:
    """An NTT-friendly prime with its precomputed constants.

    q ≡ 1 (mod 2n) so a primitive 2n-th root of unity exists; omega is one,
    chosen deterministically, with omega^n ≡ -1 (mod q).
    """

    q: int
    n: int
    r_bits: int
    q_inv_neg: int  # -q^{-1} mod R
    r_inv: int      # R^{-1} mod q
    r2: int         # R^2 mod q
    omega: int
    omega_inv: int
    n_inv: int

    @property
    def r(self) -> int:
        return 1 << self.r_bits

    @property
    def ntt_ready(self) -> bool:
        return self.omega != 0

    def __repr__(self):
        return f"Modulus(q={self.q}, n={self.n}, r_bits={self.r_bits})"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# _MR_PSI[k]: the least strong pseudoprime to every base in _MR_BASES[:k+1]
# (Jaeschke, Math. Comp. 1993; Sorenson & Webster, Math. Comp. 2017)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461)
_MR_BASES_PRODUCT = math.prod(_MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..37.

    Exact below 318665857834031151167461 (about 3.2e23); stops after the
    fewest bases that are exact for n.
    """
    if n < 2:
        return False
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise ValueError(f"{n} exceeds the deterministic Miller-Rabin range")


def prev_prime(n: int) -> int:
    """Largest prime strictly below n."""
    if n <= 2:
        raise ValueError(f"no prime below {n}")
    p = n - 1
    while not is_prime(p):
        p -= 1
    return p


def _find_omega(q: int, n: int) -> int:
    # omega = c^((q-1)/2n) has order exactly 2n iff omega^n == -1, because
    # 2n is a power of two dividing q-1.
    two_n = 2 * n
    if (q - 1) % two_n:
        raise ValueError(f"{q} is not 1 mod 2n = {two_n}")
    for c in range(2, q):
        w = pow(c, (q - 1) // two_n, q)
        if pow(w, n, q) == q - 1:
            return w
    raise ValueError(f"no primitive 2n-th root of unity mod {q}")


def make_modulus(q: int, n: int, r_bits: int | None = None) -> Modulus:
    if n & (n - 1) or n <= 0:
        raise ValueError(f"ring degree {n} is not a power of two")
    if q.bit_length() > 59:
        raise ValueError(f"modulus {q} exceeds the 59-bit word cap")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if r_bits is None:
        r_bits = 32 if q < (1 << 31) else 64
    if not 0 < r_bits <= 64:
        raise ValueError(f"Montgomery radix 2^{r_bits} out of range")
    r = 1 << r_bits
    if r <= q:
        raise ValueError(f"Montgomery radix 2^{r_bits} must exceed q={q}")
    # the uint64 kernels hold x*y + m*q < 2*q*R in one word for R <= 2^32
    # and split it into halves for R = 2^64; no other radix reduces exactly
    if not (r_bits == 64 or (r_bits <= 32 and q * r < 1 << 63)):
        raise ValueError(
            f"Montgomery radix 2^{r_bits} unsupported for q={q}: "
            f"need r_bits <= 32 with q*R < 2^63, or r_bits == 64")
    # primes not congruent to 1 mod 2n still support elementwise ops; the
    # transform tables are simply absent
    ntt_ready = (q - 1) % (2 * n) == 0
    omega = _find_omega(q, n) if ntt_ready else 0
    return Modulus(
        q=q,
        n=n,
        r_bits=r_bits,
        q_inv_neg=(-pow(q, -1, r)) % r,
        r_inv=pow(r, -1, q),
        r2=(r * r) % q,
        omega=omega,
        omega_inv=pow(omega, -1, q) if ntt_ready else 0,
        n_inv=pow(n, -1, q) if q != 2 else 0,
    )


def make_modulus_chain(
    n: int,
    count: int,
    bits: int,
    r_bits: int | None = None,
) -> list[Modulus]:
    """Find `count` distinct primes ≡ 1 (mod 2n) in (2^(bits-1), 2^bits].

    Search runs downward from 2^bits so chains are reproducible; the result
    is returned in ascending order.
    """
    if n & (n - 1) or n <= 0:
        raise ValueError(f"ring degree {n} is not a power of two")
    if count < 0:
        raise ValueError("count must be non-negative")
    if bits > 59:
        raise ValueError(f"bits={bits} exceeds the 59-bit word cap")
    two_n = 2 * n
    lo, hi = 1 << (bits - 1), 1 << bits
    found: list[int] = []
    # largest candidate ≡ 1 mod 2n that is <= hi
    p = (hi // two_n) * two_n + 1
    if p > hi:
        p -= two_n
    while len(found) < count and p > lo:
        if is_prime(p):
            found.append(p)
        p -= two_n
    if len(found) < count:
        raise ValueError(
            f"only {len(found)} of {count} primes ≡ 1 mod {two_n} "
            f"exist in ({lo}, {hi}]"
        )
    return [make_modulus(q, n, r_bits) for q in sorted(found)]


# ---------------------------------------------------------------------------
# word-level Montgomery arithmetic (big-integer reference)

def mont_mul(x: int, y: int, m: Modulus) -> int:
    """x * y * R^{-1} mod q, canonical result in [0, q)."""
    return (x * y * m.r_inv) % m.q


def mont_reduce(t: int, m: Modulus) -> int:
    """Textbook REDC of a double word t < R*q; equals (t * R^{-1}) mod q."""
    mask = m.r - 1
    mm = ((t & mask) * m.q_inv_neg) & mask
    u = (t + mm * m.q) >> m.r_bits
    return u - m.q if u >= m.q else u


def sm_encode(x: int, m: Modulus) -> int:
    """X -> X*R mod q (MontMult by R^2)."""
    return mont_mul(x, m.r2, m)


def sm_decode(x: int, m: Modulus) -> int:
    """X*R -> X mod q (MontMult by 1)."""
    return mont_mul(x, 1, m)


def dm_encode(x: int, m: Modulus) -> int:
    """X -> X*R^2 mod q, the constant form that re-encodes NM products to SM."""
    return (x * m.r2) % m.q


@dataclass(frozen=True)
class RnsBasis:
    """An ordered set of moduli sharing one ring degree."""

    moduli: tuple[Modulus, ...]

    def __post_init__(self):
        qs = [m.q for m in self.moduli]
        if len(set(qs)) != len(qs):
            raise ValueError("basis moduli must be pairwise distinct")
        ns = {m.n for m in self.moduli}
        if len(ns) > 1:
            raise ValueError("basis moduli must share one ring degree")

    def __len__(self):
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __getitem__(self, i):
        return self.moduli[i]

    @property
    def n(self) -> int:
        return self.moduli[0].n

    @property
    def product(self) -> int:
        return math.prod(m.q for m in self.moduli)
