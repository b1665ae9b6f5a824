"""Residue-polynomial kernels.

Everything here is exact modular arithmetic over fixed-size coefficient
vectors: elementwise multiply/add, the negacyclic NTT, fast base conversion
(plain and merged with the deferred iNTT scaling), Galois automorphisms in
both domains, the lane-matrix transpose, and a fused multiply-accumulate.

Coefficient vectors are numpy uint64 arrays, and every kernel runs
vectorized on them.  Montgomery multiplication has one exact reduction per
radix class: one-word REDC for R <= 2^32 and a split-word REDC for R = 2^64
(see _Kern).

Layout conventions: forward NTT consumes natural coefficient order and
produces bit-reversed evaluation order; the inverse accepts bit-reversed and
emits natural.  Twiddle tables are stored bit-reversed in single-Montgomery
form so the data path never permutes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .rns import (
    DM,
    NM,
    SM,
    Modulus,
    RnsBasis,
    compose_repr,
    dm_encode,
    mont_mul,
    sm_decode,
    sm_encode,
)

COEF, NTT = "coef", "ntt"
NATURAL, BITREV = "natural", "bit-reversed"


class ContractError(ValueError):
    """Metadata contract violated (wrong domain, order, or deferred flag)."""


class Word(NamedTuple):
    """A scalar constant with an explicit Montgomery representation tag."""

    value: int
    repr: int


# ---------------------------------------------------------------------------
# bit-reversal helpers

_brv_cache: dict[int, np.ndarray] = {}


def bit_rev(i: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def bitrev_perm(n: int) -> np.ndarray:
    """Permutation array p with p[i] = bit-reverse of i over log2(n) bits."""
    if n not in _brv_cache:
        # over k+1 bits, i's top bit becomes the low bit of its reversal
        perm = np.zeros(1, dtype=np.int64)
        while perm.size < n:
            perm = np.concatenate((2 * perm, 2 * perm + 1))
        _brv_cache[n] = perm
    return _brv_cache[n]


# ---------------------------------------------------------------------------
# per-modulus kernel context (twiddle tables, vector primitives)

_kern_cache: dict[tuple[int, int, int], "_Kern"] = {}

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


def _mulhi(x, y0, y1):
    """High 64-bit word of x*y for y = y1*2^32 + y0 below 2^59.

    Schoolbook on 32-bit halves: with y1 < 2^27 the middle column sums to
    less than 2^61, so no partial sum carries out of a 64-bit word.
    """
    x0, x1 = x & _MASK32, x >> _SH32
    p10 = x1 * y0
    mid = ((x0 * y0) >> _SH32) + x0 * y1 + (p10 & _MASK32)
    return x1 * y1 + (p10 >> _SH32) + (mid >> _SH32)


class _Kern:
    """Vector primitives and twiddle tables for one modulus.

    mmul is Montgomery's REDC on uint64 arrays, exact for every radix that
    make_modulus accepts.  For R <= 2^32 the double word x*y + m*q stays
    below 2*q*R <= 2^64, so it is formed directly.  For R = 2^64 the
    double word is split into 64-bit halves: x*y + m*q is a multiple of
    2^64, so its low halves cancel and carry exactly when lo(x*y) != 0, and
    the quotient is hi(x*y) + hi(m*q) + carry (Montgomery, Math. Comp. 1985;
    the 64-bit word split follows Harvey, J. Symb. Comp. 2014).
    """

    def __init__(self, m: Modulus):
        self.m = m
        self._q = np.uint64(m.q)
        self._qinv = np.uint64(m.q_inv_neg)
        self._wide = m.r_bits == 64
        if self._wide:
            self._q0 = self._q & _MASK32
            self._q1 = self._q >> _SH32
        else:
            self._rmask = np.uint64(m.r - 1)
            self._rbits = np.uint64(m.r_bits)
        if m.ntt_ready:
            br = bitrev_perm(m.n)
            self.psis = self._powers_sm(m.omega)[br]
            self.ipsis = self._powers_sm(m.omega_inv)[br]
            self.ninv_sm = sm_encode(m.n_inv, m)

    def _powers_sm(self, w: int) -> np.ndarray:
        """[w^0, ..., w^(n-1)] in single-Montgomery form, by doubling."""
        m = self.m
        pw = np.array([m.r % m.q], dtype=np.uint64)
        step = np.array([sm_encode(w, m)], dtype=np.uint64)  # w^len(pw)
        while pw.size < m.n:
            pw = np.concatenate((pw, self.mmul(pw, step)))
            step = self.mmul(step, step)
        return pw

    # elementwise Montgomery product x*y/R mod q of an array x and an array
    # or scalar y, every word below q
    def mmul(self, x, y):
        x = np.asarray(x, dtype=np.uint64)
        y = np.asarray(y, dtype=np.uint64)
        q = self._q
        if self._wide:
            lo = x * y                          # wraps mod 2^64
            hi = _mulhi(x, y & _MASK32, y >> _SH32)
            mm = lo * self._qinv
            u = hi + _mulhi(mm, self._q0, self._q1) + (lo != 0)
        else:
            t = x * y
            mm = ((t & self._rmask) * self._qinv) & self._rmask
            u = (t + mm * q) >> self._rbits
        # u < 2q: u - q wraps above u exactly when u < q
        return np.minimum(u, u - q)

    def madd(self, x, y):
        q = self._q
        x = np.asarray(x, dtype=np.uint64)
        y = np.asarray(y, dtype=np.uint64)
        s = x + y
        return np.minimum(s, s - q)

    def msub(self, x, y):
        q = self._q
        x = np.asarray(x, dtype=np.uint64)
        y = np.asarray(y, dtype=np.uint64)
        d = x - y                               # wraps when x < y
        return np.minimum(d, d + q)

    def ntt(self, a: np.ndarray) -> np.ndarray:
        if not self.m.ntt_ready:
            raise ContractError(f"modulus {self.m.q} has no 2n-th root of unity")
        n = a.size
        a = a.copy()
        t, groups = n, 1
        while groups < n:
            t >>= 1
            view = a.reshape(groups, 2 * t)
            s = self.psis[groups:2 * groups].reshape(groups, 1)
            u = view[:, :t].copy()
            v = self.mmul(view[:, t:], s)
            view[:, :t] = self.madd(u, v)
            view[:, t:] = self.msub(u, v)
            groups <<= 1
        return a

    def intt(self, a: np.ndarray, defer_scale: bool) -> np.ndarray:
        if not self.m.ntt_ready:
            raise ContractError(f"modulus {self.m.q} has no 2n-th root of unity")
        n = a.size
        a = a.copy()
        t, groups = 1, n
        while groups > 1:
            h = groups >> 1
            view = a.reshape(h, 2 * t)
            s = self.ipsis[h:2 * h].reshape(h, 1)
            u = view[:, :t].copy()
            v = view[:, t:].copy()
            view[:, :t] = self.madd(u, v)
            view[:, t:] = self.mmul(self.msub(u, v), s)
            t <<= 1
            groups = h
        if not defer_scale:
            a = self.mmul(a, np.uint64(self.ninv_sm))
        return a


def _kern(m: Modulus) -> _Kern:
    key = (m.q, m.n, m.r_bits)
    if key not in _kern_cache:
        _kern_cache[key] = _Kern(m)
    return _kern_cache[key]


# ---------------------------------------------------------------------------
# domain types

@dataclass(eq=False)
class ResiduePoly:
    """One limb: n coefficients modulo a single prime, plus layout metadata."""

    modulus: Modulus
    coeffs: np.ndarray
    domain: str = COEF
    order: str = NATURAL
    repr: int = NM
    scale_deferred: bool = False

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.uint64)
        if self.coeffs.size != self.modulus.n:
            raise ValueError(
                f"expected {self.modulus.n} coefficients, got {self.coeffs.size}")
        if self.coeffs.size and int(self.coeffs.max()) >= self.modulus.q:
            raise ValueError("coefficient out of range for modulus")

    def like(self, coeffs, **changes) -> "ResiduePoly":
        return replace(self, coeffs=np.asarray(coeffs, dtype=np.uint64),
                       **changes)

    def to_ints(self) -> list[int]:
        return [int(c) for c in self.coeffs]


@dataclass(eq=False)
class RnsPoly:
    """A polynomial in RNS form: one limb per basis modulus, same metadata."""

    basis: RnsBasis
    limbs: tuple[ResiduePoly, ...]

    def __post_init__(self):
        if len(self.limbs) != len(self.basis):
            raise ValueError("limb count does not match basis size")
        for limb, m in zip(self.limbs, self.basis):
            if limb.modulus.q != m.q:
                raise ValueError("limb modulus does not match basis order")
        metas = {(p.domain, p.order, p.repr, p.scale_deferred)
                 for p in self.limbs}
        if len(metas) > 1:
            raise ValueError("limbs have inconsistent metadata")

    @property
    def domain(self):
        return self.limbs[0].domain

    @property
    def order(self):
        return self.limbs[0].order

    @property
    def repr(self):
        return self.limbs[0].repr

    @property
    def scale_deferred(self):
        return self.limbs[0].scale_deferred

    def map(self, fn) -> "RnsPoly":
        return RnsPoly(self.basis, tuple(fn(p) for p in self.limbs))


def make_poly(m: Modulus, coeffs, domain=COEF, order=NATURAL, repr=NM,
              scale_deferred=False) -> ResiduePoly:
    return ResiduePoly(m, np.asarray(coeffs, dtype=np.uint64), domain, order,
                       repr, scale_deferred)


def zero_poly(m: Modulus, domain=COEF, order=NATURAL, repr=NM) -> ResiduePoly:
    return make_poly(m, np.zeros(m.n, dtype=np.uint64), domain, order, repr)


# ---------------------------------------------------------------------------
# elementwise vector ops

def _check_pair(a: ResiduePoly, b) -> None:
    if isinstance(b, ResiduePoly):
        if a.modulus.q != b.modulus.q or a.modulus.n != b.modulus.n:
            raise ValueError("operand moduli differ")
        if (a.domain, a.order) != (b.domain, b.order):
            raise ContractError("operand domain/order differ")


def _check_deferred(*polys, absorb=False):
    for p in polys:
        if isinstance(p, ResiduePoly) and p.scale_deferred and not absorb:
            raise ContractError(
                "scale-deferred polynomial consumed outside merged base "
                "conversion")


def vec_mmul(a: ResiduePoly, b, *, absorb_deferred=False) -> ResiduePoly:
    """Elementwise Montgomery product of a limb with a limb or tagged scalar.

    The result tag follows the representation-composition rule.  Setting
    absorb_deferred marks this multiply as the one allowed consumer of a
    scale-deferred input (the constant is understood to contain the 1/N
    factor); the flag is cleared on the output.
    """
    _check_pair(a, b)
    _check_deferred(a, b, absorb=absorb_deferred)
    k = _kern(a.modulus)
    if isinstance(b, ResiduePoly):
        tag = compose_repr(a.repr, b.repr)
        out = k.mmul(a.coeffs, b.coeffs)
    else:
        if not isinstance(b, Word):
            b = Word(int(b), NM)
        tag = compose_repr(a.repr, b.repr)
        out = k.mmul(a.coeffs, np.uint64(b.value % a.modulus.q))
    return a.like(out, repr=tag, scale_deferred=False)


def vec_madd(a: ResiduePoly, b) -> ResiduePoly:
    """Elementwise modular sum; operands must share one representation tag."""
    _check_pair(a, b)
    _check_deferred(a, b)
    k = _kern(a.modulus)
    if isinstance(b, ResiduePoly):
        if a.repr != b.repr:
            raise ContractError("cannot add values in different representations")
        out = k.madd(a.coeffs, b.coeffs)
    else:
        if isinstance(b, Word):
            if b.repr != a.repr:
                raise ContractError(
                    "cannot add values in different representations")
            b = b.value
        out = k.madd(a.coeffs, np.uint64(int(b) % a.modulus.q))
    return a.like(out)


def vec_msub(a: ResiduePoly, b: ResiduePoly) -> ResiduePoly:
    if a.repr != b.repr:
        raise ContractError("cannot subtract values in different representations")
    _check_pair(a, b)
    _check_deferred(a, b)
    return a.like(_kern(a.modulus).msub(a.coeffs, b.coeffs))


def vec_neg(a: ResiduePoly) -> ResiduePoly:
    _check_deferred(a)
    q = np.uint64(a.modulus.q)
    return a.like(np.where(a.coeffs == 0, a.coeffs, q - a.coeffs))


def to_sm(a: ResiduePoly) -> ResiduePoly:
    """Lift an NM limb into single-Montgomery form (multiply by R^2)."""
    if a.repr != NM:
        raise ContractError("to_sm expects an NM operand")
    return vec_mmul(a, Word(a.modulus.r2, DM))


def from_sm(a: ResiduePoly) -> ResiduePoly:
    """Drop an SM limb back to canonical integers (multiply by 1)."""
    if a.repr != SM:
        raise ContractError("from_sm expects an SM operand")
    return vec_mmul(a, Word(1, NM))


def mac_fused(acc: ResiduePoly, a: ResiduePoly, b) -> ResiduePoly:
    """acc + a*b, bit-exactly the two-op composition."""
    return vec_madd(acc, vec_mmul(a, b))


# ---------------------------------------------------------------------------
# NTT

def ntt_fwd(a: ResiduePoly) -> ResiduePoly:
    """Negacyclic NTT: evaluations at psi^(2j+1), emitted bit-reversed."""
    if a.domain != COEF or a.order != NATURAL:
        raise ContractError("forward NTT expects natural coefficient order")
    _check_deferred(a)
    out = _kern(a.modulus).ntt(a.coeffs)
    return a.like(out, domain=NTT, order=BITREV)


def ntt_inv(a: ResiduePoly, defer_scale: bool = False) -> ResiduePoly:
    """Inverse NTT back to natural coefficient order.

    With defer_scale the final 1/N multiply is skipped: the output equals N
    times the true inverse and is flagged so only the merged base conversion
    may consume it.
    """
    if a.domain != NTT or a.order != BITREV:
        raise ContractError("inverse NTT expects bit-reversed ntt order")
    _check_deferred(a)
    out = _kern(a.modulus).intt(a.coeffs, defer_scale)
    return a.like(out, domain=COEF, order=NATURAL,
                  scale_deferred=defer_scale)


def negacyclic_mul(a: ResiduePoly, b: ResiduePoly) -> ResiduePoly:
    """a*b mod (X^n + 1), via NTT -> elementwise product -> inverse NTT."""
    _check_pair(a, b)
    if a.domain != COEF:
        raise ContractError("negacyclic_mul expects coefficient domain")
    fa, fb = ntt_fwd(a), ntt_fwd(b)
    if fa.repr == NM and fb.repr == NM:
        fa = to_sm(fa)
    prod = vec_mmul(fa, fb)
    return ntt_inv(prod)


# ---------------------------------------------------------------------------
# fast base conversion

@dataclass(frozen=True)
class BconvTables:
    """Constants for converting from basis src to basis dst.

    stage1_merged[j] holds (qhat_j^{-1} / N) mod q_j as a plain integer (NM)
    so that a scale-deferred SM limb times it lands on canonical t_j values.
    stage1_plain[j] holds qhat_j^{-1} in SM for converting NM inputs.
    stage2[j][i] holds (qhat_j mod p_i) in DM, re-encoding NM t_j to SM sums.
    """

    src: RnsBasis
    dst: RnsBasis
    stage1_merged: tuple[int, ...]
    stage1_plain: tuple[int, ...]
    stage2: tuple[tuple[int, ...], ...]


def make_bconv_tables(src: RnsBasis, dst: RnsBasis) -> BconvTables:
    if {m.q for m in src} & {m.q for m in dst}:
        raise ValueError("source and destination bases overlap")
    qprod = src.product
    s1m, s1p, s2 = [], [], []
    for mj in src:
        qhat = qprod // mj.q
        qhat_inv = pow(qhat, -1, mj.q)
        merged = (qhat_inv * mj.n_inv) % mj.q
        plain = sm_encode(qhat_inv, mj)
        # sanity: constants round-trip through their representations
        if sm_decode(plain, mj) != qhat_inv or \
                (merged * mj.n) % mj.q != qhat_inv:
            raise RuntimeError(f"bconv stage-1 constant for q={mj.q} "
                               "does not round-trip")
        s1m.append(merged)
        s1p.append(plain)
        row = []
        for mi in dst:
            c = dm_encode(qhat % mi.q, mi)
            if mont_mul(mont_mul(1, c, mi), 1, mi) != qhat % mi.q:
                raise RuntimeError(f"bconv stage-2 constant for q={mi.q} "
                                   "does not round-trip")
            row.append(c)
        s2.append(tuple(row))
    return BconvTables(src, dst, tuple(s1m), tuple(s1p), tuple(s2))


def _reinterpret_nm(p: ResiduePoly, m: Modulus) -> ResiduePoly:
    """Move canonical-integer (NM) words under a different modulus."""
    if p.repr != NM:
        raise ContractError("only NM words are modulus-independent")
    words = p.coeffs % np.uint64(m.q) if m.q <= int(p.modulus.q) else p.coeffs
    return make_poly(m, words, p.domain, p.order, NM)


def _bconv_stage2(tj: list[ResiduePoly], tables: BconvTables) -> list[ResiduePoly]:
    out = []
    for i, mi in enumerate(tables.dst):
        acc = None
        for j in range(len(tables.src)):
            term = vec_mmul(_reinterpret_nm(tj[j], mi),
                            Word(tables.stage2[j][i], DM))
            acc = term if acc is None else vec_madd(acc, term)
        out.append(acc)
    return out


def bconv(a: RnsPoly, dst: RnsBasis, tables: BconvTables | None = None) -> RnsPoly:
    """Fast base conversion of NM coefficient-domain limbs.

    Output residues may exceed the exact CRT value by e * prod(q_j) with
    0 <= e < |src|; callers that need exactness must correct downstream.
    """
    if a.domain != COEF or a.repr != NM:
        raise ContractError("bconv expects NM limbs in coefficient domain")
    if tables is None:
        tables = make_bconv_tables(a.basis, dst)
    tj = [vec_mmul(a.limbs[j], Word(tables.stage1_plain[j], SM))
          for j in range(len(a.basis))]
    out = [from_sm(p) for p in _bconv_stage2(tj, tables)]
    return RnsPoly(dst, tuple(out))


def bconv_merged(a: RnsPoly, tables: BconvTables) -> RnsPoly:
    """Base conversion fused with the deferred iNTT 1/N scaling.

    Input: SM limbs straight out of ntt_inv(defer_scale=True).  Output: SM
    limbs on the destination basis, bit-exactly equal to running the
    unmerged pipeline (finish the iNTT, decode to NM, convert, re-encode).
    """
    if a.repr != SM:
        raise ContractError("merged bconv expects SM limbs")
    if not a.scale_deferred:
        raise ContractError("merged bconv expects a scale-deferred input")
    if a.domain != COEF:
        raise ContractError("merged bconv expects coefficient domain")
    tj = [vec_mmul(a.limbs[j], Word(tables.stage1_merged[j], NM),
                   absorb_deferred=True)
          for j in range(len(a.basis))]
    return RnsPoly(tables.dst, tuple(_bconv_stage2(tj, tables)))


# ---------------------------------------------------------------------------
# automorphisms

def automorphism_map(i: int, s: int, n: int) -> tuple[int, int]:
    """Destination index and sign for coefficient i under X -> X^(5^s)."""
    two_n = 2 * n
    e = pow(5, s % max(n // 2, 1), two_n)
    t = (i * e) % two_n
    return t % n, (-1 if t >= n else 1)


def automorphism_apply(a: ResiduePoly, s: int) -> ResiduePoly:
    """Apply the rotation automorphism in the coefficient domain."""
    if a.domain != COEF or a.order != NATURAL:
        raise ContractError("coefficient automorphism expects natural order")
    _check_deferred(a)
    n, q = a.modulus.n, a.modulus.q
    out = np.zeros(n, dtype=np.uint64)
    for i in range(n):
        j, sign = automorphism_map(i, s, n)
        c = int(a.coeffs[i])
        out[j] = c if (sign > 0 or c == 0) else q - c
    return a.like(out)


_auto_perm_cache: dict[tuple[int, int], np.ndarray] = {}


def automorphism_ntt_perm(n: int, s: int) -> np.ndarray:
    """Source-index table: out[p] = in[perm[p]] for bit-reversed NTT data.

    Derivation: slot j of the natural-order NTT holds the evaluation at
    psi^(2j+1); after X -> X^(5^s) that slot reads the evaluation formerly
    at j' = (j*e + (e-1)/2) mod n with e = 5^s mod 2n.  No sign fixes are
    needed in this domain.
    """
    key = (n, s % max(n // 2, 1))
    if key not in _auto_perm_cache:
        two_n = 2 * n
        e = pow(5, key[1], two_n)
        br = bitrev_perm(n)
        perm = np.zeros(n, dtype=np.int64)
        half = (e - 1) // 2
        for j in range(n):
            jp = (j * e + half) % n
            perm[br[j]] = br[jp]
        _auto_perm_cache[key] = perm
    return _auto_perm_cache[key]


def automorphism_ntt(a: ResiduePoly, s: int) -> ResiduePoly:
    """Rotation automorphism applied directly to bit-reversed NTT data."""
    if a.domain != NTT or a.order != BITREV:
        raise ContractError("ntt automorphism expects bit-reversed ntt order")
    _check_deferred(a)
    perm = automorphism_ntt_perm(a.modulus.n, s)
    return a.like(a.coeffs[perm])


def automorphism_row_map(n: int, s: int, lanes: int) -> list[int]:
    """Per-row source row of the NTT-domain automorphism.

    Viewing the bit-reversed vector as (n/lanes) rows of `lanes` consecutive
    positions, the permutation moves whole rows: every element of output row
    r comes from a single input row.  Returns that source row per output
    row; raises if the property ever failed.
    """
    perm = automorphism_ntt_perm(n, s)
    rows = []
    for r in range(n // lanes):
        src = {int(perm[p]) // lanes for p in range(r * lanes, (r + 1) * lanes)}
        if len(src) != 1:
            raise AssertionError("automorphism crossed row boundaries")
        rows.append(src.pop())
    return rows


# ---------------------------------------------------------------------------
# lane-matrix transpose

def transpose_fixed_network(mat, lanes: int):
    """Transpose a coefficient matrix held in bit-reversed element order.

    Input: (n/lanes) x lanes matrix whose row-major flattening is a vector
    in bit-reversed order.  Output: the lanes x (n/lanes) transpose of the
    equivalent natural-order matrix, in natural order.

    With this orientation the data movement is separable: output row c is
    read entirely from one contiguous block of the input (block index =
    bit-reverse of c) and every row applies the same within-block index
    pattern (bit-reversal over n/lanes).  That shared pattern is what a
    fixed wiring network implements; only the block fetch order changes.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = arr.shape
    n = rows * cols
    if cols != lanes:
        raise ValueError(f"matrix has {cols} columns, expected lanes={lanes}")
    if n & (n - 1) or lanes & (lanes - 1) or rows & (rows - 1):
        raise ValueError("matrix dimensions must be powers of two")
    flat = arr.reshape(n)
    lbits = lanes.bit_length() - 1
    rbits = rows.bit_length() - 1
    pattern = np.array([bit_rev(r, rbits) for r in range(rows)], dtype=np.int64)
    out = np.empty((lanes, rows), dtype=arr.dtype)
    for c in range(lanes):
        base = bit_rev(c, lbits) * rows
        out[c] = flat[base + pattern]
    return out
