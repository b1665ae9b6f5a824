"""Residue-polynomial kernels.

A polynomial in RNS form (RnsPoly) is one (limbs, n) uint64 array, row i
modulo the i-th prime of its basis, with its layout metadata stored once;
a value modulo one prime is the one-row case.  Everything here is exact
modular arithmetic on those arrays: elementwise multiply/add, the
negacyclic NTT, fast base conversion (plain and merged with the deferred
iNTT scaling), Galois automorphisms in both domains, and a fused
multiply-accumulate.

Each kernel runs once per polynomial over all of its rows, or once over a
stack of polynomials; every per-prime constant is a column that
broadcasts along the rows.  Montgomery
multiplication has one exact reduction per radix class: one-word REDC for
R <= 2^32 and a split-word REDC for R = 2^64 (see _Kern).  The NTT uses no
Montgomery form and has one path for every radix.

Layout conventions: forward NTT consumes natural coefficient order and
produces bit-reversed evaluation order; the inverse accepts bit-reversed and
emits natural.  Twiddles are plain residues w, each with its Shoup quotient
floor(w*2^64/q), laid out per stage in the order the butterflies read them,
so the data path never permutes anything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    """A scalar constant with an explicit Montgomery representation tag:
    one integer for every row, or a tuple of one integer per row."""

    value: int | tuple[int, ...]
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
# per-basis kernel context (constant columns, twiddle tables, primitives)

_kern_cache: dict[tuple[tuple[int, int, int], ...], "_Kern"] = {}

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


def _mulhi(x, y0, y1):
    """High 64-bit word of x*y for any 64-bit x and y = y1*2^32 + y0 below
    2^62.

    Schoolbook on 32-bit halves.  With y1 < 2^30 the middle column is
    x0*y1 < 2^62 plus two words below 2^32, so no partial sum carries out
    of a 64-bit word.  Callers: REDC splits a word below q < 2^59, the
    Shoup product a lazy NTT word below 4q < 2^61.
    """
    x0, x1 = x & _MASK32, x >> _SH32
    p10 = x1 * y0
    mid = ((x0 * y0) >> _SH32) + x0 * y1 + (p10 & _MASK32)
    return x1 * y1 + (p10 >> _SH32) + (mid >> _SH32)


def _shoup(x, w, wq, q):
    """x*w mod q in [0, 2q) for x below 2^62, w below q and the Shoup
    quotient wq = floor(w*2^64/q).

    With h = floor(x*wq/2^64), x*w - h*q lies in [0, 2q) (Shoup's NTL
    MulModPrecon; Harvey, J. Symb. Comp. 2014), so the two low products
    may wrap: their difference mod 2^64 is the exact value.
    """
    h = _mulhi(wq, x & _MASK32, x >> _SH32)
    return x * w - h * q


def _column(values) -> np.ndarray:
    """One uint64 per row, shaped (rows, 1) to broadcast against an array
    whose second-to-last axis is the rows."""
    return np.array(values, dtype=np.uint64).reshape(-1, 1)


def _redc(x, y, wide: bool, c):
    """Montgomery product x*y/R mod q of words below q, rows of one radix
    class; c holds that class's constant columns."""
    if wide:
        q, qinv, q0, q1 = c
        lo = x * y                          # wraps mod 2^64
        hi = _mulhi(x, y & _MASK32, y >> _SH32)
        mm = lo * qinv
        u = hi + _mulhi(mm, q0, q1) + (lo != 0)
    else:
        q, qinv, rmask, rbits = c
        t = x * y
        mm = ((t & rmask) * qinv) & rmask
        u = (t + mm * q) >> rbits
    # u < 2q: u - q wraps above u exactly when u < q
    return np.minimum(u, u - q)


class _Kern:
    """Vector primitives and twiddle tables for one basis.

    Operands are uint64 arrays whose row i (second-to-last axis) is
    reduced modulo the i-th prime; any leading axes stack polynomials of
    the basis, and constants are (rows, 1) columns that broadcast over
    them.

    mmul is Montgomery's REDC, exact for every radix that make_modulus
    accepts.  For R <= 2^32 the double word x*y + m*q stays below
    2*q*R <= 2^64, so it is formed directly.  For R = 2^64 the double word
    is split into 64-bit halves: x*y + m*q is a multiple of 2^64, so its
    low halves cancel and carry exactly when lo(x*y) != 0, and the
    quotient is hi(x*y) + hi(m*q) + carry (Montgomery, Math. Comp. 1985;
    the 64-bit word split follows Harvey, J. Symb. Comp. 2014).  A basis
    that mixes the classes reduces each class's rows with its formula.

    The NTT has one path for every radix: each twiddle multiply is a Shoup
    product (_shoup) by a plain twiddle, and the butterflies are Harvey's
    lazy ones.  Since q < 2^59, forward words stay below 4q and inverse
    words below 2q without reduction; only the last step brings them to
    [0, q).

    The stages have constant geometry (Pease, J. ACM 1968): every forward
    stage pairs word i with word i + n/2 and writes the pair's outputs to
    words 2i and 2i + 1 of a second buffer; every inverse stage reads
    words 2i and 2i + 1 and writes i and i + n/2.  Each stage is then a
    handful of numpy ops over (rows, n/2) operands, whatever its butterfly
    span, where an in-place stage's inner loop shrinks with the span to
    2 and 1 words.  Pair i = j*groups + g of a stage with `groups` groups
    is butterfly j of group g of the in-place Cooley-Tukey stage, so every
    intermediate word and the bit-reversed output order are those of the
    in-place transform.  Its twiddle is psi[groups + g], so a stage's
    table is psi[groups:2*groups] tiled n/(2*groups) times; the tables of
    each direction are built on that direction's first transform, and a
    kernel used only for elementwise ops builds none.
    """

    def __init__(self, moduli: tuple[Modulus, ...]):
        self.moduli = moduli
        self.q = _column([m.q for m in moduli])
        self.q2 = self.q + self.q
        self.classes = []   # (rows, wide, REDC columns) per class
        for wide in (True, False):
            rows = [i for i, m in enumerate(moduli)
                    if (m.r_bits == 64) == wide]
            if not rows:
                continue
            consts = [(m.q, m.q_inv_neg, m.q & 0xFFFFFFFF, m.q >> 32) if wide
                      else (m.q, m.q_inv_neg, m.r - 1, m.r_bits)
                      for m in (moduli[i] for i in rows)]
            self.classes.append((
                slice(None) if len(rows) == len(moduli) else rows, wide,
                tuple(_column(v) for v in zip(*consts))))
        self.ntt_ready = all(m.ntt_ready for m in moduli)
        self.ninv = _column([m.n_inv for m in moduli])
        self.ninv_shoup = _column([(m.n_inv << 64) // m.q for m in moduli])

    def column(self, value) -> np.ndarray:
        """A Word value as a (rows, 1) column, reduced modulo each prime."""
        values = value if isinstance(value, tuple) else \
            (value,) * len(self.moduli)
        return _column([int(v) % m.q
                        for v, m in zip(values, self.moduli, strict=True)])

    def _powers(self, ws) -> np.ndarray:
        """Row i: [w_i^0, ..., w_i^(n-1)] mod q_i as plain residues, by
        doubling: a plain power times a single-Montgomery step stays
        plain."""
        pw = _column([1] * len(self.moduli))
        step = _column([sm_encode(w, m) for w, m in zip(ws, self.moduli)])
        while pw.shape[1] < self.moduli[0].n:
            pw = np.concatenate((pw, self.mmul(pw, step)), axis=1)
            step = self.mmul(step, step)
        return pw

    def _shoup_quotients(self, w) -> np.ndarray:
        """floor(w*2^64/q) for plain words w.  One mmul by 2^64*R mod q
        gives the remainder r = w*2^64 mod q; w*2^64 - r is a multiple of
        the odd q, and the quotient is below 2^64, so it is r times
        -q^-1 mod 2^64 as a wrapping product."""
        two64 = 1 << 64
        c = _column([sm_encode(two64 % m.q, m) for m in self.moduli])
        qneg = _column([-pow(m.q, -1, two64) % two64 for m in self.moduli])
        return self.mmul(w, c) * qneg

    # elementwise Montgomery product x*y/R mod q of an array x and an array
    # or column y, every word below its row's q
    def mmul(self, x, y):
        if len(self.classes) == 1:
            _, wide, c = self.classes[0]
            return _redc(x, y, wide, c)
        x, y = np.broadcast_arrays(x, y)
        out = np.empty(x.shape, dtype=np.uint64)
        for rows, wide, c in self.classes:
            out[..., rows, :] = _redc(x[..., rows, :], y[..., rows, :], wide,
                                      c)
        return out

    def madd(self, x, y):
        s = x + y
        return np.minimum(s, s - self.q)

    def msub(self, x, y):
        d = x - y                               # wraps when x < y
        return np.minimum(d, d + self.q)

    @functools.cached_property
    def fwd_stages(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self._stages("omega", inverse=False)

    @functools.cached_property
    def inv_stages(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self._stages("omega_inv", inverse=True)

    def _stages(self, root: str, inverse: bool):
        """One (twiddles, Shoup quotients) pair of (rows, n/2) tables per
        stage, in the order the stages run: the forward ones have 1, 2,
        ..., n/2 groups, the inverse ones n/2, ..., 1, and pair i of a
        stage with g groups takes the power of the root at bit-reversed
        position g + i % g."""
        if not self.ntt_ready:
            raise ContractError("a basis modulus has no 2n-th root of unity")
        n = self.moduli[0].n
        groups = [1 << s for s in range(n.bit_length() - 1)]
        w = self._powers([getattr(m, root) for m in self.moduli])
        w = w[:, bitrev_perm(n)]
        wq = self._shoup_quotients(w)
        return tuple((np.tile(w[:, g:2 * g], n // (2 * g)),
                      np.tile(wq[:, g:2 * g], n // (2 * g)))
                     for g in (groups[::-1] if inverse else groups))

    def ntt(self, a: np.ndarray) -> np.ndarray:
        """Constant-geometry Cooley-Tukey stages; each butterfly takes
        words below 4q to words below 4q: u is brought below 2q, v*w below
        2q by _shoup, and the outputs are u + v*w and u - v*w + 2q."""
        half = a.shape[-1] // 2
        q, q2 = self.q, self.q2
        bufs = np.empty((2,) + a.shape, dtype=np.uint64)
        for s, (w, wq) in enumerate(self.fwd_stages):
            u = a[..., :half]
            u = np.minimum(u, u - q2)
            v = _shoup(a[..., half:], w, wq, q)
            a = bufs[s & 1]
            pairs = a.reshape(a.shape[:-1] + (half, 2))
            np.add(u, v, out=pairs[..., 0])
            np.add(u - v, q2, out=pairs[..., 1])
        a = np.minimum(a, a - q2)
        return np.minimum(a, a - q)

    def intt(self, a: np.ndarray, defer_scale: bool) -> np.ndarray:
        """Constant-geometry Gentleman-Sande stages, the forward ones run
        backwards; each butterfly takes words below 2q to words below 2q:
        u + v reduced once, and (u - v + 2q)*w by _shoup."""
        half = a.shape[-1] // 2
        q, q2 = self.q, self.q2
        bufs = np.empty((2,) + a.shape, dtype=np.uint64)
        for s, (w, wq) in enumerate(self.inv_stages):
            u, v = a[..., 0::2], a[..., 1::2]
            a = bufs[s & 1]
            t = u + v
            np.minimum(t, t - q2, out=a[..., :half])
            a[..., half:] = _shoup(u - v + q2, w, wq, q)
        if not defer_scale:
            a = _shoup(a, self.ninv, self.ninv_shoup, q)
        return np.minimum(a, a - q)


def _kern(moduli) -> _Kern:
    """The kernel context of a basis (any sequence of moduli)."""
    key = tuple((m.q, m.n, m.r_bits) for m in moduli)
    if key not in _kern_cache:
        _kern_cache[key] = _Kern(tuple(moduli))
    return _kern_cache[key]


# ---------------------------------------------------------------------------
# the polynomial type

def _poly(basis: RnsBasis, words: np.ndarray, domain: str, order: str,
          repr: int, scale_deferred: bool = False) -> "RnsPoly":
    """An RnsPoly around kernel output: no copy and no range check."""
    p = object.__new__(RnsPoly)
    p.basis, p.words = basis, words
    p.domain, p.order, p.repr = domain, order, repr
    p.scale_deferred = scale_deferred
    return p


class RnsPoly:
    """words[i] holds the n coefficients modulo basis[i]; domain, order,
    repr and scale_deferred hold for every row.  RnsPoly(basis, limbs)
    stacks one one-row polynomial per basis modulus, in basis order.

    Every kernel also takes a `stack` of polynomials of one basis, words
    (count, rows, n), and a `stack_rows` of polynomials over moduli that
    may repeat; `limbs`, `modulus` and `coeffs` take 2-D words only."""

    __slots__ = ("basis", "words", "domain", "order", "repr",
                 "scale_deferred")

    def __init__(self, basis: RnsBasis, limbs):
        limbs = tuple(limbs)
        if [m.q for p in limbs for m in p.basis] != [m.q for m in basis]:
            raise ValueError("limb moduli do not match the basis")
        p = gather(basis, *limbs)
        for name in self.__slots__:
            setattr(self, name, getattr(p, name))

    @property
    def limbs(self) -> tuple["RnsPoly", ...]:
        """One one-row polynomial per basis modulus, each a view of its row."""
        return tuple(_poly(RnsBasis((m,)), self.words[i:i + 1], self.domain,
                           self.order, self.repr, self.scale_deferred)
                     for i, m in enumerate(self.basis))

    @property
    def modulus(self) -> Modulus:
        """The prime of a one-row polynomial (ValueError for more rows)."""
        (m,) = self.basis
        return m

    @property
    def coeffs(self) -> np.ndarray:
        """The n words of a one-row polynomial, a view of its row."""
        (row,) = self.words
        return row

    def to_ints(self) -> list[int]:
        return self.coeffs.tolist()


def make_poly(m: Modulus | RnsBasis, coeffs, domain=COEF, order=NATURAL,
              repr=NM, scale_deferred=False) -> RnsPoly:
    """A polynomial from outside words, modulo one prime m (n words) or over
    a basis m (len(m) rows of n words); every word must lie below its
    row's prime."""
    basis = m if isinstance(m, RnsBasis) else RnsBasis((m,))
    words = np.asarray(coeffs, dtype=np.uint64).reshape(len(basis), -1)
    if words.shape[1] != basis.n:
        raise ValueError(f"expected {basis.n} coefficients per limb")
    if (words >= _column([b.q for b in basis])).any():
        raise ValueError("coefficient out of range for modulus")
    return _poly(basis, words, domain, order, repr, scale_deferred)


def zero_poly(m: Modulus, domain=COEF, order=NATURAL, repr=NM) -> RnsPoly:
    return make_poly(m, np.zeros(m.n, dtype=np.uint64), domain, order, repr)


def gather(basis: RnsBasis, *parts: RnsPoly) -> RnsPoly:
    """The polynomial over basis that takes each modulus's row from the
    parts (the last one holding it); the parts share their metadata.
    Selects limbs (one part) or assembles them (several)."""
    pos = {m.q: k for k, m in enumerate(m for p in parts for m in p.basis)}
    missing = [m.q for m in basis if m.q not in pos]
    if missing:
        raise ValueError(f"no part holds modulus {missing[0]}")
    words = np.concatenate([p.words for p in parts], axis=-2)
    return _poly(basis, words[..., [pos[m.q] for m in basis], :],
                 *_layout(parts))


def _layout(parts) -> tuple:
    """The one (domain, order, repr, scale_deferred) of some polynomials."""
    metas = {(p.domain, p.order, p.repr, p.scale_deferred) for p in parts}
    if len(metas) != 1:
        raise ContractError("limbs have inconsistent metadata")
    return metas.pop()


def stack(polys) -> RnsPoly:
    """Polynomials of one basis and layout as one, words (count, rows, n),
    so that each kernel runs once for all of them; `unstack` splits it."""
    if len({tuple(m.q for m in p.basis) for p in polys}) != 1:
        raise ValueError("stacked polynomials have different bases")
    return _poly(polys[0].basis, np.stack([p.words for p in polys]),
                 *_layout(polys))


def unstack(p: RnsPoly) -> tuple[RnsPoly, ...]:
    """The polynomials of a `stack`, each a view of its words."""
    return tuple(_poly(p.basis, w, p.domain, p.order, p.repr,
                       p.scale_deferred) for w in p.words)


def stack_rows(parts) -> RnsPoly:
    """The rows of polynomials of one layout as one polynomial, for one
    kernel call over all of them.  Its basis is the tuple of the rows'
    moduli, which may repeat, so it is no RnsBasis: elementwise ops,
    transforms and automorphisms take it, and `limbs` splits it back."""
    return _poly(tuple(m for p in parts for m in p.basis),
                 np.concatenate([p.words for p in parts]), *_layout(parts))


# ---------------------------------------------------------------------------
# elementwise vector ops

def _check_pair(a: RnsPoly, b) -> None:
    if isinstance(b, RnsPoly):
        if [(m.q, m.n) for m in a.basis] != [(m.q, m.n) for m in b.basis]:
            raise ValueError("operand moduli differ")
        if (a.domain, a.order) != (b.domain, b.order):
            raise ContractError("operand domain/order differ")


def _check_deferred(*polys, absorb=False):
    for p in polys:
        if isinstance(p, RnsPoly) and p.scale_deferred and not absorb:
            raise ContractError(
                "scale-deferred polynomial consumed outside merged base "
                "conversion")


def _operand(k: _Kern, b) -> np.ndarray:
    """A polynomial's words, or a Word or int as a column."""
    if isinstance(b, RnsPoly):
        return b.words
    return k.column(b.value if isinstance(b, Word) else b)


def vec_mmul(a: RnsPoly, b, *, absorb_deferred=False) -> RnsPoly:
    """Elementwise Montgomery product of a polynomial with a polynomial or
    tagged scalar.

    The result tag follows the representation-composition rule.  Setting
    absorb_deferred marks this multiply as the one allowed consumer of a
    scale-deferred input (the constant is understood to contain the 1/N
    factor); the flag is cleared on the output.
    """
    _check_pair(a, b)
    _check_deferred(a, b, absorb=absorb_deferred)
    k = _kern(a.basis)
    tag = compose_repr(a.repr, getattr(b, "repr", NM))   # an int is NM
    return _poly(a.basis, k.mmul(a.words, _operand(k, b)), a.domain, a.order,
                 tag)


def vec_madd(a: RnsPoly, b) -> RnsPoly:
    """Elementwise modular sum; operands must share one representation tag
    (an int takes the tag of a)."""
    _check_pair(a, b)
    _check_deferred(a, b)
    if getattr(b, "repr", a.repr) != a.repr:
        raise ContractError("cannot add values in different representations")
    k = _kern(a.basis)
    return _poly(a.basis, k.madd(a.words, _operand(k, b)), a.domain, a.order,
                 a.repr)


def vec_msub(a: RnsPoly, b: RnsPoly) -> RnsPoly:
    if a.repr != b.repr:
        raise ContractError("cannot subtract values in different representations")
    _check_pair(a, b)
    _check_deferred(a, b)
    return _poly(a.basis, _kern(a.basis).msub(a.words, b.words), a.domain,
                 a.order, a.repr)


def vec_neg(a: RnsPoly) -> RnsPoly:
    _check_deferred(a)
    w = a.words
    out = np.where(w == 0, w, _kern(a.basis).q - w)
    return _poly(a.basis, out, a.domain, a.order, a.repr)


def to_sm(a: RnsPoly) -> RnsPoly:
    """Lift an NM polynomial into single-Montgomery form (multiply by R^2)."""
    if a.repr != NM:
        raise ContractError("to_sm expects an NM operand")
    return vec_mmul(a, Word(tuple(m.r2 for m in a.basis), DM))


def from_sm(a: RnsPoly) -> RnsPoly:
    """Drop an SM polynomial back to canonical integers (multiply by 1)."""
    if a.repr != SM:
        raise ContractError("from_sm expects an SM operand")
    return vec_mmul(a, Word(1, NM))


def mac_fused(acc: RnsPoly, a: RnsPoly, b) -> RnsPoly:
    """acc + a*b, bit-exactly the two-op composition."""
    return vec_madd(acc, vec_mmul(a, b))


# ---------------------------------------------------------------------------
# NTT

def ntt_fwd(a: RnsPoly) -> RnsPoly:
    """Negacyclic NTT: evaluations at psi^(2j+1), emitted bit-reversed."""
    if a.domain != COEF or a.order != NATURAL:
        raise ContractError("forward NTT expects natural coefficient order")
    _check_deferred(a)
    return _poly(a.basis, _kern(a.basis).ntt(a.words), NTT, BITREV, a.repr)


def ntt_inv(a: RnsPoly, defer_scale: bool = False) -> RnsPoly:
    """Inverse NTT back to natural coefficient order.

    With defer_scale the final 1/N multiply is skipped: the output equals N
    times the true inverse and is flagged so only the merged base conversion
    may consume it.
    """
    if a.domain != NTT or a.order != BITREV:
        raise ContractError("inverse NTT expects bit-reversed ntt order")
    _check_deferred(a)
    out = _kern(a.basis).intt(a.words, defer_scale)
    return _poly(a.basis, out, COEF, NATURAL, a.repr, defer_scale)


def negacyclic_mul(a: RnsPoly, b: RnsPoly) -> RnsPoly:
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


@functools.cache
def make_bconv_tables(src: RnsBasis, dst: RnsBasis) -> BconvTables:
    """The tables of one pair of bases, built once per process: they depend
    on the two moduli tuples only, and an RnsBasis compares and hashes as
    its moduli."""
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


def _bconv_stage2(tj: RnsPoly, tables: BconvTables) -> RnsPoly:
    """Row i of the output: the sum over j of (t_j mod p_i) * (qhat_j mod
    p_i), NM words times DM constants, so the sums land in SM."""
    k = _kern(tables.dst)
    # (..., src, dst, n) terms; each is below its p_i < 2^59, so a block
    # of 32 of them sums in one word, and the reduced block sums add
    # modularly
    terms = k.mmul(tj.words[..., None, :] % k.q,
                   np.array(tables.stage2, dtype=np.uint64)[:, :, None])
    sums = [terms[..., j:j + 32, :, :].sum(axis=-3) % k.q
            for j in range(0, terms.shape[-3], 32)]
    return _poly(tables.dst, functools.reduce(k.madd, sums), COEF, NATURAL,
                 SM)


def bconv(a: RnsPoly, dst: RnsBasis, tables: BconvTables | None = None) -> RnsPoly:
    """Fast base conversion of an NM coefficient-domain polynomial.

    Output residues may exceed the exact CRT value by e * prod(q_j) with
    0 <= e < |src|; callers that need exactness must correct downstream.
    """
    if a.domain != COEF or a.repr != NM:
        raise ContractError("bconv expects NM limbs in coefficient domain")
    if tables is None:
        tables = make_bconv_tables(a.basis, dst)
    tj = vec_mmul(a, Word(tables.stage1_plain, SM))
    return from_sm(_bconv_stage2(tj, tables))


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
    tj = vec_mmul(a, Word(tables.stage1_merged, NM), absorb_deferred=True)
    return _bconv_stage2(tj, tables)


# ---------------------------------------------------------------------------
# automorphisms

def automorphism_map(i: int, s: int, n: int) -> tuple[int, int]:
    """Destination index and sign for coefficient i under X -> X^(5^s)."""
    two_n = 2 * n
    e = pow(5, s % max(n // 2, 1), two_n)
    t = (i * e) % two_n
    return t % n, (-1 if t >= n else 1)


def automorphism_apply(a: RnsPoly, s: int) -> RnsPoly:
    """Apply the rotation automorphism in the coefficient domain."""
    if a.domain != COEF or a.order != NATURAL:
        raise ContractError("coefficient automorphism expects natural order")
    _check_deferred(a)
    n = a.basis.n
    dest = np.empty(n, dtype=np.int64)
    neg = np.empty(n, dtype=bool)
    for i in range(n):
        dest[i], sign = automorphism_map(i, s, n)
        neg[i] = sign < 0
    w = a.words
    out = np.empty_like(w)
    out[..., dest] = np.where(neg & (w != 0), _kern(a.basis).q - w, w)
    return _poly(a.basis, out, a.domain, a.order, a.repr)


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


def automorphism_ntt(a: RnsPoly, s: int) -> RnsPoly:
    """Rotation automorphism applied directly to bit-reversed NTT data."""
    if a.domain != NTT or a.order != BITREV:
        raise ContractError("ntt automorphism expects bit-reversed ntt order")
    _check_deferred(a)
    perm = automorphism_ntt_perm(a.words.shape[-1], s)
    return _poly(a.basis, a.words[..., perm], a.domain, a.order, a.repr)
