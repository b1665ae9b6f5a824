"""Desk-scale leveled CKKS built directly on the residue kernels.

This module is the functional reference for everything the accelerator
pipeline runs: ciphertexts live on-device-style (NTT domain, bit-reversed
order, single-Montgomery words) and every maintenance operation is written
as the exact kernel sequence the compiled programs replay, so outputs can
be compared bit for bit.

Each ciphertext component is one RnsPoly: every operation calls each
kernel once per polynomial, a per-limb constant is one column operand, and
limbs move between bases only through `gather`.  Key switching and rescale
carry both components as one `stack`, so they call each kernel once for
the pair, and `hmult` forms its tensor product in one stacked multiply.
Randomness is drawn in bulk (`replay`), word for word as
random.Random's own calls would draw it.

Key-switching is hybrid: the modulus chain is split into dnum digit groups,
each digit is raised to the full extended basis with the merged
iNTT-scaling base conversion, multiplied by its evaluation-key digit, and
the sum is divided by P with round-to-nearest.  Rescale is the same
divide-and-round with the dropped base cut down to the one prime q_l, so
both run through one function (``_divide_round``).
"""

from __future__ import annotations

import functools
import math
import random
import struct
from dataclasses import dataclass, field

import numpy as np

from .poly import (
    BITREV,
    NTT,
    SM,
    BconvTables,
    RnsPoly,
    Word,
    automorphism_ntt,
    bconv,
    bconv_merged,
    from_sm,
    gather,
    make_bconv_tables,
    make_poly,
    ntt_fwd,
    ntt_inv,
    stack,
    to_sm,
    unstack,
    vec_madd,
    vec_mmul,
    vec_msub,
    vec_neg,
)
from .rns import Modulus, RnsBasis, make_modulus_chain, sm_encode

ERR_SIGMA = 3.2


# ---------------------------------------------------------------------------
# parameters

def _digit_size(levels: int, dnum: int) -> int:
    """alpha: primes per key-switch digit when L+1 primes form dnum digits."""
    return -(-(levels + 1) // dnum)


class _DigitLayout:
    """Hybrid key-switch digit layout over the fields levels and dnum;
    shared by CkksParams and the generators' WorkloadParams."""

    @property
    def alpha(self) -> int:
        return _digit_size(self.levels, self.dnum)

    def digit_indices(self, d: int, level: int) -> list[int]:
        lo = d * self.alpha
        hi = min((d + 1) * self.alpha, level + 1)
        return list(range(lo, hi)) if hi > lo else []

    def key_limb(self, k: int, level: int) -> int:
        """Limb of a full-level evaluation key that multiplies limb k of the
        extended basis at `level` (C_level then P)."""
        return k if k <= level else self.levels + 1 + (k - level - 1)


@dataclass(frozen=True)
class CkksParams(_DigitLayout):
    n: int
    levels: int            # L: fresh ciphertexts carry L+1 limbs
    dnum: int
    delta: float
    chain: tuple[Modulus, ...]      # q_0 .. q_L
    pchain: tuple[Modulus, ...]     # extension base

    def __post_init__(self):
        if self.n > 4096 or self.levels > 8 or self.dnum not in (2, 4):
            raise ValueError("parameters outside the supported desk scale")
        if len(self.chain) != self.levels + 1:
            raise ValueError("chain length must be levels + 1")

    @property
    def p_product(self) -> int:
        return math.prod(m.q for m in self.pchain)

    def basis(self, level: int) -> RnsBasis:
        return RnsBasis(self.chain[:level + 1])

    def q_product(self, level: int) -> int:
        return math.prod(m.q for m in self.chain[:level + 1])


def make_params(n: int = 1024, levels: int = 4, dnum: int = 2,
                delta: float = float(2 ** 40)) -> CkksParams:
    """Standard desk-scale parameter set: one wide anchor prime, scale-sized
    chain primes, and an extension base larger than any digit product."""
    anchor = make_modulus_chain(n, 1, 55)
    scale = make_modulus_chain(n, levels, 40)
    alpha = _digit_size(levels, dnum)
    # P must dominate the largest digit product (anchor + alpha-1 scale primes)
    digit_bits = 55 + (alpha - 1) * 40
    pcount = 3
    pbits = min(digit_bits // pcount + 4, 59)
    pch = make_modulus_chain(n, pcount, pbits)
    return CkksParams(n, levels, dnum, delta,
                      tuple(anchor + scale), tuple(pch))


# ---------------------------------------------------------------------------
# precomputed tables (make_bconv_tables caches them per pair of bases)

def ext_moduli(params: CkksParams, level: int) -> list[Modulus]:
    """Extended-basis modulus order used everywhere: C_level then P."""
    return list(params.chain[:level + 1]) + list(params.pchain)


def modup_tables(params: CkksParams, level: int, d: int) -> BconvTables:
    """Digit d source primes -> all other current primes plus P."""
    digit = params.digit_indices(d, level)
    return make_bconv_tables(
        RnsBasis(tuple(params.chain[i] for i in digit)),
        RnsBasis(tuple(m for i, m in enumerate(params.chain[:level + 1])
                       if i not in digit) + params.pchain))


def digit_weight(params: CkksParams, d: int) -> int:
    """CRT recombination weight W_d over the full chain: 1 on digit-d primes,
    0 on all others."""
    qd = math.prod(params.chain[i].q
                   for i in params.digit_indices(d, params.levels))
    qhat = params.q_product(params.levels) // qd
    return qhat * pow(qhat, -1, qd)


# ---------------------------------------------------------------------------
# keys and ciphertexts

def _sm_word(x: int, basis: RnsBasis) -> Word:
    """The integer x in single-Montgomery form on every limb of basis."""
    return Word(tuple(sm_encode(x % m.q, m) for m in basis), SM)


def _reduce(coeffs, basis: RnsBasis) -> RnsPoly:
    """Integer coefficients as an NM coefficient-domain polynomial: one
    modulo over the basis, in int64 when every coefficient fits and on
    Python ints otherwise."""
    try:
        c = np.array(coeffs, dtype=np.int64)
    except OverflowError:
        c = np.array(coeffs, dtype=object)
    q = np.array([m.q for m in basis], dtype=c.dtype)[:, None]
    return make_poly(basis, (c % q).astype(np.uint64))


@dataclass(frozen=True)
class SecretKey:
    params: CkksParams
    coeffs: tuple[int, ...]   # ternary, centered
    _ntt: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def ntt_poly(self, basis: RnsBasis, power: int = 1) -> RnsPoly:
        """s^power over basis: NTT domain, bit-reversed, SM; cached on the
        key by the moduli and the power."""
        key = (basis.moduli, power)
        if key not in self._ntt:
            s = _coeffs_to_device(self.coeffs, basis)
            self._ntt[key] = functools.reduce(vec_mmul, [s] * power)
        return self._ntt[key]


@dataclass(frozen=True)
class EvalKey:
    """dnum digit pairs (b, a) over the full extended basis, b + a*s = msg."""

    digits: tuple[tuple[RnsPoly, RnsPoly], ...]


@dataclass
class Ciphertext:
    c0: RnsPoly
    c1: RnsPoly
    level: int
    scale: float

    def __post_init__(self):
        if len(self.c0.basis) != self.level + 1 or \
                len(self.c1.basis) != self.level + 1:
            raise ValueError("limb count does not match level")


# ---------------------------------------------------------------------------
# bulk draws: the words of random.Random's own calls, drawn in numpy

_TWOPI = 2.0 * math.pi         # random.TWOPI


@functools.cache
def _replay_mt() -> np.random.MT19937:
    """The generator that each replay sets the state of; like random.Random
    itself it is not for concurrent calls.  Made on first use, since
    importing numpy.random takes about 6 MB and 10 ms."""
    return np.random.MT19937(0)


def replay(rng: random.Random, draw):
    """draw(raw, gauss_next) -> (values, gauss_next) run on the Mersenne
    Twister state of rng, raw(k) giving its next k 32-bit outputs (numpy's
    MT19937 is the same generator); rng then holds the state after exactly
    the words that draw took, and the gauss_next it returned."""
    version, internal, gauss_next = rng.getstate()
    mt = _replay_mt()
    mt.state = {"bit_generator": "MT19937",
                "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                          "pos": internal[-1]}}
    values, gauss_next = draw(mt.random_raw, gauss_next)
    state = mt.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])),
                  gauss_next))
    return values


def draw_below(raw, q: int, count: int) -> np.ndarray:
    """count values of random.Random._randbelow(q), as randrange(q) and
    choice draw them: getrandbits(k), k = q.bit_length(), redrawn while
    >= q.  getrandbits takes 32-bit words low word first and keeps the top
    k % 32 bits of the last one.  Each round draws one candidate per value
    still missing, so no word is drawn past the last one used."""
    if not 0 < q < 2 ** 64:
        raise ValueError(f"bound {q} is not a positive 64-bit integer")
    k = q.bit_length()
    words, shift = -(-k // 32), np.uint64(-k % 32)
    out = np.empty(count, dtype=np.uint64)
    got = 0
    while got < count:
        w = raw((count - got) * words).reshape(-1, words)
        c = w[:, -1] >> shift
        if words == 2:
            c = (c << np.uint64(32)) | w[:, 0]
        c = c[c < np.uint64(q)]
        out[got:got + c.size] = c
        got += c.size
    return out


def draw_gauss(raw, gauss_next: float | None,
               count: int) -> tuple[np.ndarray, float | None]:
    """count values of random.Random.gauss(0, 1) and the gauss_next they
    leave: the cached value first, then Box-Muller pairs, each from two
    random() = ((a >> 5) * 2^26 + (b >> 6)) / 2^53 of two words a, b.
    Only IEEE-exact operations run vectorized; log, cos and sin are the
    math module's, one per element, as gauss calls them."""
    if count == 0:
        return np.empty(0), gauss_next
    head = [] if gauss_next is None else [gauss_next]
    pairs = (count - len(head) + 1) // 2
    w = raw(4 * pairs).reshape(pairs, 2, 2)
    hi, lo = w[:, :, 0] >> np.uint64(5), w[:, :, 1] >> np.uint64(6)
    u = (hi * 67108864.0 + lo) * (1.0 / 9007199254740992.0)
    x2pi = (u[:, 0] * _TWOPI).tolist()
    g2rad = np.sqrt(-2.0 * np.array(list(map(math.log,
                                              (1.0 - u[:, 1]).tolist()))))
    z = np.empty((pairs, 2))
    z[:, 0] = np.array(list(map(math.cos, x2pi))) * g2rad
    z[:, 1] = np.array(list(map(math.sin, x2pi))) * g2rad
    values = np.concatenate((head, z.ravel()))
    return values[:count], (float(values[count]) if values.size > count
                            else None)


def _uniform(raw, basis: RnsBasis) -> RnsPoly:
    """Uniform NTT-domain words, drawn limb by limb in basis order."""
    return make_poly(basis, np.concatenate([draw_below(raw, m.q, m.n)
                                            for m in basis]),
                     domain=NTT, order=BITREV, repr=SM)


def _rlwe_sample(sk: SecretKey, basis: RnsBasis,
                 rng) -> tuple[RnsPoly, RnsPoly, list[int]]:
    """(-a*s, a, e) over basis: a uniform, and e the noise, rounded to
    nearest even, as integer coefficients for the caller to add with its
    message.  Draws the noise, then a."""
    def draw(raw, gauss_next):
        g, gauss_next = draw_gauss(raw, gauss_next, basis.n)
        return (np.rint(g * ERR_SIGMA).astype(np.int64).tolist(),
                _uniform(raw, basis)), gauss_next

    e, a = replay(rng, draw)
    return vec_neg(vec_mmul(a, sk.ntt_poly(basis))), a, e


def keygen_small(params: CkksParams, seed: int = 0,
                 rot_steps: tuple[int, ...] = ()) -> tuple[SecretKey, EvalKey, dict]:
    """Ternary secret, relinearization key for s^2, optional rotation keys.

    Deterministic under the seed.  Evaluation keys are generated at the full
    level; lower-level switching restricts to the live limbs.
    """
    rng = random.Random(seed)
    # choice((-1, 0, 1)) draws its index with _randbelow(3)
    ternary = replay(rng, lambda raw, g: (draw_below(raw, 3, params.n), g))
    sk = SecretKey(params, tuple((ternary.astype(np.int64) - 1).tolist()))
    ext = RnsBasis(tuple(ext_moduli(params, params.levels)))

    def evk_digit(msg):
        b, a, e = _rlwe_sample(sk, ext, rng)
        return vec_madd(vec_madd(b, msg), _coeffs_to_device(e, ext)), a

    def evk_for(s_poly):
        # digit d encrypts P * W_d * s_poly
        return EvalKey(tuple(
            evk_digit(vec_mmul(s_poly, _sm_word(
                params.p_product * digit_weight(params, d), ext)))
            for d in range(params.dnum)))

    evk = evk_for(sk.ntt_poly(ext, 2))
    rot_keys = {s: evk_for(automorphism_ntt(sk.ntt_poly(ext), s))
                for s in rot_steps}
    return sk, evk, rot_keys


# ---------------------------------------------------------------------------
# encoding (verification oracle only; never on the accelerator path)

_embed_cache: dict[int, np.ndarray] = {}


def _embedding(n: int) -> np.ndarray:
    """Rows j: powers of zeta^(5^j), zeta the primitive 2n-th root."""
    if n not in _embed_cache:
        slots = n // 2
        e = 1
        rows = []
        for _ in range(slots):
            rows.append(e)
            e = (e * 5) % (2 * n)
        idx = (np.array(rows).reshape(slots, 1) * np.arange(n)) % (2 * n)
        _embed_cache[n] = np.exp(1j * math.pi * idx / n)
    return _embed_cache[n]


def encode(values, params: CkksParams, scale: float | None = None) -> list[int]:
    """Complex slot vector -> integer coefficients at the given scale."""
    scale = params.delta if scale is None else scale
    slots = params.n // 2
    z = np.zeros(slots, dtype=np.complex128)
    z[:len(values)] = values
    # conj(z) @ u is the conjugate of conj(u).T @ z with the same real
    # part, and needs no conjugated copy of the embedding
    m = (2.0 / params.n) * np.real(np.conj(z) @ _embedding(params.n))
    # rint rounds half to even, as round does
    return [int(v) for v in np.rint(m * scale).tolist()]


def decode(coeffs: list[int], params: CkksParams, scale: float) -> np.ndarray:
    u = _embedding(params.n)
    return (u @ np.array(coeffs, dtype=np.float64)) / scale


# ---------------------------------------------------------------------------
# encrypt / decrypt

def _coeffs_to_device(coeffs, basis: RnsBasis) -> RnsPoly:
    return ntt_fwd(to_sm(_reduce(coeffs, basis)))


def encrypt(values, params: CkksParams, sk: SecretKey, seed: int = 1,
            scale: float | None = None, level: int | None = None) -> Ciphertext:
    rng = random.Random(seed)
    level = params.levels if level is None else level
    scale = params.delta if scale is None else scale
    basis = params.basis(level)
    b, a, e = _rlwe_sample(sk, basis, rng)
    # the message joins the noise before their one NTT
    msg = encode(values, params, scale)
    c0 = vec_madd(b, _coeffs_to_device([m + x for m, x in zip(msg, e)],
                                       basis))
    return Ciphertext(c0, a, level, scale)


def _device_to_coeffs(p: RnsPoly) -> list[int]:
    """Centered integer coefficients of an NTT-domain SM polynomial, by CRT
    over its basis."""
    words = from_sm(ntt_inv(p)).words
    qprod = p.basis.product
    weights = np.array([(qprod // m.q) * pow(qprod // m.q, -1, m.q)
                        for m in p.basis], dtype=object)
    acc = (words.astype(object) * weights[:, None]).sum(axis=0) % qprod
    half = qprod // 2
    return [int(v - qprod) if v > half else int(v) for v in acc]


def decrypt_raw(ct: Ciphertext, sk: SecretKey) -> list[int]:
    """Centered integer coefficients of c0 + c1*s."""
    s = sk.ntt_poly(ct.c0.basis)
    return _device_to_coeffs(vec_madd(ct.c0, vec_mmul(ct.c1, s)))


def decrypt(ct: Ciphertext, sk: SecretKey, params: CkksParams) -> np.ndarray:
    return decode(decrypt_raw(ct, sk), params, ct.scale)


def decrypt_triple(d0: RnsPoly, d1: RnsPoly, d2: RnsPoly, sk: SecretKey,
                   params: CkksParams, scale: float) -> np.ndarray:
    """Reference decryption of an unrelinearized product under (1, s, s^2)."""
    v = vec_madd(d0, vec_mmul(d1, sk.ntt_poly(d0.basis)))
    v = vec_madd(v, vec_mmul(d2, sk.ntt_poly(d0.basis, 2)))
    return decode(_device_to_coeffs(v), params, scale)


# ---------------------------------------------------------------------------
# homomorphic operations

def hadd(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    if a.level != b.level:
        raise ValueError("level mismatch")
    if a.scale != b.scale:
        raise ValueError("scale mismatch")
    return Ciphertext(vec_madd(a.c0, b.c0), vec_madd(a.c1, b.c1), a.level,
                      a.scale)


def key_switch(d2: RnsPoly, evk: EvalKey, params: CkksParams,
               level: int, merged: bool = True) -> tuple[RnsPoly, RnsPoly]:
    """Switch a component decryptable under the key baked into evk back to s.

    One iNTT of the whole component (scale deferred), then digit by digit:
    raise the digit's rows to the full current basis (merged iNTT-scale +
    base conversion + forward NTT), multiply by the key digit, accumulate,
    and divide the sum by P.  With merged=False the iNTT is finished and
    the digit raise converts representations explicitly; the result is
    bit-identical.
    """
    if [m.q for m in d2.basis] != [m.q for m in params.chain[:level + 1]]:
        raise ValueError("component basis does not match the level chain")
    ext = RnsBasis(tuple(ext_moduli(params, level)))
    # the digits partition the primes, so one iNTT serves them all
    coef = ntt_inv(d2, defer_scale=merged)
    acc = None      # the (b, a) sums as one stack
    for d in range(params.dnum):
        if not params.digit_indices(d, level):
            continue
        tables = modup_tables(params, level, d)
        digit, part = gather(tables.src, d2), gather(tables.src, coef)
        if merged:
            conv = bconv_merged(part, tables)
        else:
            conv = to_sm(bconv(from_sm(part), tables.dst, tables))
        # the raised digit in extended-basis order
        raised = gather(ext, digit, ntt_fwd(conv))
        t = vec_mmul(raised, gather(ext, stack(evk.digits[d])))
        acc = t if acc is None else vec_madd(acc, t)
    return unstack(_divide_round(acc, params.chain[:level + 1],
                                 params.pchain))


def _divide_round(x: RnsPoly, keep: tuple[Modulus, ...],
                  drop: tuple[Modulus, ...]) -> RnsPoly:
    """Map an NTT-domain polynomial (or a stack of them) over keep + drop
    to one over keep, divided by D = prod(drop) with round-to-nearest: bias
    by D//2, convert the drop limbs to keep (merged iNTT scaling),
    subtract, multiply by D^-1.

    Key-switch mod-down drops P; rescale drops the one prime q_l.
    """
    d_prod = math.prod(m.q for m in drop)
    biased = vec_madd(x, _sm_word(d_prod // 2, x.basis))
    high = ntt_inv(gather(RnsBasis(drop), biased), defer_scale=True)
    tables = make_bconv_tables(RnsBasis(drop), RnsBasis(keep))
    rem = ntt_fwd(bconv_merged(high, tables))
    dinv = Word(tuple(sm_encode(pow(d_prod, -1, m.q), m) for m in keep), SM)
    low = gather(RnsBasis(keep), biased)
    return vec_mmul(vec_msub(low, rem), dinv)


def rescale(ct: Ciphertext, params: CkksParams) -> Ciphertext:
    """Drop the top limb: divide by its prime q_l, rounding to nearest."""
    if ct.level < 1:
        raise ValueError("level exhausted")
    keep, drop = params.chain[:ct.level], params.chain[ct.level:ct.level + 1]
    c0, c1 = unstack(_divide_round(stack((ct.c0, ct.c1)), keep, drop))
    return Ciphertext(c0, c1, ct.level - 1, ct.scale / drop[0].q)


def hmult(a: Ciphertext, b: Ciphertext, evk: EvalKey,
          params: CkksParams) -> Ciphertext:
    if a.level != b.level:
        raise ValueError("level mismatch")
    if a.level < 1:
        raise ValueError("level exhausted")
    # the tensor product's four multiplies as one stacked call
    d0, d01, d10, d2 = unstack(vec_mmul(stack((a.c0, a.c0, a.c1, a.c1)),
                                        stack((b.c0, b.c1, b.c0, b.c1))))
    d1 = vec_madd(d01, d10)
    ks0, ks1 = key_switch(d2, evk, params, a.level)
    return rescale(Ciphertext(vec_madd(d0, ks0), vec_madd(d1, ks1), a.level,
                              a.scale * b.scale), params)


def hrot(ct: Ciphertext, s: int, rot_keys: dict, params: CkksParams) -> Ciphertext:
    if s % (params.n // 2) == 0:
        return ct
    if s not in rot_keys:
        raise ValueError(f"no rotation key for step {s}")
    ks0, ks1 = key_switch(automorphism_ntt(ct.c1, s), rot_keys[s], params,
                          ct.level)
    return Ciphertext(vec_madd(automorphism_ntt(ct.c0, s), ks0), ks1,
                      ct.level, ct.scale)


# ---------------------------------------------------------------------------
# serialization: 32-byte header + per-limb modulus words + coefficients,
# all little-endian 64-bit

_MAGIC = b"EFCTct01"


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    basis = ct.c0.basis
    head = _MAGIC + struct.pack("<IIHH4xd", basis.n, ct.level, len(basis), 2,
                                ct.scale)
    qs = struct.pack(f"<{len(basis)}Q", *(m.q for m in basis))
    words = np.stack((ct.c0.words, ct.c1.words)).astype("<u8")
    return head + qs + words.tobytes()


def deserialize_ciphertext(blob: bytes, params: CkksParams) -> Ciphertext:
    if blob[:8] != _MAGIC:
        raise ValueError("bad magic")
    if len(blob) < 32:
        raise ValueError(f"ciphertext truncated to {len(blob)} bytes")
    n, level, nlimbs, ncomps, scale = struct.unpack("<IIHH4xd", blob[8:32])
    if n != params.n or ncomps != 2 or nlimbs != level + 1:
        raise ValueError("header inconsistent with parameters")
    size = 32 + 8 * nlimbs * (1 + 2 * n)
    if len(blob) != size:
        raise ValueError(f"ciphertext is {len(blob)} bytes, its header "
                         f"declares {size}")
    qs = struct.unpack(f"<{nlimbs}Q", blob[32:32 + 8 * nlimbs])
    basis = params.basis(level)
    if list(qs) != [m.q for m in basis]:
        raise ValueError("modulus chain mismatch")
    words = np.frombuffer(blob, dtype="<u8", offset=32 + 8 * nlimbs)
    c0, c1 = (make_poly(basis, w, domain=NTT, order=BITREV, repr=SM)
              for w in words.reshape(2, nlimbs, n))
    return Ciphertext(c0, c1, level, scale)
