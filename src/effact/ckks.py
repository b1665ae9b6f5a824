"""Desk-scale leveled CKKS built directly on the residue kernels.

This module is the functional reference for everything the accelerator
pipeline runs: ciphertexts live on-device-style (NTT domain, bit-reversed
order, single-Montgomery words) and every maintenance operation is written
as the exact kernel sequence the compiled programs replay, so outputs can
be compared bit for bit.

Key-switching is hybrid: the modulus chain is split into dnum digit groups,
each digit is raised to the full extended basis with the merged
iNTT-scaling base conversion, multiplied by its evaluation-key digit, and
the sum is divided by P with round-to-nearest.  Rescale is the same
divide-and-round with the dropped base cut down to the one prime q_l, so
both run through one function (``_divide_round``).
"""

from __future__ import annotations

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
    ResiduePoly,
    RnsPoly,
    Word,
    automorphism_apply,
    automorphism_ntt,
    bconv,
    bconv_merged,
    from_sm,
    make_bconv_tables,
    make_poly,
    ntt_fwd,
    ntt_inv,
    to_sm,
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
        p = 1
        for m in self.pchain:
            p *= m.q
        return p

    def basis(self, level: int) -> RnsBasis:
        return RnsBasis(self.chain[:level + 1], role="C")

    def q_product(self, level: int) -> int:
        p = 1
        for m in self.chain[:level + 1]:
            p *= m.q
        return p


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
# precomputed tables (cached per source and destination moduli)

_tables_cache: dict = {}


def _bconv_tables(src: tuple[Modulus, ...],
                  dst: tuple[Modulus, ...]) -> BconvTables:
    key = (src, dst)
    if key not in _tables_cache:
        _tables_cache[key] = make_bconv_tables(RnsBasis(src), RnsBasis(dst))
    return _tables_cache[key]


def ext_moduli(params: CkksParams, level: int) -> list[Modulus]:
    """Extended-basis modulus order used everywhere: C_level then P."""
    return list(params.chain[:level + 1]) + list(params.pchain)


def modup_tables(params: CkksParams, level: int, d: int) -> BconvTables:
    """Digit d source primes -> all other current primes plus P."""
    digit = params.digit_indices(d, level)
    return _bconv_tables(
        tuple(params.chain[i] for i in digit),
        tuple(m for i, m in enumerate(params.chain[:level + 1])
              if i not in digit) + params.pchain)


def digit_weight(params: CkksParams, d: int) -> int:
    """CRT recombination weight W_d over the full chain: 1 on digit-d primes,
    0 on all others."""
    full = params.digit_indices(d, params.levels)
    qd = 1
    for i in full:
        qd *= params.chain[i].q
    qhat = params.q_product(params.levels) // qd
    return qhat * pow(qhat, -1, qd)


# ---------------------------------------------------------------------------
# keys and ciphertexts

@dataclass(frozen=True)
class SecretKey:
    params: CkksParams
    coeffs: tuple[int, ...]   # ternary, centered
    _ntt: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def ntt_limb(self, m: Modulus, power: int = 1) -> ResiduePoly:
        """s^power under m: NTT domain, bit-reversed, SM; cached on the key."""
        key = (m, power)
        if key not in self._ntt:
            base = to_sm(make_poly(m, [c % m.q for c in self.coeffs]))
            limb = ntt_fwd(base)
            for _ in range(power - 1):
                limb = vec_mmul(limb, ntt_fwd(base))
            self._ntt[key] = limb
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
        if len(self.c0.limbs) != self.level + 1 or \
                len(self.c1.limbs) != self.level + 1:
            raise ValueError("limb count does not match level")


def _uniform_limb(m: Modulus, rng) -> ResiduePoly:
    words = [rng.randrange(m.q) for _ in range(m.n)]
    return make_poly(m, words, domain=NTT, order=BITREV, repr=SM)


def _rlwe_sample(sk: SecretKey, basis: RnsBasis, msg: list[ResiduePoly],
                 rng) -> tuple[RnsPoly, RnsPoly]:
    """(b, a) with b = -a*s + msg + e over basis, a uniform; msg holds one
    NTT-domain limb per modulus.  Draws the noise, then one a per modulus."""
    e = _coeffs_to_device(
        [round(rng.gauss(0, ERR_SIGMA)) for _ in range(basis.n)], basis)
    b_limbs, a_limbs = [], []
    for m, mlimb, elimb in zip(basis, msg, e.limbs):
        a = _uniform_limb(m, rng)
        b_limbs.append(vec_madd(vec_madd(vec_neg(vec_mmul(a, sk.ntt_limb(m))),
                                         mlimb), elimb))
        a_limbs.append(a)
    return RnsPoly(basis, tuple(b_limbs)), RnsPoly(basis, tuple(a_limbs))


def keygen_small(params: CkksParams, seed: int = 0,
                 rot_steps: tuple[int, ...] = ()) -> tuple[SecretKey, EvalKey, dict]:
    """Ternary secret, relinearization key for s^2, optional rotation keys.

    Deterministic under the seed.  Evaluation keys are generated at the full
    level; lower-level switching restricts to the live limbs.
    """
    rng = random.Random(seed)
    sk = SecretKey(params, tuple(rng.choice((-1, 0, 1))
                                 for _ in range(params.n)))
    ext = RnsBasis(tuple(ext_moduli(params, params.levels)))

    def evk_for(s_poly):
        # digit d encrypts P * W_d * s_poly
        digits = []
        for d in range(params.dnum):
            w = params.p_product * digit_weight(params, d)
            msg = [vec_mmul(s_poly(m), Word(sm_encode(w % m.q, m), SM))
                   for m in ext]
            digits.append(_rlwe_sample(sk, ext, msg, rng))
        return EvalKey(tuple(digits))

    evk = evk_for(lambda m: sk.ntt_limb(m, 2))
    rot_keys = {}
    for s in rot_steps:
        def rotated(m, s=s):
            coeff = make_poly(m, [c % m.q for c in sk.coeffs])
            return ntt_fwd(to_sm(automorphism_apply(coeff, s)))
        rot_keys[s] = evk_for(rotated)
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
    u = _embedding(params.n)
    m = (2.0 / params.n) * np.real(np.conj(u).T @ z)
    return [int(round(v)) for v in (m * scale)]


def decode(coeffs: list[int], params: CkksParams, scale: float) -> np.ndarray:
    u = _embedding(params.n)
    return (u @ np.array(coeffs, dtype=np.float64)) / scale


# ---------------------------------------------------------------------------
# encrypt / decrypt

def _coeffs_to_device(coeffs, basis: RnsBasis) -> RnsPoly:
    limbs = tuple(ntt_fwd(to_sm(make_poly(m, [c % m.q for c in coeffs])))
                  for m in basis)
    return RnsPoly(basis, limbs)


def encrypt(values, params: CkksParams, sk: SecretKey, seed: int = 1,
            scale: float | None = None, level: int | None = None) -> Ciphertext:
    rng = random.Random(seed)
    level = params.levels if level is None else level
    scale = params.delta if scale is None else scale
    basis = params.basis(level)
    msg = encode(values, params, scale)
    c0, c1 = _rlwe_sample(sk, basis, _coeffs_to_device(msg, basis).limbs, rng)
    return Ciphertext(c0, c1, level, scale)


def _device_to_coeffs(p: RnsPoly) -> list[list[int]]:
    return [from_sm(ntt_inv(limb)).to_ints() for limb in p.limbs]


def _crt_center(limbs: list[list[int]], moduli) -> list[int]:
    qprod = 1
    for m in moduli:
        qprod *= m.q
    acc = np.zeros(len(limbs[0]), dtype=object)
    for row, m in zip(limbs, moduli):
        w = (qprod // m.q) * pow(qprod // m.q, -1, m.q)
        acc = (acc + np.array(row, dtype=object) * w) % qprod
    half = qprod // 2
    return [int(v - qprod) if v > half else int(v) for v in acc]


def decrypt_raw(ct: Ciphertext, sk: SecretKey) -> list[int]:
    """Centered integer coefficients of c0 + c1*s."""
    basis = ct.c0.basis
    limbs = [vec_madd(ct.c0.limbs[i], vec_mmul(ct.c1.limbs[i],
                                               sk.ntt_limb(m)))
             for i, m in enumerate(basis)]
    rows = _device_to_coeffs(RnsPoly(basis, tuple(limbs)))
    return _crt_center(rows, basis)


def decrypt(ct: Ciphertext, sk: SecretKey, params: CkksParams) -> np.ndarray:
    return decode(decrypt_raw(ct, sk), params, ct.scale)


def decrypt_triple(d0: RnsPoly, d1: RnsPoly, d2: RnsPoly, sk: SecretKey,
                   params: CkksParams, scale: float) -> np.ndarray:
    """Reference decryption of an unrelinearized product under (1, s, s^2)."""
    basis = d0.basis
    limbs = []
    for i, m in enumerate(basis):
        v = vec_madd(d0.limbs[i], vec_mmul(d1.limbs[i], sk.ntt_limb(m)))
        v = vec_madd(v, vec_mmul(d2.limbs[i], sk.ntt_limb(m, 2)))
        limbs.append(v)
    rows = _device_to_coeffs(RnsPoly(basis, tuple(limbs)))
    return decode(_crt_center(rows, basis), params, scale)


# ---------------------------------------------------------------------------
# homomorphic operations

def hadd(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    if a.level != b.level:
        raise ValueError("level mismatch")
    if a.scale != b.scale:
        raise ValueError("scale mismatch")
    c0 = RnsPoly(a.c0.basis, tuple(vec_madd(x, y) for x, y
                                   in zip(a.c0.limbs, b.c0.limbs)))
    c1 = RnsPoly(a.c1.basis, tuple(vec_madd(x, y) for x, y
                                   in zip(a.c1.limbs, b.c1.limbs)))
    return Ciphertext(c0, c1, a.level, a.scale)


def key_switch(d2: RnsPoly, evk: EvalKey, params: CkksParams,
               level: int, merged: bool = True) -> tuple[RnsPoly, RnsPoly]:
    """Switch a component decryptable under the key baked into evk back to s.

    Digit by digit: raise the digit to the full current basis (merged
    iNTT-scale + base conversion + forward NTT), multiply by the key digit,
    accumulate, and divide the sum by P.  With merged=False the digit raise
    runs the unmerged pipeline (finish the iNTT, convert representations
    explicitly); the result is bit-identical.
    """
    if [m.q for m in d2.basis] != [m.q for m in params.chain[:level + 1]]:
        raise ValueError("component basis does not match the level chain")
    ext = ext_moduli(params, level)
    acc0 = [None] * len(ext)
    acc1 = [None] * len(ext)
    for d in range(params.dnum):
        digit = params.digit_indices(d, level)
        if not digit:
            continue
        tables = modup_tables(params, level, d)
        src = RnsBasis(tuple(params.chain[i] for i in digit))
        if merged:
            deferred = RnsPoly(src, tuple(
                ntt_inv(d2.limbs[i], defer_scale=True) for i in digit))
            conv = bconv_merged(deferred, tables)
        else:
            finished = RnsPoly(src, tuple(
                from_sm(ntt_inv(d2.limbs[i])) for i in digit))
            conv = bconv(finished, tables.dst, tables).map(to_sm)
        conv_ntt = [ntt_fwd(p) for p in conv.limbs]
        # assemble the raised digit in extended-basis order
        raised = []
        it = iter(conv_ntt)
        for k, m in enumerate(ext):
            if k <= level and k in digit:
                raised.append(d2.limbs[k])
            else:
                raised.append(next(it))
        evk_b, evk_a = evk.digits[d]
        for k in range(len(ext)):
            s = params.key_limb(k, level)
            t0 = vec_mmul(raised[k], evk_b.limbs[s])
            t1 = vec_mmul(raised[k], evk_a.limbs[s])
            acc0[k] = t0 if acc0[k] is None else vec_madd(acc0[k], t0)
            acc1[k] = t1 if acc1[k] is None else vec_madd(acc1[k], t1)
    keep = params.chain[:level + 1]
    return (_divide_round(acc0, keep, params.pchain),
            _divide_round(acc1, keep, params.pchain))


def _divide_round(limbs, keep: tuple[Modulus, ...],
                  drop: tuple[Modulus, ...]) -> RnsPoly:
    """Map NTT-domain limbs over keep + drop to limbs over keep, divided by
    D = prod(drop) with round-to-nearest: bias by D//2, convert the drop
    limbs to keep (merged iNTT scaling), subtract, multiply by D^-1.

    Key-switch mod-down drops P; rescale drops the one prime q_l.
    """
    d_prod = math.prod(m.q for m in drop)
    biased = [vec_madd(limb, Word(sm_encode(d_prod // 2 % m.q, m), SM))
              for limb, m in zip(limbs, keep + drop)]
    high = RnsPoly(RnsBasis(drop), tuple(
        ntt_inv(limb, defer_scale=True) for limb in biased[len(keep):]))
    conv = bconv_merged(high, _bconv_tables(drop, keep))
    out = []
    for x, rem, m in zip(biased, conv.limbs, keep):
        dinv = Word(sm_encode(pow(d_prod, -1, m.q), m), SM)
        out.append(vec_mmul(vec_msub(x, ntt_fwd(rem)), dinv))
    return RnsPoly(RnsBasis(keep, role="C"), tuple(out))


def rescale(ct: Ciphertext, params: CkksParams) -> Ciphertext:
    """Drop the top limb: divide by its prime q_l, rounding to nearest."""
    if ct.level < 1:
        raise ValueError("level exhausted")
    keep, drop = params.chain[:ct.level], params.chain[ct.level:ct.level + 1]
    c0, c1 = (_divide_round(c.limbs, keep, drop) for c in (ct.c0, ct.c1))
    return Ciphertext(c0, c1, ct.level - 1, ct.scale / drop[0].q)


def hmult(a: Ciphertext, b: Ciphertext, evk: EvalKey,
          params: CkksParams) -> Ciphertext:
    if a.level != b.level:
        raise ValueError("level mismatch")
    if a.level < 1:
        raise ValueError("level exhausted")
    basis = a.c0.basis
    d0 = RnsPoly(basis, tuple(vec_mmul(x, y) for x, y
                              in zip(a.c0.limbs, b.c0.limbs)))
    d1 = RnsPoly(basis, tuple(
        vec_madd(vec_mmul(a.c0.limbs[i], b.c1.limbs[i]),
                 vec_mmul(a.c1.limbs[i], b.c0.limbs[i]))
        for i in range(len(basis))))
    d2 = RnsPoly(basis, tuple(vec_mmul(x, y) for x, y
                              in zip(a.c1.limbs, b.c1.limbs)))
    ks0, ks1 = key_switch(d2, evk, params, a.level)
    c0 = RnsPoly(basis, tuple(vec_madd(x, y) for x, y
                              in zip(d0.limbs, ks0.limbs)))
    c1 = RnsPoly(basis, tuple(vec_madd(x, y) for x, y
                              in zip(d1.limbs, ks1.limbs)))
    return rescale(Ciphertext(c0, c1, a.level, a.scale * b.scale), params)


def hrot(ct: Ciphertext, s: int, rot_keys: dict, params: CkksParams) -> Ciphertext:
    if s % (params.n // 2) == 0:
        return ct
    if s not in rot_keys:
        raise KeyError(f"no rotation key for step {s}")
    rc0 = ct.c0.map(lambda p: automorphism_ntt(p, s))
    rc1 = ct.c1.map(lambda p: automorphism_ntt(p, s))
    ks0, ks1 = key_switch(rc1, rot_keys[s], params, ct.level)
    c0 = RnsPoly(rc0.basis, tuple(vec_madd(x, y) for x, y
                                  in zip(rc0.limbs, ks0.limbs)))
    return Ciphertext(c0, ks1, ct.level, ct.scale)


# ---------------------------------------------------------------------------
# serialization: 32-byte header + per-limb modulus words + coefficients,
# all little-endian 64-bit

_MAGIC = b"EFCTct01"


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    n = ct.c0.basis.n
    nlimbs = len(ct.c0.limbs)
    head = _MAGIC + struct.pack("<IIHH4xd", n, ct.level, nlimbs, 2, ct.scale)
    body = bytearray()
    for m in ct.c0.basis:
        body += struct.pack("<Q", m.q)
    for comp in (ct.c0, ct.c1):
        for limb in comp.limbs:
            body += limb.coeffs.astype("<u8").tobytes()
    return head + bytes(body)


def deserialize_ciphertext(blob: bytes, params: CkksParams) -> Ciphertext:
    if blob[:8] != _MAGIC:
        raise ValueError("bad magic")
    n, level, nlimbs, ncomps, scale = struct.unpack("<IIHH4xd", blob[8:32])
    if n != params.n or ncomps != 2 or nlimbs != level + 1:
        raise ValueError("header inconsistent with parameters")
    off = 32
    qs = struct.unpack(f"<{nlimbs}Q", blob[off:off + 8 * nlimbs])
    basis = params.basis(level)
    if list(qs) != [m.q for m in basis]:
        raise ValueError("modulus chain mismatch")
    off += 8 * nlimbs
    comps = []
    for _ in range(2):
        limbs = []
        for m in basis:
            words = np.frombuffer(blob[off:off + 8 * n], dtype="<u8")
            off += 8 * n
            limbs.append(make_poly(m, words, domain=NTT, order=BITREV,
                                   repr=SM))
        comps.append(RnsPoly(basis, tuple(limbs)))
    return Ciphertext(comps[0], comps[1], level, scale)
