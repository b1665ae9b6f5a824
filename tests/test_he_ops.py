import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from effact.asm import load_image, save_image

from effact.ckks import (
    ERR_SIGMA,
    Ciphertext,
    decode,
    decrypt,
    decrypt_raw,
    draw_below,
    draw_gauss,
    encode,
    encrypt,
    hadd,
    hmult,
    hrot,
    key_switch,
    keygen_small,
    make_params,
    replay,
    rescale,
)
from effact.ir import IrError, MemoryImage
from effact.poly import RnsPoly, make_poly, vec_madd, vec_mmul
from effact.rns import SM


@pytest.fixture(scope="module")
def setup():
    params = make_params()
    sk, evk, rot = keygen_small(params, seed=42, rot_steps=(1, 3))
    return params, sk, evk, rot


def rel_err(got, want):
    denom = max(np.max(np.abs(want)), 1.0)
    return np.max(np.abs(got - want)) / denom


def rand_msg(rng, slots):
    return rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)


def decrypt_triple(d0: RnsPoly, d1: RnsPoly, d2: RnsPoly, sk, params,
                   scale: float) -> np.ndarray:
    """Reference decryption of an unrelinearized product under (1, s, s^2):
    (d0 + d2 s^2, d1) decrypted under s."""
    c0 = vec_madd(d0, vec_mmul(d2, sk.ntt_poly(d0.basis, 2)))
    return decrypt(Ciphertext(c0, d1, len(d0.basis) - 1, scale), sk, params)


def test_keygen_deterministic(setup):
    params, sk, evk, _ = setup
    sk2, evk2, _ = keygen_small(params, seed=42, rot_steps=(1, 3))
    assert sk.coeffs == sk2.coeffs
    for (b1, a1), (b2, a2) in zip(evk.digits, evk2.digits):
        for x, y in zip(b1.limbs + a1.limbs, b2.limbs + a2.limbs):
            assert x.to_ints() == y.to_ints()
    assert len(evk.digits) == params.dnum


def test_keygen_rejects_out_of_scale():
    with pytest.raises(ValueError):
        make_params(n=8192)
    with pytest.raises(ValueError):
        make_params(dnum=3)


def test_encode_decode_round_trip(setup):
    params, _, _, _ = setup
    rng = np.random.default_rng(0)
    z = rand_msg(rng, params.n // 2)
    m = encode(z, params)
    back = decode(m, params, params.delta)
    assert rel_err(back, z) < 2 ** -25


def test_encrypt_decrypt(setup):
    params, sk, _, _ = setup
    rng = np.random.default_rng(1)
    z = rand_msg(rng, params.n // 2)
    ct = encrypt(z, params, sk, seed=7)
    got = decrypt(ct, sk, params)
    assert rel_err(got, z) < 2 ** -20


def test_hadd(setup):
    params, sk, _, _ = setup
    rng = np.random.default_rng(2)
    za, zb = rand_msg(rng, 512), rand_msg(rng, 512)
    a = encrypt(za, params, sk, seed=8)
    b = encrypt(zb, params, sk, seed=9)
    s = hadd(a, b)
    assert rel_err(decrypt(s, sk, params), za + zb) < 2 ** -20
    # commutativity is bit-exact
    s2 = hadd(b, a)
    for x, y in zip(s.c0.limbs + s.c1.limbs, s2.c0.limbs + s2.c1.limbs):
        assert x.to_ints() == y.to_ints()
    zero = encrypt(np.zeros(512), params, sk, seed=10)
    assert rel_err(decrypt(hadd(a, zero), sk, params), za) < 2 ** -20
    dbl = hadd(a, a)
    assert rel_err(decrypt(dbl, sk, params), 2 * za) < 2 ** -20
    with pytest.raises(ValueError):
        hadd(a, Ciphertext(b.c0, b.c1, b.level, b.scale * 2))


def test_hmult_basic(setup):
    params, sk, evk, _ = setup
    two = encrypt(np.full(512, 2.0), params, sk, seed=11)
    three = encrypt(np.full(512, 3.0), params, sk, seed=12)
    prod = hmult(two, three, evk, params)
    assert prod.level == params.levels - 1
    assert rel_err(decrypt(prod, sk, params), np.full(512, 6.0)) < 2 ** -15
    one = encrypt(np.ones(512), params, sk, seed=13)
    kept = hmult(two, one, evk, params)
    assert rel_err(decrypt(kept, sk, params), np.full(512, 2.0)) < 2 ** -15
    zero = encrypt(np.zeros(512), params, sk, seed=14)
    absorbed = decrypt(hmult(two, zero, evk, params), sk, params)
    assert np.max(np.abs(absorbed)) < 2 ** -15


def test_hmult_tensor_product_is_one_multiply(setup, monkeypatch):
    # key switch and rescale stubbed: hmult's own multiplies are one
    # stacked call, word for word the four separate ones
    from effact import ckks
    params, sk, evk, _ = setup
    a = encrypt(np.full(512, 2.0), params, sk, seed=15)
    b = encrypt(np.full(512, 3.0), params, sk, seed=16)
    d0 = vec_mmul(a.c0, b.c0)
    d1 = vec_madd(vec_mmul(a.c0, b.c1), vec_mmul(a.c1, b.c0))
    d2 = vec_mmul(a.c1, b.c1)
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return vec_mmul(*args, **kw)

    monkeypatch.setattr(ckks, "vec_mmul", counted)
    monkeypatch.setattr(ckks, "key_switch", lambda d, *_: (d, d))
    monkeypatch.setattr(ckks, "rescale", lambda ct, _: ct)
    got = hmult(a, b, evk, params)
    assert len(calls) == 1
    assert np.array_equal(got.c0.words, vec_madd(d0, d2).words)
    assert np.array_equal(got.c1.words, vec_madd(d1, d2).words)


def test_homomorphism_random_pairs(setup):
    params, sk, evk, _ = setup
    rng = np.random.default_rng(3)
    for i in range(100):
        za, zb = rand_msg(rng, 512), rand_msg(rng, 512)
        a = encrypt(za, params, sk, seed=100 + i)
        b = encrypt(zb, params, sk, seed=200 + i)
        assert rel_err(decrypt(hadd(a, b), sk, params), za + zb) < 2 ** -15
        if i < 25:  # products are the expensive half; full sweep in CI budget
            got = decrypt(hmult(a, b, evk, params), sk, params)
            assert rel_err(got, za * zb) < 2 ** -15


def test_key_switch_decryptability(setup):
    params, sk, evk, _ = setup
    rng = np.random.default_rng(4)
    za, zb = rand_msg(rng, 512), rand_msg(rng, 512)
    a = encrypt(za, params, sk, seed=20)
    b = encrypt(zb, params, sk, seed=21)
    basis = a.c0.basis
    d0 = RnsPoly(basis, tuple(vec_mmul(x, y) for x, y in zip(a.c0.limbs, b.c0.limbs)))
    d1 = RnsPoly(basis, tuple(
        vec_madd(vec_mmul(a.c0.limbs[i], b.c1.limbs[i]),
                 vec_mmul(a.c1.limbs[i], b.c0.limbs[i]))
        for i in range(len(basis))))
    d2 = RnsPoly(basis, tuple(vec_mmul(x, y) for x, y in zip(a.c1.limbs, b.c1.limbs)))
    scale = a.scale * b.scale
    want = decrypt_triple(d0, d1, d2, sk, params, scale)
    ks0, ks1 = key_switch(d2, evk, params, a.level)
    ct = Ciphertext(
        RnsPoly(basis, tuple(vec_madd(x, y) for x, y in zip(d0.limbs, ks0.limbs))),
        RnsPoly(basis, tuple(vec_madd(x, y) for x, y in zip(d1.limbs, ks1.limbs))),
        a.level, scale)
    got = decrypt(ct, sk, params)
    assert rel_err(got, want) < 2 ** -15
    assert rel_err(want, za * zb) < 2 ** -15


def test_key_switch_merged_equals_unmerged(setup):
    params, sk, evk, _ = setup
    rng = np.random.default_rng(5)
    ct = encrypt(rand_msg(rng, 512), params, sk, seed=22)
    d2 = ct.c1
    m0, m1 = key_switch(d2, evk, params, ct.level, merged=True)
    u0, u1 = key_switch(d2, evk, params, ct.level, merged=False)
    for x, y in zip(m0.limbs + m1.limbs, u0.limbs + u1.limbs):
        assert x.to_ints() == y.to_ints()


def test_key_switch_zero_and_level_drop(setup):
    params, sk, evk, _ = setup
    basis = params.basis(params.levels)
    zero = RnsPoly(basis, tuple(
        make_poly(m, [0] * m.n, domain="ntt", order="bit-reversed", repr=SM)
        for m in basis))
    ks0, ks1 = key_switch(zero, evk, params, params.levels)
    ct = Ciphertext(ks0, ks1, params.levels, params.delta)
    # only the P^-1 rounding noise remains
    raw = decrypt_raw(ct, sk)
    assert max(abs(v) for v in raw) <= params.n * params.dnum
    # lower level: keys generated at full level still apply
    lo = encrypt(np.ones(512), params, sk, seed=23, level=2)
    ks0, ks1 = key_switch(lo.c1, evk, params, 2)
    assert len(ks0.limbs) == 3
    with pytest.raises(ValueError):
        key_switch(lo.c1, evk, params, params.levels)


def test_rescale(setup):
    params, sk, _, _ = setup
    rng = np.random.default_rng(6)
    z = rand_msg(rng, 512)
    # rescale divides the scale by ~2^40, so start from delta^2 to keep
    # meaningful precision afterwards
    ct = encrypt(z, params, sk, seed=24, scale=params.delta ** 2)
    out = rescale(ct, params)
    ql = params.chain[ct.level].q
    assert out.scale == ct.scale / ql
    assert out.level == ct.level - 1
    assert len(out.c0.limbs) == len(ct.c0.limbs) - 1
    assert rel_err(decrypt(out, sk, params), z) < 2 ** -15
    low = encrypt(z, params, sk, seed=25, level=0)
    with pytest.raises(ValueError):
        rescale(low, params)


def test_hrot(setup):
    params, sk, _, rot = setup
    rng = np.random.default_rng(7)
    z = rand_msg(rng, 512)
    ct = encrypt(z, params, sk, seed=26)
    assert hrot(ct, 0, rot, params) is ct
    got = decrypt(hrot(ct, 1, rot, params), sk, params)
    assert rel_err(got, np.roll(z, -1)) < 2 ** -15
    chained = hrot(hrot(ct, 1, rot, params), 3, rot, params)
    # no step-4 key generated: compare against plaintext rotation instead
    assert rel_err(decrypt(chained, sk, params), np.roll(z, -4)) < 2 ** -14
    with pytest.raises(ValueError, match="no rotation key for step 2"):
        hrot(ct, 2, rot, params)


def test_outside_words_are_range_checked(setup):
    # the constructors of outside data reject a word >= q
    params = setup[0]
    m = params.chain[1]
    make_poly(m, [m.q - 1] * m.n)
    with pytest.raises(ValueError, match="out of range"):
        make_poly(m, [0] * (m.n - 1) + [m.q])
    img = MemoryImage({"x": [make_poly(m, [m.q - 1] * m.n)]})
    blob = save_image(img, m.n)
    load_image(blob)
    with pytest.raises(IrError, match="out of range"):
        load_image(blob[:-8] + struct.pack("<Q", m.q))


def test_secret_key_limbs_are_per_key(setup):
    params = setup[0]
    sk0, _, _ = keygen_small(params, seed=0)
    sk1, _, _ = keygen_small(params, seed=1)
    rng = np.random.default_rng(9)
    z = rand_msg(rng, 512)
    ct = encrypt(z, params, sk0, seed=28)
    assert rel_err(decrypt(ct, sk0, params), z) < 2 ** -20
    assert rel_err(decrypt(ct, sk1, params), z) > 1


def test_tables_cached_per_params_value(setup):
    from effact import ckks
    params = setup[0]
    again = make_params()
    assert again is not params and again == params
    assert ckks.modup_tables(again, 2, 0) is ckks.modup_tables(params, 2, 0)


def golden_digests(seed: int) -> dict[str, str]:
    """sha256 prefixes of the residue words of encrypt, hmult, hrot and
    key_switch, and of the decrypt_raw coefficients, at desk params."""
    params = make_params()
    sk, evk, rot = keygen_small(params, seed=seed, rot_steps=(1,))
    rng = np.random.default_rng(seed)
    a = encrypt(rand_msg(rng, 512), params, sk, seed=seed + 10)
    b = encrypt(rand_msg(rng, 512), params, sk, seed=seed + 20)
    prod = hmult(a, b, evk, params)
    rotated = hrot(prod, 1, rot, params)
    ks = key_switch(vec_mmul(a.c1, b.c1), evk, params, a.level)

    def digest(*polys):
        h = hashlib.sha256()
        for p in polys:
            h.update(p.words.astype("<u8").tobytes())
        return h.hexdigest()[:16]

    return {
        "encrypt": digest(a.c0, a.c1, b.c0, b.c1),
        "hmult": digest(prod.c0, prod.c1),
        "hrot": digest(rotated.c0, rotated.c1),
        "key_switch": digest(*ks),
        "decrypt_raw": hashlib.sha256(
            repr(decrypt_raw(rotated, sk)).encode()).hexdigest()[:16],
    }


# recorded before the constant-geometry NTT, the single key-switch iNTT
# and the vectorized encode and _reduce; those changes keep every word
GOLDEN_WORDS = {
    1: {"encrypt": "5ecc15f94b8d88ab", "hmult": "7f0ffa67f0992f11",
        "hrot": "aa7b20f910bb6a52", "key_switch": "e5533d49a896009e",
        "decrypt_raw": "b27bc48004bb8980"},
    2: {"encrypt": "881e856a09df3c2a", "hmult": "8b8a00a414acd331",
        "hrot": "1bdcaa2f4a4e3334", "key_switch": "1fb4973fd3648a5b",
        "decrypt_raw": "0d066f0bf8761e70"},
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_WORDS))
def test_golden_words(seed):
    assert golden_digests(seed) == GOLDEN_WORDS[seed]


def test_reduce_is_exact_for_any_int(setup):
    from effact import ckks
    params = setup[0]
    basis = params.basis(params.levels)
    edge = [2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1, 2 ** 200 + 7,
            -3 ** 90]
    for coeffs in (edge[:2] + [(-1) ** i * i for i in range(params.n - 2)],
                   edge + list(range(params.n - len(edge)))):
        got = ckks._reduce(coeffs, basis)
        assert got.words.tolist() == [[c % m.q for c in coeffs]
                                      for m in basis]


# ---------------------------------------------------------------------------
# bulk draws replay random.Random word for word


@st.composite
def bounds(draw):
    """A bound of 2 to 62 bits; 2^(k-1) + 1 rejects about half the
    candidates of getrandbits(k)."""
    k = draw(st.integers(2, 62), label="bits")
    return draw(st.sampled_from((2 ** (k - 1) + 1, 2 ** k - 1))
                | st.integers(2 ** (k - 1), 2 ** k - 1))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(bounds(), st.integers(1, 2048), st.integers(0, 2 ** 32),
       st.booleans())
@example(2 ** 31 + 1, 2048, 1, False)     # k = 32: one word per candidate
@example(2 ** 32 + 1, 2048, 2, True)      # k = 33: two, the high one 1 bit
@example(2 ** 61 + 1, 1, 3, True)
def test_bulk_draws_replay_random(q, count, seed, cached):
    want, got = random.Random(seed), random.Random(seed)
    if cached:       # leaves gauss_next set on both
        want.gauss()
        got.gauss()
    values = [want.randrange(q) for _ in range(count)]
    assert replay(got, lambda raw, g: (draw_below(raw, q, count), g)) \
        .tolist() == values
    assert got.getstate() == want.getstate()
    values = [want.choice((-1, 0, 1)) for _ in range(count)]
    assert (replay(got, lambda raw, g: (draw_below(raw, 3, count), g))
            .astype(np.int64) - 1).tolist() == values
    assert got.getstate() == want.getstate()
    values = [want.gauss(0, ERR_SIGMA) for _ in range(count)]
    normals = replay(got, lambda raw, g: draw_gauss(raw, g, count))
    assert (normals * ERR_SIGMA).tolist() == values
    assert got.getstate() == want.getstate()
    assert (got.random(), got.gauss()) == (want.random(), want.gauss())


def test_bulk_gauss_is_bit_exact_over_a_million_draws():
    # the replay computes sqrt, products and the 53-bit uniforms in numpy
    # and log, cos and sin with math; any rounding apart from
    # random.gauss's would show here
    count = 10 ** 6
    want, got = random.Random(2024), random.Random(2024)
    values = [want.gauss() for _ in range(count)]
    assert replay(got, lambda raw, g: draw_gauss(raw, g, count)).tolist() \
        == values
    assert got.getstate() == want.getstate()
