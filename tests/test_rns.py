import random

import pytest
from sympy import isprime

from effact.rns import (
    DM,
    NM,
    SM,
    Modulus,
    ReprError,
    RnsBasis,
    compose_repr,
    dm_encode,
    is_prime,
    make_modulus,
    make_modulus_chain,
    mont_mul,
    mont_reduce,
    prev_prime,
    sm_decode,
    sm_encode,
)


def test_chain_small_examples():
    assert [m.q for m in make_modulus_chain(8, 1, 5)] == [17]
    assert [m.q for m in make_modulus_chain(8, 2, 7)] == [97, 113]
    assert make_modulus_chain(8, 0, 7) == []


def test_chain_properties():
    chain = make_modulus_chain(256, 4, 30)
    assert len({m.q for m in chain}) == 4
    for m in chain:
        assert isprime(m.q)
        assert (m.q - 1) % 512 == 0
        assert (1 << 29) < m.q <= (1 << 30)
        # omega has order exactly 2n
        assert pow(m.omega, m.n, m.q) == m.q - 1
        assert pow(m.omega, 2 * m.n, m.q) == 1
        assert (m.omega * m.omega_inv) % m.q == 1
        assert (m.n * m.n_inv) % m.q == 1
        assert (m.q * m.q_inv_neg + 1) % m.r == 0


def test_chain_exhaustion():
    with pytest.raises(ValueError, match="primes"):
        make_modulus_chain(2048, 3, 12)


def test_mont_mul_example():
    m = make_modulus(17, 8, r_bits=5)
    assert m.r == 32
    assert mont_mul(11, 9, m) == 10
    assert sm_encode(3, m) == 11
    assert sm_decode(11, m) == 3


def test_mont_reduce_matches_mont_mul():
    m = make_modulus(97, 8, r_bits=7)
    for x in range(97):
        for y in range(97):
            assert mont_reduce(x * y, m) == mont_mul(x, y, m)


def test_mont_homomorphism_random():
    rng = random.Random(7)
    mods = [
        make_modulus_chain(256, 1, 30)[0],
        make_modulus_chain(256, 1, 45)[0],
        make_modulus_chain(256, 1, 59)[0],
    ]
    for m in mods:
        for _ in range(2000):
            x, y = rng.randrange(m.q), rng.randrange(m.q)
            xs, ys = sm_encode(x, m), sm_encode(y, m)
            assert sm_decode(mont_mul(xs, ys, m), m) == (x * y) % m.q
            assert sm_decode(xs, m) == x


def test_r_bits_defaults():
    small = make_modulus_chain(256, 1, 30)[0]
    big = make_modulus_chain(256, 1, 45)[0]
    assert small.r_bits == 32
    assert big.r_bits == 64


def test_repr_composition():
    assert compose_repr(SM, SM) == SM
    assert compose_repr(NM, DM) == SM
    assert compose_repr(DM, NM) == SM
    assert compose_repr(SM, NM) == NM
    assert compose_repr(SM, DM) == DM
    with pytest.raises(ReprError):
        compose_repr(NM, NM)
    with pytest.raises(ReprError):
        compose_repr(DM, DM)


def test_repr_semantics_exhaustive():
    # tag algebra matches the actual arithmetic for every pair mod 17
    m = make_modulus(17, 8, r_bits=5)
    enc = {NM: lambda x: x % m.q, SM: lambda x: sm_encode(x, m),
           DM: lambda x: dm_encode(x, m)}
    for ta in (NM, SM, DM):
        for tb in (NM, SM, DM):
            try:
                tout = compose_repr(ta, tb)
            except ReprError:
                continue
            for x in range(17):
                for y in range(17):
                    got = mont_mul(enc[ta](x), enc[tb](y), m)
                    assert got == enc[tout]((x * y) % m.q)


def test_basis_validation():
    mods = make_modulus_chain(8, 2, 7)
    b = RnsBasis(tuple(mods))
    assert len(b) == 2 and b.n == 8
    assert b.product == mods[0].q * mods[1].q
    with pytest.raises(ValueError):
        RnsBasis((mods[0], mods[0]))
    other = make_modulus_chain(16, 1, 7)[0]
    with pytest.raises(ValueError):
        RnsBasis((mods[0], other))


def test_make_modulus_rejections():
    with pytest.raises(ValueError):
        make_modulus(15, 8)
    # primes without a 2n-th root of unity are allowed but flagged
    assert not make_modulus(19, 8).ntt_ready
    with pytest.raises(ValueError):
        make_modulus(17, 12)
    with pytest.raises(ValueError):
        make_modulus(17, 8, r_bits=4)
    with pytest.raises(ValueError):
        make_modulus((1 << 60) + 33, 8)


def test_find_omega_rejects_q_not_1_mod_2n():
    from effact.rns import _find_omega
    assert pow(_find_omega(17, 8), 8, 17) == 16
    for q, n in ((19, 8), (17, 16), (97, 64)):
        with pytest.raises(ValueError):
            _find_omega(q, n)


def test_make_modulus_rejects_inexact_radix():
    # q*2^32 >= 2^63: the one-word REDC at R=2^32 would overflow
    q = 4294966769
    with pytest.raises(ValueError, match="radix"):
        make_modulus(q, 8, r_bits=32)
    for r_bits in (33, 40, 63, 65):
        with pytest.raises(ValueError, match="radix"):
            make_modulus(q, 8, r_bits=r_bits)
    assert make_modulus(q, 8, r_bits=64).r_bits == 64
    assert make_modulus(2147483647, 8, r_bits=32).r_bits == 32


def test_is_prime_matches_sympy():
    assert [n for n in range(-3, 30000) if is_prime(n)] == \
        [n for n in range(-3, 30000) if isprime(n)]
    rng = random.Random(11)
    for lo in (1 << 31, 1 << 40, 1 << 58):
        for n in range(lo - 2000, lo + 2000):
            assert is_prime(n) == isprime(n)
        for _ in range(500):
            n = rng.randrange(lo, 2 * lo)
            assert is_prime(n) == isprime(n)
    # strong pseudoprimes to several small bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(n) and not isprime(n)


def test_prev_prime_matches_sympy():
    from sympy import prevprime
    q = 1 << 54
    for _ in range(40):
        assert prev_prime(q) == prevprime(q)
        q = prev_prime(q)
    assert [prev_prime(n) for n in (3, 4, 8, 98)] == [2, 3, 7, 97]
    with pytest.raises(ValueError):
        prev_prime(2)
