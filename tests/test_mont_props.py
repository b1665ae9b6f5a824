"""Property tests: the uint64 Montgomery kernels against rns.mont_mul, and
the NTT against its direct sums.

Covers every radix class the kernels reduce: toy radices (r_bits 3-7),
R = 2^32 and R = 2^64, on random NTT-friendly primes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effact.poly import (
    BITREV,
    NTT,
    ContractError,
    _Kern,
    _kern,
    bconv,
    bitrev_perm,
    make_poly,
    ntt_fwd,
    ntt_inv,
)
from effact.rns import (
    RnsBasis,
    is_prime,
    make_modulus,
    make_modulus_chain,
    mont_mul,
)
from kernel_oracles import intt_direct, ntt_direct

# primes = 1 mod 4, each an NTT prime for n = 2
TOY_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113)


@st.composite
def ntt_moduli(draw):
    kind = draw(st.sampled_from(("toy", "r32", "r64")))
    if kind == "toy":
        q = draw(st.sampled_from(TOY_PRIMES))
        return make_modulus(q, 2, draw(st.integers(q.bit_length(), 7)))
    bits = draw(st.integers(20, 31) if kind == "r32" else st.integers(34, 59))
    two_n = 2 << draw(st.integers(0, 10))
    # first prime = 1 mod 2n at or below a random point in the bit range
    p = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    p -= (p - 1) % two_n
    while not is_prime(p):
        p -= two_n
    m = make_modulus(p, two_n // 2)
    assert m.r_bits == (32 if kind == "r32" else 64)
    return m


def words(m, size):
    return st.lists(st.integers(0, m.q - 1), min_size=size, max_size=size)


def expect(xs, ys, m):
    return [mont_mul(x, y, m) for x, y in zip(xs, ys)]


@settings(deadline=None)
@given(st.data())
def test_mmul_array_by_array(data):
    m = data.draw(ntt_moduli())
    size = data.draw(st.integers(1, 64))
    xs, ys = data.draw(words(m, size)), data.draw(words(m, size))
    got = _kern((m,)).mmul(np.array([xs], dtype=np.uint64),
                           np.array([ys], dtype=np.uint64))
    assert got.dtype == np.uint64
    assert [int(v) for v in got[0]] == expect(xs, ys, m)


@settings(deadline=None)
@given(st.data())
def test_mmul_array_by_scalar(data):
    m = data.draw(ntt_moduli())
    xs = data.draw(words(m, data.draw(st.integers(1, 64))))
    y = data.draw(st.integers(0, m.q - 1))
    got = _kern((m,)).mmul(np.array([xs], dtype=np.uint64), np.uint64(y))
    assert [int(v) for v in got[0]] == expect(xs, [y] * len(xs), m)


@settings(deadline=None)
@given(ntt_moduli())
def test_mmul_edge_words(m):
    edge = sorted({0, 1, m.q - 2, m.q - 1})
    xs = [x for x in edge for _ in edge]
    ys = edge * len(edge)
    got = _kern((m,)).mmul(np.array([xs], dtype=np.uint64),
                           np.array([ys], dtype=np.uint64))
    assert [int(v) for v in got[0]] == expect(xs, ys, m)


@pytest.mark.parametrize("n,bits,r_bits", [
    (2, 3, 3), (8, 5, 5), (8, 7, 7), (64, 30, None), (1024, 31, 32),
    (1024, 40, None), (16, 50, 64), (1024, 59, None), (256, 20, 64),
])
def test_twiddle_tables_match_pow(n, bits, r_bits):
    # pair i of the stage with g groups reads the power at bit-reversed
    # position g + i % g; the forward stages run g = 1 .. n/2, the
    # inverse ones g = n/2 .. 1
    m = make_modulus_chain(n, 1, bits, r_bits=r_bits)[0]
    k = _kern((m,))
    br = bitrev_perm(n)
    groups = [1 << s for s in range(n.bit_length() - 1)]
    for w, gs, stages in ((m.omega, groups, k.fwd_stages),
                          (m.omega_inv, groups[::-1], k.inv_stages)):
        assert len(stages) == len(gs)
        for g, (plain, shoup) in zip(gs, stages):
            assert plain.shape == shoup.shape == (1, n // 2)
            want = [pow(w, int(br[g + i % g]), m.q) for i in range(n // 2)]
            assert [int(v) for v in plain[0]] == want
            assert [int(v) for v in shoup[0]] == \
                [(v << 64) // m.q for v in want]
    assert int(k.ninv[0, 0]) == m.n_inv
    assert int(k.ninv_shoup[0, 0]) == (m.n_inv << 64) // m.q


def test_stage_tables_are_built_on_first_transform():
    # a kernel used only for elementwise products builds no stage table,
    # and each direction builds its own on its first transform
    basis = tuple(make_modulus_chain(64, 2, 30) + make_modulus_chain(64, 1, 45))
    k = _Kern(basis)
    a = np.array([[m.q - 1] * 64 for m in basis], dtype=np.uint64)
    k.madd(k.mmul(a, a), k.msub(a, a))
    assert not {"fwd_stages", "inv_stages"} & set(vars(k))
    k.ntt(a)
    assert "fwd_stages" in vars(k) and "inv_stages" not in vars(k)
    k.intt(a, True)
    assert "inv_stages" in vars(k)
    # a prime without a 2n-th root multiplies, but has no transform
    bare = _Kern((make_modulus(19, 8),))
    bare.mmul(np.ones((1, 8), dtype=np.uint64), np.uint64(3))
    for transform in (bare.ntt, lambda x: bare.intt(x, False)):
        with pytest.raises(ContractError, match="root of unity"):
            transform(np.ones((1, 8), dtype=np.uint64))


@settings(deadline=None)
@given(st.data())
def test_ntt_matches_direct_sums(data):
    # the lazy butterflies at every radix class, on random words and on
    # the words that drive them to their bounds: all q-1, and alternating
    # 0 and q-1
    m = data.draw(ntt_moduli().filter(lambda m: m.n <= 64))
    top = m.q - 1
    xs = data.draw(st.sampled_from(([top] * m.n,
                                    [top * (i % 2) for i in range(m.n)]))
                   | words(m, m.n))
    br = [int(b) for b in bitrev_perm(m.n)]
    fwd = ntt_direct(xs, m.q, m.omega)
    assert ntt_fwd(make_poly(m, xs)).to_ints() == [fwd[b] for b in br]
    # xs as bit-reversed evaluations: natural slot j sits at br[j]
    inv = intt_direct([xs[b] for b in br], m.q, m.omega)
    ev = make_poly(m, xs, domain=NTT, order=BITREV)
    assert ntt_inv(ev).to_ints() == inv
    assert ntt_inv(ev, defer_scale=True).to_ints() == \
        [m.n * v % m.q for v in inv]


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mixed_radix_basis_matches_mont_mul(data):
    # one basis, rows of both radix classes: a 30-bit prime (R = 2^32) and
    # a 45-bit prime (R = 2^64), in either order
    n = 64
    r32, r64 = make_modulus_chain(n, 2, 30), make_modulus_chain(n, 2, 45)
    basis = data.draw(st.permutations((r32[0], r64[0])))
    assert sorted(m.r_bits for m in basis) == [32, 64]
    xs = [data.draw(words(m, n)) for m in basis]
    ys = [data.draw(words(m, n)) for m in basis]
    k = _kern(basis)
    got = k.mmul(np.array(xs, dtype=np.uint64), np.array(ys, dtype=np.uint64))
    assert got.tolist() == [expect(x, y, m) for x, y, m in zip(xs, ys, basis)]
    # the transforms of the stacked rows equal each row's own transform
    a = np.array(xs, dtype=np.uint64)
    rows = [_kern((m,)) for m in basis]
    assert k.ntt(a).tolist() == [r.ntt(a[i:i + 1])[0].tolist()
                                 for i, r in enumerate(rows)]
    assert k.intt(a, False).tolist() == [
        r.intt(a[i:i + 1], False)[0].tolist() for i, r in enumerate(rows)]
    # fast base conversion into another mixed basis, against its formula
    # sum_j [x_j * qhat_j^-1 mod q_j] * qhat_j mod p_i
    src, dst = RnsBasis(tuple(basis)), RnsBasis((r64[1], r32[1]))
    qprod = src.product
    want = [[sum(x[c] * pow(qprod // m.q, -1, m.q) % m.q * (qprod // m.q)
                  for x, m in zip(xs, src)) % p.q for c in range(n)]
            for p in dst]
    got = bconv(make_poly(src, xs), dst)
    assert got.words.tolist() == want


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_mixed_radix_transforms_match_direct_sums(data):
    # several rows of both radix classes in one basis, in any order: two
    # 30-bit primes (R = 2^32) and two 45-bit primes (R = 2^64)
    n = 64
    primes = make_modulus_chain(n, 2, 30) + make_modulus_chain(n, 2, 45)
    basis = data.draw(st.permutations(primes))
    top = [[m.q - 1] * n for m in basis]
    xs = data.draw(st.just(top) | st.tuples(*(words(m, n) for m in basis)))
    a = np.array(xs, dtype=np.uint64)
    k = _kern(basis)
    br = [int(b) for b in bitrev_perm(n)]
    fwd = [ntt_direct(x, m.q, m.omega) for x, m in zip(xs, basis)]
    assert k.ntt(a).tolist() == [[f[b] for b in br] for f in fwd]
    # the rows as bit-reversed evaluations: natural slot j sits at br[j]
    inv = [intt_direct([x[b] for b in br], m.q, m.omega)
           for x, m in zip(xs, basis)]
    assert k.intt(a, False).tolist() == inv
    assert k.intt(a, True).tolist() == [[m.n * v % m.q for v in row]
                                         for row, m in zip(inv, basis)]
