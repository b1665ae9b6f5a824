import random

import numpy as np
import pytest

from effact.poly import (
    BITREV,
    COEF,
    DM,
    NATURAL,
    NM,
    NTT,
    SM,
    ContractError,
    RnsPoly,
    Word,
    automorphism_apply,
    automorphism_map,
    automorphism_ntt,
    automorphism_ntt_perm,
    bconv,
    bconv_merged,
    bit_rev,
    bitrev_perm,
    from_sm,
    mac_fused,
    make_bconv_tables,
    make_poly,
    negacyclic_mul,
    ntt_fwd,
    ntt_inv,
    to_sm,
    vec_madd,
    vec_mmul,
    vec_msub,
    vec_neg,
    zero_poly,
)
from effact.rns import (
    RnsBasis,
    dm_encode,
    make_modulus,
    make_modulus_chain,
    sm_encode,
)

from kernel_oracles import (
    crt_reconstruct,
    intt_direct,
    ntt_direct,
    schoolbook_negacyclic,
    substitute_power,
)
from network_models import automorphism_row_map, transpose_fixed_network


def mod(q, n, r_bits=None):
    return make_modulus(q, n, r_bits)


def rand_poly(m, rng, **kw):
    return make_poly(m, [rng.randrange(m.q) for _ in range(m.n)], **kw)


# ---------------------------------------------------------------------------
# elementwise ops

def test_vec_mmul_plain_values():
    m = mod(7, 8)
    a = make_poly(m, [1, 2, 3, 0, 0, 0, 0, 0])
    b = make_poly(m, [dm_encode(v, m) for v in [4, 5, 6, 0, 0, 0, 0, 0]],
                  repr=DM)
    # NM * DM -> SM holds exact products
    out = from_sm(vec_mmul(a, b))
    assert out.to_ints()[:3] == [4, 3, 4]


def test_vec_mmul_scalar_identities():
    m = mod(17, 8, r_bits=5)
    rng = random.Random(1)
    a = rand_poly(m, rng, repr=SM)
    assert vec_mmul(a, Word(0, NM)).to_ints() == [0] * 8
    one = Word(sm_encode(1, m), SM)
    assert vec_mmul(a, one).to_ints() == a.to_ints()


def test_vec_mmul_structural_errors():
    a = make_poly(mod(17, 8, r_bits=5), [1] * 8)
    b = make_poly(mod(97, 8), [1] * 8)
    with pytest.raises(ValueError):
        vec_mmul(a, b)
    with pytest.raises(ContractError):
        vec_mmul(a, make_poly(mod(17, 8, r_bits=5), [1] * 8, domain=NTT,
                              order=BITREV))


def test_vec_madd():
    m = mod(7, 8)
    a = make_poly(m, [5, 6] + [0] * 6)
    b = make_poly(m, [4, 3] + [0] * 6)
    assert vec_madd(a, b).to_ints()[:2] == [2, 2]
    assert vec_madd(a, 0).to_ints() == a.to_ints()
    assert vec_madd(a, vec_neg(a)).to_ints() == [0] * 8
    assert vec_msub(a, a).to_ints() == [0] * 8
    with pytest.raises(ContractError):
        vec_madd(a, make_poly(m, a.coeffs, repr=SM))


def test_mont_tag_tracking():
    m = mod(97, 8)
    rng = random.Random(2)
    x, y = rand_poly(m, rng), rand_poly(m, rng)
    prod = vec_mmul(to_sm(x), to_sm(y))
    assert prod.repr == SM
    expect = [(a * b) % 97 for a, b in zip(x.to_ints(), y.to_ints())]
    assert from_sm(prod).to_ints() == expect


def test_mac_fused_matches_composition():
    m = mod(97, 256)
    rng = random.Random(3)
    acc, a, b = (rand_poly(m, rng, repr=SM) for _ in range(3))
    fused = mac_fused(acc, a, b)
    two = vec_madd(acc, vec_mmul(a, b))
    assert fused.to_ints() == two.to_ints()
    zero = zero_poly(m, repr=SM)
    assert mac_fused(zero, a, b).to_ints() == vec_mmul(a, b).to_ints()
    assert mac_fused(acc, a, zero).to_ints() == acc.to_ints()


# ---------------------------------------------------------------------------
# NTT

def test_ntt_small_direct():
    m = mod(5, 2, r_bits=3)
    a = make_poly(m, [1, 2])
    got = ntt_fwd(a)
    assert got.domain == NTT and got.order == BITREV
    ref = ntt_direct([1, 2], 5, m.omega)
    br = bitrev_perm(2)
    assert got.to_ints() == [ref[br[i]] for i in range(2)]


def test_ntt_matches_direct_sum():
    for n in (8, 16):
        m = make_modulus_chain(n, 1, 20)[0]
        rng = random.Random(n)
        a = rand_poly(m, rng)
        got = ntt_fwd(a).to_ints()
        ref = ntt_direct(a.to_ints(), m.q, m.omega)
        br = bitrev_perm(n)
        assert got == [ref[int(br[i])] for i in range(n)]
        back = intt_direct(ref, m.q, m.omega)
        assert back == a.to_ints()


def test_ntt_round_trip_and_zero():
    m = make_modulus_chain(256, 1, 30)[0]
    rng = random.Random(4)
    a = rand_poly(m, rng, repr=SM)
    assert ntt_inv(ntt_fwd(a)).to_ints() == a.to_ints()
    z = zero_poly(m)
    assert ntt_fwd(z).to_ints() == [0] * 256
    assert ntt_inv(ntt_fwd(z)).to_ints() == [0] * 256
    assert ntt_inv(ntt_fwd(z), defer_scale=True).to_ints() == [0] * 256


def test_ntt_linearity_and_convolution():
    rng = random.Random(5)
    for n in (8, 256):
        m = make_modulus_chain(n, 1, 30)[0]
        for _ in range(20):
            a, b = rand_poly(m, rng), rand_poly(m, rng)
            fa, fb = ntt_fwd(a), ntt_fwd(b)
            s = ntt_fwd(vec_madd(a, b))
            assert s.to_ints() == vec_madd(fa, fb).to_ints()
            prod = negacyclic_mul(a, b)
            assert prod.to_ints() == schoolbook_negacyclic(
                a.to_ints(), b.to_ints(), m.q)


def test_ntt_big_modulus_path():
    # q >= 2^31 exercises the big-integer fallback
    m = make_modulus_chain(64, 1, 45)[0]
    rng = random.Random(6)
    a, b = rand_poly(m, rng), rand_poly(m, rng)
    assert ntt_inv(ntt_fwd(a)).to_ints() == a.to_ints()
    assert negacyclic_mul(a, b).to_ints() == schoolbook_negacyclic(
        a.to_ints(), b.to_ints(), m.q)


def test_ntt_defer_scale():
    m = make_modulus_chain(64, 1, 30)[0]
    rng = random.Random(7)
    a = ntt_fwd(rand_poly(m, rng, repr=SM))
    deferred = ntt_inv(a, defer_scale=True)
    assert deferred.scale_deferred
    exact = ntt_inv(a)
    assert deferred.to_ints() == [(x * m.n) % m.q for x in exact.to_ints()]
    # deferred output is poisoned for everything except merged bconv
    with pytest.raises(ContractError):
        vec_madd(deferred, deferred)
    with pytest.raises(ContractError):
        ntt_fwd(deferred)


def test_ntt_contract_errors():
    m = mod(97, 8)
    a = make_poly(m, [0] * 8, domain=NTT, order=BITREV)
    with pytest.raises(ContractError):
        ntt_fwd(a)
    with pytest.raises(ContractError):
        ntt_inv(make_poly(m, [0] * 8))


def test_negacyclic_small_and_identities():
    m = mod(5, 2, r_bits=3)
    a = make_poly(m, [1, 2])
    b = make_poly(m, [3, 0])
    assert negacyclic_mul(a, b).to_ints() == [3, 1]
    n = 16
    m = make_modulus_chain(n, 1, 20)[0]
    rng = random.Random(8)
    a = rand_poly(m, rng)
    unit = make_poly(m, [1] + [0] * (n - 1))
    assert negacyclic_mul(a, unit).to_ints() == a.to_ints()
    xh = make_poly(m, [0] * (n // 2) + [1] + [0] * (n // 2 - 1))
    twice = negacyclic_mul(negacyclic_mul(a, xh), xh)
    assert twice.to_ints() == vec_neg(a).to_ints()


# ---------------------------------------------------------------------------
# base conversion

def small_bases():
    c = RnsBasis((mod(5, 2, r_bits=3), mod(7, 2, r_bits=3)))
    b = RnsBasis((mod(11, 2, r_bits=4),))
    return c, b


def test_bconv_small_examples():
    c, b = small_bases()
    a = RnsPoly(c, (make_poly(c[0], [2, 0]), make_poly(c[1], [5, 0])))
    out = bconv(a, b)
    assert out.limbs[0].to_ints() == [1, 0]  # 12 mod 11
    z = RnsPoly(c, (zero_poly(c[0]), zero_poly(c[1])))
    assert bconv(z, b).limbs[0].to_ints() == [0, 0]
    one = RnsPoly(c, (make_poly(c[0], [1, 0]), make_poly(c[1], [1, 0])))
    # fast-sum for value 1 is 1 + 35 = 36; the overshoot shows up mod 11
    assert bconv(one, b).limbs[0].to_ints()[0] == 3


def test_bconv_overshoot_bound():
    rng = random.Random(9)
    n = 16
    c = RnsBasis(tuple(make_modulus_chain(n, 3, 20)))
    b = RnsBasis(tuple(make_modulus_chain(n, 2, 21)))
    qprod = c.product
    for _ in range(50):
        limbs = tuple(rand_poly(m, rng) for m in c)
        a = RnsPoly(c, limbs)
        out = bconv(a, b)
        for pos in range(n):
            val = crt_reconstruct([p.to_ints()[pos] for p in a.limbs],
                                  [m.q for m in c])
            for bi, mb in enumerate(b):
                got = out.limbs[bi].to_ints()[pos]
                e = (got - val) * pow(qprod, -1, mb.q) % mb.q
                assert 0 <= e <= len(c) - 1


def test_bconv_sums_many_source_limbs_exactly():
    # 80 sources into 59-bit primes: a row's 80 stage-2 terms, each below
    # its prime, overflow one word
    rng = random.Random(11)
    n = 8
    c = RnsBasis(tuple(make_modulus_chain(n, 80, 50)))
    b = RnsBasis(tuple(make_modulus_chain(n, 2, 59)))
    a = RnsPoly(c, tuple(rand_poly(m, rng) for m in c))
    out = bconv(a, b)
    qhat = [c.product // m.q for m in c]
    t = [[x * pow(h, -1, m.q) % m.q for x in limb.to_ints()]
         for limb, h, m in zip(a.limbs, qhat, c)]
    for limb, p in zip(out.limbs, b):
        assert limb.to_ints() == [
            sum(tj[pos] * h for tj, h in zip(t, qhat)) % p.q
            for pos in range(n)]


def test_bconv_rejects_overlap_and_bad_input():
    c, b = small_bases()
    with pytest.raises(ValueError):
        make_bconv_tables(c, c)
    a = RnsPoly(c, (make_poly(c[0], [1, 0], repr=SM),
                    make_poly(c[1], [1, 0], repr=SM)))
    with pytest.raises(ContractError):
        bconv(a, b)


def test_bconv_table_invariants_are_explicit_errors(monkeypatch):
    import effact.poly as poly_mod
    c, b = small_bases()
    for name in ("sm_encode", "dm_encode"):
        with monkeypatch.context() as mp:
            mp.setattr(poly_mod, name, lambda x, m: (x + 1) % m.q)
            make_bconv_tables.cache_clear()     # build, do not look up
            with pytest.raises(RuntimeError):
                make_bconv_tables(c, b)


def ntt_ready_bases():
    # n=2 needs primes congruent to 1 mod 4
    c = RnsBasis((mod(5, 2, r_bits=3), mod(13, 2, r_bits=4)))
    b = RnsBasis((mod(17, 2, r_bits=5),))
    return c, b


def merged_oracle(a_ntt, tables):
    """Unmerged pipeline: exact iNTT, decode, convert, re-encode."""
    out = bconv(from_sm(ntt_inv(a_ntt)), tables.dst, tables)
    return to_sm(out)


def test_bconv_merged_small():
    c, b = ntt_ready_bases()
    tables = make_bconv_tables(c, b)
    rng = random.Random(10)
    for _ in range(30):
        limbs = tuple(ntt_fwd(rand_poly(m, rng, repr=SM)) for m in c)
        a = RnsPoly(c, limbs)
        deferred = ntt_inv(a, defer_scale=True)
        got = bconv_merged(deferred, tables)
        ref = merged_oracle(a, tables)
        for g, r in zip(got.limbs, ref.limbs):
            assert g.to_ints() == r.to_ints()
            assert g.repr == SM and not g.scale_deferred
    z = RnsPoly(c, tuple(
        ntt_inv(ntt_fwd(zero_poly(m, repr=SM)), defer_scale=True) for m in c))
    for limb in bconv_merged(z, tables).limbs:
        assert limb.to_ints() == [0, 0]


def test_bconv_merged_contract():
    c, b = small_bases()
    tables = make_bconv_tables(c, b)
    a = RnsPoly(c, (make_poly(c[0], [1, 0], repr=SM),
                    make_poly(c[1], [1, 0], repr=SM)))
    with pytest.raises(ContractError):
        bconv_merged(a, tables)  # not scale-deferred


# ---------------------------------------------------------------------------
# automorphisms

def test_automorphism_map_examples():
    assert automorphism_map(0, 1, 16) == (0, 1)
    assert automorphism_map(3, 1, 16) == (15, 1)
    assert automorphism_map(4, 1, 16) == (4, -1)


def test_automorphism_apply_oracle():
    n = 16
    m = make_modulus_chain(n, 1, 20)[0]
    rng = random.Random(11)
    a = rand_poly(m, rng)
    assert automorphism_apply(a, 0).to_ints() == a.to_ints()
    x = make_poly(m, [0, 1] + [0] * (n - 2))
    got = automorphism_apply(x, 1)
    assert got.to_ints() == substitute_power(x.to_ints(), 1, m.q)
    for s in range(n // 2):
        got = automorphism_apply(a, s)
        assert got.to_ints() == substitute_power(a.to_ints(), s, m.q)
    s1, s2 = 3, 5
    composed = automorphism_apply(automorphism_apply(a, s1), s2)
    assert composed.to_ints() == automorphism_apply(a, s1 + s2).to_ints()


def test_automorphism_ntt_matches_round_trip():
    n = 256
    m = make_modulus_chain(n, 1, 30)[0]
    rng = random.Random(12)
    a = ntt_fwd(rand_poly(m, rng, repr=SM))
    assert automorphism_ntt(a, 0).to_ints() == a.to_ints()
    for s in range(n // 2):
        ref = ntt_fwd(automorphism_apply(ntt_inv(a), s))
        assert automorphism_ntt(a, s).to_ints() == ref.to_ints()


def test_automorphism_rows_stay_in_rows():
    n, lanes = 16, 4
    for s in range(n // 2):
        rows = automorphism_row_map(n, s, lanes)
        assert sorted(rows) == list(range(n // lanes))
    # positive control: the permutation itself is not row-diagonal in general
    perm = automorphism_ntt_perm(16, 1)
    assert any(int(perm[p]) // lanes != p // lanes for p in range(16))


# ---------------------------------------------------------------------------
# transpose

def transpose_oracle(flat_br, rows, cols):
    """Direct transpose of the equivalent natural-order matrix."""
    n = rows * cols
    bits = n.bit_length() - 1
    nat = [flat_br[bit_rev(i, bits)] for i in range(n)]
    return [[nat[r * cols + c] for r in range(rows)] for c in range(cols)]


def test_transpose_trivial_and_square():
    assert transpose_fixed_network(np.array([[42]]), 1).tolist() == [[42]]
    n, lanes = 16, 4
    rng = random.Random(13)
    flat = [rng.randrange(1000) for _ in range(n)]
    mat = np.array(flat).reshape(n // lanes, lanes)
    got = transpose_fixed_network(mat, lanes)
    assert got.tolist() == transpose_oracle(flat, n // lanes, lanes)


def test_transpose_pattern_uniformity():
    n, lanes = 64, 8
    rows = n // lanes
    flat = list(range(n))
    mat = np.array(flat).reshape(rows, lanes)
    got = transpose_fixed_network(mat, lanes)
    # row 0 reads block bit_rev(0)=0 with some index pattern; every other row
    # must use the same pattern on its own block
    pattern = [flat.index(v) for v in got[0]]
    base0 = min(pattern)
    offsets = [p - base0 for p in pattern]
    for c in range(lanes):
        base = bit_rev(c, 3) * rows
        assert got[c].tolist() == [flat[base + o] for o in offsets]


def test_transpose_nonsquare_and_rejects():
    n, lanes = 32, 4
    rng = random.Random(14)
    flat = [rng.randrange(1000) for _ in range(n)]
    mat = np.array(flat).reshape(n // lanes, lanes)
    got = transpose_fixed_network(mat, lanes)
    assert got.tolist() == transpose_oracle(flat, n // lanes, lanes)
    with pytest.raises(ValueError):
        transpose_fixed_network(np.zeros((3, 4)), 4)
    with pytest.raises(ValueError):
        transpose_fixed_network(np.zeros((4, 4)), 8)
