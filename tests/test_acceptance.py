"""End-to-end acceptance gate for the full stack.

Each test is one acceptance criterion: kernel exactness against independent
oracles, merged-pipeline equivalences, compiled-workload bit-exactness,
pass soundness over randomized corpora, count-based instruction-mix bands,
and simulator sanity.  Stated time budgets hold on a laptop-class machine.
"""

import itertools
import random
import time

import numpy as np
import pytest

from effact import ckks
from effact.compiler import (
    HardwareDescription,
    alloc_sram,
    compile_program,
    front_end,
    lower,
    merge_streaming,
    peephole_merge,
    pre,
    schedule,
    unroll,
)
from effact.ir import blank_image, execute_program, parse_ir
from effact.poly import (
    SM,
    automorphism_ntt,
    make_poly,
    ntt_fwd,
    ntt_inv,
)
from effact.rns import make_modulus_chain, sm_encode
from effact.sim import compare_streaming, simulate, sweep_sram
from effact.workloads import (
    WorkloadParams,
    ckks_params,
    gen_bootstrap_skeleton,
    gen_keyswitch,
    instruction_mix,
    keyswitch_image,
    mix_fractions,
    fullscale_params,
)

from kernel_oracles import bit_rev, schoolbook_negacyclic, substitute_power
from network_models import transpose_fixed_network
from test_compiler import max_liveness, random_image, random_program
from test_he_ops import decrypt_triple
from test_kernels import negacyclic_mul


# ---------------------------------------------------------------------------
# fast independent negacyclic oracle: exact float-FFT linear convolution.
# Coefficients (< 2^30) are split into 10-bit limbs so every limb-pair
# convolution stays below 2^32; float64 FFT rounding error is then far
# below 0.5 and rounding recovers the exact integer convolution.

_LIMB = 10  # bits per limb; 3 limbs cover any 30-bit coefficient


def _limb_split(v):
    a = np.asarray(v, dtype=np.uint64)
    mask = np.uint64((1 << _LIMB) - 1)
    return [((a >> np.uint64(_LIMB * i)) & mask).astype(np.float64)
            for i in range(3)]


def _fft_negacyclic(a, b, q) -> list[int]:
    n = len(a)
    m = 2 * n  # zero-padded length for a full linear convolution
    fa = [np.fft.rfft(x, m) for x in _limb_split(a)]
    fb = [np.fft.rfft(x, m) for x in _limb_split(b)]
    cols = np.zeros(m, dtype=np.uint64)
    qq = np.uint64(q)
    for s in range(5):  # diagonal sums of limb products, weight 2^(10s)
        acc = np.zeros(m // 2 + 1, dtype=np.complex128)
        for i in range(max(0, s - 2), min(3, s + 1)):
            acc += fa[i] * fb[s - i]
        part = np.fft.irfft(acc, m)
        exact = np.rint(part)
        assert np.max(np.abs(part - exact)) < 0.25
        w = np.uint64(pow(2, _LIMB * s, q))
        cols = (cols + (exact.astype(np.uint64) % qq) * w) % qq
    return [int(v) for v in (cols[:n] + qq - cols[n:]) % qq]


def test_negacyclic_vs_oracle_corpus():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for n in (8, 256, 4096):
        mods = make_modulus_chain(n, 3, 30)
        for trial in range(1000):
            m = mods[trial % 3]
            av = rng.integers(0, m.q, n).tolist()
            bv = rng.integers(0, m.q, n).tolist()
            got = negacyclic_mul(make_poly(m, av), make_poly(m, bv)).to_ints()
            assert got == _fft_negacyclic(av, bv, m.q)
            if n == 8:
                assert got == schoolbook_negacyclic(av, bv, m.q)
    assert time.time() - t0 < 30


def test_bconv_merged_equals_unmerged_corpus():
    from effact.poly import (RnsPoly, bconv, bconv_merged, from_sm,
                             make_bconv_tables, to_sm)
    from effact.rns import RnsBasis
    t0 = time.time()
    mods = make_modulus_chain(256, 6, 30)
    c = RnsBasis(tuple(mods[:4]))
    b = RnsBasis(tuple(mods[4:]))
    tables = make_bconv_tables(c, b)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        limbs = tuple(ntt_fwd(make_poly(m, rng.integers(0, m.q, 256).tolist(),
                                        repr=SM)) for m in c)
        a = RnsPoly(c, limbs)
        merged = bconv_merged(ntt_inv(a, defer_scale=True), tables)
        ref = to_sm(bconv(from_sm(ntt_inv(a)), tables.dst, tables))
        for g, r in zip(merged.limbs, ref.limbs):
            assert g.to_ints() == r.to_ints()
    assert time.time() - t0 < 10


def test_compiled_keyswitch_end_to_end():
    t0 = time.time()
    wp = WorkloadParams(n=1024, levels=4, dnum=2)
    params = ckks_params(wp)
    sk, evk, _ = ckks.keygen_small(params, seed=1)
    vals = [0.5, -0.25, 0.125, 0.0625]
    ca = ckks.encrypt(vals, params, sk, seed=2)
    cb = ckks.encrypt(vals, params, sk, seed=3)
    basis = params.basis(wp.levels)
    from effact.poly import RnsPoly, vec_madd, vec_mmul
    d0 = RnsPoly(basis, tuple(vec_mmul(x, y) for x, y
                              in zip(ca.c0.limbs, cb.c0.limbs)))
    d1 = RnsPoly(basis, tuple(
        vec_madd(vec_mmul(ca.c0.limbs[i], cb.c1.limbs[i]),
                 vec_mmul(ca.c1.limbs[i], cb.c0.limbs[i]))
        for i in range(len(basis))))
    d2 = RnsPoly(basis, tuple(vec_mmul(x, y) for x, y
                              in zip(ca.c1.limbs, cb.c1.limbs)))
    ks0, ks1 = ckks.key_switch(d2, evk, params, wp.levels)

    # compiled with every pass enabled, executed on the golden executor
    src = parse_ir(gen_keyswitch(wp))
    machine = compile_program(gen_keyswitch(wp))
    res = execute_program(machine, keyswitch_image(src, wp, d2, evk))
    assert [v.to_ints() for v in res.dram["out0"]] == \
        [l.to_ints() for l in ks0.limbs]
    assert [v.to_ints() for v in res.dram["out1"]] == \
        [l.to_ints() for l in ks1.limbs]

    # relinearized result decrypts like the (1, s, s^2) oracle
    scale = ca.scale * cb.scale
    c0 = RnsPoly(basis, tuple(vec_madd(x, y) for x, y
                              in zip(d0.limbs, ks0.limbs)))
    c1 = RnsPoly(basis, tuple(vec_madd(x, y) for x, y
                              in zip(d1.limbs, ks1.limbs)))
    got = ckks.decrypt(ckks.Ciphertext(c0, c1, wp.levels, scale), sk, params)
    want = decrypt_triple(d0, d1, d2, sk, params, scale)
    denom = max(np.max(np.abs(want)), 1e-9)
    assert np.max(np.abs(got - want)) / denom < 2 ** -15
    assert time.time() - t0 < 60


def test_automorphism_and_transpose_oracles():
    t0 = time.time()
    n = 1024
    m = make_modulus_chain(n, 1, 30)[0]
    rng = np.random.default_rng(5)
    coeffs = rng.integers(0, m.q, n).tolist()
    p = make_poly(m, coeffs, repr=SM)
    fa = ntt_fwd(p)
    for s in range(1, n // 2):
        got = automorphism_ntt(fa, s)
        ref = ntt_fwd(make_poly(m, substitute_power(coeffs, s, m.q), repr=SM))
        assert got.to_ints() == ref.to_ints()
    assert time.time() - t0 < 30

    for n2, lanes in itertools.product((16, 256), (4, 16)):
        rows = n2 // lanes
        flat = list(range(3, 3 + n2))
        got = transpose_fixed_network(np.array(flat).reshape(rows, lanes),
                                      lanes)
        bits = n2.bit_length() - 1
        nat = [flat[bit_rev(i, bits)] for i in range(n2)]
        ref = [[nat[r * lanes + c] for r in range(rows)]
               for c in range(lanes)]
        assert got.tolist() == ref


def _pipeline(prog, hw, flags):
    """Run an explicit pass pipeline; any subset of passes may be off.
    `unroll` folds the copies, so no pass has any to propagate."""
    p = lower(unroll(prog))
    if flags["pre"]:
        p = pre(p)
    if flags["peephole"]:
        p = peephole_merge(p)
    if flags["schedule"]:
        p = schedule(p, hw)
    if flags["streaming"]:
        p = merge_streaming(p, hw)
    if flags["alloc"]:
        p = alloc_sram(p, hw)
    return p


def test_pass_subsets_preserve_semantics():
    t0 = time.time()
    hw = HardwareDescription(slots=24, fifo_depth=4)
    names = ("pre", "peephole", "schedule", "streaming", "alloc")
    rng = random.Random(99)
    for case in range(200):
        prog = random_program(rng, size=14)
        img = random_image(prog, rng)
        ref = None
        for bits in itertools.product((False, True), repeat=5):
            flags = dict(zip(names, bits))
            p = _pipeline(prog, hw, flags)
            res = execute_program(p, img.clone())
            out = [None if v is None else v.to_ints() for v in res.dram["y"]]
            if ref is None:
                ref = out
            else:
                assert out == ref, f"case {case} flags {flags}"
    assert time.time() - t0 < 300


def _inject_duplicates(text: str) -> tuple[str, int]:
    """Duplicate every third pure multiply and keep the copy live."""
    lines = text.splitlines()
    out, dups = [], 0
    for ln in lines:
        out.append(ln)
        if " = mmul " in ln and dups < 400 and len(out) % 3 == 0:
            dest, rest = ln.split(" = ", 1)
            out.append(f"%dup{dups} = {rest}")
            dups += 1
    header_end = max(i for i, ln in enumerate(out) if ln.startswith("."))
    out.insert(header_end + 1, f".dram dupout {dups}")
    for k in range(dups):
        out.append(f"store %dup{k}, @dupout[{k}]")
    return "\n".join(out) + "\n", dups


def test_pre_removes_injected_duplicates():
    wp = WorkloadParams(n=256, levels=3, dnum=2,
                        l_cts=1, l_evalmod=1, l_stc=1)
    text = gen_bootstrap_skeleton(wp)
    injected, dups = _inject_duplicates(text)
    assert dups > 50

    def cleaned(t):
        return pre(lower(unroll(parse_ir(t))))

    base = cleaned(text)
    got = cleaned(injected)
    # every injected clone is value-numbered away; only its store remains
    assert len(got.instrs) == len(base.instrs) + dups
    assert not any(str(d).startswith("%dup")
                   for i in got.instrs for d in i.dests)
    # natural redundancy on the untouched skeleton, reported not asserted
    low = lower(unroll(parse_ir(text)))
    frac = 1 - len(base.instrs) / len(low.instrs)
    print(f"\nnatural PRE elimination on desk-scale skeleton: {frac:.1%}")


def test_bootstrap_mix_bands():
    t0 = time.time()
    low = lower(unroll(parse_ir(gen_bootstrap_skeleton(fullscale_params()))))
    fr = mix_fractions(instruction_mix(low))
    ma = fr["MULT"] + fr["ADD"] + fr["BC_MULT"] + fr["BC_ADD"]
    assert abs(ma - 0.909) <= 0.05
    assert abs(fr["NTT"] - 0.065) <= 0.03
    assert time.time() - t0 < 60


def test_streaming_saves_traffic_and_cycles():
    wp = WorkloadParams(n=256, levels=3, dnum=2)
    text = gen_keyswitch(wp)
    base_hw = HardwareDescription(fifo_depth=8)
    opt = schedule(front_end(text), base_hw)
    slots = max(2, max_liveness(opt) // 2)
    hw = HardwareDescription(slots=slots, fifo_depth=8)
    cmp = compare_streaming(text, hw)
    assert cmp["streaming"].dram_bytes < cmp["baseline"].dram_bytes
    assert cmp["streaming"].cycles < cmp["baseline"].cycles
    print(f"\nstreaming at {slots} slots: "
          f"{1 - cmp['dram_bytes_ratio']:.1%} DRAM bytes saved, "
          f"{1 - cmp['cycles_ratio']:.1%} cycles saved "
          f"(full-scale reference points: 42.2% / 40%)")


def test_sram_sweep_shape():
    t0 = time.time()
    wp = WorkloadParams(n=256, levels=3, dnum=2)
    reports = sweep_sram(gen_keyswitch(wp), HardwareDescription(),
                         [8, 16, 32, 64, 128])
    cycles = [r.cycles for r in reports]
    utils = [r.fu_utilization for r in reports]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(utils, utils[1:]))
    assert time.time() - t0 < 300


def test_simulator_bounds_and_determinism():
    hw = HardwareDescription(slots=16, fifo_depth=4)
    rng = random.Random(41)
    wp = WorkloadParams(n=256, levels=3, dnum=2)
    programs = [compile_program(random_program(rng, size=20), hw)
                for _ in range(10)]
    programs.append(compile_program(gen_keyswitch(wp), hw))
    for p in programs:
        reps = [simulate(p, hw) for _ in range(5)]
        first = reps[0]
        assert first.cycles >= first.critical_path
        assert first.cycles * hw.dram_bw >= first.dram_bytes
        for r in reps[1:]:
            assert r.to_dict() == first.to_dict()
