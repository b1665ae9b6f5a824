import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effact import ckks
from effact.compiler import (
    HardwareDescription,
    compile_program,
    front_end,
    lower,
    peephole_merge,
    pre,
    schedule,
    unroll,
)
from effact import ir
from effact.ir import blank_image, execute_program, parse_ir
from effact.workloads import (
    WorkloadParams,
    ciphertext_into,
    ckks_params,
    gen_bootstrap_skeleton,
    gen_helr_iteration,
    gen_hoisted_rotations,
    gen_keyswitch,
    instruction_mix,
    keyswitch_image,
    mix_fractions,
    plaintexts_into,
    fullscale_params,
    _Builder,
    _emit_divide,
    _fill_keys,
)

WP = WorkloadParams(n=256, levels=3, dnum=2)


def keys():
    params = ckks_params(WP)
    return params, *ckks.keygen_small(params, seed=3, rot_steps=(1, 2))


def limbs_of(img, sym):
    return [v.to_ints() for v in img.dram[sym]]


def test_params_validation():
    with pytest.raises(ValueError):
        WorkloadParams(n=100)
    with pytest.raises(ValueError):
        WorkloadParams(levels=3, level=4)
    with pytest.raises(ValueError):
        WorkloadParams(levels=3, l_cts=2, l_evalmod=2)
    assert WorkloadParams(levels=4, dnum=2).alpha == 3
    assert fullscale_params().l_boot == 15
    with pytest.raises(ValueError):
        ckks_params(fullscale_params())


def test_keyswitch_matches_he_ops():
    params, sk, evk, _ = keys()
    ct = ckks.encrypt([0.25, -0.5, 0.125], params, sk, seed=11)
    d2 = ct.c1   # any NTT-domain component over the level basis
    ks0, ks1 = ckks.key_switch(d2, evk, params, WP.levels)

    src = parse_ir(gen_keyswitch(WP))
    machine = compile_program(gen_keyswitch(WP))
    img = keyswitch_image(src, WP, d2, evk)
    for prog in (src, machine):
        res = execute_program(prog, img.clone())
        assert limbs_of(res, "out0") == [l.to_ints() for l in ks0.limbs]
        assert limbs_of(res, "out1") == [l.to_ints() for l in ks1.limbs]


def rescale_text(wp: WorkloadParams, l: int) -> str:
    """ct0/ct1 at level l, rescaled into out0/out1 by _emit_divide."""
    b = _Builder(wp)
    for sym in ("ct0", "ct1"):
        b.dram(sym, l + 1)
        b.dram("out" + sym[-1], l)
    keep, drop = [f"q{k}" for k in range(l)], [f"q{l}"]
    for sym, out in (("ct0", "out0"), ("ct1", "out1")):
        comp = [b.load(sym, k) for k in range(l + 1)]
        for k, reg in enumerate(_emit_divide(b, comp, keep, drop)):
            b.store(reg, out, k)
    return b.text()


def test_rescale_matches_he_ops():
    params, sk, _, _ = keys()
    for l in (WP.levels, 1):
        ct = ckks.encrypt([0.25, -0.5, 0.125], params, sk, seed=15, level=l)
        want = ckks.rescale(ct, params)
        text = rescale_text(WP, l)
        src = parse_ir(text)
        img = ciphertext_into(blank_image(src), ct)
        for prog in (src, compile_program(text)):
            res = execute_program(prog, img.clone())
            assert limbs_of(res, "out0") == [x.to_ints() for x in want.c0.limbs]
            assert limbs_of(res, "out1") == [x.to_ints() for x in want.c1.limbs]


# differential tests: source and compiled programs against ckks at drawn
# desk points (n = 256)

DIFFERENTIAL = settings(derandomize=True, max_examples=12, deadline=None)


@st.composite
def desk_points(draw, min_level=0):
    levels = draw(st.integers(2, 5), label="levels")
    dnum = draw(st.sampled_from((2, 4)), label="dnum")
    level = draw(st.integers(min_level, levels), label="level")
    return WorkloadParams(n=256, levels=levels, dnum=dnum, level=level)


@functools.lru_cache(maxsize=None)
def keys_at(levels: int, dnum: int, step: int | None = None):
    params = ckks_params(WorkloadParams(n=256, levels=levels, dnum=dnum))
    steps = () if step is None else (step,)
    return params, *ckks.keygen_small(params, seed=3, rot_steps=steps)


def encrypted(wp, sk, params, seed):
    return ckks.encrypt([0.25, -0.5, 0.125], params, sk, seed=seed,
                        level=wp.l)


@DIFFERENTIAL
@given(desk_points())
def test_keyswitch_programs_match_he_ops_at_drawn_points(wp):
    params, sk, evk, _ = keys_at(wp.levels, wp.dnum)
    d2 = encrypted(wp, sk, params, 16).c1
    ks0, ks1 = ckks.key_switch(d2, evk, params, wp.l)
    text = gen_keyswitch(wp)
    img = keyswitch_image(parse_ir(text), wp, d2, evk)
    for prog in (parse_ir(text), compile_program(text)):
        res = execute_program(prog, img)
        assert limbs_of(res, "out0") == [l.to_ints() for l in ks0.limbs]
        assert limbs_of(res, "out1") == [l.to_ints() for l in ks1.limbs]


@DIFFERENTIAL
@given(desk_points(min_level=1))
def test_rescale_programs_match_he_ops_at_drawn_points(wp):
    params, sk, _, _ = keys_at(wp.levels, wp.dnum)
    ct = encrypted(wp, sk, params, 17)
    want = ckks.rescale(ct, params)
    text = rescale_text(wp, wp.l)
    img = ciphertext_into(blank_image(parse_ir(text)), ct)
    for prog in (parse_ir(text), compile_program(text)):
        res = execute_program(prog, img)
        assert limbs_of(res, "out0") == [x.to_ints() for x in want.c0.limbs]
        assert limbs_of(res, "out1") == [x.to_ints() for x in want.c1.limbs]


@DIFFERENTIAL
@given(desk_points(), st.integers(1, 127))
def test_hoisted_rotation_decrypts_like_hrot_at_drawn_points(wp, s):
    params, sk, _, rot_keys = keys_at(wp.levels, wp.dnum, s)
    ct = encrypted(wp, sk, params, 18)
    want = ckks.decrypt(ckks.hrot(ct, s, rot_keys, params), sk, params)
    text = gen_hoisted_rotations(wp, steps=(s,))
    img = ciphertext_into(blank_image(parse_ir(text)), ct)
    _fill_keys(img, wp, rot_keys[s], f"rkb{s}_", f"rka{s}_")
    for prog in (parse_ir(text), compile_program(text)):
        res = execute_program(prog, img)
        got = ckks.Ciphertext(
            ckks.RnsPoly(ct.c0.basis, tuple(res.dram[f"rot{s}c0"])),
            ckks.RnsPoly(ct.c0.basis, tuple(res.dram[f"rot{s}c1"])),
            wp.l, ct.scale)
        assert np.allclose(ckks.decrypt(got, sk, params), want, atol=1e-4)


def test_keyswitch_structure():
    src = parse_ir(gen_keyswitch(WP))
    raises = [i for i in src.instrs
              if i.op == "bconv" and "p0" in i.meta["dst_mods"]]
    assert len(raises) == WP.dnum          # one raise pipeline per digit
    low = lower(unroll(parse_ir(gen_keyswitch(WP))))
    mix = instruction_mix(low)
    K = WP.levels + 1 + len(ckks_params(WP).pchain)
    # dnum raises of K transforms each, plus two mod-down components
    assert mix["NTT"] == (WP.dnum + 2) * K
    assert sum(mix.values()) == len(low.instrs)


def test_hoisted_rotations_share_decomposition():
    src = parse_ir(gen_hoisted_rotations(WP, steps=(1, 2)))
    raises = [i for i in src.instrs
              if i.op == "bconv" and "p0" in i.meta["dst_mods"]]
    # one decomposition total, not one per rotation step
    assert len(raises) == WP.dnum
    autos = [i for i in src.instrs if i.op == "auto"]
    assert len(autos) >= 2 * (WP.levels + 1)


def test_hoisted_rotations_match_rotation_oracle():
    params, sk, evk, rot_keys = keys()
    vals = [0.5, 0.25, -0.75, 0.125]
    ct = ckks.encrypt(vals, params, sk, seed=12)
    text = gen_hoisted_rotations(WP, steps=(1, 2))
    prog = parse_ir(text)
    img = ciphertext_into(blank_image(prog), ct)
    for s in (1, 2):
        _fill_keys(img, WP, rot_keys[s], f"rkb{s}_", f"rka{s}_")
    res = execute_program(compile_program(text), img)
    basis = params.basis(WP.levels)
    for s in (1, 2):
        got = ckks.Ciphertext(
            ckks.RnsPoly(basis, tuple(res.dram[f"rot{s}c0"])),
            ckks.RnsPoly(basis, tuple(res.dram[f"rot{s}c1"])),
            WP.levels, ct.scale)
        want = ckks.hrot(ct, s, rot_keys, params)
        dg = ckks.decrypt(got, sk, params)
        dw = ckks.decrypt(want, sk, params)
        assert np.allclose(dg, dw, atol=1e-4)
        assert np.allclose(dg[:len(vals)].real[:2], dw[:len(vals)].real[:2])


def test_helr_is_mac_dominated():
    text = gen_helr_iteration(WP, batch=6)
    low = lower(unroll(parse_ir(text)))
    plain_mults = instruction_mix(low)["MULT"]
    fused = peephole_merge(low)
    macs = sum(1 for i in fused.instrs if i.op == "mac")
    assert macs > 0.5 * plain_mults


def test_helr_compiles_and_executes():
    params, sk, evk, rot_keys = keys()
    text = gen_helr_iteration(WP, batch=3)
    src = parse_ir(text)
    ct = ckks.encrypt([0.1, 0.2], params, sk, seed=13)
    img = ciphertext_into(blank_image(src), ct)
    plaintexts_into(img, WP, rows=3)
    _fill_keys(img, WP, rot_keys[1], "rkb1_", "rka1_")
    ref = execute_program(src, img.clone())
    got = execute_program(compile_program(text), img.clone())
    assert limbs_of(got, "acc0") == limbs_of(ref, "acc0")
    assert limbs_of(got, "acc1") == limbs_of(ref, "acc1")


def test_mix_partition_and_pass_invariance():
    low = lower(unroll(parse_ir(gen_keyswitch(WP))))
    mix = instruction_mix(low)
    assert sum(mix.values()) == len(low.instrs)
    sched = schedule(low, HardwareDescription())
    assert instruction_mix(sched) == mix
    fr = mix_fractions(mix)
    assert abs(sum(fr.values()) - 1.0) < 1e-12
    # compilation may only add spill traffic, never compute
    machine = compile_program(gen_keyswitch(WP))
    mmix = instruction_mix(machine)
    for cat in ("NTT", "AUTO"):
        assert mmix[cat] == mix[cat]


@pytest.mark.parametrize("wp,gen", [
    (WorkloadParams(n=2 ** 16, levels=12, dnum=4, l_cts=2, l_evalmod=4,
                    l_stc=2), gen_bootstrap_skeleton),
    (WorkloadParams(n=2 ** 16, levels=24, dnum=4), gen_keyswitch),
    (WorkloadParams(n=1024, levels=4, dnum=2), gen_keyswitch),
], ids=["l12_boot", "l24_ks", "desk_ks"])
def test_a_mac_counts_as_a_multiply_and_an_add(wp, gen):
    # peephole_merge fuses multiplies and adds into macs, and the mix of
    # what it returns is the mix of what `pre` gave it
    text = gen(wp)
    front = front_end(text)
    assert any(i.op == "mac" for i in front.instrs)
    mix = instruction_mix(front)
    assert mix == instruction_mix(pre(lower(unroll(parse_ir(text)))))
    if gen is gen_bootstrap_skeleton:
        assert mix == {"MULT": 1964, "ADD": 5475, "BC_MULT": 2020,
                       "BC_ADD": 1236, "NTT": 784, "AUTO": 392,
                       "LOAD/STORE": 185, "OTHERS": 0}


def test_bootstrap_skeleton_desk_scale_executes():
    wp = WorkloadParams(n=256, levels=3, dnum=2,
                        l_cts=1, l_evalmod=1, l_stc=1)
    params, sk, evk, _ = keys()
    text = gen_bootstrap_skeleton(wp)
    src = parse_ir(text)
    ct = ckks.encrypt([0.3, -0.1], params, sk, seed=14)
    img = ciphertext_into(blank_image(src), ct)
    plaintexts_into(img, wp)
    _fill_keys(img, wp, evk, "ekb", "eka")
    res = execute_program(src, img)
    lvl_end = wp.levels - wp.l_boot
    for k in range(lvl_end + 1):
        assert res.dram["ct0"][k] is not None
        assert res.dram["ct1"][k] is not None


def test_bootstrap_mix_full_scale():
    wp = fullscale_params()
    low = lower(unroll(parse_ir(gen_bootstrap_skeleton(wp))))
    fr = mix_fractions(instruction_mix(low))
    ma = fr["MULT"] + fr["ADD"] + fr["BC_MULT"] + fr["BC_ADD"]
    assert 0.859 <= ma <= 0.959
    assert 0.035 <= fr["NTT"] <= 0.095
    bc_share = fr["BC_MULT"] / (fr["MULT"] + fr["BC_MULT"])
    assert abs(bc_share - 0.527) <= 0.05


def test_generator_argument_errors():
    with pytest.raises(ValueError):
        gen_hoisted_rotations(WP, steps=())
    with pytest.raises(ValueError):
        gen_bootstrap_skeleton(WP)   # no level budget
    for batch in (0, -1):
        with pytest.raises(ValueError, match="HELR batch"):
            gen_helr_iteration(WP, batch=batch)


# ---------------------------------------------------------------------------
# the batched executor against in-order execution

def in_order(prog, img):
    """execute_program without its waves: one `_step` per walked
    instruction, in program order."""
    out, env = ir._image_for(prog, img), {}
    for i in ir.walk(prog):
        ir._step(prog, i, env, out)
    return out


def image_words(img):
    return {sym: [None if v is None else
                  ([m.q for m in v.basis], v.words.tolist(), v.domain,
                   v.order, v.repr, v.scale_deferred) for v in space]
            for sym, space in img.dram.items()}


def assert_batched_is_in_order(prog, img):
    want = image_words(in_order(prog, img))
    # the waves themselves, which execute_program would replay on an error
    assert image_words(ir._run_waves(prog, ir._image_for(prog, img))) == want
    assert image_words(execute_program(prog, img)) == want


def golden_cases():
    """The generators of the golden programs at desk scale, each with an
    image that it runs on."""
    params, sk, evk, rot_keys = keys()
    ct = ckks.encrypt([0.3, -0.1], params, sk, seed=14)

    def ct_image(text, keys=()):
        img = ciphertext_into(blank_image(parse_ir(text)), ct)
        for key, b, a in keys:
            _fill_keys(img, WP, key, b, a)
        return img

    ks = gen_keyswitch(WP)
    yield ks, keyswitch_image(parse_ir(ks), WP, ct.c1, evk)
    hoisted = gen_hoisted_rotations(WP, steps=(1, 2))
    yield hoisted, ct_image(hoisted, [(rot_keys[s], f"rkb{s}_", f"rka{s}_")
                                      for s in (1, 2)])
    helr = gen_helr_iteration(WP, batch=3)
    img = ct_image(helr, [(rot_keys[1], "rkb1_", "rka1_")])
    plaintexts_into(img, WP, rows=3)
    yield helr, img
    boot_wp = WorkloadParams(n=256, levels=3, dnum=2,
                             l_cts=1, l_evalmod=1, l_stc=1)
    boot = gen_bootstrap_skeleton(boot_wp)
    img = ct_image(boot, [(evk, "ekb", "eka")])
    plaintexts_into(img, boot_wp)
    yield boot, img
    wp4 = WorkloadParams(n=256, levels=3, dnum=4)
    params4, sk4, evk4, _ = keys_at(3, 4)
    d2 = ckks.encrypt([0.5], params4, sk4, seed=15).c1
    ks4 = gen_keyswitch(wp4)
    yield ks4, keyswitch_image(parse_ir(ks4), wp4, d2, evk4)


def test_batched_execution_is_in_order_execution_on_golden_programs():
    for text, img in golden_cases():
        for prog in (parse_ir(text), compile_program(text)):
            assert_batched_is_in_order(prog, img)


# the most kernel calls that the source form of each golden program may
# make, in the order of `golden_cases`
SOURCE_KERNEL_CALLS = (11, 16, 17, 873, 13)


def test_batched_execution_makes_no_more_kernel_calls(monkeypatch):
    calls = []
    kernel = ir._kernel
    monkeypatch.setattr(ir, "_kernel",
                        lambda *args: calls.append(1) or kernel(*args))

    def count(prog, img):
        calls.clear()
        ir._run_waves(prog, ir._image_for(prog, img))
        return len(calls)

    for (text, img), most in zip(golden_cases(), SOURCE_KERNEL_CALLS,
                                 strict=True):
        assert count(parse_ir(text), img) <= most
    # the compiled desk key switch, as the benchmark's he_desk runs it
    desk = WorkloadParams(n=1024, levels=4, dnum=2)
    params = ckks_params(desk)
    sk, evk, _ = ckks.keygen_small(params, seed=3)
    d2 = ckks.encrypt([0.5], params, sk, seed=15).c1
    text = gen_keyswitch(desk)
    prog = compile_program(text)
    assert len(ir._waves(prog)) == 18
    assert count(prog, keyswitch_image(parse_ir(text), desk, d2, evk)) == 21


def test_batched_execution_is_in_order_execution_on_random_programs():
    from test_compiler import HW, random_image, random_program
    for seed in range(60):
        rng = random.Random(seed)
        prog = random_program(rng)
        img = random_image(prog, rng)
        for p in (prog, compile_program(prog, HW)):
            assert_batched_is_in_order(p, img)


# reads and writes of the same cells, by loads, stores and the streamed
# operands and results of kernels, whose order the waves must keep
ADDRESS_ORDER = """\
r0 = load @x[0]
r1 = load @x[1]
@y[0] = mmul r0, r1, q0
r2 = mmad @y[0], r0, q0
r3 = mmul @x[2], r2, q0
@x[2] = mmad r0, r1, q0
@y[1] = mmul r2, r2, q0
@y[1] = mmad r0, r1, q0
store r3, @y[2]
r4 = load @x[2]
store r4, @x[0]
r5 = mac r4, @x[0], r1, q0
@y[3] = mmul r5, r5, q0
"""


def test_batched_execution_keeps_the_order_of_each_address():
    from test_compiler import header, random_image
    prog = parse_ir(header() + ADDRESS_ORDER)
    for seed in range(3):
        assert_batched_is_in_order(prog, random_image(prog,
                                                      random.Random(seed)))


# each program fails twice: (its body, the failure first in program order,
# the failure that the dependence waves reach first: an instruction of an
# earlier wave, an operand read before the kernel calls of its wave, or a
# register read before any write)
FAILING = {
    "read before write": (
        "%c = mmul %a, @y[1], q0\n%e = ntt @x[5], q1\n",
        "@y[1] read before write",
        "forward NTT expects natural coefficient order"),
    "register written after its read": (
        "%c = mmad %a, %a, q0\nr1 = mmul r0, %c, q0\nr0 = load @x[1]\n",
        "register r0 read before write", "register r0 read before write"),
    "modulus mismatch": (
        "%c = mmad %a, %b, q0\n%e = ntt @x[5], q1\n",
        "mmad: operand modulus 193 != 97",
        "forward NTT expects natural coefficient order"),
    "ntt of ntt-domain words": (
        "%c = ntt %a, q0\nr1 = mmul r0, r0, q0\n",
        "forward NTT expects natural coefficient order",
        "register r0 read before write"),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_batched_execution_fails_as_in_order_execution(case):
    from test_compiler import header, random_image
    body, msg, first = FAILING[case]
    prog = parse_ir(header() + "%a = load @x[0]\n%b = load @x[4]\n" + body
                    + "store %c, @y[0]\n")
    img = random_image(prog, random.Random(0))
    errors = []
    for run in (in_order, execute_program):
        with pytest.raises(Exception) as e:
            run(prog, img)
        errors.append((type(e.value), str(e.value),
                       getattr(e.value, "line", None)))
    assert errors[0] == errors[1] and msg in errors[0][1]
    with pytest.raises(Exception, match=first):
        ir._run_waves(prog, ir._image_for(prog, img))
