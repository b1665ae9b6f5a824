import gc
import hashlib
import random
from dataclasses import FrozenInstanceError, fields, replace
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from effact import compiler
from effact.asm import assemble_text, check_machine_form
from effact.cli import _gen_random, main
from effact.compiler import (
    FU_OPS,
    HardwareDescription,
    _addr_key,
    _latency_schedule,
    _merge_bound,
    _sub_srcs,
    alloc_sram,
    back_end,
    back_ends,
    build_deps,
    compile_program,
    def_use,
    front_end,
    lower,
    max_liveness,
    merge_spill_traffic,
    merge_streaming,
    parse_hw,
    peephole_merge,
    pre,
    propagate,
    schedule,
    unroll,
)
from effact.ir import (FU_CLASS, Addr, ExecError, IrError, Program, Vreg,
                       blank_image, check_refs, execute_program, parse_ir,
                       print_program)
from effact.poly import (DM, NM, SM, ContractError, make_poly, ntt_fwd,
                         ntt_inv)
from effact.rns import ReprError, make_modulus, make_modulus_chain, sm_encode
from effact.sim import sweep_sram
from effact.workloads import (
    WorkloadParams,
    gen_bootstrap_skeleton,
    gen_helr_iteration,
    gen_hoisted_rotations,
    gen_keyswitch,
)

N = 16
HW = HardwareDescription(slots=8, fifo_depth=4)


def header(nmods=2, nx=8, ny=8):
    qs = [97, 193, 257, 449][:nmods]
    return (f".n {N}\n" + "".join(f".mod q{i} {q}\n" for i, q in enumerate(qs))
            + f".dram x {nx}\n.dram y {ny}\n")


def seeded_image(prog, rng, sym="x", count=None, mod=None, *, ntt=True):
    img = blank_image(prog)
    m = mod or make_modulus(97, N)
    count = count if count is not None else len(img.dram[sym])
    for k in range(count):
        p = make_poly(m, [rng.randrange(m.q) for _ in range(N)], repr=SM)
        img.dram[sym][k] = ntt_fwd(p) if ntt else p
    return img


def outputs(prog, img, sym="y"):
    res = execute_program(prog, img)
    return [None if v is None else v.to_ints() for v in res.dram[sym]]


def pred_sets(graph):
    """The predecessor sets of a `build_deps` graph (succs, npreds),
    checking that each successor list ascends without repeats and that
    npreds counts the predecessors."""
    succs, npreds = graph
    preds = [set() for _ in succs]
    for j, ss in enumerate(succs):
        assert ss == sorted(set(ss))
        for k in ss:
            preds[k].add(j)
    assert npreds == [len(ps) for ps in preds]
    return preds


def random_program(rng, nmods=2, size=24):
    """Straight-line vector program over NTT-domain SM inputs."""
    qs = ["q0", "q1"][:nmods]
    lines = []
    regs = {q: [] for q in qs}
    consts = []
    for q in qs:
        consts.append(f".const c{q} {q} {{val_{q}}} sm\n")
    for k in range(4):
        q = qs[k % len(qs)]
        lines.append(f"%l{k} = load @x[{k + (0 if q == 'q0' else 4)}]\n")
        regs[q].append(f"%l{k}")
    for k in range(size):
        q = rng.choice(qs)
        pool = regs[q]
        op = rng.choice(["mmul", "mmad", "mmul", "mac", "auto", "roundtrip",
                         "copy", "cmul"])
        d = f"%v{k}"
        if op == "mmul":
            a, b = rng.choice(pool), rng.choice(pool)
            lines.append(f"{d} = mmul {a}, {b}, {q}\n")
        elif op == "mmad":
            a, b = rng.choice(pool), rng.choice(pool)
            lines.append(f"{d} = mmad {a}, {b}, {q}\n")
        elif op == "mac":
            a, b, c = (rng.choice(pool) for _ in range(3))
            lines.append(f"{d} = mac {a}, {b}, {b}, {q}\n")
        elif op == "auto":
            lines.append(f"{d} = auto {rng.choice(pool)}, "
                         f"{rng.randrange(1, 4)}, {q}\n")
        elif op == "roundtrip":
            lines.append(f"%t{k} = intt {rng.choice(pool)}, {q}\n")
            lines.append(f"{d} = ntt %t{k}, {q}\n")
        elif op == "copy":
            lines.append(f"{d} = copy {rng.choice(pool)}\n")
        else:
            lines.append(f"{d} = mmul {rng.choice(pool)}, !c{q}, {q}\n")
        pool.append(d)
    for j, q in enumerate(qs):
        lines.append(f"store {regs[q][-1]}, @y[{j}]\n")
    text = header(nmods) + "".join(consts) + "".join(lines)
    qvals = {"q0": 97, "q1": 193}
    for q in qs:
        m = make_modulus(qvals[q], N)
        text = text.replace(f"{{val_{q}}}", str(sm_encode(rng.randrange(1, m.q), m)))
    return parse_ir(text)


def latency(hw, op, n=N):
    """The latency of opcode `op` in `hw.timing(n)`."""
    return next(cycles for name, _, cycles in hw.timing(n).ops if name == op)


def random_image(prog, rng):
    img = blank_image(prog)
    for k, q in enumerate((97, 193)):
        m = make_modulus(q, N)
        for j in range(4):
            p = make_poly(m, [rng.randrange(q) for _ in range(N)], repr=SM)
            img.dram["x"][4 * k + j] = ntt_fwd(p)
    return img


# ---------------------------------------------------------------------------
# hardware description

def test_hw_validation_and_parsing():
    with pytest.raises(ValueError):
        HardwareDescription(slots=1)
    with pytest.raises(ValueError):
        HardwareDescription(lanes=0)
    with pytest.raises(ValueError):
        HardwareDescription(fu=(("ntt", 0), ("mmul", 1), ("madd", 1),
                                ("auto", 1)))
    hw = parse_hw("lanes = 64\nslots = 32\n# comment\nfu.ntt = 3\n"
                  "lat.mmul = 7\nstreaming = false\n")
    assert hw.lanes == 64 and hw.slots == 32
    assert dict(hw.timing(4096).units)["ntt"] == 3
    assert latency(hw, "mmul", 4096) == 7
    assert not hw.streaming
    with pytest.raises(ValueError):
        parse_hw("bogus = 3\n")
    # unknown unit classes (DRAM is one fixed channel), non-machine opcodes,
    # latencies below one cycle and a streaming value that is no switch word
    for line in ("fu.bogus = 3", "fu.dram = 4", "lat.bogus = 5",
                 "lat.copy = 2", "lat.mmul = -50", "lat.ntt = 0",
                 "streaming = treu"):
        with pytest.raises(ValueError):
            parse_hw(line + "\n")
    with pytest.raises(ValueError):
        HardwareDescription(fu=HardwareDescription.fu + (("dram", 4),))
    with pytest.raises(ValueError):
        HardwareDescription(lat_override=(("load", 0),))
    assert latency(parse_hw("lat.mac = 9\nlat.store = 1\n"), "mac") == 9


def test_hw_latency_defaults():
    hw = HardwareDescription(lanes=128, ntt_pipelines=4)
    timing = hw.timing(4096)
    assert ("mmul", "mmul", 32) in timing.ops
    assert ("ntt", "ntt", 32 * 12 // 4) in timing.ops
    assert ("load", "dram", 100 + 4096 * 8 // hw.dram_bw) in timing.ops
    assert [op for op, _, _ in timing.ops] == list(FU_CLASS)
    assert timing.xfer == 4096 * 8 // hw.dram_bw
    # unit counts in UNITS order, whatever the order of `fu`, and the one
    # DRAM channel
    assert timing.units == (("ntt", 2), ("mmul", 4), ("madd", 4),
                            ("auto", 1), ("dram", 1))
    assert replace(hw, fu=hw.fu[::-1]).timing(4096) == timing


# ---------------------------------------------------------------------------
# unroll

def test_unroll_loop_and_scalars():
    text = header() + ("$b = sli 2\n$i = loop 0, 3\n$k = smul $i, 2\n"
                       "$a = sadd $k, $b\n%v = load @x[$a]\n"
                       "store %v, @y[$i]\nendloop\n")
    p = unroll(parse_ir(text))
    assert all(i.op in ("load", "store") for i in p.instrs)
    loads = [i for i in p.instrs if i.op == "load"]
    assert [i.srcs[0].base for i in loads] == [2, 4, 6]
    assert all(not i.srcs[0].terms for i in loads)


def test_out_of_range_addresses_are_rejected_when_compiling():
    for body in ("%v = load @x[5]\nstore %v, @y[0]\n",
                 "%v = load @x[0]\nstore %v, @y[2]\n",
                 "$i = loop 0, 3\n%v = load @x[$i]\nstore %v, @y[$i]\n"
                 "endloop\n"):
        p = parse_ir(header(nx=2, ny=2) + body)
        with pytest.raises(IrError, match="out of range"):
            unroll(p)
        with pytest.raises(IrError, match="out of range"):
            compile_program(header(nx=2, ny=2) + body, HW)
    # machine code read back from .easm is checked too
    machine = parse_ir(header(nx=2, ny=2) + "r0 = load @x[5]\n"
                       "store r0, @y[0]\n")
    with pytest.raises(IrError, match="line 6: address @x\\[5\\]"):
        check_machine_form(machine)
    check_machine_form(parse_ir(header(nx=2, ny=2) + "r0 = load @x[1]\n"
                                "store r0, @y[1]\n"))


def test_unroll_skipz_and_semantics():
    rng = random.Random(0)
    text = header() + ("$i = loop 0, 4\n%v = load @x[$i]\n"
                       "$p = sadd $i, -2\nskipz $p, 1\n"
                       "store %v, @y[$i]\nendloop\n")
    p = parse_ir(text)
    u = unroll(p)
    img = seeded_image(p, rng)
    assert outputs(p, img) == outputs(u, img)
    # iteration 2 has $p == 0, so its store is skipped
    assert outputs(u, img)[2] is None


# `%x.1` is defined only after a taken skip; the compiler once took it for
# the renamed `%x` and compiled the program
SKIPPED_DEFINITION = ("$s = sli 0\n%x = load @x[0]\nskipz $s, 1\n"
                      "%x.1 = load @x[1]\n%y = mmul %x.1, %x.1, q0\n"
                      "store %y, @y[0]\n")


def test_a_register_skipped_before_its_read_is_a_compile_error():
    text = header() + SKIPPED_DEFINITION
    with pytest.raises(IrError, match=r"^line 10: register %x\.1 read "
                                      "before write$"):
        compile_program(text, HW)
    p = parse_ir(text)
    with pytest.raises(ExecError, match=r"register %x\.1 read before write"):
        execute_program(p, seeded_image(p, random.Random(0)))


@st.composite
def skipping_programs(draw):
    """Source text of one to three blocks over q0, each straight-line or a
    loop, whose skips may jump over the definition of a register that a
    later line reads.  A skip stays inside its block, and registers are
    named `%v`, `%v.1`, `%v.2`, ... like the names that renaming makes."""
    lines, regs = ["$z = sli 0", "$o = sli 1"], []
    for b in range(draw(st.integers(1, 3))):
        scalars = ["$z", "$o"]
        if draw(st.booleans()):
            lines.append(f"$i{b} = loop 0, {draw(st.integers(1, 3))}")
            scalars.append(f"$i{b}")
        size = draw(st.integers(1, 6))
        for k in range(size):
            kind = draw(st.sampled_from(("load", "mmul", "copy", "skipz",
                                         "store")))
            if kind == "skipz":
                lines.append(f"skipz {draw(st.sampled_from(scalars))}, "
                             f"{draw(st.integers(0, size - 1 - k))}")
                continue
            if kind == "store" and regs:
                lines.append(f"store {draw(st.sampled_from(regs))}, "
                             f"@y[{draw(st.integers(0, 3))}]")
                continue
            d = f"%v.{len(regs)}" if regs else "%v"
            if kind == "load" or not regs:
                cell = draw(st.sampled_from(scalars[2:] + ["0", "3"]))
                lines.append(f"{d} = load @x[{cell}]")
            elif kind == "copy":
                lines.append(f"{d} = copy {draw(st.sampled_from(regs))}")
            else:
                a, c = (draw(st.sampled_from(regs)) for _ in range(2))
                lines.append(f"{d} = mmul {a}, {c}, q0")
            regs.append(d)
        if len(scalars) == 3:
            lines.append("endloop")
    if regs:
        lines.append(f"store {regs[-1]}, @y[0]")
    return header(1) + "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=skipping_programs())
def test_the_compiler_rejects_what_the_executor_rejects(text):
    p = parse_ir(text)
    img = seeded_image(p, random.Random(0))
    try:
        want, exec_error = outputs(p, img), None
    except ExecError as e:
        exec_error = str(e)
    try:
        machine, compile_error = compile_program(p, HW), None
    except IrError as e:
        compile_error = str(e)
    if exec_error is None:
        assert compile_error is None
        assert outputs(machine, img) == want
    else:
        assert "read before write" in exec_error
        assert compile_error is not None and \
            compile_error.endswith(exec_error)


# ---------------------------------------------------------------------------
# lowering

def test_lower_identity_and_ntt():
    p = parse_ir(header() + "%a = load @x[0]\nstore %a, @y[0]\n")
    assert lower(p).opcount() == p.opcount()
    # copies die in unroll; one that reaches lowering is an error
    p1 = parse_ir(header() + "%a = load @x[0]\n%b = copy %a\n"
                  "store %b, @y[0]\n")
    with pytest.raises(IrError, match="line 7: copy in lowering input"):
        lower(p1)
    assert "copy" not in lower(unroll(p1)).opcount()
    p2 = parse_ir(header() + "%a = load @x[0]\n%b = intt %a, q0\n"
                  "%c = ntt %b, q0\nstore %c, @y[0]\n")
    low = lower(p2)
    assert low.opcount()["ntt"] == 1
    # plain intt splits into the deferred transform plus one constant multiply
    assert low.opcount()["intt"] == 1 and low.opcount()["mmul"] == 1
    rng = random.Random(1)
    img = seeded_image(p2, rng)
    assert outputs(p2, img) == outputs(low, img)


def test_lower_bconv_counts():
    n = 16
    cm = make_modulus_chain(n, 2, 20)
    bm = make_modulus_chain(n, 1, 21)
    text = (f".n {n}\n.mod q0 {cm[0].q}\n.mod q1 {cm[1].q}\n"
            f".mod p0 {bm[0].q}\n.dram x 4\n.dram y 4\n"
            "%a = load @x[0]\n%b = load @x[1]\n"
            "%fa = intt.defer %a, q0\n%fb = intt.defer %b, q1\n"
            "%o = bconv %fa %fb : q0 q1 -> p0\n"
            "%s = ntt %o, p0\nstore %s, @y[0]\n")
    p = parse_ir(text)
    low = lower(p)
    # |src|=2, |dst|=1: two stage-1 MMUL, two stage-2 MMUL, one accumulate
    assert low.opcount()["mmul"] == 4 and low.opcount()["mmad"] == 1
    assert "bconv" not in low.opcount()
    rng = random.Random(2)
    img = blank_image(p)
    for k, m in enumerate(cm):
        limb = make_poly(m, [rng.randrange(m.q) for _ in range(n)], repr=SM)
        img.dram["x"][k] = ntt_fwd(limb)
    assert outputs(p, img) == outputs(low, img)


def test_lower_bconv_plain_inputs():
    n = 16
    cm = make_modulus_chain(n, 2, 20)
    bm = make_modulus_chain(n, 1, 21)
    text = (f".n {n}\n.mod q0 {cm[0].q}\n.mod q1 {cm[1].q}\n"
            f".mod p0 {bm[0].q}\n.dram x 4\n.dram y 4\n"
            "%a = load @x[0]\n%b = load @x[1]\n"
            "%fa = intt %a, q0\n%fb = intt %b, q1\n"
            "%o = bconv %fa %fb : q0 q1 -> p0\n"
            "%s = ntt %o, p0\nstore %s, @y[0]\n")
    p = parse_ir(text)
    low = lower(p)
    rng = random.Random(3)
    img = blank_image(p)
    for k, m in enumerate(cm):
        limb = make_poly(m, [rng.randrange(m.q) for _ in range(n)], repr=SM)
        img.dram["x"][k] = ntt_fwd(limb)
    assert outputs(p, img) == outputs(low, img)
    # merging the 1/N multiply into stage 1 saves one instruction per limb
    # (-2), and a stage-2 multiply-accumulate pair fuses into a MAC (-1)
    merged = peephole_merge(pre(low))
    assert sum(merged.opcount().values()) == sum(low.opcount().values()) - 3
    assert merged.opcount()["mmul"] == low.opcount()["mmul"] - 3
    assert merged.opcount()["mac"] == 1
    assert outputs(merged, img) == outputs(low, img)


def test_compiled_code_does_not_recheck_kernel_contracts():
    # docs/formats.md: the domain of a value is a property of the image, and
    # the executor on the source program is the contract oracle
    p = parse_ir(header() + "%a = load @x[0]\n%r = bconv %a : q0 -> q1\n"
                 "store %r, @y[0]\n")
    img = seeded_image(p, random.Random(5), count=1, ntt=True)
    with pytest.raises(ContractError, match="coefficient domain"):
        execute_program(p, img)
    assert execute_program(compile_program(p, HW), img).dram["y"][0] \
        is not None


def test_lower_rejects_scalar_flow():
    p = parse_ir(header() + "$i = loop 0, 2\nendloop\n")
    with pytest.raises(IrError, match="unrolled"):
        lower(p)


def test_straight_line_passes_reject_scalar_flow():
    p = parse_ir(header() + "$i = loop 0, 2\nendloop\n")
    for run in (lower, pre, lambda q: schedule(q, HW)):
        with pytest.raises(IrError, match="line 6: scalar control flow must "
                                          "be unrolled"):
            run(p)


# ---------------------------------------------------------------------------
# propagate / pre / peephole

def test_propagate_copy_chain():
    text = header() + ("%a = load @x[0]\n%b = copy %a\n%c = copy %b\n"
                       "%d = copy %c\nstore %d, @y[0]\n")
    p = parse_ir(text)
    out = propagate(p)
    assert "copy" not in out.opcount()
    assert str(out.instrs[-1].srcs[0]) == "%a"
    rng = random.Random(4)
    img = seeded_image(p, rng)
    assert outputs(p, img) == outputs(out, img)


def test_pre_removes_full_redundancy():
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%p = mmul %a, %b, q0\n%q = mmul %a, %b, q0\n"
                       "%r = mmad %p, %q, q0\nstore %r, @y[0]\n")
    p = parse_ir(text)
    out = pre(p)
    assert out.opcount()["mmul"] == 1
    rng = random.Random(5)
    img = seeded_image(p, rng)
    assert outputs(p, img) == outputs(out, img)


def test_pre_leaves_memory_dependences():
    text = header() + ("%a = load @x[0]\nstore %a, @x[1]\n"
                       "%b = load @x[1]\nstore %b, @y[0]\n")
    p = parse_ir(text)
    assert [str(i) for i in pre(p).instrs] == [str(i) for i in p.instrs]


def test_pre_dce():
    text = header() + ("%a = load @x[0]\n%dead = mmul %a, %a, q0\n"
                       "store %a, @y[0]\n")
    out = pre(parse_ir(text))
    assert "mmul" not in out.opcount()


def test_peephole_mac_fusion():
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n%c = load @x[2]\n"
                       "%p = mmul %b, %c, q0\n%s = mmad %a, %p, q0\n"
                       "store %s, @y[0]\n")
    p = parse_ir(text)
    out = peephole_merge(p)
    assert out.opcount()["mac"] == 1 and "mmul" not in out.opcount()
    rng = random.Random(6)
    img = seeded_image(p, rng)
    assert outputs(p, img) == outputs(out, img)


def test_peephole_keeps_multi_use_mmul():
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%p = mmul %a, %b, q0\n%s = mmad %a, %p, q0\n"
                       "store %p, @y[1]\nstore %s, @y[0]\n")
    out = peephole_merge(parse_ir(text))
    assert "mac" not in out.opcount()


def chain(*reprs):
    """x times a chain of constants of the given representations."""
    names = "abcdefgh"[:len(reprs)]
    consts = "".join(f".const {c} q0 {5 + 2 * k} {r}\n"
                     for k, (c, r) in enumerate(zip(names, reprs)))
    body, a = "%r0 = load @x[0]\n", "%r0"
    for k, c in enumerate(names):
        body += f"%r{k + 1} = mmul {a}, !{c}, q0\n"
        a = f"%r{k + 1}"
    return parse_ir(header() + consts + body + f"store {a}, @y[0]\n")


def test_peephole_merge_is_a_fixed_point():
    # one pass leaves nothing to merge: on the desk programs, the L12
    # bootstrap, random programs and two constant chains.  nm, nm, dm runs
    # only on DM data, and !b*!c (sm) would let it run on SM data too, so
    # nothing folds; nm, sm, sm folds back through its SM constants
    stuck, folds = chain("nm", "nm", "dm"), chain("nm", "sm", "sm")
    rng = random.Random(30)
    programs = [stuck, folds] + [front_end(gen(wp), do_merge=False)
                                 for gen, wp, _ in GOLDEN[:4]]
    programs += [front_end(random_program(rng), do_merge=False)
                 for _ in range(40)]
    programs += [front_end(memory_program(rng), do_merge=False)
                 for _ in range(20)]
    for p in programs:
        once = peephole_merge(p)
        twice = peephole_merge(once)
        assert twice.instrs == once.instrs
        assert dict(twice.consts) == dict(once.consts)
    assert peephole_merge(stuck).instrs == stuck.instrs
    assert peephole_merge(folds).opcount() == {"load": 1, "mmul": 1,
                                               "store": 1}


def const_chain_program(rng):
    """One modulus: six constants of random representation (some absorb)
    and a chain of 4 to 12 constant multiplies, with accumulates and vector
    multiplies mixed in."""
    consts = "".join(
        f".const k{k} q0 {rng.randrange(1, 97)} "
        f"{rng.choice(['nm', 'sm', 'dm'])}"
        f"{' absorb' if rng.random() < 0.2 else ''}\n" for k in range(6))
    regs, body = ["%l0", "%l1"], "%l0 = load @x[0]\n%l1 = load @x[1]\n"
    for k in range(rng.randrange(4, 13)):
        r = rng.random()
        if r < 0.6:
            a = regs[-1] if rng.random() < 0.7 else rng.choice(regs)
            body += f"%v{k} = mmul {a}, !k{rng.randrange(6)}, q0\n"
        else:
            op = "mmad" if r < 0.8 else "mmul"
            a, b = rng.choice(regs), rng.choice(regs)
            body += f"%v{k} = {op} {a}, {b}, q0\n"
        regs.append(f"%v{k}")
    body += f"store {regs[-1]}, @y[0]\n"
    return parse_ir(header(nmods=1) + consts + body)


def test_peephole_merge_keeps_what_constant_chains_compute(monkeypatch):
    # with data of each representation, scale-deferred or not, the merged
    # program raises exactly when its input raises, and otherwise computes
    # the same outputs; one more pass changes nothing.  A fold through a
    # constant that is not SM would let the merged code run where its
    # input raises (nm * nm * dm on SM data), and so would a folded
    # constant that absorbs where the first of its pair does not (a
    # deferred input).  A pair folds whatever the second's absorb, and the
    # chains that fold a non-absorbing constant with an absorbing one and
    # still run on some data are counted
    folds = []      # (c1 absorbs, c2 absorbs) of each fold in one pass
    fold = compiler._try_fold_consts

    def spy(p, consts, prod, cons, interned):
        out = fold(p, consts, prod, cons, interned)
        if out is not None:
            folds.append((consts[prod.srcs[1].name].absorb,
                          consts[cons.srcs[1].name].absorb))
        return out

    monkeypatch.setattr(compiler, "_try_fold_consts", spy)
    m = make_modulus(97, N)
    ran = merged = raised = deferred = absorbed = 0
    for seed in range(600):
        rng = random.Random(seed)
        p = front_end(const_chain_program(rng), do_merge=False)
        folds.clear()
        q = peephole_merge(p)
        into_absorb = (False, True) in folds
        again = peephole_merge(q)
        assert again.instrs == q.instrs, seed
        assert dict(again.consts) == dict(q.consts), seed
        merged += len(q.instrs) < len(p.instrs)
        runs = False
        for rep in (NM, SM, DM):
            for defer in (False, True):
                img = blank_image(p)
                for k in range(len(img.dram["x"])):
                    v = ntt_fwd(make_poly(
                        m, [rng.randrange(m.q) for _ in range(N)], repr=rep))
                    img.dram["x"][k] = ntt_inv(v, defer_scale=True) \
                        if defer else v
                got = []
                for prog in (p, q):
                    try:
                        got.append(outputs(prog, img))
                    except (ContractError, ExecError, ReprError):
                        got.append(None)    # the executor rejects it
                assert got[0] == got[1], (seed, rep, defer)
                raised += got[0] is None
                ran += got[0] is not None
                deferred += defer and got[0] is not None
                runs |= got[0] is not None
        absorbed += into_absorb and runs
    # 421 runs, 17 of them on deferred data, and 3,179 rejections; 367
    # of the 600 chains merge, and 28 of them fold a non-absorbing
    # constant with an absorbing one and run on some data
    assert ran >= 400 and raised >= 3000 and merged >= 300, (ran, raised,
                                                              merged)
    assert deferred >= 15, deferred
    assert absorbed >= 25, absorbed


def test_peephole_folds_const_chain():
    m = make_modulus(97, N)
    c1, c2 = sm_encode(5, m), sm_encode(7, m)
    text = header() + (f".const a q0 {c1} sm\n.const b q0 {c2} sm\n"
                       "%x = load @x[0]\n%u = mmul %x, !a, q0\n"
                       "%v = mmul %u, !b, q0\nstore %v, @y[0]\n")
    p = parse_ir(text)
    out = peephole_merge(p)
    assert out.opcount()["mmul"] == 1
    rng = random.Random(7)
    img = seeded_image(p, rng)
    assert outputs(p, img) == outputs(out, img)


# ---------------------------------------------------------------------------
# scheduling

def test_the_latency_schedule_is_keyed_by_every_field_it_reads():
    # `_fit` keeps a latency schedule in `made` under `hw.timing(p.n)`,
    # the one argument through which `_latency_schedule` reads the
    # hardware: no field outside the timing changes it, and each field
    # inside changes it
    outside = {"slots": 16, "banks": 2, "fifo_depth": 1, "streaming": False}
    inside = {"lanes": 64, "dram_bw": 32, "ntt_pipelines": 2,
              "fu": (("ntt", 1), ("mmul", 4), ("madd", 4), ("auto", 1)),
              "lat_override": (("mmul", 3),)}
    assert {*outside, *inside} == {f.name for f in fields(HW)}
    for name, value in outside.items():
        hw = replace(HW, **{name: value})
        assert hw.timing(2 ** 16) == HW.timing(2 ** 16), name
    for name, value in inside.items():
        hw = replace(HW, **{name: value})
        assert hw.timing(2 ** 16) != HW.timing(2 ** 16), name


def test_schedule_preserves_chains_and_bounds():
    rng = random.Random(8)
    for trial in range(10):
        p = random_program(rng)
        u = unroll(p)
        s = schedule(u, HW)
        img = random_image(p, rng)
        assert outputs(u, img) == outputs(s, img)
        assert s.notes["makespan"] >= s.notes["critical_path"]
        serial = sum(latency(HW, i.op, p.n) for i in u.instrs)
        assert s.notes["makespan"] <= serial
        # issue cycles respect dependences
        cycle = s.notes["issue_cycles"]
        assert len(cycle) == len(s.instrs)
        for idx, ps in enumerate(pred_sets(build_deps(s))):
            for j in ps:
                assert (cycle[j] + latency(HW, s.instrs[j].op, p.n)
                        <= cycle[idx])


def test_schedule_overlaps_independent_work():
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%u = intt %a, q0\n%v = intt %b, q0\n"
                       "store %u, @y[0]\nstore %v, @y[1]\n")
    p = lower(unroll(parse_ir(text)))
    lat = (("load", 1), ("store", 1), ("intt", 10), ("mmul", 1))

    def intt_cycles(nunits):
        hw = HardwareDescription(slots=8, lat_override=lat,
                                 fu=(("ntt", nunits), ("mmul", 2),
                                     ("madd", 2), ("auto", 1)))
        s = schedule(p, hw)
        return sorted(c for i, c in zip(s.instrs, s.notes["issue_cycles"],
                                        strict=True) if i.op == "intt")

    two = intt_cycles(2)
    assert two[1] < two[0] + 10       # windows overlap on two units
    one = intt_cycles(1)
    assert one[1] >= one[0] + 10      # strictly serialized on one unit


def test_schedule_invariant_is_an_explicit_error(monkeypatch):
    import effact.compiler as compiler
    p = unroll(random_program(random.Random(8)))
    # schedule takes the critical path from its longest-path priorities
    monkeypatch.setattr(compiler, "_priorities",
                        lambda lat, succs: [10 ** 12] * len(lat))
    with pytest.raises(RuntimeError, match="critical path"):
        schedule(p, HW)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), slots=st.integers(2, 8))
def test_pressure_schedule_keeps_semantics_and_dependences(seed, slots):
    rng = random.Random(seed)
    p = random_program(rng, size=40)
    u = front_end(p)
    hw = replace(HW, slots=slots)
    vast = replace(HW, slots=2 ** 20)
    # only programs whose latency schedule does not fit are rescheduled
    assume(max_liveness(merge_streaming(schedule(u, vast), vast)) > slots)
    s = schedule(u, hw)
    img = random_image(p, rng)
    assert outputs(u, img) == outputs(s, img)
    # every dependence of the source order holds in the emitted order and
    # in the issue cycles
    def key(i):
        return i.op, i.dests, i.srcs

    pos = {key(i): k for k, i in enumerate(s.instrs)}
    assert sorted(pos.values()) == list(range(len(u.instrs)))
    cycle = s.notes["issue_cycles"]
    assert len(cycle) == len(s.instrs)
    for idx, ps in enumerate(pred_sets(build_deps(u))):
        b = pos[key(u.instrs[idx])]
        for a in (pos[key(u.instrs[j])] for j in ps):
            assert a < b
            assert cycle[a] + latency(HW, s.instrs[a].op, p.n) <= cycle[b]
    assert s.notes["makespan"] >= s.notes["critical_path"]
    try:
        machine = back_end(u, hw)
    except IrError:
        return            # register pressure beyond the slot count
    assert outputs(u, img) == outputs(machine, img)


def test_schedule_keeps_the_latency_schedule_when_it_fits():
    wp = WorkloadParams(n=1024, levels=4, dnum=2)
    rng = random.Random(24)
    sources = [gen(wp) for gen in (gen_keyswitch, gen_hoisted_rotations,
                                   gen_helr_iteration)]
    sources += [random_program(rng, size=40) for _ in range(4)]
    vast = replace(HW, slots=2 ** 20)
    for src in sources:
        front = front_end(src)
        want = assemble_text(back_end(front, vast))
        need = max(2, max_liveness(merge_streaming(schedule(front, vast),
                                                   vast)))
        for slots in (need, need + 1, 2 * need):
            got = back_end(front, replace(HW, slots=slots))
            assert assemble_text(got) == want


def test_critical_path_chain():
    text = header() + ("%a = load @x[0]\n%b = mmul %a, %a, q0\n"
                       "%c = mmul %b, %b, q0\nstore %c, @y[0]\n")
    p = parse_ir(text)
    lat = (latency(HW, "load") + 2 * latency(HW, "mmul")
           + latency(HW, "store"))
    assert schedule(p, HW).notes["critical_path"] == lat


# ---------------------------------------------------------------------------
# allocation

def test_alloc_exact_fit_no_spills():
    rng = random.Random(9)
    p = random_program(rng)
    u = schedule(unroll(p), HW)
    need = max_liveness(u)
    a = alloc_sram(u, replace(HW, slots=need))
    assert a.notes["spills"] == 0
    assert "__spill" not in a.dram
    check_machine_form(a)
    img = random_image(p, rng)
    assert outputs(u, img) == outputs(a, img)


def test_alloc_spills_under_pressure():
    rng = random.Random(10)
    for trial in range(5):
        p = random_program(rng)
        u = schedule(unroll(p), HW)
        need = max_liveness(u)
        slots = max(4, need - 1)
        if slots >= need:
            continue
        a = alloc_sram(u, replace(HW, slots=slots))
        assert a.notes["spills"] > 0
        img = random_image(p, rng)
        assert outputs(u, img) == outputs(a, img)
        # no instruction uses more than `slots` distinct physical registers
        for i in a.instrs:
            regs = {str(o) for o in list(i.srcs) + list(i.dests)
                    if isinstance(o, Vreg) and str(o).startswith("r")}
            assert len(regs) <= slots


def max_liveness_oracle(p, min_reads=0):
    """The O(n * V) formula max_liveness replaced: at each instruction every
    register whose last use is there dies before the destinations land.
    Only registers read by at least `min_reads` source operands count: with
    2, those that no streaming merge takes out of SRAM."""
    uses_at, reads = {}, {}
    for idx, i in enumerate(p.instrs):
        for s in i.srcs:
            if isinstance(s, Vreg) and str(s).startswith("%"):
                uses_at[str(s)] = idx
                reads[str(s)] = reads.get(str(s), 0) + 1
    live, peak = set(), 0
    for idx, i in enumerate(p.instrs):
        peak = max(peak, len(live))
        live -= {v for v, last in uses_at.items() if last == idx}
        dests = {str(d) for d in i.dests
                 if isinstance(d, Vreg) and str(d).startswith("%")
                 and reads.get(str(d), 0) >= min_reads}
        live |= dests
        peak = max(peak, len(live))
        live -= {d for d in dests if d not in uses_at}
    return peak


def merge_bound_oracle(p, depth):
    """The O(n * V) formula of `_merge_bound`: at each instruction, the
    registers written at or before it and read after it, those read twice
    or more and all but `depth` of those that an FU writes and one FU
    operand reads."""
    defs, uses = name_keyed_def_use(p.instrs)
    best = 0
    for idx in range(len(p.instrs)):
        multi = forwardable = 0
        for v, reads in uses.items():
            j = defs.get(v)
            if not v.startswith("%") or j is None or not j <= idx < reads[-1]:
                continue
            if len(reads) > 1:
                multi += 1
            elif (p.instrs[j].op in FU_OPS
                  and p.instrs[reads[0]].op in FU_OPS):
                forwardable += 1
        best = max(best, multi + max(0, forwardable - depth))
    return best


def test_max_liveness_matches_quadratic_oracle():
    rng = random.Random(21)
    sources = [random_program(rng, size=40) for _ in range(10)]
    wp = WorkloadParams(n=1024, levels=4, dnum=2)
    sources += [parse_ir(gen(wp)) for gen in (
        gen_keyswitch, gen_hoisted_rotations, gen_helr_iteration)]
    for p in sources:
        u = front_end(p)
        s = schedule(u, HW)
        for q in (u, s, merge_streaming(s, HW)):
            assert max_liveness(q) == max_liveness_oracle(q)
            for depth in (1, 2, 8):
                assert _merge_bound(q, depth) == merge_bound_oracle(q, depth)
            # with more channels than values, the bound is the peak of the
            # values read twice or more
            assert _merge_bound(q, len(q.instrs)) == \
                max_liveness_oracle(q, 2)


def bound_holds(front, hw):
    """The fit check's lower bound of a latency order merged for streaming
    at FIFO depths 1, 2 and 8 (`_merge_bound`: the values read twice or
    more and the FU-to-FU values beyond the channels) is at most what it
    needs merged, which is at most what it needs unmerged: the bound is
    sound."""
    order = _latency_schedule(front, hw.timing(front.n))[1]
    need = max_liveness(order)
    for depth in (1, 2, 8):
        merged = merge_streaming(order, replace(hw, fifo_depth=depth))
        assert _merge_bound(order, depth) <= max_liveness(merged) <= need


@pytest.mark.parametrize("seed", range(20))
def test_the_fit_bound_holds_on_random_programs(seed):
    bound_holds(front_end(random_program(random.Random(seed), size=40)), HW)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(4, 60),
       lanes=st.sampled_from((4, 128)))
def test_the_fit_bound_holds_on_any_program(seed, size, lanes):
    front = front_end(random_program(random.Random(seed), size=size))
    bound_holds(front, replace(HW, lanes=lanes))


def test_alloc_disjoint_lifetimes_share_slot():
    text = header() + ("%a = load @x[0]\nstore %a, @y[0]\n"
                       "%b = load @x[1]\nstore %b, @y[1]\n")
    p = parse_ir(text)
    a = alloc_sram(p, replace(HW, slots=8))
    regs = {str(i.dests[0]) for i in a.instrs if i.op == "load"}
    assert regs == {"r0"}


def test_alloc_takes_the_lowest_free_slot():
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n%c = load @x[2]\n"
                       "store %b, @y[1]\nstore %a, @y[0]\n%d = load @x[3]\n"
                       "store %c, @y[2]\nstore %d, @y[3]\n")
    a = alloc_sram(parse_ir(text), HW)
    assert [str(i.dests[0]) for i in a.instrs if i.op == "load"] \
        == ["r0", "r1", "r2", "r0"]


PRESSURE = header() + ("%a = load @x[0]\n%b = load @x[1]\n%c = load @x[2]\n"
                       "%m = mac %a, %b, %c, q0\nstore %m, @y[0]\n")


def test_alloc_reports_register_pressure(tmp_path, capsys):
    # a mac reads three live values at once: two slots cannot hold them
    with pytest.raises(IrError, match="register pressure exceeds 2 SRAM "
                                      "slots at one instruction"):
        alloc_sram(parse_ir(PRESSURE), replace(HW, slots=2))
    src = tmp_path / "pressure.eir"
    src.write_text(PRESSURE)
    assert main(["compile", str(src), "--slots", "2", "--no-streaming"]) == 1
    assert capsys.readouterr().err.startswith(
        "error[compile]: register pressure exceeds 2 SRAM slots")
    # streaming feeds the three single-use loads straight into the mac
    assert main(["compile", str(src), "--slots", "2"]) == 0


def test_alloc_does_not_depend_on_a_sufficient_slot_count():
    src = gen_keyswitch(WorkloadParams(n=1024, levels=4, dnum=2))
    # the latency schedule, which schedule keeps at `need` slots and more
    front = merge_streaming(
        schedule(front_end(src), replace(HW, slots=2 ** 20)), HW)
    need = max_liveness(front)
    tight, vast = (compile_program(src, replace(HW, slots=s))
                   for s in (need, 2 ** 20))
    assert tight.notes["spills"] == vast.notes["spills"] == 0
    assert assemble_text(tight) == assemble_text(vast)


def merge_spill_traffic_oracle(p):
    """The nested-scan pass merge_spill_traffic replaced: a forward scan per
    spill load, and a backward and two forward scans per spill store.  A
    load is merged only into a consumer that reads it in one operand."""
    instrs = list(p.instrs)

    def reads_reg(i, r):
        return any(isinstance(s, Vreg) and str(s) == r for s in i.srcs)

    def writes_reg(i, r):
        return any(isinstance(d, Vreg) and str(d) == r for d in i.dests)

    kill = set()
    for idx, i in enumerate(instrs):
        if i.op == "load" and isinstance(i.dests[0], Vreg) \
                and i.srcs[0].sym == "__spill":
            r = str(i.dests[0])
            consumer = None
            ok = True
            for k in range(idx + 1, len(instrs)):
                reads = sum(isinstance(s, Vreg) and str(s) == r
                            for s in instrs[k].srcs)
                if reads:
                    if consumer is not None or reads > 1:
                        ok = False
                        break
                    consumer = k
                if writes_reg(instrs[k], r):
                    break
            if ok and consumer is not None and consumer not in kill \
                    and instrs[consumer].op in FU_OPS:
                instrs[consumer] = _sub_srcs(instrs[consumer],
                                             {r: i.srcs[0]})
                kill.add(idx)
        elif i.op == "store" and isinstance(i.srcs[0], Vreg) \
                and i.srcs[1].sym == "__spill":
            r = str(i.srcs[0])
            producer = None
            for k in range(idx - 1, -1, -1):
                if writes_reg(instrs[k], r):
                    producer = k
                    break
                if reads_reg(instrs[k], r):
                    producer = None
                    break
            if producer is None or producer in kill \
                    or instrs[producer].op not in FU_OPS:
                continue
            used_later = False
            for k in range(idx + 1, len(instrs)):
                if reads_reg(instrs[k], r):
                    used_later = True
                    break
                if writes_reg(instrs[k], r):
                    break
            if used_later:
                continue
            if any(reads_reg(instrs[k], r) for k in range(producer + 1, idx)):
                continue
            instrs[producer] = instrs[producer].with_(dests=(i.srcs[1],))
            kill.add(idx)
    return p.with_([ins for k, ins in enumerate(instrs) if k not in kill])


def test_merge_spill_traffic_matches_nested_scan_oracle():
    def allocated(p, hw):
        front = schedule(front_end(p), hw)
        return alloc_sram(merge_streaming(front, hw), hw)

    rng = random.Random(23)
    cases = [(random_program(rng, size=40), replace(HW, slots=slots,
                                                    fifo_depth=depth))
             for _ in range(6) for slots in range(2, 9) for depth in (1, 4)]
    wp = WorkloadParams(n=1024, levels=4, dnum=2)
    cases += [(parse_ir(gen(wp)), HW) for gen in (
        gen_keyswitch, gen_hoisted_rotations, gen_helr_iteration)]
    merged = {"load": 0, "store": 0}
    for p, hw in cases:
        try:
            a = allocated(p, hw)
        except IrError:
            continue          # register pressure beyond the slot count
        got = merge_spill_traffic(a)
        assert got.instrs == merge_spill_traffic_oracle(a).instrs
        for op in merged:
            merged[op] += a.opcount().get(op, 0) - got.opcount().get(op, 0)
    # both kinds of spill traffic were streamed somewhere in the corpus
    assert merged["load"] > 0 and merged["store"] > 0


SPILLED = header() + (".dram __spill 2\n"
                      "r0 = load @x[0]\nr1 = mmul r0, r0, q0\n"
                      "store r1, @__spill[0]\nstore r0, @__spill[1]\n"
                      "r0 = load @__spill[0]\nr1 = load @__spill[1]\n")


def test_spill_reload_read_by_two_operands_stays_a_load():
    once = merge_spill_traffic(parse_ir(
        SPILLED + "r0 = mmul r0, r1, q0\nstore r0, @y[0]\n"))
    assert [i.op for i in once.instrs] == ["load", "mmul", "store", "mmul",
                                           "store"]
    assert once.instrs[1].dests == (Addr("__spill", 0),)
    assert once.instrs[3].srcs[:2] == (Addr("__spill", 0),
                                       Addr("__spill", 1))
    # one load feeds both operands of one instruction: streaming it would
    # move the cell over the DRAM channel twice
    text = SPILLED + "r0 = mmul r0, r0, q0\nr0 = mmad r0, r1, q0\n" \
                     "store r0, @y[0]\n"
    twice = merge_spill_traffic(parse_ir(text))
    assert [i.op for i in twice.instrs] == ["load", "mmul", "store", "load",
                                            "mmul", "mmad", "store"]
    assert twice.instrs[3].srcs == (Addr("__spill", 0),)
    assert twice.instrs[5].srcs[1] == Addr("__spill", 1)
    img = random_image(parse_ir(text), random.Random(29))
    assert outputs(twice, img) == outputs(parse_ir(text), img)


def test_merge_spill_traffic_leaves_other_cells_alone():
    # each load has one FU reader and each FU result one store, the shapes
    # merge_streaming merges, but only the __spill cells are streamed here
    text = header() + (".dram __spill 1\n"
                       "r0 = load @x[0]\nr1 = ntt r0, q0\nstore r1, @y[0]\n"
                       "r0 = load @x[1]\nr1 = ntt r0, q0\n"
                       "store r1, @__spill[0]\nr1 = load @y[1]\n"
                       "r0 = load @__spill[0]\nr1 = mmul r1, r0, q0\n"
                       "store r1, @y[2]\n")
    p = parse_ir(text)
    got = merge_spill_traffic(p)
    assert got.instrs[:4] == p.instrs[:4]
    assert [str(i) for i in got.instrs[4:]] == [
        "@__spill[0] = ntt r0, q0", "r1 = load @y[1]",
        "r1 = mmul r1, @__spill[0], q0", "store r1, @y[2]"]


def test_merge_spill_traffic_returns_a_program_without_spills_as_it_is():
    # no `__spill` symbol: nothing to merge, and no analysis for it; the
    # parser keeps only its reference check
    p = parse_ir(header() + "r0 = load @x[0]\nr1 = ntt r0, q0\n"
                 "store r1, @y[0]\n")
    assert merge_spill_traffic(p) is p
    assert p._kept == {check_refs: None}


# ---------------------------------------------------------------------------
# immutable instructions

def test_instructions_are_frozen_and_shared():
    p = random_program(random.Random(22))
    i = p.instrs[0]
    with pytest.raises(FrozenInstanceError):
        i.op = "copy"
    assert i.with_(line=7).meta is i.meta
    tagged = i.with_(meta={"cycle": 3})
    assert tagged.meta == {**i.meta, "cycle": 3} and "cycle" not in i.meta
    c = p.clone()
    assert c.instrs is not p.instrs
    assert all(a is b for a, b in zip(c.instrs, p.instrs))
    # a pass hands on the very instruction objects it leaves unchanged
    p = unroll(p)
    for name, run in (("lower", lower), ("propagate", propagate),
                      ("pre", pre), ("peephole_merge", peephole_merge),
                      ("schedule", lambda q: schedule(q, HW)),
                      ("merge_streaming", lambda q: merge_streaming(q, HW))):
        out = run(p)
        same = [k for k in out.instrs if k in p.instrs]
        assert same, name
        assert all(any(k is j for j in p.instrs) for k in same), name
        p = out


# ---------------------------------------------------------------------------
# streaming merges

def test_streaming_single_consumer_load():
    text = header() + ("%a = load @x[0]\n%b = ntt %a, q0\n"
                       "store %b, @y[0]\n")
    p = parse_ir(text)
    out = merge_streaming(p, HW)
    assert "load" not in out.opcount() and "store" not in out.opcount()
    ntt = [i for i in out.instrs if i.op == "ntt"][0]
    assert isinstance(ntt.srcs[0], Addr) and isinstance(ntt.dests[0], Addr)
    rng = random.Random(11)
    img = seeded_image(p, rng, ntt=False)
    assert outputs(p, img) == outputs(out, img)


def test_streaming_respects_multi_consumer():
    text = header() + ("%a = load @x[0]\n%b = ntt %a, q0\n"
                       "%c = mmul %a, %a, q0\n"
                       "store %b, @y[0]\nstore %c, @y[1]\n")
    out = merge_streaming(parse_ir(text), HW)
    assert out.opcount()["load"] == 1


def test_streaming_respects_intervening_store():
    text = header() + ("%a = load @x[0]\n%z = load @x[1]\nstore %z, @x[0]\n"
                       "%b = ntt %a, q0\nstore %b, @y[0]\n")
    p = parse_ir(text)
    out = merge_streaming(p, HW)
    # @x[0] is overwritten between the load and its consumer: not merged
    loads = [i for i in out.instrs if i.op == "load"
             and i.srcs[0] == Addr("x", 0)]
    assert len(loads) == 1
    rng = random.Random(12)
    img = seeded_image(p, rng, count=2, ntt=False)
    assert outputs(p, img) == outputs(out, img)


def mem_accesses(i):
    """(cells read, cells written) by one instruction."""
    if i.op == "store":
        return [], [i.srcs[1]]
    reads, writes = [], []
    for s in i.srcs:
        if isinstance(s, Addr):
            reads.append(s)
    for d in i.dests:
        if isinstance(d, Addr):
            writes.append(d)
    return reads, writes


def test_a_merged_store_still_blocks_a_later_store_to_its_cell():
    # the first store merges into its ntt but stays an access of @y[0]
    # between the second ntt and its store, so that store is not merged; a
    # rule that kept only the cell's last write would merge both
    text = header() + ("%a = load @x[0]\n%e = load @x[1]\n"
                       "%b = ntt %a, q0\n%c = ntt %e, q0\n"
                       "store %b, @y[0]\nstore %c, @y[0]\n")
    p = parse_ir(text)
    out = merge_streaming(p, HW)
    assert [str(i) for i in out.instrs] == [
        "@y[0] = ntt @x[0], q0", "%c = ntt @x[1], q0", "store %c, @y[0]"]
    img = seeded_image(p, random.Random(13), count=2, ntt=False)
    assert outputs(p, img) == outputs(out, img)


def name_keyed_def_use(instrs):
    """The def-use index of SSA code before def_use tracked values: the
    defining index of each register, and the ascending indices that read
    it, one per source operand."""
    defs, uses = {}, {}
    for idx, i in enumerate(instrs):
        for s in i.srcs:
            if isinstance(s, Vreg):
                uses.setdefault(s.name, []).append(idx)
        for d in i.dests:
            if isinstance(d, Vreg):
                defs[d.name] = idx
    return defs, uses


def merge_streaming_oracle(p, hw):
    """merge_streaming's rules checked directly: a sink or source merge is
    made when no instruction strictly between its two ends accesses (for
    a source, writes) the cell, each check rescanning them, merged stores
    and writes moved by earlier sink merges included."""
    instrs = list(p.instrs)
    defs, uses = name_keyed_def_use(instrs)

    def cell_between(key, lo, hi, with_reads):
        for k in range(lo + 1, hi):
            reads, writes = mem_accesses(instrs[k])
            if any(_addr_key(a) in (key, None)
                   for a in (reads + writes if with_reads else writes)):
                return True
        return False

    kill = set()
    for idx, i in enumerate(instrs):
        if i.op != "store" or not isinstance(i.srcs[0], Vreg):
            continue
        v = str(i.srcs[0])
        j = defs.get(v)
        if (j is None or len(uses[v]) != 1 or instrs[j].op not in FU_OPS
                or j in kill or not isinstance(i.srcs[1], Addr)):
            continue
        key = _addr_key(i.srcs[1])
        if key is None or cell_between(key, j, idx, True):
            continue
        instrs[j] = instrs[j].with_(dests=(i.srcs[1],))
        kill.add(idx)
    for idx, i in enumerate(instrs):
        if i.op != "load" or idx in kill:
            continue
        v = str(i.dests[0]) if isinstance(i.dests[0], Vreg) else None
        if v is None or len(uses.get(v, ())) != 1:
            continue
        (cidx,) = uses[v]
        c = instrs[cidx]
        if c.op not in FU_OPS or cidx in kill:
            continue
        key = _addr_key(i.srcs[0])
        if key is None or cell_between(key, idx, cidx, False):
            continue
        instrs[cidx] = _sub_srcs(c, {v: i.srcs[0]})
        kill.add(idx)
    free_fifo = list(range(hw.fifo_depth))
    release = []
    for idx, i in enumerate(instrs):
        if idx in kill:
            continue
        while release and release[0][0] <= idx:
            heappush(free_fifo, heappop(release)[1])
        if i.op not in FU_OPS or not i.dests \
                or not isinstance(i.dests[0], Vreg):
            continue
        v = str(i.dests[0])
        if len(uses.get(v, ())) != 1 or not v.startswith("%"):
            continue
        (cidx,) = uses[v]
        c = instrs[cidx]
        if c.op not in FU_OPS or cidx in kill or not free_fifo:
            continue
        fid = heappop(free_fifo)
        reg = Vreg(f"f{fid}")
        instrs[idx] = instrs[idx].with_(dests=(reg,))
        instrs[cidx] = _sub_srcs(instrs[cidx], {v: reg})
        heappush(release, (cidx, fid))
    return p.with_([ins for k, ins in enumerate(instrs) if k not in kill])


def memory_program(rng, size=30):
    """Loads, stores and multiplies over four cells each of @x and @y, so
    that stores fall between the ends of merge candidates."""
    lines, regs = [], []
    for k in range(size):
        r = rng.random()
        cell = f"@{rng.choice('xy')}[{rng.randrange(4)}]"
        if r < 0.35 or len(regs) < 2:
            lines.append(f"%v{k} = load {cell}\n")
            regs.append(f"%v{k}")
        elif r < 0.6:
            lines.append(f"store {rng.choice(regs)}, {cell}\n")
        else:
            lines.append(f"%v{k} = mmul {rng.choice(regs)}, "
                         f"{rng.choice(regs)}, q0\n")
            regs.append(f"%v{k}")
    return parse_ir(header(nx=4, ny=4) + "".join(lines))


def test_merge_streaming_matches_rescanning_oracle():
    rng = random.Random(25)
    merged = 0
    for _ in range(60):
        u = front_end(memory_program(rng))
        for hw in (replace(HW, slots=4, fifo_depth=1), HW):
            for q in (u, schedule(u, hw)):
                got = merge_streaming(q, hw)
                assert got.instrs == merge_streaming_oracle(q, hw).instrs
                merged += len(q.instrs) - len(got.instrs)
    assert merged > 0


def readers_of(values, j):
    """The ascending readers of writer j in a `def_use` table."""
    return values.readers[values.start[j]:values.start[j + 1]].tolist()


def test_def_use_gives_one_value_per_write_of_a_reused_register():
    p = parse_ir(header() + ("r0 = load @x[0]\nr1 = mmul r0, r0, q0\n"
                             "r0 = ntt r1, q0\nstore r0, @y[0]\n"
                             "r0 = mmad r0, r2, q0\nstore r0, @y[1]\n"))
    values = def_use(p)
    assert values.read.tolist() == [[-1, 0, 1, 2, 2, 4],
                                    [-1, 0, -1, -1, -1, -1], [-1] * 6]
    assert [readers_of(values, j) for j in range(6)] == [
        [1, 1], [2], [3, 4], [], [5], []]
    assert values.count.tolist() == [2, 1, 2, 0, 1, 0]
    assert values.last.tolist() == [1, 2, 4, -1, 5, -1]
    assert not values.virtual.any()
    # on allocated code: each write of a register starts a value, which
    # every read up to the register's next write reads
    mc = compile_program(gen_keyswitch(WorkloadParams(n=256, levels=3,
                                                      dnum=2)),
                         replace(HW, slots=6, streaming=False))
    values = def_use(mc)
    writes, written = {}, 0
    for k, i in enumerate(mc.instrs):
        for s, src in enumerate(i.srcs):
            if isinstance(src, Vreg):
                j = values.read[s][k]
                assert j == writes[src.name] and k in readers_of(values, j)
        if i.dests and isinstance(i.dests[0], Vreg):
            writes[i.dests[0].name] = k
            written += 1
        reads = readers_of(values, k)
        assert reads == sorted(reads) and values.count[k] == len(reads)
        assert values.last[k] == (reads[-1] if reads else -1)
    assert not values.virtual.any()
    assert values.count.sum() == len(values.readers) == sum(
        isinstance(s, Vreg) for i in mc.instrs for s in i.srcs)
    assert written > len(writes) > 1       # registers are reused


@pytest.mark.parametrize("gen", ["keyswitch", "bootstrap", "hoisted",
                                 "helr", "random"])
def test_def_use_agrees_with_the_name_keyed_scan(gen):
    wp = WorkloadParams(n=1024, levels=4, dnum=2, l_cts=1, l_evalmod=1,
                        l_stc=1)
    text = {"keyswitch": lambda: gen_keyswitch(wp),
            "bootstrap": lambda: gen_bootstrap_skeleton(wp),
            "hoisted": lambda: gen_hoisted_rotations(wp),
            "helr": lambda: gen_helr_iteration(wp),
            "random": lambda: _gen_random(7)}[gen]()
    lowered = lower(unroll(parse_ir(text)))
    for p in (lowered, front_end(text)):
        values = def_use(p)
        defs, uses = {}, {}
        for k, i in enumerate(p.instrs):
            reads = readers_of(values, k)
            assert values.count[k] == len(reads)
            assert values.last[k] == (reads[-1] if reads else -1)
            if values.virtual[k]:
                defs[i.dests[0].name] = k
                if reads:
                    uses[i.dests[0].name] = reads
            else:
                assert not reads
            for s, src in enumerate(i.srcs):
                j = values.read[s][k]
                if isinstance(src, Vreg) and j < 0:
                    uses.setdefault(src.name, []).append(k)
                elif j >= 0:
                    assert p.instrs[j].dests[0] == src
        assert (defs, uses) == name_keyed_def_use(p.instrs)


def same_values(a, b):
    """Two `def_use` tables are equal, field by field, dtypes too."""
    return all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in zip(a, b, strict=True))


def test_carried_value_tables_equal_a_scan(monkeypatch):
    # every program `back_ends` makes, latency and pressure orders, the
    # fit check's and the pressure order's merges and the allocations,
    # keeps a table equal to a scan of a copy with none
    made = []

    def recording(fn):
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            made.append(out)
            return out
        return wrapper

    for name in ("_emit", "merge_streaming", "alloc_sram"):
        monkeypatch.setattr(compiler, name, recording(getattr(compiler,
                                                               name)))
    rng = random.Random(32)
    fronts = [front_end(gen(wp)) for gen, wp, _ in GOLDEN[:3]]
    fronts += [front_end(random_program(random.Random(seed), size=40))
               for seed in range(30)]
    fronts += [front_end(memory_program(rng)) for _ in range(30)]
    hws = [HardwareDescription(slots=slots, streaming=on, fifo_depth=depth)
           for slots in (4, 8, 16, 64, 256) for on in (True, False)
           for depth in (1, 8)]
    merged = 0
    for front in fronts:
        made.clear()
        for _ in back_ends(front, hws):
            pass
        assert {o.__class__ for o in made} == {Program}
        for q in made:
            assert same_values(q.once(def_use), def_use(q.clone()))
            merged += len(q.instrs) < len(front.instrs)
    assert merged > 0       # some merges dropped loads or stores


def test_streaming_fifo_forwarding():
    text = header() + ("%a = load @x[0]\n"
                       "%u = mmul %a, %a, q0\n%v = mmad %u, %a, q0\n"
                       "store %v, @y[0]\n")
    p = parse_ir(text)
    out = merge_streaming(p, HW)
    # %u has a single consumer and is forwarded through a fifo channel
    assert any(str(o).startswith("f") for i in out.instrs
               for o in i.dests if isinstance(o, Vreg))
    assert "f0" in {str(o) for i in out.instrs for o in i.dests + i.srcs}
    rng = random.Random(13)
    img = seeded_image(p, rng)
    assert outputs(p, img) == outputs(out, img)


def test_fifo_ids_do_not_grow_with_the_fifo_depth():
    p = parse_ir(header() + ("%a = load @x[0]\n"
                             "%u = mmul %a, %a, q0\n%v = mmad %u, %a, q0\n"
                             "store %v, @y[0]\n"))
    # without the peephole the multiply stays apart from the accumulate
    # and is forwarded through f0
    for merge in (True, False):
        want = assemble_text(compile_program(p, HardwareDescription(),
                                             do_merge=merge))
        assert ("f0" in want) is not merge
        assert assemble_text(compile_program(
            p, HardwareDescription(fifo_depth=2 ** 40),
            do_merge=merge)) == want


def test_streaming_reduces_pressure_and_spills():
    rng = random.Random(14)
    lowered = []
    for trial in range(8):
        p = schedule(lower(unroll(random_program(rng))), HW)
        merged = merge_streaming(p, HW)
        assert max_liveness(merged) <= max_liveness(p)
        lowered.append(max_liveness(merged) < max_liveness(p))
    assert any(lowered)


# ---------------------------------------------------------------------------
# full driver

def test_compile_end_to_end_matches_source():
    rng = random.Random(15)
    for trial in range(8):
        p = random_program(rng)
        img = random_image(p, rng)
        want = outputs(p, img)
        mc = compile_program(p, HW)
        check_machine_form(mc)
        assert outputs(mc, img) == want


def test_compile_toggles_preserve_semantics():
    rng = random.Random(16)
    for trial in range(4):
        p = random_program(rng)
        img = random_image(p, rng)
        want = outputs(p, img)
        for kw in ({"do_pre": False},
                   {"do_merge": False}, {"streaming": False},
                   {"do_pre": False, "do_merge": False, "streaming": False}):
            hw = replace(HW, streaming=kw.pop("streaming", True))
            mc = compile_program(p, hw, **kw)
            check_machine_form(mc)
            assert outputs(mc, img) == want


# sha256 prefixes of assemble_text of each program compiled for the default
# hardware; any change to the compiler's output changes one of them
GOLDEN = (
    (gen_keyswitch, WorkloadParams(n=1024, levels=4, dnum=2), "eb9e8795"),
    (gen_hoisted_rotations, WorkloadParams(n=1024, levels=4, dnum=2),
     "58d3db5c"),
    (gen_helr_iteration, WorkloadParams(n=1024, levels=4, dnum=2),
     "73fce63d"),
    (gen_bootstrap_skeleton, WorkloadParams(n=2 ** 16, levels=12, dnum=4,
                                            l_cts=2, l_evalmod=4, l_stc=2),
     "1d54840c"),
    (gen_keyswitch, WorkloadParams(n=2 ** 16, levels=24, dnum=4),
     "26d5a6dc"),
)


@pytest.mark.parametrize("gen,wp,prefix", GOLDEN,
                         ids=["desk_ks", "hoisted", "helr", "l12_boot",
                              "l24_ks"])
def test_compiled_workloads_are_byte_identical(gen, wp, prefix):
    text = assemble_text(compile_program(gen(wp), HardwareDescription()))
    assert hashlib.sha256(text.encode()).hexdigest()[:8] == prefix


@pytest.mark.parametrize("gen,wp,prefix", GOLDEN,
                         ids=["desk_ks", "hoisted", "helr", "l12_boot",
                              "l24_ks"])
def test_the_fit_bound_holds_on_golden_programs(gen, wp, prefix):
    bound_holds(front_end(gen(wp)), HardwareDescription())


def test_front_end_output_is_pinned():
    # random programs, copies and constant multiplies among them, and the
    # memory programs that test_merge_streaming_matches_rescanning_oracle
    # draws: any change to what `pre` or `lower` emits changes the digest
    h = hashlib.sha256()
    for seed in range(40):
        h.update(print_program(front_end(random_program(
            random.Random(seed), size=40))).encode())
    rng = random.Random(25)
    for _ in range(60):
        h.update(print_program(front_end(memory_program(rng))).encode())
    assert h.hexdigest() == ("3936113861b803dcc3c3ac647a435d86"
                             "387a88a06b963370f9711e8af6195d2a")


def test_compile_deterministic():
    rng = random.Random(17)
    p = random_program(rng)
    from effact.asm import assemble_binary
    a = assemble_binary(compile_program(p, HW))
    b = assemble_binary(compile_program(p, HW))
    assert a == b


def test_compile_streaming_fewer_spills_under_pressure():
    rng = random.Random(18)
    p = random_program(rng, size=40)
    u = schedule(front_end(p), HW)
    slots = max(2, max_liveness(u) // 2)
    plain = compile_program(p, replace(HW, streaming=False, slots=slots))
    stream = compile_program(p, replace(HW, streaming=True, slots=slots))
    assert stream.notes["spills"] < plain.notes["spills"]
    img = random_image(p, rng)
    assert outputs(plain, img) == outputs(stream, img)


# ---------------------------------------------------------------------------
# the collector scope of a compile

@pytest.fixture
def collector():
    """The collector's thresholds and switch, restored after the test."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def test_compiles_restore_the_collector_thresholds(collector):
    gc.set_threshold(700, 10, 10)
    compile_program(PRESSURE, HW)
    assert gc.get_threshold() == (700, 10, 10) and gc.isenabled()
    sweep_sram(PRESSURE, HW, (4, 8))
    assert gc.get_threshold() == (700, 10, 10) and gc.isenabled()
    # a sweep suspended, then closed, after its first program
    machines = back_ends(front_end(PRESSURE), [replace(HW, slots=s)
                                               for s in (4, 8)])
    next(machines)
    assert gc.get_threshold() == (700, 10, 10) and gc.isenabled()
    machines.close()
    assert gc.get_threshold() == (700, 10, 10) and gc.isenabled()
    with pytest.raises(IrError, match="register pressure exceeds 2"):
        compile_program(PRESSURE, replace(HW, slots=2, streaming=False))
    assert gc.get_threshold() == (700, 10, 10) and gc.isenabled()


def test_a_compile_turns_the_collector_off_and_on_again(collector,
                                                        monkeypatch):
    seen = []

    def alloc(p, hw):
        seen.append((gc.isenabled(), gc.get_threshold()))
        return alloc_sram(p, hw)

    monkeypatch.setattr(compiler, "alloc_sram", alloc)
    for gen0 in (700, 50_000):
        gc.set_threshold(gen0, 10, 10)
        compile_program(PRESSURE, HW)
        assert seen.pop() == (False, (gen0, 10, 10))
        assert gc.isenabled() and gc.get_threshold() == (gen0, 10, 10)
    # a disabled collector is left as it is
    gc.disable()
    compile_program(PRESSURE, HW)
    assert seen.pop() == (False, (50_000, 10, 10)) and not gc.isenabled()
    assert gc.get_threshold() == (50_000, 10, 10)
