import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from effact import asm, compiler, ir
from effact.asm import (
    assemble_binary,
    assemble_text,
    check_machine_form,
    disassemble_binary,
    load_image,
    save_image,
)
from effact.compiler import HardwareDescription, compile_program
from effact.ir import (
    DEFER,
    FU_CLASS,
    NO_FLAGS,
    NO_META,
    OPCODES,
    Addr,
    ConstDef,
    CRef,
    Imm,
    Instr,
    IrError,
    SRef,
    Vreg,
    ExecError,
    MemoryImage,
    Program,
    blank_image,
    execute_program,
    parse_ir,
    print_program,
    walk,
)
from effact.poly import (
    SM,
    ContractError,
    RnsPoly,
    automorphism_ntt,
    bconv_merged,
    mac_fused,
    make_bconv_tables,
    make_poly,
    ntt_fwd,
    ntt_inv,
    vec_madd,
    vec_mmul,
)
from effact.rns import (NM, ReprError, RnsBasis, make_modulus,
                        make_modulus_chain, sm_encode)
from effact.sim import simulate
from effact.workloads import (WorkloadParams, gen_bootstrap_skeleton,
                              instruction_mix)

N = 16
HEADER = f".n {N}\n.mod q0 97\n.mod q1 113\n.dram x 8\n.dram y 8\n"


def rand_limb(m, rng, **kw):
    return make_poly(m, [rng.randrange(m.q) for _ in range(m.n)], **kw)


def image_for(prog, **entries):
    img = blank_image(prog)
    for key, val in entries.items():
        sym, idx = key.rsplit("_", 1)
        img.dram[sym][int(idx)] = val
    return img


def test_parse_single_instruction():
    p = parse_ir(HEADER + "%a = load @x[0]\n%1 = mmul %a, %a, q0\n")
    assert len(p.instrs) == 2
    assert p.instrs[1].op == "mmul" and p.instrs[1].mod == "q0"


def test_parse_empty_and_errors():
    assert parse_ir("").instrs == ()
    with pytest.raises(IrError, match="line 7"):
        parse_ir(HEADER + "%a = load @x[0]\n%a = load @x[1]\n")
    with pytest.raises(IrError, match="undefined"):
        parse_ir(HEADER + "%b = mmul %a, %a, q0\n")
    with pytest.raises(IrError, match="modulus"):
        parse_ir(HEADER + "%a = load @x[0]\n%b = mmul %a, %a, q9\n")
    with pytest.raises(IrError, match="opcode"):
        parse_ir(HEADER + "%a = frobnicate @x[0]\n")
    with pytest.raises(IrError, match="symbol"):
        parse_ir(HEADER + "%a = load @z[0]\n")
    with pytest.raises(IrError, match="pairwise distinct"):
        parse_ir(HEADER + ".mod q2 97\n%a = load @x[0]\n"
                 "%b = bconv %a : q0 -> q2\n")
    with pytest.raises(IrError, match="line 6: unknown directive .basis"):
        parse_ir(HEADER + ".basis C q0\n")


def test_print_parse_round_trip():
    text = (HEADER
            + ".const half q0 48 sm\n"
            + ".const ninv q0 5 sm absorb\n"
            + "%a = load @x[0]\n"
            "%b = ntt %a, q0\n"
            "%c = intt.defer %b, q0\n"
            "%d = mmul %c, !ninv, q0\n"
            "%e = mmad %d, !half, q0\n"
            "%f = auto %b, 3, q0\n"
            "%g = mac %e, %d, %d, q0\n"
            "$i = loop 0, 4\n"
            "%h0 = copy %g\n"
            "store %h0, @y[2*$i+1]\n"
            "endloop\n")
    p = parse_ir(text)
    printed = print_program(p)
    p2 = parse_ir(printed)
    assert print_program(p2) == printed


def test_executor_matches_kernels():
    rng = random.Random(0)
    m = make_modulus(97, N)
    a = rand_limb(m, rng, repr=SM)
    b = rand_limb(m, rng, repr=SM)

    cases = {
        "%o = mmul %a, %b, q0": lambda: vec_mmul(a, b),
        "%o = mmad %a, %b, q0": lambda: vec_madd(a, b),
        "%o = mac %a, %b, %b, q0": lambda: mac_fused(a, b, b),
        "%o = ntt %a, q0": None,
        "%o = auto %a, 3, q0": None,
    }
    for text, want in cases.items():
        prog = parse_ir(HEADER + "%a = load @x[0]\n%b = load @x[1]\n"
                        + text + "\nstore %o, @y[0]\n")
        av, bv = a, b
        if "ntt" in text or "auto" in text:
            av = ntt_fwd(a)
            want = (lambda: ntt_fwd(ntt_inv(av))) if "ntt" in text else \
                (lambda: automorphism_ntt(av, 3))
            if "ntt" in text:
                av = ntt_inv(av)
                want = lambda: ntt_fwd(av)
        img = image_for(prog, x_0=av, x_1=bv)
        out = execute_program(prog, img)
        assert out.dram["y"][0].to_ints() == want().to_ints()


def test_executor_identity_and_empty():
    m = make_modulus(97, N)
    rng = random.Random(1)
    a = rand_limb(m, rng, repr=SM)
    one = sm_encode(1, m)
    prog = parse_ir(HEADER + f".const one q0 {one} sm\n"
                    "%a = load @x[0]\n%b = mmul %a, !one, q0\n"
                    "store %b, @y[0]\n")
    out = execute_program(prog, image_for(prog, x_0=a))
    assert out.dram["y"][0].to_ints() == a.to_ints()

    empty = parse_ir(HEADER)
    img = image_for(empty, x_0=a)
    out = execute_program(empty, img)
    assert out.dram["x"][0].to_ints() == a.to_ints()
    assert all(v is None for v in out.dram["y"])


def test_executor_intt_defer_contract():
    m = make_modulus(97, N)
    rng = random.Random(2)
    a = ntt_fwd(rand_limb(m, rng, repr=SM))
    base = (HEADER + "%a = load @x[0]\n%b = intt.defer %a, q0\n")
    bad = parse_ir(base + "%c = mmad %b, %b, q0\nstore %c, @y[0]\n")
    with pytest.raises(Exception, match="scale-deferred"):
        execute_program(bad, image_for(bad, x_0=a))
    ninv = sm_encode(m.n_inv, m)
    good = parse_ir(base + f".const ninv q0 {ninv} sm absorb\n".replace(
        ".const", ".const") + "%c = mmul %b, !ninv, q0\nstore %c, @y[0]\n")
    # move const before instructions: rebuild program text properly
    good = parse_ir(HEADER + f".const ninv q0 {ninv} sm absorb\n"
                    "%a = load @x[0]\n%b = intt.defer %a, q0\n"
                    "%c = mmul %b, !ninv, q0\nstore %c, @y[0]\n")
    out = execute_program(good, image_for(good, x_0=a))
    assert out.dram["y"][0].to_ints() == ntt_inv(a).to_ints()


def test_executor_bconv_matches_kernel():
    n = 16
    cm = make_modulus_chain(n, 2, 20)
    bm = make_modulus_chain(n, 1, 21)
    rng = random.Random(3)
    src = RnsBasis(tuple(cm))
    dst = RnsBasis(tuple(bm))
    tables = make_bconv_tables(src, dst)
    limbs = tuple(ntt_inv(ntt_fwd(rand_limb(m, rng, repr=SM)),
                          defer_scale=True) for m in cm)
    want = bconv_merged(RnsPoly(src, limbs), tables)
    text = (f".n {n}\n"
            + "".join(f".mod q{i} {m.q}\n" for i, m in enumerate(cm))
            + f".mod p0 {bm[0].q}\n.dram x 4\n.dram y 4\n"
            "%a = load @x[0]\n%b = load @x[1]\n"
            "%o0 = bconv %a %b : q0 q1 -> p0\n"
            "store %o0, @y[0]\n")
    prog = parse_ir(text)
    out = execute_program(prog, image_for(prog, x_0=limbs[0], x_1=limbs[1]))
    assert out.dram["y"][0].to_ints() == want.limbs[0].to_ints()


def test_executor_loops_equal_unrolled():
    m = make_modulus(97, N)
    rng = random.Random(4)
    vals = [rand_limb(m, rng, repr=SM) for _ in range(4)]
    looped = parse_ir(HEADER + "$i = loop 0, 4\n%a = load @x[$i]\n"
                      "%b = mmul %a, %a, q0\nstore %b, @y[$i]\nendloop\n")
    unrolled = parse_ir(HEADER + "".join(
        f"%a{k} = load @x[{k}]\n%b{k} = mmul %a{k}, %a{k}, q0\n"
        f"store %b{k}, @y[{k}]\n" for k in range(4)))
    img_entries = {f"x_{k}": v for k, v in enumerate(vals)}
    o1 = execute_program(looped, image_for(looped, **img_entries))
    o2 = execute_program(unrolled, image_for(unrolled, **img_entries))
    for k in range(4):
        assert o1.dram["y"][k].to_ints() == o2.dram["y"][k].to_ints()


def test_executor_scalars_and_skipz():
    m = make_modulus(97, N)
    rng = random.Random(5)
    a = rand_limb(m, rng, repr=SM)
    prog = parse_ir(HEADER + "$z = sli 0\n$k = sadd $z, 2\n$j = smul $k, 3\n"
                    "%a = load @x[0]\n"
                    "skipz $z, 1\n"
                    "store %a, @y[0]\n"   # skipped: $z == 0
                    "store %a, @y[1]\n")
    out = execute_program(prog, image_for(prog, x_0=a))
    assert out.dram["y"][0] is None
    assert out.dram["y"][1].to_ints() == a.to_ints()


def test_parse_checks_sources_before_destinations():
    for body in ("$a = sadd $a, 1\n",
                 "%a = load @x[0]\n%v = mmul %v, %v, q0\n"):
        with pytest.raises(IrError, match="use of undefined"):
            parse_ir(HEADER + body)
    # a loop-carried scalar defined before the loop stays legal
    parse_ir(HEADER + "$a = sli 0\n$i = loop 0, 2\n$a = sadd $a, 1\n"
             "endloop\n")
    for body in ("%a = load @x[0]\n$b = sadd %a, 1\n",
                 "%i = loop 0, 2\nendloop\n"):
        with pytest.raises(IrError, match="scalar operands"):
            parse_ir(HEADER + body)


def test_walk_skip_past_a_body_end_ends_the_iteration():
    prog = parse_ir(HEADER + "$i = loop 0, 3\n$p = sadd $i, -1\n"
                    "skipz $p, 9\n%a = load @x[$i]\nstore %a, @y[$i]\n"
                    "endloop\n%b = load @x[0]\nstore %b, @y[7]\n")
    assert [i.srcs[1].base for i in walk(prog) if i.op == "store"] == [0, 2, 7]


def test_walk_rejects_undefined_scalars_and_negative_skips():
    skipped = "$a = sli 0\nskipz $a, 1\n$b = sli 1\n"
    for body, msg in ((skipped + "$c = sadd $b, 1\n", "line 9: scalar \\$b"),
                      (skipped + "%v = load @x[$b]\n", "line 9: scalar \\$b"),
                      ("$a = sli 1\nskipz $a, -1\n", "line 7: skipz")):
        with pytest.raises(IrError, match=msg):
            list(walk(parse_ir(HEADER + body)))


def test_executor_error_paths():
    m = make_modulus(97, N)
    rng = random.Random(6)
    a = rand_limb(m, rng, repr=SM)
    prog = parse_ir(HEADER + "%a = load @x[6]\nstore %a, @y[0]\n")
    with pytest.raises(ExecError, match="read before write"):
        execute_program(prog, image_for(prog, x_0=a))
    prog2 = parse_ir(HEADER + "%a = load @x[0]\n%b = mmad %a, %a, q1\n")
    img = image_for(prog2, x_0=a)
    with pytest.raises(ExecError, match="modulus"):
        execute_program(prog2, img)
    # every operand but a multiplicand must already lie modulo the
    # instruction's prime
    c = rand_limb(make_modulus(113, N), rng, repr=SM)
    for body in ("%b = ntt %a, q1\n", "%b = intt.defer %a, q1\n",
                 "%b = auto %a, 1, q1\n", "%b = mmad %a, %c, q1\n",
                 "%b = mac %a, %c, %c, q1\n", "%b = bconv %a : q1 -> q0\n"):
        p = parse_ir(HEADER + "%a = load @x[0]\n%c = load @x[1]\n" + body)
        with pytest.raises(ExecError, match="operand modulus 97 != 113"):
            execute_program(p, image_for(p, x_0=a, x_1=c))


def test_executor_replays_bad_input_only(monkeypatch):
    # a bug in the waves (a RuntimeError) propagates; bad input (a
    # ValueError) is replayed in order and raises the first failing
    # instruction's error
    m = make_modulus(97, N)
    a = rand_limb(m, random.Random(8), repr=SM)
    prog = parse_ir(HEADER + "%a = load @x[0]\n%b = load @x[1]\n"
                    "%c = mmul %a, %a, q0\n%d = mmul %b, %b, q0\n"
                    "store %c, @y[0]\nstore %d, @y[1]\n")
    img = image_for(prog, x_0=a, x_1=a)
    want = execute_program(prog, img).dram["y"][0].to_ints()

    def broken(operands, error):
        raise error("stacked")

    monkeypatch.setattr(ir, "_stacked",
                        lambda ops: broken(ops, RuntimeError))
    with pytest.raises(RuntimeError, match="stacked"):
        execute_program(prog, img)
    monkeypatch.setattr(ir, "_stacked", lambda ops: broken(ops, ValueError))
    assert execute_program(prog, img).dram["y"][0].to_ints() == want


def test_executor_rejects_an_image_of_another_ring_degree():
    # a slot the program reads, one it does not, one it would overwrite,
    # and one of a symbol it does not declare: every slot is of degree n
    prog = parse_ir(HEADER + "%a = load @x[0]\nstore %a, @y[0]\n")
    half = rand_limb(make_modulus(97, N // 2), random.Random(7), repr=SM)
    full = rand_limb(make_modulus(97, N), random.Random(7), repr=SM)
    for where in ("x_0", "x_5", "y_0", "z_1"):
        img = image_for(prog, x_0=full)
        sym, idx = where.split("_")
        img.dram.setdefault(sym, [None] * 2)[int(idx)] = half
        with pytest.raises(ExecError, match=rf"^@{sym}\[{idx}\] has ring "
                           f"degree {N // 2}, not {N}$"):
            execute_program(prog, img)
    out = execute_program(prog, image_for(prog, x_0=full))
    assert out.dram["y"][0].to_ints() == full.to_ints()


def machine_prog():
    one = sm_encode(1, make_modulus(97, N))
    text = (HEADER + f".const one q0 {one} sm\n"
            "r0 = load @x[0]\n"
            "r1 = mmul r0, !one, q0\n"
            "r1 = mmad r1, r0, q0\n"
            "r2 = intt.defer r1, q0\n"
            "store r1, @y[0]\n")
    p = parse_ir(text)
    p.form = "machine"
    return p


def test_assemble_round_trip():
    p = machine_prog()
    asm = assemble_text(p)
    assert parse_ir(asm).opcount() == p.opcount()
    blob = assemble_binary(p)
    back = disassemble_binary(blob)
    assert back.opcount() == p.opcount()
    assert print_program(back).splitlines()[-5:] == \
        print_program(p).splitlines()[-5:]
    assert [m.q for m in back.moduli.values()] == \
        [m.q for m in p.moduli.values()]
    assert back.consts.keys() == p.consts.keys()


def bad_reference_programs(reg):
    """Programs built in code that break the rule of references on line 2,
    each with the message it must raise: registers named `reg` + k."""
    a, b = Vreg(f"{reg}0"), Vreg(f"{reg}1")
    consts = {"c": ConstDef("c", "q1", 5, SM)}
    for bad, want in (
            (Instr("mmul", (b,), (a, a), "q7", line=2),
             "line 2: unknown modulus 'q7'"),
            (Instr("mmul", (b,), (a, CRef("zz")), "q0", line=2),
             "line 2: unknown constant '!zz'"),
            (Instr("mmul", (b,), (a, CRef("c")), "q0", line=2),
             "line 2: constant !c is for modulus q1, not q0")):
        yield Program(N, {"q0": make_modulus(97, N),
                          "q1": make_modulus(113, N)}, consts,
                      {"x": 8, "y": 8},
                      [Instr("load", (a,), (Addr("x", 0),), line=1), bad,
                       Instr("store", (), (b, Addr("y", 0)), line=3)]), want


def test_programs_built_in_code_meet_the_rule_of_references():
    # the rule the parser keeps holds wherever a program enters the stack:
    # an IrError of the instruction's line, never a KeyError
    entries = ((compile_program, "%"), (execute_program, "%"),
               (execute_program, "r"), (assemble_binary, "r"),
               (lambda p: simulate(p, HardwareDescription()), "r"))
    for enter, reg in entries:
        for prog, want in bad_reference_programs(reg):
            for _ in range(2):          # a failing check is not kept
                with pytest.raises(IrError) as e:
                    if enter is execute_program:
                        enter(prog, blank_image(prog))
                    else:
                        enter(prog)
                assert str(e.value) == want
    # a bconv's basis moduli too
    prog = Program(N, {"q0": make_modulus(97, N)}, (), {"x": 1}, [
        Instr("load", (Vreg("%a"),), (Addr("x", 0),), line=1),
        Instr("bconv", (Vreg("%b"),), (Vreg("%a"),),
              meta={"src_mods": ("q0",), "dst_mods": ("q9",)}, line=2)])
    for enter in (compile_program,
                  lambda p: execute_program(p, blank_image(p))):
        with pytest.raises(IrError, match="line 2: unknown modulus 'q9'"):
            enter(prog)


def test_a_kept_check_is_keyed_by_the_constants_too():
    # a program with other constants is a new program to check: the
    # machine-form scan and the executor's check of references read them
    p = parse_ir(HEADER + ".const c q0 5 sm\nr0 = load @x[0]\n"
                 "r1 = mmul r0, !c, q0\nstore r1, @y[0]\n")
    check_machine_form(p)
    execute_program(p, image_for(p, x_0=rand_limb(
        p.moduli["q0"], random.Random(1), repr=SM)))
    for consts, want in (
            ({}, "line 8: unknown constant '!c'"),
            ({"c": ConstDef("c", "q1", 5, SM)},
             "line 8: constant !c is for modulus q1, not q0")):
        for check in (check_machine_form,
                      lambda q: execute_program(q, blank_image(q))):
            with pytest.raises(IrError) as e:
                check(p.with_(consts=consts))
            assert str(e.value) == want


def test_a_parsed_program_is_checked_for_references_once(monkeypatch):
    # the parser checks each instruction against the header read so far,
    # which a constant declared once cannot change, and keeps that check:
    # compiling or executing what it returns checks no whole program again
    text = HEADER + (".const c q0 5 sm\n%a = load @x[0]\n"
                     "%b = mmul %a, !c, q0\nstore %b, @y[0]\n")
    whole = []
    check = ir.check_refs

    def counted(prog, instrs=None, machine=False):
        if instrs is None:
            whole.append(prog)
        return check(prog, instrs, machine)

    for module in (ir, compiler):
        monkeypatch.setattr(module, "check_refs", counted)
    compile_program(parse_ir(text))
    p = parse_ir(text)
    execute_program(p, image_for(p, x_0=rand_limb(
        p.moduli["q0"], random.Random(2), repr=SM)))
    assert whole == []
    with pytest.raises(IrError, match="line 10: redefinition of constant !c"):
        parse_ir(text + ".const c q1 5 sm\n")


def test_binary_input_is_checked():
    p = parse_ir(HEADER + ".const c q0 5 sm\nr0 = load @x[0]\n"
                 "r1 = mmul r0, !c, q0\nstore r1, @y[0]\n")
    blob = assemble_binary(p)
    # 32-byte header, three 32-byte module/constant entries, two 24-byte
    # symbols, then 16-byte instructions: opcode, flags, modulus, pad and
    # four 24-bit operands (third source first)
    const, load, mmul, store = 96, 176, 192, 208

    def operand(tag, payload):
        return ((tag << 21) | payload).to_bytes(3, "little")

    for at, data, what in ((mmul, b"\x63", "opcode"),
                           (mmul + 2, b"\x09", "modulus index"),
                           (const + 16, b"\x09", "modulus index"),
                           (const + 20, b"\x09", "representation"),
                           (mmul + 7, operand(3, 5), "constant index"),
                           (load + 10, operand(2, 6 << 15), "symbol index"),
                           (load + 10, operand(4, 0), "load source"),
                           (store + 7, operand(0, 0), "store expects 2"),
                           (mmul + 2, b"\x00", "mmul needs a modulus"),
                           (load + 2, b"\x01", "load takes no modulus"),
                           (mmul + 1, b"\x01", "mmul takes no flags")):
        bad = bytearray(blob)
        bad[at:at + len(data)] = data
        with pytest.raises(IrError, match=what):
            check_machine_form(disassemble_binary(bytes(bad)))


def test_assemble_rejects_virtual_regs():
    p = parse_ir(HEADER + "%a = load @x[0]\nstore %a, @y[0]\n")
    with pytest.raises(IrError, match="virtual"):
        assemble_text(p)
    q = parse_ir(HEADER + "$i = loop 0, 2\nendloop\n")
    with pytest.raises(IrError, match="machine-level"):
        check_machine_form(q)


def test_memory_image_round_trip():
    m = make_modulus(97, N)
    rng = random.Random(7)
    prog = parse_ir(HEADER)
    img = blank_image(prog)
    img.dram["x"][0] = rand_limb(m, rng, repr=SM)
    img.dram["x"][3] = ntt_fwd(rand_limb(m, rng, repr=SM))
    blob = save_image(img, N)
    back = load_image(blob)
    assert back.dram["x"][1] is None
    for idx in (0, 3):
        orig, got = img.dram["x"][idx], back.dram["x"][idx]
        assert got.to_ints() == orig.to_ints()
        assert (got.domain, got.order, got.repr) == \
            (orig.domain, orig.order, orig.repr)


# ---------------------------------------------------------------------------
# operand kinds: the parser, the executor and the compiler agree

KIND_HEADER = (f".n {N}\n.mod q0 97\n.mod q1 193\n.dram x 2\n.dram y 8\n"
               f".const c q0 {sm_encode(5, make_modulus(97, N))} sm\n")
# (destinations, opcode, sources, modulus) of every opcode; x holds two
# NTT-domain SM words of q0
KIND_BODY = (
    (["$s"], "sli", ["1"], None),
    (["$t"], "sadd", ["$s", "1"], None),
    (["$u"], "smul", ["$t", "$s"], None),
    (["%a"], "load", ["@x[0]"], None),
    (["%b"], "load", ["@x[1]"], None),
    (["%m"], "mmul", ["%a", "!c"], "q0"),
    (["%d"], "mmad", ["%m", "%b"], "q0"),
    (["%e"], "mac", ["%d", "%a", "%b"], "q0"),
    (["%f"], "auto", ["%e", "1"], "q0"),
    (["%g"], "intt", ["%f"], "q0"),
    (["%h"], "ntt", ["%g"], "q0"),
    (["%k"], "copy", ["%h"], None),
    ([], "store", ["%b", "@x[0]"], None),
    (["$i"], "loop", ["0", "1"], None),
    ([], "skipz", ["$u", "0"], None),
    (["%r"], "bconv", ["%g"], None),
    ([], "store", ["%r", "@y[$i]"], None),
    ([], "endloop", [], None),
    ([], "store", ["%k", "@y[2]"], None),
    ([], "store", ["%e", "@y[3]"], None),
    ([], "store", ["%d", "@y[4]"], None),
)
# a register, an address, a constant, an immediate and a scalar; the
# register is one the instruction already reads, so that only its kind, not
# its value's domain or modulus, differs from the valid program
KINDS = ("%", "@x[0]", "!c", "2", "$s")


def kind_program(body) -> str:
    lines = []
    for dests, op, srcs, mod in body:
        if op == "bconv":
            rhs = f"bconv {' '.join(srcs)} : q0 -> q1"
        else:
            rhs = " ".join([op, ", ".join(srcs + ([mod] if mod else []))])
        lines.append(f"{' '.join(dests)} = {rhs}" if dests else rhs.strip())
    return KIND_HEADER + "\n".join(lines) + "\n"


def kind_variants():
    """Each program that puts one operand kind at one operand position."""
    for k, (dests, op, srcs, mod) in enumerate(KIND_BODY):
        for side in ("dests", "srcs"):
            ops = dests if side == "dests" else srcs
            for pos in range(len(ops)):
                for kind in KINDS:
                    if kind == "%":
                        kind = next((s for s in srcs if s[0] == "%"), "%a")
                    if kind == ops[pos]:
                        continue
                    swapped = list(ops)
                    swapped[pos] = kind
                    line = (swapped, op, srcs, mod) if side == "dests" \
                        else (dests, op, swapped, mod)
                    body = KIND_BODY[:k] + (line,) + KIND_BODY[k + 1:]
                    yield k + KIND_HEADER.count("\n") + 1, \
                        kind_program(body)


def dram_words(prog, img):
    """Every DRAM word after running prog, or the error it raised."""
    try:
        out = execute_program(prog, img)
    except (ExecError, IrError, ContractError, ReprError) as e:
        return type(e)
    return {sym: [None if v is None else v.to_ints() for v in vals]
            for sym, vals in out.dram.items() if sym != "__spill"}


def test_operand_kinds_parse_errors_or_compile_faithfully():
    rng = random.Random(31)
    m = make_modulus(97, N)
    words = [ntt_fwd(rand_limb(m, rng, repr=SM)) for _ in range(2)]
    base = parse_ir(kind_program(KIND_BODY))
    img = image_for(base, x_0=words[0], x_1=words[1])
    assert isinstance(dram_words(base, img), dict)
    tried = rejected = 0
    for lineno, text in kind_variants():
        tried += 1
        try:
            prog = parse_ir(text)
        except IrError as e:
            # the line itself, or a later read of a result it no longer
            # writes
            assert e.line == lineno or "undefined" in str(e), (text, e)
            rejected += 1
            continue
        want = dram_words(prog, img)
        try:
            got = dram_words(compile_program(prog), img)
        except IrError:
            got = "compile error"
        # both sides raising is agreement too
        assert got == want or (not isinstance(want, dict)
                               and not isinstance(got, dict)), text
    assert tried > 200 and 0 < rejected < tried


# each IR value class with (arguments, repr, str) of two values; the repr
# and str are those of the classes before they stored through slots
IR_VALUES = (
    (Instr, (("mmul", (Vreg("r1"),), (Vreg("r0"), CRef("c0")), "q0",
              NO_FLAGS, {"bc": True}, 7),
             "Instr(op='mmul', dests=(Vreg(name='r1'),), srcs=(Vreg(name="
             "'r0'), CRef(name='c0')), mod='q0', flags=frozenset(), "
             "meta={'bc': True}, line=7)", "r1 = mmul r0, !c0, q0"),
     (("intt", (Vreg("%t"),), (Addr("x", 1),), "q1", DEFER),
      "Instr(op='intt', dests=(Vreg(name='%t'),), srcs=(Addr(sym='x', "
      "base=1, terms=()),), mod='q1', flags=frozenset({'defer'}), meta={}, "
      "line=0)", "%t = intt.defer @x[1], q1")),
    (Vreg, (("r1",), "Vreg(name='r1')", "r1"),
     (("%a.3",), "Vreg(name='%a.3')", "%a.3")),
    (SRef, (("$i",), "SRef(name='$i')", "$i"), (("$j",), "SRef(name='$j')",
                                                 "$j")),
    (CRef, (("r1",), "CRef(name='r1')", "!r1"), (("c",), "CRef(name='c')",
                                                 "!c")),
    (Imm, ((-5,), "Imm(val=-5)", "-5"), ((3,), "Imm(val=3)", "3")),
    (Addr, (("x", 2, (("$i", 3), ("$j", 1))),
            "Addr(sym='x', base=2, terms=(('$i', 3), ('$j', 1)))",
            "@x[2+3*$i+$j]"),
     (("y",), "Addr(sym='y', base=0, terms=())", "@y[0]")),
)


@pytest.mark.parametrize("cls,first,second", IR_VALUES,
                         ids=[c.__name__ for c, *_ in IR_VALUES])
def test_ir_values_are_frozen_slotted_dataclasses(cls, first, second):
    for args, text, shown in (first, second):
        v = cls(*args)
        assert repr(v) == text and str(v) == shown
        assert not hasattr(v, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(v, next(iter(cls.__dataclass_fields__)), args[0])
        same = cls(*args)
        assert v == same and v is not same
        if cls is not Instr:            # an Instr's meta is a dict
            assert hash(v) == hash(same)
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert back == v and repr(back) == text
    assert cls(*first[0]) != cls(*second[0])
    # equality goes by class too: a register is no constant of that name
    assert Vreg("r1") != CRef("r1") and SRef("$i") != Vreg("$i")
    defaulted = Instr("ntt")
    assert (defaulted.dests, defaulted.srcs, defaulted.mod, defaulted.flags,
            defaulted.meta, defaulted.line) == ((), (), None, NO_FLAGS, {}, 0)
    assert defaulted.meta is Instr("ntt").meta is NO_META
    assert Addr(sym="x") == Addr("x", 0, ())


def test_instructions_share_their_meta():
    # every instruction without meta shares one empty mapping, and the
    # instructions that lowering makes of a bconv share one {"bc": True}
    wp = WorkloadParams(n=2 ** 16, levels=12, dnum=4, l_cts=2, l_evalmod=4,
                        l_stc=2)
    src = parse_ir(gen_bootstrap_skeleton(wp))
    compiled = compile_program(src, HardwareDescription())
    back = disassemble_binary(assemble_binary(compiled))
    bconvs = [i for i in src.instrs if i.op == "bconv"]
    assert len({id(i.meta) for i in src.instrs}) == 1 + len(bconvs)
    assert {id(i.meta) for i in src.instrs if i.op != "bconv"} == \
        {id(NO_META)}
    shared = {id(i.meta): i.meta for i in compiled.instrs}
    assert sorted(shared.values(), key=len) == [{}, {"bc": True}]
    assert id(NO_META) in shared and NO_META == {}
    assert {id(i.meta) for i in back.instrs} == {id(NO_META)}


# the .ebin code of each machine opcode, as the format has always numbered
# them, whether it takes a modulus, and the flags it may carry
MACHINE = {"mmul": (1, True, ()), "mmad": (2, True, ()),
           "mac": (3, True, ()), "ntt": (4, True, ()),
           "intt": (5, True, ("defer",)), "auto": (6, True, ()),
           "load": (7, False, ()), "store": (8, False, ())}


def mix_oracle(op: str, bc: bool) -> list[str]:
    """The instruction-mix categories of one instruction, by the if-chain
    `instruction_mix` was before it read the opcode table; a `mac` counts
    as a multiply and an add."""
    if op == "mac":
        return ["BC_MULT", "BC_ADD"] if bc else ["MULT", "ADD"]
    if op == "mmul":
        return ["BC_MULT" if bc else "MULT"]
    if op == "mmad":
        return ["BC_ADD" if bc else "ADD"]
    if op in ("ntt", "intt"):
        return ["NTT"]
    if op == "auto":
        return ["AUTO"]
    if op in ("load", "store"):
        return ["LOAD/STORE"]
    return ["OTHERS"]


TABLE_HEADER = ".n 16\n.mod q0 97\n.mod q1 193\n.dram x 4\n.const c q0 5 sm\n"
# a sample of each operand kind: as a result and as a source in source
# form, and in machine form (None: no sample there)
KIND_SAMPLES = {Vreg: ("%d", "%a", "r2", "r1"),
                Addr: ("@x[2]", "@x[1]", "@x[2]", "@x[1]"),
                CRef: ("!c", "!c", "!c", "!c"), Imm: ("3", "3", "3", "3"),
                SRef: ("$t", "$s", None, None)}


def table_text(op: str, kinds: list, machine=False, flag="") -> str:
    """A program of one `op` whose operands have the given kinds, after
    the definitions that a source-form operand reads."""
    ndests = len(OPCODES[op].dests)
    column = 2 if machine else 0
    names = [KIND_SAMPLES[k][column + (pos >= ndests)]
             for pos, k in enumerate(kinds)]
    rhs = ", ".join(names[ndests:] + ["q0"] * OPCODES[op].mod)
    line = f"{op}{flag} {rhs}".rstrip()
    if ndests:
        line = f"{' '.join(names[:ndests])} = {line}"
    before = "" if machine else "%a = load @x[0]\n$s = sli 1\n"
    if op == "endloop":
        before += "$i = loop 0, 1\n"
    return TABLE_HEADER + before + line + ("\nendloop" if op == "loop"
                                           else "") + "\n"


@pytest.mark.parametrize("op", sorted(OPCODES))
def test_every_opcode_by_the_table(op):
    row = OPCODES[op]
    if row.dests is None:               # bconv: registers and two bases
        prog = parse_ir(TABLE_HEADER + "%a = load @x[0]\n"
                        "%d = bconv %a : q0 -> q1\n")
        assert prog.instrs[-1].meta == {"src_mods": ("q0",),
                                        "dst_mods": ("q1",)}
        with pytest.raises(IrError, match="registers only"):
            parse_ir(TABLE_HEADER + "%d = bconv @x[0] : q0 -> q1\n")
    else:
        # parse_ir accepts each kind a position takes, with the first kind
        # of every other position, and rejects any other kind
        positions = row.dests + row.srcs
        first = [kinds[0] for kinds, _ in positions]
        for pos, (kinds, complaint) in enumerate(positions):
            for kind in KIND_SAMPLES:
                text = table_text(op, first[:pos] + [kind] + first[pos + 1:])
                if kind in kinds:
                    assert parse_ir(text).instrs[-1 - (op == "loop")].op == op
                else:
                    with pytest.raises(IrError, match=f"{op} {complaint}"):
                        parse_ir(text)
        # the one flag there is
        text = table_text(op, first, flag=".defer")
        if "defer" in row.flags:
            assert parse_ir(text).instrs[-1].flags == DEFER
        else:
            with pytest.raises(IrError, match="unknown opcode suffix"):
                parse_ir(text)
    for bc in (False, True):
        one = Instr(op, meta={"bc": True} if bc else NO_META)
        want = instruction_mix(Program(16))
        for cat in mix_oracle(op, bc):
            want[cat] += 1
        assert instruction_mix(Program(16, instrs=[one])) == want
    assert (op in FU_CLASS) == (op in MACHINE)
    if op not in MACHINE:
        with pytest.raises(IrError, match=f"'{op}' is not machine-level"):
            check_machine_form(Program(16, instrs=[Instr(op)]))
        return
    code, takes_mod, flags = MACHINE[op]
    prog = parse_ir(table_text(op, first, machine=True))
    check_machine_form(prog)
    i = prog.instrs[0]
    with pytest.raises(IrError, match=f"{op} needs a modulus" if takes_mod
                       else f"{op} takes no modulus"):
        check_machine_form(prog.with_([i.with_(mod=None if takes_mod
                                               else "q0")]))
    flagged = prog.with_([i.with_(flags=DEFER)])
    if flags:
        check_machine_form(flagged)
    else:
        with pytest.raises(IrError, match=f"{op} takes no flags"):
            check_machine_form(flagged)
    # the .ebin code: the first byte of the instruction's record
    for p in (prog, flagged) if flags else (prog,):
        blob = assemble_binary(p)
        assert blob[-16] == code
        assert print_program(disassemble_binary(blob)) == print_program(p)


def test_a_checked_program_cannot_change():
    # the machine-form check is kept on a program, which cannot change; the
    # two changes that once made a kept check stale now make new programs,
    # each checked and rejected as before
    text = HEADER + "r0 = load @x[5]\nr1 = mmul r0, r0, q0\nstore r1, @y[0]\n"
    virtual = parse_ir(HEADER + "%a = load @x[0]\n"
                       "%b = mmul %a, %a, q0\n").instrs[1]
    p = parse_ir(text)
    check_machine_form(p)
    with pytest.raises(TypeError):
        p.instrs[1] = virtual
    with pytest.raises(TypeError):
        p.dram["x"] = 5
    for name in ("n", "moduli", "consts", "dram", "instrs"):
        with pytest.raises(AttributeError, match="cannot change"):
            setattr(p, name, getattr(p, name))
    p.notes["streaming"] = True         # notes and new attributes may be set
    p.form = "machine"
    check_machine_form(p)
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert twin == p and twin.instrs == p.instrs
        with pytest.raises(TypeError):
            twin.dram["x"] = 5
    assert print_program(p) == print_program(parse_ir(text))
    swapped = p.with_(p.instrs[:1] + (virtual,) + p.instrs[2:])
    shrunk = p.with_(dram={**p.dram, "x": 5})
    for bad, want in ((swapped, "line 7: virtual register %b survives in "
                                "machine code"),
                      (shrunk, "line 6: address @x[5] out of range "
                               "(size 5)")):
        for _ in range(2):              # a failing check is not kept
            with pytest.raises(IrError) as e:
                check_machine_form(bad)
            assert str(e.value) == want


def test_a_round_trip_scans_each_program_once(monkeypatch):
    # the compile_boot round trip: five form checks, one scan of each of
    # its two programs
    boot = gen_bootstrap_skeleton(WorkloadParams(
        n=2 ** 16, levels=12, dnum=4, l_cts=2, l_evalmod=4, l_stc=2))
    hw = HardwareDescription()
    machine = compile_program(boot, hw)
    scans = []
    scan = asm._scan_machine_form
    monkeypatch.setattr(asm, "_scan_machine_form",
                        lambda p: scans.append(p) or scan(p))
    back = disassemble_binary(assemble_binary(machine))
    assert assemble_text(back) == assemble_text(machine)
    simulate(back, hw)
    assert [p is machine for p in scans] == [True, False]
