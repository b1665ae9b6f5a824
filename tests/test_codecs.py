"""The ISA's text and binary codecs against the record-by-record oracles
of codec_oracles.py, and the one shape memo of the operand checks.

Each codec must give what its oracle gives: an equal program, the same
text or the same bytes, or an exception of the same type, message and
line.  The operand checks run once per instruction shape in a process,
for the parser and the machine-form scan alike, so a shape that passed
must still let each instruction's own operands fail.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from effact import asm, ir
from effact.asm import (assemble_binary, check_machine_form,
                        disassemble_binary)
from effact.compiler import HardwareDescription, compile_program
from effact.ir import (DEFER, NO_FLAGS, OPCODES, Addr, CRef, Imm, Instr,
                       IrError, Program, SRef, Vreg, machine_regs, parse_ir,
                       print_program)
from effact.rns import make_modulus

from codec_oracles import (assemble_binary_oracle, disassemble_binary_oracle,
                           parse_ir_oracle, print_program_oracle,
                           scan_machine_form_oracle)
from test_compiler import GOLDEN, random_program

N = 16
HEADER = (f".n {N}\n.mod q0 97\n.mod q1 113\n.dram x 8\n.dram y 8\n"
          ".const c q0 5 sm\n")


def outcome(fn, arg):
    """("ok", fn(arg)), or the type, message and line of what it raised."""
    try:
        return "ok", fn(arg)
    except Exception as e:          # of any type: the oracle's must match
        return type(e), str(e), getattr(e, "line", None)


def scanned(prog):
    """The machine-form scan of a program without the kept analyses:
    `asm._scan_machine_form` runs, not a pass kept on `prog`."""
    asm._scan_machine_form(prog)
    return True


def scanned_oracle(prog):
    scan_machine_form_oracle(prog)
    return True


def same_text_codecs(text):
    """parse_ir of `text`, and of the printed program, as the oracle's;
    the parsed program's print and scan too.  Returns the program or
    None."""
    got = outcome(parse_ir, text)
    assert got == outcome(parse_ir_oracle, text)
    if got[0] != "ok":
        return None
    prog = got[1]
    printed = print_program(prog)
    assert printed == print_program_oracle(prog)
    assert parse_ir(printed) == parse_ir_oracle(printed)
    assert outcome(scanned, prog.clone()) == \
        outcome(scanned_oracle, prog.clone())
    return prog


def same_binary_codecs(prog):
    """The scan, print, assemble and disassemble of a program as the
    oracles'."""
    assert print_program(prog) == print_program_oracle(prog)
    assert outcome(scanned, prog.clone()) == \
        outcome(scanned_oracle, prog.clone())
    got = outcome(assemble_binary, prog.clone())
    assert got == outcome(assemble_binary_oracle, prog.clone())
    if got[0] == "ok":
        same_disassembly(got[1])
    return got


def same_disassembly(blob):
    got = outcome(disassemble_binary, blob)
    assert got == outcome(disassemble_binary_oracle, blob)
    if got[0] == "ok":
        assert outcome(scanned, got[1]) == outcome(scanned_oracle, got[1])
    return got


@pytest.mark.parametrize("gen,wp,prefix", GOLDEN,
                         ids=["desk_ks", "hoisted", "helr", "l12_boot",
                              "l24_ks"])
def test_codecs_match_their_oracles_on_golden_programs(gen, wp, prefix):
    text = gen(wp)
    same_text_codecs(text)
    machine = compile_program(text, HardwareDescription())
    got = same_binary_codecs(machine)
    assert got[0] == "ok"
    same_text_codecs(print_program(machine))


def test_codecs_match_their_oracles_on_random_programs():
    hws = [HardwareDescription(slots=slots, streaming=on, fifo_depth=4)
           for slots in (4, 64) for on in (True, False)]
    for seed in range(20):
        src = random_program(random.Random(seed), size=40)
        same_text_codecs(print_program(src))
        for hw in hws:
            same_binary_codecs(compile_program(src, hw))


SMALL_EASM = (HEADER + "r0 = load @x[0]\nr1 = mmul r0, !c, q0\n"
              "r1 = mac r1, r0, r1, q0\nr2 = intt.defer r1, q0\n"
              "r3 = auto r2, 3, q0\nstore r3, @y[7]\n")


def test_every_substituted_easm_byte_parses_as_the_oracle_parses():
    # each byte of a small `.easm` replaced by each of the 256 values (read
    # as Latin-1, one character per byte)
    data = SMALL_EASM.encode()
    assert same_text_codecs(SMALL_EASM) is not None
    for at in range(len(data)):
        for byte in range(256):
            if byte != data[at]:
                bad = data[:at] + bytes((byte,)) + data[at + 1:]
                same_text_codecs(bad.decode("latin-1"))


def test_every_substituted_ebin_byte_decodes_as_the_oracle_decodes():
    blob = assemble_binary(parse_ir(SMALL_EASM))
    assert len(blob) == 32 + 32 * 3 + 24 * 2 + 16 * 6
    for at in range(len(blob)):
        for byte in range(256):
            if byte != blob[at]:
                same_disassembly(blob[:at] + bytes((byte,)) + blob[at + 1:])
    # a truncated or extended blob, and faults in two records or in the
    # operands and the head of one: the first record's fault is raised,
    # and a record's operand fields are decoded before its head
    for bad in (blob[:-1], blob + b"\0", blob[:40]):
        same_disassembly(bad)
    bad_tag = (7 << 21).to_bytes(3, "little")
    for head_at, tag_at, want in ((-16, -48, "bad operand tag 7"),
                                  (-48, -16, "unknown opcode 99"),
                                  (-32, -32, "bad operand tag 7")):
        two = bytearray(blob)
        two[head_at] = 99
        two[tag_at + 4:tag_at + 7] = bad_tag
        assert same_disassembly(bytes(two))[1] == want


# ---------------------------------------------------------------------------
# machine code of every shape, right and wrong

REGS = [*machine_regs("r", 4)[:4], *machine_regs("f", 2)[:2], Vreg("%a"),
        Vreg(f"r{1 << 21}")]
OPERANDS = st.one_of(
    st.sampled_from(REGS),
    st.builds(Addr, st.sampled_from(["x", "y", "z"]), st.integers(-1, 9),
              st.sampled_from([(), (("$i", 1),)])),
    st.sampled_from([CRef("c"), CRef("d")]),
    st.builds(Imm, st.sampled_from([0, 3, 1 << 21])),
    st.just(SRef("$i")),
)
MACHINE_OPS = sorted(op for op, row in OPCODES.items() if row.code)


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(MACHINE_OPS + ["copy", "sli"]))
    row = OPCODES[op]
    if draw(st.integers(0, 3)):         # mostly the counts of its row
        ndests, nsrcs = len(row.dests), len(row.srcs)
    else:
        ndests, nsrcs = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    mod = draw(st.sampled_from([None, "q0", "q1", "q9"] if row.mod
                               else [None, None, "q0"]))
    if row.mod and draw(st.integers(0, 3)):
        mod = mod or "q0"
    return Instr(op, tuple(draw(OPERANDS) for _ in range(ndests)),
                 tuple(draw(OPERANDS) for _ in range(nsrcs)), mod,
                 draw(st.sampled_from([NO_FLAGS, NO_FLAGS, DEFER])),
                 line=draw(st.integers(0, 9)))


def machine_program(instrs):
    return Program(N, {"q0": make_modulus(97, N), "q1": make_modulus(113, N)},
                   {"c": parse_ir(HEADER).consts["c"]}, {"x": 8, "y": 8},
                   instrs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(instructions(), min_size=1, max_size=6))
def test_machine_code_codecs_match_their_oracles(instrs):
    # shapes that passed in one example meet wrong operands in another:
    # the memos are process-wide
    same_binary_codecs(machine_program(instrs))


def test_assembly_faults_are_raised_in_record_order():
    # the scan's faults first, with their instruction's line: an unknown
    # modulus, then an unknown constant among the operands; then the
    # encoder's, with no line: the result, then each source in order
    r0, r1 = machine_regs("r", 2)[:2]
    big, wide = Imm(1 << 21), Vreg(f"r{1 << 21}")
    for instrs, want in (
            ([Instr("auto", (r1,), (r0, big), "q9", line=1)],
             ("line 1: unknown modulus 'q9'", 1)),
            ([Instr("auto", (r1,), (r0, big), "q0", line=1),
              Instr("auto", (r1,), (r0, Imm(1)), "q9", line=2)],
             ("line 2: unknown modulus 'q9'", 2)),
            ([Instr("auto", (r1,), (r0, Imm(1)), "q9", line=1),
              Instr("auto", (r1,), (r0, big), "q0", line=2)],
             ("line 1: unknown modulus 'q9'", 1)),
            ([Instr("mmul", (wide,), (r0, CRef("d")), "q0", line=1)],
             ("line 1: unknown constant '!d'", 1)),
            ([Instr("mac", (r1,), (r0, wide, CRef("c")), "q0", line=1)],
             ("operand r2097152 not encodable", None)),
            ([Instr("mmul", (r1,), (r0, CRef("d")), "q0", line=1)],
             ("line 1: unknown constant '!d'", 1)),
            ([Instr("auto", (r1,), (r0, big), "q0", line=1)],
             ("operand 2097152 not encodable", None))):
        assert same_binary_codecs(machine_program(instrs))[1:] == want


# ---------------------------------------------------------------------------
# the shape memo decides only what the shape decides

class Shapes(set):
    """The shape memo of `ir.check_operands`, recording each shape it is
    asked for and does not hold: each check against the table."""

    def __init__(self):
        super().__init__()
        self.checked = []

    def __contains__(self, shape):
        held = super().__contains__(shape)
        if not held:
            self.checked.append(shape)
        return held


@pytest.fixture
def fresh_shapes(monkeypatch):
    """An empty shape memo, and the shapes checked against the table."""
    shapes = Shapes()
    monkeypatch.setattr(ir, "_SHAPES", shapes)
    return shapes.checked


def scan_error(instrs):
    with pytest.raises(IrError) as e:
        check_machine_form(machine_program(instrs))
    return str(e.value)


def test_a_passed_shape_still_checks_each_instructions_operands(
        fresh_shapes):
    r0, r1 = machine_regs("r", 2)[:2]
    good = Instr("mmul", (r1,), (r0, Addr("x", 1)), "q0", line=3)
    scaled = good.with_(srcs=(r0, CRef("c")))
    check_machine_form(machine_program([good, scaled]))
    assert len(fresh_shapes) == 2
    # the same shapes: modulus, result, register, address, constant
    for bad, want in (
            (good.with_(mod="q9"), "line 3: unknown modulus 'q9'"),
            (good.with_(dests=(Vreg("%b"),)),
             "line 3: virtual register %b survives in machine code"),
            (good.with_(srcs=(Vreg("%a"), Addr("x", 1))),
             "line 3: virtual register %a survives in machine code"),
            (good.with_(srcs=(r0, Addr("x", 0, (("$i", 1),)))),
             "line 3: non-constant address @x[$i] in machine code"),
            (good.with_(srcs=(r0, Addr("x", 8))),
             "line 3: address @x[8] out of range (size 8)"),
            (good.with_(srcs=(r0, Addr("x", -1))),
             "line 3: address @x[-1] out of range (size 8)"),
            (good.with_(srcs=(r0, Addr("w", 0))),
             "line 3: unknown symbol '@w'"),
            (scaled.with_(srcs=(r0, CRef("d"))),
             "line 3: unknown constant '!d'"),
            (scaled.with_(mod="q1"),
             "line 3: constant !c is for modulus q0, not q1")):
        assert scan_error([good, scaled, bad]) == want
    assert len(fresh_shapes) == 2
    # a shape that differs only in its modulus or its flags is checked
    assert scan_error([good, good.with_(mod=None)]) == \
        "line 3: mmul needs a modulus"
    assert scan_error([good, good.with_(flags=DEFER)]) == \
        "line 3: mmul takes no flags"
    assert len(fresh_shapes) == 4
    intt = Instr("intt", (r1,), (r0,), "q0")
    check_machine_form(machine_program([intt, intt.with_(flags=DEFER)]))
    assert len(fresh_shapes) == 6
    load = Instr("load", (r1,), (Addr("x", 0),))
    assert scan_error([load.with_(mod="q0")]) == "load takes no modulus"
    assert len(fresh_shapes) == 7
    # the parser's shapes are in the same memo, and a shape that the
    # parser admits is still no machine code
    copy = Instr("copy", (r1,), (r0,), line=4)
    assert scan_error([copy]) == "line 4: opcode 'copy' is not machine-level"
    assert len(fresh_shapes) == 7


def test_a_parsed_shape_still_checks_each_instructions_operands(
        fresh_shapes):
    good = HEADER + "%a = load @x[0]\n%b = mmul %a, !c, q0\n"
    parse_ir(good)
    assert len(fresh_shapes) == 2
    for line, want in (
            ("%b = mmul %a, !d, q0", "line 8: unknown constant '!d'"),
            ("%b = mmul %a, !c, q1",
             "line 8: constant !c is for modulus q0, not q1"),
            ("%b = mmul %z, !c, q0", "line 8: use of undefined register %z"),
            ("%b = load @w[0]", "line 8: unknown symbol '@w'"),
            ("%b = load @x[$i]", "line 8: use of undefined scalar $i"),
            ("%a = load @x[1]", "line 8: redefinition of %a")):
        with pytest.raises(IrError) as e:
            parse_ir(HEADER + "%a = load @x[0]\n" + line + "\n")
        assert str(e.value) == want
    assert len(fresh_shapes) == 2
    # a parsed shape is the scan's too: machine code of it checks nothing
    # against the table again
    check_machine_form(parse_ir(HEADER + "r0 = load @x[0]\n"
                                "r1 = mmul r0, !c, q0\n"))
    assert len(fresh_shapes) == 2
