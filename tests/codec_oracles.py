"""The ISA's text and binary codecs as they were before they worked by
operand and by shape: one `_parse_operand` call per token, one
`check_operands` run and one `str` per instruction and operand, one
`struct.pack` and one shift loop per instruction record.  The tests check
the package's codecs against these: equal programs, text and bytes, or
the same IrError message and line.

Only the helpers the package did not change are imported: the directive
parser, the modulus and address checks, and the name packer and index
codec of `.ebin` records.  Three rules are newer than the record-by-record
codecs, and the oracles keep them too: the machine-form scan rejects an
undeclared modulus or constant, the parser and the scan reject a constant
of another modulus than its instruction's, and the disassembler reports a
table name that is not UTF-8 or a modulus `make_modulus` rejects as an
IrError that names the table entry.
"""

import struct

from effact.asm import (_CODES, _EXE_MAGIC, _OPNAMES, _T_ADDR, _T_CONST,
                        _T_FIFO, _T_IMM, _T_NONE, _T_REG, _entry, _pack_name)
from effact.ir import (DEFER, NO_FLAGS, NO_META, OPCODES, Addr, ConstDef,
                       CRef, Imm, Instr, IrError, Program, SRef, Vreg,
                       _digits, _Header, _parse_affine, _parse_directive,
                       _require_mod, check_address, machine_regs)
from effact.rns import REPR_NAMES, make_modulus


# ---------------------------------------------------------------------------
# the operand-kind check, and the text parser

def check_operands_oracle(i):
    dests, srcs = OPCODES[i.op][:2]
    if len(i.srcs) != len(srcs) or len(i.dests) != len(dests):
        raise IrError(f"{i.op} expects {len(srcs)} operands", i.line)
    for o, (ok, complaint) in zip(i.dests + i.srcs, dests + srcs):
        if not isinstance(o, ok):
            raise IrError(f"{i.op} {complaint}", i.line)


def _parse_operand(tok, line):
    tok = tok.strip()
    if tok.startswith("%") or (tok[:1] in ("r", "f") and _digits(tok[1:])):
        return Vreg(tok)
    if tok.startswith("$"):
        return SRef(tok)
    if tok.startswith("!"):
        return CRef(tok[1:])
    if tok.startswith("@"):
        if "[" not in tok or not tok.endswith("]"):
            raise IrError(f"malformed address '{tok}'", line)
        sym, expr = tok[1:-1].split("[", 1)
        base, terms = _parse_affine(expr, line)
        return Addr(sym, base, terms)
    if _digits(tok.removeprefix("-")):
        return Imm(int(tok))
    raise IrError(f"unrecognized operand '{tok}'", line)


def _operand(tok, line, seen):
    o = seen.get(tok)
    if o is None:
        o = seen[tok] = _parse_operand(tok, line)
    return o


def _split_ops(rest):
    return [t.strip() for t in rest.split(",") if t.strip()]


def _parse_instr(prog, line, lineno, seen):
    dests = ()
    body = line
    if "=" in line:
        lhs, body = (t.strip() for t in line.split("=", 1))
        dests = tuple(_operand(t, lineno, seen) for t in lhs.split())
    toks = body.split(None, 1)
    if not toks:
        raise IrError("missing opcode", lineno)
    opname = toks[0]
    rest = toks[1] if len(toks) > 1 else ""
    op, _, flag = opname.partition(".")
    if op not in OPCODES:
        raise IrError(f"unknown opcode '{opname}'", lineno)
    if flag and flag not in OPCODES[op].flags:
        raise IrError(f"unknown opcode suffix '.{flag}'", lineno)
    flags = DEFER if flag else NO_FLAGS

    if op == "bconv":
        if "->" not in rest or ":" not in rest:
            raise IrError("bconv needs ': src-mods -> dst-mods'", lineno)
        args, basis = rest.split(":", 1)
        srcm, dstm = (t.split() for t in basis.split("->", 1))
        srcs = tuple(_operand(t, lineno, seen) for t in args.split())
        for m in srcm + dstm:
            _require_mod(prog, m, lineno)
        qs = [prog.moduli[m].q for m in srcm + dstm]
        if len(set(qs)) != len(qs):
            raise IrError("bconv moduli must be pairwise distinct", lineno)
        if len(srcs) != len(srcm) or len(dests) != len(dstm):
            raise IrError("bconv operand/basis arity mismatch", lineno)
        if not all(isinstance(o, Vreg) for o in dests + srcs):
            raise IrError("bconv takes registers only", lineno)
        return Instr(op, dests, srcs, None, flags,
                     {"src_mods": tuple(srcm), "dst_mods": tuple(dstm)},
                     lineno)

    mod = None
    toks2 = _split_ops(rest)
    if OPCODES[op].mod:
        if len(toks2) < 2:
            raise IrError(f"{op} needs a modulus", lineno)
        mod = _require_mod(prog, toks2[-1], lineno)
        toks2 = toks2[:-1]
    ops = tuple(_operand(t, lineno, seen) for t in toks2)
    instr = Instr(op, dests, ops, mod, flags, NO_META, lineno)
    check_operands_oracle(instr)
    for o in ops:
        if isinstance(o, Addr) and o.sym not in prog.dram:
            raise IrError(f"unknown symbol '@{o.sym}'", lineno)
        if isinstance(o, CRef) and o.name not in prog.consts:
            raise IrError(f"unknown constant '!{o.name}'", lineno)
        if isinstance(o, CRef) and prog.consts[o.name].mod != mod:
            raise IrError(f"constant !{o.name} is for modulus "
                          f"{prog.consts[o.name].mod}, not {mod}", lineno)
    return instr


def parse_ir_oracle(text):
    prog = _Header()
    instrs = []
    defined = set()
    loop_stack = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            _parse_directive(prog, line, lineno)
            continue
        if prog.n == 0:
            raise IrError("instructions before .n directive", lineno)
        instr = _parse_instr(prog, line, lineno, seen)
        if instr.op == "loop":
            loop_stack.append(lineno)
        elif instr.op == "endloop":
            if not loop_stack:
                raise IrError("endloop without loop", lineno)
            loop_stack.pop()
        for s in instr.srcs:
            if isinstance(s, Vreg) and str(s).startswith("%") \
                    and str(s) not in defined:
                raise IrError(f"use of undefined register {s}", lineno)
            if isinstance(s, SRef) and str(s) not in defined:
                raise IrError(f"use of undefined scalar {s}", lineno)
        for a in instr.srcs + instr.dests:
            for name, _ in a.terms if isinstance(a, Addr) else ():
                if name not in defined:
                    raise IrError(f"use of undefined scalar {name}", lineno)
        for d in instr.dests:
            name = str(d)
            if name.startswith("%") or name.startswith("$"):
                if name.startswith("%") and name in defined:
                    raise IrError(f"redefinition of {name}", lineno)
                defined.add(name)
        instrs.append(instr)
    if loop_stack:
        raise IrError("unterminated loop", loop_stack[-1])
    return Program(prog.n, prog.moduli, prog.consts, prog.dram, instrs)


# ---------------------------------------------------------------------------
# the printer

def print_instr_oracle(i):
    opname = i.op + ("." + next(iter(i.flags)) if i.flags else "")
    if i.op == "bconv":
        lhs = " ".join(str(d) for d in i.dests)
        args = " ".join(str(s) for s in i.srcs)
        return (f"{lhs} = bconv {args} : {' '.join(i.meta['src_mods'])} -> "
                f"{' '.join(i.meta['dst_mods'])}")
    parts = [str(s) for s in i.srcs]
    if i.mod:
        parts.append(i.mod)
    rhs = f"{opname} {', '.join(parts)}" if parts else opname
    if i.dests:
        return f"{' '.join(str(d) for d in i.dests)} = {rhs}"
    return rhs


def print_program_oracle(p):
    lines = [f".n {p.n}"]
    for name, m in p.moduli.items():
        lines.append(f".mod {name} {m.q} {m.r_bits}")
    for sym, count in p.dram.items():
        lines.append(f".dram {sym} {count}")
    for c in p.consts.values():
        suffix = " absorb" if c.absorb else ""
        lines.append(f".const {c.name} {c.mod} {c.value} "
                     f"{REPR_NAMES[c.repr]}{suffix}")
    lines += [print_instr_oracle(i) for i in p.instrs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the machine-form scan, and the binary codecs

def scan_machine_form_oracle(prog):
    for i in prog.instrs:
        if i.op not in _CODES:
            raise IrError(f"opcode '{i.op}' is not machine-level", i.line)
        check_operands_oracle(i)
        row = OPCODES[i.op]
        if (i.mod is None) == row.mod:
            raise IrError(f"{i.op} needs a modulus" if i.mod is None
                          else f"{i.op} takes no modulus", i.line)
        if not i.flags <= row.flags:
            raise IrError(f"{i.op} takes no flags", i.line)
        if i.mod is not None and i.mod not in prog.moduli:
            raise IrError(f"unknown modulus '{i.mod}'", i.line)
        for o in i.dests + i.srcs:
            if isinstance(o, Vreg) and o.name[:1] == "%":
                raise IrError(f"virtual register {o} survives in machine "
                              "code", i.line)
            if isinstance(o, Addr):
                if o.terms:
                    raise IrError(f"non-constant address {o} in machine "
                                  "code", i.line)
                check_address(prog, o, i.line)
            if isinstance(o, CRef) and o.name not in prog.consts:
                raise IrError(f"unknown constant '!{o.name}'", i.line)
            if isinstance(o, CRef) and prog.consts[o.name].mod != i.mod:
                raise IrError(f"constant !{o.name} is for modulus "
                              f"{prog.consts[o.name].mod}, not {i.mod}",
                              i.line)


def _encode_operand(o, symidx, constidx):
    if o is None:
        return _T_NONE << 21
    if isinstance(o, Addr):
        if symidx.get(o.sym, 64) >= 64 or not 0 <= o.base < (1 << 15):
            raise IrError(f"address {o} not encodable")
        return (_T_ADDR << 21) | (symidx[o.sym] << 15) | o.base
    if isinstance(o, Vreg):
        tag, k = _T_FIFO if o.name[0] == "f" else _T_REG, int(o.name[1:])
    elif isinstance(o, CRef):
        tag, k = _T_CONST, constidx[o.name]
    else:
        tag, k = _T_IMM, o.val
    if not 0 <= k < (1 << 21):
        raise IrError(f"operand {o} not encodable")
    return (tag << 21) | k


def assemble_binary_oracle(prog):
    scan_machine_form_oracle(prog)
    mods = list(prog.moduli)
    consts = list(prog.consts)
    syms = list(prog.dram)
    if len(mods) > 255:
        raise IrError(f"{len(mods)} moduli not encodable (at most 255)")
    modidx = {name: k for k, name in enumerate(mods)}
    symidx = {name: k for k, name in enumerate(syms)}
    constidx = {name: k for k, name in enumerate(consts)}

    out = bytearray()
    out += _EXE_MAGIC
    out += struct.pack("<IIIIII", prog.n, len(mods), len(consts), len(syms),
                       len(prog.instrs), 0)
    for name in mods:
        m = prog.moduli[name]
        out += _pack_name(name) + struct.pack("<QII", m.q, m.r_bits, 0)
    for name in consts:
        c = prog.consts[name]
        out += _pack_name(name) + struct.pack(
            "<IBB2xQ", modidx[c.mod], c.repr, 1 if c.absorb else 0, c.value)
    for name in syms:
        out += _pack_name(name) + struct.pack("<II", prog.dram[name], 0)
    for i in prog.instrs:
        flags = 1 if "defer" in i.flags else 0
        mod = modidx[i.mod] + 1 if i.mod else 0
        dest = i.dests[0] if i.dests else None
        srcs = list(i.srcs) + [None] * (3 - len(i.srcs))
        fields = [_encode_operand(dest, symidx, constidx)]
        fields += [_encode_operand(s, symidx, constidx) for s in srcs[:3]]
        packed = 0
        for f in fields:
            packed = (packed << 24) | f
        out += struct.pack("<BBBB", _CODES[i.op], flags, mod, 0)
        out += packed.to_bytes(12, "little")
    return bytes(out)


def _decode_operand(word, consts, syms):
    tag, payload = word >> 21, word & ((1 << 21) - 1)
    if tag == _T_NONE:
        return None
    if tag in (_T_REG, _T_FIFO):
        kind = "r" if tag == _T_REG else "f"
        regs = machine_regs(kind)
        return regs[payload] if payload < len(regs) else \
            Vreg(f"{kind}{payload}")
    if tag == _T_ADDR:
        return Addr(_entry(syms, payload >> 15, "symbol"),
                    payload & ((1 << 15) - 1))
    if tag == _T_CONST:
        return CRef(_entry(consts, payload, "constant"))
    if tag == _T_IMM:
        return Imm(payload)
    raise IrError(f"bad operand tag {tag}")


def _unpack_name(b, what, k):
    try:
        return b.rstrip(b"\0").decode()
    except UnicodeDecodeError as e:
        raise IrError(f"{what} {k}: {e}")


def disassemble_binary_oracle(blob):
    if blob[:8] != _EXE_MAGIC:
        raise IrError("bad executable magic")
    if len(blob) < 32:
        raise IrError(f"executable truncated to {len(blob)} bytes")
    n, nmods, nconsts, nsyms, ninstrs, _ = struct.unpack("<IIIIII",
                                                         blob[8:32])
    size = 32 + 32 * (nmods + nconsts) + 24 * nsyms + 16 * ninstrs
    if len(blob) != size:
        raise IrError(f"executable is {len(blob)} bytes, its header "
                      f"declares {size}")
    off = 32
    moduli, table, dram, instrs = {}, {}, {}, []
    seen = {}
    mods = []
    for k in range(nmods):
        name = _unpack_name(blob[off:off + 16], "modulus", k)
        q, r_bits, _pad = struct.unpack("<QII", blob[off + 16:off + 32])
        try:
            moduli[name] = make_modulus(q, n, r_bits)
        except ValueError as e:
            raise IrError(f"modulus {name}: {e}")
        mods.append(name)
        off += 32
    consts = []
    for k in range(nconsts):
        name = _unpack_name(blob[off:off + 16], "constant", k)
        mi, rep, absorb, value = struct.unpack("<IBB2xQ",
                                               blob[off + 16:off + 32])
        if rep not in REPR_NAMES:
            raise IrError(f"constant {name}: unknown representation {rep}")
        table[name] = ConstDef(name, _entry(mods, mi, "modulus"), value,
                               rep, bool(absorb))
        consts.append(name)
        off += 32
    syms = []
    for k in range(nsyms):
        name = _unpack_name(blob[off:off + 16], "symbol", k)
        count, _pad = struct.unpack("<II", blob[off + 16:off + 24])
        dram[name] = count
        syms.append(name)
        off += 24
    for _ in range(ninstrs):
        opc, flags, mod, _pad = struct.unpack("<BBBB", blob[off:off + 4])
        packed = int.from_bytes(blob[off + 4:off + 16], "little")
        off += 16
        ops = []
        for k in range(4):
            f = (packed >> (24 * (3 - k))) & ((1 << 24) - 1)
            if f not in seen:
                seen[f] = _decode_operand(f, consts, syms)
            ops.append(seen[f])
        dest = ops[0]
        srcs = tuple(o for o in ops[1:] if o is not None)
        if opc not in _OPNAMES:
            raise IrError(f"unknown opcode {opc}")
        instrs.append(Instr(
            _OPNAMES[opc],
            (dest,) if dest is not None else (),
            srcs,
            _entry(mods, mod - 1, "modulus") if mod else None,
            DEFER if flags & 1 else NO_FLAGS))
    return Program(n, moduli, table, dram, instrs)
