"""Machine-code containers: assembly text, 128-bit binary words, images.

The textual assembly (.easm) is the normative format and shares the IR
grammar; binary (.ebin) packs each instruction into one 128-bit word and
round-trips losslessly.  Memory images (.emem) are a JSON manifest plus raw
little-endian 64-bit coefficient words.  Exact layouts are documented in
docs/formats.md.

`check_machine_form` scans a program once and keeps the passing check on
it (`Program.once`; a program cannot change), so a compile -> assemble ->
disassemble -> simulate round trip scans each of its two programs once.
Every program is scanned before it is assembled or simulated: nothing marks
a program as machine code without the scan.  Machine opcodes, their rules
and their `.ebin` codes are those of `ir.OPCODES`.  The scan checks each
opcode, each shape once per process (`ir.check_operands`) and the
references and operands of every instruction (`ir.check_refs`).

The binary codecs work once per distinct operand and record head, not once
per occurrence: `assemble_binary` copies the bytes of each into the one
output buffer, and `disassemble_binary` reads the operand fields of all
records column by column with numpy and decodes each distinct one once.
Their output and their errors are those of a record-by-record codec.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .ir import (
    DEFER,
    NO_FLAGS,
    OPCODES,
    Addr,
    ConstDef,
    CRef,
    Imm,
    Instr,
    IrError,
    MemoryImage,
    Program,
    Vreg,
    _collector_scope,
    check_operands,
    check_refs,
    machine_regs,
    parse_ir,
    print_program,
)
from .poly import BITREV, COEF, NATURAL, NTT, make_poly
from .rns import REPR_BY_NAME, REPR_NAMES, make_modulus

# the `.ebin` code of each machine opcode (`ir.OPCODES`), and back
_CODES = {op: o.code for op, o in OPCODES.items() if o.code}
_OPNAMES = {code: op for op, code in _CODES.items()}

# operand field: 24 bits = 3-bit tag + 21-bit payload; an address payload
# is a 6-bit symbol index and a 15-bit base
_T_NONE, _T_REG, _T_ADDR, _T_CONST, _T_IMM, _T_FIFO = 0, 1, 2, 3, 4, 5

_EXE_MAGIC = b"EEXE0001"
_MEM_MAGIC = b"EMEM0001"


def check_machine_form(prog: Program):
    """Raise IrError unless `prog` is machine code: machine opcodes with
    the operand kinds, modulus and flags of `ir.OPCODES`, every reference
    declared (`ir.check_refs`), no virtual register, every address
    concrete and in range.  A pass is kept on the program."""
    prog.once(_scan_machine_form)


def _scan_machine_form(prog: Program):
    """Shapes, then references; an earlier instruction's fault first."""
    instrs = prog.instrs
    for k, i in enumerate(instrs):
        try:
            if i.op not in _CODES:
                raise IrError(f"opcode '{i.op}' is not machine-level",
                              i.line)
            check_operands(i)
        except IrError:
            check_refs(prog, instrs[:k], machine=True)
            raise
    check_refs(prog, machine=True)


def assemble_text(prog: Program) -> str:
    check_machine_form(prog)
    return print_program(prog)


def _pack_name(name: str) -> bytes:
    b = name.encode()
    if len(b) > 15:
        raise IrError(f"name '{name}' too long for binary encoding")
    return b.ljust(16, b"\0")


def _unpack_name(b: bytes, what: str, k: int) -> str:
    """The name of entry k of a table of an `.ebin`, else IrError."""
    try:
        return b.rstrip(b"\0").decode()
    except UnicodeDecodeError as e:
        raise IrError(f"{what} {k}: {e}") from None


def _encode_operand(o, symidx, constidx) -> bytes:
    """The 24-bit field of an operand, as its three little-endian bytes."""
    if isinstance(o, Addr):
        if symidx.get(o.sym, 64) >= 64 or not 0 <= o.base < (1 << 15):
            raise IrError(f"address {o} not encodable")
        return ((_T_ADDR << 21) | (symidx[o.sym] << 15)
                | o.base).to_bytes(3, "little")
    if isinstance(o, Vreg):
        tag, k = _T_FIFO if o.name[0] == "f" else _T_REG, int(o.name[1:])
    elif isinstance(o, CRef):
        tag, k = _T_CONST, constidx[o.name]
    else:               # an immediate, the one kind left (ir.OPCODES)
        tag, k = _T_IMM, o.val
    if not 0 <= k < (1 << 21):
        raise IrError(f"operand {o} not encodable")
    return ((tag << 21) | k).to_bytes(3, "little")


def _entry(table: list, k: int, what: str):
    """table[k] for an index read from a binary, else IrError."""
    if not 0 <= k < len(table):
        raise IrError(f"{what} index {k} out of range ({len(table)} "
                      "defined)")
    return table[k]


def _decode_operand(word: int, consts, syms):
    tag, payload = word >> 21, word & ((1 << 21) - 1)
    if tag == _T_NONE:
        return None
    if tag in (_T_REG, _T_FIFO):
        kind = "r" if tag == _T_REG else "f"
        regs = machine_regs(kind)       # past the shared ones: a fresh one
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


# An instruction record: the opcode, flags, modulus and pad bytes
# (`head`), then four 24-bit operand fields, the third source first and
# the result last.  `lo` holds the third and second sources and the low
# 16 bits of the first, `hi` its high 8 bits and then the result.
_RECORD = np.dtype({"names": ["head", "lo", "hi"],
                    "formats": ["<u4", "<u8", "<u4"]})
_NO_OPERANDS = (b"", b"\0" * 3, b"\0" * 6, b"\0" * 9)    # absent sources


def assemble_binary(prog: Program) -> bytes:
    """The `.ebin` of a program.  Each distinct operand is encoded once
    (a register by its name), and each opcode, flags and modulus triple
    once, into bytes that every record with it copies."""
    check_machine_form(prog)
    mods = list(prog.moduli)
    consts = list(prog.consts)
    syms = list(prog.dram)
    if len(mods) > 255:     # an instruction's modulus byte: index + 1
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
    heads: dict = {}        # (op, flags, mod) -> its four bytes
    fields: dict = {}       # register name or other operand -> its field
    for i in prog.instrs:
        key = (i.op, i.flags, i.mod)
        head = heads.get(key)
        if head is None:
            head = heads[key] = bytes((
                _CODES[i.op], 1 if "defer" in i.flags else 0,
                modidx[i.mod] + 1 if i.mod else 0, 0))
        codes = []          # the result's, then the sources', in order
        for o in i.dests + i.srcs:
            k = o.name if o.__class__ is Vreg else o
            f = fields.get(k)
            if f is None:
                f = fields[k] = _encode_operand(o, symidx, constidx)
            codes.append(f)
        out += head
        out += _NO_OPERANDS[3 - len(i.srcs)]
        for f in reversed(codes):
            out += f
        if not i.dests:
            out += _NO_OPERANDS[1]
    return bytes(out)


@_collector_scope()
def disassemble_binary(blob: bytes) -> Program:
    """The program of an `.ebin`.  The records' operand fields are read
    column by column (`_RECORD`, `_fields`), and each distinct field and
    head is decoded once.  An IrError is the one that decoding record by
    record, each operand field in order and then the head, meets first."""
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
    moduli, table, dram = {}, {}, {}
    mods = []
    for k in range(nmods):
        name = _unpack_name(blob[off:off + 16], "modulus", k)
        q, r_bits, _pad = struct.unpack("<QII", blob[off + 16:off + 32])
        try:
            moduli[name] = make_modulus(q, n, r_bits)
        except ValueError as e:
            raise IrError(f"modulus {name}: {e}") from None
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
    records = np.frombuffer(blob, _RECORD, ninstrs, off)
    fields: dict = {}       # operand field -> () or (its operand,)
    failed: dict = {}       # field or (head, "head") -> the IrError it raised
    columns = []            # the result, first, second and third sources
    for col in _fields(records):
        words = col.tolist()
        for f in set(words).difference(fields):
            try:
                o = _decode_operand(f, consts, syms)
            except IrError as e:
                failed[f] = e
                o = None
            fields[f] = () if o is None else (o,)
        columns.append(list(map(fields.__getitem__, words)))
    words = records["head"].tolist()
    heads: dict = {}        # head -> (opcode, modulus, flags)
    for h in set(words):
        try:
            heads[h] = _decode_head(h, mods)
        except IrError as e:
            failed[h, "head"] = e
    if failed:      # the error of the first record that has one
        for k, fs in enumerate(zip(*(c.tolist() for c in _fields(records)))):
            for key in (*fs, (words[k], "head")):
                if key in failed:
                    raise failed[key]
    return Program(n, moduli, table, dram, [
        Instr(op, dests, s0 + s1 + s2, mod, flags)
        for (op, mod, flags), dests, s0, s1, s2
        in zip(map(heads.__getitem__, words), *columns)])


def _decode_head(h: int, mods: list) -> tuple:
    """(opcode, modulus, flags) of a record's first four bytes."""
    opc, flags, mod = h & 0xFF, h >> 8 & 0xFF, h >> 16 & 0xFF
    if opc not in _OPNAMES:
        raise IrError(f"unknown opcode {opc}")
    return (_OPNAMES[opc], _entry(mods, mod - 1, "modulus") if mod else None,
            DEFER if flags & 1 else NO_FLAGS)


def _fields(records: np.ndarray):
    """The operand fields of the records, one column at a time: the
    result, then the first, second and third sources."""
    lo, hi = records["lo"], records["hi"]
    yield hi >> 8
    yield lo >> 48 | (hi & 0xFF).astype(np.uint64) << 16
    yield lo >> 24 & 0xFFFFFF
    yield lo & 0xFFFFFF


# ---------------------------------------------------------------------------
# memory image files

def _slot_meta(s) -> dict | None:
    """The manifest entry of an image slot (keys in _SLOT_FIELDS order)."""
    return None if s is None else {
        "q": s.modulus.q, "r_bits": s.modulus.r_bits, "domain": s.domain,
        "order": s.order, "repr": REPR_NAMES[s.repr],
        "deferred": bool(s.scale_deferred)}


def save_image(img: MemoryImage, prog_n: int) -> bytes:
    symbols = [{"name": sym, "count": len(slots),
                "slots": [_slot_meta(s) for s in slots]}
               for sym, slots in img.dram.items()]
    words = b"".join(s.coeffs.astype("<u8").tobytes()
                     for slots in img.dram.values() for s in slots
                     if s is not None)
    manifest = json.dumps({"n": prog_n, "symbols": symbols}).encode()
    return _MEM_MAGIC + struct.pack("<I", len(manifest)) + manifest + words


_SLOT_FIELDS = (("q", int), ("r_bits", int), ("domain", (COEF, NTT)),
                ("order", (NATURAL, BITREV)), ("repr", tuple(REPR_BY_NAME)),
                ("deferred", bool))


def _field(obj, key: str, kind, where: str):
    """obj[key] of a manifest object: of the type kind, or one of the names
    in the tuple kind."""
    v = obj.get(key) if isinstance(obj, dict) else None
    if not (v in kind if isinstance(kind, tuple) else isinstance(v, kind)
            and (kind is bool) == isinstance(v, bool)):
        raise IrError(f"image manifest: {where}.{key} is missing or not "
                      f"{kind if isinstance(kind, tuple) else kind.__name__}")
    return v


def load_image(blob: bytes) -> MemoryImage:
    """Parse an .emem image; raises IrError on a missing or mistyped
    manifest field, a slot count or length that does not match, or a word
    that is not below its slot's modulus."""
    if blob[:8] != _MEM_MAGIC or len(blob) < 12:
        raise IrError("bad memory-image magic")
    (mlen,) = struct.unpack("<I", blob[8:12])
    try:
        manifest = json.loads(blob[12:12 + mlen])
    except ValueError as e:
        raise IrError(f"image manifest is not JSON: {e}")
    n = _field(manifest, "n", int, "image")
    off, dram, mods = 12 + mlen, {}, {}
    for sym in _field(manifest, "symbols", list, "image"):
        name = _field(sym, "name", str, "symbol")
        metas = _field(sym, "slots", list, name)
        if _field(sym, "count", int, name) != len(metas):
            raise IrError(f"image manifest: {name}.count is not its number "
                          "of slots")
        slots = dram[name] = []
        for k, meta in enumerate(metas):
            if meta is None:
                slots.append(None)
                continue
            q, r_bits, domain, order, rep, deferred = (
                _field(meta, key, kind, f"{name}[{k}]")
                for key, kind in _SLOT_FIELDS)
            try:
                if (q, r_bits) not in mods:
                    mods[q, r_bits] = make_modulus(q, n, r_bits)
                slots.append(make_poly(
                    mods[q, r_bits], np.frombuffer(blob, "<u8", n, off),
                    domain, order, REPR_BY_NAME[rep], deferred))
            except ValueError as e:
                raise IrError(f"image {name}[{k}]: {e}")
            off += 8 * n
    if off != len(blob):
        raise IrError(f"memory image is {len(blob)} bytes, its manifest "
                      f"declares {off}")
    return MemoryImage(dram)
