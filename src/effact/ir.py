"""Vector ISA, textual IR, parser, printer, and the golden executor.

The IR is SSA text, one instruction per line.  A header declares the ring
degree, moduli, DRAM symbols, and a constant pool; the body uses virtual
registers (%name), scalar registers ($name), constant-pool references
(!name), and DRAM addresses (@sym[affine-expr]).

Vector opcodes: mmul, mmad, mac, ntt, intt (.defer), auto, load, store,
copy, and the high-level bconv (compiled away by lowering).  The scalar
subset is sli / sadd / smul, counted loops (loop/endloop), and skipz.
`OPCODES` is the one table of what an opcode is (operand kinds by
position, modulus, flags, unit class, `.ebin` code); every other module
reads it or a view of it built at import (`FU_CLASS`, `UNITS`, ...).
`parse_ir` and `asm.check_machine_form` check each instruction's shape
(`check_operands`: operand kinds, modulus and flags) once per shape in a
process, and `check_refs` is the one rule of what an instruction may
reference, run wherever a program enters the stack: the parser, the
compiler's `unroll`, the machine-form scan and `execute_program`.  A
constant is declared once, so the parser's check holds for the program
it returns, which keeps it: the others check programs built in code.
`parse_ir` parses each distinct token once per text and `print_program`
prints each distinct address once per program: instructions share their
operands.

`walk` is the one interpreter of the scalar subset, `ssa` the one renamer
of what it yields, and `build_deps` the one dependence builder, of one
graph form (successor lists): the compiler unrolls to `ssa`, the
scheduler orders by `build_deps` (the simulator's scoreboard keys the
same accesses, with no graph), and the golden executor runs the levels
of `build_deps(ssa(prog))` as its waves.  The executor takes programs
of any form (virtual or physical registers) and a memory image of
residue polynomials, delegating every vector opcode to the kernels so
metadata contracts are enforced for free.

The operands (`Vreg`, `SRef`, `CRef`, `Imm`, `Addr`) and `Instr` are
frozen slotted dataclasses built by storing each field through its slot
descriptor (`_value_class`), not through the generated frozen `__init__`,
which calls `object.__setattr__` per field.  A `Program` cannot change once
built: its instructions are a tuple and its tables read-only views, and
each pass builds a new program (`Program.with_`).  So an analysis of a
program runs at most once and is kept on it (`Program.once`): the
compiler's `def_use`, `build_deps`, `asm.check_machine_form`, `check_refs`
and the executor's wave plan (`_waves`).  A second `simulate` or
`execute_program` of one program plans nothing again.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType

from .poly import (
    ContractError,
    RnsPoly,
    Word,
    automorphism_ntt,
    bconv,
    bconv_merged,
    from_sm,
    gather,
    mac_fused,
    make_bconv_tables,
    make_poly,
    ntt_fwd,
    ntt_inv,
    stack_rows,
    to_sm,
    vec_madd,
    vec_mmul,
)
from .rns import (NM, REPR_BY_NAME, REPR_NAMES, Modulus, RnsBasis,
                  make_modulus)


class IrError(ValueError):
    """Parse or validation failure, with line information."""

    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


class ExecError(ValueError):
    """A program or image the executor cannot run: bad input, as every
    `ValueError` of the stack is (a `RuntimeError` is a broken invariant)."""


@contextmanager
def _collector_scope():
    """One step that builds or walks a whole program (parsing, each
    compile step, disassembling, simulating) with the cyclic collector
    off, and on again after it, on an exception too.  A program keeps its
    instructions and operands by the hundred thousand, and at the default
    threshold the collector took about a fifth of compile time walking
    them again.  A disabled collector is left alone, and the thresholds
    are never touched.  No caller wraps a `yield` in it, so an abandoned
    generator cannot leave the collector off.  The switch is
    process-wide, so steps on concurrent threads could enable it under
    each other; the package starts no thread."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# operands

def _value_class(cls):
    """`cls` as a frozen slotted dataclass whose `__init__` stores each
    field through its slot descriptor.  The `__init__` that
    `dataclass(frozen=True)` generates calls `object.__setattr__` once per
    field: it built an `Instr` in 1.44 us against 0.84 us (raw, Python
    3.11 on a 2-vCPU host).  Everything else is the dataclass's: `==`,
    `hash`, `repr`, pickling and `FrozenInstanceError` on assignment.  A
    `default_factory` runs once, here, and every instance that omits its
    field shares what it made (`Instr.meta`: `NO_META`)."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env, params, body = {}, [], []
    for f in fields(cls):
        name = f.name
        env["set_" + name] = getattr(cls, name).__set__
        default = f.default if f.default_factory is MISSING \
            else f.default_factory()
        if default is MISSING:
            params.append(name)
        else:
            env["default_" + name] = default
            params.append(f"{name}=default_{name}")
        body.append(f"    set_{name}(self, {name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_value_class
class Vreg:
    name: str

    def __str__(self):
        return self.name


# The machine registers of all machine code, by file: "r" the SRAM slots,
# "f" the FIFO channels.  Each is one object that every operand naming it
# shares, not one per occurrence.
_MACHINE_REGS: dict[str, list[Vreg]] = {"r": [], "f": []}


def machine_regs(kind: str, count: int = 0) -> list[Vreg]:
    """The shared registers kind0, kind1, ... of one register file ("r" or
    "f"), the list grown to at least `count` of them first."""
    table = _MACHINE_REGS[kind]
    while len(table) < count:
        table.append(Vreg(f"{kind}{len(table)}"))
    return table


@_value_class
class SRef:
    name: str

    def __str__(self):
        return self.name


@_value_class
class CRef:
    name: str

    def __str__(self):
        return "!" + self.name


@_value_class
class Imm:
    val: int

    def __str__(self):
        return str(self.val)


@_value_class
class Addr:
    """@sym[base + sum(coeff * scalar)]"""

    sym: str
    base: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    def __str__(self):
        parts = []
        if self.base or not self.terms:
            parts.append(str(self.base))
        for name, coeff in self.terms:
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        return f"@{self.sym}[{'+'.join(parts)}]"


@dataclass(frozen=True)
class ConstDef:
    name: str
    mod: str
    value: int
    repr: int
    absorb: bool = False


SCALAR_OPS = {"sli", "sadd", "smul", "loop", "endloop", "skipz"}
# the two flag sets an instruction can have, shared by every instruction
NO_FLAGS: frozenset = frozenset()
DEFER = frozenset(["defer"])

# An operand position: the kinds it takes, and the complaint when it gets
# another.  A data operand is a register or an address.
_DATA = (Vreg, Addr)
_RESULT = (_DATA, "result must be a register or an address")
_SOURCE = (_DATA, "source must be a register or an address")
_LAST = (_DATA + (CRef,),
         "last source must be a register, an address or a constant")
_REG_RESULT = ((Vreg,), "result must be a register")
_REG_SOURCE = ((Vreg,), "source must be a register")
_SCALAR_RESULT = ((SRef,), "takes scalar operands only")
_SCALAR = ((SRef, Imm), "takes scalar operands only")
_STEP = ((Imm,), "step must be an immediate")
_ADDRESS = ((Addr,), "source must be an address")
_TARGET = ((Addr,), "target must be an address")

# The one table of opcodes.  A row: the destination and source positions
# (None for a bconv, whose registers match its basis lists), whether the
# last source names a modulus, the flags it may carry, the unit class that
# runs it ("dram" the DRAM channel, None: no machine opcode) and its `.ebin`
# code (0: none).  Units come first, in the order reports list them.
Opcode = namedtuple("Opcode", "dests srcs mod flags unit code",
                    defaults=(False, NO_FLAGS, None, 0))
OPCODES = {
    "ntt": Opcode((_RESULT,), (_SOURCE,), True, NO_FLAGS, "ntt", 4),
    "intt": Opcode((_RESULT,), (_SOURCE,), True, DEFER, "ntt", 5),
    "mmul": Opcode((_RESULT,), (_SOURCE, _LAST), True, NO_FLAGS, "mmul", 1),
    "mac": Opcode((_RESULT,), (_SOURCE, _SOURCE, _LAST), True, NO_FLAGS,
                  "mmul", 3),
    "mmad": Opcode((_RESULT,), (_SOURCE, _LAST), True, NO_FLAGS, "madd", 2),
    "auto": Opcode((_RESULT,), (_SOURCE, _STEP), True, NO_FLAGS, "auto", 6),
    "load": Opcode((_REG_RESULT,), (_ADDRESS,), False, NO_FLAGS, "dram", 7),
    "store": Opcode((), (_REG_SOURCE, _TARGET), False, NO_FLAGS, "dram", 8),
    "copy": Opcode((_REG_RESULT,), (_REG_SOURCE,)),
    "bconv": Opcode(None, None),
    "sli": Opcode((_SCALAR_RESULT,), (_SCALAR,)),
    "sadd": Opcode((_SCALAR_RESULT,), (_SCALAR, _SCALAR)),
    "smul": Opcode((_SCALAR_RESULT,), (_SCALAR, _SCALAR)),
    "loop": Opcode((_SCALAR_RESULT,), (_SCALAR, _SCALAR)),
    "endloop": Opcode((), ()),
    "skipz": Opcode((), (_SCALAR, _SCALAR)),
}

# Views of the table, built once for the loops that ask them of each
# instruction.  FU_CLASS: the unit class of each machine opcode; UNITS: the
# function units that `HardwareDescription.fu` sizes.
FU_CLASS = {op: o.unit for op, o in OPCODES.items() if o.code}
UNITS = tuple(dict.fromkeys(u for u in FU_CLASS.values() if u != "dram"))
# the vector ops, which run one kernel each, and the PRE candidates
FU_OPS = frozenset(op for op, u in FU_CLASS.items() if u != "dram")
PURE_OPS = FU_OPS | {"copy"}


_SAME = object()      # a with_ field left as it is
NO_META: dict = {}    # the meta of every instruction that has none


@_value_class
class Instr:
    """One instruction.  Instructions are immutable, so passes share the
    ones they leave unchanged; `meta` is never mutated in place either, and
    every instruction without one shares `NO_META`."""

    op: str
    dests: tuple = ()
    srcs: tuple = ()
    mod: str | None = None
    flags: frozenset = NO_FLAGS
    meta: dict = field(default_factory=lambda: NO_META)
    line: int = 0

    def with_(self, *, op=_SAME, dests=_SAME, srcs=_SAME, mod=_SAME,
              flags=_SAME, meta=None, line=_SAME) -> "Instr":
        """A copy with the given fields replaced; `meta` is merged into the
        current meta, which is shared if it holds the merge already, as is
        `meta` if the current one is empty.  Built directly rather than
        through `dataclasses.replace`, which takes about 2.5x as long
        (`Instr` has no `__post_init__` for it to run)."""
        if meta is None or meta.items() <= self.meta.items():
            meta = self.meta
        elif self.meta:
            meta = {**self.meta, **meta}
        return Instr(self.op if op is _SAME else op,
                     self.dests if dests is _SAME else dests,
                     self.srcs if srcs is _SAME else srcs,
                     self.mod if mod is _SAME else mod,
                     self.flags if flags is _SAME else flags, meta,
                     self.line if line is _SAME else line)

    def __str__(self):
        return print_instr(self)


# what a Program cannot change once built
_FIXED = frozenset(("n", "moduli", "consts", "dram", "instrs"))


@dataclass(init=False)
class Program:
    """A program: its ring degree, tables and instructions, none of which
    changes once it is built.  The tables are read-only views of copies of
    the mappings given, the instructions a tuple, and assigning any of them
    raises AttributeError; a pass builds a new program (`with_`).  `notes`
    is a dict that passes and callers fill, and other attributes may be
    set.

    So an analysis of a program is computed at most once and kept on it
    (`once`): the compiler's `def_use`, the `build_deps` that the
    scheduler reads, the machine-form check, `check_refs` and the
    executor's wave plan."""

    n: int
    moduli: Mapping[str, Modulus]
    consts: Mapping[str, ConstDef]
    dram: Mapping[str, int]
    instrs: tuple[Instr, ...]
    notes: dict

    def __init__(self, n: int, moduli=(), consts=(), dram=(), instrs=(),
                 notes=()):
        fill = self.__dict__
        fill["n"] = n
        fill["moduli"] = MappingProxyType(dict(moduli))
        fill["consts"] = MappingProxyType(dict(consts))
        fill["dram"] = MappingProxyType(dict(dram))
        fill["instrs"] = tuple(instrs)
        fill["notes"] = dict(notes)
        fill["_kept"] = {}

    def __setattr__(self, name, value):
        if name in _FIXED:
            raise AttributeError(f"a program's {name} cannot change; "
                                 "build a new program (Program.with_)")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # pickled and deep-copied as its fields (a read-only view is
        # neither); the copy keeps none of the analyses
        return Program, (self.n, dict(self.moduli), dict(self.consts),
                         dict(self.dram), self.instrs, self.notes)

    def with_(self, instrs=_SAME, *, consts=_SAME, dram=_SAME) -> "Program":
        """A new program with the given instructions and tables in place of
        this one's, and a copy of its notes.  When its instructions and
        tables are this one's, so are its analyses: each reads only
        those."""
        out = Program(self.n, self.moduli,
                      self.consts if consts is _SAME else consts,
                      self.dram if dram is _SAME else dram,
                      self.instrs if instrs is _SAME else instrs, self.notes)
        if instrs is _SAME and consts is _SAME and dram is _SAME:
            out._kept = self._kept
        return out

    def clone(self) -> "Program":
        """A new program equal to this one, with a new tuple of the same
        instructions and none of its analyses."""
        return self.with_(list(self.instrs))

    def once(self, analysis):
        """analysis(self), computed at the first call for this program and
        kept: an analysis reads only the program's instructions and
        tables, which cannot change.  It must not change what it
        returns, nor may its callers."""
        kept = self._kept
        if analysis not in kept:
            kept[analysis] = analysis(self)
        return kept[analysis]

    def keep(self, analysis, result) -> None:
        """Keep `result` as what `once(analysis)` returns: for the pass
        that built this program, which derived it from its input's."""
        self._kept[analysis] = result

    def opcount(self) -> dict[str, int]:
        out = {}
        for i in self.instrs:
            out[i.op] = out.get(i.op, 0) + 1
        return out


# The shapes that have passed `check_operands`: (opcode, no modulus, flags,
# number of results, class of each operand).  The check reads nothing
# else, so an instruction of a shape here passes it too.
_SHAPES: set = set()


def check_operands(i: Instr):
    """Check the operands, modulus and flags of `OPCODES`, once per shape."""
    ops = i.dests + i.srcs
    shape = (i.op, i.mod is None, i.flags, len(i.dests), *map(type, ops))
    if shape in _SHAPES:
        return
    row = OPCODES[i.op]
    if len(i.srcs) != len(row.srcs) or len(i.dests) != len(row.dests):
        raise IrError(f"{i.op} expects {len(row.srcs)} operands", i.line)
    for o, (ok, complaint) in zip(ops, row.dests + row.srcs):
        if not isinstance(o, ok):
            raise IrError(f"{i.op} {complaint}", i.line)
    if (i.mod is None) == row.mod:
        raise IrError(f"{i.op} needs a modulus" if i.mod is None
                      else f"{i.op} takes no modulus", i.line)
    if not i.flags <= row.flags:
        raise IrError(f"{i.op} takes no flags", i.line)
    _SHAPES.add(shape)


def check_refs(prog, instrs=None, machine: bool = False):
    """The one rule of references, for each of `instrs` (default: all of
    `prog`, a `Program` or the parser's header): its modulus and a bconv's
    basis declared, each constant declared and of that modulus, the DRAM
    symbol of each result and source declared; in `machine` code no
    virtual register, and addresses concrete and in range.  Faults come
    modulus first, then by operand, results first."""
    moduli, consts, dram = prog.moduli, prog.consts, prog.dram
    for i in prog.instrs if instrs is None else instrs:
        mod = i.mod
        if mod is None:
            if i.op == "bconv":
                for m in i.meta["src_mods"] + i.meta["dst_mods"]:
                    if m not in moduli:
                        raise IrError(f"unknown modulus '{m}'", i.line)
                continue
        elif mod not in moduli:
            raise IrError(f"unknown modulus '{mod}'", i.line)
        for o in i.dests + i.srcs:
            kind = o.__class__
            if kind is Vreg:
                if machine and o.name[:1] == "%":
                    raise IrError(f"virtual register {o} survives in "
                                  "machine code", i.line)
            elif kind is CRef:
                c = consts.get(o.name)
                if c is None:
                    raise IrError(f"unknown constant '!{o.name}'", i.line)
                if c.mod != mod:
                    raise IrError(f"constant !{o.name} is for modulus "
                                  f"{c.mod}, not {mod}", i.line)
            elif kind is Addr:
                if machine and o.terms:
                    raise IrError(f"non-constant address {o} in machine "
                                  "code", i.line)
                size = dram.get(o.sym)
                if size is None or machine and not 0 <= o.base < size:
                    check_address(prog, o, i.line)


# ---------------------------------------------------------------------------
# parser

def check_address(prog: Program, a: Addr, line=None) -> Addr:
    """A concrete address, checked against the slot count of its symbol."""
    if a.sym not in prog.dram:
        raise IrError(f"unknown symbol '@{a.sym}'", line)
    if not 0 <= a.base < prog.dram[a.sym]:
        raise IrError(f"address {a} out of range (size {prog.dram[a.sym]})",
                      line)
    return a


def _digits(text: str) -> bool:
    """text is a nonempty run of ASCII digits: the one test of register
    indices, address terms and immediates (str.isdigit also accepts
    digits such as '²' that int() rejects)."""
    return text.isascii() and text.isdigit()


def _parse_affine(text: str, line: int) -> tuple[int, tuple]:
    base, terms = 0, []
    for part in text.replace("-", "+-").split("+"):
        part = part.strip()
        if not part:
            continue
        neg = part.startswith("-")
        if neg:
            part = part[1:].strip()
        sign = -1 if neg else 1
        if "*" in part:
            lhs, rhs = (t.strip() for t in part.split("*", 1))
            if lhs.startswith("$"):
                lhs, rhs = rhs, lhs
            if not rhs.startswith("$") or not _digits(lhs.removeprefix("-")):
                raise IrError(f"bad address term '{part}'", line)
            terms.append((rhs, sign * int(lhs)))
        elif part.startswith("$"):
            terms.append((part, sign))
        else:
            if not _digits(part):
                raise IrError(f"bad address term '{part}'", line)
            base += sign * int(part)
    return base, tuple(terms)


def _parse_operand(tok: str, line: int):
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


def _operands(toks, line: int, seen: dict) -> tuple:
    """The operands of stripped tokens, each parsed once per parse: `seen`
    maps each token parsed so far to its operand, which every instruction
    naming it shares."""
    get = seen.get
    return tuple([get(t) or seen.setdefault(t, _parse_operand(t, line))
                  for t in toks])


@dataclass
class _Header:
    """The directives of the text `parse_ir` is reading so far."""

    n: int = 0
    moduli: dict[str, Modulus] = field(default_factory=dict)
    consts: dict[str, ConstDef] = field(default_factory=dict)
    dram: dict[str, int] = field(default_factory=dict)


@_collector_scope()
def parse_ir(text: str) -> Program:
    prog = _Header()
    instrs: list[Instr] = []
    defined: set[str] = set()
    loop_stack: list[int] = []
    seen: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line[0] == ".":
            _parse_directive(prog, line, lineno)
            continue
        if prog.n == 0:
            raise IrError("instructions before .n directive", lineno)
        instr = _parse_instr(prog, line, lineno, seen)
        srcs, dests = instr.srcs, instr.dests
        # SSA and scoping checks
        if instr.op == "loop":
            loop_stack.append(lineno)
        elif instr.op == "endloop":
            if not loop_stack:
                raise IrError("endloop without loop", lineno)
            loop_stack.pop()
        # sources first, so that an instruction cannot read its own
        # result; then the scalars of every address, then the results
        terms = False
        for s in srcs:
            kind = s.__class__
            if kind is Vreg:
                if s.name[0] == "%" and s.name not in defined:
                    raise IrError(f"use of undefined register {s}", lineno)
            elif kind is SRef:
                if s.name not in defined:
                    raise IrError(f"use of undefined scalar {s}", lineno)
            elif kind is Addr and s.terms:
                terms = True
        for d in dests:
            if d.__class__ is Addr and d.terms:
                terms = True
        if terms:
            for a in srcs + dests:
                for name, _ in a.terms if a.__class__ is Addr else ():
                    if name not in defined:
                        raise IrError(f"use of undefined scalar {name}",
                                      lineno)
        for d in dests:
            kind = d.__class__
            if kind is Vreg and d.name[0] == "%":
                if d.name in defined:
                    raise IrError(f"redefinition of {d.name}", lineno)
                defined.add(d.name)
            elif kind is SRef:
                defined.add(d.name)
        instrs.append(instr)
    if loop_stack:
        raise IrError("unterminated loop", loop_stack[-1])
    out = Program(prog.n, prog.moduli, prog.consts, prog.dram, instrs)
    out.keep(check_refs, None)      # each instruction's, above
    return out


# operand count range of each directive
_DIRECTIVE_ARITY = {".n": (1, 1), ".mod": (2, 3), ".dram": (2, 2),
                    ".const": (4, 5)}


def _parse_directive(prog: _Header, line: str, lineno: int):
    parts = line.split()
    if parts[0] not in _DIRECTIVE_ARITY:
        raise IrError(f"unknown directive {parts[0]}", lineno)
    lo, hi = _DIRECTIVE_ARITY[parts[0]]
    if not lo <= len(parts) - 1 <= hi:
        raise IrError(f"wrong operand count in '{line}'", lineno)
    try:
        _apply_directive(prog, parts, lineno)
    except IrError:
        raise
    except ValueError as e:   # non-integer operand or rejected modulus
        raise IrError(f"{parts[0]}: {e}", lineno)


def _apply_directive(prog: _Header, parts: list[str], lineno: int):
    if parts[0] == ".n":
        prog.n = int(parts[1])
    elif parts[0] == ".mod":
        if prog.n == 0:
            raise IrError(".mod before .n", lineno)
        name, q = parts[1], int(parts[2])
        r_bits = int(parts[3]) if len(parts) > 3 else None
        prog.moduli[name] = make_modulus(q, prog.n, r_bits)
    elif parts[0] == ".dram":
        prog.dram[parts[1]] = int(parts[2])
    else:
        # .const name mod value repr [absorb]
        name, mod, value, rep = parts[1], parts[2], int(parts[3]), parts[4]
        if name in prog.consts:
            raise IrError(f"redefinition of constant !{name}", lineno)
        if mod not in prog.moduli:
            raise IrError(f"unknown modulus '{mod}'", lineno)
        if rep not in REPR_BY_NAME:
            raise IrError(f"unknown representation '{rep}'", lineno)
        absorb = len(parts) > 5 and parts[5] == "absorb"
        prog.consts[name] = ConstDef(name, mod, value, REPR_BY_NAME[rep],
                                     absorb)


def _require_mod(prog, name, lineno):
    if name not in prog.moduli:
        raise IrError(f"unknown modulus '{name}'", lineno)
    return name


def _parse_instr(prog: _Header, line: str, lineno: int,
                 seen: dict) -> Instr:
    dests: tuple = ()
    body = line
    if "=" in line:
        lhs, body = line.split("=", 1)
        body = body.strip()
        dests = _operands(lhs.split(), lineno, seen)
    toks = body.split(None, 1)
    if not toks:
        raise IrError("missing opcode", lineno)
    opname = toks[0]
    rest = toks[1] if len(toks) > 1 else ""
    op, _, flag = opname.partition(".")
    row = OPCODES.get(op)
    if row is None:
        raise IrError(f"unknown opcode '{opname}'", lineno)
    if flag and flag not in row.flags:
        raise IrError(f"unknown opcode suffix '.{flag}'", lineno)
    flags = DEFER if flag else NO_FLAGS

    if op == "bconv":
        if "->" not in rest or ":" not in rest:
            raise IrError("bconv needs ': src-mods -> dst-mods'", lineno)
        args, basis = rest.split(":", 1)
        srcm, dstm = (t.split() for t in basis.split("->", 1))
        srcs = _operands(args.split(), lineno, seen)
        instr = Instr(op, dests, srcs, None, flags,
                      {"src_mods": tuple(srcm), "dst_mods": tuple(dstm)},
                      lineno)
        check_refs(prog, (instr,))
        qs = [prog.moduli[m].q for m in srcm + dstm]
        if len(set(qs)) != len(qs):
            raise IrError("bconv moduli must be pairwise distinct", lineno)
        if len(srcs) != len(srcm) or len(dests) != len(dstm):
            raise IrError("bconv operand/basis arity mismatch", lineno)
        if not all(isinstance(o, Vreg) for o in dests + srcs):
            raise IrError("bconv takes registers only", lineno)
        return instr

    mod = None
    toks = [t for t in map(str.strip, rest.split(",")) if t]
    if row.mod:
        # the last comma-separated token is the modulus name
        if len(toks) < 2:
            raise IrError(f"{op} needs a modulus", lineno)
        mod = _require_mod(prog, toks.pop(), lineno)
    ops = _operands(toks, lineno, seen)
    instr = Instr(op, dests, ops, mod, flags, NO_META, lineno)
    check_operands(instr)
    check_refs(prog, (instr,))
    return instr


# ---------------------------------------------------------------------------
# printer

def _text(o, addrs: dict) -> str:
    """The text of an operand that is not a register (a register's is its
    name); an address's is built once per `addrs`, which maps each address
    printed so far to its text."""
    if o.__class__ is not Addr:
        return str(o)
    text = addrs.get(o)
    if text is None:
        text = addrs[o] = str(o)
    return text


def print_instr(i: Instr, addrs: dict | None = None) -> str:
    """The text of an instruction; `addrs` as for `_text`, `print_program`
    passes one per program."""
    if addrs is None:
        addrs = {}
    opname = i.op + "." + next(iter(i.flags)) if i.flags else i.op
    if i.op == "bconv":
        lhs = " ".join(str(d) for d in i.dests)
        args = " ".join(str(s) for s in i.srcs)
        return (f"{lhs} = bconv {args} : {' '.join(i.meta['src_mods'])} -> "
                f"{' '.join(i.meta['dst_mods'])}")
    parts = [s.name if s.__class__ is Vreg else _text(s, addrs)
             for s in i.srcs]
    if i.mod:
        parts.append(i.mod)
    rhs = f"{opname} {', '.join(parts)}" if parts else opname
    if i.dests:
        lhs = " ".join([d.name if d.__class__ is Vreg else _text(d, addrs)
                        for d in i.dests])
        return f"{lhs} = {rhs}"
    return rhs


def print_program(p: Program) -> str:
    lines = [f".n {p.n}"]
    for name, m in p.moduli.items():
        lines.append(f".mod {name} {m.q} {m.r_bits}")
    for sym, count in p.dram.items():
        lines.append(f".dram {sym} {count}")
    for c in p.consts.values():
        suffix = " absorb" if c.absorb else ""
        lines.append(f".const {c.name} {c.mod} {c.value} "
                     f"{REPR_NAMES[c.repr]}{suffix}")
    addrs: dict = {}
    lines += [print_instr(i, addrs) for i in p.instrs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scalar control flow: the one interpreter of sli/sadd/smul, loop and skipz

_SCALAR_ARITH = {"sli": lambda a: a, "sadd": lambda a, b: a + b,
                 "smul": lambda a, b: a * b}


def check_straight_line(prog: Program):
    """Reject a program that still has scalar control flow."""
    for i in prog.instrs:
        if i.op in SCALAR_OPS:
            raise IrError("scalar control flow must be unrolled first",
                          i.line)


def walk(prog: Program):
    """Run the scalar instructions of a program and yield its vector
    instructions in execution order, every address made concrete and
    checked against the slot count of its symbol.

    `$i = loop start, count` runs its body for $i = start, ...,
    start + count - 1; `skipz $s, k` (k >= 0) skips the next k instructions
    when $s is 0, and a skip past the end of a loop body ends that
    iteration.  Reading a scalar that no executed instruction has defined,
    or a negative skip, raises IrError."""
    instrs = prog.instrs
    ends, opened = {}, []
    for idx, i in enumerate(instrs):
        if i.op == "loop":
            opened.append(idx)
        elif i.op == "endloop":
            ends[opened.pop()] = idx
    scalars: dict[str, int] = {}

    def scalar(name, line):
        if name not in scalars:
            raise IrError(f"scalar {name} is not defined on the executed "
                          "path", line)
        return scalars[name]

    def sval(o, line):
        return o.val if isinstance(o, Imm) else scalar(o.name, line)

    def cell(a, line):
        if a.terms:
            a = Addr(a.sym, a.base + sum(c * scalar(name, line)
                                         for name, c in a.terms))
        return check_address(prog, a, line)

    def cells(ops, line):
        """`ops` with each address concrete and in range (`ops` itself if
        every address already was concrete)."""
        for o in ops:
            if isinstance(o, Addr):
                if o.terms:
                    return tuple(cell(o, line) if isinstance(o, Addr) else o
                                 for o in ops)
                check_address(prog, o, line)
        return ops

    def run(lo, hi):
        pc = lo
        while pc < hi:
            i = instrs[pc]
            if i.op not in SCALAR_OPS:
                srcs, dests = cells(i.srcs, i.line), cells(i.dests, i.line)
                if srcs is not i.srcs or dests is not i.dests:
                    i = i.with_(srcs=srcs, dests=dests)
                yield i
            elif i.op == "loop":
                start, count = (sval(s, i.line) for s in i.srcs)
                for k in range(count):
                    scalars[i.dests[0].name] = start + k
                    yield from run(pc + 1, ends[pc])
                pc = ends[pc]
            elif i.op == "skipz":
                skip = sval(i.srcs[1], i.line)
                if skip < 0:
                    raise IrError(f"skipz cannot skip {skip} instructions",
                                  i.line)
                if sval(i.srcs[0], i.line) == 0:
                    pc += skip
            elif i.op in _SCALAR_ARITH:
                scalars[i.dests[0].name] = _SCALAR_ARITH[i.op](
                    *(sval(s, i.line) for s in i.srcs))
            pc += 1

    try:
        yield from run(0, len(instrs))
    finally:
        # `run` is in its own closure; without this the cycle keeps `prog`
        # alive until the cyclic collector next runs
        del run


# ---------------------------------------------------------------------------
# SSA and dependences, for the compiler and the executor

def ssa(prog: Program) -> Program:
    """The vector instructions `walk` yields, in SSA form: each register
    write is renamed `name.N`, where N counts the register writes of the
    whole walk, copies included; each `copy` is folded into the name of its
    source and dropped.  Reading a register that no executed instruction
    has written raises IrError."""
    instrs = []
    names: dict[str, Vreg] = {}
    writes = 0
    for i in walk(prog):
        try:
            srcs = tuple(names[s.name] if s.__class__ is Vreg else s
                         for s in i.srcs)
        except KeyError as e:
            raise IrError(f"register {e.args[0]} read before write",
                          i.line) from None
        if i.op == "copy":
            writes += 1
            names[i.dests[0].name] = srcs[0]
            continue
        dests = []
        for d in i.dests:
            if d.__class__ is Vreg:
                writes += 1
                names[d.name] = d = Vreg(f"{d.name}.{writes}")
            dests.append(d)
        instrs.append(i.with_(srcs=srcs, dests=tuple(dests)))
    return prog.with_(instrs)


def _addr_key(a: Addr):
    """The DRAM cell of an address; every address is concrete once `walk`
    has resolved it."""
    if a.terms:
        raise IrError(f"non-constant address {a}: unroll the program first")
    return a.sym, a.base


def build_deps(p: Program) -> tuple[list[list[int]], list[int]]:
    """(succs, npreds): succs[j] = ascending indices that wait for
    instruction j to complete, npreds[k] = how many k waits for; register
    RAW/WAR/WAW plus memory order (WAR/WAW arise only once registers are
    reused, i.e. in machine code)."""
    succs: list[list[int]] = []
    npreds: list[int] = []
    last_def: dict[str, int] = {}
    reg_readers: dict[str, list[int]] = {}
    last_write: dict = {}
    readers: dict = {}

    def write(key):
        if key in last_write:
            ps.add(last_write[key])
        ps.update(readers.pop(key, ()))
        last_write[key] = idx

    for idx, i in enumerate(p.instrs):
        ps: set[int] = set()
        store = i.op == "store"         # its address is the cell it writes
        for s in i.srcs:
            kind = s.__class__
            if kind is Vreg:
                r = s.name
                if r in last_def:
                    ps.add(last_def[r])
                reg_readers.setdefault(r, []).append(idx)
            elif kind is Addr and not store:
                key = _addr_key(s)
                if key in last_write:
                    ps.add(last_write[key])
                readers.setdefault(key, []).append(idx)
        if store:
            write(_addr_key(i.srcs[1]))
        for d in i.dests:
            kind = d.__class__
            if kind is Vreg:
                r = d.name
                if r in last_def:
                    ps.add(last_def[r])
                ps.update(reg_readers.pop(r, ()))
                last_def[r] = idx
            elif kind is Addr:
                write(_addr_key(d))
        ps.discard(idx)
        succs.append([])
        npreds.append(len(ps))
        for j in ps:
            succs[j].append(idx)
    return succs, npreds


# ---------------------------------------------------------------------------
# memory image

@dataclass
class MemoryImage:
    """DRAM symbol space; each slot holds a one-row residue polynomial."""

    dram: dict[str, list]

    def clone(self) -> "MemoryImage":
        return MemoryImage({k: list(v) for k, v in self.dram.items()})

    def _space(self, sym: str, idx: int) -> list:
        """The slots of a symbol that has a cell idx."""
        space = self.dram.get(sym)
        if space is None:
            raise ExecError(f"unknown symbol @{sym}")
        if not 0 <= idx < len(space):
            raise ExecError(f"@{sym}[{idx}] out of range (size {len(space)})")
        return space

    def fetch(self, sym: str, idx: int) -> RnsPoly:
        v = self._space(sym, idx)[idx]
        if v is None:
            raise ExecError(f"@{sym}[{idx}] read before write")
        return v

    def put(self, sym: str, idx: int, value: RnsPoly):
        self._space(sym, idx)[idx] = value


def blank_image(prog: Program) -> MemoryImage:
    return MemoryImage({sym: [None] * count
                        for sym, count in prog.dram.items()})


# ---------------------------------------------------------------------------
# golden executor

def _operand_value(env, img, o):
    """The value of a data operand: a register or an address."""
    if isinstance(o, Addr):
        return img.fetch(o.sym, o.base)
    if o.name not in env:
        raise ExecError(f"register {o} read before write")
    return env[o.name]


def _fit_modulus(poly: RnsPoly, m: Modulus, op: str,
                 movable: bool = False) -> RnsPoly:
    """poly as an operand modulo m; only a movable multiplicand may come
    from another modulus."""
    if poly.modulus.q == m.q:
        return poly
    if not movable:
        raise ExecError(f"{op}: operand modulus {poly.modulus.q} != {m.q}")
    # canonical integers move freely between moduli
    if poly.repr != NM:
        raise ContractError("only NM words are modulus-independent")
    return make_poly(m, poly.coeffs % m.q, poly.domain, poly.order, NM)


def _image_for(prog: Program, img: MemoryImage) -> MemoryImage:
    """A copy of img with an empty space for each symbol it lacks; every
    slot it holds must be of the program's ring degree."""
    for sym, space in img.dram.items():
        for k, v in enumerate(space):
            if v is not None and v.words.shape[1] != prog.n:
                raise ExecError(f"@{sym}[{k}] has ring degree "
                                f"{v.words.shape[1]}, not {prog.n}")
    img = img.clone()
    for sym, count in prog.dram.items():
        if sym not in img.dram:
            img.dram[sym] = [None] * count
    return img


def execute_program(prog: Program, img: MemoryImage) -> MemoryImage:
    """Run a program against a copy of the image and return the result.

    The vector instructions run in dependence waves, the transforms and
    multiplies of one shape in a wave as one kernel call (`_run_waves`).
    That cannot be seen from outside: if the waves raise a `ValueError`
    (bad input), the program is replayed in order, one `_step` per
    instruction, from the input image, so results and errors are those of
    in-order execution; any other exception is a bug and propagates.  Its
    references are checked first, once per program (`check_refs`)."""
    prog.once(check_refs)
    try:
        return _run_waves(prog, _image_for(prog, img))
    except ValueError:    # bad input: the replay raises the first one
        pass
    out, env = _image_for(prog, img), {}
    for i in walk(prog):
        _step(prog, i, env, out)
    return out


def _step(prog: Program, i: Instr, env, img: MemoryImage):
    """Execute one vector instruction whose addresses are concrete."""
    op = i.op
    if op == "store":
        a = i.srcs[1]
        img.put(a.sym, a.base, _operand_value(env, img, i.srcs[0]))
    elif op in ("load", "copy"):
        _put(env, img, i.dests[0], _operand_value(env, img, i.srcs[0]))
    elif op == "bconv":
        _exec_bconv(prog, i, env, img)
    elif op in FU_OPS:
        _put(env, img, i.dests[0], _kernel(i, *_args(prog, i, env, img)))
    else:
        raise ExecError(f"opcode {op} has no executor semantics")


def _put(env, img: MemoryImage, d, value: RnsPoly):
    if isinstance(d, Addr):
        # streaming sink: result flows straight to DRAM
        img.put(d.sym, d.base, value)
    else:
        env[d.name] = value


def _args(prog: Program, i: Instr, env, img: MemoryImage):
    """The kernel operands of a transform or multiply, each fitted to the
    instruction's modulus (a constant multiplicand read first), and
    whether a constant multiplicand absorbs a deferred scale."""
    m, op = prog.moduli[i.mod], i.op

    def val(o, movable=False):
        return _fit_modulus(_operand_value(env, img, o), m, op, movable)

    if op in ("ntt", "intt", "auto"):
        return (val(i.srcs[0]),), False
    bsrc = i.srcs[-1]
    if isinstance(bsrc, CRef):
        c = prog.consts[bsrc.name]
        b, absorb = Word(c.value, c.repr), c.absorb
    else:
        b, absorb = val(bsrc, movable=op != "mmad"), False
    if op == "mmul":
        return (val(i.srcs[0], True), b), absorb
    if op == "mmad":
        return (val(i.srcs[0]), b), absorb
    return (val(i.srcs[0]), val(i.srcs[1], True), b), absorb


def _kernel(i: Instr, args: tuple, absorb: bool) -> RnsPoly:
    """The kernel of a transform or multiply on its operands."""
    op = i.op
    if op == "ntt":
        return ntt_fwd(*args)
    if op == "intt":
        return ntt_inv(*args, defer_scale="defer" in i.flags)
    if op == "auto":
        return automorphism_ntt(*args, i.srcs[1].val)
    if op == "mmul":
        return vec_mmul(*args, absorb_deferred=absorb)
    if op == "mmad":
        return vec_madd(*args)
    return mac_fused(*args)


def _waves(prog: Program) -> list[list[Instr]]:
    """The instructions of `ssa(prog)` in dependence waves, each in program
    order: an instruction's wave is one more than the latest wave of its
    predecessors in `build_deps`.  In SSA form each register write is a
    new value, so machine code's reuse of its registers orders nothing;
    an address cell keeps its order of reads and writes."""
    p = ssa(prog)
    succs = build_deps(p)[0]
    level = [0] * len(p.instrs)
    waves: list[list[Instr]] = []
    for idx, i in enumerate(p.instrs):
        w = level[idx]
        if w == len(waves):
            waves.append([])
        waves[w].append(i)
        for s in succs[idx]:
            level[s] = max(level[s], w + 1)
    return waves


def _layout_key(a) -> tuple | int:
    """What a kernel checks of one operand: a polynomial's layout, or a
    constant's representation."""
    if isinstance(a, Word):
        return a.repr
    return (a.domain, a.order, a.repr, a.scale_deferred)


def _run_waves(prog: Program, img: MemoryImage) -> MemoryImage:
    """execute_program without the replay.  In each wave, in program
    order, loads, stores and bconvs run (`_step`; `ssa` folded the
    copies) and the other instructions read their operands; then the
    instructions of one opcode, flags, step and operand layout run as one
    kernel call on the rows of their operands stacked (`stack_rows`), and
    each takes its row back."""
    env: dict = {}
    for wave in prog.once(_waves):
        groups: dict = {}
        for i in wave:
            if i.op not in FU_OPS:
                _step(prog, i, env, img)
                continue
            args, absorb = _args(prog, i, env, img)
            key = (i.op, i.flags, i.srcs[-1].val if i.op == "auto" else 0,
                   absorb, tuple(map(_layout_key, args)))
            groups.setdefault(key, []).append((i, args))
        for (*_, absorb, _), members in groups.items():
            first, args = members[0]
            if len(members) == 1:
                rows = (_kernel(first, args, absorb),)
            else:
                cols = zip(*(a for _, a in members))
                rows = _kernel(first, tuple(map(_stacked, cols)),
                               absorb).limbs
            for (i, _), row in zip(members, rows):
                _put(env, img, i.dests[0], row)
    return img


def _stacked(operands) -> RnsPoly | Word:
    """One operand position of a group: the rows of its polynomials, or
    its constants as one Word of one value per row."""
    if isinstance(operands[0], Word):
        return Word(tuple(w.value for w in operands), operands[0].repr)
    return stack_rows(operands)


def _exec_bconv(prog, i, env, img):
    # reference semantics for the high-level op (pre-lowering programs):
    # identical to the lowered micro-op sequence by Montgomery associativity
    src = RnsBasis(tuple(prog.moduli[m] for m in i.meta["src_mods"]))
    dst = RnsBasis(tuple(prog.moduli[m] for m in i.meta["dst_mods"]))
    x = gather(src, *(_fit_modulus(_operand_value(env, img, s), m, "bconv")
                      for s, m in zip(i.srcs, src)))
    tables = make_bconv_tables(src, dst)
    # SM sources; finished-iNTT ones convert as canonical integers
    out = bconv_merged(x, tables) if x.scale_deferred else \
        to_sm(bconv(from_sm(x), dst, tables))
    for d, limb in zip(i.dests, out.limbs):
        env[str(d)] = limb
