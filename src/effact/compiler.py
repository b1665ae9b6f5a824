"""IR-to-machine compiler: lowering, optimization passes, scheduling,
SRAM allocation, and streaming-merge.

Pipeline (compile_program() is back_end(front_end(src))):

    front_end: parse -> unroll -> lower -> pre -> peephole_merge
    back_end:  schedule -> merge_streaming -> alloc_sram
               -> merge_spill_traffic

The compiler takes `%` registers only; `unroll` rejects machine registers
and is otherwise `ir.ssa`.  It relies on the operand kinds of
`ir.OPCODES`, which `parse_ir` checks (its unit classes, `FU_CLASS` and
`UNITS`, are views of that table), and on every address being
concrete after `unroll` (`ir.walk` resolves them): `ir._addr_key`, which
keys memory order and the streaming merges by DRAM cell, raises on any
other.
The front end does not read the hardware description, so an SRAM sweep
runs it once.  `schedule` orders for latency, and when that order needs
more SRAM slots than the hardware has, orders again so as to keep the live
values within them (integrated prepass scheduling), so `alloc_sram` spills
less.  `_fit` makes that fit-or-reschedule decision, and `back_ends` is
one loop that passes one table, `made`, to the `_fit` of each
configuration: the latency order and the slots it needs do not depend on
the slot count, so an SRAM sweep schedules for latency once, merges it
for the fit check only where the values that no merge takes out of SRAM
fit, and schedules for pressure once per slot count.  A schedule
reorders the instructions it is given and copies none: their issue cycles
are one list in `notes["issue_cycles"]`, aligned with the scheduled
order, which `back_ends` drops, since later passes change that order.

`def_use` is the one source of def/use facts after `pre`, the pressure
scheduler's included: a table of integer arrays (`Values`), which the
passes' loops read as lists and `_max_live` and `_uses` sum with numpy.
`_priorities` is the scheduler's one longest-path routine; the simulator
takes its critical path from its own scoreboard pass, with no graph.
`pre` keys each pure op by what it reads after its replacements: in SSA
code a value's first name is its value number, and a value is never
read when its name is in no source.  `peephole_merge` is one pass, and
folds two constant multiplies only through an SM constant, so the merged
code runs on exactly the data its input runs on.
`merge_streaming` makes the sink and source merges (`_merge_memory`)
over every DRAM cell, and `merge_spill_traffic` over the `__spill`
cells: one forward scan keeps each cell's last access, one backward scan
its next write, and merged stores stay in the list, which makes both
exact.

`front_end`, and each program of `back_ends` up to its `yield` (never
across it), run under `ir._collector_scope`, which turns the cyclic
collector off and then on again; `parse_ir`, `asm.disassemble_binary`
and `sim.simulate` run under it too.  Machine registers are the shared
objects of `ir.machine_regs`, not one per operand.

Every pass builds a new Program and leaves its input as it was (a program
cannot change, see `ir.Program`), and is semantics-preserving under the
golden executor.  A program's `def_use`, `build_deps` and `max_liveness`
are computed once and kept on it (`p.once`), and so is the parser's
check of references (`unroll`).  Only the front end's programs and
allocated code are scanned for `def_use`: a schedule and a
streaming merge derive their output's table from their input's
(`_carry`).  The machine instruction set has no register-move
opcode; copies die in `unroll`, and `lower` rejects one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .ir import (
    DEFER,
    FU_CLASS,
    FU_OPS,
    OPCODES,
    PURE_OPS,
    UNITS,
    Addr,
    CRef,
    ConstDef,
    Instr,
    IrError,
    Program,
    Vreg,
    _addr_key,
    _collector_scope,
    build_deps,
    check_refs,
    check_straight_line,
    machine_regs,
    parse_ir,
    ssa,
)
from .poly import make_bconv_tables
from .rns import DM, NM, SM, RnsBasis, mont_mul, sm_encode

DRAM_BASE = 100               # cycles before the first word of a transfer
WORD_BYTES = 8
# the meta of each instruction that lowering makes of a bconv
_BC = {"bc": True}


# ---------------------------------------------------------------------------
# hardware description

# `HardwareDescription.timing(n)`: (opcode, unit class, latency) for each
# of FU_CLASS; (class, count) in UNITS order, then ("dram", 1), the one
# channel; and the cycles one polynomial occupies that channel
Timing = namedtuple("Timing", "ops units xfer")
_DEFAULT_FU = (("ntt", 2), ("mmul", 4), ("madd", 4), ("auto", 1))


@dataclass(frozen=True)
class HardwareDescription:
    lanes: int = 128
    slots: int = 64               # SRAM capacity, in residue polynomials
    banks: int = 8
    dram_bw: int = 64             # bytes per cycle
    fu: tuple = _DEFAULT_FU
    ntt_pipelines: int = 4
    fifo_depth: int = 8
    streaming: bool = True
    lat_override: tuple = ()      # ((opname, cycles), ...)

    def __post_init__(self):
        counts = dict(self.fu)
        if self.slots < 2:
            raise ValueError("need at least 2 SRAM slots")
        for name in _INT_KEYS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        unknown = [k for k in counts if k not in UNITS]
        if unknown:
            raise ValueError(f"unknown unit class '{unknown[0]}' (not one "
                             f"of {'/'.join(UNITS)})")
        for k in UNITS:
            if counts.get(k, 0) <= 0:
                raise ValueError(f"need at least one {k} unit")
        for op, cycles in self.lat_override:
            if op not in FU_CLASS:
                raise ValueError(f"lat.{op}: '{op}' is not a machine opcode")
            if cycles < 1:
                raise ValueError(f"lat.{op} must be at least 1 cycle")

    def timing(self, n: int) -> Timing:
        """The one cost table of `schedule` and `sim.simulate` on n-word
        polynomials, and the key of a latency schedule.  A latency is the
        `lat.<op>` override, or `ceil(n/lanes)`, times log2(n)/ntt_pipelines
        on the ntt class, or DRAM_BASE + xfer for a transfer.  The
        scheduler books each unit, the channel too, until its result is
        ready; the simulator holds the channel for `xfer` only."""
        over, counts = dict(self.lat_override), dict(self.fu)
        xfer = max(1, -(-WORD_BYTES * n // self.dram_bw))
        base = max(1, -(-n // self.lanes))
        cost = {"ntt": max(1, base * max(1, int(math.log2(n)))
                           // self.ntt_pipelines),
                "dram": DRAM_BASE + xfer}
        return Timing(tuple((op, cls, over.get(op, cost.get(cls, base)))
                            for op, cls in FU_CLASS.items()),
                      tuple((cls, counts[cls]) for cls in UNITS)
                      + (("dram", 1),), xfer)


# the .hw keys of the integer fields of HardwareDescription
_INT_KEYS = ("lanes", "slots", "banks", "dram_bw", "ntt_pipelines",
             "fifo_depth")
_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def parse_hw(text: str) -> HardwareDescription:
    """key = value description; fu.<class> and lat.<op> set table entries."""
    kw: dict = {}
    fu = dict(_DEFAULT_FU)
    lat = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"hw line {lineno}: expected key = value")
        key, val = (t.strip() for t in line.split("=", 1))
        if key == "streaming":
            if val.lower() not in _SWITCH:
                raise ValueError(f"hw line {lineno}: streaming must be one "
                                 f"of {'/'.join(_SWITCH)}, not '{val}'")
            kw[key] = _SWITCH[val.lower()]
            continue
        if key.startswith("fu."):
            table, name = fu, key[3:]
        elif key.startswith("lat."):
            table, name = lat, key[4:]
        elif key in _INT_KEYS:
            table, name = kw, key
        else:
            raise ValueError(f"hw line {lineno}: unknown key '{key}'")
        try:
            table[name] = int(val)
        except ValueError:
            raise ValueError(f"hw line {lineno}: {key} must be an integer, "
                             f"not '{val}'") from None
    return HardwareDescription(fu=tuple(fu.items()),
                               lat_override=tuple(lat.items()), **kw)


# ---------------------------------------------------------------------------
# small helpers

# The value table of a straight-line program, SSA or allocated.  A value
# is what an instruction, its writer, writes to a register, read by each
# source operand that names the register until it is next written (so
# `mmul %a, %a` reads it twice; the results of a `bconv`, which `lower`
# expands, are one value).  Integer arrays, -1 for none: `read[s][k]` is
# the writer of what source operand s of instruction k reads (-1: no
# register, or one not written before), a row for each operand position
# of the widest instruction and at least `_ROWS`; `virtual[k]` whether k
# writes a `%` register.  For each writer k: `count[k]` reads, the last
# by `last[k]`, and ascending `readers[start[k]:start[k + 1]]`.
Values = namedtuple("Values", "read virtual count last start readers")
# the most source operands of a machine instruction (a `mac`'s): no table
# is narrower, so one that a merge derives has the rows of a scan
_ROWS = max(len(o.srcs) for o in OPCODES.values() if o.unit)


def _values(read: np.ndarray, virtual: np.ndarray) -> Values:
    """The table of `read` and `virtual`: the reads sorted by writer, then
    reader."""
    n = read.shape[1]
    s, k = np.nonzero(read >= 0)
    w, readers = np.divmod(np.sort(read[s, k] * n + k), n)
    count = np.bincount(w, minlength=n)
    start = np.concatenate(([0], np.cumsum(count)))
    last = np.where(count > 0, np.append(-1, readers)[start[1:]], -1)
    return Values(read, virtual, count, last, start, readers)


def def_use(p: Program) -> Values:
    """The value table of `p`, scanned.  A pass whose output has the
    values of its input, reordered or some of them streamed, keeps the
    table it derives on that output (`_carry`), so only the front end's
    programs and allocated code are scanned."""
    instrs = p.instrs
    n = len(instrs)
    last: dict[str, int] = {}
    writer = last.get
    vreg = Vreg
    read = [[-1] * n for _ in range(_ROWS)]
    virtual = [False] * n
    for idx, i in enumerate(instrs):
        srcs = i.srcs
        if len(srcs) > len(read):
            read += [[-1] * n for _ in range(len(srcs) - len(read))]
        s = 0               # a counter: `enumerate` made this loop slower
        for src in srcs:
            if src.__class__ is vreg:
                read[s][idx] = writer(src.name, -1)
            s += 1
        for d in i.dests:
            if d.__class__ is vreg:
                last[d.name] = idx
                virtual[idx] = d.name[0] == "%"
    return _values(np.array(read, np.intp), np.array(virtual, bool))


def _carry(read: np.ndarray, virtual: np.ndarray, keep) -> Values:
    """The table of the program made of instructions `keep` of the one
    `read` and `virtual` describe, in that order: each writer-reader pair
    of the kept instructions stays, renumbered, and an operand that a
    dropped instruction wrote reads none."""
    keep = np.asarray(keep, np.intp)
    at = np.full(read.shape[1] + 1, -1, np.intp)    # at[-1]: no writer
    at[keep] = np.arange(len(keep))
    return _values(at[read[:, keep]], virtual[keep])


def _sub_srcs(i: Instr, table: dict) -> Instr:
    srcs = tuple(table.get(s.name, s) if isinstance(s, Vreg) else s
                 for s in i.srcs)
    return i.with_(srcs=srcs) if srcs != i.srcs else i


def _intern_const(consts: dict, hint: str, mod: str, value: int, rep: int,
                  absorb: bool, interned: dict) -> CRef:
    key = (mod, value, rep, absorb)
    if key in interned:
        return CRef(interned[key])
    name, k = hint, 0
    while name in consts:
        k += 1
        name = f"{hint}{k}"
    consts[name] = ConstDef(name, mod, value, rep, absorb)
    interned[key] = name
    return CRef(name)


# ---------------------------------------------------------------------------
# unrolling: straight-line SSA code in execution order (see ir.ssa)

def unroll(p: Program) -> Program:
    """`ir.ssa(p)`: straight-line SSA code without copies.  Bad references
    (`ir.check_refs`, kept on a parsed program) and machine registers
    (`rN`, `fN`) are rejected."""
    p.once(check_refs)
    for i in p.instrs:
        for o in i.srcs + i.dests:
            if isinstance(o, Vreg) and not o.name.startswith("%"):
                raise IrError(f"machine register {o.name} in compiler "
                              "input (it takes %registers only)", i.line)
    return ssa(p)


# ---------------------------------------------------------------------------
# lowering to the machine opcode set

def lower(p: Program, hw: HardwareDescription | None = None) -> Program:
    check_straight_line(p)
    consts, instrs = dict(p.consts), []
    interned: dict = {}
    # registers carrying a scale-deferred inverse-NTT result
    deferred: set[str] = set()
    bconv_site = 0
    tmp = [0]

    def fresh(tag):
        tmp[0] += 1
        return Vreg(f"%{tag}~{tmp[0]}")

    for i in p.instrs:
        if i.op == "copy":
            raise IrError("copy in lowering input: unroll the program first",
                          i.line)
        if i.op == "intt":
            if "defer" in i.flags:
                deferred.add(str(i.dests[0]))
                instrs.append(i)
                continue
            # split into a deferred transform plus one constant multiply so
            # the 1/N factor becomes visible to the merge peephole
            m = p.moduli[i.mod]
            ninv = _intern_const(consts, f"__ninv_{i.mod}", i.mod,
                                 sm_encode(m.n_inv, m), SM, True, interned)
            t = fresh("it")
            instrs.append(i.with_(dests=(t,), flags=DEFER))
            instrs.append(Instr("mmul", i.dests, (t, ninv), i.mod,
                                line=i.line))
            continue
        if i.op == "bconv":
            bconv_site += 1
            src_mods = i.meta["src_mods"]
            dst_mods = i.meta["dst_mods"]
            src = RnsBasis(tuple(p.moduli[m] for m in src_mods))
            dst = RnsBasis(tuple(p.moduli[m] for m in dst_mods))
            tables = make_bconv_tables(src, dst)
            is_def = all(s.name in deferred for s in i.srcs)
            tj = []
            for j, (s, mname) in enumerate(zip(i.srcs, src_mods)):
                m = src[j]
                if is_def:
                    c = _intern_const(consts, f"__bc{bconv_site}s1_{j}",
                                      mname, tables.stage1_merged[j], NM,
                                      True, interned)
                else:
                    plain = (tables.stage1_merged[j] * m.n) % m.q
                    c = _intern_const(consts, f"__bc{bconv_site}s1_{j}",
                                      mname, plain, NM, False, interned)
                t = fresh("t")
                instrs.append(Instr("mmul", (t,), (s, c), mname,
                                    meta=_BC, line=i.line))
                tj.append(t)
            for k, (d, mname) in enumerate(zip(i.dests, dst_mods)):
                acc = None
                for j in range(len(src)):
                    c = _intern_const(consts, f"__bc{bconv_site}s2_{j}_{k}",
                                      mname, tables.stage2[j][k], DM, False,
                                      interned)
                    last = j == len(src) - 1
                    term = d if last and acc is None else fresh("bt")
                    instrs.append(Instr("mmul", (term,), (tj[j], c), mname,
                                        meta=_BC, line=i.line))
                    if acc is None:
                        acc = term
                    else:
                        nxt = d if last else fresh("ba")
                        instrs.append(Instr("mmad", (nxt,), (acc, term),
                                            mname, meta=_BC,
                                            line=i.line))
                        acc = nxt
            continue
        instrs.append(i)
    return p.with_(instrs, consts=consts)


# ---------------------------------------------------------------------------
# copy propagation

def propagate(p: Program) -> Program:
    """Each copy's readers read its source, and the copy is dropped; the
    front end needs no such pass, since `unroll` folds copies."""
    table: dict[str, object] = {}
    instrs = []
    for i in p.instrs:
        i = _sub_srcs(i, table)
        if i.op == "copy":
            table[i.dests[0].name] = i.srcs[0]
            continue
        instrs.append(i)
    return p.with_(instrs)


# ---------------------------------------------------------------------------
# partial redundancy elimination (value numbering + pure-op DCE)

def pre(p: Program) -> Program:
    """Drop each pure op on registers that repeats an earlier one, its
    readers reading the earlier result, then each pure op whose result is
    never read, whose name no source holds (one level: what only it read
    stays).

    The key is `(op, flags, mod, srcs)` taken after the replacements: in
    SSA code each value then has one name, its first, which is its value
    number; operands compare by class and value (`Vreg("a") !=
    CRef("a")`), and `flags` is a frozenset.  So equal keys are equal
    opcodes, flags, moduli and value numbers, with no table of them."""
    check_straight_line(p)
    seen: dict = {}
    repl: dict[str, Vreg] = {}
    instrs = []
    for i in p.instrs:
        i = _sub_srcs(i, repl)
        pure = (i.op in PURE_OPS and isinstance(i.dests[0], Vreg)
                and not any(isinstance(s, Addr) for s in i.srcs))
        if not pure:
            instrs.append(i)
            continue
        key = (i.op, i.flags, i.mod, i.srcs)
        if key in seen:
            repl[i.dests[0].name] = seen[key]
            continue
        seen[key] = i.dests[0]
        instrs.append(i)
    # dead-code elimination over pure ops whose result is never read: in
    # SSA code, whose name is in no source
    read = {s.name for i in instrs for s in i.srcs if s.__class__ is Vreg}
    return p.with_([i for i in instrs if not (
        i.op in PURE_OPS and i.dests[0].__class__ is Vreg
        and i.dests[0].name not in read)])


# ---------------------------------------------------------------------------
# computation-merge peephole

def _try_fold_consts(p: Program, consts: dict, prod: Instr, cons: Instr,
                     interned) -> Instr | None:
    """mmul(mmul(x, !c1), !c2), same modulus -> mmul(x, !c1*c2*R^-1); the
    folded constant is interned into `consts`.  None if `prod` is no such
    multiply or the pair does not fold.  A pair folds only through an SM
    constant, the identity of MontMult's tags: the folded constant has the
    other's tag and the first's absorb, so the fold accepts exactly the
    data, of any tag and deferred or not, that the pair accepts (the
    second multiply never reads deferred data, so its absorb is moot)."""
    if (prod.op != "mmul" or prod.mod != cons.mod
            or not isinstance(prod.srcs[1], CRef)):
        return None
    c1 = consts[prod.srcs[1].name]
    c2 = consts[cons.srcs[1].name]
    if SM not in (c1.repr, c2.repr):
        return None
    m = p.moduli[prod.mod]
    folded = mont_mul(c1.value, c2.value, m)
    c = _intern_const(consts,
                      f"__mrg_{prod.srcs[1].name}_{cons.srcs[1].name}",
                      prod.mod, folded, c1.repr + c2.repr - SM, c1.absorb,
                      interned)
    return cons.with_(srcs=(prod.srcs[0], c),
                      meta=_BC if prod.meta.get("bc") else None)


def peephole_merge(p: Program) -> Program:
    """Constant folds and MAC fusions in one forward pass, a fixed point: a
    rewrite moves its producer's reads onto it, so read counts hold, and a
    reader sees its producer rewritten.  A pair folds only through an SM
    constant, so the folded constant has the tag of the pair's other
    constant: it folds with the producer's own producer only where the
    producer would have, and the producer, which came first, did not."""
    consts = dict(p.consts)
    interned = {(c.mod, c.value, c.repr, c.absorb): c.name
                for c in consts.values()}
    values = p.once(def_use)
    read, count = values.read.tolist(), values.count.tolist()
    kill = set()
    instrs = list(p.instrs)
    for idx, i in enumerate(instrs):
        # fold chained constant multiplies
        if i.op == "mmul" and isinstance(i.srcs[1], CRef):
            j = read[0][idx]
            if j >= 0 and count[j] == 1:
                folded = _try_fold_consts(p, consts, instrs[j], i, interned)
                if folded is not None:
                    instrs[idx] = folded
                    kill.add(j)
        # fuse a single-use multiply feeding an accumulate into a MAC
        elif i.op == "mmad":
            for pos in (1, 0):
                j = read[pos][idx]
                if j < 0 or count[j] != 1:
                    continue
                prod = instrs[j]
                if prod.op != "mmul" or prod.mod != i.mod:
                    continue
                b, acc = prod.srcs[1], i.srcs[1 - pos]
                # a MAC accumulates into a vector, never a constant
                if isinstance(acc, CRef) or (
                        isinstance(b, CRef) and consts[b.name].absorb):
                    continue
                instrs[idx] = i.with_(
                    op="mac", srcs=(acc, prod.srcs[0], b),
                    meta=_BC if prod.meta.get("bc") else None)
                kill.add(j)
                break
    if not kill:
        return p.with_()
    return p.with_([ins for k, ins in enumerate(instrs) if k not in kill],
                   consts=consts)


# ---------------------------------------------------------------------------
# list scheduling (the dependence graph is `ir.build_deps`)

def _priorities(lat: list[int], succs: list[list[int]]) -> list[int]:
    """Longest latency-weighted path from each instruction to any exit;
    the largest is the critical path of a schedule."""
    prio = [0] * len(lat)
    for idx in range(len(lat) - 1, -1, -1):
        prio[idx] = lat[idx] + max(map(prio.__getitem__, succs[idx]),
                                   default=0)
    return prio


class UnitPool:
    """The free cycles of the units of one class, for the scheduler and the
    simulator.  Units in use sit in a heap; those never used are only
    counted, free from cycle 0.  Memory grows with the units an
    instruction has taken, not with the class's size, and the earliest
    free unit is the one a list of every unit's free cycle would give."""

    def __init__(self, count: int):
        self.unused = count
        self.free_at: list[int] = []

    def earliest(self) -> int:
        """The cycle the earliest free unit becomes free."""
        return 0 if self.unused else self.free_at[0]

    def take(self, until: int) -> None:
        """Occupy the earliest free unit until the given cycle."""
        if self.unused:
            self.unused -= 1
            heappush(self.free_at, until)
        else:
            heapreplace(self.free_at, until)


def _uses(p: Program) -> tuple[np.ndarray, ...]:
    """From the distinct (writer, reader) pairs of `def_use(p)`, what the
    pressure scheduler counts down: by writer, its readers and their sum;
    by instruction k, its delta before any issue and the writers it reads,
    `writers[start[k]:start[k + 1]]`.  Kept on the program
    (`p.once(_uses)`) for every budget."""
    values = p.once(def_use)
    n = len(values.count)
    pairs = np.repeat(np.arange(n), values.count) * n + values.readers
    w, r = np.divmod(pairs[np.diff(pairs, prepend=-1) > 0], n)   # sorted
    pending = np.bincount(w, minlength=n)
    unread = np.bincount(w, r, n).astype(np.intp)   # exact below 2 ** 53
    delta = (pending > 0) - np.bincount(unread[pending == 1], minlength=n)
    start = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))))
    return pending, unread, delta, start, w[np.argsort(r, kind="stable")]


def _list_schedule(instrs: list[Instr], timing: Timing,
                   succs: list[list[int]], npreds: list[int], lat: list[int],
                   prio: list[int], budget: int | None = None,
                   uses: tuple | None = None):
    """Issue order and issue cycles of one list-scheduling pass.

    Each step issues a ready instruction at the earliest cycle its operands
    and a unit of its class allow.  Without a budget the step takes the one
    with the longest path to an exit.  With one, it also counts the live
    values (`uses` = `_uses(p)`) in issue order, and while that count
    is above the budget, where an allocator with `budget` slots must spill,
    it takes the one with the lowest delta = results read later - values it
    is the last reader of, ties by path length (integrated prepass
    scheduling, Goodman & Hsu, ICS 1988).  The counts are kept, not summed
    again: for each value, its readers not issued (`pending`) and the sum
    of their indices, so that when one reader is left that sum names it;
    for each instruction, its delta, one less each time a value it reads
    falls to one pending reader.  A delta only falls as other reads issue,
    so each fall pushes a fresh heap entry, and stale entries are skipped
    when popped.
    """
    n_instr = len(instrs)
    remaining = list(npreds)
    ready_at = [0] * n_instr        # max finish time of predecessors
    issued = [False] * n_instr
    by_prio = [(-prio[k], k) for k in range(n_instr) if remaining[k] == 0]
    heapify(by_prio)
    by_delta: list[tuple[int, int, int]] = []
    live = 0
    pressure = budget is not None
    if pressure:
        # by writer: how many of the instructions that read its value have
        # not issued, and the sum of their indices; by instruction, its
        # delta
        pending, unread, delta, offset, writers = (a.tolist() for a in uses)
        by_delta = [(delta[k], -prio[k], k) for _, k in by_prio]
        heapify(by_delta)
    pools = {cls: UnitPool(count) for cls, count in timing.units}
    unit = {op: pools[cls] for op, cls, _ in timing.ops}
    pool_of = [unit[i.op] for i in instrs]
    order, cycles = [], [0] * n_instr
    while True:
        heap = by_delta if pressure and live > budget else by_prio
        if not heap:
            break
        entry = heappop(heap)
        idx = entry[-1]
        if issued[idx] or (heap is by_delta and entry[0] != delta[idx]):
            continue
        issued[idx] = True
        pool = pool_of[idx]
        start = pool.earliest()
        if ready_at[idx] > start:
            start = ready_at[idx]
        finish = start + lat[idx]
        pool.take(finish)
        cycles[idx] = start
        order.append(idx)
        if pressure:
            if pending[idx]:        # its readers depend on it: none issued
                live += 1
            for j in writers[offset[idx]:offset[idx + 1]]:
                pending[j] -= 1
                unread[j] -= idx
                if pending[j] == 0:
                    live -= 1
                elif pending[j] == 1:
                    # the one reader still to issue now reads it last
                    r = unread[j]
                    delta[r] -= 1
                    if remaining[r] == 0:
                        heappush(by_delta, (delta[r], -prio[r], r))
        for s in succs[idx]:
            if ready_at[s] < finish:
                ready_at[s] = finish
            remaining[s] -= 1
            if remaining[s] == 0:
                heappush(by_prio, (-prio[s], s))
                if pressure:
                    heappush(by_delta, (delta[s], -prio[s], s))
    if len(order) != n_instr:
        raise IrError("cyclic dependence in program")
    return order, cycles


def _latency_schedule(p: Program, timing: Timing):
    """The dependence graph of `p` as (successors, predecessor counts,
    latencies, priorities), and `p` list-scheduled for latency, emitted in
    issue-cycle order (`_emit`).  This is the part of `schedule` that does
    not depend on the slot count: it reads `timing` only."""
    check_straight_line(p)
    succs, npreds = p.once(build_deps)
    table = {op: cycles for op, _, cycles in timing.ops}
    lat = [table[i.op] for i in p.instrs]
    graph = (succs, npreds, lat, _priorities(lat, succs))
    order, cycles = _list_schedule(p.instrs, timing, *graph)
    order.sort(key=lambda k: (cycles[k], k))
    return graph, _emit(p, graph, order, cycles)


def _emit(p: Program, graph, order: list[int], cycles: list[int]) -> Program:
    """`p` in the given order, the very instruction objects reordered, with
    its value table carried; `notes` get the issue cycles in that order
    (`issue_cycles`), the makespan and the critical path."""
    _, _, lat, prio = graph
    out = p.with_([p.instrs[k] for k in order])
    values = p.once(def_use)
    out.keep(def_use, _carry(values.read, values.virtual, order))
    out.notes["issue_cycles"] = [cycles[k] for k in order]
    cp = max(prio, default=0)
    makespan = max((c + l for c, l in zip(cycles, lat)), default=0)
    if makespan < cp:
        raise RuntimeError(f"schedule makespan {makespan} is below the "
                           f"critical path {cp}")
    out.notes["critical_path"] = cp
    out.notes["makespan"] = makespan
    return out


def _fit(p: Program, hw: HardwareDescription, made: dict):
    """(schedule(p, hw), fit).  The latency schedule fits when the slots
    its values need (`max_liveness`, after `merge_streaming` on streaming
    hardware) are at most `hw.slots`; it is then the schedule, and `fit`
    is it as merged for that check.  With streaming, the merge is made
    only when its lower bound fits (`_merge_bound`: the values read twice
    or more, and those the FIFOs cannot take).  Otherwise the same
    dependence graph is scheduled again with `hw.slots` as the live-value
    budget (see `_list_schedule`), emitted in issue order, and `fit` is
    None.  `made` keeps what another configuration would compute again,
    keyed by exactly what it reads: the latency schedule and its graph by
    `timing = hw.timing(p.n)`; the fit check's merged program by
    `(timing, "merged", hw.fifo_depth)`; and the pressure schedule's issue
    order and cycles by `(timing, hw.slots)`, which streaming on and off
    share.  It keeps those two lists, not an emitted program, which would
    keep its `def_use` alive."""
    timing = hw.timing(p.n)
    if timing not in made:
        made[timing] = _latency_schedule(p, timing)
    graph, latency = made[timing]
    need = latency.once(_max_live)[0]
    fit = latency
    if hw.streaming:
        need = _merge_bound(latency, hw.fifo_depth)
        if need <= hw.slots:
            fit_key = (timing, "merged", hw.fifo_depth)
            if fit_key not in made:
                made[fit_key] = merge_streaming(latency, hw)
            fit = made[fit_key]
            need = fit.once(_max_live)[0]
    if need <= hw.slots:
        return latency, fit
    pressure_key = (timing, hw.slots)
    if pressure_key not in made:
        made[pressure_key] = _list_schedule(p.instrs, timing, *graph,
                                            hw.slots, p.once(_uses))
    return _emit(p, graph, *made[pressure_key]), None


def schedule(p: Program, hw: HardwareDescription) -> Program:
    """List-schedule for latency, and again for SRAM pressure when the
    latency schedule does not fit (see `_fit`).  The instructions are
    `p`'s own, reordered; `notes` get the issue cycle of each
    (`issue_cycles`, in the new order), the makespan and the critical
    path."""
    return _fit(p, hw, {})[0]


# ---------------------------------------------------------------------------
# streaming merges

def _read_once(values: Values) -> tuple[list, list]:
    """For the merges' loops: by instruction, the writer its first operand
    reads; by writer, the one reader of a value read once (else -1)."""
    return (values.read[0].tolist(),
            np.where(values.count == 1, values.last, -1).tolist())


def _merge_memory(instrs: list[Instr], read: list, once: list,
                  sym: str | None = None):
    """Sink and source merges over the cells of DRAM symbol `sym` (of every
    cell if None), in place, where `read`, `once` = `_read_once` of the
    program `instrs` lists.  Returns the indices of the loads and stores
    merged away, which stay in `instrs`, and those of the FUs that write
    a cell in place of a register.

    Sink, in one forward scan: an FU result read only by a store writes the
    cell itself when the cell's last access before the store is at or
    before the FU.  Source, in one backward scan of what the sinks left: a
    load that one FU operand reads becomes that operand when the cell's
    next write after it is at or after that read.  These are the merges a
    rescan of each interval makes: a killed store still counts as an
    access and a write; a write a sink merge moves up to its FU sits before
    its own store, a later access, so only the backward scan sees it; and
    a source merge moves only reads, which no source check asks about."""
    last: dict = {}         # cell -> index of its last access so far
    kill, sunk = set(), []
    for idx, i in enumerate(instrs):
        if i.op == "store":
            j, key = read[idx], _addr_key(i.srcs[1])
            if (j >= 0 and once[j] == idx and sym in (None, key[0])
                    and instrs[j].op in FU_OPS and last.get(key, -1) <= j):
                instrs[j] = instrs[j].with_(dests=(i.srcs[1],))
                kill.add(idx)
                sunk.append(j)
        for a in i.srcs + i.dests:
            if a.__class__ is Addr:
                last[_addr_key(a)] = idx
    written: dict = {}      # cell -> index of its next write
    for idx in range(len(instrs) - 1, -1, -1):
        i = instrs[idx]
        if i.op == "load" and once[idx] >= 0:
            r, key = once[idx], _addr_key(i.srcs[0])
            if (sym in (None, key[0]) and instrs[r].op in FU_OPS
                    and written.get(key, r) >= r):
                instrs[r] = _sub_srcs(instrs[r],
                                      {i.dests[0].name: i.srcs[0]})
                kill.add(idx)
        for a in i.srcs[1:] if i.op == "store" else i.dests:
            if a.__class__ is Addr:
                written[_addr_key(a)] = idx
    return kill, sunk


def merge_streaming(p: Program, hw: HardwareDescription) -> Program:
    """Stream the SSA values: the sink and source merges over every DRAM
    cell (`_merge_memory`), then FU-to-FU forwarding of each FU result
    that one FU operand reads through one of `hw.fifo_depth` channels
    `f<k>`, the lowest free one, held until that read.  The output keeps
    every writer-reader pair but those of the merged loads and stores, so
    its value table is carried, with no `%` register for a result that
    is sunk or forwarded."""
    instrs = list(p.instrs)
    values = p.once(def_use)
    read, once = _read_once(values)
    kill, sunk = _merge_memory(instrs, read, once)
    fifos = machine_regs("f")
    free: list[int] = []               # released ids, a heap; all < fresh
    fresh = 0                          # ids fresh.. have never been taken
    release: list[tuple[int, int]] = []   # (consumer index, fifo id)
    forwarded = []
    for idx, i in enumerate(instrs):
        while release and release[0][0] <= idx:
            heappush(free, heappop(release)[1])
        r = once[idx]
        if r < 0 or i.op not in FU_OPS or not isinstance(i.dests[0], Vreg) \
                or not i.dests[0].name.startswith("%"):
            continue
        if instrs[r].op not in FU_OPS:
            continue
        if free:
            fid = heappop(free)
        elif fresh < hw.fifo_depth:
            fid, fresh = fresh, fresh + 1
            machine_regs("f", fresh)
        else:
            continue
        reg = fifos[fid]
        instrs[idx] = i.with_(dests=(reg,))
        instrs[r] = _sub_srcs(instrs[r], {i.dests[0].name: reg})
        heappush(release, (r, fid))
        forwarded.append(idx)
    keep = [k for k in range(len(instrs)) if k not in kill]
    out = p.with_([instrs[k] for k in keep])
    virtual = values.virtual.copy()
    virtual[sunk] = virtual[forwarded] = False
    out.keep(def_use, _carry(values.read, virtual, keep))
    return out


# ---------------------------------------------------------------------------
# linear-scan SRAM allocation

def max_liveness(p: Program) -> int:
    """Fewest SRAM slots that admit a spill-free allocation.

    Mirrors the allocator: sources dying at an instruction release their
    slots before the destination is placed.  Kept on the program
    (`p.once(_max_live)`), where `_fit` and `alloc_sram` read it.
    """
    return p.once(_max_live)[0]


def _max_live(p: Program) -> tuple[int, np.ndarray, np.ndarray]:
    """The peak of `max_liveness`, and at each instruction the live values
    read twice or more and the live FU results that one FU operand reads.
    The value of a `%` register is live from its writer up to its last
    read (only at its writer if never read): each count is a cumulative
    sum of births and deaths."""
    values = p.once(def_use)
    n = len(p.instrs)
    count, virtual = values.count, values.virtual
    fu = np.fromiter((i.op in FU_OPS for i in p.instrs), bool, n)
    end = np.where(count > 0, values.last, np.arange(1, n + 1))

    def live(born):
        writers = np.flatnonzero(born)
        return np.cumsum(np.bincount(writers, minlength=n + 1)
                         - np.bincount(end[writers], minlength=n + 1))

    forwardable = virtual & (count == 1) & fu & fu[values.last]
    return (int(live(virtual).max(initial=0)), live(virtual & (count > 1)),
            live(forwardable))


def _merge_bound(p: Program, fifo_depth: int) -> int:
    """A lower bound of `max_liveness` of `p` merged for streaming with
    `fifo_depth` channels: the most values live at one instruction that
    stay in SRAM.  A merge streams only values read once, and at most
    `fifo_depth` of the FU results that one FU operand reads are in a
    channel at once; at the last writer of those values, the merged
    program counts them all."""
    _, multi, forwardable = p.once(_max_live)
    return int((multi + np.maximum(forwardable - fifo_depth, 0))
               .max(initial=0))


def alloc_sram(p: Program, hw: HardwareDescription) -> Program:
    """Linear-scan allocation of the virtual registers to the `hw.slots`
    SRAM slots `rK`, in program order.

    A value takes the lowest released slot, or else the next slot never
    taken, and leaves it at its last read; a result never read leaves it at
    once.  When every slot is taken, the live value read farthest ahead is
    evicted, ties to the higher name (Belady, IBM Systems Journal 1966), but
    never a source of the instruction being allocated.  Each victim gets one
    `__spill` cell and is stored there once, at its first eviction; it is
    loaded again before each read that finds it evicted.
    `notes["spills"]` counts those spill stores and loads, before
    `merge_spill_traffic` streams any of them, and `notes["max_live"]` is
    the input's `max_liveness`.

    Each live value keeps a cursor to its next read in its writer's
    readers (`def_use`), moved past each instruction that reads it; an
    eviction scans the live values' cursors for the largest.  IrError if
    a register is read before it is written, or if one instruction's
    sources and result need more than `hw.slots` slots."""
    values = p.once(def_use)
    instrs = p.instrs
    # each virtual register's writer; its reads, in scheduled order, are
    # readers[start[j]:start[j + 1]], the last last[j]
    value = {instrs[j].dests[0].name: j
             for j in np.flatnonzero(values.virtual).tolist()}
    last, start = values.last.tolist(), values.start.tolist()
    readers = values.readers.tolist()
    regs = machine_regs("r")         # grown as slots are first taken
    reg_of: dict[str, int] = {}      # live vreg -> slot
    at = [0] * len(instrs)           # writer -> its next read in readers
    free: list[int] = []             # released slots, a heap; all < fresh
    fresh = 0                        # slots fresh.. have never been taken
    spill_at: dict[str, Addr] = {}   # vreg -> its __spill cell, once stored
    spills = 0
    emitted: list[Instr] = []

    def take_slot(pinned):
        nonlocal fresh, spills
        if free:
            return heappop(free)
        if fresh < hw.slots:
            fresh += 1
            machine_regs("r", fresh)
            return fresh - 1
        # every live value is read again (see the loop below), so evict the
        # unpinned one read farthest ahead, ties to the higher name (Belady)
        victim, far = None, -1
        for v in reg_of:
            k = readers[at[value[v]]]
            if (k > far or k == far and v > victim) and v not in pinned:
                victim, far = v, k
        if victim is None:
            raise IrError(f"register pressure exceeds {hw.slots} SRAM "
                          "slots at one instruction")
        slot = reg_of.pop(victim)
        if victim not in spill_at:
            spill_at[victim] = Addr("__spill", len(spill_at))
            emitted.append(Instr("store", (), (regs[slot], spill_at[victim])))
            spills += 1
        return slot

    for idx, i in enumerate(instrs):
        # each source classified once: a virtual register is reloaded if
        # spilled, pinned to its slot for this instruction and renamed
        pinned = []
        srcs = []
        for s in i.srcs:
            if s.__class__ is Vreg and s.name[0] == "%":
                v = s.name
                if v not in reg_of:
                    if v not in spill_at:
                        raise IrError(f"register {v} used before definition")
                    reg_of[v] = take_slot(pinned)
                    emitted.append(Instr("load", (regs[reg_of[v]],),
                                         (spill_at[v],)))
                    spills += 1
                if v not in pinned:
                    pinned.append(v)
                s = regs[reg_of[v]]
            srcs.append(s)
        # a source read here for the last time leaves its slot; the others
        # move their cursor past this instruction
        for v in pinned:
            j = value[v]
            if last[j] <= idx:
                heappush(free, reg_of.pop(v))
                continue
            k = at[j] + 1
            while readers[k] <= idx:
                k += 1
            at[j] = k
        dests = i.dests
        d = dests[0] if dests else None
        if d.__class__ is Vreg and d.name[0] == "%":
            v = d.name
            slot = take_slot(pinned)
            dests = (regs[slot],)
            j = value[v]
            if last[j] >= 0:
                reg_of[v] = slot
                at[j] = start[j]
            else:
                heappush(free, slot)
        emitted.append(Instr(i.op, dests, tuple(srcs), i.mod, i.flags,
                             i.meta, i.line))
    out = p.with_(emitted, dram={**p.dram, "__spill": len(spill_at)}
                  if spill_at else p.dram)
    out.notes["spills"] = spills
    out.notes["max_live"] = p.once(_max_live)[0]
    return out


# ---------------------------------------------------------------------------
# post-allocation spill merge (streaming the spill traffic)

def merge_spill_traffic(p: Program) -> Program:
    """The sink and source merges of `merge_streaming`, over the `__spill`
    cells of allocated code: an FU result whose one read is a spill store
    is written straight to the spill cell, and a spill load that one FU
    operand reads becomes that operand.  A program with no `__spill`
    symbol has nothing to merge and is returned as it is."""
    if "__spill" not in p.dram:
        return p
    instrs = list(p.instrs)
    kill = _merge_memory(instrs, *_read_once(p.once(def_use)), "__spill")[0]
    return p.with_([ins for k, ins in enumerate(instrs) if k not in kill])


# ---------------------------------------------------------------------------
# driver

def front_end(src, *, do_pre: bool = True, do_merge: bool = True) -> Program:
    """parse -> unroll -> lower -> pre -> peephole_merge: the passes that
    do not depend on the hardware.  Copies die once, in `unroll`: machine
    code has no register move, and no later pass makes one."""
    with _collector_scope():
        p = lower(unroll(parse_ir(src) if isinstance(src, str) else src))
        if do_pre:
            p = pre(p)
        if do_merge:
            p = peephole_merge(p)
        return p


def back_ends(p: Program, hws) -> Iterator[Program]:
    """back_end(p, hw) for each of `hws` in turn, on a front-end program,
    which is left as it was.  Every `_fit` shares one `made`, emptied
    right after the last, whose merges and allocation run without it."""
    hws = list(hws)
    made: dict = {}
    for k, hw in enumerate(hws):
        with _collector_scope():
            q, fit = _fit(p, hw, made)
            if k == len(hws) - 1:
                made.clear()
            if fit is not None:
                q = fit
            elif hw.streaming:          # scheduled for pressure
                q = merge_streaming(q, hw)
            q = alloc_sram(q, hw)
            if hw.streaming:
                q = merge_spill_traffic(q)
            del q.notes["issue_cycles"]     # the schedule's, not q's order
            q.notes["streaming"] = hw.streaming
        yield q
        del q, fit  # no name keeps a program while the next one compiles


def back_end(p: Program, hw: HardwareDescription) -> Program:
    """schedule -> merge_streaming -> alloc_sram -> merge_spill_traffic
    (the merges on streaming hardware only), on a front-end program, which
    is left as it was."""
    return next(back_ends(p, (hw,)))


def compile_program(src, hw: HardwareDescription | None = None,
                    **flags) -> Program:
    """The back end applied to the front end; `flags` are front_end's
    do_pre and do_merge."""
    return back_end(front_end(src, **flags), hw or HardwareDescription())
