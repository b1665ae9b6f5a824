"""Deterministic performance model of the accelerator.

Scoreboard-style simulation over machine programs: per-class function
units (MAC on the multiplier array, as `schedule` books it), a
bandwidth-limited DRAM channel with a fixed base latency, SRAM
bank-conflict serialization, and element-granularity streaming where
merged operands flow between DRAM and function units without parking in
SRAM.  What each opcode, unit and transfer costs comes from the one cost
table that `schedule` reads too, `HardwareDescription.timing`.

`simulate` is one pass over the program, with no dependence graph.  Its
scoreboard (`_Board`) keeps, for each register and each DRAM cell
(`ir._addr_key`), the cycle its last writer completes and the latest cycle
a reader completes.  An instruction is ready at the writer entry of each
key it reads and both entries of each key it writes: the latest completion
among its `ir.build_deps` predecessors (register RAW, WAR and WAW, and the
order of the accesses to each cell).  The reader entry is a running max,
never reset at a write: a reader before the last write completes no later
than that writer, which waited for it.  The board keeps the same two
entries as longest-path lengths with unbounded units, so the critical path
comes from the same pass.

Each register is classified once per call, at its first use in program
order, as an SRAM slot or a FIFO channel and checked against the hardware
(`_slot`); an address operand of a unit is streamed.  The DRAM channel's
next free cycle and the byte counters are locals of the pass.  A bank
conflict between two distinct SRAM slots is one comparison; only an
instruction that accesses a third builds a set of their banks.  The pass
records the cycle each instruction completes (`SimReport.complete`).  Like
a compile step, a simulation runs under `ir._collector_scope`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .asm import check_machine_form
from .compiler import (
    DRAM_BASE,
    WORD_BYTES,
    HardwareDescription,
    UnitPool,
    back_ends,
    front_end,
)
from .ir import Addr, Program, Vreg, _addr_key, _collector_scope


@dataclass
class SimReport:
    cycles: int
    fu_busy: dict[str, int]
    fu_count: dict[str, int]
    dram_load_bytes: int
    dram_store_bytes: int
    dram_stream_bytes: int
    bank_conflicts: int
    fifo_peak: int
    critical_path: int
    instructions: int
    # complete[k]: the cycle instruction k completes; not in to_dict()
    complete: list[int] = field(repr=False)

    @property
    def dram_bytes(self) -> int:
        return (self.dram_load_bytes + self.dram_store_bytes
                + self.dram_stream_bytes)

    @property
    def fu_utilization(self) -> float:
        """Aggregate compute-unit utilization (DRAM excluded)."""
        busy = sum(v for k, v in self.fu_busy.items() if k != "dram")
        cap = self.cycles * sum(v for k, v in self.fu_count.items()
                                if k != "dram")
        return busy / cap if cap else 0.0

    @property
    def dram_utilization(self) -> float:
        return self.fu_busy["dram"] / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "critical_path": self.critical_path,
            "instructions": self.instructions,
            "fu_busy": dict(self.fu_busy),
            "fu_count": dict(self.fu_count),
            "fu_utilization": round(self.fu_utilization, 6),
            "dram_utilization": round(self.dram_utilization, 6),
            "dram_bytes": self.dram_bytes,
            "dram_load_bytes": self.dram_load_bytes,
            "dram_store_bytes": self.dram_store_bytes,
            "dram_stream_bytes": self.dram_stream_bytes,
            "bank_conflicts": self.bank_conflicts,
            "fifo_peak": self.fifo_peak,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _slot(reg: str, hw: HardwareDescription) -> int:
    """The SRAM slot of register rK, -1 for FIFO channel fK; ValueError
    if the hardware has no such slot or channel."""
    k = int(reg[1:])
    if reg[0] == "r":
        if k >= hw.slots:
            raise ValueError(f"register {reg} exceeds the "
                             f"{hw.slots}-slot SRAM")
        return k
    if k >= hw.fifo_depth:
        raise ValueError(f"fifo channel {reg} exceeds depth "
                         f"{hw.fifo_depth}")
    return -1


class _Board(dict):
    """The scoreboard: a register name or DRAM cell (`ir._addr_key`) ->
    [the cycle its last writer completes, the latest cycle a reader
    completes, the same two as longest-path lengths]."""

    def __missing__(self, key) -> list[int]:
        e = self[key] = [0, 0, 0, 0]
        return e


class _Slots(dict):
    """Register name -> its `_slot` on one hardware description, each
    register classified, and checked, at its first lookup."""

    def __init__(self, hw: HardwareDescription):
        super().__init__()
        self.hw = hw

    def __missing__(self, reg: str) -> int:
        k = self[reg] = _slot(reg, self.hw)
        return k


@_collector_scope()
def simulate(p: Program, hw: HardwareDescription) -> SimReport:
    check_machine_form(p)
    n = p.n
    timing = hw.timing(n)
    xfer = timing.xfer
    poly_bytes = WORD_BYTES * n
    banks = hw.banks

    pools = {cls: UnitPool(count) for cls, count in timing.units}
    busy = dict.fromkeys(pools, 0)
    # each opcode's unit class, units (None for a transfer) and latency
    unit = {op: (cls, None if cls == "dram" else pools[cls], lat)
            for op, cls, lat in timing.ops}
    channel_free = dram_busy = 0       # the DRAM channel
    load_b = store_b = stream_b = 0    # its bytes, by kind of transfer
    complete = []
    conflicts_total = cp = 0
    fifo_events: list[tuple[int, int]] = []   # (cycle, +1/-1)
    slot = _Slots(hw)
    board = _Board()

    for i in p.instrs:
        cls, pool, lat = unit[i.op]
        if pool is None:
            # a load or store is its own transfer: it ends no earlier than
            # its last word leaves the channel
            if i.op == "load":
                reg = i.dests[0].name
                src, put = board[_addr_key(i.srcs[0])], board[reg]
                load_b += poly_bytes
            else:
                reg = i.srcs[0].name
                src, put = board[reg], board[_addr_key(i.srcs[1])]
                store_b += poly_bytes
            slot[reg]                   # checked, though no unit reads it
            ready = max(src[0], put[0], put[1])
            path = max(src[2], put[2], put[3])
            start = ready if ready > channel_free else channel_free
            channel_free = start + xfer
            dram_busy += xfer
            done = start + (lat if lat > xfer else xfer)
            got = (src,)
        else:
            sram = []               # the distinct SRAM slots it accesses
            reads = streams = 0     # FIFO channels read, sources streamed
            got = []                # the entries of the keys it reads
            for o in i.srcs:
                kind = o.__class__
                if kind is Vreg:
                    name = o.name
                    got.append(board[name])
                    k = slot[name]
                    if k < 0:
                        reads += 1
                    elif k not in sram:
                        sram.append(k)
                elif kind is Addr:
                    got.append(board[_addr_key(o)])
                    streams += 1
            o = i.dests[0]          # every unit writes one result
            drain = o.__class__ is Addr     # streamed to DRAM
            writes = 0              # FIFO channels written
            if drain:
                put = board[_addr_key(o)]
            else:
                name = o.name
                put = board[name]
                k = slot[name]
                if k < 0:
                    writes = 1
                elif k not in sram:
                    sram.append(k)
            ready = put[0] if put[0] > put[1] else put[1]
            path = put[2] if put[2] > put[3] else put[3]
            for e in got:
                if e[0] > ready:
                    ready = e[0]
                if e[2] > path:
                    path = e[2]
            start = pool.earliest()
            if ready > start:
                start = ready
            if streams:
                # the unit starts once the first elements of each arrive
                for _ in range(streams):
                    t = ready if ready > channel_free else channel_free
                    channel_free = t + xfer
                    if t + DRAM_BASE > start:
                        start = t + DRAM_BASE
                dram_busy += streams * xfer
                stream_b += streams * poly_bytes
            # SRAM bank conflicts serialize same-cycle accesses to distinct
            # slots that share a bank
            end = start + lat
            if len(sram) > 1:
                conf = (sram[0] % banks == sram[1] % banks if len(sram) == 2
                        else len(sram) - len({k % banks for k in sram}))
                conflicts_total += conf
                end += conf
            pool.take(end)
            busy[cls] += end - start
            done = end
            if drain:
                # a streamed result drains to DRAM as it is produced
                t = start if start > channel_free else channel_free
                channel_free = t + xfer
                dram_busy += xfer
                stream_b += poly_bytes
                if t + DRAM_BASE + xfer > done:
                    done = t + DRAM_BASE + xfer
            if reads or writes:
                fifo_events += [(done, 1)] * writes + [(start, -1)] * reads
        # the board: its keys are read until `done`, and written then; the
        # longest path with unbounded units ends `lat` after `path`
        complete.append(done)
        path += lat
        if path > cp:
            cp = path
        for e in got:
            if e[1] < done:
                e[1] = done
            if e[3] < path:
                e[3] = path
        put[0] = done
        put[2] = path

    fifo_peak = occ = 0
    for _, delta in sorted(fifo_events, key=lambda e: (e[0], -e[1])):
        occ += delta
        fifo_peak = max(fifo_peak, occ)
    busy["dram"] = dram_busy
    rep = SimReport(max(complete, default=0), busy, dict(timing.units),
                    load_b, store_b, stream_b, conflicts_total, fifo_peak,
                    cp, len(p.instrs), complete)
    if rep.cycles < rep.critical_path:
        raise RuntimeError(f"simulated {rep.cycles} cycles, below the "
                           f"critical path {rep.critical_path}")
    if rep.cycles * hw.dram_bw < rep.dram_bytes:
        raise RuntimeError(f"{rep.dram_bytes} DRAM bytes do not fit in "
                           f"{rep.cycles} cycles at {hw.dram_bw} B/cycle")
    return rep


# ---------------------------------------------------------------------------
# experiment drivers

def sweep(src, hws) -> list[SimReport]:
    """Compile the same IR for each hardware description (the front end
    once, and each latency schedule once, see `back_ends`) and simulate
    it there."""
    hws = list(hws)
    machines = back_ends(front_end(src), hws)
    # next() inside the call: no name keeps a program past its simulation
    return [simulate(next(machines), hw) for hw in hws]


def sweep_sram(src, hw: HardwareDescription,
               slot_counts) -> list[SimReport]:
    """`sweep` over SRAM sizes."""
    return sweep(src, [replace(hw, slots=slots) for slots in slot_counts])


def compare_streaming(src, hw: HardwareDescription) -> dict:
    """Simulate the same IR compiled with and without streaming merges."""
    on, off = sweep(src, (replace(hw, streaming=True),
                          replace(hw, streaming=False)))
    return {
        "streaming": on,
        "baseline": off,
        "dram_bytes_saved": off.dram_bytes - on.dram_bytes,
        "dram_bytes_ratio": (on.dram_bytes / off.dram_bytes
                             if off.dram_bytes else 1.0),
        "cycles_saved": off.cycles - on.cycles,
        "cycles_ratio": on.cycles / off.cycles if off.cycles else 1.0,
    }
