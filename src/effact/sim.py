"""Deterministic performance model of the accelerator.

Scoreboard-style simulation over machine programs: per-class function
units (MAC on the multiplier array, as `schedule` books it), a
bandwidth-limited DRAM channel with a fixed base latency, SRAM
bank-conflict serialization, and element-granularity streaming where
merged operands flow between DRAM and function units without parking in
SRAM.  Dependences, unit classes and latencies come from one machine model:
`ir.build_deps` (built once per program and kept on it), FU_CLASS (a view
of the opcode table `ir.OPCODES`) and HardwareDescription.lat/xfer.

`simulate` is one pass over the program.  Each register is classified
once per call, at its first use in program order, as an SRAM slot or a
FIFO channel and checked against the hardware (`_slot`); an address
operand of a unit is streamed.  The pass records the cycle each
instruction completes: `SimReport.complete`, the per-instruction record.
The critical path is computed apart from the pass, so `cycles >=
critical_path` checks it.
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
    _longest_path,
    back_ends,
    front_end,
)
from .ir import FU_CLASS, UNITS, Addr, Program, Vreg, build_deps


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

    def utilization(self, cls: str) -> float:
        if self.cycles == 0:
            return 0.0
        return self.fu_busy[cls] / (self.cycles * self.fu_count[cls])

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


class _Slots(dict):
    """Register name -> its `_slot` on one hardware description, each
    register classified, and checked, at its first lookup."""

    def __init__(self, hw: HardwareDescription):
        super().__init__()
        self.hw = hw

    def __missing__(self, reg: str) -> int:
        k = self[reg] = _slot(reg, self.hw)
        return k


def simulate(p: Program, hw: HardwareDescription) -> SimReport:
    check_machine_form(p)
    n = p.n
    xfer = hw.xfer(n)
    lat_of = hw.lat_table(n)
    preds = p.once(build_deps)
    poly_bytes = WORD_BYTES * n

    pools = {cls: UnitPool(hw.fu_count(cls)) for cls in UNITS}
    busy = dict.fromkeys((*UNITS, "dram"), 0)
    channel_free = 0
    complete = [0] * len(p.instrs)
    moved = dict.fromkeys(FU_CLASS, 0)     # DRAM bytes of loads and stores
    stream_b = 0
    conflicts_total = 0
    fifo_events: list[tuple[int, int]] = []   # (cycle, +1/-1)
    slot = _Slots(hw)

    def dram_slot(req: int) -> int:
        nonlocal channel_free
        start = max(req, channel_free)
        channel_free = start + xfer
        busy["dram"] += xfer
        return start

    for idx, i in enumerate(p.instrs):
        ready = max(map(complete.__getitem__, preds[idx]), default=0)
        cls = FU_CLASS[i.op]
        if cls == "dram":
            # a load or store is its own transfer: it ends no earlier than
            # its last word leaves the channel
            for o in i.srcs + i.dests:
                if o.__class__ is Vreg:
                    slot[o.name]        # checked, though no unit reads it
            complete[idx] = dram_slot(ready) + max(lat_of[i.op], xfer)
            moved[i.op] += poly_bytes
            continue
        pool = pools[cls]
        start = max(ready, pool.earliest())
        sram = set()                # the SRAM slots the unit accesses
        reads = writes = 0          # FIFO channels read and written
        drained = 0
        for o in i.srcs:
            kind = o.__class__
            if kind is Vreg:
                k = slot[o.name]
                if k < 0:
                    reads += 1
                else:
                    sram.add(k)
            elif kind is Addr:
                # streamed: the unit starts once the first elements arrive
                start = max(start, dram_slot(ready) + DRAM_BASE)
                stream_b += poly_bytes
        for o in i.dests:
            if o.__class__ is Vreg:
                k = slot[o.name]
                if k < 0:
                    writes += 1
                else:
                    sram.add(k)
            else:
                # a streamed result drains to DRAM as it is produced
                drained = dram_slot(start) + DRAM_BASE + xfer
                stream_b += poly_bytes
        # SRAM bank conflicts serialize same-cycle accesses to distinct
        # slots that share a bank
        conf = len(sram) - len({k % hw.banks for k in sram})
        conflicts_total += conf
        end = start + lat_of[i.op] + conf
        pool.take(end)
        busy[cls] += end - start
        complete[idx] = done = max(end, drained)
        if reads or writes:
            fifo_events += [(done, 1)] * writes + [(start, -1)] * reads

    fifo_peak = occ = 0
    for _, delta in sorted(fifo_events, key=lambda e: (e[0], -e[1])):
        occ += delta
        fifo_peak = max(fifo_peak, occ)
    cp = _longest_path(p, hw, preds)
    fu_count = {cls: hw.fu_count(cls) for cls in busy}
    rep = SimReport(max(complete, default=0), busy, fu_count, moved["load"],
                    moved["store"], stream_b, conflicts_total, fifo_peak, cp,
                    len(p.instrs), complete)
    if rep.cycles < rep.critical_path:
        raise RuntimeError(f"simulated {rep.cycles} cycles, below the "
                           f"critical path {rep.critical_path}")
    if rep.cycles * hw.dram_bw < rep.dram_bytes:
        raise RuntimeError(f"{rep.dram_bytes} DRAM bytes do not fit in "
                           f"{rep.cycles} cycles at {hw.dram_bw} B/cycle")
    return rep


# ---------------------------------------------------------------------------
# experiment drivers

def sweep_sram(src, hw: HardwareDescription,
               slot_counts) -> list[SimReport]:
    """Compile the same IR for each SRAM size (the front end and its
    latency schedule once, see `back_ends`) and simulate it."""
    hws = [replace(hw, slots=slots) for slots in slot_counts]
    machines = back_ends(front_end(src), hws)
    # next() inside the call: no name keeps a program past its simulation
    return [simulate(next(machines), shw) for shw in hws]


def compare_streaming(src, hw: HardwareDescription) -> dict:
    """Simulate the same IR compiled with and without streaming merges."""
    hws = (replace(hw, streaming=True), replace(hw, streaming=False))
    machines = back_ends(front_end(src), hws)
    on, off = (simulate(next(machines), shw) for shw in hws)
    return {
        "streaming": on,
        "baseline": off,
        "dram_bytes_saved": off.dram_bytes - on.dram_bytes,
        "dram_bytes_ratio": (on.dram_bytes / off.dram_bytes
                             if off.dram_bytes else 1.0),
        "cycles_saved": off.cycles - on.cycles,
        "cycles_ratio": on.cycles / off.cycles if off.cycles else 1.0,
    }
