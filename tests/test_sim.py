import hashlib
import json
import math
import random
import weakref
from bisect import bisect_left
from dataclasses import replace
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from effact import compiler, sim
from effact.asm import assemble_text, check_machine_form
from effact.compiler import (
    DRAM_BASE,
    FU_CLASS,
    UNITS,
    WORD_BYTES,
    HardwareDescription,
    UnitPool,
    _addr_key,
    _list_schedule,
    _priorities,
    _uses,
    alloc_sram,
    back_end,
    back_ends,
    build_deps,
    compile_program,
    def_use,
    front_end,
    max_liveness,
    merge_spill_traffic,
    merge_streaming,
    schedule,
)
from effact.ir import (Addr, Instr, IrError, Vreg, _waves, blank_image,
                       execute_program, machine_regs, parse_ir, print_program,
                       ssa)
from effact.poly import SM, make_poly, ntt_fwd
from effact.rns import make_modulus
from effact.sim import SimReport, compare_streaming, simulate, sweep_sram
from effact.workloads import (
    WorkloadParams,
    gen_bootstrap_skeleton,
    gen_helr_iteration,
    gen_hoisted_rotations,
    gen_keyswitch,
)
from test_compiler import latency, mem_accesses, pred_sets, random_program

N = 16
HW = HardwareDescription(slots=8, fifo_depth=4)


def header(nx=8, ny=8):
    return f".n {N}\n.mod q0 97\n.mod q1 193\n.dram x {nx}\n.dram y {ny}\n"


def machine(text, **kw):
    return compile_program(parse_ir(text), replace(HW, **kw))


def test_single_ntt_latency():
    p = machine(header() + "%a = load @x[0]\n%b = ntt %a, q0\n"
                "store %b, @y[0]\n", streaming=False)
    rep = simulate(p, HW)
    lat = latency(HW, "load") + latency(HW, "ntt") + latency(HW, "store")
    assert rep.cycles == lat
    assert rep.cycles == rep.critical_path


def test_latency_overrides_reach_the_simulator():
    hw = HardwareDescription(slots=8, lat_override=(("mac", 1000),
                                                    ("load", 5000),
                                                    ("store", 5000)))
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%c = mac %a, %b, %b, q0\nstore %c, @y[0]\n")
    mc = compile_program(parse_ir(text), replace(hw, streaming=False))
    rep = simulate(mc, hw)
    done = {i.op: [] for i in mc.instrs}
    for i, cycle in zip(mc.instrs, rep.complete, strict=True):
        done[i.op].append(cycle)
    xfer = hw.timing(N).xfer
    # the second load queues behind the first on the one DRAM channel
    assert done["load"] == [5000, xfer + 5000]
    assert done["mac"] == [xfer + 5000 + 1000]
    assert done["store"] == [xfer + 5000 + 1000 + 5000]
    assert rep.critical_path == 5000 + 1000 + 5000
    assert rep.cycles >= rep.critical_path


def test_transfers_never_outrun_the_channel():
    # a load or store latency below the channel time is raised to it, so
    # every byte moved fits in the simulated cycles
    hw = HardwareDescription(slots=8, lat_override=(("load", 1),
                                                    ("store", 1)))
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "store %a, @y[0]\nstore %b, @y[1]\n")
    mc = compile_program(parse_ir(text), replace(hw, streaming=False))
    rep = simulate(mc, hw)
    assert hw.timing(N).xfer > 1
    assert rep.cycles == 4 * hw.timing(N).xfer
    assert rep.cycles * hw.dram_bw >= rep.dram_bytes


def test_register_reuse_is_on_the_critical_path():
    # machine code whose only chain runs through the reuse of r0: the
    # second load must wait for the first store to read r0
    text = header() + ("r0 = load @x[0]\nstore r0, @y[0]\n"
                       "r0 = load @x[1]\nstore r0, @y[1]\n")
    rep = simulate(parse_ir(text), HW)
    assert rep.cycles == 2 * (latency(HW, "load") + latency(HW, "store"))
    assert rep.critical_path == rep.cycles


def test_simulate_invariant_is_an_explicit_error(monkeypatch):
    import effact.sim as sim
    p = machine(header() + "%a = load @x[0]\nstore %a, @y[0]\n")

    class Board(sim._Board):
        # every key starts on a longest path far beyond any schedule
        def __missing__(self, key):
            e = self[key] = [0, 0, 10 ** 12, 0]
            return e

    monkeypatch.setattr(sim, "_Board", Board)
    with pytest.raises(RuntimeError, match="critical path"):
        simulate(p, HW)


def test_dram_bytes_beyond_the_channel_are_an_explicit_error(monkeypatch):
    # a transfer that holds the channel for one cycle whatever its size
    # moves more bytes than the simulated cycles carry
    p = machine(header() + "".join(f"%v{k} = load @x[{k}]\n"
                                   f"store %v{k}, @y[{k}]\n"
                                   for k in range(8)), streaming=False)
    hw = replace(HW, dram_bw=1)
    assert simulate(p, hw).cycles * hw.dram_bw >= 16 * WORD_BYTES * N
    timing = HardwareDescription.timing
    monkeypatch.setattr(HardwareDescription, "timing",
                        lambda self, n: timing(self, n)._replace(xfer=1))
    with pytest.raises(RuntimeError, match="do not fit"):
        simulate(p, hw)


def test_serial_ntts_on_one_unit():
    hw = HardwareDescription(slots=8, fu=(("ntt", 1), ("mmul", 1),
                                          ("madd", 1), ("auto", 1)),
                             lat_override=(("ntt", 50), ("load", 1),
                                           ("store", 1)))
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%u = ntt %a, q0\n%v = ntt %b, q0\n"
                       "store %u, @y[0]\nstore %v, @y[1]\n")
    one = simulate(compile_program(parse_ir(text),
                                   replace(hw, streaming=False)), hw)
    hw2 = HardwareDescription(slots=8, fu=(("ntt", 2), ("mmul", 1),
                                           ("madd", 1), ("auto", 1)),
                              lat_override=hw.lat_override)
    two = simulate(compile_program(parse_ir(text),
                                   replace(hw2, streaming=False)), hw2)
    assert one.fu_busy["ntt"] == two.fu_busy["ntt"] == 100
    # the second transform serializes on one unit and overlaps on two,
    # up to the skew from staggered DRAM arrivals
    assert one.cycles >= two.cycles + 40


def test_unit_counts_size_nothing():
    # 2^40 units of each class, as a list of free cycles, would take
    # terabytes; the pools hold only the units in use, and schedule and
    # simulate the desk key switch as one unit per instruction does
    front = front_end(gen_keyswitch(WorkloadParams(n=1024, levels=4,
                                                   dnum=2)))
    runs = []
    for count in (len(front.instrs), 2 ** 40):
        hw = HardwareDescription(fu=tuple((cls, count) for cls in UNITS))
        mc = back_end(front, hw)
        rep = simulate(mc, hw).to_dict()
        del rep["fu_count"], rep["fu_utilization"]
        runs.append((assemble_text(mc), rep))
    assert runs[0] == runs[1]


def test_dram_byte_accounting():
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%c = mmul %a, %b, q0\n%d = mmad %a, %b, q0\n"
                       "store %c, @y[0]\nstore %d, @y[1]\n")
    rep = simulate(machine(text, streaming=False), HW)
    assert rep.dram_stream_bytes == 0
    assert rep.dram_load_bytes == 2 * N * 8
    assert rep.dram_store_bytes == 2 * N * 8
    assert rep.dram_bytes == 4 * N * 8


def test_streaming_bytes_counted_separately():
    text = header() + "%a = load @x[0]\n%b = ntt %a, q0\nstore %b, @y[0]\n"
    rep = simulate(machine(text, streaming=True), HW)
    assert rep.dram_load_bytes == 0 and rep.dram_store_bytes == 0
    assert rep.dram_stream_bytes == 2 * N * 8


def test_report_invariants_random_programs():
    from test_compiler import random_image, random_program
    rng = random.Random(0)
    for trial in range(6):
        p = random_program(rng)
        mc = compile_program(p, HW)
        rep = simulate(mc, HW)
        assert rep.cycles >= rep.critical_path
        assert rep.cycles * HW.dram_bw >= rep.dram_bytes
        for cls, busy in rep.fu_busy.items():
            assert 0 <= busy <= rep.cycles * rep.fu_count[cls]
        assert rep.dram_bytes % (N * 8) == 0


def test_determinism():
    from test_compiler import random_program
    rng = random.Random(1)
    p = random_program(rng)
    mc = compile_program(p, HW)
    a = simulate(mc, HW)
    b = simulate(mc, HW)
    assert a.to_json() == b.to_json()
    assert a.complete == b.complete


def test_resource_check():
    text = header() + "%a = load @x[0]\nstore %a, @y[0]\n"
    mc = compile_program(parse_ir(text), HW)
    tiny = HardwareDescription(slots=2, fifo_depth=2)
    # registers fit within two slots here, so shrink further via a program
    # that allocates into high registers
    from test_compiler import random_program
    rng = random.Random(2)
    big = compile_program(random_program(rng), HW)
    maxreg = max(int(str(o)[1:]) for i in big.instrs
                 for o in list(i.srcs) + list(i.dests)
                 if hasattr(o, "name") and str(o).startswith("r"))
    if maxreg >= 2:
        with pytest.raises(ValueError, match="SRAM"):
            simulate(big, tiny)
    assert simulate(mc, HW).cycles > 0


def test_bank_conflicts_counted():
    hw = HardwareDescription(slots=8, banks=1)
    text = header() + ("%a = load @x[0]\n%b = load @x[1]\n"
                       "%c = mmul %a, %b, q0\nstore %c, @y[0]\n")
    mc = compile_program(parse_ir(text), replace(hw, streaming=False))
    rep = simulate(mc, hw)
    assert rep.bank_conflicts > 0
    wide = simulate(mc, HW)
    assert wide.bank_conflicts < rep.bank_conflicts or \
        wide.bank_conflicts == 0


def test_fifo_peak_tracked():
    text = header() + ("%a = load @x[0]\n"
                       "%u = mmul %a, %a, q0\n%v = mmad %u, %a, q0\n"
                       "store %v, @y[0]\n")
    mc = compile_program(parse_ir(text), replace(HW, streaming=True))
    if any(str(o).startswith("f") for i in mc.instrs for o in i.dests):
        rep = simulate(mc, HW)
        assert rep.fifo_peak >= 1


def test_sweep_monotone():
    from test_compiler import random_program
    rng = random.Random(3)
    p = random_program(rng, size=40)
    reports = sweep_sram(p, HW, [4, 8, 16, 32])
    cycles = [r.cycles for r in reports]
    assert cycles == sorted(cycles, reverse=True)
    utils = [r.fu_utilization for r in reports]
    assert all(b >= a - 1e-12 for a, b in zip(utils, utils[1:]))
    assert len(sweep_sram(p, HW, [16])) == 1


def test_pressure_schedule_beats_the_latency_schedule_when_it_spills():
    front = front_end(gen_keyswitch(WorkloadParams(n=256, levels=3, dnum=2)))
    for slots in (8, 12):
        hw = HardwareDescription(slots=slots)
        # the latency schedule, which schedule returns wherever it fits
        latency = schedule(front, replace(hw, slots=2 ** 20))
        old = merge_spill_traffic(alloc_sram(merge_streaming(latency, hw),
                                             hw))
        new = back_end(front, hw)
        assert new.notes["spills"] < old.notes["spills"]
        assert simulate(new, hw).cycles < simulate(old, hw).cycles


def pass_list_back_end(front, hw):
    """The back end as the pass list it stands for: `schedule`, then
    `merge_streaming` of its output, however the fit check ended."""
    p = schedule(front, hw)
    if hw.streaming:
        p = merge_streaming(p, hw)
    p = alloc_sram(p, hw)
    if hw.streaming:
        p = merge_spill_traffic(p)
    p.notes["streaming"] = hw.streaming
    return p


def compiled(machines, hws):
    """(.easm, simulated report) of each machine program on its hardware,
    up to the first register-pressure error, whose message ends the list."""
    out = []
    try:
        for mc, hw in zip(machines, hws):
            out.append((assemble_text(mc), simulate(mc, hw).to_dict()))
    except IrError as e:
        out.append(str(e))
    return out


def each(compile_one, front, hws):
    return (compile_one(front, hw) for hw in hws)


def outcome(run):
    """The reports run() returns, or the register-pressure error it
    raises."""
    try:
        return [r.to_dict() for r in run()]
    except IrError as e:
        return str(e)


DESK_KS = gen_keyswitch(WorkloadParams(n=1024, levels=4, dnum=2))
ONE_EACH = tuple((cls, 1) for cls in UNITS)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.one_of(st.just(None), st.integers(0, 2 ** 32 - 1)),
       hws=st.lists(st.builds(
           HardwareDescription,
           slots=st.integers(2, 64), lanes=st.sampled_from((4, 128)),
           fu=st.sampled_from((HardwareDescription.fu, ONE_EACH)),
           fifo_depth=st.sampled_from((1, 8)), streaming=st.booleans()),
           min_size=1, max_size=6))
def test_shared_latency_schedule_changes_no_compile(seed, hws):
    # back_ends shares the latency schedule and its fit check between
    # hardware descriptions; every compile, sweep and comparison equals
    # back_end and the pass list, whether the latency order fits or not
    src = DESK_KS if seed is None else \
        random_program(random.Random(seed), size=40)
    front = front_end(src)
    want = compiled(each(pass_list_back_end, front, hws), hws)
    assert compiled(each(back_end, front, hws), hws) == want
    assert compiled(back_ends(front, hws), hws) == want
    assert outcome(lambda: sim.sweep(src, hws)) == outcome(
        lambda: [simulate(pass_list_back_end(front, h), h) for h in hws])

    hw = hws[0]
    slots = [h.slots for h in hws]
    sweep = [replace(hw, slots=s) for s in slots]
    assert outcome(lambda: sweep_sram(src, hw, slots)) == outcome(
        lambda: [simulate(pass_list_back_end(front, h), h) for h in sweep])

    def streaming_pair():
        pair = compare_streaming(src, hw)
        return pair["streaming"], pair["baseline"]

    on_off = [replace(hw, streaming=on) for on in (True, False)]
    assert outcome(streaming_pair) == outcome(
        lambda: [simulate(pass_list_back_end(front, h), h) for h in on_off])


def count_calls(monkeypatch, names):
    """Calls made through the compiler module to each of `names`, and
    under "pressure" the `_list_schedule` calls with a live-value budget;
    the simulator's own scans are not counted."""
    calls = dict.fromkeys(names, 0)
    calls["pressure"] = 0

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            if name == "_list_schedule" and len(args) > 6:
                calls["pressure"] += 1
            return fn(*args, **kw)
        return wrapper

    for name in names:
        monkeypatch.setattr(compiler, name,
                            counted(name, getattr(compiler, name)))
    return calls


BACK_END_CALLS = ("build_deps", "_list_schedule", "merge_streaming",
                  "max_liveness", "_max_live", "def_use")


def test_a_sweep_schedules_for_latency_once(monkeypatch):
    # the latency order of the L24 key switch needs 168 slots merged at
    # FIFO depth 8, and the fit check's lower bound of that need
    # (`_merge_bound`) is 168 too: 16, 32, 64 and 128 slots are
    # rescheduled for pressure with no merge of it, and 256 slots merges
    # it and fits.  `_max_live` scans the latency order and the fit
    # check's merge, which the 256-slot allocation reads too, and the input
    # of each of the other four allocations.  def_use scans only programs
    # whose values no pass derived (`Program.once`): 2 of the front end's
    # (the input and the output of `peephole_merge`), and the allocated
    # code of the three configurations that spill (16, 32 and 64 slots),
    # in their spill merges.  The schedules and the streaming merges carry
    # the table of their input.
    calls = count_calls(monkeypatch, BACK_END_CALLS)
    text = gen_keyswitch(WorkloadParams(n=2 ** 16, levels=24, dnum=4))
    sweep_sram(text, HardwareDescription(), (16, 32, 64, 128, 256))
    assert calls == {"build_deps": 1, "_list_schedule": 5, "pressure": 4,
                     "merge_streaming": 5, "max_liveness": 0,
                     "_max_live": 6, "def_use": 5}


def test_compare_streaming_schedules_for_latency_once(monkeypatch):
    # neither configuration fits the latency order of the L24 key switch,
    # and with streaming no merge could (see the sweep above): one latency
    # schedule and its one liveness scan, then one pressure schedule for
    # the 64 slots of both, merged with streaming only, and a liveness
    # scan of each allocation's input.  def_use scans the input and the
    # output of `peephole_merge` and the streaming configuration's
    # allocated code, which spills
    calls = count_calls(monkeypatch, BACK_END_CALLS)
    text = gen_keyswitch(WorkloadParams(n=2 ** 16, levels=24, dnum=4))
    compare_streaming(text, HardwareDescription())
    assert calls == {"build_deps": 1, "_list_schedule": 2, "pressure": 1,
                     "merge_streaming": 1, "max_liveness": 0,
                     "_max_live": 3, "def_use": 3}


def test_descriptions_of_one_timing_share_a_latency_schedule(monkeypatch):
    # lanes reaches the schedule only through the latencies of the compute
    # opcodes: with each of them overridden, 4 and 128 lanes have one
    # Timing, so back_ends schedules the desk key switch for latency once,
    # and for the pressure of its 12 slots once, for both
    over = tuple((op, 5) for op, cls in FU_CLASS.items() if cls != "dram")
    hws = [HardwareDescription(slots=12, lanes=lanes, lat_override=over)
           for lanes in (4, 128)]
    front = front_end(DESK_KS)
    assert hws[0].timing(front.n) == hws[1].timing(front.n)
    want = [print_program(back_end(front, hw)) for hw in hws]
    calls = count_calls(monkeypatch, ("_latency_schedule", "_list_schedule"))
    assert [print_program(q) for q in back_ends(front, hws)] == want
    assert calls == {"_latency_schedule": 1, "_list_schedule": 2,
                     "pressure": 1}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hw=st.builds(
           HardwareDescription, lanes=st.integers(1, 300),
           dram_bw=st.integers(1, 2 ** 12),
           ntt_pipelines=st.integers(1, 40),
           fu=st.tuples(st.permutations(UNITS),
                        st.lists(st.integers(1, 8), min_size=len(UNITS),
                                 max_size=len(UNITS)))
           .map(lambda order_counts: tuple(zip(*order_counts))),
           lat_override=st.lists(st.tuples(st.sampled_from(list(FU_CLASS)),
                                           st.integers(1, 10 ** 6)),
                                 max_size=4).map(tuple)),
       log_n=st.integers(0, 17))
def test_timing_matches_its_oracle(hw, log_n):
    n = 2 ** log_n
    lat, counts, xfer = costs_oracle(hw, n)
    timing = hw.timing(n)
    assert timing.ops == tuple((op, FU_CLASS[op], lat[op])
                               for op in FU_CLASS)
    assert timing.units == tuple((cls, counts[cls]) for cls in UNITS) \
        + (("dram", 1),)
    assert timing.xfer == xfer
    hash(timing)


def test_a_fit_check_merges_only_where_the_values_read_twice_fit(
        monkeypatch):
    # with streaming, `_fit` merges a latency order for its fit check only
    # when a lower bound of the merged need fits in the slots, and then
    # once per FIFO depth.  For the desk key switch, the bound
    # (`_merge_bound`) is 24 at depth 1 and 17 at depth 8, against merged
    # needs of 24 and 18; 16 of the values it keeps live are read twice or
    # more, which is the bound with a channel for every value
    latency, bounds = [], []
    real_latency, real_merge = (compiler._latency_schedule,
                                compiler.merge_streaming)

    def latency_schedule(p, timing):
        out = real_latency(p, timing)
        latency.append(out[1])
        return out

    def merge(p, hw):
        if any(p is q for q in latency):
            bounds.append((compiler._merge_bound(p, hw.fifo_depth),
                           hw.slots, hw.fifo_depth))
        return real_merge(p, hw)

    monkeypatch.setattr(compiler, "_latency_schedule", latency_schedule)
    monkeypatch.setattr(compiler, "merge_streaming", merge)
    hws = [HardwareDescription(slots=s, fifo_depth=d)
           for s in (8, 12, 16, 20, 40) for d in (1, 8)]
    for _ in back_ends(front_end(DESK_KS), hws):
        pass
    assert len(latency) == 1
    assert compiler._merge_bound(latency[0], 100) == 16
    assert bounds == [(17, 20, 8), (24, 40, 1)]


# one HardwareDescription field changed at a time, for the desk key switch,
# whose latency order needs 27 slots, 18 merged at FIFO depth 8 and 24 at
# depth 1, and keeps 16 values read twice live: at 20 slots the streaming
# fit check fits at depth 8 only, at 12 it merges nothing
ONE_FIELD = (("slots", 12), ("slots", 40), ("streaming", False),
             ("fifo_depth", 1), ("banks", 2), ("lanes", 4), ("dram_bw", 16),
             ("fu", ONE_EACH), ("ntt_pipelines", 1),
             ("lat_override", (("mmul", 7),)))


def test_shared_tables_are_keyed_by_every_field_they_read():
    base = HardwareDescription(slots=20)
    hws = [base] + [replace(base, **{k: v}) for k, v in ONE_FIELD]
    front = front_end(DESK_KS)
    want = {hw: (print_program(q), q.notes)
            for hw in hws for q in [back_end(front, hw)]}
    for seed in range(3):
        order = random.Random(seed).sample(hws * 2, 2 * len(hws))
        got = [(print_program(q), q.notes) for q in back_ends(front, order)]
        assert got == [want[hw] for hw in order]


def test_the_last_configuration_allocates_without_the_shared_tables(
        monkeypatch):
    # back_ends empties its table of latency schedules and fit checks right
    # after the last configuration's `_fit`: when that configuration
    # allocates, every program the table held is dead but its own input.
    # The first allocation runs while the latency schedule is alive.
    made, alive = [], []

    def recording(fn, program):
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            made.append(weakref.ref(program(out)))
            return out
        return wrapper

    def alloc_sram(p, hw):
        alive.append(sum(r() is not None and r() is not p for r in made))
        return real_alloc(p, hw)

    real_alloc = compiler.alloc_sram
    monkeypatch.setattr(compiler, "_latency_schedule", recording(
        compiler._latency_schedule, lambda out: out[1]))
    monkeypatch.setattr(compiler, "merge_streaming", recording(
        compiler.merge_streaming, lambda out: out))
    monkeypatch.setattr(compiler, "alloc_sram", alloc_sram)
    hws = [HardwareDescription(slots=8, streaming=on) for on in (True, False)]
    for _ in back_ends(front_end(DESK_KS), hws):
        pass
    assert len(alive) == 2 and alive[0] > 0 and alive[1] == 0


def test_a_program_is_analyzed_once(monkeypatch):
    # simulate builds no dependence graph and no longest-path priorities;
    # a second simulate and a second execute_program of one program build
    # no new machine-form scan or wave plan
    from test_compiler import random_image, random_program
    from effact import asm, ir, sim
    rng = random.Random(6)
    src = random_program(rng, size=40)
    machine = compile_program(src, HW)
    img = random_image(src, rng)
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kw):
            key = f"{module.__name__}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    assert not hasattr(sim, "build_deps") and not hasattr(sim, "_priorities")
    for module, name in ((asm, "_scan_machine_form"), (ir, "ssa"),
                         (ir, "build_deps"), (ir, "_waves"),
                         (compiler, "_priorities")):
        count(module, name)
    first = simulate(machine, HW).to_dict()
    assert calls == {"effact.asm._scan_machine_form": 1}
    assert simulate(machine, HW).to_dict() == first
    assert calls == {"effact.asm._scan_machine_form": 1}
    out = execute_program(machine, img).dram["y"]
    plan = {"effact.ir._waves": 1, "effact.ir.ssa": 1,
            "effact.ir.build_deps": 1}
    assert calls == {"effact.asm._scan_machine_form": 1, **plan}
    again = execute_program(machine, img).dram["y"]
    assert [x if x is None else x.to_ints() for x in again] == \
        [x if x is None else x.to_ints() for x in out]
    assert calls == {"effact.asm._scan_machine_form": 1, **plan}
    # a program not yet analyzed is scanned once, and its simulation still
    # builds no graph
    simulate(machine.clone(), HW)
    assert calls == {"effact.asm._scan_machine_form": 2, **plan}


def test_compare_streaming():
    from test_compiler import random_image, random_program
    rng = random.Random(4)
    p = random_program(rng, size=40)
    pair = compare_streaming(p, HW)
    assert pair["cycles_saved"] >= 0
    img = random_image(p, rng)
    on = compile_program(p, replace(HW, streaming=True))
    off = compile_program(p, replace(HW, streaming=False))
    a = execute_program(on, img).dram["y"]
    b = execute_program(off, img).dram["y"]
    assert [x if x is None else x.to_ints() for x in a] == \
        [x if x is None else x.to_ints() for x in b]


def test_compare_streaming_no_candidates():
    # every value has at least two consumers: nothing can merge
    text = header() + ("%a = load @x[0]\n"
                       "%u = mmul %a, %a, q0\n%w = mmad %u, %u, q0\n"
                       "store %w, @y[0]\nstore %w, @y[1]\n"
                       "store %u, @y[2]\n")
    pair = compare_streaming(parse_ir(text), HW)
    assert pair["dram_bytes_saved"] == 0
    assert pair["streaming"].to_dict() == pair["baseline"].to_dict()


# ---------------------------------------------------------------------------
# the simulator's loop and dependence builder against their earlier forms

def build_deps_oracle(p):
    """build_deps as it was: `isinstance` tests and `mem_accesses` lists."""
    preds = [set() for _ in p.instrs]
    last_def, reg_readers, last_write, readers = {}, {}, {}, {}
    for idx, i in enumerate(p.instrs):
        for s in i.srcs:
            if isinstance(s, Vreg):
                r = s.name
                if r in last_def:
                    preds[idx].add(last_def[r])
                reg_readers.setdefault(r, []).append(idx)
        reads, writes = mem_accesses(i)
        for a in reads:
            key = _addr_key(a)
            if key in last_write:
                preds[idx].add(last_write[key])
            readers.setdefault(key, []).append(idx)
        for a in writes:
            key = _addr_key(a)
            if key in last_write:
                preds[idx].add(last_write[key])
            preds[idx].update(readers.pop(key, ()))
            last_write[key] = idx
        for d in i.dests:
            if isinstance(d, Vreg):
                r = d.name
                if r in last_def:
                    preds[idx].add(last_def[r])
                preds[idx].update(reg_readers.pop(r, ()))
                last_def[r] = idx
        preds[idx].discard(idx)
    return preds


def slot_oracle(reg, hw):
    k = int(reg.name[1:])
    if reg.name[0] == "r":
        if k >= hw.slots:
            raise ValueError(f"register {reg} exceeds the "
                             f"{hw.slots}-slot SRAM")
        return k
    if k >= hw.fifo_depth:
        raise ValueError(f"fifo channel {reg} exceeds depth "
                         f"{hw.fifo_depth}")
    return None


def costs_oracle(hw, n):
    """Each opcode's latency, each unit class's count and the cycles a
    transfer holds the DRAM channel, from the fields of `hw` by the
    formulas of docs/formats.md, apart from `HardwareDescription.timing`."""
    xfer = max(1, -(-WORD_BYTES * n // hw.dram_bw))
    base = max(1, -(-n // hw.lanes))
    ntt = max(1, base * max(1, int(math.log2(n))) // hw.ntt_pipelines)
    lat = {op: {"ntt": ntt, "dram": DRAM_BASE + xfer}.get(cls, base)
           for op, cls in FU_CLASS.items()}
    return {**lat, **dict(hw.lat_override)}, dict(hw.fu, dram=1), xfer


def simulate_oracle(p, hw):
    """simulate as it was: every operand classified at every use, a list
    of each instruction's register slots and a generator for `ready`."""
    check_machine_form(p)
    n = p.n
    lat_of, counts, xfer = costs_oracle(hw, n)
    preds = build_deps_oracle(p)
    pools = {cls: UnitPool(counts[cls]) for cls in UNITS}
    busy = dict.fromkeys((*UNITS, "dram"), 0)
    channel_free = 0
    complete = [0] * len(p.instrs)
    moved = {"load": 0, "store": 0}
    stream_b = 0
    conflicts_total = 0
    fifo_events = []

    def dram_slot(req):
        nonlocal channel_free
        start = max(req, channel_free)
        channel_free = start + xfer
        busy["dram"] += xfer
        return start

    for idx, i in enumerate(p.instrs):
        ready = max((complete[j] for j in preds[idx]), default=0)
        cls = FU_CLASS[i.op]
        fu = cls != "dram"
        start = max(ready, pools[cls].earliest()) if fu else ready
        regs = []
        drained = 0
        for o in i.srcs:
            if isinstance(o, Vreg):
                regs.append(slot_oracle(o, hw))
            elif fu and isinstance(o, Addr):
                start = max(start, dram_slot(ready) + DRAM_BASE)
                stream_b += WORD_BYTES * n
        reads = regs.count(None)
        for o in i.dests:
            if isinstance(o, Vreg):
                regs.append(slot_oracle(o, hw))
            elif fu:
                drained = dram_slot(start) + DRAM_BASE + xfer
                stream_b += WORD_BYTES * n
        if not fu:
            complete[idx] = dram_slot(ready) + max(lat_of[i.op], xfer)
            moved[i.op] += WORD_BYTES * n
            continue
        slots = set(regs) - {None}
        conf = len(slots) - len({k % hw.banks for k in slots})
        conflicts_total += conf
        end = start + lat_of[i.op] + conf
        pools[cls].take(end)
        busy[cls] += end - start
        complete[idx] = max(end, drained)
        fifo_events += ([(complete[idx], 1)] * (regs.count(None) - reads)
                        + [(start, -1)] * reads)

    fifo_peak = occ = 0
    for _, delta in sorted(fifo_events, key=lambda e: (e[0], -e[1])):
        occ += delta
        fifo_peak = max(fifo_peak, occ)
    # the critical path forward over the predecessor sets, apart from the
    # backward `_priorities` that simulate reads
    finish = []
    for idx, i in enumerate(p.instrs):
        finish.append(max((finish[j] for j in preds[idx]), default=0)
                      + lat_of[i.op])
    cp = max(finish, default=0)
    fu_count = {cls: counts[cls] for cls in busy}
    return SimReport(max(complete, default=0), busy, fu_count, moved["load"],
                     moved["store"], stream_b, conflicts_total, fifo_peak, cp,
                     len(p.instrs), complete)


def same_as_oracles(p, hw):
    """Check simulate and build_deps against the oracles; the text of the
    ValueError both raise, None if neither does."""
    assert pred_sets(build_deps(p)) == build_deps_oracle(p)
    try:
        want = simulate_oracle(p, hw)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            simulate(p, hw)
        assert str(got.value) == str(e)
        return str(e)
    got = simulate(p, hw)
    assert got.to_dict() == want.to_dict()
    assert got.complete == want.complete
    return None


GOLDEN_SIM = (
    (gen_keyswitch, WorkloadParams(n=1024, levels=4, dnum=2), (64,)),
    (gen_hoisted_rotations, WorkloadParams(n=1024, levels=4, dnum=2), (64,)),
    (gen_helr_iteration, WorkloadParams(n=1024, levels=4, dnum=2), (64,)),
    (gen_keyswitch, WorkloadParams(n=2 ** 16, levels=24, dnum=4),
     (16, 32, 64, 128, 256)),
    (gen_bootstrap_skeleton, WorkloadParams(n=2 ** 16, levels=12, dnum=4,
                                            l_cts=2, l_evalmod=4, l_stc=2),
     (64,)),
)


@pytest.mark.parametrize("gen,wp,slots", GOLDEN_SIM,
                         ids=["desk_ks", "hoisted", "helr", "l24_ks",
                              "l12_boot"])
def test_simulate_matches_its_oracle_on_golden_programs(gen, wp, slots):
    front = front_end(gen(wp))
    assert pred_sets(build_deps(front)) == build_deps_oracle(front)
    hws = [HardwareDescription(slots=s, streaming=on)
           for s in slots for on in (True, False)]
    for mc, hw in zip(back_ends(front, hws), hws):
        assert same_as_oracles(mc, hw) is None


def test_simulate_matches_its_oracle_on_random_programs():
    errors = []
    for seed in range(30):
        src = random_program(random.Random(seed))
        front = front_end(src)
        assert pred_sets(build_deps(front)) == build_deps_oracle(front)
        for slots in range(2, 9):
            for on in (True, False):
                hw = replace(HW, slots=slots, streaming=on)
                try:
                    mc = back_end(front, hw)
                except IrError:
                    continue        # register pressure beyond the slots
                assert same_as_oracles(mc, hw) is None
                # the hardware cut below the highest register and channel
                # index: the first operand in program order that does not
                # fit names the error
                top = {"r": -1, "f": -1}
                for i in mc.instrs:
                    for o in i.srcs + i.dests:
                        if isinstance(o, Vreg):
                            k = int(o.name[1:])
                            top[o.name[0]] = max(top[o.name[0]], k)
                cuts = []
                if top["r"] >= 2:
                    cuts.append({"slots": top["r"]})
                if top["f"] >= 1:
                    cuts.append({"fifo_depth": top["f"]})
                if len(cuts) == 2:
                    cuts.append({**cuts[0], **cuts[1]})
                for cut in cuts:
                    errors.append(same_as_oracles(mc, replace(hw, **cut)))
    assert None not in errors
    assert any("SRAM" in e for e in errors)
    assert any("fifo" in e for e in errors)


# straight-line machine code over few registers and cells, where every
# key is reused: the cases a scoreboard can get wrong and a graph cannot
EDGE_HEADER = ".n 16\n.mod q0 97\n.dram x 2\n.dram y 1\n"
EDGE_CASES = {
    "reads and writes one register": "r0 = load @x[0]\n"
    "r0 = mmul r0, r0, q0\nr0 = mac r0, r1, r0, q0\nstore r0, @y[0]\n",
    "store then load one cell": "r0 = load @x[0]\nr1 = ntt r0, q0\n"
    "store r1, @x[1]\nr2 = load @x[1]\nstore r2, @y[0]\n",
    "load then store one cell": "r0 = load @x[0]\nr1 = ntt r0, q0\n"
    "r2 = load @x[1]\nstore r1, @x[1]\nstore r2, @y[0]\n",
    "streamed source and result on one cell": "r0 = load @x[1]\n"
    "@x[0] = mmul @x[0], r0, q0\nr1 = ntt @x[0], q0\n"
    "@x[0] = ntt r1, q0\nr2 = mmad @x[0], @x[0], q0\nstore r2, @y[0]\n",
    "fifo channel reuse": "r0 = load @x[0]\nf0 = ntt r0, q0\n"
    "r1 = mmul f0, f0, q0\nf0 = auto r1, 3, q0\nf1 = ntt f0, q0\n"
    "f0 = mmad f1, r1, q0\nr2 = ntt f0, q0\nstore r2, @y[0]\n",
    "three SRAM slots in one unit": "r0 = load @x[0]\nr1 = load @x[1]\n"
    "r2 = mac r0, r1, r0, q0\nr3 = mac r0, r1, r2, q0\nstore r3, @y[0]\n",
    "write after write, no read between": "r0 = load @x[0]\n"
    "r0 = load @x[1]\nr1 = ntt r0, q0\nr1 = mmul r0, r0, q0\n"
    "f0 = ntt r1, q0\nf0 = ntt r1, q0\nstore f0, @y[0]\n",
}
EDGE_HW = (HardwareDescription(slots=4, banks=2, fifo_depth=2),
           HardwareDescription(slots=4, banks=1, fifo_depth=2,
                               fu=(("ntt", 1), ("mmul", 1), ("madd", 1),
                                   ("auto", 1))))


@pytest.mark.parametrize("case", EDGE_CASES)
def test_simulate_matches_its_oracle_on_edge_cases(case):
    p = parse_ir(EDGE_HEADER + EDGE_CASES[case])
    for hw in EDGE_HW:
        assert same_as_oracles(p, hw) is None


@st.composite
def dense_machine_code(draw):
    """Straight-line machine code over r0-r2, f0-f1 and three cells."""
    regs = st.sampled_from(["r0", "r1", "r2", "f0", "f1"])
    cells = st.sampled_from(["@x[0]", "@x[1]", "@y[0]"])
    operand = st.one_of(regs, cells)
    arity = {"ntt": 1, "mmul": 2, "mac": 3, "mmad": 2, "auto": 1}
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["load", "store", *arity]))
        if op == "load":
            lines.append(f"{draw(regs)} = load {draw(cells)}")
        elif op == "store":
            lines.append(f"store {draw(regs)}, {draw(cells)}")
        else:
            srcs = [draw(operand) for _ in range(arity[op])]
            if op == "auto":
                srcs.append(str(draw(st.integers(1, 7))))
            lines.append(f"{draw(operand)} = {op} {', '.join(srcs)}, q0")
    return EDGE_HEADER + "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=dense_machine_code(), hw=st.sampled_from(EDGE_HW))
def test_simulate_matches_its_oracle_on_dense_machine_code(text, hw):
    assert same_as_oracles(parse_ir(text), hw) is None


def test_simulate_classifies_each_register_once(monkeypatch):
    import effact.sim as sim
    mc = compile_program(DESK_KS, HardwareDescription(slots=16))
    names = [o.name for i in mc.instrs for o in i.srcs + i.dests
             if isinstance(o, Vreg)]
    calls = []

    def counted(reg, hw):
        calls.append(reg)
        return slot_oracle(Vreg(reg), hw) if reg[0] == "r" else -1

    monkeypatch.setattr(sim, "_slot", counted)
    simulate(mc, HardwareDescription(slots=16))
    assert len(names) > len(set(names)) > 16
    assert calls == list(dict.fromkeys(names))


def waves_oracle(prog):
    """The executor's waves pulled from the predecessor sets: each
    instruction of `ssa(prog)` one wave after its latest predecessor's."""
    p = ssa(prog)
    level, waves = [], []
    for i, ps in zip(p.instrs, build_deps_oracle(p)):
        w = max((level[j] for j in ps), default=-1) + 1
        level.append(w)
        if w == len(waves):
            waves.append([])
        waves[w].append(i)
    return waves


@pytest.mark.parametrize("gen,wp,slots", GOLDEN_SIM,
                         ids=["desk_ks", "hoisted", "helr", "l24_ks",
                              "l12_boot"])
def test_waves_match_the_pulled_levels_on_golden_programs(gen, wp, slots):
    # no executor result can see a changed wave grouping, so the waves are
    # compared themselves, in source form and in machine form
    src = parse_ir(gen(wp))
    hws = [HardwareDescription(slots=slots[0], streaming=on)
           for on in (True, False)]
    for p in (src, *back_ends(front_end(src), hws)):
        waves = _waves(p)
        assert waves == waves_oracle(p)
        assert len(waves) > 1


def test_waves_match_the_pulled_levels_on_random_programs():
    for seed in range(30):
        src = random_program(random.Random(seed), size=40)
        for p in (src, compile_program(src, HW)):
            assert _waves(p) == waves_oracle(p)


def test_back_ends_of_random_programs_are_unchanged():
    # `random_program` seeds 0-19 through `back_ends` at 4, 8 and 64
    # slots, streaming on and off, one and eight FIFO channels: each
    # result's text, notes, report and completion cycles, hashed in that
    # order; the digest was taken before the dependence graph became
    # successor lists
    h = hashlib.sha256()
    hws = [HardwareDescription(slots=slots, streaming=on, fifo_depth=depth)
           for slots in (4, 8, 64) for on in (True, False)
           for depth in (1, 8)]
    for seed in range(20):
        front = front_end(random_program(random.Random(seed), size=40))
        for hw, mc in zip(hws, back_ends(front, hws), strict=True):
            rep = simulate(mc, hw)
            h.update(print_program(mc).encode())
            h.update(json.dumps(mc.notes, sort_keys=True).encode())
            h.update(json.dumps([rep.to_dict(), rep.complete]).encode())
    assert h.hexdigest()[:16] == "3ef904a2639772de"


# ---------------------------------------------------------------------------
# the back end's loops against their earlier forms

def def_use_oracle(instrs):
    """def_use as it was: a first pass for the widest instruction."""
    n = len(instrs)
    last = {}
    wrote = [None] * n
    read = [[None] * n for _ in range(max((len(i.srcs) for i in instrs),
                                          default=0))]
    for idx, i in enumerate(instrs):
        for s, src in enumerate(i.srcs):
            if src.__class__ is Vreg:
                j = last.get(src.name)
                if j is not None:
                    wrote[j].append(idx)
                    read[s][idx] = j
        for d in i.dests:
            if d.__class__ is Vreg:
                last[d.name] = idx
                wrote[idx] = [idx]
    return wrote, read


def list_schedule_oracle(instrs, hw, succs, npreds, lat, prio, budget=None,
                         uses=None):
    """_list_schedule as it was: each delta summed again at every push and
    pop, and the last reader found by a scan."""
    n_instr = len(instrs)
    remaining = list(npreds)
    ready_at = [0] * n_instr
    issued = [False] * n_instr
    by_prio = [(-prio[k], k) for k in range(n_instr) if remaining[k] == 0]
    heapify(by_prio)
    by_delta = []
    live = 0
    if budget is not None:
        wrote, values = uses
        made = [v is not None and len(v) > 1 for v in wrote]
        pending = [len(set(v)) - 1 if v else 0 for v in wrote]

        def delta(k):
            return made[k] - sum(1 for j in values[k] if pending[j] == 1)

        by_delta = [(delta(k), -prio[k], k) for _, k in by_prio]
        heapify(by_delta)
    pools = {cls: UnitPool(count)
             for cls, count in dict(hw.fu, dram=1).items()}
    order, cycles = [], [0] * n_instr
    while True:
        heap = by_delta if budget is not None and live > budget \
            else by_prio
        if not heap:
            break
        entry = heappop(heap)
        idx = entry[-1]
        if issued[idx] or (heap is by_delta and entry[0] != delta(idx)):
            continue
        issued[idx] = True
        pool = pools[FU_CLASS[instrs[idx].op]]
        start = max(ready_at[idx], pool.earliest())
        pool.take(start + lat[idx])
        cycles[idx] = start
        order.append(idx)
        if budget is not None:
            live += made[idx]
            for j in values[idx]:
                pending[j] -= 1
                if pending[j] == 0:
                    live -= 1
                elif pending[j] == 1:
                    r = next(k for k in wrote[j][1:] if not issued[k])
                    if remaining[r] == 0:
                        heappush(by_delta, (delta(r), -prio[r], r))
        for s in succs[idx]:
            ready_at[s] = max(ready_at[s], start + lat[idx])
            remaining[s] -= 1
            if remaining[s] == 0:
                heappush(by_prio, (-prio[s], s))
                if budget is not None:
                    heappush(by_delta, (delta(s), -prio[s], s))
    if len(order) != n_instr:
        raise IrError("cyclic dependence in program")
    return order, cycles


def alloc_sram_oracle(p, hw):
    """alloc_sram as it was: each next read found by bisection, and
    `file` and `expire` as helpers."""
    wrote = def_use_oracle(p.instrs)[0]
    value = {i.dests[0].name: v for i, v in zip(p.instrs, wrote)
             if v and i.dests[0].name.startswith("%")}
    regs = machine_regs("r")
    reg_of = {}
    free = []
    fresh = 0
    spill_at = {}
    spills = 0
    emitted = []
    rank = {v: k for k, v in enumerate(sorted(value))}
    by_next = []

    def next_use(v, after):
        reads = value[v]
        k = bisect_left(reads, after, 1)
        return reads[k] if k < len(reads) else None

    def file(v, after):
        nxt = next_use(v, after)
        if nxt is not None:
            heappush(by_next, (-nxt, -rank[v], v))

    def take_slot(idx, pinned):
        nonlocal fresh, spills
        if free:
            return heappop(free)
        if fresh < hw.slots:
            fresh += 1
            machine_regs("r", fresh)
            return fresh - 1
        held = []
        while by_next:
            entry = heappop(by_next)
            victim = entry[2]
            if victim in reg_of and next_use(victim, idx) == -entry[0]:
                if victim not in pinned:
                    break
                held.append(entry)
        else:
            raise IrError(f"register pressure exceeds {hw.slots} SRAM "
                          "slots at one instruction")
        for entry in held:
            heappush(by_next, entry)
        slot = reg_of.pop(victim)
        if victim not in spill_at:
            spill_at[victim] = Addr("__spill", len(spill_at))
            emitted.append(Instr("store", (), (regs[slot], spill_at[victim])))
            spills += 1
        return slot

    def expire(names, idx):
        for v in names:
            if v in reg_of and value[v][-1] <= idx:
                heappush(free, reg_of.pop(v))

    for idx, i in enumerate(p.instrs):
        pinned = set()
        srcs = []
        for s in i.srcs:
            if s.__class__ is Vreg and s.name[0] == "%":
                v = s.name
                if v not in reg_of:
                    if v not in spill_at:
                        raise IrError(f"register {v} used before definition")
                    reg_of[v] = take_slot(idx, pinned)
                    emitted.append(Instr("load", (regs[reg_of[v]],),
                                         (spill_at[v],)))
                    spills += 1
                pinned.add(v)
                s = regs[reg_of[v]]
            srcs.append(s)
        expire(pinned, idx)
        dests = i.dests
        d = dests[0] if dests else None
        if d.__class__ is Vreg and d.name[0] == "%":
            v = d.name
            reg_of[v] = take_slot(idx, pinned)
            file(v, idx)
            dests = (regs[reg_of[v]],)
            expire((v,), idx)
        emitted.append(i.with_(srcs=tuple(srcs), dests=dests))
        for v in pinned & reg_of.keys():
            file(v, idx + 1)
    out = p.with_(emitted, dram={**p.dram, "__spill": len(spill_at)}
                  if spill_at else p.dram)
    out.notes["spills"] = spills
    out.notes["max_live"] = max_liveness(p)
    return out


ORACLE_SLOTS = (4, 8, 16, 32, 64, 256)


def same_def_use(p):
    """def_use(p) is the table of what `def_use_oracle` lists."""
    values = def_use(p)
    wrote, read = def_use_oracle(p.instrs)
    rows = values.read.tolist()
    assert rows[:len(read)] == [[-1 if j is None else j for j in r]
                                for r in read]
    assert all(j == -1 for r in rows[len(read):] for j in r)
    start, readers = values.start.tolist(), values.readers.tolist()
    assert [readers[a:b] for a, b in zip(start, start[1:])] == [
        v[1:] if v else [] for v in wrote]
    assert values.count.tolist() == [len(v) - 1 if v else 0 for v in wrote]
    assert values.last.tolist() == [v[-1] if v and len(v) > 1 else -1
                                    for v in wrote]
    assert values.virtual.tolist() == [
        v is not None and i.dests[0].name[0] == "%"
        for i, v in zip(p.instrs, wrote)]


def uses_oracle(instrs):
    """_uses as it was: the values of `def_use_oracle`, and the distinct
    writers each instruction reads."""
    wrote, read = def_use_oracle(instrs)
    return wrote, [tuple({r[k] for r in read if r[k] is not None})
                   for k in range(len(instrs))]


def same_allocation(p, hw):
    """Check alloc_sram, and def_use on its input and its output, against
    the oracles; the spill count, or the text of the IrError both raise."""
    same_def_use(p)
    try:
        want = alloc_sram_oracle(p, hw)
    except IrError as e:
        with pytest.raises(IrError) as got:
            alloc_sram(p, hw)
        assert str(got.value) == str(e)
        return str(e)
    got = alloc_sram(p, hw)
    assert got.instrs == want.instrs
    assert got.dram == want.dram
    assert got.notes == want.notes
    same_def_use(got)
    return got.notes["spills"]


def same_back_end_loops(front, slot_counts=ORACLE_SLOTS):
    """Check def_use, the latency and the pressure list schedules and
    alloc_sram against their oracles on what the back end builds from a
    front-end program, at each slot count with streaming on and off; what
    each allocation gave (`same_allocation`), in that order."""
    same_def_use(front)
    succs, npreds = build_deps(front)
    assert pred_sets((succs, npreds)) == build_deps_oracle(front)
    table = costs_oracle(HardwareDescription(), front.n)[0]
    lat = [table[i.op] for i in front.instrs]
    graph = (succs, npreds, lat, _priorities(lat, succs))
    uses, want_uses = _uses(front), uses_oracle(front.instrs)
    outcomes = []
    for slots in slot_counts:
        orders = []
        for budget in (None, slots):
            hw = HardwareDescription(slots=slots)
            got = _list_schedule(front.instrs, hw.timing(front.n), *graph,
                                 budget, uses)
            assert got == list_schedule_oracle(front.instrs, hw, *graph,
                                               budget, want_uses)
            order, cycles = got
            if budget is None:      # emitted in issue-cycle order
                order = sorted(order, key=lambda k: (cycles[k], k))
            orders.append(front.with_([front.instrs[k] for k in order]))
        for on in (True, False):
            hw = HardwareDescription(slots=slots, streaming=on)
            for q in orders:
                outcomes.append(same_allocation(
                    merge_streaming(q, hw) if on else q, hw))
    return outcomes


@pytest.mark.parametrize("gen,wp,slots", GOLDEN_SIM,
                         ids=["desk_ks", "hoisted", "helr", "l24_ks",
                              "l12_boot"])
def test_back_end_loops_match_their_oracles_on_golden_programs(gen, wp,
                                                               slots):
    spills = same_back_end_loops(front_end(gen(wp)))
    assert max(spills) > 0


def test_back_end_loops_match_their_oracles_on_random_programs():
    # two slots too, below what a `mac` of two registers needs, so that the
    # allocator's pressure error is checked as well
    outcomes = []
    for seed in range(40):
        outcomes += same_back_end_loops(front_end(random_program(
            random.Random(seed))), (2, *ORACLE_SLOTS))
    assert {o.__class__ for o in outcomes} == {int, str}
    assert 0 in outcomes and max(o for o in outcomes if o.__class__ is int)
    assert all("register pressure exceeds 2" in o for o in outcomes
               if o.__class__ is str)
