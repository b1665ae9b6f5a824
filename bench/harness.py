"""Workloads, correctness checks and layer probes of the effact benchmark.

Every call into effact goes through a public function of one of its
modules, wrapped in a span named `<module>.<function>`.  With tracing off
the spans cost one no-op context manager each.

Three workloads, each with a subject IR program:

- he_desk: desk-scale CKKS (N=1024, L=4, dnum=2).  Subject: the desk key
  switch.  One iteration encrypts, multiplies, rotates and decrypts, then
  runs the compiled key switch on the golden executor.
- compile_boot: the L12 bootstrap skeleton at N=2^16.  One iteration
  generates, compiles, assembles, disassembles and simulates it.
- sweep_ks: the L24 key switch at N=2^16.  One iteration sweeps the SRAM
  size and compares streaming on and off.

Whatever a workload's iteration does not compute, its model phase computes
once, untimed, so every workload reports every modeled metric for its own
subject program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from effact import ckks, cli
from effact.asm import assemble_binary, assemble_text, disassemble_binary
from effact.compiler import (
    HardwareDescription,
    alloc_sram,
    compile_program,
    lower,
    merge_spill_traffic,
    merge_streaming,
    peephole_merge,
    pre,
    propagate,
    schedule,
    unroll,
)
from effact.ir import execute_program, parse_ir
from effact.poly import (
    NTT,
    BITREV,
    SM,
    RnsPoly,
    automorphism_ntt,
    bconv_merged,
    make_bconv_tables,
    make_poly,
    ntt_fwd,
    ntt_inv,
    vec_mmul,
)
from effact.rns import RnsBasis, make_modulus_chain
from effact.sim import compare_streaming, simulate, sweep_sram
from effact.workloads import (
    WorkloadParams,
    ckks_params,
    gen_bootstrap_skeleton,
    gen_keyswitch,
    keyswitch_image,
)

from spans import NULL, Tracer, totals_by_iteration

HW = HardwareDescription()            # built-in defaults: 64 SRAM slots
SWEEP_SLOTS = (16, 32, 64, 128, 256)  # 256 > max_live of the L24 key switch
DESK = WorkloadParams(n=1024, levels=4, dnum=2)
BOOT = WorkloadParams(n=2 ** 16, levels=12, dnum=4,
                      l_cts=2, l_evalmod=4, l_stc=2)
KS24 = WorkloadParams(n=2 ** 16, levels=24, dnum=4)
REL_ERR_BOUND = 2.0 ** -15            # the bound tests/test_he_ops.py uses
ROT_STEP = 1
PROBE_N = 1024                        # ring degree of the poly probes
PROBE_REPS = 40                       # timed calls per poly kernel probe
HE_PROBE_ITERS = 3                    # desk HE iterations in a probe phase

WORKLOADS = {
    # name: (what one iteration runs, subject IR generator)
    "he_desk": ("he", lambda: gen_keyswitch(DESK)),
    "compile_boot": ("compile", lambda: gen_bootstrap_skeleton(BOOT)),
    "sweep_ks": ("sweep", lambda: gen_keyswitch(KS24)),
}

# compile_program's pass order for streaming hardware; the by-pass compile
# below must give the same machine code, which every run checks
PASSES = (
    ("unroll", unroll),
    ("lower", lambda p: lower(p, HW)),
    ("propagate", propagate),
    ("pre", pre),
    ("peephole_merge", peephole_merge),
    ("propagate", propagate),
    ("schedule", lambda p: schedule(p, HW)),
    ("merge_streaming", lambda p: merge_streaming(p, HW)),
    ("alloc_sram", lambda p: alloc_sram(p, HW)),
    ("merge_spill_traffic", merge_spill_traffic),
)
NOTE_KEYS = ("spills", "max_live", "makespan", "critical_path")


class CheckFailed(Exception):
    """An output of the program differs from its reference."""


def require(ok: bool, msg: str):
    if not ok:
        raise CheckFailed(msg)


def same_words(got, want, what: str):
    """Bit-for-bit equality of two limb sequences: moduli and every word."""
    require(len(got) == len(want), f"{what}: {len(got)} limbs, "
            f"expected {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        require(g.modulus.q == w.modulus.q, f"{what}[{k}]: modulus differs")
        require(np.array_equal(g.coeffs, w.coeffs),
                f"{what}[{k}]: {int(np.sum(g.coeffs != w.coeffs))} residue "
                "words differ")


def same_as(ref, got, what: str):
    """The first output of a step is the run's reference; later ones must
    equal it exactly."""
    if ref is None:
        return got
    diff = sorted(k for k in set(ref) | set(got) if ref.get(k) != got.get(k))
    require(not diff, f"{what} outputs differ from the run's first: {diff}")
    return ref


def rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


# ---------------------------------------------------------------------------
# desk-scale homomorphic operations

class HeDesk:
    """One key set per process, as in tests/test_he_ops.py.

    A second key made from the same params would reuse the first key's
    cached NTT limbs (SecretKey.ntt_limb caches per params, not per key), so
    that defect is not exercised here.
    """

    def __init__(self, seed: int, tr, src, machine):
        """`src` and `machine`: the desk key switch, parsed and compiled."""
        self.seed = seed
        self.src, self.machine = src, machine
        self.errors: list[float] = []
        with tr.span("workloads.ckks_params"):
            self.params = ckks_params(DESK)
        with tr.span("ckks.keygen"):
            self.sk, self.evk, self.rot_keys = ckks.keygen_small(
                self.params, seed=seed, rot_steps=(ROT_STEP,))

    def iterate(self, index: int, tr):
        params = self.params
        rng = np.random.default_rng([self.seed, index])
        slots = params.n // 2
        za, zb = (rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
                  for _ in range(2))
        seed_a, seed_b = (int(s) for s in rng.integers(0, 2 ** 31, 2))
        with tr.span("ckks.encrypt"):
            ca = ckks.encrypt(za, params, self.sk, seed=seed_a)
        with tr.span("ckks.encrypt"):
            cb = ckks.encrypt(zb, params, self.sk, seed=seed_b)
        with tr.span("ckks.hmult"):
            prod = ckks.hmult(ca, cb, self.evk, params)
        with tr.span("ckks.hrot"):
            rotated = ckks.hrot(prod, ROT_STEP, self.rot_keys, params)
        with tr.span("ckks.decrypt"):
            got = ckks.decrypt(rotated, self.sk, params)
        err = rel_err(got, np.roll(za * zb, -ROT_STEP))
        self.errors.append(err)
        require(err < REL_ERR_BOUND,
                f"decrypt relative error 2^{math.log2(err):.1f} is not below "
                "2^-15")
        # the compiled key switch on the executor against ckks.key_switch
        with tr.span("poly.vec_mmul"):
            d2 = RnsPoly(ca.c1.basis, tuple(
                vec_mmul(x, y) for x, y in zip(ca.c1.limbs, cb.c1.limbs)))
        with tr.span("workloads.keyswitch_image"):
            image = keyswitch_image(self.src, DESK, d2, self.evk)
        with tr.span("ir.execute_program"):
            res = execute_program(self.machine, image)
        with tr.span("ckks.key_switch"):
            ks0, ks1 = ckks.key_switch(d2, self.evk, params, DESK.levels)
        same_words(res.dram["out0"], ks0.limbs, "executor out0")
        same_words(res.dram["out1"], ks1.limbs, "executor out1")


def desk_keyswitch(tr):
    with tr.span("workloads.gen"):
        text = gen_keyswitch(DESK)
    with tr.span("ir.parse_ir"):
        src = parse_ir(text)
    with tr.span("compiler.compile_program"):
        machine = compile_program(src, HW)
    return src, machine


# ---------------------------------------------------------------------------
# compile and simulate

def compile_by_pass(prog, tr):
    """compile_program, one pass at a time, timing and sizing each pass."""
    require(HW.streaming, "the by-pass compile assumes streaming hardware")
    with tr.span("compiler.compile_program"):
        p = prog
        for name, fn in PASSES:
            with tr.span(f"compiler.{name}"):
                p = fn(p)
            tr.count(f"compiler.{name}.instrs", len(p.instrs))
        p.notes["streaming"] = True
        p.form = "machine"
    return p


# ---------------------------------------------------------------------------
# one workload in one process

class Bench:
    def __init__(self, workload: str, seed: int):
        self.kind, self.gen = WORKLOADS[workload]
        self.seed = seed
        self.he: HeDesk | None = None
        self.compiled: dict | None = None   # first compile step's outputs
        self.swept: dict | None = None      # first sweep step's outputs
        self.blob: bytes | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label: str, fn) -> bool:
        """Run one checked operation; any exception counts as a failure."""
        self.attempted += 1
        try:
            fn()
            return True
        except Exception as e:
            msg = f"{label}: {type(e).__name__}: {e}"
            self.failures.append(msg)
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            print(f"FAILED {msg}", file=sys.stderr)
            return False

    def setup(self, tr):
        """Everything before the first timed iteration, warm-up included."""
        if self.kind == "he":
            self.he = HeDesk(self.seed, tr, *desk_keyswitch(tr))
            self.attempt("warm-up", lambda: self.he.iterate(0, tr))
        else:
            # fills the generator's analysis-only modulus chain cache
            with tr.span("workloads.gen"):
                self.gen()

    def iterate(self, index: int, tr):
        if self.kind == "he":
            self.he.iterate(index, tr)
        elif self.kind == "compile":
            self.compile_step(tr, by_pass=tr.enabled)
        else:
            self.sweep_step(tr, SWEEP_SLOTS)

    def compile_step(self, tr, by_pass: bool):
        with tr.span("workloads.gen"):
            text = self.gen()
        with tr.span("ir.parse_ir"):
            prog = parse_ir(text)
        if by_pass:
            machine = compile_by_pass(prog, tr)
        else:
            with tr.span("compiler.compile_program"):
                machine = compile_program(prog, HW)
        with tr.span("asm.assemble_binary"):
            blob = assemble_binary(machine)
        with tr.span("asm.disassemble_binary"):
            back = disassemble_binary(blob)
        with tr.span("asm.assemble_text"):
            code = assemble_text(machine)
            require(assemble_text(back) == code,
                    "the .ebin round trip changed the machine code")
        with tr.span("sim.simulate"):
            report = simulate(back, HW)
        out = {"ir_instrs": len(prog.instrs),
               "code_sha256": hashlib.sha256(code.encode()).hexdigest(),
               "ebin_bytes": len(blob),
               "notes": {k: machine.notes[k] for k in NOTE_KEYS},
               "sim": report.to_dict()}
        self.compiled = same_as(self.compiled, out, "compile")
        self.blob = blob

    def sweep_step(self, tr, slot_counts):
        with tr.span("workloads.gen"):
            text = self.gen()
        with tr.span("sim.sweep_sram"):
            reports = sweep_sram(text, HW, slot_counts)
        with tr.span("sim.compare_streaming"):
            cmp = compare_streaming(text, HW)
        out = {"sweep": {slots: r.to_dict()
                         for slots, r in zip(slot_counts, reports)},
               "streaming": cmp["streaming"].to_dict(),
               "baseline": cmp["baseline"].to_dict(),
               "dram_bytes_ratio": cmp["dram_bytes_ratio"],
               "cycles_ratio": cmp["cycles_ratio"]}
        require(out["sweep"].get(HW.slots, out["streaming"])
                == out["streaming"], "sweep and streaming comparison "
                "disagree at the default slot count")
        self.swept = same_as(self.swept, out, "sweep")

    def model(self, tr):
        """Compute what the iterations did not, then cross-check the compile
        step (simulated from the disassembled .ebin) against the streaming
        comparison (simulated from the in-memory program).

        The model phase's sweep skips the default slot count, which the
        streaming comparison compiles and simulates already.
        """
        if self.compiled is None:
            self.compile_step(tr, by_pass=False)
        if self.swept is None:
            self.sweep_step(tr, [s for s in SWEEP_SLOTS if s != HW.slots])
        self.attempt("model cross-check", lambda: require(
            self.compiled["sim"] == self.swept["streaming"],
            "simulating the .ebin round trip differs from simulating the "
            "compiled program"))

    def modeled_metrics(self) -> dict:
        sim, sw = self.compiled["sim"], self.swept
        out = {"sim_cycles": sim["cycles"],
               "sim_dram_bytes": sim["dram_bytes"]}
        for s in SWEEP_SLOTS:
            if s != HW.slots:
                out[f"sim_cycles.s{s}"] = sw["sweep"][s]["cycles"]
        out["stream_dram_ratio"] = sw["dram_bytes_ratio"]
        out["stream_cycles_ratio"] = sw["cycles_ratio"]
        return out

    # -- probes of the traced run -------------------------------------------

    def probes(self, tr, clock, workdir: str) -> dict:
        """Reach the layers this workload's iteration does not call."""
        counts = probe_rns_poly(self.seed, tr, clock)
        if self.he is None:
            tr.iteration = "probe.setup"
            # the desk compile is not this workload's subject: untraced
            self.he = HeDesk(self.seed, tr, *desk_keyswitch(NULL))
            for k in range(HE_PROBE_ITERS):
                tr.iteration = f"probe.he.{k}"
                self.attempt(f"probe he {k}",
                             lambda k=k: self.he.iterate(k + 1, tr))
        if self.kind != "compile":
            tr.iteration = "probe.compile"
            self.attempt("by-pass compile",
                         lambda: self.compile_step(tr, by_pass=True))
        tr.iteration = "probe.cli"
        self.attempt("cli sim", lambda: probe_cli(self.blob,
                                                  self.compiled["sim"],
                                                  tr, workdir))
        return counts


def probe_rns_poly(seed: int, tr, clock) -> dict:
    """Kernel probes on one limb at N=1024, at both Montgomery radices.

    Each value is the median of PROBE_REPS timed calls, in reference-speed
    microseconds.  Inputs are drawn from the workload seed.
    """
    rng = np.random.default_rng([seed, 0x706f6c79])
    out = {}
    # the three chains ckks.make_params builds for the desk point
    params = ckks_params(DESK)
    chains = ((1, params.chain[0].q.bit_length()),
              (DESK.levels, params.chain[1].q.bit_length()),
              (len(params.pchain), params.pchain[0].q.bit_length()))
    runs = []
    for _ in range(3):
        t = time.perf_counter()
        with tr.span("rns.make_modulus_chain"):
            for count, bits in chains:
                make_modulus_chain(DESK.n, count, bits)
        runs.append(clock.seconds(t, time.perf_counter()))
    out["rns.make_modulus_chain_s"] = statistics.median(runs)

    # first transform on a fresh modulus builds its twiddle tables
    firsts = []
    for m in make_modulus_chain(PROBE_N, 3, 50):
        a = make_poly(m, rng.integers(0, m.q, PROBE_N, dtype=np.uint64))
        t = time.perf_counter()
        with tr.span("poly.ntt_fwd"):
            ntt_fwd(a)
        firsts.append(clock.seconds(t, time.perf_counter()))
    out["poly.first_ntt_s"] = statistics.median(firsts)

    def timed(name: str, fn, arg):
        fn(arg)   # tables built outside the timed calls
        samples = []
        with tr.span(name):
            for _ in range(PROBE_REPS):
                t = time.perf_counter()
                fn(arg)
                samples.append(clock.seconds(t, time.perf_counter()))
        return statistics.median(samples) * 1e6

    r64 = params.chain[1]                          # 40-bit: R = 2^64
    r32 = make_modulus_chain(PROBE_N, 1, 30)[0]    # 30-bit: R = 2^32
    for tag, m in (("r64", r64), ("r32", r32)):
        require(m.r_bits == int(tag[1:]), f"{tag} probe got R=2^{m.r_bits}")
        a = make_poly(m, rng.integers(0, m.q, PROBE_N, dtype=np.uint64),
                      repr=SM)
        b = make_poly(m, rng.integers(0, m.q, PROBE_N, dtype=np.uint64),
                      repr=SM)
        ev = make_poly(m, a.coeffs, domain=NTT, order=BITREV, repr=SM)
        out[f"poly.vec_mmul_us.{tag}"] = timed(
            f"poly.vec_mmul.{tag}", lambda x: vec_mmul(x, b), a)
        out[f"poly.ntt_fwd_us.{tag}"] = timed(
            f"poly.ntt_fwd.{tag}", ntt_fwd, a)
        out[f"poly.ntt_inv_us.{tag}"] = timed(
            f"poly.ntt_inv.{tag}", ntt_inv, ev)

    # merged base conversion of key-switch digit 0 at the top desk level
    alpha = params.alpha
    src = RnsBasis(params.chain[:alpha])
    dst = RnsBasis(params.chain[alpha:] + params.pchain)
    tables = make_bconv_tables(src, dst)
    deferred = RnsPoly(src, tuple(
        ntt_inv(make_poly(m, rng.integers(0, m.q, DESK.n, dtype=np.uint64),
                          domain=NTT, order=BITREV, repr=SM),
                defer_scale=True)
        for m in src))
    out["poly.bconv_merged_us"] = timed(
        "poly.bconv_merged", lambda x: bconv_merged(x, tables), deferred)
    ev = make_poly(r64, rng.integers(0, r64.q, PROBE_N, dtype=np.uint64),
                   domain=NTT, order=BITREV, repr=SM)
    out["poly.automorphism_ntt_us"] = timed(
        "poly.automorphism_ntt", lambda x: automorphism_ntt(x, ROT_STEP), ev)
    return out


# operand sizes of the poly probes, recorded beside the results
PROBE_OPERANDS = {
    "n": PROBE_N, "word_bits": 64, "reps": PROBE_REPS,
    "r64_modulus_bits": 40, "r32_modulus_bits": 30,
    "vec_mmul": "limb x limb", "ntt_fwd": "one limb", "ntt_inv": "one limb",
    "bconv_merged": "3 -> 5 limbs (desk digit 0 at level 4)",
    "automorphism_ntt": f"one limb, step {ROT_STEP}",
    "first_ntt": "one limb on each of 3 fresh 50-bit moduli",
}


def probe_cli(blob: bytes, want: dict, tr, workdir: str):
    """`effact sim <ebin> --json <file>` in process; the JSON must equal the
    report of the compile step."""
    ebin = os.path.join(workdir, "subject.ebin")
    report = os.path.join(workdir, "subject.sim.json")
    with open(ebin, "wb") as f:
        f.write(blob)
    with tr.span("cli.sim"):
        code = cli.main(["sim", ebin, "--json", report])
    require(code == 0, f"effact sim exited {code}")
    with open(report) as f:
        require(json.load(f) == want, "effact sim --json differs from "
                "SimReport.to_dict()")


# ---------------------------------------------------------------------------
# run loop and metrics

def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples beyond it, and that
    percentile; the median (50) below 20 samples."""
    n = len(values)
    if n < 20:
        return statistics.median(values), 50
    return sorted(values)[n - 11], math.floor(100 * (n - 10) / n)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(bench: Bench, tr, clock, seconds: float, traced: bool):
    """Closed loop, one client: the next iteration starts when the last ends.

    In the traced run, odd iterations are traced and even ones are not, so
    both kinds see the same machine state; at least one of each runs.
    Returns reference-speed seconds per iteration, by traced or not, and
    the wall seconds of every iteration.
    """
    times = {True: [], False: []}
    wall = []
    start = time.perf_counter()
    index = 1                    # index 0 is the warm-up
    while (time.perf_counter() - start < seconds
           or len(times[traced]) < 1 or len(times[False]) < 1):
        on = traced and index % 2 == 1
        t = tr if on else NULL
        tr.iteration = index
        t0 = time.perf_counter()
        with t.span("bench.iteration"):
            bench.attempt(f"iteration {index}",
                          lambda: bench.iterate(index, t))
        t1 = time.perf_counter()
        times[on].append(clock.seconds(t0, t1))
        wall.append(t1 - t0)
        index += 1
    return times, wall


def run(workload: str, seed: int, seconds: float, traced: bool,
        t_start: float, clock, setup_samples, workdir: str) -> dict:
    """One workload in this process; returns metrics and the run record.

    `t_start` is when the process started timing its set-up; `clock` is the
    running HostSpeed probe that converts intervals to reference seconds.
    `setup_samples()` is called after the timed loop and returns set-up
    times measured in fresh processes.  Probe files go under `workdir`.
    """
    bench = Bench(workload, seed)
    tr = Tracer() if traced else NULL
    bench.setup(tr)
    loop_start = time.perf_counter()
    setup_s = clock.seconds(t_start, loop_start)
    times, wall = timed_loop(bench, tr, clock, seconds, traced)
    rss = peak_rss_mb()
    tr.iteration = "model"
    bench.model(tr)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "traced": traced, "setup_wall_s": loop_start - t_start,
              "iter_wall_s": wall}
    if traced:
        with tempfile.TemporaryDirectory(dir=workdir) as d:
            counts = bench.probes(tr, clock, d)
        metrics = layer_metrics(bench, tr, clock, counts, times)
        record["poly_probe_operands"] = PROBE_OPERANDS
    else:
        samples = [setup_s] + setup_samples()
        iters = times[False]
        tail_s, pct = tail(iters)
        metrics = {"setup_s": statistics.median(samples),
                   "iter_s_p50": statistics.median(iters),
                   "iter_s_tail": tail_s,
                   "peak_rss_mb": rss,
                   **bench.modeled_metrics()}
        record.update(setup_samples_s=samples, iter_s=iters,
                      tail_percentile=pct, tail_samples=len(iters))
    record.update(attempted=bench.attempted, failures=bench.failures,
                  compiled=bench.compiled, swept=bench.swept,
                  host_speed=clock.factor())
    return {"metrics": metrics, "record": record, "tracer": tr,
            "attempted": bench.attempted, "failed": len(bench.failures)}


def layer_metrics(bench: Bench, tr: Tracer, clock, counts: dict,
                  times) -> dict:
    """Per-layer metrics from the spans of the traced run.

    A `<span>_s` metric is the median, over the timed iterations that call
    it, of its summed duration in one iteration; a span the iterations never
    call takes the median over the set-up, model and probe phases instead.
    """
    totals = totals_by_iteration(
        tr.spans, lambda s: clock.seconds(s.start, s.end))

    def span_s(name: str) -> float:
        per = totals[name]
        timed = [v for k, v in per.items() if isinstance(k, int)]
        return statistics.median(timed or list(per.values()))

    m = dict(counts)
    for name in ("ckks.keygen", "ckks.encrypt", "ckks.hmult", "ckks.hrot",
                 "ckks.decrypt", "ckks.key_switch", "ir.execute_program",
                 "ir.parse_ir", "asm.assemble_binary",
                 "asm.disassemble_binary",
                 "compiler.compile_program", "sim.simulate", "sim.sweep_sram",
                 "sim.compare_streaming", "workloads.gen", "cli.sim"):
        m[f"{name}_s"] = span_s(name)
    for name in dict(PASSES):
        m[f"compiler.{name}_s"] = span_s(f"compiler.{name}")
        m[f"compiler.{name}.instrs"] = tr.counts[f"compiler.{name}.instrs"]
    m["ckks.rel_err_log2"] = math.log2(max(bench.he.errors))
    c = bench.compiled
    m["workloads.ir_instrs"] = c["ir_instrs"]
    m["asm.ebin_bytes"] = c["ebin_bytes"]
    for k in NOTE_KEYS:
        m[f"compiler.{k}"] = c["notes"][k]
    sim = c["sim"]
    m["sim.instrs_per_host_s"] = sim["instructions"] / m["sim.simulate_s"]
    for cls in ("ntt", "mmul", "madd", "auto"):
        m[f"sim.fu_util.{cls}"] = (sim["fu_busy"][cls]
                                   / (sim["cycles"] * sim["fu_count"][cls]))
    m["sim.dram_util"] = sim["dram_utilization"]
    m["sim.bank_conflicts"] = sim["bank_conflicts"]
    m["sim.fifo_peak"] = sim["fifo_peak"]
    m["trace.overhead_frac"] = (statistics.median(times[True])
                                / statistics.median(times[False]) - 1)
    return m
