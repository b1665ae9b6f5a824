"""Command-line front end: compile, execute, simulate, sweep, analyze, gen."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import replace

from .asm import (
    assemble_binary,
    assemble_text,
    check_machine_form,
    disassemble_binary,
    load_image,
    save_image,
)
from .compiler import HardwareDescription, compile_program, lower, parse_hw, unroll
from .ir import FU_CLASS, blank_image, execute_program, parse_ir
from .sim import compare_streaming, simulate, sweep
from . import workloads


class CliError(Exception):
    def __init__(self, stage: str, msg: str):
        super().__init__(f"error[{stage}]: {msg}")


@contextmanager
def _stage(stage: str):
    """Bad input met in a stage of a command, as a CliError tagged with
    the stage.  Bad input is an OSError from a file or a ValueError, of
    which every error the library raises for its input is a subclass; a
    RuntimeError is a broken invariant and propagates."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise CliError(stage, str(e)) from e


def _write(path: str | None, data, binary: bool = False):
    if path is None or path == "-":
        (sys.stdout.buffer if binary else sys.stdout).write(data)
        return
    with _stage("write"), open(path, "wb" if binary else "w") as f:
        f.write(data)


def _load_hw(args) -> HardwareDescription:
    path = getattr(args, "hw", None) or os.environ.get("EFFACT_HW")
    if not path:
        return HardwareDescription()
    with _stage("hw"), open(path) as f:
        return parse_hw(f.read())


def _machine_hw(args) -> HardwareDescription:
    """The hardware both compile and sim use: --slots and --no-streaming
    set fields of the loaded description."""
    kw = {"slots": args.slots} if args.slots is not None else {}
    if args.no_streaming:
        kw["streaming"] = False
    with _stage("flags"):
        return replace(_load_hw(args), **kw)


def _load_program(path: str):
    """Every command's input, `.ebin` or text: a fault reading the file is
    error[read], one in what it holds error[parse]."""
    with _stage("read"), open(path, "rb") as f:
        data = f.read()
    with _stage("parse"):
        if path.endswith(".ebin"):
            return disassemble_binary(data)
        return parse_ir(data.decode())


def _compile(args, hw: HardwareDescription, prog):
    with _stage("compile"):
        return compile_program(prog, hw, do_pre=not args.no_pre,
                               do_merge=not args.no_merge)


def _add_pass_flags(sp):
    sp.add_argument("--hw", help="hardware description file "
                                 "(default: $EFFACT_HW or built-in)")
    sp.add_argument("--no-pre", action="store_true")
    sp.add_argument("--no-merge", action="store_true")
    sp.add_argument("--no-streaming", action="store_true",
                    help="set streaming = false in the hardware description")
    sp.add_argument("--slots", type=int, default=None,
                    help="set the SRAM slot count of the hardware "
                         "description")


def _cmd_compile(args) -> int:
    hw = _machine_hw(args)
    machine = _compile(args, hw, _load_program(args.input))
    binary = (args.output or "").endswith(".ebin")
    with _stage("assemble"):    # a name or address .ebin cannot encode
        out = assemble_binary(machine) if binary else assemble_text(machine)
    _write(args.output, out, binary=binary)
    if args.json:
        notes = {"instructions": len(machine.instrs), **machine.notes}
        _write(args.json, json.dumps(notes, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_exec(args) -> int:
    prog = _load_program(args.input)
    if args.input.endswith((".easm", ".ebin")):
        with _stage("exec"):
            check_machine_form(prog)
    if args.image:
        with _stage("image"), open(args.image, "rb") as f:
            img = load_image(f.read())
    else:
        img = blank_image(prog)
    with _stage("exec"):
        res = execute_program(prog, img)
    if args.output:
        _write(args.output, save_image(res, prog.n), binary=True)
    print(f"executed {len(prog.instrs)} instructions; "
          f"{len(res.dram)} DRAM symbols live")
    return 0


def _cmd_sim(args) -> int:
    hw = _machine_hw(args)
    machine = _load_program(args.input)
    if not args.input.endswith((".easm", ".ebin")):
        machine = _compile(args, hw, machine)
    with _stage("sim"):
        rep = simulate(machine, hw)
    if args.json is not None:
        _write(args.json, rep.to_json() + "\n")
    else:
        print(f"cycles            {rep.cycles}")
        print(f"critical path     {rep.critical_path}")
        print(f"instructions      {rep.instructions}")
        print(f"dram bytes        {rep.dram_bytes}")
        print(f"bank conflicts    {rep.bank_conflicts}")
        print(f"fifo peak         {rep.fifo_peak}")
        print(f"fu utilization    {rep.fu_utilization:.3f}")
        print(f"dram utilization  {rep.dram_utilization:.3f}")
        if args.trace:
            for k, (i, done) in enumerate(zip(machine.instrs, rep.complete)):
                print(f"{k} {i.op} {done}")
    return 0


def _cmd_sweep(args) -> int:
    hw = _load_hw(args)
    with _stage("flags"):
        try:
            slot_counts = [int(s) for s in args.slots.split(",")]
        except ValueError:
            raise ValueError(f"bad slot list: {args.slots}") from None
        hws = [replace(hw, slots=s) for s in slot_counts]
    prog = _load_program(args.input)
    with _stage("sweep"):
        reports = sweep(prog, hws)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["slots", "cycles", "fu_utilization", "dram_bytes"])
    for s, rep in zip(slot_counts, reports):
        w.writerow([s, rep.cycles, f"{rep.fu_utilization:.6f}",
                    rep.dram_bytes])
    _write(args.output, buf.getvalue())
    return 0


def _cmd_analyze(args) -> int:
    prog = loaded = _load_program(args.input)
    with _stage("analyze"):
        if any(i.op not in FU_CLASS for i in prog.instrs):  # not machine code
            prog = lower(unroll(prog))
    mix = workloads.instruction_mix(prog)
    fr = workloads.mix_fractions(mix)
    if args.streaming:
        hw = _load_hw(args)
        with _stage("analyze"):
            cmp = compare_streaming(loaded, hw)
        summary = {k: v for k, v in cmp.items()
                   if not hasattr(v, "to_dict")}
        summary["streaming_cycles"] = cmp["streaming"].cycles
        summary["baseline_cycles"] = cmp["baseline"].cycles
    else:
        summary = None
    if args.json is not None:
        out = {"counts": mix, "fractions": fr}
        if summary:
            out["streaming"] = summary
        _write(args.json, json.dumps(out, indent=2, sort_keys=True) + "\n")
    else:
        total = sum(mix.values())
        for cat, n in mix.items():
            print(f"{cat:<11} {n:>8}  {fr[cat]:7.2%}")
        print(f"{'TOTAL':<11} {total:>8}")
        if summary:
            for k, v in sorted(summary.items()):
                print(f"{k:<24} {v}")
    return 0


def _gen_random(seed: int, size: int = 40) -> str:
    """Small deterministic straight-line vector program for corpora."""
    rng = random.Random(seed)
    qs = {"q0": 97, "q1": 193}
    lines = [".n 16"]
    lines += [f".mod {n} {q}" for n, q in qs.items()]
    lines += [".dram x 8", ".dram y 8"]
    regs = {"q0": [], "q1": []}
    for k in range(4):
        q = "q0" if k < 2 else "q1"
        lines.append(f"%l{k} = load @x[{k if k < 2 else k + 2}]")
        regs[q].append(f"%l{k}")
    for k in range(size):
        q = rng.choice(["q0", "q1"])
        pool = regs[q]
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.choice(["mmul", "mmad", "mac", "auto"])
        d = f"%v{k}"
        if op == "mac":
            lines.append(f"{d} = mac {a}, {b}, {b}, {q}")
        elif op == "auto":
            lines.append(f"{d} = auto {a}, {rng.randrange(1, 4)}, {q}")
        else:
            lines.append(f"{d} = {op} {a}, {b}, {q}")
        pool.append(d)
    for i, q in enumerate(("q0", "q0", "q1", "q1")):
        lines.append(f"store {regs[q][-1 - i % 2]}, @y[{i}]")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    with _stage("gen"):
        if args.workload == "random":
            text = _gen_random(args.seed)
        else:
            wp = workloads.WorkloadParams(
                n=args.N, levels=args.L, dnum=args.dnum, level=args.level,
                l_cts=args.Lcts, l_evalmod=args.Levalmod, l_stc=args.Lstc)
            if args.workload == "keyswitch":
                text = workloads.gen_keyswitch(wp)
            elif args.workload == "bootstrap":
                text = workloads.gen_bootstrap_skeleton(wp)
            elif args.workload == "hoisted":
                steps = tuple(int(s) for s in args.steps.split(","))
                text = workloads.gen_hoisted_rotations(wp, steps)
            else:
                text = workloads.gen_helr_iteration(wp, batch=args.batch)
    _write(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="effact",
                                 description="FHE accelerator stack: "
                                 "compile, execute, simulate, analyze")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="compile IR to machine form")
    c.add_argument("input")
    c.add_argument("-o", "--output", help=".easm (text) or .ebin (binary)")
    c.add_argument("--json", nargs="?", const="-",
                   help="also emit compile notes as JSON")
    _add_pass_flags(c)
    c.set_defaults(fn=_cmd_compile)

    e = sub.add_parser("exec", help="run a program on the golden executor")
    e.add_argument("input", help=".eir, .easm, or .ebin")
    e.add_argument("--image", help="input memory image (.emem)")
    e.add_argument("-o", "--output", help="write resulting image (.emem)")
    e.set_defaults(fn=_cmd_exec)

    s = sub.add_parser("sim", help="cycle simulation")
    s.add_argument("input", help=".eir (compiled first), .easm, or .ebin")
    s.add_argument("--trace", action="store_true",
                   help="print each instruction's completion cycle")
    s.add_argument("--json", nargs="?", const="-",
                   help="write report as JSON (path or stdout)")
    _add_pass_flags(s)
    s.set_defaults(fn=_cmd_sim)

    w = sub.add_parser("sweep", help="SRAM capacity sweep, CSV output")
    w.add_argument("input", help=".eir source")
    w.add_argument("--slots", default="8,16,32,64,128",
                   help="comma-separated slot counts")
    w.add_argument("--hw")
    w.add_argument("-o", "--output")
    w.set_defaults(fn=_cmd_sweep)

    a = sub.add_parser("analyze", help="instruction mix and streaming impact")
    a.add_argument("input")
    a.add_argument("--streaming", action="store_true",
                   help="also compare streaming on/off")
    a.add_argument("--hw")
    a.add_argument("--json", nargs="?", const="-")
    a.set_defaults(fn=_cmd_analyze)

    g = sub.add_parser("gen", help="emit a benchmark workload as IR")
    g.add_argument("workload",
                   choices=["keyswitch", "bootstrap", "hoisted", "helr",
                            "random"])
    g.add_argument("--N", type=int, default=1024)
    g.add_argument("--L", type=int, default=4)
    g.add_argument("--dnum", type=int, default=2)
    g.add_argument("--level", type=int, default=None)
    g.add_argument("--Lcts", type=int, default=0)
    g.add_argument("--Levalmod", type=int, default=0)
    g.add_argument("--Lstc", type=int, default=0)
    g.add_argument("--steps", default="1,2", help="rotation steps (hoisted)")
    g.add_argument("--batch", type=int, default=8, help="HELR batch size")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
