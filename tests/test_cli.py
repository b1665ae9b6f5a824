import contextlib
import io
import json
import re
import signal
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from effact.asm import (assemble_binary, assemble_text, disassemble_binary,
                        load_image, save_image)
from effact.cli import main
from effact.compiler import HardwareDescription, compile_program
from effact.ir import IrError, blank_image, parse_ir
from effact.rns import SM, make_modulus_chain
from effact.sim import simulate
from effact.workloads import WorkloadParams, gen_keyswitch

SMALL = """\
.n 16
.mod q0 97
.dram x 4
.dram y 2
%a = load @x[0]
%b = load @x[1]
%m = mmul %a, %b, q0
%s = mmad %m, %a, q0
store %m, @y[0]
store %s, @y[1]
"""


@pytest.fixture
def src(tmp_path):
    p = tmp_path / "prog.eir"
    p.write_text(SMALL)
    return p


def test_compile_writes_assembly(src, tmp_path, capsys):
    out = tmp_path / "prog.easm"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert ".n 16" in text and "%" not in text
    # deterministic artifacts
    main(["compile", str(src), "-o", str(tmp_path / "b.easm")])
    assert (tmp_path / "b.easm").read_text() == text


def test_compile_binary_and_flags(src, tmp_path):
    out = tmp_path / "prog.ebin"
    assert main(["compile", str(src), "-o", str(out), "--no-pre",
                 "--no-streaming", "--slots", "8"]) == 0
    assert out.read_bytes()[:4] != b""


def test_compile_json_keys(tmp_path):
    # the schedule's issue cycles stay out of the compile notes, whether the
    # latency order fits the slots (64) or is rescheduled for them (12)
    src = tmp_path / "ks.eir"
    src.write_text(gen_keyswitch(WorkloadParams(n=256, levels=3, dnum=2)))
    out = tmp_path / "notes.json"
    for flags in ([], ["--slots", "12"], ["--no-streaming", "--slots", "12"]):
        assert main(["compile", str(src), "-o", str(tmp_path / "p.easm"),
                     "--json", str(out), *flags]) == 0
        assert sorted(json.loads(out.read_text())) == sorted((
            "instructions", "critical_path", "makespan", "spills",
            "max_live", "streaming"))


def test_compile_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eir"
    bad.write_text(".n 16\n%a = frobnicate %b\n")
    assert main(["compile", str(bad)]) == 1
    assert "error[" in capsys.readouterr().err
    # parse faults, then an address out of range, which unrolling finds
    for text, stage in ((".n\n", "parse"), (".n 16\n.mod q0 abc\n", "parse"),
                        (".n 16\n.mod q0 15\n", "parse"),
                        (".n 16\n.dram x\n", "parse"),
                        (".n 16\n.mod q0 97\n.dram x 2 3\n", "parse"),
                        (".n 16\n.mod q0 97\n.dram x 2\n%a = load @x[$j]\n",
                         "parse"),
                        (".n 16\n.mod q0 97\n.dram x 2\n%a = load @x[5]\n"
                         "store %a, @x[0]\n", "compile")):
        bad.write_text(text)
        assert main(["compile", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error[{stage}]: line ")


MACHINE_REGS = """\
.n 16
.mod q0 97
.dram x 2
r0 = load @x[0]
r1 = mmul r0, r0, q0
store r1, @x[1]
"""


def test_machine_registers_in_compiler_input_are_tagged_errors(tmp_path,
                                                               capsys):
    ks, easm, m, f = (tmp_path / n for n in ("ks.eir", "ks.easm", "m.eir",
                                             "f.eir"))
    assert main(["gen", "keyswitch", "-o", str(ks)]) == 0
    assert main(["compile", str(ks), "-o", str(easm)]) == 0
    m.write_text(MACHINE_REGS)
    # a FIFO channel read as a source, on line 5
    f.write_text(MACHINE_REGS.replace("r0 = load", "%a = load")
                 .replace("r0, r0", "%a, f1"))
    for argv, want in (
            (["compile", str(easm), "-o", str(tmp_path / "re.easm")],
             "error[compile]: line "),
            (["compile", str(m), "-o", str(tmp_path / "m.ebin")],
             "error[compile]: line 4: machine register r0"),
            (["compile", str(f)],
             "error[compile]: line 5: machine register f1"),
            (["sweep", str(easm)], "error[sweep]: line "),
            (["analyze", str(easm), "--streaming"], "error[analyze]: line ")):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(want) and "machine register" in err and \
            "Traceback" not in err
    assert not (tmp_path / "re.easm").exists()
    assert not (tmp_path / "m.ebin").exists()


OTHER_MODULUS = """\
.n 16
.mod q0 97
.mod q1 193
.dram x 2
.dram y 2
.const c q1 5 sm
%a = load @x[0]
%b = mmul %a, !c, q0
store %b, @y[0]
"""


def test_a_constant_of_another_modulus_is_a_tagged_error(tmp_path, capsys):
    # the executor would reject the multiply on line 8, so every command
    # that reads the program does, with the line
    path = tmp_path / "other.eir"
    path.write_text(OTHER_MODULUS)
    for cmd in ("compile", "sim", "exec"):
        capsys.readouterr()
        assert main([cmd, str(path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error\[\w+\]: line 8: constant !c is for "
                            r"modulus q1, not q0\n", err), (cmd, err)


UNDECLARED_RESULT = """\
.n 16
.mod q0 97
.dram x 2
%a = load @x[0]
@w[0] = ntt %a, q0
"""


def test_an_undeclared_result_symbol_is_a_parse_error(tmp_path, capsys):
    # the parser checks the symbol of a result address as it checks a
    # source's, and every command reads its input through one loader:
    # each fails where it parses, not on a compile, a run or a count
    path = tmp_path / "w.eir"
    path.write_text(UNDECLARED_RESULT)
    for cmd in ("compile", "exec", "sim", "sweep", "analyze"):
        capsys.readouterr()
        assert main([cmd, str(path)]) == 1
        assert capsys.readouterr().err == \
            "error[parse]: line 5: unknown symbol '@w'\n"


def test_every_command_tags_a_read_fault_and_a_parse_fault_alike(
        tmp_path, capsys):
    # a file that cannot be read is error[read]; one that is not UTF-8,
    # or whose .ebin is cut short, is error[parse]
    text, blob = tmp_path / "bad.eir", tmp_path / "bad.ebin"
    text.write_bytes(b".n 16\n\xff\n")
    blob.write_bytes(b"\x00" * 8)
    for cmd in ("compile", "exec", "sim", "sweep", "analyze"):
        for path, stage in ((tmp_path / "missing.eir", "read"),
                            (tmp_path, "read"), (text, "parse"),
                            (blob, "parse")):
            capsys.readouterr()
            assert main([cmd, str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"error[{stage}]: "), \
                (cmd, path)


def test_hardware_and_flag_faults_come_before_input_faults(tmp_path,
                                                          capsys):
    # compile, sim and sweep check --hw and their flags before they read
    # the input: with both wrong, the hardware or flag fault is reported
    hw = tmp_path / "bad.hw"
    hw.write_text("lanes = many\n")
    easm = tmp_path / "bad.easm"
    easm.write_text(".n 16\nfoo\n")
    runs = [(cmd, path, ["--hw", str(hw)], "hw")
            for cmd in ("compile", "sim", "sweep")
            for path in (tmp_path / "missing.eir", easm)]
    runs += [("sweep", easm, ["--slots", "8,x"], "flags"),
             ("sweep", easm, ["--slots", "0"], "flags"),
             ("sweep", tmp_path / "missing.eir", ["--slots", "1"], "flags"),
             ("sim", easm, ["--slots", "0"], "flags")]
    for cmd, path, flags, stage in runs:
        capsys.readouterr()
        assert main([cmd, str(path), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error[{stage}]: "), \
            (cmd, path, flags)


def test_missing_file_exit_code(capsys):
    assert main(["compile", "/nonexistent.eir"]) == 1


def test_bad_flags_exit_code(src):
    with pytest.raises(SystemExit) as e:
        main(["compile", str(src), "--slots", "many"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


@pytest.fixture
def mem(tmp_path):
    """An input image for SMALL."""
    from effact.poly import SM, make_poly, ntt_fwd
    from effact.rns import make_modulus
    prog = parse_ir(SMALL)
    img = blank_image(prog)
    m = make_modulus(97, 16)
    for k in range(4):
        img.dram["x"][k] = ntt_fwd(make_poly(m, [k + 1] * 16, repr=SM))
    p = tmp_path / "in.emem"
    p.write_bytes(save_image(img, 16))
    return p


def test_exec_roundtrip(src, mem, tmp_path, capsys):
    out = tmp_path / "out.emem"
    assert main(["exec", str(src), "--image", str(mem),
                 "-o", str(out)]) == 0
    assert out.stat().st_size > 0
    assert "executed" in capsys.readouterr().out


def test_sim_human_and_json(src, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["sim", str(src), "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["cycles"] > 0
    assert main(["sim", str(src)]) == 0
    assert "cycles" in capsys.readouterr().out


def test_sim_json_is_the_report_dict(src, tmp_path, monkeypatch):
    monkeypatch.delenv("EFFACT_HW", raising=False)
    easm, out = tmp_path / "p.easm", tmp_path / "rep.json"
    assert main(["compile", str(src), "-o", str(easm)]) == 0
    assert main(["sim", str(easm), "--json", str(out)]) == 0
    got = json.loads(out.read_text())
    rep = simulate(parse_ir(easm.read_text()), HardwareDescription())
    assert got == rep.to_dict()
    # the per-instruction record stays out of the report
    assert not any(isinstance(v, list) for v in got.values())


def test_sim_trace_prints_each_completion_cycle(src, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.delenv("EFFACT_HW", raising=False)
    easm = tmp_path / "p.easm"
    assert main(["compile", str(src), "-o", str(easm)]) == 0
    machine = parse_ir(easm.read_text())
    capsys.readouterr()
    assert main(["sim", str(easm), "--trace"]) == 0
    out = capsys.readouterr().out
    cycles = int(re.search(r"^cycles +(\d+)$", out, re.M).group(1))
    lines = re.findall(r"^(\d+) (\w+) (\d+)$", out, re.M)
    assert [(int(k), op) for k, op, _ in lines] == \
        [(k, i.op) for k, i in enumerate(machine.instrs)]
    assert max(int(done) for _, _, done in lines) == cycles


def test_sim_accepts_compiled_artifact(src, tmp_path):
    easm = tmp_path / "p.easm"
    assert main(["compile", str(src), "-o", str(easm)]) == 0
    assert main(["sim", str(easm), "--json", str(tmp_path / "r.json")]) == 0


def test_hw_file_and_env(src, tmp_path, monkeypatch, capsys):
    hwf = tmp_path / "small.hw"
    hwf.write_text("slots=8\nfifo_depth=4\nfu.ntt=1\n")
    out1 = tmp_path / "a.json"
    assert main(["sim", str(src), "--hw", str(hwf), "--json",
                 str(out1)]) == 0
    monkeypatch.setenv("EFFACT_HW", str(hwf))
    out2 = tmp_path / "b.json"
    assert main(["sim", str(src), "--json", str(out2)]) == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())
    bad = tmp_path / "bad.hw"
    for line in ("slots=zero", "fu.bogus = 3", "fu.dram = 4",
                 "lat.bogus = 5", "lat.mmul = -50", "lat.ntt = 0",
                 "streaming = treu"):
        bad.write_text(line + "\n")
        capsys.readouterr()
        assert main(["sim", str(src), "--hw", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error[hw]:")


@pytest.mark.parametrize("line", ["fu.ntt = two", "lat.mmul = 1.5",
                                  "slots = 64k"])
def test_hw_value_that_is_not_an_integer_names_its_line(src, tmp_path, capsys,
                                                        line):
    bad = tmp_path / "bad.hw"
    bad.write_text(f"# comment\nbanks = 8\n{line}\n")
    assert main(["sim", str(src), "--hw", str(bad)]) == 1
    key, val = (t.strip() for t in line.split("="))
    assert capsys.readouterr().err == (
        f"error[hw]: hw line 3: {key} must be an integer, not '{val}'\n")


def test_sim_rejects_source_level_easm(tmp_path, capsys):
    easm = tmp_path / "loop.easm"
    easm.write_text(".n 16\n.mod q0 97\n.dram x 4\n.dram y 4\n"
                    "$i = loop 0, 2\nr0 = load @x[$i]\nstore r0, @y[$i]\n"
                    "endloop\n")
    assert main(["sim", str(easm)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[sim]:") and "not machine-level" in err
    easm.write_text(".n 16\n.mod q0 97\n.dram x 2\n"
                    "r0 = load @x[5]\nstore r0, @x[0]\n")
    for cmd in ("sim", "exec"):
        assert main([cmd, str(easm)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{cmd}]: line 4:") and "range" in err


def test_sim_rejects_truncated_binary(src, tmp_path, capsys):
    ebin = tmp_path / "p.ebin"
    assert main(["compile", str(src), "-o", str(ebin)]) == 0
    blob = ebin.read_bytes()
    for cut in (len(blob) - 1, 40, 20, 8):
        ebin.write_bytes(blob[:cut])
        assert main(["sim", str(ebin)]) == 1
        assert capsys.readouterr().err.startswith("error[parse]:")


@pytest.fixture(scope="module")
def desk_ebin(tmp_path_factory):
    wp = WorkloadParams(n=1024, levels=4, dnum=2)
    path = tmp_path_factory.mktemp("fuzz") / "ks.ebin"
    return assemble_binary(compile_program(gen_keyswitch(wp))), path


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_sim_survives_one_corrupt_byte(desk_ebin, data):
    blob, path = desk_ebin
    at = data.draw(st.integers(32, len(blob) - 1), label="offset")
    bad = bytearray(blob)
    bad[at] = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(bytes(bad))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["sim", str(path)])
    assert code == 0 or (code == 1 and "error[" in err.getvalue())


TINY = ".n 8\n.mod q0 17\n.dram x 2\n.dram y 1\n"


def tiny_image(**layout):
    from effact.poly import make_poly
    from effact.rns import make_modulus
    img = blank_image(parse_ir(TINY))
    m = make_modulus(17, 8)
    img.dram["x"] = [make_poly(m, [k + 1] * 8, **layout) for k in range(2)]
    return save_image(img, 8)


@pytest.mark.parametrize("body,layout,what", [
    ("%b = mmul %a, %a, q0", {}, "cannot MontMult nm by nm"),
    ("%b = ntt %a, q0", {"domain": "ntt", "order": "bit-reversed"},
     "forward NTT expects natural coefficient order"),
])
def test_exec_kernel_contract_is_tagged(tmp_path, capsys, body, layout,
                                        what):
    prog, mem = tmp_path / "p.eir", tmp_path / "in.emem"
    prog.write_text(TINY + f"%a = load @x[0]\n{body}\nstore %b, @y[0]\n")
    mem.write_bytes(tiny_image(**layout))
    assert main(["exec", str(prog), "--image", str(mem)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[exec]:") and what in err


def edit_manifest(blob: bytes, edit) -> bytes:
    (mlen,) = struct.unpack("<I", blob[8:12])
    manifest = json.loads(blob[12:12 + mlen])
    edit(manifest)
    text = json.dumps(manifest).encode()
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + mlen:]


def test_exec_rejects_bad_image_manifest(tmp_path, capsys):
    prog, mem = tmp_path / "p.eir", tmp_path / "in.emem"
    prog.write_text(TINY + "%a = load @x[0]\nstore %a, @y[0]\n")
    good = tiny_image(repr=SM)
    mem.write_bytes(good)
    assert main(["exec", str(prog), "--image", str(mem)]) == 0

    def slot(**kw):
        return lambda m: m["symbols"][0]["slots"][0].update(kw)
    edits = [slot(domain="weird"), slot(order="sideways"), slot(repr="xm"),
             slot(q="17"), slot(deferred=0), slot(r_bits=True),
             lambda m: m["symbols"][0]["slots"][0].pop("r_bits"),
             lambda m: m["symbols"][0].update(count=3),
             lambda m: m.update(symbols={}), lambda m: m.pop("n")]
    bad = [edit_manifest(good, e) for e in edits]
    bad += [good[:-1], good + b"\0", good[:10],
            edit_manifest(good, slot(q=16)),
            edit_manifest(good, lambda m: m.update(n=0))]
    for blob in bad:
        mem.write_bytes(blob)
        assert main(["exec", str(prog), "--image", str(mem)]) == 1
        assert capsys.readouterr().err.startswith("error[image]:")


def test_exec_rejects_an_image_of_another_ring_degree(tmp_path, capsys):
    # an n = 8 image for an n = 16 program: no result image is written,
    # which no `exec --image` would load
    prog, mem, out = (tmp_path / name
                      for name in ("p.eir", "in.emem", "out.emem"))
    prog.write_text(TINY.replace(".n 8", ".n 16") + "%a = load @x[0]\n"
                    "%b = load @x[1]\n%m = mmul %a, %b, q0\n"
                    "store %m, @y[0]\n")
    mem.write_bytes(tiny_image(repr=SM))
    assert main(["exec", str(prog), "--image", str(mem),
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error[exec]: @x[0] has ring degree 8, not 16\n"
    assert not out.exists()


def test_bconv_of_many_sources_compiles_and_executes(tmp_path):
    from effact.poly import (RnsPoly, bconv_merged, make_bconv_tables,
                             make_poly, ntt_inv)
    from effact.rns import RnsBasis, make_modulus_chain
    n, src_count = 8, 34
    src = RnsBasis(tuple(make_modulus_chain(n, src_count, 58)))
    dst = RnsBasis(tuple(make_modulus_chain(n, 2, 59)))
    text = [f".n {n}"]
    text += [f".mod s{j} {m.q}" for j, m in enumerate(src)]
    text += [f".mod p{k} {m.q}" for k, m in enumerate(dst)]
    text += [f".dram x {src_count}", ".dram y 2"]
    for j in range(src_count):
        text += [f"%x{j} = load @x[{j}]", f"%d{j} = intt.defer %x{j}, s{j}"]
    regs = " ".join(f"%d{j}" for j in range(src_count))
    mods = " ".join(f"s{j}" for j in range(src_count))
    text.append(f"%y0 %y1 = bconv {regs} : {mods} -> p0 p1")
    text += ["store %y0, @y[0]", "store %y1, @y[1]"]
    prog = tmp_path / "bc.eir"
    prog.write_text("\n".join(text) + "\n")
    img = blank_image(parse_ir(prog.read_text()))
    img.dram["x"] = [make_poly(m, [(7 * j + i) % m.q for i in range(n)],
                               domain="ntt", order="bit-reversed", repr=SM)
                     for j, m in enumerate(src)]
    mem = tmp_path / "in.emem"
    mem.write_bytes(save_image(img, n))
    want = bconv_merged(ntt_inv(RnsPoly(src, img.dram["x"]), True),
                        make_bconv_tables(src, dst))
    easm = tmp_path / "bc.easm"
    assert main(["compile", str(prog), "-o", str(easm)]) == 0
    for form in (prog, easm):
        out = tmp_path / f"{form.suffix[1:]}.emem"
        assert main(["exec", str(form), "--image", str(mem),
                     "-o", str(out)]) == 0
        got = load_image(out.read_bytes()).dram["y"]
        assert [p.to_ints() for p in got] == \
            [p.to_ints() for p in want.limbs]


@pytest.fixture(scope="module")
def tiny_exec(tmp_path_factory):
    d = tmp_path_factory.mktemp("image_fuzz")
    prog, mem = d / "p.eir", d / "in.emem"
    prog.write_text(TINY + "%a = load @x[0]\n%b = load @x[1]\n"
                    "%m = mmul %a, %b, q0\nstore %m, @y[0]\n")
    return str(prog), mem, tiny_image(repr=SM)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_exec_survives_one_corrupt_image_byte(tiny_exec, data):
    prog, path, blob = tiny_exec
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    bad = bytearray(blob)
    bad[at] = data.draw(st.sampled_from((0x00, 0x7b, 0xff))
                        | st.integers(0, 255), label="byte")
    path.write_bytes(bytes(bad))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["exec", prog, "--image", str(path)])
    assert code == 0 or (code == 1 and "error[" in err.getvalue())


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


SKIPPED_B = ".n 16\n.mod q0 97\n.dram x 4\n.dram y 4\n" \
            "$a = sli 0\nskipz $a, 1\n$b = sli 1\n"
BAD_SCALAR_FLOW = {
    "skipped definition read by sadd": (
        SKIPPED_B + "$c = sadd $b, 1\n", "line 8: scalar $b is not defined"),
    "skipped definition read by an address": (
        SKIPPED_B + "%v = load @x[$b]\nstore %v, @y[0]\n",
        "line 8: scalar $b is not defined"),
    "negative skip": (
        ".n 16\n.mod q0 97\n.dram x 4\n$a = sli 0\nskipz $a, -1\n",
        "line 5: skipz cannot skip -1"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALAR_FLOW))
def test_bad_scalar_flow_is_a_tagged_error(case, tmp_path, capsys):
    text, msg = BAD_SCALAR_FLOW[case]
    path = tmp_path / "bad.eir"
    path.write_text(text)
    for cmd, stage in (("exec", "exec"), ("compile", "compile"),
                       ("sim", "compile"), ("sweep", "sweep"),
                       ("analyze", "analyze")):
        with time_limit(20):    # a negative skip once looped forever
            assert main([cmd, str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error[{stage}]: {msg}")


SKIPPED_REGISTER = ".n 16\n.mod q0 97\n.dram x 2\n.dram y 1\n$s = sli 0\n" \
    "%x = load @x[0]\nskipz $s, 1\n%x.1 = load @x[1]\n" \
    "%y = mmul %x.1, %x.1, q0\nstore %y, @y[0]\n"


def test_register_read_after_a_skipped_definition_is_a_tagged_error(
        tmp_path, capsys):
    # the compiler once took the skipped `%x.1` for the renamed `%x`
    from effact.poly import make_poly, ntt_fwd
    from effact.rns import make_modulus
    path, mem = tmp_path / "skip.eir", tmp_path / "in.emem"
    path.write_text(SKIPPED_REGISTER)
    img = blank_image(parse_ir(SKIPPED_REGISTER))
    m = make_modulus(97, 16)
    img.dram["x"] = [ntt_fwd(make_poly(m, [k + 1] * 16, repr=SM))
                     for k in range(2)]
    mem.write_bytes(save_image(img, 16))
    assert main(["compile", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error[compile]: line 9: register %x.1 read before write")
    assert main(["exec", str(path), "--image", str(mem)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[exec]") and \
        "register %x.1 read before write" in err


LOOP_PROGRAM = """\
.n 16
.mod q0 97
.dram x 4
.dram y 8
$b = sli 1
$i = loop 0, 3
$k = smul $i, 2
$a = sadd $k, $b
%v = load @x[$i]
%w = mmul %v, %v, q0
skipz $i, 1
store %w, @y[$a]
endloop
"""


@pytest.fixture(scope="module")
def eir_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "loop.eir"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(at=st.integers(0, len(LOOP_PROGRAM) - 1), byte=st.integers(9, 126))
# the substitutions that crashed or hung before the scalar subset had one
# interpreter: a self-referencing sadd, a negative skip, and a non-UTF-8 byte
@example(at=LOOP_PROGRAM.index("$k, $b"), byte=ord("a"))
@example(at=LOOP_PROGRAM.index(" 1\nstore"), byte=ord("-"))
@example(at=LOOP_PROGRAM.index("97"), byte=0xFF)
def test_compile_and_exec_survive_one_substituted_byte(eir_path, at, byte):
    bad = bytearray(LOOP_PROGRAM.encode())
    bad[at] = byte
    eir_path.write_bytes(bytes(bad))
    for cmd in ("compile", "exec", "sim", "sweep", "analyze"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), time_limit(20):
            code = main([cmd, str(eir_path)])
        assert code == 0 or (code == 1 and err.getvalue().startswith("error["))


SMALL_HW = """\
slots = 8
banks = 4
fifo_depth = 4
fu.mmul = 2
lat.ntt = 12
streaming = on
"""


@pytest.fixture(scope="module")
def hw_fuzz(tmp_path_factory):
    d = tmp_path_factory.mktemp("hw_fuzz")
    (d / "prog.eir").write_text(SMALL)
    return str(d / "prog.eir"), d / "small.hw"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(at=st.integers(0, len(SMALL_HW) - 1), byte=st.integers(0, 255))
def test_compile_and_sim_survive_one_substituted_hw_byte(hw_fuzz, at, byte):
    prog, hw = hw_fuzz
    bad = bytearray(SMALL_HW.encode())
    bad[at] = byte
    hw.write_bytes(bytes(bad))
    for cmd in ("compile", "sim"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), time_limit(20):
            code = main([cmd, prog, "--hw", str(hw)])
        assert code == 0 or (code in (1, 2) and
                             re.match(r"error\[\w+\]: ", err.getvalue()))


def test_slots_and_streaming_flags_set_the_hardware(tmp_path, capsys):
    eir, easm = tmp_path / "k.eir", tmp_path / "k256.easm"
    assert main(["gen", "keyswitch", "--N", "1024", "--L", "24",
                 "--dnum", "4", "-o", str(eir)]) == 0
    assert main(["sim", str(eir), "--slots", "256"]) == 0
    assert main(["compile", str(eir), "--slots", "256", "--no-streaming",
                 "-o", str(easm)]) == 0
    capsys.readouterr()
    # compile and sim use one description, for source and machine input
    reports = []
    for path in (eir, easm):
        assert main(["sim", str(path), "--slots", "256", "--no-streaming",
                     "--json", "-"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    for path in (eir, easm):
        assert main(["sim", str(path), "--slots", "1"]) == 1
        assert capsys.readouterr().err.startswith("error[flags]:")


def test_sweep_csv_monotone(tmp_path, capsys):
    eir = tmp_path / "ks.eir"
    assert main(["gen", "keyswitch", "--N", "256", "--L", "3",
                 "--dnum", "2", "-o", str(eir)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(eir), "--slots", "16,32,64",
                 "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("slots,cycles")
    cycles = [int(r.split(",")[1]) for r in rows[1:]]
    assert cycles == sorted(cycles, reverse=True) or \
        all(a >= b for a, b in zip(cycles, cycles[1:]))


def test_gen_and_analyze(tmp_path, capsys):
    eir = tmp_path / "ks.eir"
    assert main(["gen", "keyswitch", "--N", "256", "--L", "3",
                 "--dnum", "2", "-o", str(eir)]) == 0
    assert main(["analyze", str(eir), "--json", "-"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sum(out["counts"].values()) > 0
    assert out["counts"]["BC_MULT"] > 0
    assert main(["analyze", str(eir)]) == 0
    assert "MULT" in capsys.readouterr().out


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.eir", tmp_path / "b.eir"
    assert main(["gen", "random", "--seed", "5", "-o", str(a)]) == 0
    assert main(["gen", "random", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    parse_ir(a.read_text())
    assert main(["gen", "random", "--seed", "6", "-o", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_gen_invalid_params(capsys):
    assert main(["gen", "bootstrap", "--N", "256", "--L", "3",
                 "--dnum", "2"]) == 1   # no level budget
    assert "error[gen]" in capsys.readouterr().err
    # a HELR batch below one once wrote `intt.defer None`
    for batch in ("0", "-1"):
        assert main(["gen", "helr", "--batch", batch]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error[gen]: HELR batch")
        assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["compile", "{src}", "-o", "{out}.easm"],
    ["compile", "{src}", "-o", "{out}.ebin"],
    ["compile", "{src}", "--json", "{out}"],
    ["exec", "{src}", "--image", "{mem}", "-o", "{out}"],
    ["gen", "random", "-o", "{out}"],
    ["sweep", "{src}", "--slots", "8", "-o", "{out}"],
    ["sim", "{src}", "--json", "{out}"],
    ["analyze", "{src}", "--json", "{out}"],
], ids=lambda a: " ".join(x for x in a if not x.startswith("{")))
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_an_unwritable_output_is_a_tagged_error(args, where, src, mem,
                                                tmp_path, capsys):
    if where == "missing directory":
        out = tmp_path / "missing" / "x"
    else:
        out = tmp_path / "d"
        for suffix in ("", ".easm", ".ebin"):
            (tmp_path / f"d{suffix}").mkdir()
    assert main([a.format(src=src, mem=mem, out=out) for a in args]) == 1
    assert capsys.readouterr().err.startswith("error[write]: ")


# forms the operand table rejects at parse; each once compiled to code
# that meant something else, or crashed the compiler or the assembler
HEAD = ".n 16\n.mod q0 97\n.dram x 2\n.dram y 2\n"
BAD_OPERANDS = {
    # a copy of x[0] forwarded past the store that overwrites x[0]
    "copy from an address": (
        "%a = copy @x[0]\n%b = load @x[1]\nstore %b, @x[0]\n"
        "store %a, @y[0]\n", "line 5: copy source must be a register"),
    "copy to an address": (
        "%a = load @x[0]\n@y[0] = copy %a\n",
        "line 6: copy result must be a register"),
    "load into a scalar": (
        "$s = load @x[0]\nstore $s, @y[0]\n",
        "line 5: load result must be a register"),
    "immediate multiplicand": (
        "%a = load @x[0]\n%b = mmul %a, 5, q0\nstore %b, @y[0]\n",
        "line 6: mmul last source must be"),
    "constant as the first multiplicand": (
        ".const c q0 5 sm\n%a = load @x[0]\n%b = mmul !c, %a, q0\n"
        "store %b, @y[0]\n", "line 7: mmul source must be"),
    "bconv into an address": (
        ".mod q1 193\n%a = load @x[0]\n@y[0] = bconv %a : q0 -> q1\n",
        "line 7: bconv takes registers only"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPERANDS))
def test_bad_operand_kinds_are_tagged_errors(case, tmp_path, capsys):
    body, msg = BAD_OPERANDS[case]
    path = tmp_path / "bad.eir"
    path.write_text(HEAD + body)
    for argv in (["compile", str(path)],
                 ["compile", str(path), "-o", str(tmp_path / "bad.easm")],
                 ["compile", str(path), "-o", str(tmp_path / "bad.ebin")],
                 ["sim", str(path)], ["exec", str(path)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error[parse]: {msg}")
    assert not (tmp_path / "bad.easm").exists()
    assert not (tmp_path / "bad.ebin").exists()


# digits that str.isdigit accepts but int() does not: each once ended in
# an untagged int() message or a traceback
NON_ASCII_DIGITS = {
    "register index": ("r\u00b2 = load @x[1]\nstore r\u00b2, @y[0]\n",
                       "line 5: unrecognized operand 'r\u00b2'"),
    "address term": ("r0 = load @x[\u00b2]\nstore r0, @y[0]\n",
                     "line 5: bad address term '\u00b2'"),
    "immediate": ("r0 = load @x[0]\nr1 = auto r0, \u00b2, q0\n"
                  "store r1, @y[0]\n",
                  "line 6: unrecognized operand '\u00b2'"),
}


@pytest.mark.parametrize("case", sorted(NON_ASCII_DIGITS))
def test_non_ascii_digits_are_tagged_errors(case, tmp_path, capsys):
    body, msg = NON_ASCII_DIGITS[case]
    path = tmp_path / "bad.easm"
    path.write_text(HEAD + body)
    for cmd in ("sim", "exec", "compile"):
        assert main([cmd, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[parse]: {msg}") and \
            "Traceback" not in err


def many_symbols(count: int) -> str:
    """A program over `count` DRAM symbols that reads the last one."""
    return (".n 16\n.mod q0 97\n"
            + "".join(f".dram s{k} 1\n" for k in range(count))
            + f"%a = load @s{count - 1}[0]\nstore %a, @s0[0]\n")


def many_moduli(count: int) -> str:
    """A program over `count` moduli that multiplies by the last one."""
    return (".n 16\n" + "".join(f".mod q{k} {m.q}\n" for k, m in
                                enumerate(make_modulus_chain(16, count, 30)))
            + ".dram x 1\n.dram y 1\n%a = load @x[0]\n"
            f"%b = mmul %a, %a, q{count - 1}\nstore %b, @y[0]\n")


@pytest.mark.parametrize("text,msg", [
    (".n 16\n.mod q0 97\n.dram sixteen_bytes_xx 2\n"
     "%a = load @sixteen_bytes_xx[0]\nstore %a, @sixteen_bytes_xx[1]\n",
     "name 'sixteen_bytes_xx' too long for binary encoding"),
    (".n 16\n.mod q0 97\n.dram x 2\n.dram y 40000\n%a = load @x[0]\n"
     "store %a, @y[39999]\n", "address @y[39999] not encodable"),
    (many_symbols(65), "address @s64[0] not encodable"),
    (many_moduli(256), "256 moduli not encodable (at most 255)")],
    ids=["long symbol", "far address", "65 symbols", "256 moduli"])
def test_unencodable_binary_is_a_tagged_error(text, msg, tmp_path, capsys):
    path = tmp_path / "prog.eir"
    path.write_text(text)
    # the text form holds it; the 128-bit binary word does not
    assert main(["compile", str(path), "-o", str(tmp_path / "a.easm")]) == 0
    assert main(["compile", str(path), "-o", str(tmp_path / "a.ebin")]) == 1
    assert capsys.readouterr().err.startswith(f"error[assemble]: {msg}")
    assert not (tmp_path / "a.ebin").exists()


@pytest.mark.parametrize("text", [many_symbols(64), many_moduli(255)],
                         ids=["64 symbols", "255 moduli"])
def test_binary_limits_are_inclusive(text):
    machine = compile_program(text, HardwareDescription())
    again = disassemble_binary(assemble_binary(machine))
    assert assemble_text(again) == assemble_text(machine)


def test_register_index_beyond_21_bits_is_not_encodable():
    text = (".n 16\n.mod q0 97\n.dram x 1\n.dram y 1\n"
            "{r} = load @x[0]\nstore {r}, @y[0]\n")
    top = parse_ir(text.format(r="r2097151"))
    again = disassemble_binary(assemble_binary(top))
    assert assemble_text(again) == assemble_text(top)
    for r in ("r2097152", "f2097152", "r3000000"):
        with pytest.raises(IrError,
                           match=f"operand {r} not encodable"):
            assemble_binary(parse_ir(text.format(r=r)))
