"""Benchmark IR generators and the instruction-mix analyzer.

Generators emit textual IR for the stack's benchmark kernels: hybrid
key-switching (mirroring the homomorphic-op layer instruction for
instruction), hoisted rotations, a logistic-regression gradient step, and
a bootstrapping skeleton.  The skeleton is count-faithful: its phase
structure (CtS, EvalMod, StC), dependence shape, and instruction mix
follow published full-scale proportions, but its numerics are only
guaranteed to execute cleanly at desk scale, not to bootstrap.

One emitter (``_emit_divide``) writes the divide-and-round of both the
key-switch mod-down, which drops the extension base P, and the rescale,
which drops the one prime q_l; it mirrors ``ckks._divide_round``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ckks
from .ir import OPCODES, Program, blank_image
from .rns import Modulus, make_modulus, prev_prime, sm_encode

# full-scale bootstrapping mix targets used to calibrate the skeleton:
# multiplies attributed to base conversion as a share of all multiplies,
# and the NTT share of all instructions
_BC_MULT_SHARE = 0.527
_NTT_SHARE = 0.065
# the instruction-mix categories, in the order reports list them
CATEGORIES = ("MULT", "ADD", "BC_MULT", "BC_ADD", "NTT", "AUTO",
              "LOAD/STORE", "OTHERS")
# the category of each unit class of `ir.OPCODES`, without and with `bc`
_CATEGORY = {"mmul": ("MULT", "BC_MULT"), "madd": ("ADD", "BC_ADD"),
             "ntt": ("NTT", "NTT"), "auto": ("AUTO", "AUTO"),
             "dram": ("LOAD/STORE", "LOAD/STORE"), None: ("OTHERS", "OTHERS")}
_MIX = {op: _CATEGORY[o.unit] for op, o in OPCODES.items()}


@dataclass(frozen=True)
class WorkloadParams(ckks._DigitLayout):
    n: int = 1024
    levels: int = 4
    dnum: int = 2
    level: int | None = None        # working level; defaults to levels
    l_cts: int = 0
    l_evalmod: int = 0
    l_stc: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two")
        if self.dnum < 1 or self.levels < 0:
            raise ValueError("bad level structure")
        if self.l < 0 or self.l > self.levels:
            raise ValueError("working level out of range")
        if self.l_boot > self.levels:
            raise ValueError("bootstrap level budget exceeds the chain")

    @property
    def l(self) -> int:
        return self.levels if self.level is None else self.level

    @property
    def l_boot(self) -> int:
        return self.l_cts + self.l_evalmod + self.l_stc

    @property
    def desk_scale(self) -> bool:
        return self.n <= 4096 and self.levels <= 8 and self.dnum in (2, 4)


def fullscale_params() -> WorkloadParams:
    """Full-scale bootstrapping parameter point used for mix analysis."""
    return WorkloadParams(n=2 ** 16, levels=24, dnum=4,
                          l_cts=4, l_evalmod=8, l_stc=3)


_params_cache: dict = {}


def ckks_params(wp: WorkloadParams) -> ckks.CkksParams:
    if not wp.desk_scale:
        raise ValueError("homomorphic-op parameters exist only at desk scale")
    key = (wp.n, wp.levels, wp.dnum)
    if key not in _params_cache:
        _params_cache[key] = ckks.make_params(wp.n, wp.levels, wp.dnum)
    return _params_cache[key]


_big_chain_cache: dict = {}


def _moduli_for(wp: WorkloadParams) -> tuple[tuple[Modulus, ...],
                                             tuple[Modulus, ...]]:
    """Chain and extension-base moduli backing the generated IR."""
    if wp.desk_scale:
        ck = ckks_params(wp)
        return ck.chain, ck.pchain
    key = (wp.n, wp.levels, wp.alpha)
    if key not in _big_chain_cache:
        # analysis-only chain: distinct primes, no NTT-readiness required;
        # the extension base is alpha primes
        primes = []
        q = 2 ** 54
        while len(primes) < wp.levels + 1 + wp.alpha:
            q = prev_prime(q)
            primes.append(q)
        chain = tuple(make_modulus(q, wp.n) for q in primes[:wp.levels + 1])
        pch = tuple(make_modulus(q, wp.n) for q in primes[wp.levels + 1:])
        _big_chain_cache[key] = (chain, pch)
    return _big_chain_cache[key]


# ---------------------------------------------------------------------------
# IR text builder with analytic category counters (`instruction_mix`'s)

class _Builder:
    def __init__(self, wp: WorkloadParams):
        self.wp = wp
        self.chain, self.pchain = _moduli_for(wp)
        self.header = [f".n {wp.n}"]
        for k, m in enumerate(self.chain):
            self.header.append(f".mod q{k} {m.q} {m.r_bits}")
        for j, m in enumerate(self.pchain):
            self.header.append(f".mod p{j} {m.q} {m.r_bits}")
        self.body: list[str] = []
        self.counts = dict.fromkeys(CATEGORIES, 0)
        self._consts: dict = {}
        self._syms: dict[str, int] = {}
        self._reg = 0

    # -- naming ------------------------------------------------------------
    def modulus(self, name: str) -> Modulus:
        if name.startswith("q"):
            return self.chain[int(name[1:])]
        return self.pchain[int(name[1:])]

    def ext_names(self, l: int) -> list[str]:
        return [f"q{k}" for k in range(l + 1)] + \
            [f"p{j}" for j in range(len(self.pchain))]

    def fresh(self) -> str:
        self._reg += 1
        return f"%v{self._reg}"

    def dram(self, sym: str, count: int):
        if self._syms.get(sym, -1) < count:
            self._syms[sym] = count

    def const(self, mod: str, value: int, rep: str = "sm",
              absorb: bool = False) -> str:
        key = (mod, value, rep, absorb)
        if key not in self._consts:
            name = f"c{len(self._consts)}"
            suffix = " absorb" if absorb else ""
            self.header.append(f".const {name} {mod} {value} {rep}{suffix}")
            self._consts[key] = name
        return "!" + self._consts[key]

    # -- instruction emitters ----------------------------------------------
    def _vec(self, op: str, operands: str, suffix="") -> str:
        r = self.fresh()
        self.body.append(f"{r} = {op}{suffix} {operands}")
        self.counts[_MIX[op][0]] += 1
        return r

    def load(self, sym: str, idx: int) -> str:
        return self._vec("load", f"@{sym}[{idx}]")

    def store(self, reg: str, sym: str, idx: int):
        self.body.append(f"store {reg}, @{sym}[{idx}]")
        self.counts[_MIX["store"][0]] += 1

    def mmul(self, a: str, b: str, mod: str) -> str:
        return self._vec("mmul", f"{a}, {b}, {mod}")

    def mmad(self, a: str, b: str, mod: str) -> str:
        return self._vec("mmad", f"{a}, {b}, {mod}")

    def ntt(self, a: str, mod: str) -> str:
        return self._vec("ntt", f"{a}, {mod}")

    def intt_defer(self, a: str, mod: str) -> str:
        return self._vec("intt", f"{a}, {mod}", suffix=".defer")

    def auto(self, a: str, step: int, mod: str) -> str:
        return self._vec("auto", f"{a}, {step}, {mod}")

    def bconv(self, srcs: list[str], src_mods: list[str],
              dst_mods: list[str]) -> list[str]:
        dests = [self.fresh() for _ in dst_mods]
        self.body.append(f"{' '.join(dests)} = bconv {' '.join(srcs)} : "
                         f"{' '.join(src_mods)} -> {' '.join(dst_mods)}")
        nc, nb = len(src_mods), len(dst_mods)
        # lowered footprint of the conversion micro-ops
        self.counts["BC_MULT"] += nc + nc * nb
        self.counts["BC_ADD"] += (nc - 1) * nb
        return dests

    def text(self) -> str:
        syms = [f".dram {sym} {count}" for sym, count in self._syms.items()]
        return "\n".join(self.header + syms + self.body) + "\n"


# ---------------------------------------------------------------------------
# key-switch and mod-down emitters (instruction-exact vs the he-op layer)

def _load_evk(b: _Builder, wp: WorkloadParams, prefix_b: str,
              prefix_a: str) -> tuple[dict, dict]:
    """Load all digit-key limbs once (hoisted across key switches)."""
    nlimbs = wp.levels + 1 + len(b.pchain)
    ekb, eka = {}, {}
    for d in range(wp.dnum):
        if not wp.digit_indices(d, wp.levels):
            continue
        b.dram(f"{prefix_b}{d}", nlimbs)
        b.dram(f"{prefix_a}{d}", nlimbs)
        for s in range(nlimbs):
            ekb[(d, s)] = b.load(f"{prefix_b}{d}", s)
            eka[(d, s)] = b.load(f"{prefix_a}{d}", s)
    return ekb, eka


def _emit_raise(b: _Builder, wp: WorkloadParams, d2regs: list[str],
                l: int) -> dict[int, list[str]]:
    """Per-digit mod-raise: merged iNTT + base conversion + forward NTT."""
    K = l + 1 + len(b.pchain)
    raised = {}
    for d in range(wp.dnum):
        digit = wp.digit_indices(d, l)
        if not digit:
            continue
        defer = [b.intt_defer(d2regs[i], f"q{i}") for i in digit]
        rest = [k for k in range(l + 1) if k not in digit]
        dst_mods = [f"q{k}" for k in rest] + \
            [f"p{j}" for j in range(len(b.pchain))]
        conv = b.bconv(defer, [f"q{i}" for i in digit], dst_mods)
        cn = [b.ntt(c, m) for c, m in zip(conv, dst_mods)]
        it = iter(cn)
        raised[d] = [d2regs[k] if k in digit else next(it)
                     for k in range(K)]
    return raised


def _emit_divide(b: _Builder, comp: list[str], keep: list[str],
                 drop: list[str]) -> list[str]:
    """Divide limbs over keep + drop by the product of the drop primes with
    round-to-nearest, leaving limbs over keep; mirrors ckks._divide_round
    instruction for instruction (mod-down drops P, rescale drops q_l)."""
    d_prod = math.prod(b.modulus(name).q for name in drop)
    biased = []
    for x, name in zip(comp, keep + drop):
        m = b.modulus(name)
        hb = b.const(name, sm_encode(d_prod // 2 % m.q, m))
        biased.append(b.mmad(x, hb, name))
    defer = [b.intt_defer(x, name)
             for x, name in zip(biased[len(keep):], drop)]
    conv = b.bconv(defer, drop, keep)
    outs = []
    for x, c, name in zip(biased, conv, keep):
        m = b.modulus(name)
        rem = b.ntt(c, name)
        neg = b.mmul(rem, b.const(name, sm_encode(m.q - 1, m)), name)
        diff = b.mmad(x, neg, name)
        dinv = b.const(name, sm_encode(pow(d_prod, -1, m.q), m))
        outs.append(b.mmul(diff, dinv, name))
    return outs


def _emit_keyswitch(b: _Builder, wp: WorkloadParams, d2regs: list[str],
                    l: int, ekb: dict, eka: dict) -> tuple[list, list]:
    """Hybrid key switch: raise the digits, then apply the key."""
    raised = _emit_raise(b, wp, d2regs, l)
    return _emit_apply_key(b, wp, raised, l, ekb, eka)


def _emit_apply_key(b: _Builder, wp: WorkloadParams, raised: dict,
                    l: int, ekb: dict, eka: dict,
                    auto_step: int | None = None) -> tuple[list, list]:
    """Key multiply and divide of the raised digits; with auto_step they
    are rotated first (hoisted-rotation form)."""
    K = l + 1 + len(b.pchain)
    ext = b.ext_names(l)
    acc0 = [None] * K
    acc1 = [None] * K
    for k in range(K):
        name = ext[k]
        s = wp.key_limb(k, l)
        for d in sorted(raised):
            r = raised[d][k]
            if auto_step is not None:
                r = b.auto(r, auto_step, name)
            t0 = b.mmul(r, ekb[(d, s)], name)
            t1 = b.mmul(r, eka[(d, s)], name)
            acc0[k] = t0 if acc0[k] is None else b.mmad(acc0[k], t0, name)
            acc1[k] = t1 if acc1[k] is None else b.mmad(acc1[k], t1, name)
    keep, drop = ext[:l + 1], ext[l + 1:]
    return (_emit_divide(b, acc0, keep, drop),
            _emit_divide(b, acc1, keep, drop))


def _emit_rescale(b: _Builder, c0: list[str], c1: list[str],
                  l: int) -> tuple[list[str], list[str]]:
    """Rescale both components: drop limb l, divide by its prime."""
    keep, drop = [f"q{k}" for k in range(l)], [f"q{l}"]
    return _emit_divide(b, c0, keep, drop), _emit_divide(b, c1, keep, drop)


# ---------------------------------------------------------------------------
# generators

def gen_keyswitch(wp: WorkloadParams) -> str:
    """Key switch of a d2 component at the working level; compiled and
    executed it is bit-identical to the he-op layer's key_switch."""
    b = _Builder(wp)
    l = wp.l
    b.dram("d2", l + 1)
    b.dram("out0", l + 1)
    b.dram("out1", l + 1)
    d2 = [b.load("d2", i) for i in range(l + 1)]
    ekb, eka = _load_evk(b, wp, "ekb", "eka")
    out0, out1 = _emit_keyswitch(b, wp, d2, l, ekb, eka)
    for k in range(l + 1):
        b.store(out0[k], "out0", k)
        b.store(out1[k], "out1", k)
    return b.text()


def gen_hoisted_rotations(wp: WorkloadParams, steps=(1, 2)) -> str:
    """Rotations sharing a single mod-raise decomposition.

    The input ciphertext lives in ct0/ct1; rotation keys for step s in
    rkb{s}/rka{s}.  Rotation s writes rot{s}c0 / rot{s}c1.
    """
    if not steps:
        raise ValueError("need at least one rotation step")
    b = _Builder(wp)
    l = wp.l
    b.dram("ct0", l + 1)
    b.dram("ct1", l + 1)
    c0 = [b.load("ct0", i) for i in range(l + 1)]
    c1 = [b.load("ct1", i) for i in range(l + 1)]
    raised = _emit_raise(b, wp, c1, l)      # one decomposition for all steps
    for s in steps:
        ekb, eka = _load_evk(b, wp, f"rkb{s}_", f"rka{s}_")
        ks0, ks1 = _emit_apply_key(b, wp, raised, l, ekb, eka, auto_step=s)
        b.dram(f"rot{s}c0", l + 1)
        b.dram(f"rot{s}c1", l + 1)
        for k in range(l + 1):
            name = f"q{k}"
            rc0 = b.mmad(b.auto(c0[k], s, name), ks0[k], name)
            b.store(rc0, f"rot{s}c0", k)
            b.store(ks1[k], f"rot{s}c1", k)
    return b.text()


def gen_helr_iteration(wp: WorkloadParams, batch: int = 8) -> str:
    """Gradient-step trace: MAC-dominated plaintext multiplies over a
    weight ciphertext, one rotation for the partial-sum reduction."""
    if batch < 1:
        raise ValueError(f"HELR batch must be at least 1, not {batch}")
    b = _Builder(wp)
    l = wp.l
    b.dram("ct0", l + 1)
    b.dram("ct1", l + 1)
    b.dram("acc0", l + 1)
    b.dram("acc1", l + 1)
    b.dram("pt", (l + 1) * batch)
    c0 = [b.load("ct0", i) for i in range(l + 1)]
    c1 = [b.load("ct1", i) for i in range(l + 1)]
    pts = [b.load("pt", i) for i in range((l + 1) * batch)]
    acc0 = [None] * (l + 1)
    acc1 = [None] * (l + 1)
    for i in range(batch):
        for k in range(l + 1):
            name = f"q{k}"
            pt = pts[i * (l + 1) + k]
            m0 = b.mmul(c0[k], pt, name)
            m1 = b.mmul(c1[k], pt, name)
            acc0[k] = m0 if acc0[k] is None else b.mmad(acc0[k], m0, name)
            acc1[k] = m1 if acc1[k] is None else b.mmad(acc1[k], m1, name)
    # partial-sum rotation of the accumulated gradient
    ekb, eka = _load_evk(b, wp, "rkb1_", "rka1_")
    raised = _emit_raise(b, wp, acc1, l)
    ks0, ks1 = _emit_apply_key(b, wp, raised, l, ekb, eka, auto_step=1)
    for k in range(l + 1):
        name = f"q{k}"
        g0 = b.mmad(b.auto(acc0[k], 1, name), ks0[k], name)
        b.store(g0, "acc0", k)
        b.store(ks1[k], "acc1", k)
    return b.text()


def gen_bootstrap_skeleton(wp: WorkloadParams) -> str:
    """Count-faithful bootstrapping skeleton: CtS, EvalMod, StC.

    Phase structure, key switching, rotations, and rescales are emitted in
    full; the surrounding plaintext multiply/accumulate volume (matrix
    diagonals in CtS/StC, polynomial evaluation in EvalMod) is calibrated
    so the instruction mix reproduces the published full-scale shares.
    """
    if wp.l_boot < 1:
        raise ValueError("bootstrap needs a level budget")
    b = _Builder(wp)
    lvl = wp.levels
    b.dram("ct0", wp.levels + 1)
    b.dram("ct1", wp.levels + 1)
    nbatch = wp.levels + 1
    b.dram("pt", nbatch)
    pts = [b.load("pt", i) for i in range(nbatch)]
    c0 = [b.load("ct0", i) for i in range(wp.levels + 1)]
    c1 = [b.load("ct1", i) for i in range(wp.levels + 1)]
    ekb, eka = _load_evk(b, wp, "ekb", "eka")

    def rotate_phase(steps):
        nonlocal lvl, c0, c1
        c0, c1 = c0[:lvl + 1], c1[:lvl + 1]
        raised = _emit_raise(b, wp, c1, lvl)
        rot = []
        for s in steps:
            ks0, ks1 = _emit_apply_key(b, wp, raised, lvl, ekb, eka,
                                       auto_step=s)
            r0 = [b.mmad(b.auto(c0[k], s, f"q{k}"), ks0[k], f"q{k}")
                  for k in range(lvl + 1)]
            rot.append((r0, ks1))
        # plaintext-diagonal combine of the rotated copies
        n0, n1 = list(c0), list(c1)
        for r0, r1 in rot:
            for k in range(lvl + 1):
                name = f"q{k}"
                n0[k] = b.mmad(n0[k], b.mmul(r0[k], pts[k], name), name)
                n1[k] = b.mmad(n1[k], b.mmul(r1[k], pts[k], name), name)
        c0, c1 = _emit_rescale(b, n0, n1, lvl)
        lvl -= 1

    def evalmod_phase():
        nonlocal lvl, c0, c1
        c0, c1 = c0[:lvl + 1], c1[:lvl + 1]
        d2 = [b.mmul(c1[k], c1[k], f"q{k}") for k in range(lvl + 1)]
        ks0, ks1 = _emit_keyswitch(b, wp, d2, lvl, ekb, eka)
        n0, n1 = [], []
        for k in range(lvl + 1):
            name = f"q{k}"
            d0 = b.mmul(c0[k], c0[k], name)
            d1 = b.mmad(b.mmul(c0[k], c1[k], name),
                        b.mmul(c1[k], c0[k], name), name)
            n0.append(b.mmad(d0, ks0[k], name))
            n1.append(b.mmad(d1, ks1[k], name))
        c0, c1 = _emit_rescale(b, n0, n1, lvl)
        lvl -= 1

    for _ in range(wp.l_cts):
        rotate_phase((1, 2))
    for _ in range(wp.l_evalmod):
        evalmod_phase()
    for _ in range(wp.l_stc):
        rotate_phase((1, 2))
    for k in range(lvl + 1):
        b.store(c0[k], "ct0", k)
        b.store(c1[k], "ct1", k)

    _calibrate(b, c0, c1, pts, lvl)
    return b.text()


def _calibrate(b: _Builder, c0, c1, pts, lvl):
    """Append plaintext multiply/accumulate volume so the overall mix hits
    the published BConv-multiply and NTT shares."""
    cnt = b.counts
    mult_all = cnt["MULT"] + cnt["BC_MULT"]
    want_mult = int(cnt["BC_MULT"] / _BC_MULT_SHARE) - mult_all
    pm = max(0, want_mult)
    want_total = int(cnt["NTT"] / _NTT_SHARE)
    pa = max(0, want_total - sum(cnt.values()) - pm)
    acc = {k: c0[k] for k in range(lvl + 1)}
    for j in range(pm):
        k = j % (lvl + 1)
        name = f"q{k}"
        src = (c0 if j & 1 else c1)[k]
        m = b.mmul(src, pts[k], name)
        if pa > 0:
            acc[k] = b.mmad(acc[k], m, name)
            pa -= 1
    for j in range(pa):
        k = j % (lvl + 1)
        acc[k] = b.mmad(acc[k], acc[k], f"q{k}")


# ---------------------------------------------------------------------------
# instruction-mix analysis

def instruction_mix(p: Program) -> dict[str, int]:
    """Category histogram of operations, a `mac` counting as a multiply and
    an add; conversion-attributed ops rely on provenance tags placed by
    the lowering pass."""
    counts = dict.fromkeys(CATEGORIES, 0)
    for i in p.instrs:
        bc = bool(i.meta.get("bc"))
        counts[_MIX.get(i.op, _CATEGORY[None])[bc]] += 1
        if i.op == "mac":
            counts[_CATEGORY["madd"][bc]] += 1
    return counts


def mix_fractions(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {k: 0.0 for k in counts}
    return {k: v / total for k, v in counts.items()}


# ---------------------------------------------------------------------------
# memory-image builders (desk scale)

def keyswitch_image(prog: Program, wp: WorkloadParams, d2, evk):
    img = blank_image(prog)
    for i, limb in enumerate(d2.limbs):
        img.dram["d2"][i] = limb
    _fill_keys(img, wp, evk, "ekb", "eka")
    return img


def _fill_keys(img, wp: WorkloadParams, evk, prefix_b: str, prefix_a: str):
    for d in range(wp.dnum):
        if f"{prefix_b}{d}" not in img.dram:
            continue
        kb, ka = evk.digits[d]
        for s, (lb, la) in enumerate(zip(kb.limbs, ka.limbs)):
            img.dram[f"{prefix_b}{d}"][s] = lb
            img.dram[f"{prefix_a}{d}"][s] = la
    return img
