"""Kernel model and seeded request streams for the three workloads.

A kernel is a projective loop nest: loop bounds L_i and arrays, each
indexed by a subset (its support) of the loops. The first array is the
accumulated output (mode "u", an Update: read then written), the rest
are read (mode "r"). The benchmark builds every kernel itself, so it
knows each kernel's structure without asking the program.
"""

import math
import random

LOOP_NAMES = ["i", "j", "k", "l", "n", "q"]


class Kernel:
    def __init__(self, loops, bounds, arrays, preset=None):
        self.loops = list(loops)
        self.bounds = list(bounds)
        # arrays: list of (name, support tuple, mode) in statement order
        self.arrays = [(n, tuple(s), m) for n, s, m in arrays]
        self.preset = preset

    @property
    def d(self):
        return len(self.loops)

    def supports(self):
        return [s for _, s, _ in self.arrays]

    def shape_key(self):
        return (self.d, tuple(sorted((m, s) for _, s, m in self.arrays)))

    def with_bounds(self, bounds):
        return Kernel(self.loops, bounds, self.arrays, self.preset)

    def dsl(self):
        head = ", ".join("%s = %d" % (n, b) for n, b in zip(self.loops, self.bounds))

        def ref(a):
            name, sup, _ = a
            return "%s[%s]" % (name, ",".join(self.loops[i] for i in sup))

        out, rest = self.arrays[0], self.arrays[1:]
        op = "+=" if out[2] == "u" else "="
        return "%s : %s %s %s" % (head, ref(out), op, " * ".join(ref(a) for a in rest))

    def array_sizes(self):
        return [math.prod(self.bounds[i] for i in s) for s in self.supports()]

    def iterations(self):
        return math.prod(self.bounds)

    def refs_per_point(self):
        return sum(2 if m == "u" else 1 for _, _, m in self.arrays)


def _preset(name, loops, bounds, arrays):
    return Kernel(loops, bounds, [(n, s, m) for n, s, m in arrays], preset=name)


# The program's stock kernels, written out from their published
# definitions (loop order, supports, modes and default bounds).
PRESETS = [
    _preset("matmul", ["x1", "x2", "x3"], [64, 64, 64],
            [("C", (0, 2), "u"), ("A", (0, 1), "r"), ("B", (1, 2), "r")]),
    _preset("matvec", ["x1", "x2", "x3"], [64, 64, 1],
            [("C", (0, 2), "u"), ("A", (0, 1), "r"), ("B", (1, 2), "r")]),
    _preset("tensor_contraction", ["x1", "x2", "x3", "x4"], [16, 16, 16, 16],
            [("A1", (0, 2, 3), "u"), ("A2", (0, 1), "r"), ("A3", (1, 2, 3), "r")]),
    _preset("pointwise_conv", ["b", "c", "k", "w", "h"], [8, 16, 32, 14, 14],
            [("Out", (0, 2, 3, 4), "u"), ("Image", (0, 1, 3, 4), "r"), ("Filter", (1, 2), "r")]),
    _preset("fully_connected", ["b", "i", "o"], [32, 64, 64],
            [("Out", (0, 2), "u"), ("In", (0, 1), "r"), ("W", (1, 2), "r")]),
    _preset("nbody", ["x1", "x2"], [256, 256],
            [("A1", (0,), "u"), ("A2", (0,), "r"), ("A3", (1,), "r")]),
    _preset("outer_product", ["x1", "x2"], [128, 128],
            [("C", (0, 1), "u"), ("a", (0,), "r"), ("b", (1,), "r")]),
    _preset("batched_matmul", ["b", "x1", "x2", "x3"], [8, 32, 32, 32],
            [("C", (0, 1, 3), "u"), ("A", (0, 1, 2), "r"), ("B", (0, 2, 3), "r")]),
    _preset("mttkrp", ["i", "j", "k", "r"], [32, 32, 32, 16],
            [("M", (0, 3), "u"), ("T", (0, 1, 2), "r"), ("B", (1, 3), "r"), ("C", (2, 3), "r")]),
    _preset("three_body", ["x1", "x2", "x3"], [64, 64, 64],
            [("A1", (0,), "u"), ("A2", (0,), "r"), ("A3", (1,), "r"), ("A4", (2,), "r")]),
]
PRESET = {k.preset: k for k in PRESETS}

# Presets whose simulation requests take 30-200 ms (at most 65536
# iterations); the larger presets take 0.4-3 s a request, and a few of
# those would make up most of a run.
SIM_PRESETS = ["matvec", "nbody", "outer_product"]

# The one operation that fails on every run, whatever the seed: the
# shared-cache tile of these inputs exceeds M (shared_tile_over_budget).
# It opens every round of the workload it belongs to.
FAULT_WARM = (Kernel(["i", "j"], [4096, 32],
                     [("F", (0,), "u"), ("P", (0,), "r"), ("Q", (1,), "r")]), 8192)
FAULT_COLD = (Kernel(["i", "j", "k", "l"], [224, 4096, 50000, 7],
                     [("A0", (3,), "u"), ("A1", (1, 3), "r"), ("A2", (0, 2, 3), "r")]), 32768)


# The program sums the words of all arrays in a native int (63 bits),
# which wraps past this, and its lower bound then drops below the
# compulsory traffic: such kernels are left out until that is fixed.
MAX_TOTAL_WORDS = 2 ** 62


def fits(kernel):
    return sum(kernel.array_sizes()) < MAX_TOTAL_WORDS


def log_uniform(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def draw_bound(rng):
    """Tiny ML-style dimension (1-7) or a large one (10^3 - 5*10^4)."""
    if rng.random() < 0.5:
        return rng.randint(1, 7)
    return log_uniform(rng, 1000, 50000)


def draw_m(rng):
    return log_uniform(rng, 64, 65536)


def random_kernel(rng, seen_shapes, d=None):
    """A random projective nest (d loops, or 2-5) whose shape is not in
    [seen_shapes]."""
    fixed_d = d
    while True:
        d = fixed_d or rng.randint(2, 5)
        n = rng.randint(2, min(4, 2 ** d - 1))
        supports = set()
        while len(supports) < n:
            size = rng.randint(1, d)
            supports.add(tuple(sorted(rng.sample(range(d), size))))
        supports = list(supports)
        rng.shuffle(supports)
        if set().union(*supports) != set(range(d)):
            continue
        arrays = [("A%d" % j, s, "u" if j == 0 else "r") for j, s in enumerate(supports)]
        k = Kernel(LOOP_NAMES[:d], [draw_bound(rng) for _ in range(d)], arrays)
        if k.shape_key() in seen_shapes or not fits(k):
            continue
        seen_shapes.add(k.shape_key())
        return k


def draw_procs(rng, kernel):
    """P as a product of per-loop factors f_i <= L_i, so P always factors:
    factors of 1-3 on two loops. With larger P the grid enumeration, and
    with it the spread between runs, grows fast."""
    p = 1
    for i in rng.sample(range(kernel.d), 2):
        p *= rng.randint(1, min(kernel.bounds[i], 3))
    return p


def analyze_req(kernel, m, shared=True, schedules=None, policies=None, by_name=False):
    r = {"v": 2, "op": "analyze", "kernel": kernel.preset if by_name else kernel.dsl(),
         "m": m, "shared": shared}
    if schedules:
        r["schedules"] = schedules
        r["policies"] = policies
    return r


class Op:
    """One request of a stream with the kernel it was built from."""

    __slots__ = ("req", "kernel")

    def __init__(self, req, kernel):
        self.req = req
        self.kernel = kernel


# cold-shapes operations in every block of 20, in a seeded order:
# 80% analyze (shared tile on), 15% partition, 5% compile. A fixed mix
# per block keeps the share of each operation the same in every run.
COLD_BLOCK = ["analyze"] * 16 + ["partition"] * 3 + ["compile"]


# Loop counts of the partition requests, each once per cycle in a seeded
# order. A partition of 4 loops costs about half one of 5 and several
# times one of 2 or 3, and the 90th percentile of cold-shapes falls among
# the partitions; with d drawn at random (and the shapes of 2 and 3 loops
# running out during a run) the mix of 4 and 5, and with it that
# percentile, would move from seed to seed.
PARTITION_DS = [4, 5]


def cold_shapes(seed):
    """Every kernel a shape not seen before in this run."""
    rng = random.Random(seed)
    seen = set()
    part_ds = cycles(rng, PARTITION_DS)
    while True:
        block = list(COLD_BLOCK)
        rng.shuffle(block)
        for kind in block:
            k = random_kernel(rng, seen, next(part_ds) if kind == "partition" else None)
            m = draw_m(rng)
            if kind == "analyze":
                yield Op(analyze_req(k, m), k)
            elif kind == "partition":
                yield Op({"v": 2, "op": "partition", "kernel": k.dsl(),
                          "p": draw_procs(rng, k), "m": m}, k)
            else:
                yield Op({"v": 2, "op": "compile", "kernel": k.dsl()}, k)


def new_size(rng, base, seen):
    """The preset shape [base] with bounds and an M not drawn before."""
    while True:
        k = base.with_bounds([draw_bound(rng) for _ in base.bounds])
        m = draw_m(rng)
        key = (base.preset, tuple(k.bounds), m)
        if key not in seen and fits(k):
            seen.add(key)
            return k, m


# The distinct preset shapes but one (matvec is matmul's shape), an odd
# number: their request costs differ by several times, and with an even
# number of equally frequent shapes the median would fall between two
# of them, where the smallest slowdown moves it the most.
CYCLE_PRESETS = [k for k in PRESETS if k.preset != "matvec"]


def cycles(rng, items):
    """Every item once per cycle, in a seeded order: the mix is the same
    whatever the seed."""
    while True:
        yield from rng.sample(items, len(items))


def preset_cycles(rng):
    return cycles(rng, CYCLE_PRESETS)


def warm_sizes(seed):
    """analyze on a preset shape with new bounds and a new M each time."""
    rng = random.Random(seed)
    seen = set()
    for base in preset_cycles(rng):
        k, m = new_size(rng, base, seen)
        yield Op(analyze_req(k, m), k)


# A simulation's cost grows with M, and a run makes only a few dozen
# simulations of each preset: M is drawn log-uniformly within each of
# these equal log-width strata in turn (a seeded order per cycle), so
# that every run sees the same spread of M.
SIM_M_STRATA = 8


def strata_m(rng, lo, hi, n):
    """M log-uniform in [lo, hi], from each of n equal log-width strata once
    per cycle of n draws."""
    step = (math.log(hi) - math.log(lo)) / n
    while True:
        for k in rng.sample(range(n), n):
            base = math.log(lo) + k * step
            yield int(round(math.exp(rng.uniform(base, base + step))))


# A cycle of the simulation caller. matvec, outer_product and nbody cost
# about 25, 85 and 210 ms a request; with outer_product twice per cycle
# the median falls inside its class and the 90th percentile inside
# nbody's, not in a gap between two classes where the smallest shift of
# the mix would move them most.
SIM_CYCLE = ["matvec", "outer_product", "outer_product", "nbody"]


def sim_stream(seed):
    """analyze with simulations: preset kernels by name, SIM_CYCLE in a
    seeded order per cycle, optimal and untiled schedules, LRU and OPT."""
    rng = random.Random(seed * 2 + 1)
    ms = {name: strata_m(rng, 64, 1024, SIM_M_STRATA) for name in SIM_PRESETS}
    while True:
        for name in rng.sample(SIM_CYCLE, len(SIM_CYCLE)):
            yield Op(analyze_req(PRESET[name], next(ms[name]), shared=False,
                                 schedules=["optimal", "untiled"], policies=["lru", "opt"],
                                 by_name=True),
                     PRESET[name])


def analytic_stream(seed):
    """Cheap analyze requests (no simulation, no shared tile)."""
    rng = random.Random(seed * 2 + 2)
    seen = set()
    for base in preset_cycles(rng):
        k, m = new_size(rng, base, seen)
        yield Op(analyze_req(k, m, shared=False), k)
