"""Checks of every response against the benchmark's own computations.

Each check returns a list of problems (empty when the response is
right). `check_analyze` also says whether the response shows the one
named fault, shared_tile_over_budget, which is counted as a failed
operation instead of as a wrong answer.
"""

import math
import re
from fractions import Fraction

import oracle

TOL = 1e-6
MAX_INT = 2 ** 62 - 1


def _ceil_div(a, b):
    return -(-a // b)


def _tile_problems(what, kernel, tile, limit):
    """1 <= b_i <= L_i and every per-array footprint <= limit."""
    out = []
    if len(tile) != kernel.d or any(not (1 <= b <= L) for b, L in zip(tile, kernel.bounds)):
        out.append("%s %s outside 1..L=%s" % (what, tile, kernel.bounds))
    elif max(oracle.footprints(kernel.supports(), tile)) > limit:
        out.append("%s %s has an array footprint over %d" % (what, tile, limit))
    return out


def check_analyze(kernel, m, rep, sims_expected):
    """Returns (problems, over_budget)."""
    p = []
    sups = kernel.supports()
    L = kernel.bounds
    if rep["bounds"] != L or rep["m"] != m:
        return ["echoed bounds/m %s/%s, sent %s/%s" % (rep["bounds"], rep["m"], L, m)], False

    # beta_i = ln L_i / ln M
    beta = oracle.beta_of(L, m)
    rbeta = [Fraction(b) for b in rep["beta"]]
    if any(abs(float(rb) - b) > TOL for rb, b in zip(rbeta, beta)):
        p.append("beta %s != ln L/ln M %s" % (rep["beta"], beta))

    # lambda feasible for (5.1); sum = lp_value = k_hat = our optimum
    lam = [Fraction(x) for x in rep["lambda"]]
    if any(x < 0 or x > rb for x, rb in zip(lam, rbeta)):
        p.append("lambda %s outside 0..beta" % rep["lambda"])
    if any(sum(lam[i] for i in s) > 1 for s in sups):
        p.append("lambda %s violates an array constraint" % rep["lambda"])
    k_hat = Fraction(rep["k_hat"])
    if not (sum(lam) == Fraction(rep["lp_value"]) == k_hat):
        p.append("sum(lambda), lp_value, k_hat differ: %s %s %s" % (
            sum(lam), rep["lp_value"], rep["k_hat"]))
    ours = oracle.lp_value(sups, beta)
    if abs(float(k_hat) - ours) > TOL:
        p.append("k_hat %s != LP optimum %.9f" % (rep["k_hat"], ours))

    # the per-array tile: feasible and maximal
    tile = rep["tile"]
    tp = _tile_problems("tile", kernel, tile, m)
    p += tp
    if not tp:
        for i in range(kernel.d):
            if tile[i] < L[i]:
                grown = tile[:i] + [tile[i] + 1] + tile[i + 1:]
                if max(oracle.footprints(sups, grown)) <= m:
                    p.append("tile %s is not maximal in loop %d" % (tile, i))
        if rep["tile_volume"] != math.prod(tile):
            p.append("tile_volume %s != %d" % (rep["tile_volume"], math.prod(tile)))
        if rep["tile_max_footprint"] != max(oracle.footprints(sups, tile)):
            p.append("tile_max_footprint %s wrong" % rep["tile_max_footprint"])
        # the tile count is a native int that saturates at max_int
        tiles = min(math.prod(_ceil_div(l, b) for l, b in zip(L, tile)), MAX_INT)
        if rep["tiles"] != tiles:
            p.append("tiles %s != %d" % (rep["tiles"], tiles))

    # the shared-cache tile: total footprint <= M
    over = False
    shared = rep.get("tile_shared")
    if shared is not None:
        if len(shared) != kernel.d or any(not (1 <= b <= l) for b, l in zip(shared, L)):
            p.append("tile_shared %s outside 1..L" % shared)
        elif sum(oracle.footprints(sups, shared)) > m:
            over = True

    # lower bounds
    total_data = sum(kernel.array_sizes())
    if rep["lower_bound_words"] < total_data * (1 - 1e-12):
        p.append("lower_bound_words %s < sum |A_j| = %d" % (rep["lower_bound_words"], total_data))
    paper = math.exp(sum(math.log(l) for l in L) + (1 - float(k_hat)) * math.log(m))
    if abs(rep["lower_bound_words_paper"] - paper) > 1e-9 * paper:
        p.append("lower_bound_words_paper %s != prod L * M^(1-k_hat) = %s" % (
            rep["lower_bound_words_paper"], paper))

    sims = rep["simulations"]
    if len(sims) != sims_expected:
        p.append("%d simulations, expected %d" % (len(sims), sims_expected))
    accesses = kernel.iterations() * kernel.refs_per_point()
    for s in sims:
        if s["accesses"] != accesses:
            p.append("%s/%s: accesses %d != %d" % (s["schedule"], s["policy"], s["accesses"], accesses))
        if s["hits"] + s["misses"] != s["accesses"]:
            p.append("%s/%s: hits + misses != accesses" % (s["schedule"], s["policy"]))
        if s["words_moved"] != s["misses"] + s["writebacks"]:
            p.append("%s/%s: words_moved != misses + writebacks" % (s["schedule"], s["policy"]))
        if s["words_moved"] < total_data:
            p.append("%s/%s: words_moved < sum |A_j|" % (s["schedule"], s["policy"]))
        tiled = schedule_tile(s["schedule"])
        if tiled is not None and tiled != "untiled":
            p += _tile_problems("simulated tile", kernel, tiled, 10 ** 30)
    by_sched = {}
    for s in sims:
        by_sched.setdefault(s["schedule"], {})[s["policy"]] = s
    for sched, pol in by_sched.items():
        if "OPT" in pol and "LRU" in pol and pol["OPT"]["misses"] > pol["LRU"]["misses"]:
            p.append("%s: OPT misses > LRU misses" % sched)
    if shared is not None and sims:
        if not any(schedule_tile(s["schedule"]) == shared for s in sims):
            p.append("no simulation ran the shared tile %s" % shared)
    return p, over


_TILED = re.compile(r"^tiled ([0-9x]+) over ")


def schedule_tile(desc):
    """The tile of a simulated schedule, "untiled", or None if unknown."""
    if desc.startswith("untiled"):
        return "untiled"
    mt = _TILED.match(desc)
    return [int(x) for x in mt.group(1).split("x")] if mt else None


def check_lru_sample(kernel, m, sim):
    tile = schedule_tile(sim["schedule"])
    got = (sim["accesses"], sim["hits"], sim["misses"], sim["writebacks"])
    want = oracle.lru_sim(kernel, None if tile == "untiled" else tile, m)
    if got != want:
        return ["LRU %s on %s at m=%d: program %s, reference %s" % (
            sim["schedule"], kernel.preset, m, got, want)]
    return []


def check_partition(kernel, p_req, m_local, sol):
    p = []
    L, sups = kernel.bounds, kernel.supports()
    grid, block, tile = sol["grid"], sol["block"], sol["tile"]
    if sol["p"] != p_req or sol["m_local"] != m_local:
        p.append("echoed p/m_local wrong")
    if math.prod(grid) != p_req or any(not (1 <= g <= l) for g, l in zip(grid, L)):
        p.append("grid %s does not factor P=%d within %s" % (grid, p_req, L))
        return p
    if block != [_ceil_div(l, g) for l, g in zip(L, grid)]:
        p.append("block %s != ceil(L/grid)" % block)
        return p
    gather = sum(oracle.footprints(sups, block))
    if int(sol["gather_words"]) != gather:
        p.append("gather_words %s != %d" % (sol["gather_words"], gather))
    if any(not (1 <= t <= b) for t, b in zip(tile, block)):
        p.append("tile %s outside 1..block %s" % (tile, block))
        return p
    if max(oracle.footprints(sups, tile)) > m_local:
        p.append("tile %s has an array footprint over m_local=%d" % (tile, m_local))
    words = math.prod(_ceil_div(b, t) for b, t in zip(block, tile)) * sum(
        oracle.footprints(sups, tile))
    if int(sol["words"]) != words:
        p.append("words %s != tiles x footprint = %d" % (sol["words"], words))
    regime = "memory_independent" if words == gather else "memory_dependent"
    if sol["regime"] != regime:
        p.append("regime %s, expected %s" % (sol["regime"], regime))
    # ceil(log2 x) = bit length of x - 1, for the fibre of processors
    # that share one block of array j
    messages = sum((math.prod(g for i, g in enumerate(grid) if i not in s) - 1).bit_length()
                   for s in sups)
    if sol["messages"] != messages:
        p.append("messages %s != %d" % (sol["messages"], messages))
    if sol["net"] == "words" and Fraction(sol["time"]) != int(sol["words"]):
        p.append("time %s != words under the words model" % sol["time"])
    return p


def check_plan(kernel, plan):
    p = []
    if plan["d"] != kernel.d:
        p.append("plan d=%s, kernel d=%d" % (plan["d"], kernel.d))
    if {tuple(s) for s in plan["supports"]} != set(kernel.supports()):
        p.append("plan supports %s != %s" % (plan["supports"], kernel.supports()))
    return p
