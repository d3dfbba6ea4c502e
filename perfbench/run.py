#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against a real `tilings serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the program, boots the
daemon on a Unix socket, drives it from this one process over closed-loop
connections for S seconds, checks every response against the
benchmark's own computations (oracle.py, checks.py), and prints one JSON
line: correct, attempted, failed and the metrics, every time put at a
nominal host speed by a reference job timed alongside the load. With --trace 1 it also
replays fixed prefixes of the request streams in-process on one domain
(tracer/pb_trace.ml) and reports the per-layer metrics instead. See
README.md for the workloads, the metrics and reference figures.
"""

import argparse
import gc
import itertools
import json
import os
import random
import re
import selectors
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import kernels  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ["cold-shapes", "warm-sizes", "sim-mixed"]
WORK = ".perfbench_work"
TARGETS = ["bin/tilings.exe", "perfbench/tracer/pb_trace.exe", "perfbench/tracer/pb_ref.exe"]
TILINGS, TRACER, REFJOB = [os.path.join("_build", "default", t) for t in TARGETS]

# The load pauses every PAUSE_EVERY seconds, once no request is
# outstanding, for a reference sample, the one-shot processes owed so far
# and, every BOOT_EVERY-th pause, a daemon boot: process timings and the
# host speed are then sampled evenly over the whole run.
PAUSE_EVERY, BOOT_EVERY, MIN_BOOTS = 0.25, 2, 21  # setup_s: median of at least 21 boots
# Think times of the two sim-mixed callers (simulations, analyses). When
# a simulation's batch ends, the waiting analysis then runs alone, the
# next simulation starts, and the next analysis arrives while it runs:
# every analysis waits behind one whole simulation, as a timing race
# between the two callers would otherwise decide run by run.
THINK_S = (0.005, 0.015)
ROUND = {"cold-shapes": 40, "warm-sizes": 100}  # seeded requests per round
# Seeded requests hit by shared_tile_over_budget are left out of the
# operation count (see Sources.note); more than this share of the seeded
# requests that ask for a shared tile, plus a few, makes the run incorrect.
LEFT_OUT_SHARE, LEFT_OUT_SLACK = 0.01, 3
# One-shot processes: per round begun on cold-shapes and warm-sizes
# (whole rounds keep the failed share fixed), per pause on sim-mixed.
ONESHOTS_PER_ROUND = {"cold-shapes": 3, "warm-sizes": 2}
ONESHOTS_PER_PAUSE = 2
# The daemon's peak RSS is read once it has sent this many replies: a
# fixed amount of work, so that a slower daemon does not look leaner.
RSS_AFTER = {"cold-shapes": 1500, "warm-sizes": 6000, "sim-mixed": 300}
LRU_SAMPLE = 3  # simulations per run re-counted by the reference LRU
LRU_SAMPLE_MAX_ACCESSES = 300_000
# Fixed prefixes of the request streams the traced run replays, so its
# work counts repeat exactly for a seed.
REPLAY = {"cold": 500, "warm": 1500, "sim": 16, "sim_analytic": 400}
# The reference job (tracer/pb_ref.ml): REF_JOBS jobs make one sample,
# taken at every pause. Times are reported at the host speed where a
# sample takes REF_NOMINAL_S on average.
REF_JOBS, REF_NOMINAL_S = 8, 0.02
PROBE = b'{"v":2,"id":"probe","op":"analyze","kernel":"matmul","m":64,"deadline_ms":0}\n'


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def percentile(xs, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))]


# ---------------------------------------------------------------- build


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "tilings.ml"))):
        log("not a source checkout (no dune-project, bin/tilings.ml); run from its root")
        sys.exit(2)
    r = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("build failed")
        sys.exit(1)


# ---------------------------------------------------------------- streams


class Request:
    """A generated operation with its id and wire line. `left_out` is set
    when the program's reply shows the named fault on a seeded request."""

    __slots__ = ("line", "req", "kernel", "fault", "left_out", "think")

    def __init__(self, op, rid, fault=False):
        self.req = dict(op.req, id=rid)
        self.line = (json.dumps(self.req, separators=(",", ":")) + "\n").encode()
        self.kernel = op.kernel
        self.fault = fault
        self.left_out = False
        self.think = 0.0  # seconds the caller waits before sending it


SEEDED = {"cold-shapes": kernels.cold_shapes, "warm-sizes": kernels.warm_sizes,
          "sims": kernels.sim_stream, "analytic": kernels.analytic_stream}
FAULT = {"cold-shapes": kernels.FAULT_COLD, "warm-sizes": kernels.FAULT_WARM}


def seeded(stream, seed, prefix):
    """The seeded requests of a stream, numbered in the order drawn."""
    for n, op in enumerate(SEEDED[stream](seed)):
        yield Request(op, "%s%d" % (prefix, n))


def fault_request(workload, n):
    """The fixed request that shows the named fault, opening round n."""
    k, m = FAULT[workload]
    return Request(kernels.Op(kernels.analyze_req(k, m), k), "f%d" % n, fault=True)


def rounds(workload, seed):
    """cold-shapes and warm-sizes as the traced run replays them: rounds
    of [the fault request, ROUND seeded requests]."""
    reqs = seeded(workload, seed, "r")
    for n in itertools.count():
        yield fault_request(workload, n)
        yield from itertools.islice(reqs, ROUND[workload])


_TILE_SHARED = re.compile(rb'"tile_shared":\[([0-9,]+)\]')


def shared_over_budget(req, line):
    """Whether the reply gives a shared-cache tile whose total footprint
    exceeds M (shared_tile_over_budget). Cheap enough for the timed loop;
    the full check after the run confirms it."""
    mt = _TILE_SHARED.search(line)
    if mt is None:
        return False
    tile = [int(x) for x in mt.group(1).split(b",")]
    return (len(tile) == req.kernel.d
            and sum(oracle.footprints(req.kernel.supports(), tile)) > req.req["m"])


# ---------------------------------------------------------------- daemon


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def readline(self, timeout=60):
        self.sock.settimeout(timeout)
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 16)
            if not data:
                raise EOFError("daemon closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        self.sock.settimeout(None)
        return line


class Daemon:
    def __init__(self, tag, extra):
        self.path = os.path.join(WORK, tag + ".sock")
        self.err = open(os.path.join(WORK, tag + ".err"), "wb")
        self.proc = subprocess.Popen([TILINGS, "serve", "--socket", self.path] + extra,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        self.conns = []

    def connect(self, timeout=60):
        give_up = now() + timeout
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                c = Conn(s)
                self.conns.append(c)
                return c
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if self.proc.poll() is not None or now() > give_up:
                    raise RuntimeError("daemon did not come up (see %s)" % self.err.name)
                time.sleep(0.0002)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        log("no VmHWM: the daemon has exited")
        return 0.0

    def stop(self):
        for c in self.conns:
            c.sock.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def boot(workload, n):
    """Spawn a daemon (for warm-sizes after compiling every preset's plan)
    and wait for its first reply. Returns the daemon and the seconds."""
    t0 = now()
    extra = []
    if workload == "warm-sizes":
        plans = os.path.join(WORK, "plans%d.json" % n)
        subprocess.run([TILINGS, "compile", "--all", "-o", plans], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        extra = ["--plans", plans]
    d = Daemon("d%d" % n, extra)
    try:
        c = d.connect()
        c.sock.sendall(PROBE)
        reply = json.loads(c.readline())
    except Exception:
        d.stop()
        raise
    dt = now() - t0
    if reply.get("id") != "probe" or reply.get("error", {}).get("code") != "deadline_exceeded":
        d.stop()
        raise RuntimeError("unexpected probe reply %s" % reply)
    return d, dt


class RefJob:
    """The reference job process; sample() runs one sample and gives its
    seconds, as the job measured them."""

    def __init__(self):
        self.proc = subprocess.Popen([REFJOB], stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def sample(self):
        self.proc.stdin.write(b"%d\n" % REF_JOBS)
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Record:
    __slots__ = ("op", "sent", "done", "line")

    def __init__(self, op, sent, done, line):
        self.op, self.sent, self.done, self.line = op, sent, done, line

    def latency_ms(self):
        return (self.done - self.sent) * 1e3


def closed_loop(conns, sources, on_reply, pacer):
    """Each connection sends its next request only after the reply to the
    last one, and after the request's think time. sources[i]() gives the
    next Request for connection i, or None; on_reply(record) is called
    after every reply. Once pacer.due(), the connections send nothing more
    until every reply is in; then pacer.run() pauses the load and they go
    on."""
    sel = selectors.DefaultSelector()
    outstanding = {}
    thinking = {}  # connection -> (when to send, request)
    held = []
    records = []
    gc.disable()  # no collector pauses inside the timed loop

    def send(i, op):
        sent = now()
        try:
            conns[i].sock.sendall(op.line)
            outstanding[i] = (op, sent)
            return
        except OSError as e:  # the daemon is gone: a failed operation
            log("send failed: %s" % e)
            records.append(Record(op, sent, None, None))
        sel.unregister(conns[i].sock)

    def next_op(i):
        op = sources[i]()
        if op is None:
            sel.unregister(conns[i].sock)
        elif op.think > 0:
            thinking[i] = (now() + op.think, op)
        else:
            send(i, op)

    for i, c in enumerate(conns):
        c.sock.setblocking(True)
        sel.register(c.sock, selectors.EVENT_READ, i)
        next_op(i)
    while True:
        for i, (at, op) in list(thinking.items()):
            if now() >= at:
                del thinking[i]
                send(i, op)
        if held and not outstanding and not thinking:
            pacer.run()
            for i in held:
                next_op(i)
            held.clear()
            continue
        if not outstanding and not thinking:
            break
        wait = min([at for at, _ in thinking.values()], default=now() + 20) - now()
        ready = sel.select(timeout=max(wait, 0))
        if not ready and not thinking:
            log("no reply for 20 s; counting %d outstanding requests as failed" % len(outstanding))
            break
        for key, _ in ready:
            i = key.data
            c = conns[i]
            try:
                data = c.sock.recv(1 << 16)
            except OSError:
                data = b""
            t = now()
            if not data:
                op, sent = outstanding.pop(i)
                records.append(Record(op, sent, None, None))
                sel.unregister(c.sock)
                continue
            c.buf += data
            if b"\n" in c.buf and i in outstanding:
                line, c.buf = c.buf.split(b"\n", 1)
                op, sent = outstanding.pop(i)
                records.append(Record(op, sent, t, line))
                on_reply(records[-1])
                if pacer.due():
                    held.append(i)
                else:
                    next_op(i)
    gc.enable()
    for op, sent in outstanding.values():
        records.append(Record(op, sent, None, None))
    sel.close()
    return records


class Pacer:
    """The pauses of the load (see PAUSE_EVERY). Keeps the reference
    samples and the seconds the pauses took, which are not load."""

    def __init__(self, ref, pause):
        self.ref = ref
        self.pause = pause
        self.samples = []
        self.spent = 0.0
        self.next_at = now() + PAUSE_EVERY

    def due(self):
        return now() >= self.next_at

    def run(self):
        t0 = now()
        self.samples.append(self.ref.sample())
        self.pause(len(self.samples))
        t1 = now()
        self.spent += t1 - t0
        self.next_at = t1 + PAUSE_EVERY


class Sources:
    """The request sources of the callers, drawn from the seeded
    generators as they are needed. cold-shapes and warm-sizes have one
    caller, whose latencies then depend on its own requests alone, fed in
    whole rounds of [the fault request, ROUND seeded requests]; sim-mixed
    has two callers on two connections. No source starts a round or a
    request after `stop_at`."""

    def __init__(self, workload, seed):
        self.stop_at = 0.0
        self.by_rounds = workload != "sim-mixed"
        self.left_out = 0
        self.rounds = 0
        if self.by_rounds:
            self.workload = workload
            self.reqs = seeded(workload, seed, "r")
            self.todo = 0  # seeded requests still to send in this round
            self.fns = [self.feed]
        else:
            its = [seeded("sims", seed, "s"), seeded("analytic", seed, "a")]

            def caller(it, think):
                def fn():
                    if now() >= self.stop_at:
                        return None
                    op = next(it)
                    op.think = think
                    return op
                return fn

            self.fns = [caller(it, t) for it, t in zip(its, THINK_S)]

    def feed(self):
        # a round once begun is always finished
        if self.todo == 0:
            if now() >= self.stop_at:
                return None
            self.todo = ROUND[self.workload]
            self.rounds += 1
            return fault_request(self.workload, self.rounds - 1)
        self.todo -= 1
        return next(self.reqs)

    def note(self, record):
        """A seeded request hit by the named fault fails on some seeds
        only, so it cannot count as a failed operation (the failed share
        must be the same in every run): it is left out of the operation
        count, and the round draws one more seeded request in its place."""
        op = record.op
        if not op.fault and op.req["op"] == "analyze" and shared_over_budget(op, record.line):
            op.left_out = True
            self.left_out += 1
            if self.by_rounds:
                self.todo += 1


def run_workload(workload, seed, seconds):
    """The measured part of a run: `seconds` of closed-loop load on one
    daemon, with the pauses of PAUSE_EVERY."""
    res = {"records": [], "setups": [], "walls": [], "oneshot_failed": 0,
           "oneshot_problems": []}
    shots = oneshot_ops(workload, seed)
    ref = RefJob()
    boots = [0]
    daemon = None
    try:
        daemon, dt = boot(workload, 0)
        res["setups"].append(dt)
        conns = [daemon.conns[0]] + ([daemon.connect()] if workload == "sim-mixed" else [])
        src = Sources(workload, seed)
        replies = [0]

        def on_reply(record):
            src.note(record)
            replies[0] += 1
            if replies[0] == RSS_AFTER[workload]:
                res["rss"] = daemon.peak_rss_mb()

        def owed(pauses):
            if src.by_rounds:
                return src.rounds * ONESHOTS_PER_ROUND[workload]
            return max(pauses, 1) * ONESHOTS_PER_PAUSE

        def more_boots(n):
            for _ in range(n):
                boots[0] += 1
                d, dt = boot(workload, boots[0])
                d.stop()
                res["setups"].append(dt)

        def pause(n):
            oneshots(shots, owed(n) - len(res["walls"]), res)
            if n % BOOT_EVERY == 0:
                more_boots(1)

        pacer = Pacer(ref, pause)
        start = now()
        src.stop_at = start + seconds
        res["records"] = closed_loop(conns, src.fns, on_reply, pacer)
        done = [r.done for r in res["records"] if r.done]
        res["busy"] = (max(done) if done else now()) - start - pacer.spent
        oneshots(shots, owed(len(pacer.samples)) - len(res["walls"]), res)
        more_boots(MIN_BOOTS - len(res["setups"]))
        if not pacer.samples:
            pacer.samples.append(ref.sample())
        res["refs"] = pacer.samples
        if "rss" not in res:
            log("only %d replies; peak RSS taken at the end" % replies[0])
            res["rss"] = daemon.peak_rss_mb()
        res["rounds"] = src.rounds
    finally:
        if daemon is not None:
            daemon.stop()
        ref.stop()
    return res


# ---------------------------------------------------------------- one-shot


def oneshot_ops(workload, seed):
    """Kernels for the one-shot processes, in cycles that hold the same
    mix of kernel sizes whatever the seed (their costs differ by several
    times, so a mix that moved with the seed would move the median), with
    an odd number of sizes so that the median falls inside one: random
    kernels of 3, 4 and 5 loops for cold-shapes, the preset shapes with
    new bounds otherwise."""
    rng = random.Random(seed * 7 + 3)
    seen = set()
    while True:
        if workload == "cold-shapes":
            for d in (3, 4, 5):
                yield kernels.random_kernel(rng, seen, d), kernels.draw_m(rng)
            seen.clear()
        else:
            for b in kernels.CYCLE_PRESETS:
                yield kernels.new_size(rng, b, seen)


def oneshots(shots, n, res):
    """Runs n (if positive) `tilings sweep` processes; adds their wall times, failures
    and check problems to res."""
    for k, m in itertools.islice(shots, n):
        t0 = now()
        r = subprocess.run([TILINGS, "sweep", "-k", k.dsl(), "-m", str(m)],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        res["walls"].append((now() - t0) * 1e3)
        if r.returncode != 0:
            res["oneshot_failed"] += 1
            log("one-shot sweep failed (%d): %s" % (r.returncode, r.stderr.decode().strip()))
            continue
        doc = json.loads(r.stdout)
        p, _ = checks.check_analyze(k, m, doc["reports"][0], 0)
        res["oneshot_problems"] += ["one-shot %s m=%d: %s" % (k.dsl(), m, x) for x in p]


# ---------------------------------------------------------------- checks


def check_records(records, seed):
    """Returns (failed, problems, lru_sampled)."""
    failed, problems = 0, []
    sim_candidates = []
    shared_asked = 0
    for r in records:
        op = r.op
        if r.line is None:  # a lost reply is a failure, not a wrong answer
            failed += 1
            continue
        resp = json.loads(r.line)
        if resp.get("id") != op.req["id"]:
            problems.append("reply id %s for request %s" % (resp.get("id"), op.req["id"]))
            continue
        if not resp.get("ok"):
            failed += 1
            log("request %s failed: %s" % (op.req["id"], resp.get("error")))
            continue
        kind = op.req["op"]
        if kind == "analyze":
            scheds = op.req.get("schedules", [])
            rep = resp["report"]
            p, over = checks.check_analyze(op.kernel, op.req["m"], rep,
                                           len(scheds) * len(op.req.get("policies", [])))
            if op.fault:
                failed += over
            elif over != op.left_out:
                p.append("shared tile %s over M=%d: %s, but the timed loop found %s" % (
                    rep["tile_shared"], op.req["m"], over, op.left_out))
            elif over:
                log("request %s: shared tile %s over M=%d, left out" % (
                    op.req["id"], rep["tile_shared"], op.req["m"]))
            if not op.fault and rep.get("tile_shared") is not None:
                shared_asked += 1
            for s in rep["simulations"]:
                if s["policy"] == "LRU" and s["accesses"] <= LRU_SAMPLE_MAX_ACCESSES:
                    sim_candidates.append((op, s))
        elif kind == "partition":
            p = checks.check_partition(op.kernel, op.req["p"], op.req["m"], resp["partition"])
        else:
            p = checks.check_plan(op.kernel, resp["plan"])
        problems += ["%s: %s" % (op.req["id"], x) for x in p]
    left_out = sum(1 for r in records if r.op.left_out)
    if left_out > LEFT_OUT_SHARE * shared_asked + LEFT_OUT_SLACK:
        problems.append("shared_tile_over_budget on %d of %d seeded requests, over %.0f%% + %d" % (
            left_out, shared_asked, 100 * LEFT_OUT_SHARE, LEFT_OUT_SLACK))
    rng = random.Random(seed)
    sample = rng.sample(sim_candidates, min(LRU_SAMPLE, len(sim_candidates)))
    for op, s in sample:
        problems += checks.check_lru_sample(op.kernel, op.req["m"], s)
    return failed, problems, len(sample)


# ---------------------------------------------------------------- traced run


def replay_lines(seed):
    """The fixed prefixes of the three request streams the traced run
    replays: cold-shapes and warm-sizes with their fault requests, and
    sim-mixed with the simulation caller's requests spread evenly among
    the analytic caller's."""
    out = {}
    for seg, wl in (("cold", "cold-shapes"), ("warm", "warm-sizes")):
        out[seg] = list(itertools.islice(rounds(wl, seed), REPLAY[seg]))
    sims = list(itertools.islice(seeded("sims", seed, "s"), REPLAY["sim"]))
    ana = list(itertools.islice(seeded("analytic", seed, "a"), REPLAY["sim_analytic"]))
    every = len(ana) // len(sims)
    seq = []
    for i, a in enumerate(ana):
        if i % every == 0 and i // every < len(sims):
            seq.append(sims[i // every])
        seq.append(a)
    out["sim"] = seq
    return out


def run_tracer(seg, ops, spans):
    plans = "presets" if seg == "warm" else "-"
    data = "".join(o.line.decode() for o in ops).encode()
    r = subprocess.run([TRACER, "replay", plans, "1" if spans else "0"], input=data,
                       stdout=subprocess.PIPE, env=dict(os.environ, PROJTILE_JOBS="1"), check=True)
    return json.loads(r.stdout)


def per_layer(workload, seed, records):
    segs = replay_lines(seed)
    plain, traced = {}, {}
    for seg, ops in segs.items():
        plain[seg] = run_tracer(seg, ops, False)
        traced[seg] = run_tracer(seg, ops, True)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def layer(seg, name):
        return traced[seg]["layers"].get(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})

    def mean(seg, name, scale):
        a = layer(seg, name)
        return a["incl_s"] / a["calls"] * scale if a["calls"] else 0.0

    def count(seg, name):
        return traced[seg]["counters"].get(name, 0)

    def timer(seg, name):
        return traced[seg]["timers"].get(name, {"calls": 0, "s": 0.0})

    def per_req(seg, name, ops_filter=None):
        n = sum(1 for o in segs[seg] if ops_filter is None or ops_filter(o))
        return count(seg, name) / n if n else 0.0

    # serve
    put("warm.serve.decode_us", mean("warm", "serve.decode", 1e6), "us")
    put("warm.serve.encode_us", mean("warm", "serve.encode", 1e6), "us")
    put("serve.wait_ms", serve_wait_ms(workload, segs, traced, records), "ms")
    # engine
    for seg in ("cold", "warm", "sim"):
        put(seg + ".engine.run_us", mean(seg, "engine.run", 1e6), "us")
    for seg in ("cold", "warm"):
        hits, misses = count(seg, "memo.plan.hits"), count(seg, "memo.plan.misses")
        put(seg + ".engine.plan_hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
            "ratio")
        put(seg + ".memo.lp.misses", count(seg, "memo.lp.misses"), "count")
        # plan
        compiles = timer(seg, "plan.compile")["calls"]
        put(seg + ".plan.compile_ms",
            layer(seg, "plan.compile")["incl_s"] / compiles * 1e3 if compiles else 0.0, "ms")
        put(seg + ".plan.compiles", compiles, "count")
        # hbl
        # the program's own timer: solve_lp runs inside the analysis, and
        # called ahead of it would run twice on the plan-served path
        lp = timer(seg, "pipeline.solve_lp")
        put(seg + ".hbl.solve_lp_us", lp["s"] / lp["calls"] * 1e6 if lp["calls"] else 0.0, "us")
        put(seg + ".hbl.lower_bound_us", mean(seg, "hbl.lower_bound", 1e6), "us")
        put(seg + ".hbl.tile_shared_us", mean(seg, "hbl.tile_shared", 1e6), "us")
        put(seg + ".tiling.search.nodes_per_request", per_req(seg, "tiling.search.nodes"), "count")
        put(seg + ".hbl.shared_over_budget", traced[seg]["shared_over_budget"], "count")
        # simplex
        put(seg + ".simplex.solves_per_request", per_req(seg, "simplex.solves"), "count")
        put(seg + ".simplex.pivots_per_request", per_req(seg, "simplex.pivots"), "count")
    # loopexec and cachesim
    sim_reqs = [o for o in segs["sim"] if o.req.get("schedules")]
    accesses = count("sim", "cachesim.L1.accesses")
    put("sim.loopexec.simulate_ms", mean("sim", "loopexec.simulate", 1e3), "ms")
    put("sim.cachesim.accesses_per_request", accesses / len(sim_reqs), "count")
    put("sim.cachesim.ns_per_access",
        layer("sim", "loopexec.simulate")["incl_s"] * 1e9 / accesses if accesses else 0.0, "ns")
    # distrib
    put("cold.distrib.partition_ms", mean("cold", "distrib.partition", 1e3), "ms")
    put("cold.partition.grids_per_request",
        per_req("cold", "partition.grids_enumerated", lambda o: o.req["op"] == "partition"),
        "count")
    # process
    walls = []
    for _ in range(15):
        t0 = now()
        subprocess.run([TILINGS, "presets"], stdout=subprocess.DEVNULL, check=True)
        walls.append((now() - t0) * 1e3)
    put("cli.startup_ms", statistics.median(walls), "ms")
    put("cold.memo.entries", sum(v for k, v in traced["cold"]["gauges"].items()
                                 if k.startswith("memo.") and k.endswith(".entries")), "count")
    # how well the spans account for the traced run, and what they cost
    wall = sum(t["wall_s"] for t in traced.values())
    self_sum = sum(a["self_s"] for t in traced.values() for a in t["layers"].values())
    plain_wall = sum(t["wall_s"] for t in plain.values())
    put("trace.unaccounted_pct", 100.0 * (wall - self_sum) / wall, "%")
    put("trace.overhead_pct", 100.0 * (wall - plain_wall) / plain_wall, "%")
    for seg in ("cold", "warm", "sim"):
        log("traced %s: %d requests, %.3f s traced, %.3f s plain; counters %s" % (
            seg, traced[seg]["requests"], traced[seg]["wall_s"], plain[seg]["wall_s"],
            {k: v for k, v in traced[seg]["counters"].items()
             if k in ("simplex.solves", "simplex.pivots", "cachesim.L1.accesses", "memo.lp.misses",
                      "memo.plan.hits", "memo.plan.misses", "tiling.search.nodes",
                      "partition.grids_enumerated")}))
    return m


def serve_wait_ms(workload, segs, traced, records):
    """Daemon latency minus in-process engine time, median over the
    analyze requests without simulation that both runs made."""
    seg = {"cold-shapes": "cold", "warm-sizes": "warm", "sim-mixed": "sim"}[workload]
    engine = {o.req["id"]: e for o, e in zip(segs[seg], traced[seg]["engine_s"])}
    diffs = [r.latency_ms() - engine[r.op.req["id"]] * 1e3 for r in records
             if r.done and r.op.req["op"] == "analyze" and not r.op.req.get("schedules")
             and r.op.req["id"] in engine]
    return statistics.median(diffs) if diffs else 0.0


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)

    res = run_workload(a.workload, a.seed, a.seconds)
    records, walls = res["records"], res["walls"]
    counted = [r for r in records if not r.op.left_out]
    t1 = now()
    failed, problems, sampled = check_records(records, a.seed)
    log("checks %.1f s" % (now() - t1))
    problems += res["oneshot_problems"]
    failed += res["oneshot_failed"]
    for p in problems[:20]:
        log("WRONG: " + p)
    log("%d requests (%d left out), %d rounds, %d one-shots, %d failed, %d wrong, "
        "%d LRU re-counts" % (len(records), len(records) - len(counted), res["rounds"],
                              len(walls), failed, len(problems), sampled))

    done = [r for r in records if r.done]
    lat = [r.latency_ms() for r in done]
    analytic = [r.latency_ms() for r in done
                if r.op.req["op"] == "analyze" and not r.op.req.get("schedules")]
    sims = [r.latency_ms() for r in done if r.op.req.get("schedules")]
    for kind in ("analyze", "partition", "compile"):
        xs = [r.latency_ms() for r in done if r.op.req["op"] == kind and not r.op.req.get("schedules")]
        if xs:
            log("%s: %d requests, p50 %.2f ms, mean %.2f ms" % (
                kind, len(xs), statistics.median(xs), statistics.fmean(xs)))
    if sims:
        log("simulation requests: %d, p50 %.1f ms" % (len(sims), statistics.median(sims)))
    if a.trace:
        metrics = per_layer(a.workload, a.seed, records)
    else:
        # measured times, then put at the nominal host speed
        raw = {
            "setup_s": (statistics.median(res["setups"]), "s"),
            "requests_per_s": (len(done) / res["busy"], "req/s"),
            "latency_p50_ms": (percentile(lat, 50), "ms"),
            "latency_p90_ms": (percentile(lat, 90), "ms"),
            "analyze_p50_ms": (percentile(analytic, 50), "ms"),
            "analyze_p90_ms": (percentile(analytic, 90), "ms"),
            "cli_oneshot_ms": (statistics.median(walls), "ms"),
        }
        speed = REF_NOMINAL_S / statistics.fmean(res["refs"])
        log("host speed %.3f from %d reference samples; measured %s" % (
            1 / speed, len(res["refs"]), json.dumps({k: v for k, (v, _) in raw.items()})))
        metrics = {k: {"value": v / speed if u == "req/s" else v * speed, "unit": u}
                   for k, (v, u) in raw.items()}
        metrics["peak_rss_mb"] = {"value": res["rss"], "unit": "MB"}
    print(json.dumps({"correct": not problems, "attempted": len(counted) + len(walls),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
