"""Reference computations the benchmark checks the program against.

Written from the paper's definitions, sharing no code with the program:

- LP (5.1): maximise sum(lambda) subject to sum_{i in supp j} lambda_i <= 1
  for every array j and 0 <= lambda_i <= beta_i, beta_i = ln L_i / ln M.
  `lp_value` enumerates the vertices of the dual, min sum(y) + sum(beta.z)
  s.t. sum_{j ni i} y_j + z_i >= 1, y, z >= 0. The dual's vertices depend
  only on the supports, never on beta, so they are computed once per
  shape, exactly, and every request is a minimum over a short list.
  `lp_primal` enumerates the primal vertices directly (slow); the tests
  check the two agree. Both solve their systems in exact arithmetic.
- An LRU cache simulator that follows the documented visiting order.
"""

import itertools
import math
from collections import OrderedDict
from fractions import Fraction


def _solve(rows, rhs):
    """Exact solution of a square system by fraction-free Gauss-Jordan
    elimination, with int or Fraction entries: (xs, det) with
    x_i = xs[i] / det, integers for an integer system; None when
    singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        for r in range(n):
            if r != c:
                # exact: prev divides every such 2x2 minor
                f = a[r][c]
                a[r] = [_exact_div(x * p - f * y, prev) for x, y in zip(a[r], a[c])]
        prev = p
    # a is now det * I, and its last column det * x
    return [a[i][n] for i in range(n)], prev


def _exact_div(x, y):
    return x // y if isinstance(x, int) and isinstance(y, int) else x / y


_DUAL_CACHE = {}


def dual_vertices(d, supports):
    """Candidate dual vertices for a shape, as (sum y, [c_i]) with
    c_i = max(0, 1 - sum_{j ni i} y_j): at y the dual objective is
    sum y + sum_i beta_i c_i."""
    key = (d, tuple(supports))
    if key in _DUAL_CACHE:
        return _DUAL_CACHE[key]
    n = len(supports)
    # hyperplanes in y-space: y_j = 0, or sum_{j ni i} y_j = 1
    planes = [([1 if jj == j else 0 for jj in range(n)], 0) for j in range(n)]
    planes += [([1 if i in s else 0 for s in supports], 1) for i in range(d)]
    out = set()
    for combo in itertools.combinations(planes, n):
        sol = _solve([p for p, _ in combo], [b for _, b in combo])
        if sol is None:
            continue
        ys, det = sol
        if det < 0:
            ys, det = [-v for v in ys], -det
        if any(v < 0 for v in ys):
            continue
        # the vertex scaled by det: sum y and every c_i, all integers
        cs = [max(0, det - sum(ys[j] for j, s in enumerate(supports) if i in s))
              for i in range(d)]
        g = math.gcd(det, sum(ys), *cs)
        out.add((det // g, sum(ys) // g) + tuple(c // g for c in cs))
    verts = [(c0 / det, [c / det for c in cs]) for det, c0, *cs in out]
    _DUAL_CACHE[key] = verts
    return verts


def lp_value(supports, beta):
    """Optimum of LP (5.1) for these supports and (float) beta."""
    return min(c0 + sum(b * c for b, c in zip(beta, cs))
               for c0, cs in dual_vertices(len(beta), supports))


def lp_primal(supports, beta):
    """Optimum and an optimal lambda of LP (5.1) by primal vertex
    enumeration in exact arithmetic (beta given as Fractions)."""
    d = len(beta)
    cons = [([1 if i in s else 0 for i in range(d)], Fraction(1)) for s in supports]
    cons += [([1 if k == i else 0 for k in range(d)], Fraction(beta[i])) for i in range(d)]
    cons += [([-1 if k == i else 0 for k in range(d)], Fraction(0)) for i in range(d)]
    best = None
    for combo in itertools.combinations(cons, d):
        sol = _solve([a for a, _ in combo], [b for _, b in combo])
        if sol is None:
            continue
        x = [Fraction(v) / sol[1] for v in sol[0]]
        if all(sum(a_i * x_i for a_i, x_i in zip(a, x)) <= b for a, b in cons):
            if best is None or sum(x) > best[0]:
                best = (sum(x), x)
    return best


def beta_of(bounds, m):
    return [math.log(b) / math.log(m) for b in bounds]


def footprints(supports, tile):
    return [math.prod(tile[i] for i in s) for s in supports]


def visit(bounds, tile):
    """Iteration points in schedule order: tiles in lexicographic order
    over the tile grid, points inside a tile lexicographically, edge
    tiles clipped to the bounds. tile=None means untiled."""
    if tile is None:
        yield from itertools.product(*[range(b) for b in bounds])
        return
    origins = itertools.product(*[range(0, b, t) for b, t in zip(bounds, tile)])
    for o in origins:
        yield from itertools.product(
            *[range(s, min(s + t, b)) for s, t, b in zip(o, tile, bounds)])


def lru_sim(kernel, tile, capacity):
    """Fully associative LRU, one-word lines, write-allocate, write-back.
    Arrays are touched in statement order at every point; an Update is a
    read then a write; a final flush writes back every dirty word.
    Returns (accesses, hits, misses, writebacks)."""
    base = 0
    plan = []
    for _, sup, mode in kernel.arrays:
        strides, size = [], 1
        for i in reversed(sup):
            strides.append((i, size))
            size *= kernel.bounds[i]
        plan.append((base, strides, mode))
        base += size
    cache = OrderedDict()
    accesses = hits = misses = wb = 0
    for pt in visit(kernel.bounds, tile):
        for b, strides, mode in plan:
            addr = b
            for i, st in strides:
                addr += pt[i] * st
            for write in ((False, True) if mode == "u" else ((mode == "w"),)):
                accesses += 1
                if addr in cache:
                    hits += 1
                    cache.move_to_end(addr)
                    if write:
                        cache[addr] = True
                else:
                    misses += 1
                    if len(cache) >= capacity:
                        _, dirty = cache.popitem(last=False)
                        wb += dirty
                    cache[addr] = write
    wb += sum(cache.values())
    return accesses, hits, misses, wb
