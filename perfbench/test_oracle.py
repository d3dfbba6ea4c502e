"""Hand-worked cases for the benchmark's reference oracles.

Run from the repository root:  python3 -m unittest perfbench/test_oracle.py
"""

import os
import random
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from kernels import PRESET, Kernel  # noqa: E402

MATMUL = PRESET["matmul"].supports()
NBODY = PRESET["nbody"].supports()


class LpClosedForms(unittest.TestCase):
    """Section 6 closed forms of the tile exponent k_hat."""

    def both(self, supports, beta):
        primal, lam = oracle.lp_primal(supports, [Fraction(b) for b in beta])
        self.assertAlmostEqual(oracle.lp_value(supports, [float(b) for b in beta]),
                               float(primal), places=12)
        for s in supports:
            self.assertLessEqual(sum(lam[i] for i in s), 1)
        return float(primal)

    def test_matmul_large_bounds(self):
        # every beta >= 1/2: lambda = (1/2, 1/2, 1/2), k_hat = 3/2
        self.assertAlmostEqual(self.both(MATMUL, [Fraction(3, 2)] * 3), 1.5)
        self.assertAlmostEqual(self.both(MATMUL, [Fraction(1, 2)] * 3), 1.5)

    def test_matmul_one_small_bound(self):
        # beta_1 < 1/2: k_hat = 1 + beta_1
        self.assertAlmostEqual(self.both(MATMUL, [Fraction(3, 10), 2, 2]), 1.3)

    def test_matvec(self):
        # L_3 = 1 makes beta_3 = 0: k_hat = min(1, beta_1 + beta_2)
        self.assertAlmostEqual(self.both(MATMUL, [2, 2, 0]), 1.0)
        self.assertAlmostEqual(self.both(MATMUL, [Fraction(2, 5), Fraction(2, 5), 0]), 0.8)

    def test_nbody(self):
        # k_hat = min(beta_1, 1) + min(beta_2, 1)
        self.assertAlmostEqual(self.both(NBODY, [2, 2]), 2.0)
        self.assertAlmostEqual(self.both(NBODY, [2, Fraction(1, 2)]), 1.5)

    def test_dual_matches_primal_on_random_shapes(self):
        rng = random.Random(7)
        for _ in range(60):
            d = rng.randint(2, 4)
            sups = [tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
                    for _ in range(rng.randint(2, 3))]
            beta = [Fraction(rng.randint(0, 30), 10) for _ in range(d)]
            self.both(sups, beta)


class LruHandCounted(unittest.TestCase):
    # A1[x1] += A2[x1] * A3[x2] over 2 x 2: per point A1 read, A1 write,
    # A2 read, A3 read.
    K = Kernel(["x1", "x2"], [2, 2], [("A1", (0,), "u"), ("A2", (0,), "r"), ("A3", (1,), "r")])

    def test_untiled_capacity_2(self):
        # only the write right after each A1 read hits; the four dirty
        # A1 words are written back on eviction, none is left to flush
        self.assertEqual(oracle.lru_sim(self.K, None, 2), (16, 4, 12, 4))

    def test_tiled_2x1_capacity_3(self):
        # order (0,0) (1,0) (0,1) (1,1): the A3 word is reused inside
        # each tile; the last dirty A1 word leaves in the final flush
        self.assertEqual(oracle.lru_sim(self.K, [2, 1], 3), (16, 6, 10, 4))

    def test_visit_order_clips_edge_tiles(self):
        self.assertEqual(list(oracle.visit([3, 2], [2, 2])),
                         [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])


if __name__ == "__main__":
    unittest.main()
