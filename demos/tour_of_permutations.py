"""
A tour of the permutation layer
===============================

Permutations, cycle notation, groups from generators, orbits, stabilizers
and block systems -- everything the higher layers are built on.
"""

import numpy as np

from derangements import (
    Permutation, PermGroup, conjugate, parse_cycles, load_generators,
    format_generator_file,
)

# ----------------------------------------------------------------------
# Single permutations
# ----------------------------------------------------------------------

# A permutation of degree n is stored as an array of images on 0..n-1.
# from_cycles takes 0-indexed cycles; printing is 1-indexed, as usual.
a = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
b = Permutation.from_cycles(6, [(1, 2, 3, 4, 5)])
print("a =", a.cycle_string())
print("b =", b.cycle_string())
print("a has order", a.order(), "and cycle type", a.cycle_type())

# Composition reads left to right: (a*b) means "apply a, then b".
print("a then b =", (a * b).cycle_string())
print("b then a =", (b * a).cycle_string())

# Conjugation relabels the cycles of a by b.
print("a^b      =", conjugate(a, b).cycle_string())

# cycle_string round-trips through the text parser (1-indexed there).
cycles = parse_cycles(a.cycle_string())
back = Permutation.from_cycles(6, [tuple(p - 1 for p in c) for c in cycles])
assert back == a

# A derangement moves every point.
print("a fixes", a.fixed_points(), "-> derangement?", a.is_derangement())
print("b fixes", b.fixed_points(), "-> derangement?", b.is_derangement())

# ----------------------------------------------------------------------
# Groups from generators
# ----------------------------------------------------------------------

# The Mathieu group M11 from its two standard generators.  The order is
# computed by a stabilizer chain (Schreier-Sims), not by listing elements.
g1 = Permutation.from_cycles(11, [tuple(range(11))])
g2 = Permutation.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
M11 = PermGroup([g1, g2])
print("\n|M11| =", M11.order())          # 7920 = 2^4 * 3^2 * 5 * 11
print("transitive:", M11.is_transitive())
print("primitive: ", M11.is_primitive())

# The stabilizer of a point has index 11.
stab = M11.point_stabilizer(0)
print("|M11_alpha| =", stab.order(), "; index", M11.order() // stab.order())

# Random elements come from the chain as well.
rng = np.random.default_rng(7)
x = M11.random_element(rng)
print("a random element:", x.cycle_string(), "of order", x.order())
assert M11.contains(x)

# ----------------------------------------------------------------------
# Imprimitivity: block systems
# ----------------------------------------------------------------------

# C6 acting regularly on 6 points is transitive but far from primitive.
c6 = PermGroup([Permutation.from_cycles(6, [tuple(range(6))])])
blocks = c6.minimal_block_system(0, 2)
print("\nC6: minimal blocks through {0, 2}:", blocks.cells)
blocks = c6.minimal_block_system(0, 3)
print("C6: minimal blocks through {0, 3}:", blocks.cells)
# M11 is primitive, so every minimal system is the universal one (None).
print("M11: blocks through {0, 1}:", M11.minimal_block_system(0, 1))

# ----------------------------------------------------------------------
# Generator files
# ----------------------------------------------------------------------

# Groups can be read from and written to a small text format; the same
# files drive the command line interface (see run_the_harness.py).
G = load_generators("demos/data/m11.gens")
assert G.order() == M11.order()
print("\nround trip through the file format:")
print(format_generator_file(G, comment="M11 again"))
