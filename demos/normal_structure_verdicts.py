"""
Primitive, quasiprimitive, biquasiprimitive -- or neither
=========================================================

A transitive group is quasiprimitive when every nontrivial normal
subgroup is itself transitive, and biquasiprimitive when every
nontrivial normal subgroup has at most two orbits and some normal
subgroup really has two.  The classifier certifies its verdict with the
list of normal closures it inspected, and for the biquasiprimitive case
it hands back the index-2 subgroup G+ preserving the two halves.
"""

import numpy as np

from derangements import (
    PermGroup, Permutation, ScenarioEnv, WreathSpec, coset_action,
    g_plus, natural_action, normal_structure, verify_minimal_normal,
    wreath,
)

env = ScenarioEnv()

# A regular cyclic group: every subgroup is normal, orbits stay small,
# so it is neither quasi- nor biquasiprimitive.
c6 = natural_action(PermGroup([Permutation.from_cycles(6, [tuple(range(6))])]),
                    "C6 regular")
rep = normal_structure(c6)
print("C6 regular:", rep.verdict, "; closure orbit counts", rep.orbit_counts())

# A5 on the 12 cosets of a C5 is imprimitive (blocks of size 2) yet
# quasiprimitive: A5 is simple, so its only nontrivial normal subgroup
# is A5 itself, which is transitive.
a5 = natural_action(PermGroup([
    Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
    Permutation.from_cycles(5, [(2, 3, 4)])]), "A5")
c5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
A = coset_action(a5, c5)
rep = normal_structure(A)
print("A5 on 12:  ", rep.verdict,
      "; primitive:", A.group.is_primitive())

# M10 on 12 points is biquasiprimitive: the simple normal subgroup A6
# splits the 12 points into two halves of 6.
m10 = env.m10_on_12()
rep = normal_structure(m10)
print("M10 on 12: ", rep.verdict)
print("  halves:", [len(h) for h in rep.halves],
      "; |G+| =", rep.g_plus.order())

# G+ can also be computed directly from any 2-orbit normal subgroup, and
# it coincides with the joint (setwise) stabilizer of the two halves --
# the identity the harness checks on all biquasiprimitive scenarios.
a6 = m10.group.derived_subgroup()
gp, half1, half2 = g_plus(m10, a6)
print("  from N = A6 of order", a6.order(), ":",
      "|G+| =", gp.order(), "; halves", (len(half1), len(half2)))

# Minimal normal subgroups get their own certificate.  In S4 the Klein
# four-group is the unique minimal normal subgroup:
s4 = natural_action(PermGroup([
    Permutation.from_cycles(4, [(0, 1)]),
    Permutation.from_cycles(4, [(0, 1, 2, 3)])]), "S4")
v4 = s4.group.normal_closure([Permutation.from_cycles(4, [(0, 1), (2, 3)])])
rep = verify_minimal_normal(s4, v4)
print("\nV4 in S4: minimal", rep.minimal, "; unique", rep.unique,
      "; closures of its involutions have orders", rep.closure_orders)

# For a wreath product in product action the socle N = T x ... x T is
# usually far beyond any element scan.  The certificate reads the same
# prime-order classes of G as the elusivity verdicts, here from the
# wreath decomposition, and takes the normal closure of each one lying
# in N.
c2 = PermGroup([Permutation(np.array([1, 0]))])
spec = WreathSpec(natural_action(PermGroup([
    Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
    Permutation.from_cycles(5, [(2, 3, 4)])]), "A5"), 2, c2, "product")
W = wreath(spec, declare_socle=True)
N = W.declared_socle.subgroup
rep = verify_minimal_normal(W, N)
print("A5 x A5 in A5 wr C2 (degree %d): minimal %s, unique %s, exact %s"
      % (W.degree, rep.minimal, rep.unique, rep.exact))
