"""
Orbital graphs, suborbits and a standard double cover
=====================================================

How group-theoretic verdicts turn into statements about arc-transitive
graphs: suborbits give the valencies, orbital graphs give the edges, and
a bipartite double cover connects a quasiprimitive action to a
biquasiprimitive one on twice as many points.
"""

from derangements import (
    GroupAction, ScenarioEnv, block_divisibility_check,
    connectivity_by_generation, is_connected, mersenne_scenario,
    normal_structure, orbital_graph, standard_double_cover, suborbits,
    verify_double_cover_scenario,
)

# The memoized environment builds and caches the named actions that the
# verification harness also uses, so repeated construction is free.
env = ScenarioEnv()

# ----------------------------------------------------------------------
# M11 on 12 points: one nontrivial suborbit, so one orbital graph
# ----------------------------------------------------------------------

A = env.m11_on_12()
tab = suborbits(A)
print("M11 on 12: suborbit lengths", tab.multiset())

# The unique nontrivial suborbit has length 11, and its orbital graph is
# the complete graph K12 -- the group is 2-transitive.
beta = [b for b, length in tab.entries if length == 11][0]
gamma = orbital_graph(A, 0, beta)
print("valency", gamma.valency, "; complete:", gamma.is_complete(),
      "; self-paired:", gamma.self_paired)

# Connectivity can be read off the graph's components, or group-theoretically:
# the orbital at (alpha, beta) is connected iff the point stabilizer and
# any alpha->beta "edge move" together generate the whole group.
print("connected (components):", is_connected(gamma))
print("connected (generation):", connectivity_by_generation(A, 0, beta))

# ----------------------------------------------------------------------
# PSL(2,127) on 384 points: suborbits 1+1+1+127+127+127
# ----------------------------------------------------------------------

# 127 is a Mersenne prime, and that is what makes this example tick:
# p = 2^7 - 1, the point count is 3 * (p + 1) = 384 = 2^7 * 3, and the
# only odd prime dividing it is 3.  The scenario object records the
# parameters p, m (with p = 2^m - 1), and the subgroup index data.
scn = mersenne_scenario(127)
print("\nMersenne scenario:", scn)

A384 = env.a384()
tab = suborbits(A384)
print("PSL(2,127) on 384: suborbit lengths", tab.multiset())
print("structure:", normal_structure(A384).verdict)

# Three suborbits of prime length p = 127; all three are self-paired and
# their orbital graphs are connected, i.e. each one realizes the group as
# an arc-transitive group of a connected graph of prime valency.
for beta, length in tab.entries:
    if length != 127:
        continue
    g = orbital_graph(A384, 0, beta)
    print("  beta=%3d: valency %d, self-paired %s, connected %s" %
          (beta, g.valency, g.self_paired, is_connected(g)))

# The action is imprimitive: 128 blocks of size 3.  A block system forces
# a divisibility constraint on every suborbit (the suborbit length is a
# multiple of the length of the block-orbit it covers), which is one of
# the cheap consistency checks the harness runs on every scenario.
B = A384.group.nontrivial_block_system()
print("blocks:", len(B.cells), "cells of size", len(B.cells[0]))
print("block divisibility:", block_divisibility_check(A384, B, 0, 1))

# ----------------------------------------------------------------------
# The standard double cover
# ----------------------------------------------------------------------

# Σ: the valency-127 orbital graph at degree 384 (quasiprimitive action).
# Σ x K2, its standard double cover, has 768 vertices, and the claim is
# that the valency-127 orbital graph of the PGL-overgroup action on 768
# points (a biquasiprimitive action) is exactly that cover.  The check
# constructs both graphs and an explicit isomorphism psi.
actions = {"a_half": env.a384(), "a_full": env.a768(), "line": env.line127()}
report = verify_double_cover_scenario(scn, actions=actions)
print("\ndouble cover verified:", report.ok)
print("  p = %d, s = %d" % (report.p, report.s))
print("  sigma: %d vertices; gamma: %d vertices; %d edges"
      % (report.sigma.n, report.gamma.n, report.edge_count))

# The cover itself is an ordinary graph object.
cover = standard_double_cover(report.sigma)
print("  cover has", cover.n, "vertices; connected:", is_connected(cover))

# The parameter window is rigid.  Subgroups of the "wrong" index exist,
# but the doubling pattern fails for them, and the verifier refuses:
for s_bad in (63, 42):
    try:
        verify_double_cover_scenario(mersenne_scenario(127, s_bad),
                                     actions=actions)
    except ValueError as e:
        print("  s=%d rejected: %s" % (s_bad, e))
