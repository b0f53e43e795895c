"""Suborbits, orbital graphs, connectivity, and standard double covers.

A transitive action splits the points into orbits of a point stabilizer
(suborbits); each suborbit other than the fixed ones induces an orbital
digraph whose arc set is one orbit of the group on ordered pairs.  These
graphs are the arc-transitive graphs whose automorphism questions drive the
verification scenarios: connectivity is decided both by the components
kernel that also computes orbits and by a generation argument (the two
must agree; the second reads the overgroups of G_alpha, as block systems
do), block systems impose divisibility constraints on subdegrees, and the
valency-127 graphs of the Mersenne-prime family are linked by a standard
double cover that this module constructs explicitly and checks
edge-by-edge.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import List, Tuple

import numpy as np

from .config import Budgets, DEFAULT_BUDGETS, CertificateError
from .numbers import is_prime
from .perm import BlockSystem, PermGroup, Permutation, _components, _search
from .zoo import GroupAction, MersenneScenario


@dataclass
class SuborbitTable:
    """Orbits of a point stabilizer, with their lengths.

    entries holds (representative point, length) pairs sorted by length then
    representative; representatives are the least point of each suborbit.
    The subdegree multiset always sums to the degree.
    """

    alpha: int
    entries: List[Tuple[int, int]]
    degree: int

    def __post_init__(self):
        if sum(length for _, length in self.entries) != self.degree:
            raise CertificateError("subdegrees do not sum to the degree")

    def multiset(self) -> tuple:
        return tuple(sorted(length for _, length in self.entries))

    def fixed_point_count(self) -> int:
        return sum(1 for _, length in self.entries if length == 1)

    def prime_entries(self) -> list:
        return [(rep, length) for rep, length in self.entries
                if is_prime(length)]

    def __repr__(self) -> str:
        parts = ", ".join(f"{length}@{rep + 1}" for rep, length in self.entries)
        return f"SuborbitTable(alpha={self.alpha + 1}, {parts})"


def suborbits(A: GroupAction, alpha: int = 0) -> SuborbitTable:
    """Suborbit table of a transitive action at base point alpha."""
    G = A.group
    if not G.is_transitive():
        raise ValueError("suborbits require a transitive action")
    orbs = G.point_stabilizer(alpha).orbits()
    entries = sorted(((o[0], len(o)) for o in orbs), key=lambda e: (e[1], e[0]))
    return SuborbitTable(alpha=alpha, entries=entries, degree=A.degree)


@dataclass
class Graph:
    """Plain undirected graph on dense integer vertices."""

    n: int
    adj: Tuple[Tuple[int, ...], ...]

    def edge_set(self) -> set:
        return {(u, v) for u in range(self.n) for v in self.adj[u] if u <= v}

    def arc_count(self) -> int:
        return sum(len(a) for a in self.adj)


@dataclass(eq=False)
class OrbitalGraph:
    """Digraph whose arc set is one orbit of G on ordered point pairs.

    heads is the read-only (n, valency) int64 matrix whose row u holds
    the heads of u in ascending order; adj is its tuple-of-tuples view,
    built on first read.  Arc-set invariance under every generator is
    checked exhaustively at construction; a self-paired orbital has a
    symmetric arc set and is treated as an undirected graph.
    """

    n: int
    heads: np.ndarray
    self_paired: bool
    valency: int
    action: GroupAction
    base_arc: Tuple[int, int]

    @cached_property
    def adj(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(tuple, self.heads.tolist()))

    def edge_set(self) -> set:
        tails, heads = _arcs(self)
        if self.self_paired:
            keep = tails <= heads
            tails, heads = tails[keep], heads[keep]
        return set(zip(tails.tolist(), heads.tolist()))

    def arc_count(self) -> int:
        return self.n * self.valency

    def is_complete(self) -> bool:
        return self.self_paired and self.valency == self.n - 1

    def __repr__(self) -> str:
        return (f"OrbitalGraph(n={self.n}, valency={self.valency}, "
                f"self_paired={self.self_paired})")


def paired_suborbit(A: GroupAction, alpha: int, beta: int) -> int:
    """Representative of the suborbit paired to that of beta.

    Uses a transversal element g0 with beta^{g0} = alpha and returns
    alpha^{g0}; the suborbit of beta is self-paired exactly when the result
    lies in the G_alpha-orbit of beta.  The inverse of an element u with
    alpha^u = beta is such a g0.
    """
    if alpha == beta:
        raise ValueError("paired_suborbit needs two distinct points")
    g0 = A.group.transversal_inverse(alpha, beta)
    if g0 is None:
        raise ValueError("alpha and beta lie in different orbits")
    return int(g0[alpha])


def orbital_graph(A: GroupAction, alpha: int, beta: int) -> OrbitalGraph:
    """Orbital digraph with arc set (alpha, beta)^G, built along the BFS
    tree of alpha's orbit (`perm._search`), with no transversal.

    The heads of alpha are S, the G_alpha-orbit of beta.  A tree edge
    q = p^g gives heads(q) = heads(p)^g, one gather per point, and one
    sort of the whole (n, |S|) matrix puts every row in order.
    Certificates, each raising CertificateError:
    * alpha's orbit is every point, so all out-valencies equal |S|;
    * the stabilizer's generators fix alpha, so S lies in the suborbit of
      beta and every arc in (alpha, beta)^G;
    * the arcs are invariant under G's generators, so they contain, hence
      equal, (alpha, beta)^G; an S shorter than the out-valency fails here;
    * a self-paired orbital (alpha among the heads of beta) is symmetric.
    """
    if alpha == beta:
        raise ValueError("orbital graphs need two distinct points")
    G = A.group
    n = A.degree
    stab = G.point_stabilizer(alpha)
    if any(g.images[alpha] != alpha for g in stab.generators):
        raise CertificateError("point stabilizer moves alpha")
    suborbit = sorted(stab.orbit(beta))
    images = [g.images for g in G.generators]
    inside = [p == alpha for p in range(n)]
    found, tree = _search([img.tolist() for img in images], inside, [alpha],
                          0)
    if len(found) + 1 != n:
        raise CertificateError("orbital digraph has non-uniform out-valency")
    heads = np.empty((n, len(suborbit)), dtype=np.int64)
    heads[alpha] = suborbit
    for q, (p, j) in zip(found, tree):
        heads[q] = images[j][heads[p]]
    heads.sort(axis=1)
    heads.flags.writeable = False

    for img in images:
        if not (np.sort(img[heads], axis=1) == heads[img]).all():
            raise CertificateError(
                "arc set is not invariant: the suborbit length differs "
                "from the out-valency of the orbital")

    self_paired = bool((heads[beta] == alpha).any())
    if self_paired:
        tails = np.arange(n, dtype=np.int64)[:, None]
        arcs = (tails * n + heads).ravel()  # sorted: rows and tails ascend
        if not np.array_equal(np.sort((heads * n + tails).ravel()), arcs):
            raise CertificateError(
                "self-paired orbital must have a symmetric arc set")
    return OrbitalGraph(n=n, heads=heads, self_paired=self_paired,
                        valency=len(suborbit), action=A,
                        base_arc=(alpha, beta))


def _arcs(graph) -> tuple:
    """The arcs of a (di)graph as tail and head arrays, tails ascending."""
    if isinstance(graph, OrbitalGraph):
        return (np.repeat(np.arange(graph.n, dtype=np.int64), graph.valency),
                graph.heads.ravel())
    valency = [len(heads) for heads in graph.adj]
    tails = np.repeat(np.arange(graph.n, dtype=np.int64), valency)
    heads = np.fromiter(chain.from_iterable(graph.adj), dtype=np.int64,
                        count=len(tails))
    return tails, heads


def is_connected(graph) -> bool:
    """Weak connectivity of a (di)graph: one component of its arcs
    (perm._components, the kernel behind orbits)."""
    n = graph.n
    return n > 0 and not _components(n, *_arcs(graph)).any()


def connectivity_by_generation(A: GroupAction, alpha: int, beta: int) -> bool:
    """Decide connectivity of the (alpha, beta)-orbital via generation.

    For a self-paired suborbit, an element g interchanging alpha and beta
    exists, and the orbital graph is connected exactly when H = <G_alpha, g>
    is G (Sims 1967).  All interchanging elements lie in one coset of
    G_alpha ∩ G_beta, so H does not depend on the choice.  H lies in G and
    contains G_alpha, so H_alpha = G_alpha and, by orbit-stabilizer,
    |H| = |G_alpha|·|alpha^H|.  For transitive G, H is therefore G exactly
    when H is transitive, which its orbits decide without a stabilizer
    chain.  For intransitive G, H is intransitive and the graph
    disconnected, so the answer still holds.
    """
    if alpha == beta:
        raise ValueError("need two distinct points")
    G = A.group
    stab = G.point_stabilizer(alpha)
    u_inv = G.transversal_inverse(alpha, beta)
    if u_inv is None:
        raise ValueError("alpha and beta lie in different orbits")
    v_inv = stab.transversal_inverse(beta, int(u_inv[alpha]))
    if v_inv is None:
        raise ValueError("suborbit of beta is not self-paired; "
                         "no element interchanges alpha and beta")
    # (v * u)^-1 interchanges alpha and beta as v * u does
    g = Permutation._raw(v_inv[u_inv])
    if int(g.images[alpha]) != beta or int(g.images[beta]) != alpha:
        raise CertificateError("element does not interchange alpha and beta")
    return PermGroup(list(stab.generators) + [g]).is_transitive()


def block_divisibility_check(A: GroupAction, partition: BlockSystem,
                             alpha: int, omega: int) -> bool:
    """Divisibility constraint a block system imposes on a suborbit.

    The G_alpha-orbit length of the block containing omega must divide the
    G_alpha-orbit length of omega itself.  Additionally, when alpha and
    omega share a block of a proper nontrivial system, the corresponding
    orbital digraph must be disconnected; that too is verified here.
    """
    G = A.group
    if not partition.is_invariant(G):
        raise ValueError("partition is not invariant under the action")
    if alpha == omega:
        raise ValueError("need two distinct points")
    stab = G.point_stabilizer(alpha)
    point_orbit = stab.orbit(omega)

    # The G_alpha-orbit of omega's block B: B^h is the block of omega^h.
    block_orbit = {partition.cell_of(q) for q in point_orbit}
    ok = len(point_orbit) % len(block_orbit) == 0
    if partition.cell_of(alpha) == partition.cell_of(omega) \
            and 1 < len(partition.cells) < A.degree:
        graph = orbital_graph(A, alpha, omega)
        ok = ok and not is_connected(graph)
    return ok


def standard_double_cover(graph) -> Graph:
    """Bipartite double of an undirected graph.

    Vertex (v, i) is indexed v + i*n; (u, 0) is adjacent to (v, 1) exactly
    when u ~ v in the input.  Connected non-bipartite graphs lift to
    connected covers; bipartite ones fall apart into two copies.
    """
    n = graph.n
    tails, heads = _arcs(graph)
    # undirected: the sorted arc keys u*n + v equal their reversals' keys
    keys = np.sort(tails * n + heads)
    if not np.array_equal(keys, np.sort(heads * n + tails)):
        raise ValueError("double cover needs an undirected graph")
    heads = keys % n  # tails ascend, so each row's heads now ascend
    starts = np.searchsorted(tails, np.arange(n + 1)).tolist()
    rows = list(zip(starts[:-1], starts[1:]))
    low, high = (heads + n).tolist(), heads.tolist()
    return Graph(n=2 * n, adj=tuple([tuple(low[a:b]) for a, b in rows]
                                    + [tuple(high[a:b]) for a, b in rows]))


@dataclass
class DoubleCoverReport:
    """Outcome of the explicit double-cover identification.

    psi is the vertex bijection from the cover of the half-degree graph onto
    the full-degree orbital graph, recorded for audit; ok means the mapped
    edge set coincides exactly with the arc set of the constructed orbital
    graph.
    """

    ok: bool
    p: int
    s: int
    sigma: OrbitalGraph
    gamma: OrbitalGraph
    psi: Tuple[int, ...]
    edge_count: int

    def __bool__(self) -> bool:
        return self.ok


def verify_double_cover_scenario(scn: MersenneScenario,
                                 budgets: Budgets = DEFAULT_BUDGETS, *,
                                 actions: dict) -> DoubleCoverReport:
    """Check that the valency-p graph on (p^2-1)/s points doubles the one on
    (p^2-1)/2s points.

    Reads the coset actions of PSL2(p) and PGL2(p) on the cosets of the
    same subgroup C_p:C_s of PSL2(p), given prebuilt in `actions` under
    "a_half" and "a_full", with the projective line under "line"; it
    builds no line, subgroup or coset action of its own.  It identifies
    the PSL cosets inside the PGL coset space through shared canonical
    representatives, extends the identification to the second half by a
    normalizing element outside PSL2(p), and verifies that the standard
    double cover of the PSL orbital graph maps edge-for-edge onto the PGL
    orbital graph.  An s out of pattern raises ValueError before
    `actions` is read.  `budgets` is accepted for callers that pass it
    and reaches nothing.
    """
    p, s = scn.p, scn.s
    if not s < (p - 1) // 2:
        raise ValueError(
            f"s={s} is out of pattern for a double cover: the PGL coset "
            f"space only doubles the PSL one when s < (p-1)/2")
    a_half, a_full, line = actions["a_half"], actions["a_full"], actions["line"]
    n_half = a_half.degree
    if a_full.degree != 2 * n_half:
        raise CertificateError("the PGL coset space does not double the PSL one")

    # Sigma: a self-paired connected valency-p orbital graph of the PSL action.
    table = suborbits(a_half, 0)
    sigma = None
    for rep, length in table.entries:
        if length == p:
            sigma = orbital_graph(a_half, 0, rep)
            if not (sigma.self_paired and is_connected(sigma)):
                raise CertificateError(
                    "valency-p orbital graph is not self-paired and connected")
            break
    if sigma is None:
        raise CertificateError("no valency-p suborbit found")

    # iota: PSL cosets -> PGL cosets through the shared canonical reps.
    cc_half, cc_full = a_half.parent, a_full.parent
    iota = cc_full.index_of(cc_half.reps)

    # A normalizer of H outside PSL: the diagonal map with a primitive-root
    # (hence non-square) multiplier normalizes every C_p:C_s above it.
    # Left multiplication by it commutes with the right coset action, so it
    # gives a PSL-equivariant bijection of the first half onto the second.
    g_mult = line.subgroups["PGL"].generators[1]
    H_sub = cc_full.stabilizer
    ginv = g_mult.inverse()
    if not all(H_sub.contains(ginv * h * g_mult) for h in H_sub.generators):
        raise CertificateError(
            "multiplier map must normalize the point stabilizer")
    if line.subgroups["PSL"].contains(g_mult):
        raise CertificateError("multiplier map lies inside PSL")

    psi = np.concatenate(
        [iota, cc_full.index_of(cc_half.reps[:, g_mult.images])])
    if not np.array_equal(np.sort(psi), np.arange(2 * n_half)):
        raise CertificateError("psi is not a bijection")

    # arcs (u, v) as keys u * n + v: the mapped cover's are sorted with
    # repeats kept, so a repeated arc fails the comparison; gamma's ascend
    # already, as tails ascend and each row of heads ascends strictly
    n = 2 * n_half
    tails, heads = _arcs(standard_double_cover(sigma))
    mapped = np.sort(psi[tails] * n + psi[heads])
    gamma = orbital_graph(a_full, *divmod(int(mapped[0]), n))
    tails, heads = _arcs(gamma)
    gamma_arcs = tails * n + heads
    ok = (np.array_equal(mapped, gamma_arcs) and gamma.self_paired
          and is_connected(gamma))
    return DoubleCoverReport(ok=ok, p=p, s=s, sigma=sigma, gamma=gamma,
                             psi=tuple(int(x) for x in psi),
                             edge_count=len(gamma_arcs) // 2)
