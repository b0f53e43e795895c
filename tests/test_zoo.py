import numpy as np
import pytest

from derangements import (BudgetExceeded, Budgets, CertificateError,
                          GeneratorFileError, GroupAction, PermGroup,
                          Permutation, SocleDecl, WreathSpec,
                          assemble_stabilizer, borel_subgroup, coset_action,
                          format_generator_file, load_generators, m11,
                          mersenne_scenario, natural_action,
                          projective_line_action, subgroup_search, wreath)

from derangements import zoo
from derangements.classes import exhaustive_class_partition
from derangements.zoo import _is_simple, coordinate_embedding, top_embedding

from tests.conftest import alternating, cyclic, klein4, symmetric


def test_generator_file_round_trip(tmp_path):
    G = symmetric(4)
    path = tmp_path / "s4.gens"
    path.write_text(format_generator_file(G, "symmetric group"))
    H = load_generators(path)
    assert H.degree == 4
    assert H.order() == 24


def test_generator_file_c3(tmp_path):
    path = tmp_path / "c3.gens"
    path.write_text("degree 3\ngen (1,2,3)\n")
    G = load_generators(path)
    assert G.order() == 3


def test_generator_file_identity_gen(tmp_path):
    path = tmp_path / "triv.gens"
    path.write_text("# trivial\ndegree 2\ngen ()\n")
    G = load_generators(path)
    assert G.order() == 1


def test_generator_file_errors(tmp_path):
    bad = [
        ("nodegree.gens", "gen (1 2)\n"),
        ("badpoint.gens", "degree 3\ngen (1 4)\n"),
        ("dupdegree.gens", "degree 3\ndegree 3\n"),
        ("directive.gens", "degree 3\nfoo (1 2)\n"),
        ("baddeg.gens", "degree x\n"),
    ]
    for name, text in bad:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(GeneratorFileError):
            load_generators(path)


@pytest.mark.parametrize("gen, message", [
    ("(1 4)", "line 2: point 4 out of range for degree 3"),
    ("(1 2)(2 3)", "line 2: point 2 appears in two cycles"),
])
def test_generator_file_errors_name_points_as_written(tmp_path, gen, message):
    path = tmp_path / "bad.gens"
    path.write_text(f"degree 3\ngen {gen}\n")
    with pytest.raises(GeneratorFileError) as exc:
        load_generators(path)
    assert str(exc.value) == message


def test_m11():
    a = m11()
    assert a.degree == 11
    assert a.order() == 7920
    assert a.group.is_transitive()


def test_projective_line_9():
    line = projective_line_action(9)
    assert line.degree == 10
    assert line.order() == 1440  # PGammaL(2,9) = Aut(A6)
    subs = line.subgroups
    assert subs["PSL"].order() == 360  # A6
    assert subs["PGL"].order() == 720
    assert subs["M10"].order() == 720
    assert subs["S6"].order() == 720
    assert len({subs[k].chain.order() for k in ("PGL", "M10", "S6")}) == 1
    # the three index-2 overgroups of A6 are told apart by element orders
    from derangements.zoo import _element_order_set
    assert 10 in _element_order_set(subs["PGL"], 10**6)
    assert 8 in _element_order_set(subs["M10"], 10**6)
    assert 6 in _element_order_set(subs["S6"], 10**6)


def test_projective_line_7():
    line = projective_line_action(7)
    assert line.degree == 8
    assert line.subgroups["PSL"].order() == 168
    assert line.order() == 336  # PGL(2,7)


def test_mersenne_scenario_parameters():
    scn = mersenne_scenario(127)
    assert (scn.p, scn.m, scn.r, scn.s) == (127, 7, 21, 21)
    assert mersenne_scenario(127, 63).s == 63
    with pytest.raises(ValueError):
        mersenne_scenario(127, 42)  # 42 does not divide 63
    with pytest.raises(ValueError):
        mersenne_scenario(127, 7)  # not a multiple of rad(63) = 21
    with pytest.raises(ValueError):
        mersenne_scenario(11)  # not Mersenne


def test_borel_subgroup_orders():
    scn = mersenne_scenario(31)
    H = borel_subgroup(scn, "psl", 15)
    assert H.order() == 31 * 15
    H2 = borel_subgroup(scn, "pgl", 30)
    assert H2.order() == 31 * 30
    with pytest.raises(ValueError):
        borel_subgroup(scn, "psl", 30)  # 30 does not divide (31-1)/2
    with pytest.raises(ValueError):
        borel_subgroup(scn, "nope", 15)


@pytest.mark.parametrize("p", [7, 31, 127])
def test_borel_subgroup_comes_from_the_line(env, p):
    # C_p:C_t is <t, m^((p-1)/t)> for the line's translation t and
    # multiplier m, at every admissible t of both flavors
    line = env.line127() if p == 127 else projective_line_action(p)
    shift, m, _w = line.subgroups["PGL"].generators
    scn = mersenne_scenario(p)
    for flavor, top in (("psl", (p - 1) // 2), ("pgl", p - 1)):
        for t in (d for d in range(1, top + 1) if top % d == 0):
            H = borel_subgroup(scn, flavor, t)
            assert H.generators == (shift, m ** ((p - 1) // t))


def test_subgroup_search_finds_psl2_11():
    a = m11()
    H = subgroup_search(a, 660, require_simple=True)
    assert H is not None
    assert H.order() == 660
    assert H.is_subgroup(a.group)
    # deterministic for a fixed seed
    H2 = subgroup_search(a, 660, require_simple=True)
    assert [g.key() for g in H.generators] == [g.key() for g in H2.generators]


def _is_simple_by_every_class(H):
    """Reference: H is simple when every nonidentity class of H, one
    representative each from a walk of all of H, has normal closure H."""
    order = H.order()
    if order == 1:
        return False
    return all(H.normal_closure([rep]).order() == order
               for rep, _size in exhaustive_class_partition(H)
               if not rep.is_identity())


@pytest.mark.parametrize("make", [
    lambda: alternating(4), lambda: symmetric(4), lambda: alternating(5),
    lambda: symmetric(5), lambda: alternating(6), lambda: cyclic(5),
    lambda: cyclic(6), lambda: subgroup_search(m11(), 660, require_simple=True),
])
def test_is_simple_matches_every_class_walk(make):
    H = make()
    assert _is_simple(H, 10**6) == _is_simple_by_every_class(H)


def test_subgroup_search_rejects_non_divisor():
    with pytest.raises(ValueError):
        subgroup_search(m11(), 7)


def test_coset_action_m11_on_12(m11_12):
    assert m11_12.degree == 12
    assert m11_12.order() == 7920
    assert m11_12.faithful
    assert m11_12.group.is_transitive()
    assert m11_12.parent is not None


def test_coset_push_is_a_homomorphism(m11_12):
    cc = m11_12.parent
    rng = np.random.default_rng(3)
    G = cc.parent_group
    for _ in range(20):
        x, y = G.random_element(rng), G.random_element(rng)
        assert cc.push(x * y) == cc.push(x) * cc.push(y)
    # the stabilizer of point 0 is exactly H
    H = m11_12.group.point_stabilizer(0)
    assert H.order() == cc.stabilizer.order()


@pytest.fixture(scope="module")
def a4_on_6():
    H = PermGroup([Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    return coset_action(natural_action(alternating(4), "A4"), H)


COSET_ACTIONS = ["m11_12", "a4_on_6"]


@pytest.mark.parametrize("name", COSET_ACTIONS)
def test_coset_representatives_are_least_in_their_cosets(request, name):
    cc = request.getfixturevalue(name).parent
    H = cc.stabilizer
    hrows = np.concatenate(list(H.element_batches()))
    assert cc.reps.shape == (cc.index, cc.parent_group.degree)
    for rep in cc.reps:
        coset = rep[hrows]  # rows of h * rep for every h in H
        least = coset[np.lexsort(coset[:, H.chain.base].T[::-1])[0]]
        assert (rep == least).all()


@pytest.mark.parametrize("name", COSET_ACTIONS)
def test_push_matches_coset_membership(request, name):
    cc = request.getfixturevalue(name).parent
    G, H = cc.parent_group, cc.stabilizer
    reps = [Permutation(r) for r in cc.reps]
    rng = np.random.default_rng(27)
    for _ in range(5):
        x = G.random_element(rng)
        image = cc.push(x).images
        for rep, j in zip(reps, image):
            # H rep x = H reps[j] exactly when rep x reps[j]^-1 lies in H
            assert H.contains(rep * x * reps[j].inverse())


@pytest.mark.parametrize("name", COSET_ACTIONS)
def test_index_of_batch_matches_single_rows(monkeypatch, request, name):
    cc = request.getfixturevalue(name).parent
    G = cc.parent_group
    rng = np.random.default_rng(5)
    rows = np.stack([G.random_element(rng).images for _ in range(9)])
    single = [int(cc.index_of(row[None, :])[0]) for row in rows]
    # chunks of two rows
    monkeypatch.setattr(zoo, "_BATCH_ENTRIES", 2 * G.degree)
    assert cc.index_of(rows).tolist() == single


@pytest.mark.parametrize("name", COSET_ACTIONS)
def test_push_rejects_a_non_member(request, name):
    cc = request.getfixturevalue(name).parent
    # both parent groups are even, so a transposition lies outside
    with pytest.raises(ValueError, match="not in the parent group"):
        cc.push(Permutation.from_cycles(cc.parent_group.degree, [(0, 1)]))


def test_coset_action_degree():
    S4 = natural_action(symmetric(4), "S4")
    H = S4.group.point_stabilizer(0)
    A = coset_action(S4, H)
    assert A.degree == 4
    assert A.order() == 24


def test_coset_action_rejects_non_subgroup():
    S4 = natural_action(symmetric(4), "S4")
    C5 = cyclic(5)
    with pytest.raises(ValueError):
        coset_action(S4, C5)


def test_wreath_c2_wr_c2_is_dihedral():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    a = natural_action(c2, "C2")
    W = wreath(WreathSpec(a, 2, c2, "product"))
    assert W.degree == 4
    assert W.order() == 8
    assert not W.group.is_primitive()


def test_wreath_imprimitive_blocks():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "imprimitive"))
    assert W.degree == 6
    assert W.order() == 72
    bs = W.group.nontrivial_block_system()
    assert bs is not None


def _check_wreath_elements(flavor, seed):
    # (a; pi) = (a_1; 1) ... (a_k; 1) (1; pi), each factor materialized by
    # the embedding the wreath generators use
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    spec = WreathSpec(s3, 2, c2, flavor)
    rng = np.random.default_rng(seed)
    swap = Permutation(np.array([1, 0]))
    for _ in range(25):
        base = [s3.group.random_element(rng) for _ in range(2)]
        top = swap if rng.integers(2) else Permutation.identity(2)
        product = coordinate_embedding(spec, 0, base[0]) * \
            coordinate_embedding(spec, 1, base[1]) * top_embedding(spec, top)
        w = spec.element(base, top)
        assert w.to_permutation() == product
        assert w.order() == product.order()


def test_wreath_element_arithmetic():
    _check_wreath_elements("imprimitive", 11)


def test_wreath_product_flavor_materialization():
    _check_wreath_elements("product", 5)


@pytest.mark.parametrize("flavor, message", [
    ("product", "wreath product order 1296, expected 72"),
    ("imprimitive", "wreath product order 36, expected 72"),
])
def test_wrong_top_embedding_fails_the_order_certificate(monkeypatch, flavor,
                                                         message):
    # a top generator embedded as the transposition of points 0 and 1; no
    # caller budget switches the order check off
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    monkeypatch.setattr(
        zoo, "top_embedding",
        lambda spec, pi: Permutation.from_cycles(spec.degree, [(0, 1)]))
    with pytest.raises(CertificateError, match=message):
        wreath(WreathSpec(s3, 2, c2, flavor),
               budgets=Budgets(exhaustive=1, degree=1))


def test_wreath_socle_declaration():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "imprimitive"), declare_socle=True)
    socle = W.declared_socle
    assert socle is not None
    assert socle.subgroup.order() == 36
    assert len(socle.factors) == 2
    socle.validate(W)


def test_wreath_socle_past_the_chain_degree_is_refused():
    # C150 wr C2 in the product action has degree 22,500, above
    # config.CHAIN_DEGREE: the group builds without its order certificate,
    # but validating a declared socle needs chains, so it is refused
    spec = WreathSpec(natural_action(cyclic(150), "C150"), 2, cyclic(2),
                      "product")
    assert spec.degree == 22_500
    assert wreath(spec).degree == 22_500
    with pytest.raises(BudgetExceeded, match="stabilizer chain at degree"):
        wreath(spec, declare_socle=True)


def test_socle_decl_rejects_bad_factorization():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "imprimitive"), declare_socle=True)
    socle = W.declared_socle
    bad = SocleDecl([socle.factors[0], socle.factors[0]])
    with pytest.raises(ValueError):
        bad.validate(W)


def test_socle_decl_order_check_backs_the_support_checks(monkeypatch):
    # past the commutation check the join is a quotient of the factors'
    # direct product; with that check off, [F, F] for a nonabelian F still
    # fails the order check, as its join is F alone
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "imprimitive"), declare_socle=True)
    F = W.declared_socle.factors[0]
    monkeypatch.setattr(SocleDecl, "_check_commuting", lambda self: None)
    with pytest.raises(ValueError, match="do not decompose the socle"):
        SocleDecl([F, F]).validate(W)


def test_socle_decl_must_be_normal():
    # one transposition per block of S3 wr C2 on 6 points: disjoint
    # supports, order 2 * 2, but the join is not normal
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    W = wreath(WreathSpec(natural_action(symmetric(3), "S3"), 2, c2,
                          "imprimitive"))
    bad = SocleDecl([PermGroup([Permutation.from_cycles(6, [(0, 1)])]),
                     PermGroup([Permutation.from_cycles(6, [(3, 4)])])])
    with pytest.raises(ValueError, match="not normal"):
        bad.validate(W)
    assert not W.group._closures  # only a proven socle bounds closures


def test_validated_socle_bounds_the_closures_of_its_elements(env):
    # validate keeps the join in the group's closure memo, so the closure
    # of a socle element is bounded by |L|^k, not |G|, and returns the
    # socle itself once its chain reaches that order
    W = wreath(WreathSpec(env.m11_on_12(), 2, env.top2(), "product"),
               declare_socle=True)
    G, socle = W.group, W.declared_socle
    assert list(G._closures.values()) == [socle.subgroup]
    a = socle.factors[0].generators[0]
    c = socle.factors[1].generators[1]
    for x in (a, a * c):
        assert G.normal_closure([x]) is socle.subgroup


def _product_socle():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "product"), declare_socle=True)
    return W, W.declared_socle


def test_socle_decl_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        SocleDecl([])


def test_socle_decl_needs_distinct_coordinates():
    # factors on one coordinate are refused when they do not commute, and
    # accepted when they do.  S3 wr C2 in the product action on 9 points:
    # the embedded (0 1 2) and (0 1) of coordinate 0 do not commute.  V4 x
    # V4 in the product action on 16 points: the two commuting factors of
    # the first coordinate's V4 join to their direct product, of order
    # 2 * 2, and it is normal
    W, _ = _product_socle()
    s3 = W.wreath.base_group
    factors = [PermGroup([coordinate_embedding(W.wreath, 0, a)])
               for a in s3.generators]
    assert s3.order() == 6 and len(factors) == 2
    with pytest.raises(ValueError, match="do not commute"):
        SocleDecl(factors).validate(W)

    v4 = natural_action(klein4(), "V4")
    spec = WreathSpec(v4, 2, PermGroup([], degree=2), "product")
    W = wreath(spec)
    factors = [PermGroup([coordinate_embedding(spec, 0, a)])
               for a in v4.group.generators]
    decl = SocleDecl(factors)
    decl.validate(W)
    assert decl.subgroup.order() == 4 and W.group.is_normal(decl.subgroup)


def test_socle_decl_factor_must_act_on_its_coordinate_alone():
    # on {0,1}^2, g: (a, b) -> (a + b, b) moves coordinate 0 only, but by
    # a map that reads coordinate 1, so it does not commute with
    # h: (a, b) -> (a, b + 1); their join is D8, not of order 2 * 2.  A
    # bounded join would stop at 4 and pass a V4 socle of that order
    g = Permutation.from_cycles(4, [(1, 3)])
    h = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    assert PermGroup([g, h]).order() == 8
    v4 = PermGroup([h, Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    A = GroupAction(v4, tuple(range(1, 5)), "V4 on {0,1}^2")
    decl = SocleDecl([PermGroup([g]), PermGroup([h])])
    with pytest.raises(ValueError, match="do not commute"):
        decl.validate(A)


@pytest.mark.parametrize("name", ["S3 imprimitive", "S3 product",
                                  "M11 on 22", "M11 on 144"])
def test_wreath_socle_join_is_the_product_of_its_factors(env, name):
    # each coordinate factor's generators are its base generators embedded
    # in that coordinate, and the join is generated by all of them in
    # coordinate order, of order |L|^k
    if name.startswith("S3"):
        spec = WreathSpec(natural_action(symmetric(3), "S3"), 2, cyclic(2),
                          name.split()[1])
        W = wreath(spec, declare_socle=True)
    elif name == "M11 on 22":
        spec = WreathSpec(env.m11_action(), 2, env.top2(), "imprimitive")
        W = env.get("w22", lambda: wreath(spec, declare_socle=True))
    else:
        spec, W = env.wreath144()
    socle = W.declared_socle
    embedded = [[coordinate_embedding(spec, i, a)
                 for a in spec.base_group.generators] for i in range(spec.k)]
    assert [list(F.generators) for F in socle.factors] == embedded
    assert list(socle.subgroup.generators) == [g for row in embedded
                                               for g in row]
    assert socle.subgroup.order() == spec.base_group.order() ** spec.k


def test_bounded_builds_take_their_proven_bounds(monkeypatch, env):
    # a coset image is a quotient of its parent, a search candidate lies
    # in the group searched, and a declared socle's join is a quotient of
    # the direct product of its commuting factors
    A = env.m11_on_12()
    assert A.group._bound == A.parent.parent_group.order() == 7920
    assert env.psl211()._bound == 7920
    built = []  # (generator keys, bound) of every group zoo makes

    class Recording(PermGroup):
        def __init__(self, generators, *args, bound=None, **kw):
            built.append(({g.key() for g in generators}, bound))
            super().__init__(generators, *args, bound=bound, **kw)

    W, socle = _product_socle()
    monkeypatch.setattr(zoo, "PermGroup", Recording)
    socle.validate(W)
    assert [bound for _, bound in built] == [6 * 6]
    # wreath builds its declared socle once: the factors' join, under the
    # product of their orders
    built.clear()
    W, socle = _product_socle()
    keys = {g.key() for F in socle.factors for g in F.generators}
    assert [bound for gens, bound in built if gens == keys] == [6 * 6]
    assert socle.subgroup.order() == 6 * 6


def test_assemble_stabilizer_orders():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    spec = WreathSpec(s3, 2, c2, "product")
    s2 = s3.group.point_stabilizer(0)
    H = assemble_stabilizer(spec, [s2, s2], c2)
    assert H.order() == 2 * 2 * 2
    H2 = assemble_stabilizer(spec, [s2, s3.group], PermGroup([], degree=2))
    assert H2.order() == 2 * 6
    with pytest.raises(ValueError):
        assemble_stabilizer(spec, [cyclic(5), s2], c2)


def test_wreath_spec_rejects_bad_flavor():
    s3 = natural_action(symmetric(3), "S3")
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    with pytest.raises(ValueError):
        WreathSpec(s3, 2, c2, "primitive")
    with pytest.raises(ValueError):
        WreathSpec(s3, 3, c2, "product")  # top degree mismatch
