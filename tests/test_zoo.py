import numpy as np
import pytest

from derangements import (GeneratorFileError, GroupAction, PermGroup,
                          Permutation, SocleDecl, WreathSpec,
                          assemble_stabilizer, borel_subgroup, coset_action,
                          format_generator_file, load_generators, m11,
                          mersenne_scenario, natural_action,
                          projective_line_action, subgroup_search, wreath)

from derangements.classes import exhaustive_class_partition
from derangements.zoo import _is_simple

from tests.conftest import alternating, cyclic, symmetric


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


def test_wreath_element_arithmetic():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    spec = WreathSpec(s3, 2, c2, "imprimitive")
    rng = np.random.default_rng(11)
    swap = Permutation(np.array([1, 0]))
    for _ in range(25):
        w1 = spec.element([s3.group.random_element(rng) for _ in range(2)],
                          swap if rng.integers(2) else Permutation.identity(2))
        w2 = spec.element([s3.group.random_element(rng) for _ in range(2)],
                          swap if rng.integers(2) else Permutation.identity(2))
        # decomposed arithmetic matches the materialized one
        assert (w1 * w2).to_permutation() == \
            w1.to_permutation() * w2.to_permutation()
        assert w1.inverse().to_permutation() == w1.to_permutation().inverse()
        assert w1.order() == w1.to_permutation().order()


def test_wreath_product_flavor_materialization():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    spec = WreathSpec(s3, 2, c2, "product")
    rng = np.random.default_rng(5)
    for _ in range(25):
        w1 = spec.element([s3.group.random_element(rng) for _ in range(2)],
                          Permutation(np.array([1, 0])))
        w2 = spec.element([s3.group.random_element(rng) for _ in range(2)],
                          Permutation.identity(2))
        assert (w1 * w2).to_permutation() == \
            w1.to_permutation() * w2.to_permutation()


def test_wreath_socle_declaration():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "imprimitive"), declare_socle=True)
    socle = W.declared_socle
    assert socle is not None
    assert socle.subgroup.order() == 36
    assert len(socle.factors) == 2
    socle.validate(W)


def test_socle_decl_rejects_bad_factorization():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3 = natural_action(symmetric(3), "S3")
    W = wreath(WreathSpec(s3, 2, c2, "imprimitive"), declare_socle=True)
    socle = W.declared_socle
    bad = SocleDecl(socle.subgroup, [socle.factors[0], socle.factors[0]])
    with pytest.raises(ValueError):
        bad.validate(W)


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
