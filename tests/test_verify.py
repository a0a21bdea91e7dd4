import dataclasses
import json
import random
from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st

from spinblocks.abacus import block_enum, core_weight, ell, is_bar_core
from spinblocks.chars import REFINED, SUPER, CharSpace, CharVector, PairVector, runner_tuples
from spinblocks.exceptions import DomainError, SpaceMismatch
from spinblocks.hnf import lattice_member, row_echelon_basis
from spinblocks.partitions import epsilon_exponent
from spinblocks.rouquier import generate
from spinblocks.sqrt2 import Sqrt2Scalar
from spinblocks.verify import (
    CHECKS,
    TREE_SUITE_COUNT,
    NmvLattice,
    Weight,
    _label_weight,
    check_htoj,
    compositions,
    htoj_sides,
    hyp_coeffs,
    nmv_basis,
    phi,
    restrict_recursion_sides,
    run_check,
)
from test_chars import eps_tuple, refined_labels, unrefine


def refined_unit(space, label, sign):
    return CharVector.make(space, {(label, sign): 1}, basis="refined")


def test_phi_examples():
    space = CharSpace.l_space((2, 1), 5, 1)
    assert phi(refined_unit(space, (0,), 1)) == 1
    assert phi(CharVector.unit(space, (1,))) == -2
    assert phi(CharVector.unit(space, (2,))) == 2


def test_phi_kernel_fails_on_the_zero_functional(monkeypatch):
    """The zero functional kills every generator too; phi-kernel must still
    fail it, since phi is nonzero on every unit label of the L space."""
    import spinblocks.verify as V

    monkeypatch.setattr(V, "_label_weight", lambda e_base, t: 0)
    report = run_check("phi-kernel", rho=(2, 1), p=5, d=1)
    assert report.passed is False
    assert report.witness == [{"unit": (j,), "phi": 0} for j in range(3)]
    assert (report.lhs, report.rhs) == (2, 0)


def test_phi_space_guard():
    H = CharSpace.h_space((2, 1), 5, 1)
    with pytest.raises(SpaceMismatch):
        phi(CharVector.unit(H, ((2, 1), 0)))


def test_nmv_generators_weight_one_example():
    space = CharSpace.l_space((2, 1), 5, 1)
    lattice = nmv_basis(space)
    got = {g.coeffs for g in lattice.generators}
    one = Sqrt2Scalar(1, 0)
    expected = {
        CharVector.make(
            space, {((0,), 1): one, ((0,), -1): one, ((1,), 0): one}, "refined"
        ).coeffs,
        CharVector.make(space, {((1,), 0): one, ((2,), 0): one}, "refined").coeffs,
    }
    assert got == expected


def test_nmv_generator_families_h_space():
    # mu even: the 0-1 edge splits into two sign choices
    rho = generate(5, 1, "even", 1)[0]
    space = CharSpace.h_space(rho, 5, 1)
    lattice = nmv_basis(space)
    signatures = sorted(
        tuple(sorted((label[1], c.a) for label, c in g.coeffs))
        for g in lattice.generators
    )
    # edges: (0,1) twice signed, (1,2) twice signed matched
    assert len(lattice.generators) == 4


def old_generators(space):
    """The generators as nmv_basis built them before it kept edge rows: one
    CharVector per projective edge and sign choice, made straight from the
    sign rule, in edge order, with parities counted on the whole epsilon
    tuple.  An oracle for the lazily built generators."""
    L = ell(space.p)
    if space.kind == "L":
        edges = [
            (others[:k] + (jk,) + others[k:], others[:k] + (jk + 1,) + others[k:])
            for k in range(space.d)
            for others in runner_tuples(space.p, space.d - 1)
            for jk in range(L)
        ]
    else:
        mus = block_enum(space.rho, space.p, space.d - 1)
        edges = [((mu, j), (mu, j + 1)) for mu in mus for j in range(L)]
    mk = lambda m: CharVector.make(space, m, REFINED)
    odd = lambda label: epsilon_exponent(eps_tuple(space, label)) == 1
    out = []
    for low, high in edges:
        low_odd, high_odd = odd(low), odd(high)
        if low_odd and high_odd:
            out.extend(mk({(low, s): 1, (high, s): 1}) for s in (1, -1))
        elif not low_odd and not high_odd:
            out.append(mk({(low, 0): 1, (high, 0): 1}))
        elif not low_odd:
            out.extend(mk({(low, 0): 1, (high, s): 1}) for s in (1, -1))
        else:
            out.append(mk({(low, 1): 1, (low, -1): 1, (high, 0): 1}))
    return out


@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7) for d in (1, 2, 3)])
def test_generators_from_edge_rows_match_the_old_construction(p, d):
    for parity in ("even", "odd"):
        rho = generate(p, d, parity, 1)[0]
        for space in (CharSpace.l_space(rho, p, d), CharSpace.h_space(rho, p, d)):
            lattice = nmv_basis(space)
            assert lattice.generators == old_generators(space)
            assert len(lattice.edge_rows) == len(lattice.generators)


def test_phi_kernel_reports_a_planted_row_as_its_vector(monkeypatch):
    """A generator row with one label dropped is no longer killed by phi;
    the witness is the CharVector of that row, with phi of it."""
    import spinblocks.verify as V

    real, planted = V._pair_generators, {}

    def pair_generators(*edge):
        rows = real(*edge)
        k = next((i for i, row in enumerate(rows) if len(row) == 3), None)
        if k is not None and not planted:
            planted["row"] = rows[k] = rows[k][:2]
        return rows

    monkeypatch.setattr(V, "_pair_generators", pair_generators)
    report = run_check("phi-kernel", rho=(2, 1), p=5, d=2)
    space = CharSpace.l_space((2, 1), 5, 2)
    vector = CharVector.make(space, dict.fromkeys(planted["row"], 1), "refined")
    value = phi(vector)
    assert value != 0
    assert report.passed is False
    assert json.loads(json.dumps(report.to_json()))["witness"] == [
        {"generator": vector.rows(), "phi": {"a": value.a, "b": value.b}}
    ]


def listed_phi_kernel(rho, p, d):
    """phi-kernel as it listed every unit label and generator row of the L
    space, reading `_label_weight` through the module: the orbit route's
    oracle."""
    import spinblocks.verify as V

    space = CharSpace.l_space(rho, p, d)
    lattice, e_rho = nmv_basis(space), epsilon_exponent((space.rho,))
    table = {t: V._label_weight(e_rho, t) for t in space.labels()}
    failures = [{"unit": t, "phi": value} for t, value in table.items() if value == 0]
    for k, row in enumerate(lattice.edge_rows):
        value = Sqrt2Scalar.of(sum(table[label] for label, _sign in row))
        if value != 0:
            failures.append({"generator": lattice.generators[k].rows(), "phi": V._jsonable(value)})
    return V.CheckReport(
        "phi-kernel", {"rho": space.rho, "p": p, "d": d},
        lhs=len(lattice.edge_rows), rhs=0, witness=failures or None,
    )


# every (p, d) of p in {3, 5, 7, 11} whose L space is inside the label budget
PHI_GRID = [(p, d) for p in (3, 5, 7, 11) for d in range(1, 13) if (ell(p) + 1) ** d <= 4096]


@pytest.mark.parametrize("p,d", PHI_GRID)
def test_phi_kernel_on_slot_orbits_matches_the_listing(p, d):
    """Over a core of each parity the orbit report is the listing's, byte for
    byte: the same verdict, no witness and the closed-form row count."""
    for parity in ("even", "odd"):
        rho = generate(p, d, parity, 1)[0]
        report = run_check("phi-kernel", rho=rho, p=p, d=d)
        assert report.passed and report.to_json() == listed_phi_kernel(rho, p, d).to_json()


PLANTED_WEIGHTS = {
    "zero": lambda real: lambda e, t: 0,
    "runner 1 flipped": lambda real: lambda e, t: real(e, t) * (-1) ** t.count(1),
    "exponent one up": lambda real: lambda e, t: real(e + 1, t) if any(t) else real(e, t),
    "unsigned": lambda real: lambda e, t: abs(real(e, t)),
}


@pytest.mark.parametrize("plant", sorted(PLANTED_WEIGHTS))
@pytest.mark.parametrize("p,d", [(3, 4), (5, 2), (5, 3), (7, 2)])
def test_a_planted_label_weight_fails_the_orbits_and_the_listing(monkeypatch, plant, p, d):
    """Each slot-symmetric defect in `_label_weight` fails both routes, with
    the same row count."""
    import spinblocks.verify as V

    monkeypatch.setattr(V, "_label_weight", PLANTED_WEIGHTS[plant](V._label_weight))
    for parity in ("even", "odd"):
        rho = generate(p, d, parity, 1)[0]
        report, listed = run_check("phi-kernel", rho=rho, p=p, d=d), listed_phi_kernel(rho, p, d)
        assert not report.passed and not listed.passed and report.lhs == listed.lhs


@given(
    p=st.sampled_from([3, 5, 7, 11]),
    rho=st.sampled_from([(), (1,), (2, 1), (4, 1), (3, 2, 1)]),
    data=st.data(),
)
def test_label_weight_and_parity_ignore_slot_order(p, rho, data):
    """The orbit route of phi-kernel sees one ordering of each tuple, so
    neither reading may depend on slot order.  An L space needs a bar-core,
    and (2, 1) is none at p = 3."""
    assume(is_bar_core(rho, p))
    d = data.draw(st.integers(1, max(d for q, d in PHI_GRID if q == p)))
    t = tuple(data.draw(st.lists(st.integers(0, ell(p)), min_size=d, max_size=d)))
    shuffled = tuple(data.draw(st.permutations(t)))
    space, e_rho = CharSpace.l_space(rho, p, d), epsilon_exponent((rho,))
    assert _label_weight(e_rho, shuffled) == _label_weight(e_rho, t)
    assert space.is_odd(shuffled) == space.is_odd(t)


@pytest.mark.parametrize("p,d", [(5, 1), (5, 2), (3, 2), (7, 1)])
def test_phi_kills_lattice(p, d):
    for parity in ("even", "odd"):
        rho = generate(p, d, parity, 1)[0]
        report = run_check("phi-kernel", rho=rho, p=p, d=d)
        assert report.passed, report.to_json()


def test_htoj_worked_example():
    lhs, rhs = htoj_sides((5, 2, 1), 5)
    mu = (2, 1)
    assert lhs.as_dict() == {
        (mu, 0): Sqrt2Scalar(5, 0),
        (mu, 1): Sqrt2Scalar(6, 0),
        (mu, 2): Sqrt2Scalar(2, 0),
    }
    assert rhs.as_dict() == {(mu, 0): Sqrt2Scalar(1, 0)}
    # the difference is 4 g1 + 2 g2 in the generator basis
    space = lhs.space
    lattice = nmv_basis(space)
    diff = lhs - rhs
    g1 = CharVector.make(
        space,
        {((mu, 0), 1): 1, ((mu, 0), -1): 1, ((mu, 1), 0): 1},
        basis="refined",
    )
    g2 = CharVector.make(
        space, {((mu, 1), 0): 1, ((mu, 2), 0): 1}, basis="refined"
    )
    assert diff.refine().as_dict() == (g1.scale(4) + g2.scale(2)).as_dict()
    assert lattice.member(diff)
    assert lattice.member_oracle(diff)


def test_htoj_detects_perturbation():
    lhs, rhs = htoj_sides((5, 2, 1), 5)
    lattice = nmv_basis(lhs.space)
    diff = lhs - rhs
    # knocking one unit off a single supercharacter leaves the lattice
    bad = diff - CharVector.unit(diff.space, ((2, 1), 2))
    assert not lattice.member(bad)
    assert not lattice.member_oracle(bad)


def dense_route(lattice):
    """Third membership route, for tests only: flatten over every refined
    label of the space and reduce against one echelon basis of all the
    generators, with no split into components."""
    labels = refined_labels(lattice.space)

    def flatten(v):
        coeffs = v.refine().as_dict()
        out = []
        for label in labels:
            c = coeffs.pop(label, Sqrt2Scalar(0, 0))
            out.extend((c.a, c.b))
        assert not coeffs, f"labels outside the space: {sorted(coeffs)}"
        return out

    basis = row_echelon_basis([flatten(g) for g in lattice.generators])
    return lambda v: lattice_member(basis, flatten(v))


SMALL_GRID = [(p, d) for p in (3, 5, 7) for d in (1, 2, 3)]


@pytest.mark.parametrize("p,d", SMALL_GRID)
def test_membership_routes_agree(p, d):
    """Per-component echelon, dense echelon and per-component column Hermite
    solve agree on every htoj difference, on random integer combinations of
    generators, and on those combinations plus one unit coefficient or plus
    sqrt(2) times a generator."""
    rng = random.Random(1000 * p + d)
    for parity in ("even", "odd"):
        rho = generate(p, d, parity, 1)[0]
        h_space = CharSpace.h_space(rho, p, d)
        for lattice in (nmv_basis(h_space), nmv_basis(CharSpace.l_space(rho, p, d))):
            dense = dense_route(lattice)

            def routes(v):
                return lattice.member(v), dense(v), lattice.member_oracle(v)

            if lattice.space == h_space:
                for lam in block_enum(rho, p, d):
                    lhs, rhs = htoj_sides(lam, p)
                    assert routes(lhs - rhs) == (True, True, True), lam
            labels = refined_labels(lattice.space)
            for _ in range(4):
                combo = CharVector.make(lattice.space, {}, "refined")
                for g in rng.sample(lattice.generators, min(6, len(lattice.generators))):
                    combo = combo + g.scale(rng.randint(-3, 3))
                assert routes(combo) == (True, True, True)
                # a unit leaves the lattice: the alternating functional of
                # its component is nonzero on it and zero on every generator
                unit = CharVector.make(lattice.space, {rng.choice(labels): 1}, "refined")
                assert routes(combo + unit) == (False, False, False)
                # the generators are integral, so a sqrt(2) part leaves it too
                root = rng.choice(lattice.generators).scale(Sqrt2Scalar(0, 1))
                assert routes(combo + root) == (False, False, False)


def echelon_route(lattice):
    """The per-component echelon route, for tests only: write the refined
    vector into each touched component at its positions in `split`, and
    reduce it against the echelon basis of the component's generator rows,
    built on first use."""
    bases = {}

    def member(v):
        index, sizes = lattice.split
        parts = {}
        for label, c in v.refine().coeffs:
            comp, i = index[label]
            parts.setdefault(comp, [0] * (2 * sizes[comp]))[2 * i : 2 * i + 2] = c.a, c.b
        for comp in parts:
            if comp not in bases:
                bases[comp] = row_echelon_basis(lattice.rows[comp])
        return all(lattice_member(bases[comp], vec) for comp, vec in parts.items())

    return member


LATTICE_GRID = [
    (kind, p, d, parity)
    for kind in ("L", "H")
    for p in (3, 5, 7, 11)
    for d in range(1, 3 if p == 11 else 4)
    for parity in ("even", "odd")
]
LATTICES = {}  # (kind, p, d, parity) -> (lattice, echelon route, dense route)


def lattice_of(kind, p, d, parity):
    if (kind, p, d, parity) not in LATTICES:
        space = (CharSpace.l_space if kind == "L" else CharSpace.h_space)(
            generate(p, d, parity, 1)[0], p, d
        )
        lattice = nmv_basis(space)
        LATTICES[kind, p, d, parity] = lattice, echelon_route(lattice), dense_route(lattice)
    return LATTICES[kind, p, d, parity]


def all_zero(space, label):
    """Whether label is its component's all-zero runner label: (mu, 0) in
    an H space, (0, ..., 0) in an L space."""
    return not any(label[1:] if space.kind == "H" else label)


def swap_signs(v):
    return CharVector.make(v.space, {(l, -s): c for (l, s), c in v.coeffs}, REFINED)


NONZERO = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: ab != (0, 0))
UNEQUAL = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda t: t[0] != t[1])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_tree_functionals_agree_with_the_echelon_routes_and_the_oracle(data):
    """The weighted sums of `member`, the per-component echelon, the dense
    echelon and the column Hermite oracle give one verdict on members of an
    L or H lattice, in either basis, and on members plus a unit carrying
    a + b*sqrt(2), plus sqrt(2) times a member, or with unequal halves on
    an odd label.  A super-basis member is a refined member plus its sign
    swap (the generators are closed under it), whose halves agree.  Unequal
    halves at the all-zero runner label leave the lattice; at any other
    odd label the echelon and the oracle decide."""
    lattice, echelon, dense = lattice_of(*data.draw(st.sampled_from(LATTICE_GRID)))
    space, gens = lattice.space, lattice.generators
    basis = data.draw(st.sampled_from([REFINED, SUPER]))

    def member_of(picks):
        v = CharVector.make(space, {}, REFINED)
        for k, c in picks:
            v = v + gens[k].scale(c)
        return v if basis == REFINED else unrefine(v + swap_signs(v))

    pick = st.tuples(st.integers(0, len(gens) - 1), st.integers(-3, 3))
    v = member_of(data.draw(st.lists(pick, max_size=6)))
    kind = data.draw(st.sampled_from(["member", "unit", "root", "halves"]))
    expected = kind == "member"
    if kind == "unit":
        labels = refined_labels(space) if basis == REFINED else space.labels()
        a, b = data.draw(NONZERO)
        label = data.draw(st.sampled_from(labels))
        v = v + CharVector.make(space, {label: Sqrt2Scalar(a, b)}, basis)
    elif kind == "root":
        v = v + member_of([data.draw(pick.filter(lambda kc: kc[1]))]).scale(Sqrt2Scalar(0, 1))
    elif kind == "halves":
        odd = [l for l in space.labels() if space.is_odd(l)]
        if not odd:
            return
        label = data.draw(st.sampled_from(odd))
        plus, minus = data.draw(st.one_of(st.integers(1, 3).map(lambda c: (c, -c)), UNEQUAL))
        v = v.refine() + CharVector.make(space, {(label, 1): plus, (label, -1): minus}, REFINED)
        expected = False if all_zero(space, label) and plus != minus else echelon(v)
    assert (lattice.member(v), echelon(v), dense(v), lattice.member_oracle(v)) == (expected,) * 4


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pair_membership_agrees_with_the_oracle(data):
    """The pair core that `member` and `htoj` read gives the oracle's verdict
    on {label: (a, b)}: members in either basis, plus a unit carrying
    a + b*sqrt(2) or plus sqrt(2) times a member, with zero pairs mixed in
    as htoj's differences carry them."""
    lattice = lattice_of(*data.draw(st.sampled_from(LATTICE_GRID)))[0]
    space, gens = lattice.space, lattice.generators
    basis = data.draw(st.sampled_from([REFINED, SUPER]))
    labels = refined_labels(space) if basis == REFINED else space.labels()
    pick = st.tuples(st.integers(0, len(gens) - 1), st.integers(-3, 3))
    v = CharVector.make(space, {}, REFINED)
    for k, c in data.draw(st.lists(pick, max_size=6)):
        v = v + gens[k].scale(c)
    kind = data.draw(st.sampled_from(["member", "unit", "root"]))
    if kind == "root":
        v = v + data.draw(st.sampled_from(gens)).scale(Sqrt2Scalar(0, 1))
    if basis == SUPER:
        v = unrefine(v + swap_signs(v))
    if kind == "unit":
        a, b = data.draw(NONZERO)
        v = v + CharVector.make(space, {data.draw(st.sampled_from(labels)): Sqrt2Scalar(a, b)}, basis)
    pairs = dict.fromkeys(data.draw(st.lists(st.sampled_from(labels), max_size=4)), (0, 0))
    pairs.update((label, (c.a, c.b)) for label, c in v.coeffs)
    verdict = lattice._member_pairs(space, pairs, basis)
    assert verdict == lattice.member_oracle(v) == lattice.member(v)
    assert verdict == (kind == "member")


def old_weights(space):
    """`NmvLattice.weights` as it was built before its one pass per base:
    label by label in refined order, each label's parity and its base's
    epsilon exponent derived afresh.  An oracle for the keys of the table,
    their order and the order of each label's terms."""
    tables = {REFINED: {}, SUPER: {}}
    for label, sign in refined_labels(space):
        base, t = (label[0], label[1:]) if space.kind == "H" else (space.rho, label)
        terms = ((base, _label_weight(epsilon_exponent((base,)), t)),)
        if sign and not any(t):
            terms += (((base, "halves"), sign),)
        tables[REFINED][label, sign] = terms
        tables[SUPER][label] = tables[SUPER].get(label, ()) + terms
    return tables


@pytest.mark.parametrize("kind,p,d,parity", LATTICE_GRID)
def test_weights_table_matches_the_per_label_oracle(kind, p, d, parity):
    space = (CharSpace.l_space if kind == "L" else CharSpace.h_space)(
        generate(p, d, parity, 1)[0], p, d
    )
    lattice, expected = nmv_basis(space), old_weights(space)
    for basis in (REFINED, SUPER):
        assert list(lattice.weights[basis].items()) == list(expected[basis].items())
    assert "edge_rows" not in vars(lattice)  # the table reads no row


def _spy_edge_rows(monkeypatch) -> list:
    """Record the space of each lattice that lists its edge rows."""
    import spinblocks.verify as V

    real, built = V.NmvLattice.edge_rows.func, []

    def edge_rows(self):
        built.append(self.space)
        return real(self)

    spy = cached_property(edge_rows)
    spy.__set_name__(V.NmvLattice, "edge_rows")
    monkeypatch.setattr(V.NmvLattice, "edge_rows", spy)
    return built


@pytest.mark.parametrize("oracle", [False, True])
def test_htoj_lists_edge_rows_only_for_the_oracle(monkeypatch, capsys, oracle):
    """`member` reads no row, so a single htoj lists none; the oracle lists
    its lattice's rows once, however many differences of one open weight it
    solves."""
    from spinblocks import cli

    built = _spy_edge_rows(monkeypatch)
    rho, p, d = generate(7, 3, "odd", 1)[0], 7, 3
    block, space = block_enum(rho, p, d), CharSpace.h_space(rho, p, d)
    assert check_htoj(block[0], p, oracle=oracle).passed
    assert built == [space] * oracle
    built.clear()
    argv = ["verify", "htoj", "--p", str(p), "--lambda", ",".join(map(str, block[-1]))]
    assert cli.main(argv + ["--oracle"] * oracle) == 0
    capsys.readouterr()
    assert built == [space] * oracle
    built.clear()
    with Weight(rho, p, d):
        assert all(check_htoj(lam, p, oracle=oracle).passed for lam in block)
    assert built == [space] * oracle


@pytest.mark.parametrize("oracle", [False, True])
def test_verify_all_lists_edge_rows_only_for_tree_suite_and_the_oracle(monkeypatch, capsys, oracle):
    """Without --oracle `verify all` lists only the rows of the weight-1 L
    spaces that tree-suite compares; phi-kernel evaluates slot orbits and
    lists none.  With --oracle, also each H lattice's rows, once."""
    from spinblocks import cli

    built = _spy_edge_rows(monkeypatch)
    p, dmax = 5, 3
    assert cli.main(["verify", "all", "--p", str(p), "--dmax", str(dmax)] + ["--oracle"] * oracle) == 0
    capsys.readouterr()
    expected = [
        CharSpace.l_space(rho, p, 1)
        for parity in ("even", "odd")
        for rho in generate(p, 1, parity, TREE_SUITE_COUNT)
    ]
    for parity in ("even", "odd"):
        for d in range(1, dmax + 1):
            expected += [CharSpace.h_space(generate(p, d, parity, 1)[0], p, d)] * oracle
    assert built == expected


@pytest.mark.parametrize("space", [CharSpace.block((2, 1), 5, 1), CharSpace.full(3)])
def test_nmv_basis_refuses_a_block_or_full_space_when_called(space):
    with pytest.raises(SpaceMismatch, match="live on L or H spaces"):
        nmv_basis(space)


@pytest.mark.parametrize("p,d", SMALL_GRID)
def test_h_components_are_single_mu(p, d):
    """The generators touch every refined label and none joins two mu, so
    one component per mu loses no generator; an L space is one component."""
    for parity in ("even", "odd"):
        rho = generate(p, d, parity, 1)[0]
        lattice = nmv_basis(CharSpace.h_space(rho, p, d))
        touched = set()
        for g in lattice.generators:
            support = g.refine().support()
            assert len({mu for (mu, _j), _sign in support}) == 1, g
            touched.update(support)
        assert sorted(map(repr, touched)) == sorted(map(repr, refined_labels(lattice.space)))
        sizes = lattice.split[1]
        assert len(sizes) == len(block_enum(rho, p, d - 1))
        assert all(size <= 2 * (ell(p) + 1) for size in sizes)
        assert len(nmv_basis(CharSpace.l_space(rho, p, d)).split[1]) == 1


def test_membership_rejects_labels_outside_the_space():
    lhs, rhs = htoj_sides((5, 2, 1), 5)
    lattice = nmv_basis(lhs.space)
    assert lhs.space.is_odd(((2, 1), 0))
    stray = CharVector.make(lhs.space, {(((2, 1), 0), 0): 1}, "refined")
    with pytest.raises(ValueError, match="outside the space"):
        lattice.member(stray)
    with pytest.raises(ValueError, match="outside the space"):
        lattice.member_oracle(stray)
    with pytest.raises(SpaceMismatch):
        lattice.member(CharVector.unit(CharSpace.h_space((2, 1), 5, 2), ((7, 1), 0)))


def test_membership_fails_on_a_label_no_generator_touches():
    space = CharSpace.h_space((2, 1), 5, 1)
    lattice = NmvLattice(space)
    lattice.edge_rows = [((((2, 1), 1), 0), (((2, 1), 2), 0))]
    g = CharVector.make(space, {(((2, 1), 1), 0): 1, (((2, 1), 2), 0): 1}, "refined")
    assert lattice.generators == [g]
    assert lattice.member(g.scale(3)) and lattice.member_oracle(g.scale(3))
    lone = g.scale(3) + CharVector.make(space, {(((2, 1), 0), 1): 1}, "refined")
    assert not lattice.member(lone) and not lattice.member_oracle(lone)
    with pytest.raises(ValueError, match="outside the space"):
        lattice.member(lone + CharVector.make(space, {(((2, 1), 0), 0): 1}, "refined"))


MU0, MU1, MU2 = (((2, 1), j) for j in range(3))  # (2, 1) is odd: MU0 is a pair node


@pytest.mark.parametrize(
    "rows",
    [
        [((MU1, 0), (MU2, 0)), ((MU2, 0), (MU1, 0))],
        [((MU0, 1), (MU0, -1), (MU1, 0)), ((MU0, 1), (MU2, 0))],
        [((MU0, 1), (MU1, 0), (MU2, 0))],
    ],
    ids=["cycle", "pair-split", "three-nodes"],
)
def test_member_ignores_custom_rows_and_the_oracle_follows_them(rows):
    """`member` reads the labels, never the rows, so a lattice with custom
    rows (here a cycle, a split pair node and a three-node row) gets the
    verdicts of the true lattice; the oracle solves over the rows it is
    given."""
    space = CharSpace.h_space((2, 1), 5, 1)
    custom, true = NmvLattice(space), nmv_basis(space)
    custom.edge_rows = rows
    vectors = custom.generators + true.generators
    for g in vectors:
        assert custom.member(g) == true.member(g) == true.member_oracle(g)
        assert custom.member_oracle(g) == (g in custom.generators)
    assert any(custom.member(g) != custom.member_oracle(g) for g in vectors)


def _straddling_split(monkeypatch):
    """Move one label of a two-label generator into a component of its own,
    as a split that cut through a generator would."""
    import spinblocks.verify as V

    real = V.NmvLattice.split.func

    def split(self):
        index, sizes = real(self)
        label = next(g for g in self.generators if len(g.coeffs) > 1).coeffs[1][0]
        return {**index, label: (len(sizes), 0)}, sizes + [1]

    monkeypatch.setattr(V.NmvLattice, "split", property(split))


@pytest.mark.parametrize("oracle", [False, True])
def test_a_generator_straddling_components_is_an_internal_error(monkeypatch, capsys, oracle):
    """A straddling generator is an internal error of the oracle, which lays
    the generators out by the split (exit 3).  `member` reads no split, so
    without --oracle the same broken split leaves the verdict as it was."""
    from spinblocks import cli

    _straddling_split(monkeypatch)
    lhs, rhs = htoj_sides((5, 2, 1), 5)
    lattice = nmv_basis(lhs.space)
    assert lattice.member(lhs - rhs)
    if oracle:
        with pytest.raises(AssertionError, match="straddles"):
            lattice.member_oracle(lhs - rhs)
    argv = ["verify", "htoj", "--p", "5", "--lambda", "5,2,1"] + ["--oracle"] * oracle
    assert cli.main(argv) == (3 if oracle else 0)
    out = capsys.readouterr()
    if oracle:
        assert out.out == "" and out.err.startswith("internal error: generator")
    else:
        assert json.loads(out.out)["verdicts"] == {"htoj": "pass"} and out.err == ""


def test_a_flipped_runner_sign_in_the_shared_weights_fails_phi_kernel_and_htoj(monkeypatch, capsys):
    """phi, phi-kernel and `member` read one weight helper.  With runner 1's
    sign flipped there, phi no longer kills the generators and `member`
    refuses true htoj differences: `verify all` fails exactly those two
    checks, and with --oracle every failing htoj reports that `member` and
    the oracle disagree."""
    import spinblocks.verify as V
    from spinblocks import cli

    real = V._label_weight
    monkeypatch.setattr(V, "_label_weight", lambda e, t: real(e, t) * (-1) ** t.count(1))
    for oracle in (False, True):
        code = cli.main(["verify", "all", "--p", "5", "--dmax", "3"] + ["--oracle"] * oracle)
        report = json.loads(capsys.readouterr().out)
        failed = {key.split()[0] for key, verdict in report["verdicts"].items() if verdict == "fail"}
        assert (code, failed) == (1, {"phi-kernel", "htoj"})
        htoj = [f["witness"] for f in report["outputs"]["failures"] if f["check"] == "htoj"]
        if oracle:
            assert all(w == {"disagreement": {"member": False, "oracle": True}} for w in htoj)
        else:
            assert all("difference" in w for w in htoj)


def test_runner_one_planted_even_fails_five_checks(monkeypatch, capsys):
    """Every runner epsilon reads abacus.runner_parity.  With runner 1
    planted even there, `verify all` fails the checks that compare a closed
    form with a route that never reads it (tableaux, quotient recursion, the
    M action, the weight-one Brauer tree) and hyp-nonneg, whose coefficients
    leave Z[sqrt(2)].  htog-adjoint and phi-kernel read it on both sides."""
    import spinblocks.verify as V
    from spinblocks import abacus, chars, cli, stembridge

    real = abacus.runner_parity
    for module in (abacus, chars, stembridge, V):
        monkeypatch.setattr(module, "runner_parity", lambda j: 0 if j == 1 else real(j))
    code = cli.main(["verify", "all", "--p", "5", "--dmax", "3"])
    report = json.loads(capsys.readouterr().out)
    failed = {key.split()[0] for key, verdict in report["verdicts"].items() if verdict == "fail"}
    assert (code, failed) == (
        1, {"htoj", "hyp-nonneg", "restrict-recursion", "stembridge-cross", "tree-suite"}
    )


def test_an_unreduced_tuple_exponent_fails_hyp_nonneg(monkeypatch, capsys):
    """_hyp_coeffs with eps_(rho,dcomp)'s exponent left unreduced mod 2 scales
    every coefficient of a dcomp by 2^(odd // 2), odd the number of odd
    partitions in the tuple; they stay positive integers, and only the
    square-sum identity of hyp-nonneg sees it, where d - dcomp_0 >= 2."""
    import spinblocks.verify as V
    from spinblocks import cli
    from spinblocks.abacus import runner_label
    from spinblocks.partitions import is_odd_partition

    real = V._hyp_coeffs

    def unreduced(rho, p, dcomp, part):
        runners = tuple(runner_label(p, j) for j, x in enumerate(dcomp) for _ in range(x))
        odd = sum(map(is_odd_partition, (tuple(rho),) + runners))
        return real(rho, p, dcomp, part).scale(2 ** (odd // 2))

    monkeypatch.setattr(V, "_hyp_coeffs", unreduced)
    code = cli.main(["verify", "all", "--p", "5", "--dmax", "4"])
    report = json.loads(capsys.readouterr().out)
    failed = {key.split()[0] for key, verdict in report["verdicts"].items() if verdict == "fail"}
    assert (code, failed) == (1, {"hyp-nonneg"})
    witnesses = [w for f in report["outputs"]["failures"] for w in f["witness"]]
    assert witnesses
    assert all(w["squares"] in (4 * w["expected"], 16 * w["expected"]) for w in witnesses)


def test_an_identity_m_action_fails_htoj_at_p_7_but_not_at_p_5(monkeypatch, capsys):
    """README's claim, planted in the pair core htoj reads: with the M action
    the identity, `verify all` fails htoj alone at p = 7 and passes at p = 5,
    where m_action(v) - v lies in the H lattice for each restricted v."""
    import spinblocks.verify as V
    from spinblocks import cli

    monkeypatch.setattr(V, "_m_action_pairs", lambda space, items: dict(items))
    assert cli.main(["verify", "all", "--p", "7", "--dmax", "3"]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert {key.split()[0] for key, verdict in verdicts.items() if verdict == "fail"} == {"htoj"}
    assert cli.main(["verify", "all", "--p", "5", "--dmax", "4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("k", range(ell(7) + 1))
def test_htoj_alone_catches_a_restriction_that_drops_a_runner(monkeypatch, k):
    """htoj's closed form lists each runner's removals itself, not off the
    restriction.  With _rock_branch's restriction dropping runner k's
    removals, check_htoj alone fails exactly the labels with a removal there."""
    import spinblocks.verify as V
    from spinblocks.abacus import _neighbors

    real, p = V._rock_branch, 7

    def dropped(part, p, j, direction, moves):
        gone = set(_neighbors(part, p, k, "remove"))
        return tuple((l, c) for l, c in real(part, p, j, direction, moves) if l[0] not in gone)

    monkeypatch.setattr(V, "_rock_branch", dropped)
    for d in (1, 2, 3):
        for parity in ("even", "odd"):
            block = block_enum(generate(p, d, parity, 1)[0], p, d)
            failed = [lam for lam in block if not check_htoj(lam, p).passed]
            assert failed == [lam for lam in block if _neighbors(lam, p, k, "remove")]
            assert failed, (d, parity)


def _drop_moves(monkeypatch, k, direction):
    """Plant a _moves without runner k's moves in one direction; the block BFS keeps them."""
    import spinblocks.verify as V
    from spinblocks import abacus, stembridge

    real = abacus._moves

    def dropped(lam, p, way):
        table = real(lam, p, way)
        return table[:k] + ((),) + table[k + 1 :] if way == direction else table

    for module in (stembridge, V):
        monkeypatch.setattr(module, "_moves", dropped)


@pytest.mark.parametrize("direction, caught", [
    ("remove", {"htog-adjoint", "restrict-recursion"}),
    ("add", {"htog-adjoint", "stembridge-cross"}),
])
@pytest.mark.parametrize("k", range(ell(7) + 1))
def test_a_move_table_that_drops_a_runner_fails_two_checks(monkeypatch, capsys, direction, caught, k):
    """With the checks' _moves dropping runner k's moves in one direction
    (the block BFS keeps the full table), `verify all --p 7 --dmax 3` fails
    exactly two checks: dropped removals unbalance htog-adjoint's
    restriction against its induction and leave restrict-recursion's runner-k
    sum short; dropped additions unbalance htog-adjoint the other way and
    leave stembridge-cross's induction short of the tableaux.  htoj sees
    neither: its restriction and its closed form read the same removal
    table, and it reads no additions.  That was so when both read
    _neighbors too."""
    from spinblocks import cli

    _drop_moves(monkeypatch, k, direction)
    code = cli.main(["verify", "all", "--p", "7", "--dmax", "3"])
    report = json.loads(capsys.readouterr().out)
    failed = {key.split()[0] for key, verdict in report["verdicts"].items() if verdict == "fail"}
    assert (code, failed) == (1, caught)


def test_a_tableau_exponent_one_too_high_fails_stembridge_cross(monkeypatch, capsys):
    """With the tableau route's exponent one too high (eps_(mu,nu) read one
    higher), each of its coefficients becomes a pure sqrt(2) multiple, so the
    pair-vs-int comparison fails every (mu, j) of stembridge-cross, and only
    that check, and its witness carries the b parts."""
    from spinblocks import cli, stembridge

    real = stembridge.epsilon_exponent
    monkeypatch.setattr(
        stembridge, "epsilon_exponent", lambda parts: real(parts) + (len(parts) == 2)
    )
    assert cli.main(["verify", "all", "--p", "5", "--dmax", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {key.split()[0] for key, verdict in report["verdicts"].items() if verdict == "fail"}
    assert failed == {"stembridge-cross"}
    witnesses = [w for f in report["outputs"]["failures"] for w in f["witness"]]
    assert len(witnesses) == sum(
        len(block_enum(generate(5, d, parity, 1)[0], 5, d - 1)) * (ell(5) + 1)
        for parity in ("even", "odd") for d in (1, 2)
    )
    for w in witnesses:
        assert [(r["a"], r["b"] > 0) for r in w["tableaux"]] == [(0, True)] * len(w["abacus"])


def test_stembridge_cross_reads_the_sqrt2_part_of_the_tableau_route(monkeypatch):
    """A sqrt(2) part planted on top of the right integer part of each
    tableau coefficient fails stembridge-cross: a tableau pair matches an
    abacus int c only as (c, 0)."""
    import spinblocks.verify as V

    real = V._induce_pairs

    def with_sqrt2(mu, nu, support, fill):
        return {lam: (a, b + 1) for lam, (a, b) in real(mu, nu, support, fill).items()}

    assert run_check("stembridge-cross", rho=(2, 1), p=5, d=1).passed
    monkeypatch.setattr(V, "_induce_pairs", with_sqrt2)
    report = run_check("stembridge-cross", rho=(2, 1), p=5, d=1)
    assert [(w["mu"], w["j"]) for w in report.witness] == [((2, 1), j) for j in range(ell(5) + 1)]
    for w in report.witness:
        assert [(r["a"], r["b"]) for r in w["tableaux"]] == [(r["a"], 1) for r in w["abacus"]]


def test_a_layout_slip_on_long_labels_fails_stembridge_cross(monkeypatch, capsys):
    """stembridge-cross tables its fills by the layout _fill_steps gives each
    pair.  With _fill_steps dropping the first upper neighbour only when lam
    has more than 11 parts, the one such pair of `verify all --p 5 --dmax 3`
    (weight 3 over the odd core, lam of 12 parts) is filled with its own
    slipped layout and fails, though a pair of 11 parts with the same shape
    comes first: a table keyed on the shape alone would pass it."""
    from spinblocks import cli, stembridge

    real = stembridge._fill_steps

    def slipped(lam, mu, n):
        up, right = real(lam, mu, n)
        if len(lam) > 11:
            s = next(s for s, u in enumerate(up) if u < n)
            up[s] = n
        return up, right

    monkeypatch.setattr(stembridge, "_fill_steps", slipped)
    assert cli.main(["verify", "all", "--p", "5", "--dmax", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {key for key, verdict in report["verdicts"].items() if verdict == "fail"}
    rho = generate(5, 3, "odd", 1)[0]
    assert failed == {"stembridge-cross " + json.dumps({"d": 3, "p": 5, "rho": list(rho)})}
    [failure] = report["outputs"]["failures"]
    assert [(len(w["mu"]), w["j"]) for w in failure["witness"]] == [(11, 0), (11, 1)]
    for w in failure["witness"]:
        abacus = {row["label"]: row["a"] for row in w["abacus"]}
        wrong = [row["label"] for row in w["tableaux"] if abacus.get(row["label"]) != row["a"]]
        assert [label.count(",") + 1 for label in wrong] == [12]


def eager_report(report):
    """The report with each PairVector side built as the CharVector it stands for."""
    def built(side):
        return CharVector.from_pairs(side.space, side.pairs) if isinstance(side, PairVector) else side

    return dataclasses.replace(report, lhs=built(report.lhs), rhs=built(report.rhs))


def swept_reports(monkeypatch, p, dmax, oracle):
    """Every report `verify all` makes at (p, dmax), in call order."""
    from spinblocks import cli

    reports = []

    def kept(check):
        def call(*args, **kwargs):
            reports.append(report := check(*args, **kwargs))
            return report

        return call

    monkeypatch.setattr(cli, "run_check", kept(cli.run_check))
    monkeypatch.setattr(cli, "check_htoj", kept(cli.check_htoj))
    cli.verify_all(p, dmax, oracle=oracle)
    return reports


def rendered(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_deferred_sides_render_as_the_eager_vectors(monkeypatch, p, oracle):
    """Every report of `verify all --dmax 3` (weights 1 to 3, both parities)
    prints the bytes of its eager render: each htoj side is held as pairs and
    prints as `CharVector.from_pairs(space, pairs).rows()`, which is what
    `htoj_sides` prints, and each hyp-nonneg total prints as `hyp_coeffs`."""
    reports = swept_reports(monkeypatch, p, 3, oracle)
    assert {report.name for report in reports} == set(CHECKS)
    for report in reports:
        assert rendered(report) == rendered(eager_report(report)), report.name
        if report.name == "htoj":
            assert isinstance(report.lhs, PairVector) and isinstance(report.rhs, PairVector)
            sides = htoj_sides(report.params["lam"], p)
            assert [report.to_json()[k] for k in ("lhs", "rhs")] == [v.rows() for v in sides]
        elif report.name == "hyp-nonneg":
            rho, d = report.params["rho"], report.params["d"]
            assert report.to_json()["lhs"] == {
                str(dcomp): hyp_coeffs(rho, p, dcomp).rows() for dcomp in compositions(d, ell(p) + 1)
            }


@pytest.mark.parametrize("oracle", [False, True])
def test_a_failing_htoj_renders_as_the_eager_vectors(monkeypatch, oracle):
    """With the closed form planted one sqrt(2) too high, every htoj of
    `verify all --p 5 --dmax 2` fails, and each failing report, witness
    included, prints the bytes of its eager render."""
    import spinblocks.verify as V
    from spinblocks.sqrt2 import times_sqrt2_power

    monkeypatch.setattr(V, "times_sqrt2_power", lambda a, b, e: times_sqrt2_power(a, b, e + 1))
    failed = [r for r in swept_reports(monkeypatch, 5, 2, oracle) if not r.passed]
    assert failed and {r.name for r in failed} == {"htoj"}
    for report in failed:
        assert "difference" in report.witness
        assert rendered(report) == rendered(eager_report(report))


def test_a_passing_htoj_builds_no_char_vector(monkeypatch):
    """check_htoj keeps its sides as integer pairs: a passing call, and its
    to_json, build no CharVector (each side was one), with or without the
    oracle, which solves on the difference as integer pairs too."""
    p, d = 7, 2
    labels = [lam for parity in ("even", "odd") for lam in block_enum(generate(p, d, parity, 1)[0], p, d)]
    built, make = [], CharVector.make.__func__

    def counted(cls, *args, **kwargs):
        built.append(args[0])
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(CharVector, "make", classmethod(counted))
    for lam in labels:
        report = check_htoj(lam, p)
        assert report.passed
        report.to_json()
    assert built == []
    assert all(check_htoj(lam, p, oracle=True).passed for lam in labels)
    assert built == []


def pair_difference(report) -> dict:
    """An htoj report's lhs - rhs as check_htoj forms it: {label: (a, b)},
    zero pairs kept."""
    diff = dict(report.lhs.pairs)
    for label, (c, e) in report.rhs.pairs.items():
        a, b = diff.get(label, (0, 0))
        diff[label] = a - c, b - e
    return diff


STRAYS = [((200, 1), 0), ((200, 1), 1), ((201, 1), 0)]  # H labels of weight far above 2


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_the_pair_oracle_agrees_with_the_vector_oracle_and_member(monkeypatch, p):
    """The oracle on integer pairs, which htoj calls, gives the verdict of
    `member_oracle` on the vector, over a lattice folded apart, and of
    `member` and `_member_pairs` on: every htoj difference of `verify all
    --dmax 3` (both parities), in either basis; each difference times
    1 + sqrt(2), whose b part a route that drops it would miss (no htoj
    difference has one); unequal halves +1, -1 at an odd all-zero runner
    label, refined, whose weighted sums vanish; and a zero pair on a label
    outside the space, alone or beside a difference, which adds nothing.
    A nonzero pair outside raises one message from all four entry points,
    naming the labels outside as given."""
    lattices, halves = {}, 0

    def agree(space, pairs, basis=SUPER):
        if space not in lattices:
            lattices[space] = nmv_basis(space), nmv_basis(space)
        by_pairs, by_vector = lattices[space]
        v = CharVector.from_pairs(space, pairs, basis)
        verdict = by_pairs._oracle_pairs(space, pairs, basis)
        assert verdict == by_vector.member_oracle(v) == by_vector.member(v), (pairs, basis)
        assert by_vector._member_pairs(space, pairs, basis) == verdict, (pairs, basis)
        return verdict

    def message(space, pairs, basis=SUPER):
        """The one message of the four entry points, checked against the
        labels of nonzero pairs outside the space, named as given."""
        by_pairs, by_vector = lattices[space]
        v = CharVector.from_pairs(space, pairs, basis)
        calls = [
            (by_pairs._oracle_pairs, space, pairs, basis), (by_vector.member_oracle, v),
            (by_pairs._member_pairs, space, pairs, basis), (by_vector.member, v),
        ]
        messages = set()
        for call, *args in calls:
            with pytest.raises(ValueError, match="labels outside the space") as raised:
                call(*args)
            messages.add(str(raised.value))
        inside = set(space.labels() if basis == SUPER else refined_labels(space))
        named = sorted(repr(l) for l, ab in pairs.items() if any(ab) and l not in inside)
        assert messages == {f"labels outside the space: {named}"}

    for report in (r for r in swept_reports(monkeypatch, p, 3, False) if r.name == "htoj"):
        space, diff = report.lhs.space, pair_difference(report)
        refined = {l: (c.a, c.b) for l, c in CharVector.from_pairs(space, diff).refine().coeffs}
        assert agree(space, diff) and agree(space, refined, REFINED)
        rooted = {l: (a, a + b) for l, (a, b) in diff.items()}
        assert agree(space, rooted) == (not any(a for a, _ in diff.values()))
        for stray in STRAYS:
            assert agree(space, {**diff, stray: (0, 0)})
        odd_zero = [l for l in space.labels() if l[1] == 0 and space.is_odd(l)]
        for label in odd_zero:
            assert not agree(space, {**refined, (label, 1): (1, 0), (label, -1): (-1, 0)}, REFINED)
        halves += len(odd_zero)
        message(space, {**diff, **dict.fromkeys(STRAYS, (1, 0)), STRAYS[0]: (0, 0)})
        if odd_zero:
            message(space, {**refined, (odd_zero[0], 0): (2, 1), (STRAYS[0], 1): (0, 1)}, REFINED)
    assert halves and {space.is_odd(stray) for stray in STRAYS} == {True, False}
    # a stray label alone, where `_member_pairs` once raised on a zero pair
    space = CharSpace.h_space(generate(p, 2, "odd", 1)[0], p, 2)
    assert agree(space, {STRAYS[0]: (0, 0)})
    message(space, {STRAYS[0]: (0, 1)})


@pytest.mark.parametrize("oracle", [False, True])
def test_htoj_difference_of_pairs_is_the_vector_difference(monkeypatch, oracle):
    """With the closed form planted one sqrt(2) too high, every label fails
    htoj, and the witness is lhs - rhs of the vectors rebuilt from the
    report's own pairs, sqrt(2) parts included: the difference taken as
    pairs loses no component."""
    import spinblocks.verify as V
    from spinblocks.sqrt2 import times_sqrt2_power

    monkeypatch.setattr(V, "times_sqrt2_power", lambda a, b, e: times_sqrt2_power(a, b, e + 1))
    p, d = 5, 2
    for lam in block_enum(generate(p, d, "odd", 1)[0], p, d):
        report = check_htoj(lam, p, oracle=oracle)
        lhs, rhs = (CharVector.from_pairs(side.space, side.pairs) for side in (report.lhs, report.rhs))
        diff = lhs - rhs
        assert any(c.b for _, c in diff.coeffs)
        assert report.witness == {"difference": diff.rows()}, lam


def test_core_order_and_dim_sqd_validate_their_input_once(monkeypatch, capsys):
    """core-order checks p once and walks the unchecked core; dim-sqd counts
    the partitions it enumerated with the unchecked path count.  With the
    validating core_weight and path_count planted to fail, both still pass,
    and a p that is not prime still exits 2."""
    from spinblocks import abacus, cli, partitions

    def refuse(*args, **kwargs):
        raise AssertionError("validated again")

    monkeypatch.setattr(abacus, "core_weight", refuse)
    monkeypatch.setattr(partitions, "path_count", refuse)
    assert run_check("core-order", p=7).passed
    assert run_check("dim-sqd", n=12).passed
    assert cli.main(["verify", "core-order", "--p", "4"]) == 2
    assert capsys.readouterr().err == "error: p must be an odd prime below 10000000: 4\n"


def test_check_htoj_reports():
    report = check_htoj((5, 2, 1), 5, oracle=True)
    assert report.passed
    payload = report.to_json()
    assert payload["verdict"] == "pass"
    json.dumps(payload)  # machine readable


RHO_5_2 = (22, 17, 12, 7, 6, 2, 1)  # generate(5, 2, "even", 1)[0]


@pytest.mark.parametrize(
    "lam, p, space, error, message, argv",
    [
        # lam from another block of a d-Rouquier core: its own weight answers
        ((27, 17, 12, 7, 6, 2, 1), 5, ("H", RHO_5_2, 2), None, None, None),
        ((22, 7, 6, 2, 1), 5, ("H", RHO_5_2, 2), None, None, None),
        # lam of the open weight, read at another p, or at its own: then the open weight answers
        ((32, 17, 12, 7, 6, 2, 1), 7, ("H", RHO_5_2, 2), DomainError,
         "(32, 17, 12, 7, 6, 2, 1) does not sit under a 11-Rouquier core for p=7",
         ["--p", "7", "--lambda", "32,17,12,7,6,2,1"]),
        ((32, 17, 12, 7, 6, 2, 1), 0, ("H", RHO_5_2, 2), DomainError,
         "p must be an odd prime below 10000000: 0", ["--p", "0", "--lambda", "32,17,12,7,6,2,1"]),
        ((32, 17, 12, 7, 6, 2, 1), 5, ("H", RHO_5_2, 2), None, None, None),
        # the Rouquier core itself, of weight 0
        (RHO_5_2, 5, ("H", RHO_5_2, 2), DomainError,
         f"{RHO_5_2} does not sit under a 0-Rouquier core for p=5",
         ["--p", "5", "--lambda", "22,17,12,7,6,2,1"]),
        # a lam over the size budget, refused before any bar removal
        ((10**12,), 5, ("H", RHO_5_2, 2), DomainError,
         "partition size must be at most 100000: 1000000000000",
         ["--p", "5", "--lambda", "1000000000000"]),
        # a weight over a core that is not 2-Rouquier, and lam of its block
        ((12, 1), 5, ("H", (2, 1), 2), DomainError,
         "(12, 1) does not sit under a 2-Rouquier core for p=5", ["--p", "5", "--lambda", "12,1"]),
    ],
)
def test_check_htoj_with_a_lattice_keeps_its_misuse_errors(capsys, lam, p, space, error, message, argv):
    """Inside the Weight of the H space `space`, check_htoj still derives
    (rho, d) from lam: it reads that weight's lattice only for a lam of it,
    each misuse raises exactly this error, and `verify htoj` exits 2 with
    the same message where the command can reach the case."""
    from spinblocks import cli

    _, rho, d = space
    with Weight(rho, 5, d) as weight:
        if error is None:
            assert check_htoj(lam, p).passed
            assert ("lattice" in vars(weight)) == (core_weight(lam, p) == (rho, d))
            return
        with pytest.raises(error) as info:
            check_htoj(lam, p)
    assert str(info.value) == message
    if argv is not None:
        assert cli.main(["verify", "htoj", *argv]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")


def test_hyp_coeffs_examples():
    v = hyp_coeffs((2, 1), 5, (1, 0, 0))
    assert v.as_dict() == {(5, 2, 1): Sqrt2Scalar(1, 0)}
    v = hyp_coeffs((2, 1), 5, (0, 1, 0))
    assert v.as_dict() == {(6, 2): Sqrt2Scalar(1, 0)}
    v = hyp_coeffs((12, 7, 6, 2, 1), 5, (0, 2, 0))
    assert v.as_dict() == {
        (12, 11, 7, 6, 2): Sqrt2Scalar(1, 0),
        (16, 12, 7, 2, 1): Sqrt2Scalar(1, 0),
    }
    v = hyp_coeffs((12, 7, 6, 2, 1), 5, (2, 0, 0))
    assert v.as_dict() == {(12, 10, 7, 6, 2, 1): Sqrt2Scalar(2, 0)}


def test_a_hyp_query_splits_only_its_own_weight(monkeypatch):
    """A single hyp query reads its labels' quotients off the split of its
    own block: from cold memos it lists and splits that block alone, no
    label of weight d - 1, and quotients each of its labels once (a spy
    under every module name that holds _quotient)."""
    import sys

    from spinblocks import abacus

    calls, real = [], abacus._quotient
    for name, module in list(sys.modules.items()):
        if name.startswith("spinblocks") and vars(module).get("_quotient") is real:
            monkeypatch.setattr(module, "_quotient", lambda lam, p: calls.append(lam) or real(lam, p))
    abacus._block.cache_clear()
    abacus._block_by_sizes.cache_clear()
    rho = generate(7, 3, "odd", 1)[0]
    assert hyp_coeffs(rho, 7, (1, 1, 0, 1)).coeffs
    assert abacus._block.cache_info().currsize == abacus._block_by_sizes.cache_info().currsize == 1
    assert sorted(calls, reverse=True) == block_enum(rho, 7, 3)


def test_restrict_recursion_sides_lists_no_block():
    """A single restrict_recursion_sides call quotients lam and its removals
    alone, so it answers for a label whose block is past BLOCK_MAX_LABELS
    (weight 17 at p = 5: 42,543 labels) and leaves the block memos cold."""
    from spinblocks import abacus

    abacus._block.cache_clear()
    abacus._block_by_sizes.cache_clear()
    rho = generate(5, 17, "even", 1)[0]
    with pytest.raises(DomainError, match="a block has at most 30000 labels: 42543"):
        block_enum(rho, 5, 17)
    lam = rho
    for i in range(17):  # one bar onto runner 0, 1, 2 in turn
        lam = abacus._moves(lam, 5, "add")[i % 3][0]
    sides = restrict_recursion_sides(lam, 5)
    assert sorted(sides) == [0, 1, 2]
    assert all(lhs == rhs for lhs, rhs in sides.values())
    assert abacus._block.cache_info().currsize == abacus._block_by_sizes.cache_info().currsize == 0


def test_hyp_coeffs_square_sum_ties_to_factorials():
    """eps^2-weighted squares of the closed-form coefficients recover the
    reduced dimension identity: sum eps_lam^2 c_lam^2 = eps_tuple^2 * prod d_i!."""
    from math import factorial

    from spinblocks.verify import compositions

    for parity in ("even", "odd"):
        for d in (1, 2, 3):
            rho = generate(5, d, parity, 1)[0]
            for dcomp in compositions(d, 3):
                vec = hyp_coeffs(rho, 5, dcomp)
                space = vec.space
                total = 0
                for lam, c in vec.coeffs:
                    total += 2 ** space.eps_exponent(lam) * c.a * c.a
                tuple_exp = (
                    CharSpace.l_space(rho, 5, d).eps_exponent(
                        tuple(
                            j for j in range(3) for _ in range(dcomp[j])
                        )
                    )
                )
                expected = 2 ** tuple_exp
                for x in dcomp:
                    expected *= factorial(x)
                assert total == expected, (parity, d, dcomp)


def test_hyp_coeffs_domain_error():
    with pytest.raises(DomainError):
        hyp_coeffs((2, 1), 5, (0, 2, 0))  # (2,1) is not 2-Rouquier


def test_hyp_checks_refuse_a_weight_past_the_block_budget_before_listing():
    """hyp_coeffs and hyp-nonneg keep block_enum's weight check: past D_MAX
    both refuse with its message, before the label budget is looked at."""
    from spinblocks.abacus import D_MAX

    rho = tuple(range(3 * D_MAX + 1, 0, -3))  # runner 1 of p = 3 holds D_MAX + 1 beads
    message = f"weight must be at most {D_MAX}: {D_MAX + 1}"
    with pytest.raises(DomainError, match=message):
        hyp_coeffs(rho, 3, (D_MAX + 1, 0))
    with pytest.raises(DomainError, match=message):
        run_check("hyp-nonneg", rho=rho, p=3, d=D_MAX + 1)


def test_hyp_refined_symmetric_under_involution():
    for dcomp in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2)):
        rho = generate(5, sum(dcomp), "odd", 1)[0]
        refined = hyp_coeffs(rho, 5, dcomp).refine()
        d = refined.as_dict()
        for (label, sign), c in d.items():
            if sign:
                assert d[(label, -sign)] == c


def test_named_checks_pass():
    assert run_check("dim-sqd", n=4).passed
    assert run_check("dim-sqd", n=7).passed
    assert run_check(
        "dim-reduced", rho=(12, 7, 6, 2, 1), p=5, dcomp=(0, 2, 0)
    ).passed
    assert run_check("block-count", rho=(2, 1), p=5, d=1).passed
    assert run_check("htog-adjoint", rho=(2, 1), p=5, d=1).passed
    assert run_check("restrict-recursion", rho=(12, 7, 6, 2, 1), p=5, d=2).passed
    assert run_check("hyp-nonneg", rho=(12, 7, 6, 2, 1), p=5, d=2).passed


def _patched_branch(monkeypatch, edit):
    """Route verify's branching core through `edit(args, {label: int})`; the
    checks call the core, which hands out int items, not the validating
    rock_branch."""
    import spinblocks.verify as V

    real = V._rock_branch

    def branch(part, p, j, direction, moves):
        coeffs = dict(real(part, p, j, direction, moves))
        edit((part, p, j, direction), coeffs)
        return tuple(coeffs.items())

    monkeypatch.setattr(V, "_rock_branch", branch)


def _add_restrict_term(args, coeffs):
    # restriction of (7,1) claims ((2,1), 2); that induction has no (7,1) term
    if args == ((7, 1), 5, None, "restrict"):
        coeffs[((2, 1), 2)] = 1


def _drop_induce_term(args, coeffs):
    # the induction of ((2,1), 1) loses (6,2); restriction of (6,2) keeps it
    if args == ((2, 1), 5, 1, "induce"):
        del coeffs[(6, 2)]


def _add_induce_term(args, coeffs):
    # the induction of ((2,1), 2) claims (7,1); restriction of (7,1) lacks it
    if args == ((2, 1), 5, 2, "induce"):
        coeffs[(7, 1)] = 1


@pytest.mark.parametrize(
    "edit, j, lam, lhs, rhs",
    [
        (_add_restrict_term, 2, (7, 1), 0, 1),
        (_drop_induce_term, 1, (6, 2), 0, 2),
        (_add_induce_term, 2, (7, 1), 1, 0),
    ],
    ids=["restrict-only", "induce-dropped", "induce-only"],
)
def test_htog_adjoint_catches_a_one_sided_difference(monkeypatch, edit, j, lam, lhs, rhs):
    _patched_branch(monkeypatch, edit)
    report = run_check("htog-adjoint", rho=(2, 1), p=5, d=1)
    assert report.passed is False
    assert report.witness == [
        {"mu": (2, 1), "j": j, "lam": lam, "lhs": {"a": lhs, "b": 0}, "rhs": {"a": rhs, "b": 0}}
    ]


@pytest.mark.parametrize("name", ["htog-adjoint", "hyp-nonneg"])
def test_a_clean_run_cannot_hide_a_later_plant(monkeypatch, name):
    """A lone check keeps nothing: after a clean run, with no cache emptied,
    a _moves without runner 1's additions fails htog-adjoint, and a K
    path_count one too high fails hyp-nonneg."""
    from spinblocks import abacus

    rho, real = generate(7, 2, "even", 1)[0], abacus._path_count
    assert run_check(name, rho=rho, p=7, d=2).passed
    if name == "htog-adjoint":
        _drop_moves(monkeypatch, 1, "add")
    else:
        monkeypatch.setattr(abacus, "_path_count", lambda lam, kind: real(lam, kind) + 1)
    assert not run_check(name, rho=rho, p=7, d=2).passed


def test_unknown_check_name():
    with pytest.raises(ValueError):
        run_check("nope")


def test_dim_reduced_census_match():
    """The reduced dimension identity factors through the quotient census."""
    rho = generate(5, 3, "even", 1)[0]
    L = ell(5)
    from spinblocks.verify import compositions

    for dcomp in compositions(3, L + 1):
        assert run_check("dim-reduced", rho=rho, p=5, dcomp=dcomp).passed
