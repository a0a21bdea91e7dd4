import pytest

from spinblocks.chars import CharSpace
from spinblocks.exceptions import DomainError
from spinblocks.rouquier import generate
from spinblocks.trees import build, heller, walk, weight_one_map
from spinblocks.verify import nmv_basis


def test_build_examples():
    b2 = build("B", 2)
    assert b2.path == ("2+", "1+", "0", "1-", "2-")
    assert all(b2.multiplicity(n) == 1 for n in b2.path)
    a2 = build("A", 2)
    assert a2.path == ("0", "1", "2")
    assert a2.multiplicity("0") == 2
    assert a2.node_characters("0") == ("0+", "0-")
    a1 = build("A", 1)
    assert a1.path == ("0", "1")


def test_walk_examples():
    w = walk(build("B", 2))
    assert w.nodes == ("2+", "1+", "0", "1-", "2-", "1-", "0", "1+")
    wa = walk(build("A", 2))
    assert wa.characters() == (("2",), ("1",), ("0+", "0-"), ("1",))
    for ell in range(1, 6):
        assert len(walk(build("B", ell))) == 4 * ell
        assert len(walk(build("A", ell))) == 2 * ell


def test_walk_edges_each_twice():
    for kind in ("A", "B"):
        for ell in range(1, 6):
            tree = build(kind, ell)
            w = walk(tree)
            n = len(w)
            counts = {}
            for t in range(n):
                e = frozenset((w.nodes[t], w.nodes[(t + 1) % n]))
                counts[e] = counts.get(e, 0) + 1
            assert set(counts) == {frozenset(e) for e in tree.edges()}
            assert all(v == 2 for v in counts.values())


def test_heller_examples():
    b2 = build("B", 2)
    assert heller(b2, "2+", 3) == [("1-",)]
    assert heller(b2, "2+", 6) == [("0",)]
    a2 = build("A", 2)
    assert heller(a2, "2", 2) == [("0+", "0-")]


def test_heller_periodicity():
    for kind, period in (("B", 4), ("A", 2)):
        for ell in range(1, 6):
            tree = build(kind, ell)
            start = walk(tree).nodes[0]
            for n in range(0, 2 * period * ell, max(1, ell)):
                assert heller(tree, start, n) == heller(tree, start, n % (period * ell))


@pytest.mark.parametrize("ell", range(1, 6))
def test_heller_case_table_b(ell):
    tree = build("B", ell)
    start = f"{ell}+"
    for n in range(4 * ell):
        got = heller(tree, start, n)
        if n <= ell - 1:
            expected = [(f"{ell - n}+",)]
        elif n == ell:
            expected = [("0",)]
        elif n <= 2 * ell:
            expected = [(f"{n - ell}-",)]
        elif n <= 3 * ell - 1:
            expected = [(f"{3 * ell - n}-",)]
        elif n == 3 * ell:
            expected = [("0",)]
        else:
            expected = [(f"{n - 3 * ell}+",)]
        assert got == expected, (ell, n)
    # the syzygy 3*ell steps in pairs i+- with both signs of ell-i
    for i in range(1, ell):
        for sign in "+-":
            got = set(heller(tree, f"{i}{sign}", 3 * ell))
            assert got == {(f"{ell - i}+",), (f"{ell - i}-",)}
    assert heller(tree, f"{ell}+", 3 * ell) == [("0",)]
    assert heller(tree, f"{ell}-", 3 * ell) == [("0",)]
    assert set(heller(tree, "0", 3 * ell)) == {(f"{ell}+",), (f"{ell}-",)}


@pytest.mark.parametrize("ell", range(1, 6))
def test_heller_case_table_a(ell):
    tree = build("A", ell)
    start = str(ell)
    for n in range(2 * ell):
        got = heller(tree, start, n)
        if n <= ell - 1:
            expected = [(str(ell - n),)] if ell - n else [("0+", "0-")]
        elif n == ell:
            expected = [("0+", "0-")]
        else:
            expected = [(str(n - ell),)]
        assert got == expected, (ell, n)
    for i in range(1, ell):
        assert heller(tree, str(i), ell) == [(str(ell - i),)] if ell - i else [("0+", "0-")]
    assert heller(tree, "0", ell) == [(str(ell),)]


def test_weight_one_map_example():
    wt = weight_one_map((2, 1), 5)
    assert wt.tree.kind == "A"
    chars = dict(wt.node_chars)
    assert set(chars["0"]) == {((5, 2, 1), 1), ((5, 2, 1), -1)}
    assert chars["1"] == (((6, 2), 0),)
    assert chars["2"] == (((7, 1), 0),)


def test_weight_one_map_even_core_shape():
    rho = generate(5, 1, "even", 1)[0]
    wt = weight_one_map(rho, 5)
    assert wt.tree.kind == "B"
    chars = dict(wt.node_chars)
    assert {s for _, s in chars["1+"]} == {1}
    assert {s for _, s in chars["1-"]} == {-1}


def test_weight_one_map_domain_error():
    with pytest.raises(DomainError):
        weight_one_map((), 5)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_edge_sums_match_nmv_generators(parity):
    """Projective edge characters coincide with the weight-one
    non-maximal-support generators under the runner relabeling."""
    for rho in generate(5, 1, parity, 3):
        wt = weight_one_map(rho, 5)
        space = CharSpace.l_space(rho, 5, 1)
        from spinblocks.rouquier import rho_extension

        runner_of = {rho_extension(rho, 5, j): (j,) for j in range(3)}
        edges = {
            tuple(sorted((runner_of[lam], s) for lam, s in edge))
            for edge in wt.edge_sums()
        }
        gens = {
            tuple(sorted(label for label, _ in g.coeffs))
            for g in nmv_basis(space).generators
        }
        assert edges == gens
