import json
import random
import tracemalloc
from itertools import product

import pytest

from spinblocks import abacus
from spinblocks.abacus import (
    BarQuotient,
    block_enum,
    core_weight,
    is_bar_core,
    k_product,
    neighbors,
    quotient,
)
from spinblocks.exceptions import DomainError
from spinblocks.partitions import (
    ORDINARY,
    STRICT,
    box_moves,
    enumerate_partitions,
    is_odd_partition,
)


def all_strict(max_n):
    out = []
    for n in range(max_n + 1):
        out.extend(enumerate_partitions(n, STRICT))
    return out


def test_abacus_rejects_bad_p():
    with pytest.raises(DomainError):
        core_weight((2, 1), 9)


def test_core_weight_examples():
    assert core_weight((7, 4, 2, 1), 5) == ((7, 2), 1)
    assert core_weight((2, 1), 5) == ((2, 1), 0)
    assert core_weight((5,), 5) == ((), 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_core_weight_order_independent_sample(p):
    rng = random.Random(11)
    for lam in all_strict(12):
        expected = core_weight(lam, p)
        for _ in range(20):
            assert abacus._walk(lam, p, rng, {}) == expected


def test_weight_consistency():
    for lam in all_strict(12):
        core, wt = core_weight(lam, 5)
        assert sum(lam) == sum(core) + 5 * wt
        assert is_bar_core(core, 5)


def test_neighbors_examples():
    assert neighbors((2, 1), 5, 0, "add") == [(5, 2, 1)]
    assert neighbors((2, 1), 5, 1, "add") == [(6, 2)]
    assert neighbors((5, 2, 1), 5, 0, "remove") == [(2, 1)]
    assert neighbors((), 5, 1, "add") == [(4, 1)]
    assert neighbors((), 5, 0, "add") == [(5,)]


def bar_removals_on_parts(lam, p):
    """The one-bar removals of the strict partition lam, stated on its parts:
    subtract p from a part when the difference is not already a part, drop a
    part equal to p, or drop two parts that sum to p."""
    out = []
    for i, part in enumerate(lam):
        rest = lam[:i] + lam[i + 1 :]
        if part == p:
            out.append(rest)
        elif part > p and part - p not in lam:
            out.append(tuple(sorted(rest + (part - p,), reverse=True)))
        out.extend(rest[:k] + rest[k + 1 :] for k in range(i, len(rest)) if part + rest[k] == p)
    return sorted(out)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_bar_moves_against_the_rule_on_parts(p):
    """_removals, the per-runner removals and the additions all agree
    with the removal rule written on parts; every removal lies on exactly
    one runner pair."""
    ell = (p - 1) // 2
    for lam in all_strict(16):
        expected = bar_removals_on_parts(lam, p)
        moves = sorted(tuple(sorted(m, reverse=True)) for m in abacus._removals(frozenset(lam), p))
        assert moves == expected, lam
        per_runner = [mu for j in range(ell + 1) for mu in neighbors(lam, p, j, "remove")]
        assert sorted(per_runner) == expected, lam
        for j in range(ell + 1):
            for mu in neighbors(lam, p, j, "remove"):
                assert lam in neighbors(mu, p, j, "add")
            for nu in neighbors(lam, p, j, "add"):
                assert lam in neighbors(nu, p, j, "remove")


def neighbors_by_bead_sets(lam, p, j, direction):
    """The one-bar moves on runner pair {j, p-j} as _neighbors built them
    before it spliced the sorted tuple: frozenset arithmetic for every move,
    then a sort of each result.  An oracle for the splicing."""
    beads = frozenset(lam)
    if direction == "remove":
        results = []
        for b in beads:
            if b % p not in (j, p - j):
                continue
            if b == p:
                results.append(beads - {b})
            elif b > p and b - p not in beads:
                results.append(beads - {b} | {b - p})
        if j and j in beads and p - j in beads:
            results.append(beads - {j, p - j})
    else:
        results = [
            beads - {b} | {b + p} for b in beads if b % p in (j, p - j) and b + p not in beads
        ]
        if j == 0 and p not in beads:
            results.append(beads | {p})
        if j != 0 and j not in beads and (p - j) not in beads:
            results.append(beads | {j, p - j})
    return sorted({tuple(sorted(r, reverse=True)) for r in results}, reverse=True)


def core_by_walk(lam, p):
    """The bar-core and weight by removing one bar at a time, always the
    first move listed, as core_weight found them before it read the runner
    counts.  An oracle for the closed form."""
    current, weight = frozenset(lam), 0
    while moves := abacus._removals(current, p):
        current, weight = moves[0], weight + 1
    return tuple(sorted(current, reverse=True)), weight


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_forms_match_the_bead_set_oracles(p):
    """The runner-count core and the spliced one-bar moves equal the move
    walk and the frozenset moves on every strict partition of at most 20,
    on every runner pair and in both directions; so does the all-runner
    table _moves at each index, in the same descending order."""
    for lam in all_strict(20):
        assert core_weight(lam, p) == core_by_walk(lam, p), lam
        for direction in ("add", "remove"):
            table = abacus._moves(lam, p, direction)
            assert len(table) == (p - 1) // 2 + 1
            for j, moves in enumerate(table):
                expected = neighbors_by_bead_sets(lam, p, j, direction)
                assert neighbors(lam, p, j, direction) == expected, (lam, j, direction)
                assert list(moves) == expected, (lam, j, direction)


def test_block_enum_fills_no_move_memo():
    """The block BFS fills no memo but the block's own, and the lone quotient
    and k_product queries keep nothing: their quotients at p = 1000003, of
    ell components each, leave traced memory within 1 MB of its start."""
    from spinblocks.rouquier import generate

    abacus._block.cache_clear()
    assert len(block_enum(generate(7, 3, "even", 3)[2], 7, 3)) == abacus._block_size(7, 3)
    assert abacus._block.cache_info().currsize == 1
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert len(quotient((2, 1), 1000003).qs) == 500001
        assert [k_product(lam, 1000003) for lam in ((2, 1), (3, 1), (4, 1))] == [1, 1, 1]
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_core_order_fails_on_a_closed_form_without_pair_removal(monkeypatch, capsys):
    """A closed form that slides every runner up but never takes out the
    min(a_i, a_(p-i)) bead pairs disagrees with the random walks."""
    from spinblocks.cli import main

    def planted(lam, p):
        counts = [0] * p
        for b in lam:
            counts[b % p] += 1
        core = sorted((i + k * p for i in range(1, p) for k in range(counts[i])), reverse=True)
        return tuple(core), (sum(lam) - sum(core)) // p

    monkeypatch.setattr(abacus, "_core_weight", planted)
    assert main(["verify", "core-order", "--p", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"core-order": "fail"}


def test_core_order_fails_on_walks_without_pair_removal(monkeypatch, capsys):
    """Removals that never take out the bead pair j, p-j leave the walks short
    of the closed-form core, though the walks from one partition share their
    move lists."""
    from spinblocks.cli import main

    real = abacus._removals
    monkeypatch.setattr(
        abacus, "_removals", lambda beads, p: [m for m in real(beads, p) if len(beads) - len(m) < 2]
    )
    assert main(["verify", "core-order", "--p", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"core-order": "fail"}


def walk_without_a_table(lam, p, rng):
    """The random walk of core_weight as it ran before the walks from one
    partition shared their move lists: every step lists its removals anew.
    An oracle for the shared table."""
    current, weight = frozenset(lam), 0
    while moves := abacus._removals(current, p):
        current, weight = rng.choice(moves), weight + 1
    return tuple(sorted(current, reverse=True)), weight


def core_order_sample(p):
    """The partitions verify core-order samples, in order, and a twin of its
    rng after the draw."""
    from spinblocks import verify

    rng = random.Random(verify.CORE_ORDER_SEED)
    pool = all_strict(verify.CORE_ORDER_MAX_N)[1:]
    return rng.sample(pool, verify.CORE_ORDER_SAMPLES), rng


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_core_order_walks_match_the_walks_without_a_table(monkeypatch, p):
    """Each walk of verify core-order, drawn from its shared move lists, ends
    where the per-walk loop ends with a twin rng, from the same partitions in
    the same order, and both rngs end in the same state."""
    from spinblocks.verify import CORE_ORDER_ORDERS, check_core_order

    sample, twin = core_order_sample(p)
    shared, walked = abacus._walk, []

    def both(lam, p, rng, moves):
        got = shared(lam, p, rng, moves)
        assert got == walk_without_a_table(lam, p, twin), lam
        walked.append((lam, rng))
        return got

    monkeypatch.setattr(abacus, "_walk", both)
    assert check_core_order(p).passed
    assert [lam for lam, _ in walked] == [lam for lam in sample for _ in range(CORE_ORDER_ORDERS)]
    assert walked[-1][1].getstate() == twin.getstate()


def test_core_order_lists_each_bead_sets_removals_once(monkeypatch, capsys):
    """One verify core-order at p = 7 lists the removals of each bead set
    reachable from each sampled partition exactly once: as many _removals
    calls as a breadth-first search over them finds (partition, bead set)
    pairs, where listing them per step took about 3,650."""
    from spinblocks.cli import main

    p, real, calls = 7, abacus._removals, []
    reachable = 0
    for lam in core_order_sample(p)[0]:
        seen = frontier = {frozenset(lam)}
        while frontier:
            frontier = {mu for beads in frontier for mu in real(beads, p)} - seen
            seen = seen | frontier
        reachable += len(seen)

    monkeypatch.setattr(abacus, "_removals", lambda beads, p: calls.append(beads) or real(beads, p))
    assert main(["verify", "core-order", "--p", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"core-order": "pass"}
    assert len(calls) == reachable == 75


def test_quotient_examples():
    q = quotient((6, 2), 5)
    assert (q.q0, q.qs) == ((), ((1,), ()))
    q = quotient((5, 2, 1), 5)
    assert (q.q0, q.qs) == ((1,), ((), ()))
    q = quotient((12, 11, 7, 6, 2), 5)
    assert (q.q0, q.qs) == ((), ((1, 1), ()))


def test_quotient_domain_error():
    # (3) has a bead on runner 3 > ell = 2
    with pytest.raises(DomainError):
        quotient((3,), 5)


def quotient_by_runner_scan(lam, p):
    """The quotient as _quotient built it before it grouped the beads in one
    pass: a filter and sort of the beads for each of the p runners.  An
    oracle for the one-pass grouping."""
    L = (p - 1) // 2

    def runner(i):
        return sorted(b for b in lam if b % p == i)

    for i in range(L + 1, p):
        if runner(i):
            raise DomainError(f"quotient not defined here: runner {i} of {lam} is occupied")
    qs = []
    for i in range(1, L + 1):
        offsets = sorted((b // p for b in runner(i)), reverse=True)
        m = len(offsets)
        comp = tuple(c - (m - 1 - k) for k, c in enumerate(offsets))
        qs.append(tuple(x for x in comp if x > 0))
    return BarQuotient(tuple(b // p for b in lam if b % p == 0), tuple(qs))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quotient_matches_the_runner_scan_on_rouquier_blocks(p):
    from spinblocks.rouquier import generate

    seen = 0
    for parity in ("even", "odd"):
        for d in range(1, 5):
            rho = generate(p, d, parity, 1)[0]
            for lam in block_enum(rho, p, d):
                assert quotient(lam, p) == quotient_by_runner_scan(lam, p), (lam, p)
                seen += 1
    assert seen


@pytest.mark.parametrize("p", [5, 7])
def test_quotient_error_names_the_smallest_occupied_runner(p):
    """On every strict partition of at most 12, the one-pass quotient and the
    runner scan agree: the same quotient, or the same DomainError naming the
    smallest occupied runner above ell."""
    errors = 0
    for lam in all_strict(12):
        try:
            expected = quotient_by_runner_scan(lam, p)
        except DomainError as exc:
            errors += 1
            with pytest.raises(DomainError) as got:
                quotient(lam, p)
            assert str(got.value) == str(exc)
        else:
            assert quotient(lam, p) == expected, (lam, p)
    assert errors
    with pytest.raises(DomainError, match=r"runner 4 of \(6, 5, 4\) is occupied"):
        quotient((6, 5, 4), 7)


def rouquier_core_for(d, parity="odd"):
    from spinblocks.rouquier import generate

    return generate(5, d, parity, 1)[0]


def test_quotient_weight_matches():
    for d in range(4):
        rho = rouquier_core_for(max(d, 1))
        for lam in block_enum(rho, 5, d):
            assert sum(quotient(lam, 5).sizes()) == d


def test_quotient_outside_rouquier_depth():
    # (2,1) is 1-Rouquier only: weight-2 partitions over it may occupy
    # runners above ell, where the quotient is deliberately undefined
    offenders = [
        lam for lam in block_enum((2, 1), 5, 2)
        if any(b % 5 > 2 for b in lam)
    ]
    assert offenders
    with pytest.raises(DomainError):
        quotient(offenders[0], 5)


def test_quotient_move_compatibility():
    """Removing a bar on runner pair j shrinks exactly quotient component j
    by one box, strict flavor at j = 0 and ordinary elsewhere."""
    for d in (1, 2, 3):
        rho = rouquier_core_for(d)
        for lam in block_enum(rho, 5, d):
            ql = quotient(lam, 5)
            for j in range(3):
                for mu in neighbors(lam, 5, j, "remove"):
                    qm = quotient(mu, 5)
                    for i in range(3):
                        if i == j:
                            kind = STRICT if i == 0 else ORDINARY
                            assert (ql.q0, *ql.qs)[i] in box_moves((qm.q0, *qm.qs)[i], kind, "add")
                        else:
                            assert (ql.q0, *ql.qs)[i] == (qm.q0, *qm.qs)[i]


def test_one_bar_parity_law():
    """Inside a Rouquier block a bar changes the partition parity except for
    the bead inserted at position p."""
    p = 5
    for d in (1, 2, 3):
        for parity in ("even", "odd"):
            rho = rouquier_core_for(d, parity)
            for lam in block_enum(rho, p, d):
                for j in range(3):
                    for mu in neighbors(lam, p, j, "remove"):
                        same = is_odd_partition(mu) == is_odd_partition(lam)
                        expected = (
                            j == 0
                            and tuple(sorted(mu + (p,), reverse=True)) == lam
                        )
                        assert same == expected, (lam, mu, j)


def test_block_enum_examples():
    assert set(block_enum((2, 1), 5, 1)) == {(5, 2, 1), (6, 2), (7, 1)}
    assert set(block_enum((), 5, 1)) == {(5,), (4, 1), (3, 2)}
    assert set(block_enum((12, 7, 6, 2, 1), 5, 2, (0, 2, 0))) == {
        (12, 11, 7, 6, 2), (16, 12, 7, 2, 1),
    }
    with pytest.raises(DomainError):
        block_enum((5, 2, 1), 5, 1)  # not a core


def test_block_enum_is_core_weight_fiber():
    rho = (2, 1)
    for d in (0, 1, 2):
        block = block_enum(rho, 5, d)
        assert len(block) == len(set(block))
        for lam in block:
            assert core_weight(lam, 5) == (rho, d)


def test_k_product_examples():
    assert k_product((6, 2), 5) == 1
    assert k_product((12, 11, 7, 6, 2), 5) == 1
    assert k_product((12, 7, 6, 2, 1), 5) == 1  # the core itself
    # a weight-2 partition with a 2-box ordinary component
    lam = next(
        lam for lam in block_enum((12, 7, 6, 2, 1), 5, 2, (0, 0, 2))
        if quotient(lam, 5).qs[1] == (1, 1)
    )
    assert k_product(lam, 5) == 1


def from_quotient(rho, p, q0, qs):
    """Quotient-first construction of the label with quotient (q0; qs) over
    the Rouquier core rho: runner 0 holds a bead at p*k for each part k of
    q0, and runner i keeps the m_i beads of rho, raised by the parts of q_i
    (padded with zeros) from the top bead down."""
    beads = {p * k for k in q0}
    for i, q in enumerate(qs, 1):
        m = sum(1 for b in rho if b % p == i)
        assert len(q) <= m, (rho, p, i, q)
        padded = q + (0,) * (m - len(q))
        beads.update(i + p * (padded[k] + m - 1 - k) for k in range(m))
    return tuple(sorted(beads, reverse=True))


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_block_enum_against_quotient_first_product(p, parity):
    """Each composition part of a Rouquier block is the product
    strict(d0) x ordinary(d1) x ... built quotient-first, and the parts
    partition the whole block."""
    from spinblocks.rouquier import generate

    L = (p - 1) // 2
    for d in range(1, 5):
        rho = generate(p, d, parity, 1)[0]
        assert from_quotient(rho, p, (), ((),) * L) == rho
        union = []
        for dcomp in product(range(d + 1), repeat=L + 1):
            if sum(dcomp) != d:
                continue
            built = []
            for q0, *qs in product(
                enumerate_partitions(dcomp[0], STRICT),
                *(enumerate_partitions(di, ORDINARY) for di in dcomp[1:]),
            ):
                lam = from_quotient(rho, p, q0, tuple(qs))
                assert quotient(lam, p) == BarQuotient(q0, tuple(qs))
                built.append(lam)
            part = block_enum(rho, p, d, dcomp)
            assert part == sorted(built, reverse=True), (rho, p, d, dcomp)
            union.extend(part)
        assert len(union) == len(set(union))
        assert sorted(union, reverse=True) == block_enum(rho, p, d)


def test_block_label_count_matches_the_listed_block():
    """_block_size, [x^d] Q(x) P(x)^ell, is the length of the listed block
    over the empty core and over a Rouquier core."""
    from spinblocks.rouquier import generate

    for p, dmax in ((3, 10), (5, 6), (7, 6), (11, 3), (13, 3)):
        for d in range(dmax + 1):
            for rho in ((), generate(p, max(d, 1), "odd", 1)[0]):
                assert abacus._block_size(p, d) == len(block_enum(rho, p, d)), (rho, p, d)
    assert [abacus._block_size(p, d) for p, d in ((3, 24), (5, 18), (7, 6))] == [23528, 64565, 455]


def test_block_enum_returns_fresh_lists():
    rho = (12, 7, 6, 2, 1)
    for dcomp in (None, (0, 2, 0)):
        first = block_enum(rho, 5, 2, dcomp)
        expected = list(first)
        first.clear()
        first.append((1,))
        assert block_enum(rho, 5, 2, dcomp) == expected


def test_block_enum_domain_error_is_not_memoized():
    # (2, 1) is 1-Rouquier only, so its weight-2 block leaves the quotient domain
    for _ in range(2):
        with pytest.raises(DomainError):
            block_enum((2, 1), 5, 2, (0, 2, 0))


def test_block_memo_does_not_accept_a_float_weight():
    block_enum((2, 1), 5, 1)
    with pytest.raises(TypeError):
        block_enum((2, 1), 5, 1.0)


def test_block_memos_clear():
    block_enum((12, 7, 6, 2, 1), 5, 2, (0, 2, 0))
    for memo in (abacus._block, abacus._block_by_sizes):
        assert memo.cache_info().currsize > 0
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    assert block_enum((12, 7, 6, 2, 1), 5, 2, (0, 2, 0)) == [
        (16, 12, 7, 2, 1), (12, 11, 7, 6, 2),
    ]
