import pytest

from spinblocks.abacus import block_enum, ell
from spinblocks.exceptions import DomainError, ShapeError
from spinblocks.rouquier import (
    generate,
    is_rouquier,
    rho_extension,
    strip_classify,
)


def test_is_rouquier_examples():
    assert is_rouquier((2, 1), 5, 1)
    assert not is_rouquier((2, 1), 5, 2)
    assert not is_rouquier((), 5, 1)
    with pytest.raises(DomainError):
        is_rouquier((5, 2, 1), 5, 1)  # not a bar-core


def test_generate_examples():
    assert generate(5, 2, "odd", 1) == [(12, 7, 6, 2, 1)]
    assert generate(5, 1, "odd", 1) == [(2, 1)]


def test_generate_contract():
    for p in (3, 5, 7):
        for d in (1, 2, 3):
            for parity in ("even", "odd"):
                cores = generate(p, d, parity, 3)
                assert len(cores) == 3
                sizes = [sum(c) for c in cores]
                assert sizes == sorted(sizes)
                for rho in cores:
                    assert is_rouquier(rho, p, d)
                    want_odd = parity == "odd"
                    assert ((sum(rho) - len(rho)) % 2 == 1) == want_odd


def test_rouquier_monotone_in_d():
    for p in (5, 7):
        for d in (2, 3):
            rho = generate(p, d, "even", 1)[0]
            for k in range(1, d + 1):
                assert is_rouquier(rho, p, k)


def test_strip_classify_examples():
    cert = strip_classify((6, 2), (2, 1), 5)
    assert cert.runner == 1
    assert cert.boxes == ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3))
    cert = strip_classify((5, 2, 1), (2, 1), 5)
    assert cert.runner == 0
    assert cert.boxes == ((1, 3), (1, 4), (1, 5), (2, 3), (3, 3))
    cert = strip_classify((7, 1), (2, 1), 5)
    assert cert.runner == 2
    assert len(cert.boxes) == 5


def test_strip_classify_rejects_non_strips():
    with pytest.raises(ShapeError):
        strip_classify((7, 1), (2, 1), 3)  # wrong bar size
    with pytest.raises(ShapeError):
        strip_classify((4, 3, 1), (2, 1), 5)  # same size, not one bar


def test_strip_classify_looks_on_the_one_runner_of_the_largest_new_bead(monkeypatch):
    """A move on runner pair i adds the bead i or p - i (a pair: both), so
    strip_classify asks the single-runner _neighbors once: it names runner j
    for every addition _moves lists at index j in generated blocks, and it
    refuses a non-extension at the largest p after one O(h) lookup."""
    from spinblocks import abacus, rouquier

    for p in (3, 5, 7):
        for parity in ("even", "odd"):
            for d in (1, 2, 3):
                rho = generate(p, d, parity, 1)[0]
                for mu in block_enum(rho, p, d - 1):
                    for j, adds in enumerate(abacus._moves(mu, p, "add")):
                        for lam in adds:
                            assert strip_classify(lam, mu, p).runner == j
    calls = []
    real = rouquier._neighbors
    monkeypatch.setattr(rouquier, "_neighbors", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ShapeError):
        strip_classify((4, 3, 1), (2, 1), 9999991)
    with pytest.raises(ShapeError):
        strip_classify((2, 1), (2, 1), 5)
    assert calls == [((2, 1), 9999991, 4, "add"), ((2, 1), 5, 0, "add")]


def test_strip_shape_across_generated_blocks():
    """Every one-bar pair in a generated Rouquier block classifies, with
    strip arm ell+i+1 and leg ell-i+1."""
    for p in (3, 5, 7):
        L = ell(p)
        for parity in ("even", "odd"):
            for d in (1, 2):
                rho = generate(p, d, parity, 1)[0]
                below = block_enum(rho, p, d - 1)
                above = block_enum(rho, p, d)
                pairs = 0
                for mu in below:
                    for lam in above:
                        if all(
                            m <= l for m, l in zip(mu, lam)
                        ) and len(mu) <= len(lam):
                            cert = strip_classify(lam, mu, p)
                            pairs += 1
                            rows = {}
                            for r, c in cert.boxes:
                                rows.setdefault(r, []).append(c)
                            top = min(rows)
                            assert len(rows[top]) == L + cert.runner + 1
                            assert len(rows) == L - cert.runner + 1
                assert pairs > 0


def test_rho_extension_matches_strips():
    rho = (2, 1)
    assert rho_extension(rho, 5, 0) == (5, 2, 1)
    assert rho_extension(rho, 5, 1) == (6, 2)
    assert rho_extension(rho, 5, 2) == (7, 1)
    for j in range(3):
        assert strip_classify(rho_extension(rho, 5, j), rho, 5).runner == j
