"""The differential corpus: every entry point's rows hash to the digest that
`corpus_digests.json` records (regenerate with tests/make_corpus.py)."""

import pytest

import corpus
from test_validation import ENTRY_POINTS

DIGESTS = corpus.load_digests()


@pytest.fixture(scope="module")
def cli_rows():
    return corpus.cli_rows()


@pytest.mark.parametrize("name", sorted(corpus.LIBRARY))
def test_library_entry_matches_its_digest(name):
    assert corpus.digest(corpus.library_rows(name)) == DIGESTS[name]


def test_cli_entries_match_their_digests(cli_rows):
    got = {name: corpus.digest(rows) for name, rows in cli_rows.items()}
    want = {name: d for name, d in DIGESTS.items() if name.startswith("cli")}
    assert sorted(n for n in got.keys() | want.keys() if got.get(n) != want.get(n)) == []


def test_corpus_covers_the_validated_entry_points_and_every_exit_code(cli_rows):
    assert set(ENTRY_POINTS) <= set(corpus.LIBRARY)
    assert set(DIGESTS) == set(corpus.LIBRARY) | set(cli_rows)
    codes = {int(row.split(" -> [")[1].split(",")[0]) for rows in cli_rows.values() for row in rows}
    assert codes == {0, 1, 2, 3}
