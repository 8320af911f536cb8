"""The golden CLI corpus, tests/golden/cli.jsonl: every request replayed in-process through main gives its
recorded exit code, stdout sha256 and stderr, and both sides of every identity in tests/golden/regen.py give the
same stdout bytes.  regen.py writes the corpus and says when to."""

from __future__ import annotations

import pytest

from braidnil.cli import _COMMANDS
from golden.regen import CORPUS, IDENTITIES, chain, hashed, read_corpus, recorded, replay, requests

HEADER, RECORDS = read_corpus()


@pytest.mark.parametrize("record", RECORDS, ids=[f"{i}-{r['argv'][0]}" for i, r in enumerate(RECORDS)])
def test_a_golden_request_replays_its_recorded_outcome(monkeypatch, record):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal's width
    assert hashed(replay(record["argv"])) == recorded(record)


def test_the_corpus_names_its_commit_covers_every_subcommand_and_stays_small():
    assert len(HEADER["commit"]) == 40
    assert {r["argv"][0] for r in RECORDS} == set(_COMMANDS)
    assert len({tuple(r["argv"]) for r in RECORDS}) == len(RECORDS)
    assert {tuple(argv) for argv in requests()} == {tuple(r["argv"]) for r in RECORDS}  # no list is ahead of the corpus
    assert CORPUS.stat().st_size < 150_000


@pytest.mark.parametrize("left, right", [i[1:] for i in IDENTITIES], ids=[i[0] for i in IDENTITIES])
def test_an_identity_gives_the_same_bytes_on_both_sides(left, right):
    assert chain(left, replay) == chain(right, replay)


def test_an_identity_is_named_once_and_chains_requests_on_earlier_steps():
    assert len({name for name, _, _ in IDENTITIES}) == len(IDENTITIES)
    for _, left, right in IDENTITIES:
        assert left[-1] != right[-1]  # no identity compares a request with itself
        for steps in (left, right):
            for s, step in enumerate(steps):
                assert step[0] in _COMMANDS
                refs = [item if isinstance(item, int) else item[0] for item in step if not isinstance(item, str)]
                assert all(0 <= i < s for i in refs)
