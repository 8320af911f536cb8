"""The golden CLI corpus, tests/golden/cli.jsonl: every request replayed in-process through main gives its
recorded exit code, stdout sha256 and stderr.  tests/golden/regen.py writes the corpus and says when to."""

from __future__ import annotations

import pytest

from braidnil.cli import _COMMANDS
from golden.regen import CORPUS, read_corpus, recorded, replay

HEADER, RECORDS = read_corpus()


@pytest.mark.parametrize("record", RECORDS, ids=[f"{i}-{r['argv'][0]}" for i, r in enumerate(RECORDS)])
def test_a_golden_request_replays_its_recorded_outcome(monkeypatch, record):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal's width
    assert replay(record["argv"]) == recorded(record)


def test_the_corpus_names_its_commit_covers_every_subcommand_and_stays_small():
    assert len(HEADER["commit"]) == 40
    assert {r["argv"][0] for r in RECORDS} == set(_COMMANDS)
    assert len({tuple(r["argv"]) for r in RECORDS}) == len(RECORDS)
    assert CORPUS.stat().st_size < 150_000
