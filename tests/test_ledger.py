"""Replay the behaviour ledger (tests/data/ledger.json, written by
tests/ledger.py): every input of the grid keeps its exit code, its stdout
bytes and its stderr."""

import json

import pytest

import ledger

with open(ledger.LEDGER, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)


def test_ledger_covers_the_whole_grid():
    assert len(RECORDED) == 1968
    assert {key.split()[0] for key in RECORDED} == set(ledger.TABLES)


@pytest.mark.parametrize("table", list(ledger.TABLES))
def test_ledger_replays(table, tmp_path):
    recorded = {k: v for k, v in RECORDED.items() if k.split()[0] == table}
    replayed = ledger.table_outcomes(table, str(tmp_path))
    changed = sorted(k for k in recorded.keys() | replayed.keys()
                     if recorded.get(k) != replayed.get(k))
    assert not changed, f"{len(changed)} outcomes moved, first {changed[:5]}"
