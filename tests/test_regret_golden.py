"""Bit-exact regression of the log2-regret on fixed (card, n) pairs.

``regret_golden.json`` holds ``float.hex`` of ``nml._regret_bits`` for
cards 2, 3, 4, 5, 16 and 1024 over small n, over n from 700 to 2100 (where
blocks start to leave double range and are halved: from n = 528 at card
1024, 750-819 at cards 2-16) and over n above the 2048-summand block,
recorded with the code that recomputed every halved block. Every code length sums these values, so equality here is
bitwise, not approximate.

    PYTHONPATH=src python tests/test_regret_golden.py --write

rewrites the file from the code as it stands; only do that for a change
that is meant to move a regret, and say so.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from climb.nml import RegretTable, _regret_bits

GOLDEN = Path(__file__).with_name("regret_golden.json")
CARDS = (2, 3, 4, 5, 16, 1024)
NS = (
    list(range(0, 41))
    + list(range(700, 2101, 7))
    + [2047, 2048, 2049, 2050, 2500, 3000, 4095, 4096, 4097, 5000, 6000]
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pairs_match_the_file(golden):
    assert golden["ns"] == NS
    assert sorted(golden["bits"]) == sorted(str(c) for c in CARDS)


@pytest.mark.parametrize("card", CARDS)
def test_regret_bits_bit_identical(golden, card):
    want = golden["bits"][str(card)]
    assert [_regret_bits(card, n).hex() for n in NS] == want
    # the memoised table returns the same bits, one by one and in a batch
    table = RegretTable()
    assert [table.log_regret(card, n).hex() for n in NS[::-1]][::-1] == want
    assert [v.hex() for v in RegretTable().log_regret_many(card, NS).tolist()] == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    record = {"ns": NS, "bits": {str(c): [_regret_bits(c, n).hex() for n in NS] for c in CARDS}}
    GOLDEN.write_text(json.dumps(record, indent=0) + "\n")
    print(f"wrote {len(CARDS) * len(NS)} values to {GOLDEN}")
