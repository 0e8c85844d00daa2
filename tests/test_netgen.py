import math

import numpy as np
import pytest

from climb.netgen import _ensure_live_parents, random_cpts


def _random_cpts_reference(nodes, parents, cards, rng, strength=(0.55, 0.9), spread=0.0):
    """``random_cpts`` as it was before it normalised in place, kept as the byte reference."""
    lo, hi = strength
    cpts = {}
    for v in nodes:
        k = cards[v]
        rows = math.prod(cards[p] for p in parents[v])
        peak = rng.integers(0, k, size=rows)
        if rows > 1 and k > 1:
            peak = _ensure_live_parents(peak, tuple(cards[p] for p in parents[v]), k)
        base = rng.uniform(lo, hi)
        w = np.clip(base + rng.uniform(-spread, spread, size=rows), 0.02, 0.98)
        cpt = np.full((rows, k), (1.0 - w)[:, None] / k)
        cpt[np.arange(rows), peak] += w
        cpts[v] = cpt / cpt.sum(axis=1, keepdims=True)
    return cpts


@pytest.mark.parametrize("spread", [0.0, 0.15])
def test_random_cpts_bytes_match_the_reference(spread):
    # a child of twelve parents (cardinalities 2 and 3: 46,656 rows) next to roots and a small child
    roots = tuple(f"P{i}" for i in range(12))
    nodes = (*roots, "C", "D")
    parents = {**{p: () for p in roots}, "C": roots, "D": ("P0", "C")}
    cards = {**{p: 2 + i % 2 for i, p in enumerate(roots)}, "C": 3, "D": 4}
    got = random_cpts(nodes, parents, cards, np.random.default_rng(11), (0.3, 0.9), spread)
    want = _random_cpts_reference(nodes, parents, cards, np.random.default_rng(11), (0.3, 0.9), spread)
    assert got["C"].shape == (46_656, 3)
    for v in nodes:
        assert got[v].dtype == want[v].dtype and got[v].shape == want[v].shape
        assert got[v].tobytes() == want[v].tobytes(), v
