import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from climb.netgen import _ensure_live_parents, random_cpts, random_net


def _ensure_live_parents_reference(peak, parent_cards, k):
    """``_ensure_live_parents`` as it was before it worked in place, kept as the reference."""
    grid = peak.reshape(parent_cards).copy()
    for _ in range(8):
        clean = True
        for ax, size in enumerate(parent_cards):
            if size == 1:
                continue
            if np.all(grid == np.take(grid, [0], axis=ax)):
                cell = [0] * grid.ndim
                cell[ax] = size - 1
                grid[tuple(cell)] = (int(grid[tuple(cell)]) + 1) % k
                clean = False
        if clean:
            break
    return grid.reshape(-1)


def _random_cpts_reference(nodes, parents, cards, rng, strength=(0.55, 0.9), spread=0.0):
    """``random_cpts`` as it was before it built tables a block at a time, kept as the byte reference."""
    lo, hi = strength
    cpts = {}
    for v in nodes:
        k = cards[v]
        rows = math.prod(cards[p] for p in parents[v])
        peak = rng.integers(0, k, size=rows)
        if rows > 1 and k > 1:
            peak = _ensure_live_parents_reference(peak, tuple(cards[p] for p in parents[v]), k)
        base = rng.uniform(lo, hi)
        w = np.clip(base + rng.uniform(-spread, spread, size=rows), 0.02, 0.98)
        cpt = np.full((rows, k), (1.0 - w)[:, None] / k)
        cpt[np.arange(rows), peak] += w
        cpts[v] = cpt / cpt.sum(axis=1, keepdims=True)
    return cpts


@pytest.mark.parametrize("spread", [0.0, 0.15])
def test_random_cpts_bytes_match_the_reference(spread):
    # children of twelve parents (cardinalities 2 and 3: 46,656 rows, several blocks) with 3 and 9
    # values, next to roots, one-valued nodes, every width from 1 to 9 and small tables that need flips
    roots = tuple(f"P{i}" for i in range(12))
    widths = {f"W{k}": k for k in range(1, 10)}
    nodes = (*roots, "ONE", "C", "H", "D", "E", "F", *widths)
    parents = {
        **{p: () for p in roots}, "ONE": (), "C": roots, "H": roots, "D": ("P0", "C"),
        "E": ("P1", "ONE", "P2"), "F": ("ONE",), **{w: ("P0", "P1", "ONE") for w in widths},
    }
    cards = {**{p: 2 + i % 2 for i, p in enumerate(roots)}, "ONE": 1, "C": 3, "H": 9, "D": 4, "E": 2, "F": 1,
             **widths}
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = random_cpts(nodes, parents, cards, got_rng, (0.3, 0.9), spread)
    want = _random_cpts_reference(nodes, parents, cards, want_rng, (0.3, 0.9), spread)
    assert got["C"].shape == (46_656, 3) and got["H"].shape == (46_656, 9)
    for v in nodes:
        assert got[v].dtype == want[v].dtype and got[v].shape == want[v].shape
        assert got[v].tobytes() == want[v].tobytes(), v
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()


def test_axis_test_stops_at_the_first_difference_with_the_same_decisions():
    # constant along axis 1 except in its last slab: every axis is live, so nothing flips
    i, j, m = np.indices((3, 4, 2))
    live = ((i + m + (j == 3)) % 3).astype(np.uint8).reshape(-1)
    before = live.copy()
    _ensure_live_parents(live, (3, 4, 2), 3)
    assert live.tobytes() == before.tobytes()
    assert live.tobytes() == _ensure_live_parents_reference(before, (3, 4, 2), 3).astype(np.uint8).tobytes()
    # constant everywhere: each axis gets its flip, in place, as the reference does
    flat = np.zeros(24, dtype=np.uint8)
    _ensure_live_parents(flat, (3, 4, 2), 3)
    want = _ensure_live_parents_reference(np.zeros(24, dtype=np.int64), (3, 4, 2), 3)
    assert flat.tobytes() == want.astype(np.uint8).tobytes() and flat.any()
    # many small maps, most of them constant along some axis
    rng = np.random.default_rng(5)
    for _ in range(300):
        cards = tuple(int(c) for c in rng.integers(1, 4, size=rng.integers(1, 5)))
        k = int(rng.integers(2, 4))
        peak = (rng.random(math.prod(cards)) < 0.1).astype(np.uint8)
        want = _ensure_live_parents_reference(peak.astype(np.int64), cards, k)
        _ensure_live_parents(peak, cards, k)
        assert peak.tobytes() == want.astype(np.uint8).tobytes(), (cards, k)


def test_dense_net_peak_memory_is_one_table_set():
    # dense-roles' ground truth: one table of 663,552 x 3 among 16.9 MiB of tables
    tracemalloc.start()
    try:
        net = random_net(40, 0.2, 3, card_range=(2, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = sum(cpt.nbytes for cpt in net.cpts.values())
    assert peak <= 1.25 * tables, f"peak {peak / tables:.2f}x the tables' bytes"


@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        # random-pc's and dense-roles' ground truth, and a Dirichlet net
        ((100, 0.04, 1), {"card_range": (2, 4)}, "ec4c5a91cedce32b6afd02e775fd80a99bdd6d1053f97731ecd32fab9a09b94c"),
        ((40, 0.2, 3), {"card_range": (2, 4)}, "340f7bcec7630144106e9ec342055a7531e2050103977abfd30a999c1fb287c0"),
        ((30, 0.15, 5), {"card_range": (2, 5), "concentration": 2.0},
         "3a2fbc66363f557a5482d90401d5ad83fe57f0f39457c536d727975fc59bde93"),
    ],
    ids=["random-pc", "dense-roles", "dirichlet"],
)
def test_random_net_bytes_pinned(args, kwargs, digest):
    net = random_net(*args, **kwargs)
    h = hashlib.sha256()
    for v in net.nodes:
        cpt = net.cpts[v]
        h.update(repr((v, net.parents[v], net.labels[v], cpt.dtype.str, cpt.shape)).encode())
        h.update(cpt.tobytes())
    assert net.name == "random" and h.hexdigest() == digest
