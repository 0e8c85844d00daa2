"""Seeded ground-truth networks for benchmarks and tests.

``alarm_network`` rebuilds the classical 37-node, 46-edge monitoring
topology. Its conditional probability tables are synthesized from a seed
(drawn toward low-entropy rows, like the hand-specified originals) because
no parameter file ships with this repository; the structure is the
literature one. ``random_cpts`` is the shared row generator, also used for
the small fixture nets and the randomized DAG cases in the test suite.
"""
from __future__ import annotations

import math

import numpy as np

from .bif import _BLOCK_ROWS, BayesNet

__all__ = ["alarm_network", "blanket_demo_network", "random_net", "random_cpts"]

# classical monitoring-network structure: (child, parents)
_ALARM_PARENTS: dict[str, tuple[str, ...]] = {
    "MINVOLSET": (),
    "VENTMACH": ("MINVOLSET",),
    "DISCONNECT": (),
    "VENTTUBE": ("VENTMACH", "DISCONNECT"),
    "KINKEDTUBE": (),
    "INTUBATION": (),
    "VENTLUNG": ("VENTTUBE", "KINKEDTUBE", "INTUBATION"),
    "VENTALV": ("VENTLUNG", "INTUBATION"),
    "MINVOL": ("VENTLUNG", "INTUBATION"),
    "EXPCO2": ("VENTLUNG", "ARTCO2"),
    "PRESS": ("VENTTUBE", "KINKEDTUBE", "INTUBATION"),
    "ARTCO2": ("VENTALV",),
    "FIO2": (),
    "PVSAT": ("VENTALV", "FIO2"),
    "SAO2": ("PVSAT", "SHUNT"),
    "PULMEMBOLUS": (),
    "SHUNT": ("PULMEMBOLUS", "INTUBATION"),
    "PAP": ("PULMEMBOLUS",),
    "ANAPHYLAXIS": (),
    "TPR": ("ANAPHYLAXIS",),
    "INSUFFANESTH": (),
    "CATECHOL": ("TPR", "SAO2", "ARTCO2", "INSUFFANESTH"),
    "HR": ("CATECHOL",),
    "ERRLOWOUTPUT": (),
    "HRBP": ("HR", "ERRLOWOUTPUT"),
    "ERRCAUTER": (),
    "HREKG": ("HR", "ERRCAUTER"),
    "HRSAT": ("HR", "ERRCAUTER"),
    "HYPOVOLEMIA": (),
    "LVFAILURE": (),
    "HISTORY": ("LVFAILURE",),
    "LVEDVOLUME": ("HYPOVOLEMIA", "LVFAILURE"),
    "CVP": ("LVEDVOLUME",),
    "PCWP": ("LVEDVOLUME",),
    "STROKEVOLUME": ("HYPOVOLEMIA", "LVFAILURE"),
    "CO": ("HR", "STROKEVOLUME"),
    "BP": ("CO", "TPR"),
}

_ALARM_CARDS: dict[str, int] = {
    "MINVOLSET": 3,
    "VENTMACH": 4,
    "DISCONNECT": 2,
    "VENTTUBE": 4,
    "KINKEDTUBE": 2,
    "INTUBATION": 3,
    "VENTLUNG": 4,
    "VENTALV": 4,
    "MINVOL": 4,
    "EXPCO2": 4,
    "PRESS": 4,
    "ARTCO2": 3,
    "FIO2": 2,
    "PVSAT": 3,
    "SAO2": 3,
    "PULMEMBOLUS": 2,
    "SHUNT": 2,
    "PAP": 3,
    "ANAPHYLAXIS": 2,
    "TPR": 3,
    "INSUFFANESTH": 2,
    "CATECHOL": 2,
    "HR": 3,
    "ERRLOWOUTPUT": 2,
    "HRBP": 3,
    "ERRCAUTER": 2,
    "HREKG": 3,
    "HRSAT": 3,
    "HYPOVOLEMIA": 2,
    "LVFAILURE": 2,
    "HISTORY": 2,
    "LVEDVOLUME": 3,
    "CVP": 3,
    "PCWP": 3,
    "STROKEVOLUME": 3,
    "CO": 3,
    "BP": 3,
}


def _ensure_live_parents(peak: np.ndarray, parent_cards: tuple[int, ...], k: int) -> None:
    """Repair a dominant-category map in place so every parent actually matters.

    A map that is constant along one parent's axis severs that edge from the
    generated distribution, so the graph would no longer be the ground truth
    of its own data. Constant axes get one deterministic flip each. An axis
    is compared slab by slab with its first slab, up to the first difference.
    """
    grid = peak.reshape(parent_cards)  # a view: the flips land in peak
    for _ in range(8):
        clean = True
        for ax, size in enumerate(parent_cards):
            slabs = np.moveaxis(grid, ax, 0)
            if size == 1 or not all(np.array_equal(slabs[i], slabs[0]) for i in range(1, size)):
                continue
            cell = [0] * grid.ndim
            cell[ax] = size - 1
            grid[tuple(cell)] = (int(grid[tuple(cell)]) + 1) % k
            clean = False
        if clean:
            break


def random_cpts(
    nodes: tuple[str, ...],
    parents: dict[str, tuple[str, ...]],
    cards: dict[str, int],
    rng: np.random.Generator,
    strength: tuple[float, float] = (0.55, 0.9),
    spread: float = 0.0,
) -> dict[str, np.ndarray]:
    """One low-entropy probability row per parent configuration.

    Each row mixes a uniform background with a point mass on a random
    dominant category. The mixing weight is drawn from ``strength`` per node
    and jittered by ``spread`` per row, so some mechanisms come out crisp and
    others faint, as in hand-specified networks. Draws and tables go a block
    of rows at a time, so besides the tables only a block's scratch and each
    row's dominant category, in the narrowest integer type, are held.
    """
    lo, hi = strength
    cpts: dict[str, np.ndarray] = {}
    for v in nodes:
        k = cards[v]
        rows = math.prod(cards[p] for p in parents[v])
        # block draws give the values and generator state of one draw
        peak = np.empty(rows, dtype=np.min_scalar_type(k - 1))
        for start in range(0, rows, _BLOCK_ROWS):
            peak[start:start + _BLOCK_ROWS] = rng.integers(0, k, size=min(_BLOCK_ROWS, rows - start))
        if rows > 1 and k > 1:
            _ensure_live_parents(peak, tuple(cards[p] for p in parents[v]), k)
        base = rng.uniform(lo, hi)
        cpt = np.empty((rows, k))
        for start in range(0, rows, _BLOCK_ROWS):
            block = cpt[start:start + _BLOCK_ROWS]
            w = np.clip(base + rng.uniform(-spread, spread, size=block.shape[0]), 0.02, 0.98)
            block[:] = (1.0 - w)[:, None] / k
            block[np.arange(block.shape[0]), peak[start:start + _BLOCK_ROWS]] += w
            block /= block.sum(axis=1, keepdims=True)
        cpts[v] = cpt
    return cpts


def _build(name: str, parents: dict[str, tuple[str, ...]], cards: dict[str, int], seed: int,
           strength: tuple[float, float] = (0.55, 0.9), spread: float = 0.0) -> BayesNet:
    nodes = tuple(parents)
    rng = np.random.Generator(np.random.PCG64(seed))
    cpts = random_cpts(nodes, parents, cards, rng, strength, spread)
    labels = {v: tuple(f"s{i}" for i in range(cards[v])) for v in nodes}
    return BayesNet(name=name, nodes=nodes, labels=labels, parents=parents, cpts=cpts)


def alarm_network() -> BayesNet:
    """The 37-node monitoring network with synthetic parameters from seed 179."""
    return _build("alarm", _ALARM_PARENTS, _ALARM_CARDS, 179, strength=(0.3, 0.9), spread=0.15)


def blanket_demo_network(seed: int = 3) -> BayesNet:
    """Ten nodes around a target with three parents, two children, one spouse.

    The extras: a grandparent above one parent, a grandchild below one child,
    and an isolated node, so blanket recovery has something to exclude.
    """
    parents = {
        "N1": (),
        "P1": (),
        "P2": ("N1",),
        "P3": (),
        "S": (),
        "T": ("P1", "P2", "P3"),
        "C1": ("T",),
        "C2": ("T", "S"),
        "G1": ("C1",),
        "N2": (),
    }
    cards = {v: 3 if v in ("T", "C1", "C2") else 2 for v in parents}
    return _build("blanket_demo", parents, cards, seed, strength=(0.6, 0.9))


def random_net(
    n_nodes: int,
    edge_prob: float,
    seed: int,
    card_range: tuple[int, int] = (2, 2),
    concentration: float | None = None,
) -> BayesNet:
    """Random DAG over an ordered node set with random tables.

    By default rows come from the dominant-category generator. With a
    ``concentration`` the rows are independent Dirichlet draws instead:
    fully continuous, so exact parametric cancellations (a d-connected pair
    carrying zero information) have probability zero.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    names = tuple(f"X{i}" for i in range(n_nodes))
    parents: dict[str, tuple[str, ...]] = {}
    for j, v in enumerate(names):
        pa = [names[i] for i in range(j) if rng.random() < edge_prob]
        parents[v] = tuple(pa)
    cards = {v: int(rng.integers(card_range[0], card_range[1] + 1)) for v in names}
    if concentration is None:
        cpts = random_cpts(names, parents, cards, rng, (0.3, 0.9))
    else:
        cpts = {}
        for v in names:
            rows = math.prod(cards[p] for p in parents[v])
            cpt = rng.dirichlet(np.full(cards[v], concentration), size=rows)
            cpt /= cpt.sum(axis=1, keepdims=True)
            cpts[v] = cpt
    labels = {v: tuple(f"s{i}" for i in range(cards[v])) for v in names}
    return BayesNet(name="random", nodes=names, labels=labels, parents=parents, cpts=cpts)
