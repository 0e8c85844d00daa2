"""Forward sampling with uniform-replacement noise, and the four-node fixture.

All randomness flows through seeded PCG64 generators, so every sample is
reproducible bit for bit across platforms. Derived streams (one per
replicate) use ``derive_seed``: base seed XOR replicate counter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bif import BayesNet
from .graph import PDag
from .table import CategoricalTable, _Handover

__all__ = ["SampleSpec", "derive_seed", "forward_sample", "dsep_fixture"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SampleSpec:
    """How much data to draw, how noisy, and from which stream."""

    n: int
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("sample count must be >= 0")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise fraction must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def derive_seed(base: int, index: int) -> int:
    """Per-replicate stream: base seed XOR replicate counter, in 64 bits."""
    return (base ^ index) & _MASK64


def forward_sample(net: BayesNet, spec: SampleSpec) -> CategoricalTable:
    """Ancestral sampling in topological order, then per-node noise.

    With probability ``spec.noise`` a node's drawn value is replaced by a
    uniform draw over its domain, independently per node and row; descendants
    are sampled from the replaced values.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    order = net.dag().topological_order()
    codes: dict[str, np.ndarray] = {}
    for v in order:
        k = net.card(v)
        cpt = net.cpts[v]
        cfg = net.config_index(v, [codes[p] for p in net.parents[v]])
        # a row's cumsum is the same either way: a table with more rows than the
        # sample sums only the n rows drawn, a smaller one each of its rows once
        cum = np.cumsum(cpt[cfg], axis=-1) if cpt.shape[0] > n else np.cumsum(cpt, axis=1)[cfg]
        cum[..., -1] = 1.0
        u = rng.random(n)
        vals = (u[:, None] > cum).sum(axis=1).astype(np.int64)
        if spec.noise > 0.0:
            mask = rng.random(n) < spec.noise
            if mask.any():
                vals[mask] = rng.integers(0, k, size=int(mask.sum()))
        codes[v] = vals
    return CategoricalTable(
        names=net.nodes,
        columns=_Handover(codes[v] for v in net.nodes),
        cards=tuple(net.card(v) for v in net.nodes),
    )


def _permutation_cpt(perm: np.ndarray) -> np.ndarray:
    k = perm.shape[0]
    cpt = np.zeros((k, k))
    cpt[np.arange(k), perm] = 1.0
    return cpt


def dsep_fixture(spec: SampleSpec) -> tuple[CategoricalTable, PDag]:
    """Data from the diamond F -> D, F -> E, D -> T, E -> T over 4-valued domains.

    The base mechanisms are deterministic and drawn from ``spec.seed``:
    D and E are random relabelings of F, and T adds a random relabeling of E
    to D modulo the domain size, so that at zero noise every variable is a
    function of F while any positive noise below one keeps both direct edges
    into T informative. Noise replacement is the forward-sampling one.
    Ground truth: F is separated from T by {D, E}; D is not separated from T
    by {E, F}, nor E by {D, F}.
    """
    k = 4
    mech = np.random.Generator(np.random.PCG64(spec.seed))
    perm_d = mech.permutation(k)
    perm_e = mech.permutation(k)
    perm_t = mech.permutation(k)
    t_cpt = np.zeros((k * k, k))
    for d in range(k):
        for e in range(k):
            t_cpt[d * k + e, (d + perm_t[e]) % k] = 1.0
    net = BayesNet(
        name="dsep_fixture",
        nodes=("F", "D", "E", "T"),
        labels={v: ("0", "1", "2", "3") for v in ("F", "D", "E", "T")},
        parents={"F": (), "D": ("F",), "E": ("F",), "T": ("D", "E")},
        cpts={
            "F": np.full((1, k), 1.0 / k),
            "D": _permutation_cpt(perm_d),
            "E": _permutation_cpt(perm_e),
            "T": t_cpt,
        },
    )
    sample_seed = int(mech.integers(0, 1 << 63))
    table = forward_sample(net, SampleSpec(spec.n, spec.noise, sample_seed))
    return table, net.dag()
