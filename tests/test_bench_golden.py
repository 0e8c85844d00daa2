"""Golden digests of every bench runner's result at tiny sizes.

Each runner's ``to_json_obj()`` is dumped with sorted keys and hashed. The
digests were recorded before the runners shared one replicate-stream
generator and one CLIMB sweep, so any change to stream numbering, row order,
failure rows or metric arithmetic shows up here. The capped runs pin the
failure rows and ``failed_nodes``, which the default settings never produce.
``mb_cap0`` was re-recorded when a replicate whose every node hits the cap
began to score ``null`` instead of ``NaN``. ``mb``, ``mb_cap0``, ``mb_cap2`` and
``cmb`` were re-recorded when CLIMB's one-sided PC search began to grow and
shrink in one pass, which moves blankets and test counts. The same four were
re-recorded again when CLIMB and PCMB came to share one search-memo record,
so that a replayed search counts as the rerun it stands for (CLIMB's
``tests`` grow; no blanket of these fixtures moves), and when the ``mb`` and
``cmb`` rows gained an ``evaluated`` count next to ``tests``. ``discovery``
was re-recorded when the runner began to refuse two networks of one name:
its second network, ``blanket_demo_network(seed=4)``, now runs as
``blanket_demo_4``. Before, both ran as ``blanket_demo``, so the 24 rows
folded into 6 aggregates of ``count`` 4 and the seed-4 network's four
``ext``/``ext_climb`` rows scored the seed-3 DAG against the seed-4 truth;
now the 20 rows give 10 aggregates of ``count`` 2. Every other digest is the
original.
"""
import dataclasses
import hashlib
import json

import pytest

from climb.bench import (
    run_causal_discovery,
    run_cmb_benchmark,
    run_dsep_benchmark,
    run_mb_benchmark,
    run_partition_benchmark,
    run_zero_baseline,
)
from climb.netgen import blanket_demo_network

NET = blanket_demo_network()
NETS = (NET, dataclasses.replace(blanket_demo_network(seed=4), name="blanket_demo_4"))

RUNS = {
    "dsep": lambda: run_dsep_benchmark((100, 200), (0.0, 0.3), 2, seed=1),
    "mb": lambda: run_mb_benchmark(NET, (300, 600), 2, seed=5),
    "mb_cap0": lambda: run_mb_benchmark(NET, (300, 600), 2, seed=5, cap=0, methods=("climb_sci",)),
    "mb_cap2": lambda: run_mb_benchmark(NET, (300, 600), 2, seed=5, cap=2, methods=("climb_sci",)),
    "partition": lambda: run_partition_benchmark(NET, (300, 600), 2, seed=9),
    "partition_cap2": lambda: run_partition_benchmark(NET, (300, 600), 2, seed=9, cap=2),
    "cmb": lambda: run_cmb_benchmark(NET, (300, 600), 2, seed=2),
    "discovery": lambda: run_causal_discovery(
        NETS, 500, 2, seed=4, external_cpdags={NET.name: NET.dag()}
    ),
    "zero_baseline": lambda: run_zero_baseline((1, 4, 16), n=200, replicates=3, seed=12),
}

GOLDEN = {
    "cmb": "d7afb2e8b5fc757523041f8f83547e9513cc48fe455993764e94ecd6df742bf5",
    "discovery": "544df430cb50b1daa2eaf76c94939e7a4790e1c9a715b8475a933ff2865d50d5",
    "dsep": "7a8eca86772c95cc7ebc6df39890bec758b47401f43b691997b89da1f3c3e298",
    "mb": "4fd3ad59b31b3d62142d03d9e4b4c7e941a1f6c573c7663379416c2bc5cc0de1",
    "mb_cap0": "b03255c9b06e30311949b2eef4f9ad76e68f9f403ee127bd7b9cf0edd75d4f01",
    "mb_cap2": "f6e12df9ac9795dee0216e953121f58b931fddb4766dd15ee04bcaa5d2396abc",
    "partition": "7e3e2e31ddfe3be8e328023c20cdb69bb53ad14ea45110dff974b59a9c51a70e",
    "partition_cap2": "b28f65501ed3e858681b8ab85552fe1ef5d393f25d56d0deb6b2c637dee84252",
    "zero_baseline": "8e0e10ad0face433e950a86b89e9457b3ad1fe1f4656f9bba85471f792e8b426",
}


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_json_obj(), sort_keys=True, allow_nan=False).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_runner_digest(name):
    assert digest(RUNS[name]()) == GOLDEN[name]
