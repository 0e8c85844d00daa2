"""Golden digests of every bench runner's result at tiny sizes.

Each runner's ``to_json_obj()`` is dumped with sorted keys and hashed. The
digests were recorded before the runners shared one replicate-stream
generator and one CLIMB sweep, so any change to stream numbering, row order,
failure rows or metric arithmetic shows up here. The capped runs pin the
failure rows and ``failed_nodes``, which the default settings never produce.
"""
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
NETS = (NET, blanket_demo_network(seed=4))

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
    "cmb": "146f3b0472e359a9b0ccff1da067bfe59453476fdf09604b8c3e981c28f18e08",
    "discovery": "0abe707260b92a23740642108dfd49a6b67dce1b75cd4063fd4decbe7e9c8b5b",
    "dsep": "7a8eca86772c95cc7ebc6df39890bec758b47401f43b691997b89da1f3c3e298",
    "mb": "e6356b4935936b57f4b065dfee870fc4e58256ed8f8455659a4796d09c454991",
    "mb_cap0": "3caec17382934a3018460b1b8655c9ddbe905d52dfc5373b3521e8939a29e047",
    "mb_cap2": "7163acf07747a558bd3f9f466c6bac7f430fc1dadf1c6113c10d0b992ed38275",
    "partition": "7e3e2e31ddfe3be8e328023c20cdb69bb53ad14ea45110dff974b59a9c51a70e",
    "partition_cap2": "b28f65501ed3e858681b8ab85552fe1ef5d393f25d56d0deb6b2c637dee84252",
    "zero_baseline": "8e0e10ad0face433e950a86b89e9457b3ad1fe1f4656f9bba85471f792e8b426",
}


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_json_obj(), sort_keys=True).encode()).hexdigest()


# a replicate whose every node hits the cap averages an empty list (NaN)
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_runner_digest(name):
    assert digest(RUNS[name]()) == GOLDEN[name]
