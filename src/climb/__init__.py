"""Causal discovery on discrete data via stochastic complexity.

The package provides an exact multinomial-complexity engine, the SCI
conditional-independence test with classical baselines, causal Markov
blanket discovery, partial-DAG orientation, ground-truth network tooling and
a benchmark harness.
"""

from .bif import BayesNet, BifParseError, parse_bif, serialize_bif
from .blanket import (
    BlanketResult,
    Partition,
    PartitionCapError,
    climb,
    find_best_partition,
    find_pc,
    pcmb,
    score_partition,
)
from .citests import CiQuery, CiVerdict, g2_test, make_test, sci
from .csvio import load_csv, write_csv
from .graph import (
    PDag,
    climb_orient,
    d_separated,
    directed_edge_metrics,
    mb_set_metrics,
    orient_cpdag,
    pc_stable_skeleton,
    set_metrics,
)
from .nml import RegretTable, conditional_sc, delta, stochastic_complexity
from .sampling import SampleSpec, derive_seed, dsep_fixture, forward_sample
from .table import CategoricalTable

__version__ = "0.1.0"
