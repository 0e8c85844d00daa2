"""The traced benchmark (``perfbench/run.py --trace 1``) swaps wrappers in for
package attributes by name. Entering and leaving its patch set here makes a
renamed or deleted attribute fail this suite, not only the traced run."""
import importlib.util
from pathlib import Path

from climb import bif, blanket, citests, csvio, graph, netgen, sampling
from climb.citests import IndependenceTest
from climb.netgen import blanket_demo_network
from climb.nml import RegretTable
from climb.sampling import SampleSpec, forward_sample

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PATCHED = (bif, blanket, citests, csvio, graph, netgen, sampling, IndependenceTest, RegretTable)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    data = forward_sample(blanket_demo_network(), SampleSpec(500, 0.0, 1))
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = load_tracing().Tracer()
    with tracer.installed():
        test = citests.make_test(data, "sci", regrets=RegretTable())
        blanket.climb(data, data.index_of("T"), test, 3, 20, test.regrets)
    assert [dict(vars(owner)) for owner in PATCHED] == before
    assert tracer.ncalls("blanket.climb") == 1
    assert tracer.ncalls("blanket.find_best_partition") == 1
    assert tracer.counts["citests.queries"] > 0
