"""Host-speed samples for the cost scripts, in the units of ``perfbench``.

A sample is the faster of two back-to-back runs of the ``reference_s`` of
``perfbench/workloads.py`` (a fixed mix of interpreter work and small numpy
calls), as ``perfbench/run.py`` takes it. A timing divided by the mean of
the samples taken before and after it cancels most of a drifting host's
speed. Needs ``src`` on the path, as the scripts that import it do.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import reference_s  # noqa: E402


def host_s() -> float:
    """One host-speed sample in seconds."""
    return min(reference_s(), reference_s())
