"""Golden single-chain DIPE results: the paper's flow, pinned to recorded values.

Single-chain DIPE (``num_chains=1``, paper-default configuration) on s27 and
s298 under both power engines and three seeds.  The expected estimate (as a
float hex string), sample size, selected independence interval and simulated
cycle count were recorded with release 1.3, whose single-chain sampler ran on
the big-int zero-delay engine.  The same values must come out whichever
zero-delay engine ``backend="auto"`` picks on the host: the word-sliced numpy
engine when the native kernel loads, bigint without a C compiler
(``REPRO_NATIVE=0``).
"""

import pytest

from repro.api import JobSpec, run_job
from repro.core.config import EstimationConfig

#: (circuit, power simulator, seed) -> (estimate hex, sample size, interval, cycles)
GOLDEN = {
    ("s27", "event-driven", 1): ("0x1.bffd6cb8f7132p-16", 1600, 1, 4224),
    ("s27", "event-driven", 2): ("0x1.c78ccc05d78a6p-16", 1088, 1, 3200),
    ("s27", "event-driven", 3): ("0x1.bf4e4d2357ac3p-16", 1536, 2, 6592),
    ("s27", "zero-delay", 1): ("0x1.8612716d0da0ap-16", 1184, 0, 1568),
    ("s27", "zero-delay", 2): ("0x1.7a4ebe880bffep-16", 608, 1, 2240),
    ("s27", "zero-delay", 3): ("0x1.71f68005cfe65p-16", 1344, 1, 3712),
    ("s298", "event-driven", 1): ("0x1.4a767b875fdb4p-11", 576, 1, 2176),
    ("s298", "event-driven", 2): ("0x1.45b46d7252d40p-11", 576, 1, 2176),
    ("s298", "event-driven", 3): ("0x1.4b6207147fa22p-11", 1440, 1, 3904),
    ("s298", "zero-delay", 1): ("0x1.f25906babd8efp-13", 288, 1, 1600),
    ("s298", "zero-delay", 2): ("0x1.ecb5350092ccep-13", 288, 0, 672),
    ("s298", "zero-delay", 3): ("0x1.f40ad82bf3b75p-13", 352, 1, 1728),
}


@pytest.mark.parametrize("circuit, power_simulator, seed", sorted(GOLDEN))
def test_single_chain_dipe_matches_recorded_result(circuit, power_simulator, seed):
    config = EstimationConfig(power_simulator=power_simulator)
    assert config.num_chains == 1
    estimate = run_job(JobSpec(circuit=circuit, config=config, seed=seed)).estimate
    power, sample_size, interval, cycles = GOLDEN[circuit, power_simulator, seed]
    assert estimate.average_power_w.hex() == power
    assert estimate.sample_size == sample_size
    assert estimate.independence_interval == interval
    assert estimate.cycles_simulated == cycles
