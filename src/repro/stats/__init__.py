"""Statistical machinery: the runs test, dichotomisation, and stopping criteria.

This package implements the statistics that make the paper's approach work:

* the ordinary runs test for randomness (Section III.A), including the
  continuity-corrected z statistic of Eq. (4) and the critical value of
  Eq. (7);
* dichotomisation of a real-valued power sequence about its median, which
  turns it into the two-symbol sequence the runs test requires
  (Section III.B);
* stopping criteria (Section IV) that watch the growing random power sample
  and terminate the simulation once the requested accuracy and confidence
  are met — the distribution-independent order-statistics criterion used by
  the paper, plus CLT-based and Kolmogorov–Smirnov-based alternatives;
* the Student-t quantile of the CLT criterion (:mod:`repro.stats.distributions`)
  and the float64 sample buffer the estimators hand to every stopping check
  (:mod:`repro.stats.sample_buffer`).

Everything here runs on numpy and the standard library; scipy is used only
by the tests, as an oracle.
"""

from repro.stats.descriptive import SampleSummary, summarize
from repro.stats.randomness import (
    dichotomize,
    runs_test_on_values,
    thin_sequence,
)
from repro.stats.runs_test import RunsTestResult, critical_value, runs_test
from repro.stats.stopping import (
    CltStoppingCriterion,
    KolmogorovSmirnovStoppingCriterion,
    OrderStatisticStoppingCriterion,
    StoppingCriterion,
    StoppingDecision,
    make_stopping_criterion,
)

__all__ = [
    "RunsTestResult",
    "critical_value",
    "runs_test",
    "dichotomize",
    "runs_test_on_values",
    "thin_sequence",
    "SampleSummary",
    "summarize",
    "StoppingCriterion",
    "StoppingDecision",
    "CltStoppingCriterion",
    "OrderStatisticStoppingCriterion",
    "KolmogorovSmirnovStoppingCriterion",
    "make_stopping_criterion",
]
