"""SEU simulation: fault-injection campaigns over configuration memory.

The paper's headline contribution (section III): corrupt one
configuration bit of a running design, watch the outputs against a
lock-step golden copy, repair the bit, classify.  Aggregates:

* **sensitivity** — fraction of all configuration bits whose upset
  produces an output error (Table I);
* **normalised sensitivity** — sensitivity with the area factored out
  (design-family constant, Table I);
* **persistence** — fraction of sensitive bits whose error survives
  configuration repair and requires a reset (Table II, Figure 7).
"""

from repro.seu.campaign import (
    BitVerdict,
    CampaignConfig,
    CampaignResult,
    CampaignTelemetry,
    HalfLatchFaultModel,
    SEUFaultModel,
    resume_campaign,
    run_campaign,
    run_halflatch_campaign,
    run_halflatch_sweep,
)
from repro.seu.multibit import MBUFaultModel, MultiBitResult, run_multibit_campaign
from repro.seu.correlation import (
    CorrelationFaultModel,
    OutputCorrelation,
    build_correlation_table,
)
from repro.seu.injector import FaultInjector
from repro.seu.maps import SensitivityMap
from repro.seu.persistence import persistent_error_trace
from repro.seu.sensitivity import Table1Row, table1_row
from repro.seu.report import format_table1, format_table2

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CampaignTelemetry",
    "BitVerdict",
    "SEUFaultModel",
    "HalfLatchFaultModel",
    "MBUFaultModel",
    "CorrelationFaultModel",
    "run_campaign",
    "run_halflatch_campaign",
    "run_halflatch_sweep",
    "resume_campaign",
    "MultiBitResult",
    "run_multibit_campaign",
    "FaultInjector",
    "SensitivityMap",
    "OutputCorrelation",
    "build_correlation_table",
    "persistent_error_trace",
    "Table1Row",
    "table1_row",
    "format_table1",
    "format_table2",
]
