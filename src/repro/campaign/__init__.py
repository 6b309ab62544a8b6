"""Campaign sweeps: topologies x protocols x link quality x failures.

The subsystem that turns "run one scenario" into "run a matrix and get
a report": :mod:`repro.campaign.spec` parses and expands the JSON
matrix, :mod:`repro.campaign.runner` executes one cell,
:mod:`repro.campaign.pool` shards cells across a kill-tolerant process
pool, :mod:`repro.campaign.driver` streams JSONL results and writes
the deterministic report, and :mod:`repro.campaign.report`
(re)summarizes and renders it.
"""

from repro.campaign.driver import resummarize, run_campaign
from repro.campaign.report import (
    load_results,
    render_report,
    summarize,
)
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    smoke_spec,
    smoke_spec_dict,
)

__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "load_results",
    "render_report",
    "resummarize",
    "run_campaign",
    "smoke_spec",
    "smoke_spec_dict",
    "summarize",
]
