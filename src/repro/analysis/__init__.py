"""Analysis helpers: the paper's complexity formulas and measurement tools."""

from repro.analysis.complexity import (
    acast_bits,
    bc_bits,
    wps_bits,
    vss_bits,
    acs_bits,
    preprocessing_bits,
    cir_eval_bits,
    paper_cir_eval_time,
)
from repro.analysis.metrics import (
    fit_power_law,
    communication_summary,
    per_round_bits,
    max_round_bits,
    max_message_bits,
    bundle_message_bound,
    sharded_triple_message_bound,
    sibling_sharings,
)

__all__ = [
    "acast_bits",
    "bc_bits",
    "wps_bits",
    "vss_bits",
    "acs_bits",
    "preprocessing_bits",
    "cir_eval_bits",
    "paper_cir_eval_time",
    "fit_power_law",
    "communication_summary",
    "per_round_bits",
    "max_round_bits",
    "max_message_bits",
    "bundle_message_bound",
    "sharded_triple_message_bound",
    "sibling_sharings",
]
