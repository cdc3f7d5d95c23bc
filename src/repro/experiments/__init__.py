"""Experiment harness: one module per figure/table of the paper.

Every module exposes ``run(scale=1.0, seed=0) -> ExperimentResult``; run a
module directly (``python -m repro.experiments.fig12_plr_throughput``) to
print its table.  ``ALL_EXPERIMENTS`` maps experiment ids to their run
callables for programmatic sweeps.  It imports an experiment's module on
first lookup, so a process loads only the experiments it runs.
"""

import importlib
from collections.abc import Mapping

#: Experiment id -> submodule of this package, in the CLI's default order.
_MODULES = {
    "fig01": "fig01_bandwidth",
    "fig02": "fig02_plr_hops",
    "fig03": "fig03_owd_model",
    "fig04": "fig04_split_tradeoff",
    "fig05": "fig05_fluctuation",
    "fig10": "fig10_retx_owd",
    "fig11": "fig11_retx_traffic",
    "fig12": "fig12_plr_throughput",
    "fig13": "fig13_link_switching",
    "fig14": "fig14_fluctuation_tradeoff",
    "fig15": "fig15_fairness",
    "fig16": "fig16_starlink_no_isl",
    "fig17": "fig17_starlink_isl",
    "fig18": "fig18_city_pairs",
    "fig19": "fig19_cpu_overhead",
    "table2": "table2_ablation",
    "ablation_vph": "ablation_vph",
    "ablation_params": "ablation_parameters",
    "ccbench": "ccbench",
    "chaos": "chaos_suite",
    "churn": "churn_study",
    "content_study": "content_study",
    "gateway": "gateway_study",
    "multicast": "multicast_study",
    "related_snoop": "related_snoop",
    "constellation_study": "constellation_study",
    "workload": "workload",
    "workload_sharded": "workload_sharded",
    "workload_sharded_xl": "workload_sharded_xl",
}


class _Registry(Mapping):
    """Read-only id -> ``run`` mapping that imports each module on lookup."""

    def __getitem__(self, name):
        module = importlib.import_module(f"{__name__}.{_MODULES[name]}")
        return module.run

    def __iter__(self):
        return iter(_MODULES)

    def __len__(self):
        return len(_MODULES)

    def __contains__(self, name):
        # Mapping's default goes through __getitem__, importing the module.
        return name in _MODULES


ALL_EXPERIMENTS = _Registry()

__all__ = ["ALL_EXPERIMENTS"]
