"""Runner reproducing Fig. 3 of the paper (comparison with the state of the art).

For a population of faulty chips, the runner retrains the pre-trained model
per chip under several policies and gathers, per policy, the per-chip
(accuracy, epochs) scatter (Fig. 3a–e) and the summary point
(average epochs, % of chips meeting the constraint) used in Fig. 3f:

* ``reduce-max``  — the proposed framework with the max statistic (Fig. 3a),
* ``reduce-mean`` — the mean statistic variant (Fig. 3b),
* ``fixed-<e>ep`` — fixed-policy retraining at each budget in the preset
  (Fig. 3c, 3d, 3e).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from pathlib import Path
from typing import Union

from repro.analysis.ascii_plot import scatter_plot
from repro.analysis.pareto import pareto_mask
from repro.campaign.engine import CampaignEngine
from repro.core.chips import ChipPopulation
from repro.core.reduce import CampaignResult, ReduceFramework
from repro.core.reporting import campaign_summary_table
from repro.core.selection import FixedEpochPolicy
from repro.experiments.common import ExperimentContext
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("experiments.fig3")


@dataclasses.dataclass
class Fig3Result:
    """All campaigns of the Fig. 3 comparison plus derived summaries."""

    campaigns: Dict[str, CampaignResult]
    target_accuracy: float
    clean_accuracy: float
    population_fault_rates: np.ndarray

    # -- access helpers ----------------------------------------------------------

    @property
    def policy_names(self) -> List[str]:
        return list(self.campaigns)

    def campaign(self, name: str) -> CampaignResult:
        if name not in self.campaigns:
            raise KeyError(f"unknown policy {name!r}; available: {self.policy_names}")
        return self.campaigns[name]

    @property
    def reduce_max(self) -> CampaignResult:
        return self.campaign("reduce-max")

    @property
    def reduce_mean(self) -> CampaignResult:
        return self.campaign("reduce-mean")

    def fixed_campaigns(self) -> Dict[str, CampaignResult]:
        return {name: c for name, c in self.campaigns.items() if name.startswith("fixed")}

    # -- Fig. 3f summary ------------------------------------------------------------

    def summary_points(self) -> List[Dict[str, float]]:
        """One (average epochs, % meeting constraint) point per policy."""
        return [
            {
                "policy": name,
                "average_epochs": campaign.average_epochs,
                "percent_meeting_constraint": campaign.percent_meeting_constraint,
            }
            for name, campaign in self.campaigns.items()
        ]

    def pareto_policies(self) -> List[str]:
        """Policies on the Pareto front of (avg epochs ↓, % meeting constraint ↑)."""
        points = self.summary_points()
        mask = pareto_mask(
            [point["average_epochs"] for point in points],
            [point["percent_meeting_constraint"] for point in points],
        )
        return [point["policy"] for point, keep in zip(points, mask) if keep]

    def reduce_on_pareto_front(self) -> bool:
        """The paper's headline claim: Reduce lies on the Pareto front."""
        return "reduce-max" in self.pareto_policies()

    def summary_table(self) -> str:
        return campaign_summary_table(list(self.campaigns.values()))

    def render_scatter(self) -> str:
        """Fig. 3a-e analogue as one ASCII scatter plot (accuracy vs epochs)."""
        series = {
            name: (campaign.accuracies(), campaign.epochs())
            for name, campaign in self.campaigns.items()
        }
        return scatter_plot(
            series,
            title=(
                "Fig. 3 analogue: per-chip accuracy (x) vs retraining epochs (y); "
                f"constraint = {self.target_accuracy:.2%}"
            ),
            x_label="accuracy",
            y_label="epochs",
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "target_accuracy": self.target_accuracy,
            "clean_accuracy": self.clean_accuracy,
            "summaries": [c.summary() for c in self.campaigns.values()],
            "pareto_policies": self.pareto_policies(),
        }


def build_population(
    context: ExperimentContext, num_chips: Optional[int] = None
) -> ChipPopulation:
    """Generate the faulty-chip population described by the context's preset."""
    preset = context.preset
    return ChipPopulation.generate(
        count=num_chips if num_chips is not None else preset.num_chips,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=preset.chip_fault_rate_range,
        seed=derive_seed(preset.seed, "chip-population"),
    )


def run_fig3(
    context: ExperimentContext,
    num_chips: Optional[int] = None,
    fixed_epochs: Optional[Sequence[float]] = None,
    include_reduce_mean: bool = True,
    population: Optional[ChipPopulation] = None,
    progress: bool = False,
    jobs: int = 1,
    campaign_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    disk_cache_dir: Optional[Union[str, Path]] = None,
    fat_batch: Optional[int] = None,
) -> Fig3Result:
    """Run the full Fig. 3 comparison on the given context.

    Each policy's campaign is dispatched through the campaign engine:
    ``jobs`` shards the retraining across worker processes (``1`` executes
    inline), ``campaign_dir`` persists per-chip results to resumable JSONL
    stores (one per policy, resumed unless ``resume=False``),
    ``disk_cache_dir`` lets spawned workers load the pre-trained state
    instead of re-pre-training, and ``fat_batch`` caps how many same-budget
    chips are retrained together in one stacked batched-FAT run — inline and
    inside every worker alike (``1`` disables coalescing).
    """
    preset = context.preset
    chips = population if population is not None else build_population(context, num_chips)
    budgets = tuple(fixed_epochs if fixed_epochs is not None else preset.fixed_policy_epochs)

    # Step 1 runs once (or loads from the disk cache) and is shared by every
    # policy through the framework built after it.
    context.resilience_profile()
    framework = context.framework()

    engine = CampaignEngine(
        context,
        jobs=jobs,
        store_base=campaign_dir,
        resume=resume,
        progress=progress,
        disk_cache_dir=disk_cache_dir,
        fat_batch=fat_batch,
    )
    campaigns: Dict[str, CampaignResult] = {}
    logger.info("fig3: retraining %d chips with reduce-max", len(chips))
    campaigns["reduce-max"] = engine.run(chips, framework.build_policy("max"))
    if include_reduce_mean:
        logger.info("fig3: retraining %d chips with reduce-mean", len(chips))
        campaigns["reduce-mean"] = engine.run(chips, framework.build_policy("mean"))
    for budget in budgets:
        logger.info("fig3: retraining %d chips with fixed budget %.3g epochs", len(chips), budget)
        campaign = engine.run(chips, FixedEpochPolicy(budget))
        campaigns[campaign.policy_name] = campaign

    return Fig3Result(
        campaigns=campaigns,
        target_accuracy=framework.target_accuracy,
        clean_accuracy=framework.clean_accuracy,
        population_fault_rates=chips.fault_rates(),
    )
