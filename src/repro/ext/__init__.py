"""Extensions beyond the paper's evaluated system: the multi-GPU trainer it
names as future work and the time-budget hyper-parameter search of case
study (iii)."""

from .crossval import CVResult, FoldResult, cross_validate, kfold_indices
from .hyperband import BudgetedRun, SearchConfig, SearchSummary, TimeBudgetSearch, paper_search_grid
from .multigpu import MultiGpuGBDTTrainer

__all__ = [
    "CVResult",
    "FoldResult",
    "cross_validate",
    "kfold_indices",
    "BudgetedRun",
    "SearchConfig",
    "SearchSummary",
    "TimeBudgetSearch",
    "paper_search_grid",
    "MultiGpuGBDTTrainer",
]
