"""Feature-combination optimization against a trained multi-label classifier.

Pipeline: fit a small MLP on tabular data, score how much fixing feature
values perturbs its predictions (a variance-ratio sensitivity), optionally
distill that score into a fast surrogate net, then beam-search feature-value
assignments that push the predicted probabilities where you want them.
Exact enumeration and a sequential-greedy baseline are included for
verification. Everything else lives in the submodules (`sensopt.nn`,
`sensopt.search`, ...).
"""

from .baseline import brute_force
from .data import SyntheticSpec, generate_synthetic, save_csv, save_ground_truth
from .search import Direction, Objective, ScoreCache, SearchConfig, run_search
from .sensitivity import ReferenceSet

__version__ = "0.1.0"
