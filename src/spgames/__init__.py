"""Exact toolkit for set packing games.

n players pick disjoint subsets of a weighted item ground set, each from
its own downward-closed feasibility system.  This package models such
games with exact rational arithmetic, verifies and enumerates approximate
Nash, sequential, and coalition-proof equilibria, computes centralized
optima, and measures price-of-anarchy ratios against their closed-form
bounds.
"""

from .budget import DEFAULT_NODE_BUDGET, SearchBudget
from .errors import BudgetExceededError, InputError
from .model import (INFEASIBLE, Instance, Item, Payoff, Profile, Violation,
                    payoff, validate_profile, welfare)
from .feasibility import (ExplicitSystem, FeasibilitySystem,
                          IdenticalMachinesSystem, JobWindow, ScheduleWitness,
                          SharedSymmetricSystem, SingleMachineSystem,
                          TimeWindow, UnrelatedMachinesSystem,
                          feasible_subsets, max_cardinality_feasible,
                          validate_downward_closed, validate_witness)
from .best_response import (DeviationWitness, best_response,
                            coalition_best_response, is_alpha_best_response)
from .equilibria import (EquilibriumReport, enumerate_nash,
                         enumerate_spe_outcomes, greedy_sequential_outcome,
                         verify_collusion, verify_nash, verify_spe_outcome)
from .bounds import (RationalInterval, bound_collusion, bound_nash,
                     bound_sequential_symmetric, bound_series_b,
                     exp_enclosure, ratio_within_sequential_bound)
from .metrics import (PoAResult, compute_opt, empirical_collusion_poa,
                      empirical_poa, empirical_sequential_poa)
from .factory import (GeneratorSpec, ex_asym, ex_collusion, ex_seq, ex_sym,
                      ex_trivial, generate, random_explicit, random_symmetric,
                      reference_profiles)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "DEFAULT_NODE_BUDGET", "DeviationWitness",
    "EquilibriumReport", "ExplicitSystem", "FeasibilitySystem",
    "GeneratorSpec", "INFEASIBLE", "IdenticalMachinesSystem", "InputError",
    "Instance", "Item", "JobWindow", "Payoff", "PoAResult", "Profile",
    "RationalInterval", "ScheduleWitness", "SearchBudget",
    "SharedSymmetricSystem", "SingleMachineSystem", "TimeWindow",
    "UnrelatedMachinesSystem", "Violation", "best_response",
    "bound_collusion", "bound_nash",
    "bound_sequential_symmetric", "bound_series_b", "coalition_best_response",
    "compute_opt", "empirical_collusion_poa", "empirical_poa",
    "empirical_sequential_poa", "enumerate_nash", "enumerate_spe_outcomes",
    "ex_asym", "ex_collusion", "ex_seq", "ex_sym", "ex_trivial",
    "exp_enclosure", "feasible_subsets", "generate",
    "greedy_sequential_outcome", "is_alpha_best_response",
    "max_cardinality_feasible", "payoff", "random_explicit",
    "random_symmetric", "ratio_within_sequential_bound", "reference_profiles",
    "validate_downward_closed", "validate_profile", "validate_witness",
    "verify_collusion", "verify_nash", "verify_spe_outcome", "welfare",
]
