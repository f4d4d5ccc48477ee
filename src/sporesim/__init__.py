"""Event-driven simulation and numerical analysis of a spore-carrying host
population: exact extinction-time sampling, backward-equation survival
curves, and the Gumbel limit of the extinction time of large populations.

The names below are the documented entry points: ``survival_curve_mc``
is the one Monte Carlo estimator of the survival probability q_k(t), with
a Wilson interval at every grid time, and ``solve_survival`` its
backward-equation counterpart.  Everything else is imported from its
submodule (``sporesim.simulator``, ``sporesim.analytic``,
``sporesim.model``, ``sporesim.stats``, ``sporesim.cli``)."""

from .analytic import TruncatedSystem, estimate_constant, solve_survival
from .model import ModelParams, OffspringDistribution, sample_offspring
from .simulator import PopulationState, RandomStream, run_batch
from .stats import gumbel_experiment, survival_curve_mc

__version__ = "0.1.0"
