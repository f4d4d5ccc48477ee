"""Event-driven simulation and numerical analysis of a spore-carrying host
population: exact extinction-time sampling, backward-equation survival
curves, and the Gumbel limit of the extinction time of large populations.

The names below are the documented entry points; everything else is
imported from its submodule (``sporesim.simulator``, ``sporesim.analytic``,
``sporesim.model``, ``sporesim.stats``, ``sporesim.cli``)."""

from .analytic import TruncatedSystem, estimate_constant, solve_survival
from .model import ModelParams, OffspringDistribution, sample_offspring
from .simulator import PopulationState, RandomStream, run_batch
from .stats import estimate_qk, gumbel_experiment

__version__ = "0.1.0"
