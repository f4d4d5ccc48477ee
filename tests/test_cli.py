import csv
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sporesim import cli, simulator
from sporesim.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    build_metadata,
    emit_csv,
    main,
    parse_config,
    run_experiment,
)
from sporesim.analytic import (
    DEFAULT_SETTLING_TOL,
    DEFAULT_SOLVER_TOL,
    MAX_SIZE,
    TruncatedSystem,
    default_level,
    estimate_constant,
    grid_intervals,
    solve_survival,
    truncation_level,
)
from sporesim.model import ModelParams, OffspringDistribution, tail_exponent
from sporesim.simulator import RNG_ALGORITHM
from survival_checks import cut_constant_span, rho_zero_constant

MINIMAL_SURVIVAL = """
{
  "model": {"beta": 1.0, "rho": 0.0,
            "offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]}},
  "experiment": {"type": "survival", "k": [1, 2], "t_max": 5.0}
}
"""

LF_MODEL_BLOCK = (
    '"model": {"beta": 1.0, "rho": 0.0, '
    '"offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]}}'
)

PURE_DEATH_MODEL_BLOCK = (
    '"model": {"beta": 1.0, "rho": 1.0, "offspring": {"kind": "table", "probs": [1.0]}}'
)

POISSON_MODEL_BLOCK = (
    '"model": {"beta": 0.5, "rho": 1.0, "offspring": {"kind": "poisson", "param": 2.0}}'
)
# decay rate 1/16: a small tail exponent a, so a long settling time 10/a
SLOW_POISSON_MODEL_BLOCK = (
    '"model": {"beta": 1, "rho": 0.0625, "offspring": {"kind": "poisson", "param": 1}}'
)
GEOMETRIC_MODEL_BLOCK = (
    '"model": {"beta": 0.5, "rho": 1.0, "offspring": {"kind": "geometric", "param": 0.4}}'
)
# a wide law, mean 9: the constant's level from its tail is 294
WIDE_MODEL_BLOCK = (
    '"model": {"beta": 1, "rho": 9, "offspring": {"kind": "geometric", "param": 0.1}}'
)
# mean 999, a = 1/2: the level 35,824, whose 2K over the 101 grid points to
# 10/a passes MAX_SIZE, and every lower K cannot settle
WIDER_MODEL_BLOCK = (
    '"model": {"beta": 1, "rho": 999, "offspring": {"kind": "geometric", "param": 0.001}}'
)
# a critical table law removed at rate 1e-5: lambda = 1e-5, a = 5e-6, so the
# constant's span 30/a = 6e6 at spacing 0.5 passes 2**22 points at any level
SLOW_TABLE_MODEL_BLOCK = (
    '"model": {"beta": 1, "rho": 1e-5, "offspring": {"kind": "table", "probs": [0.5, 0, 0.5]}}'
)

CONFIGS = sorted(Path(__file__).parent.parent.glob("configs/*.json"))

# config_hash of every shipped config: a parser change that moves a resolved
# byte fails here
SHIPPED_CONFIG_HASHES = {
    "constant_linear_fractional": "f695901a4ec97824e84fc63af850f7021e49edf35bd0ea51d8298e57987b5bd9",
    "gumbel_linear_fractional": "7d87c4d76dfa6df9665ef856fe05499d6315196a13f42574d77c4773e711a5b9",
    "survival_linear_fractional": "c649c8389ef787050128528fa76de84aa9cdfd283b0d81dd7342bd5eec7830ea",
    "survival_poisson_mix": "708f3beed919abd36622a3fb5fc6305549ea190403b3981404375930a196aa4f",
}

# SHA-256 of every artifact of the shipped configs at --seed 1, except the
# ~11 s gumbel_linear_fractional (criterion 5 runs that path): an engine,
# solver or emitter change that moves one byte fails here.  A deliberate
# change updates this table and names the configs whose bytes moved
SHIPPED_ARTIFACT_DIGESTS = {
    "constant_linear_fractional/constant.json": "d8b6b391dc136d98ee5e27efdd71db368d6b547bd58e12cef22d535111e4c9ab",
    "survival_linear_fractional/survival_mc.csv": "e845c541fee277deb4770b2360c4a09400c7b449f736acc942d300f44b3d3f84",
    "survival_linear_fractional/survival_ode.csv": "16b8f03acced04c88e34fb4a188dc7b29816bb83c56218d8f129cd59fbe577a4",
    "survival_poisson_mix/survival_ode.csv": "baf0a23b78e4f0ea109826731c3f856670b9e318b899354c948caf599825ea98",
}

# the configs of the benchmark's two simulating workloads, copied from
# perfbench/workloads.py, and the SHA-256 of their artifacts at --seed 7:
# the shipped digests above skip the gumbel path, so these pin it
BENCH_LF_MODEL = {"beta": 1.0, "rho": 0.0, "offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]}}
BENCH_POISSON_MODEL = {"beta": 0.5, "rho": 1.0, "offspring": {"kind": "poisson", "param": 2.0}}
BENCHMARK_CONFIGS = {
    "gumbel_lf_mixed": {
        "model": BENCH_LF_MODEL,
        "experiment": {"type": "gumbel", "z": {"1": 4000, "3": 2000}, "replicates": 50},
    },
    "survival_poisson": {
        "model": BENCH_POISSON_MODEL,
        "experiment": {
            "type": "survival",
            "k": [1, 3, 10],
            "t_max": 10.0,
            "method": "both",
            "K": 200,
            "tol": 1e-9,
            "replicates": 50_000,
        },
    },
}
BENCHMARK_ARTIFACT_DIGESTS = {
    "gumbel_lf_mixed/extinction_times.csv": "79bacb94180148d8b579a8a434467e2eefa109a31a8ef0ecb7c39021c192a960",
    "gumbel_lf_mixed/gumbel.json": "38d0603fe6b9a6ee70feab88099b4f4e5cde89b2c0600fbd75108636dbf89113",
    "survival_poisson/survival_mc.csv": "ddab071d4a8b5e7e1f79e967131721dbfbf6e2e638200d9c89b46d9a7163a8ef",
    "survival_poisson/survival_ode.csv": "417f9b3d6c70c0557e058c3d94b45e3665913c251cfd2a8a117416502989845c",
}
# the work the same runs do, as the engine's and the solver's debug records
# report it: a change that alters the work a workload does shows here
BENCHMARK_WORK = {
    "gumbel_lf_mixed": [
        "sporesim.simulator: batch of 50 replicates, 300000 families: 448 engine steps, 234 in "
        "the drain; 2540317 Philox blocks 0 computed in 239 calls, 2508831 consumed; 0 events "
        "left undecided by their prefixes, refined from 0 blocks; 2509268 events, at most 51922 "
        "per replicate; peak hosts at most 11634; pool of 1024 families over 2 type rows at the "
        "start, at most 3 rows, 3 re-sizes; 8 families finished alone in 437 events",
    ],
    "survival_poisson": [
        "sporesim.analytic: backward solve, K=200 on 401 grid points: 2 passes, 2893 accepted "
        "and 21 rejected steps, 17486 RHS evaluations, err 2.69e-10; grid rows reached per pass "
        "[401, 401]",
        "sporesim.simulator: batch of 50000 replicates, 50000 families: 101 engine steps, 83 in "
        "the drain; 128167 Philox blocks 0 computed in 27 calls, 118591 consumed; 0 events left "
        "undecided by their prefixes, refined from 0 blocks; 118694 events, at most 144 per "
        "replicate; peak hosts at most 28; pool of 1024 families over 1 type rows at the start, "
        "at most 10 rows, 4 re-sizes; 8 families finished alone in 174 events",
        "sporesim.simulator: batch of 50000 replicates, 50000 families: 145 engine steps, 95 in "
        "the drain; 304218 Philox blocks 0 computed in 63 calls, 295931 consumed; 0 events left "
        "undecided by their prefixes, refined from 0 blocks; 295891 events, at most 191 per "
        "replicate; peak hosts at most 22; pool of 1024 families over 1 type rows at the start, "
        "at most 10 rows, 4 re-sizes; 8 families finished alone in 165 events",
        "sporesim.simulator: batch of 50000 replicates, 50000 families: 296 engine steps, 129 in "
        "the drain; 898361 Philox blocks 0 computed in 194 calls, 889224 consumed; 0 events left "
        "undecided by their prefixes, refined from 0 blocks; 888551 events, at most 225 per "
        "replicate; peak hosts at most 31; pool of 1024 families over 1 type rows at the start, "
        "at most 11 rows, 3 re-sizes; 8 families finished alone in 167 events",
    ],
}

# SHA-256 of the same artifacts without their provenance (payload_digest): a
# change that moves only the recorded config, its hash or the tool version
# keeps these, while the whole-file digests above move
SHIPPED_PAYLOAD_DIGESTS = {
    "constant_linear_fractional/constant.json": "4099e8c9c672b7e6b96d3bcf4385123534ecde482b2c2f5de587398cfcc92599",
    "survival_linear_fractional/survival_mc.csv": "387b2924ceb988036a1aae21095a27e615544d312b90ef0301f46debd4f98b97",
    "survival_linear_fractional/survival_ode.csv": "05a1c1db401f3c99b0c206b1dc7210e0d5c496d582064144cf5e98fee9e508d4",
    "survival_poisson_mix/survival_ode.csv": "111103604b7e3d1ada75362ba5deb3bad905cbb472e9f7cc85fa3296c2a28172",
}
BENCHMARK_PAYLOAD_DIGESTS = {
    "gumbel_lf_mixed/extinction_times.csv": "9beb8279b94ebb0ea12bf933f9d1971a2f949a725e26a0d11bb3d05057b7e5f9",
    "gumbel_lf_mixed/gumbel.json": "e41be7c81922388eb39e2143cf597579b51f2bdacbbaddc0b330772bdb33a200",
    "survival_poisson/survival_mc.csv": "4c63f6ee5ba5d96ca5d263ddebca360d42383c36ad87f9abfbf81621ff32e6e5",
    "survival_poisson/survival_ode.csv": "1fcddb68be7ef78b6692cb75426d3ef810fa2052945de3bf0b0f3756b50e3b2d",
}


def payload_digest(path: Path) -> str:
    """SHA-256 of an artifact less its provenance: a JSON artifact without its
    `metadata` object (the rest dumped as the emitter does, which keeps every
    float's bits), a CSV without its `# ` lines."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["metadata"]
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith("# "))
    return hashlib.sha256(text.encode()).hexdigest()


# the smallest config of each experiment type: every optional key defaulted
MINIMAL_CONFIGS = {
    "survival": MINIMAL_SURVIVAL,
    "constant": '{%s, "experiment": {"type": "constant"}}' % LF_MODEL_BLOCK,
    "gumbel": '{%s, "experiment": {"type": "gumbel", "z": {"1": 10}}}' % LF_MODEL_BLOCK,
}

LF_GUMBEL = '"type": "gumbel", "z": {"1": 10}'
# the CLI on argv[1:] in a process limited to 2 GiB of address space
LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from sporesim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(cfg: Path, out: Path) -> subprocess.CompletedProcess:
    """`run --config cfg --out-dir out` in a child limited to 2 GiB of address space."""
    path = [str(Path(__file__).parent.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-c", LIMITED_RUN, "run", "--config", str(cfg), "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=300,
    )


LF_SURVIVAL_ODE = '"type": "survival", "k": [1], "t_max": 1.0'
LF_SURVIVAL_MC = LF_SURVIVAL_ODE + ', "method": "mc"'

# one out-of-range value per case: (model, experiment keys, extra CLI args,
# offending key under "experiment", "" for the experiment block itself, and
# optionally the text the error must hold)
OUT_OF_RANGE = {
    "gumbel-seed-negative": (LF_MODEL_BLOCK, LF_GUMBEL + ', "seed": -1', [], "seed"),
    "gumbel-seed-flag-negative": (LF_MODEL_BLOCK, LF_GUMBEL, ["--seed", "-1"], "seed"),
    "survival-seed-2**64": (
        LF_MODEL_BLOCK,
        LF_SURVIVAL_MC + ', "replicates": 10, "seed": 18446744073709551616',
        [],
        "seed",
    ),
    "survival-replicates-0": (
        LF_MODEL_BLOCK,
        LF_SURVIVAL_MC + ', "replicates": 0, "seed": 1',
        [],
        "replicates",
    ),
    "gumbel-replicates-0": (
        LF_MODEL_BLOCK, LF_GUMBEL + ', "replicates": 0, "seed": 1', [], "replicates"
    ),
    "gumbel-max_events-0": (
        LF_MODEL_BLOCK, LF_GUMBEL + ', "max_events": 0, "seed": 1', [], "max_events"
    ),
    "gumbel-max_events-2**31": (
        LF_MODEL_BLOCK, LF_GUMBEL + ', "max_events": 2147483648, "seed": 1', [], "max_events"
    ),
    "gumbel-z-2**32-hosts": (
        LF_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 4294967295, "2": 1}, "seed": 1',
        [],
        "z",
    ),
    # a replicate holds a row per host: at most MAX_SIZE hosts in all
    "gumbel-z-2**31-hosts": (
        LF_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 2147483648}, "replicates": 1, "seed": 1',
        [],
        "z",
    ),
    "gumbel-z-2**22+1-hosts": (
        LF_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 4194303, "7": 2}, "replicates": 1, "seed": 1',
        [],
        "z",
    ),
    "constant-K-0": (LF_MODEL_BLOCK, '"type": "constant", "K": 0', [], "K"),
    # levels whose tail rate delta_K is at least tol: h(t) can never settle
    # there (LF at K = 1: delta_1 = 0.8; geometric(0.4) at 20: 2.2e-5)
    "constant-K-1-lf": (LF_MODEL_BLOCK, '"type": "constant", "K": 1', [], "K"),
    "constant-K-20-geometric": (GEOMETRIC_MODEL_BLOCK, '"type": "constant", "K": 20', [], "K"),
    "survival-K-below-k": (
        LF_MODEL_BLOCK, '"type": "survival", "k": [1, 5], "t_max": 1.0, "K": 2', [], "K"
    ),
    "survival-t_max-infinite": (
        LF_MODEL_BLOCK, '"type": "survival", "k": [1], "t_max": Infinity', [], "t_max"
    ),
    "survival-dt-0": (LF_MODEL_BLOCK, LF_SURVIVAL_ODE + ', "dt": 0', [], "dt"),
    "survival-dt-negative": (LF_MODEL_BLOCK, LF_SURVIVAL_ODE + ', "dt": -1', [], "dt"),
    "survival-tol-0": (LF_MODEL_BLOCK, LF_SURVIVAL_ODE + ', "tol": 0', [], "tol"),
    "constant-tol-0": (LF_MODEL_BLOCK, '"type": "constant", "K": 2, "tol": 0', [], "tol"),
    "constant-solver_tol-0": (
        LF_MODEL_BLOCK, '"type": "constant", "K": 2, "solver_tol": 0', [], "solver_tol"
    ),
    # the constant's grid is the model's: a config that sets a, for constant
    # or gumbel, exits at it as unknown, and constant's t_max, recorded in the
    # resolved config, may only repeat the model's span 30/a (300 for LF)
    "constant-t_max-0": (
        LF_MODEL_BLOCK, '"type": "constant", "K": 2, "t_max": 0', [], "t_max", "not a setting"
    ),
    "constant-t_max-below-settling": (
        LF_MODEL_BLOCK, '"type": "constant", "K": 2, "t_max": 99.9', [], "t_max", "not a setting"
    ),
    "constant-t_max-300": (
        LF_MODEL_BLOCK, '"type": "constant", "K": 2, "t_max": 300', [], "t_max", "not a setting"
    ),
    "gumbel-z-aliased-keys": (
        LF_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 5, "01": 3, " 2": 1, "1_0": 1}, "seed": 1',
        [],
        "z",
    ),
    "gumbel-z-key-None": (LF_MODEL_BLOCK, '"type": "gumbel", "z": {"None": 1}, "seed": 1', [], "z"),
    "gumbel-z-key-0": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"0": 5, "1": 1}, "seed": 1', [], "z"
    ),
    # host counts are held to PopulationState's rule: integers, not bools, >= 0
    "gumbel-z-count-fractional": (
        LF_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 1.5}, "seed": 1',
        [],
        "z",
        "the host count of type 1 must be an integer, got 1.5",
    ),
    "gumbel-z-count-whole-float": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1": 5.0}, "seed": 1', [], "z", "got 5.0"
    ),
    "gumbel-z-count-bool": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1": true}, "seed": 1', [], "z", "got True"
    ),
    "gumbel-z-count-string": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1": "5"}, "seed": 1', [], "z", "got '5'"
    ),
    "gumbel-z-count-negative": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1": -1, "2": 3}, "seed": 1', [], "z"
    ),
    "gumbel-z-no-hosts": (LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1": 0}, "seed": 1', [], "z"),
    # JSON keeps a repeated key's last value: "1": 5 would silently vanish
    "gumbel-z-repeated-key": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1": 5, "3": 2, "1": 3}, "seed": 1', [], "z.1"
    ),
    "gumbel-seed-repeated": (LF_MODEL_BLOCK, LF_GUMBEL + ', "seed": 1, "seed": 2', [], "seed"),
    # grids past MAX_SIZE points, reported at the key that fixes the grid
    "survival-grid-t_max-1e300": (
        LF_MODEL_BLOCK, '"type": "survival", "k": [1], "t_max": 1e300', [], "dt"
    ),
    "survival-grid-dt-1e-300": (
        LF_MODEL_BLOCK, LF_SURVIVAL_MC + ', "dt": 1e-300, "seed": 1', [], "dt"
    ),
    "constant-grid-t_max-1e300": (
        LF_MODEL_BLOCK, '"type": "constant", "K": 2, "t_max": 1e300', [], "t_max", "not a setting"
    ),
    # sizes past MAX_SIZE: replicates, the largest type, grid points, and grid
    # points times K, that last one reported at the later key of the pair
    "gumbel-replicates-10**12": (
        LF_MODEL_BLOCK, LF_GUMBEL + ', "replicates": 1000000000000, "seed": 1', [], "replicates"
    ),
    "survival-mc-replicates-10**12": (
        LF_MODEL_BLOCK,
        LF_SURVIVAL_MC + ', "replicates": 1000000000000, "seed": 1',
        [],
        "replicates",
    ),
    "survival-K-10**9": (LF_MODEL_BLOCK, LF_SURVIVAL_ODE + ', "K": 1000000000', [], "K"),
    "survival-k-10**9": (
        LF_MODEL_BLOCK, '"type": "survival", "k": [1000000000], "t_max": 1.0', [], "k"
    ),
    # the settling floor: 2K over the grid to the settling time 10/a passes
    # MAX_SIZE, reported at K; for gumbel with C: null, at C
    "constant-K-10**9": (LF_MODEL_BLOCK, '"type": "constant", "K": 1000000000', [], "K"),
    "constant-default-t_max-a-2**-10": (
        WIDE_MODEL_BLOCK, '"type": "constant", "a": 0.0009765625', [], "a", "unknown key"
    ),
    "constant-level-35824": (WIDER_MODEL_BLOCK, '"type": "constant"', [], "K"),
    "gumbel-estimated-C-level-35824": (
        WIDER_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 10}, "seed": 1',
        [],
        "C",
        "give C to run without the estimate at level K = 35824",
    ),
    "gumbel-estimated-C-a-1e-6": (
        POISSON_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 10}, "a": 1e-6, "seed": 1',
        [],
        "a",
        "unknown key",
    ),
    "constant-default-span-a-1e-6": (
        POISSON_MODEL_BLOCK, '"type": "constant", "a": 1e-6', [], "a", "unknown key"
    ),
    # the model's span 30/a past 2**22 points, before any solve: at K for
    # constant, at C for gumbel with C: null, with the way out
    "constant-span-past-2**22": (
        SLOW_TABLE_MODEL_BLOCK,
        '"type": "constant"',
        [],
        "K",
        "the span 30/a = 6e+06 at spacing 0.5 gives over 4194304 (2**22) grid points",
    ),
    "gumbel-estimated-C-span-past-2**22": (
        SLOW_TABLE_MODEL_BLOCK,
        '"type": "gumbel", "z": {"1": 10}, "seed": 1',
        [],
        "C",
        "the span 30/a = 6e+06 at spacing 0.5 gives over 4194304 (2**22) grid points: "
        "give C to run without the estimate at level K = 2",
    ),
    "gumbel-z-type-10**9": (
        LF_MODEL_BLOCK, '"type": "gumbel", "z": {"1000000000": 1}, "seed": 1', [], "z"
    ),
    "survival-grid-9999001-points": (
        POISSON_MODEL_BLOCK, '"type": "survival", "k": [1], "t_max": 9999, "dt": 1e-3', [], "dt"
    ),
    # the default K, the law's level at tol (16 here), over the grid
    "survival-grid-999001-points-default-K": (
        POISSON_MODEL_BLOCK,
        '"type": "survival", "k": [1], "t_max": 999, "dt": 1e-3',
        [],
        "K",
        "K = 16 at 999001 grid points",
    ),
    # a wide law's level, 249, over a grid that K = 20 would fit
    "survival-grid-19981-points-wide-law-level": (
        WIDE_MODEL_BLOCK,
        '"type": "survival", "k": [1], "t_max": 999, "dt": 0.05',
        [],
        "K",
        "K = 249 at 19981 grid points",
    ),
    # an MC-only run writes a row per k and grid point, 5 x 999,001 of them,
    # reported at the key that fixes the grid
    "survival-mc-5-types-999001-points": (
        POISSON_MODEL_BLOCK,
        '"type": "survival", "k": [1, 2, 3, 4, 5], "t_max": 999, "dt": 1e-3, "method": "mc", '
        '"seed": 1',
        [],
        "dt",
    ),
    # a retired experiment type is an unknown one
    "slope-retired": (LF_MODEL_BLOCK, '"type": "slope"', [], "type"),
    "oracle-retired": (LF_MODEL_BLOCK, '"type": "oracle"', [], "type"),
}


def floor_top(a: float) -> int:
    """The largest K whose 2K values at each point of the grid to the settling
    time 10/a total at most MAX_SIZE: the rule the constant experiment keeps,
    and gumbel's with C: null (analytic.check_settles at K and at 2K)."""
    return MAX_SIZE // (2 * (math.ceil(10.0 / a / min(0.5, 10.0 / a / 100.0)) + 1))


@st.composite
def in_range_configs(draw):
    """A config every key of which is in range, for any experiment type and
    offspring kind; each optional key is given or left to its default."""
    kind = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    beta = draw(st.floats(0.1, 5.0))
    law_kind = draw(st.sampled_from(["table", "poisson", "geometric"]))
    if law_kind == "table":
        weights = draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(lambda w: sum(w) > 0.01)
        )
        # off sum 1 by less than the renormalization tolerance, or not
        drift = draw(st.sampled_from([1.0, 1.0 + 5e-10]))
        offspring = {"kind": "table", "probs": [w / sum(weights) * drift for w in weights]}
    elif law_kind == "poisson":
        offspring = {"kind": "poisson", "param": draw(st.floats(0.01, 5.0))}
    else:
        offspring = {"kind": "geometric", "param": draw(st.floats(0.05, 0.95))}
    law = OffspringDistribution(**offspring)
    # subcritical by a margin, with rho >= 0
    rho = max(0.0, beta * (law.mean - 1.0)) + draw(st.floats(0.01, 2.0))
    m = ModelParams(beta, rho, law)

    e: dict = {"type": kind}

    def maybe(name, strategy):
        if draw(st.booleans()):
            e[name] = draw(strategy)

    if kind == "survival":
        e["t_max"] = draw(st.floats(0.1, 50.0))
        maybe("dt", st.floats(1e-3, 1.0))
        # K and every type up to the most the grid allows: MAX_SIZE values
        top = MAX_SIZE // (grid_intervals(e["t_max"], e.get("dt")) + 1)
        e["k"] = draw(st.lists(st.integers(1, top), min_size=1, max_size=3))
        maybe("tol", st.floats(1e-12, 1e-3))
        # the default K = max(k, the law's level at tol) where it fits
        if truncation_level(m, e.get("tol", DEFAULT_SOLVER_TOL)) > top or draw(st.booleans()):
            e["K"] = draw(st.integers(max(e["k"]), top))
        maybe("method", st.sampled_from(["ode", "mc", "both"]))
    if kind == "constant":
        maybe("solver_tol", st.floats(1e-12, 1e-3))
        maybe("tol", st.floats(1e-12, 1e-3))
        tol = e.get("tol", DEFAULT_SETTLING_TOL)
        # K from the law's level at tol up to the most the settling floor
        # allows; K is given whenever its default is over that, as at a small
        # a for an unbounded law
        top = floor_top(tail_exponent(m))
        level = truncation_level(m, tol)
        assume(level <= top)
        if default_level(m, tol) > top or draw(st.booleans()):
            e["K"] = draw(st.integers(level, top))
    if kind == "gumbel":
        # up to MAX_SIZE hosts in all, at least one
        e["z"], left = {}, MAX_SIZE
        for k in draw(st.lists(st.integers(1, MAX_SIZE), min_size=1, max_size=4, unique=True)):
            e["z"][str(k)] = n = draw(st.integers(0 if e["z"] else 1, left))
            left -= n
        # C: null estimates the constant at the law's level (no model here
        # has the LF closed form, as rho > 0), where that grid fits
        if default_level(m) <= floor_top(tail_exponent(m)):
            maybe("C", st.one_of(st.none(), st.floats(1e-6, 1.0)))
        else:
            e["C"] = draw(st.floats(1e-6, 1.0))
    if kind in ("survival", "gumbel"):
        maybe("replicates", st.integers(1, MAX_SIZE))
        maybe("max_events", st.integers(1, 2**31 - 1))
        maybe("seed", st.integers(0, 2**64 - 1))
    config = {"model": {"beta": beta, "rho": rho, "offspring": offspring}, "experiment": e}
    if draw(st.booleans()):
        config["output"] = {"dir": draw(st.sampled_from([".", "out/run"]))}
    return config


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_survival_defaults_filled(self):
        cfg = parse_config(MINIMAL_SURVIVAL)
        s = cfg.settings
        assert s["method"] == "ode"
        assert s["tol"] == 1e-9
        assert s["K"] == 2  # max(k), and the level of a law whose support ends at 2
        assert s["dt"] == pytest.approx(5.0 / 400.0)
        assert cfg.resolved["experiment"]["method"] == "ode"
        assert cfg.resolved["output"] == {"dir": ".", "format": "csv"}
        assert not cfg.randomized

    def test_bad_probability_sum_names_path(self):
        text = MINIMAL_SURVIVAL.replace("[0.6, 0.0, 0.4]", "[0.6, 0.0, 0.3]")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.path == "model.offspring.probs"

    def test_gumbel_requires_subcritical(self):
        text = """
        {
          "model": {"beta": 1.0, "rho": 0.0,
                    "offspring": {"kind": "table", "probs": [0.0, 0.0, 1.0]}},
          "experiment": {"type": "gumbel", "z": {"1": 100}, "seed": 1}
        }
        """
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.path == "model"
        assert "subcritical" in str(exc.value)

    def test_unknown_keys_rejected(self):
        bad_top = MINIMAL_SURVIVAL.replace(
            '"experiment"', '"bogus": 1, "experiment"', 1
        )
        with pytest.raises(ConfigError):
            parse_config(bad_top)
        bad_exp = MINIMAL_SURVIVAL.replace('"t_max": 5.0', '"t_max": 5.0, "oops": 2')
        with pytest.raises(ConfigError) as exc:
            parse_config(bad_exp)
        assert exc.value.path == "experiment.oops"

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_seed_recorded_when_set(self):
        cfg = parse_config(MINIMAL_SURVIVAL.replace('"t_max": 5.0', '"t_max": 5.0, "method": "mc"'))
        cfg.set_seed(99)
        assert cfg.resolved["experiment"]["seed"] == 99
        assert cfg.settings is cfg.resolved["experiment"]  # one copy, written once

    @pytest.mark.parametrize("seed", [2.7, True, "5"], ids=["float", "bool", "string"])
    def test_set_seed_applies_the_seed_key_rule(self, seed):
        # the rule of a seed in a config file: an integer, not a value int() takes
        cfg = parse_config(MINIMAL_SURVIVAL.replace('"t_max": 5.0', '"t_max": 5.0, "method": "mc"'))
        with pytest.raises(ConfigError) as exc:
            cfg.set_seed(seed)
        assert exc.value.path == "experiment.seed"
        assert "seed" not in cfg.settings

    @pytest.mark.parametrize(
        "text",
        [path.read_text(encoding="utf-8") for path in CONFIGS] + list(MINIMAL_CONFIGS.values()),
        ids=[path.stem for path in CONFIGS] + [f"minimal_{kind}" for kind in MINIMAL_CONFIGS],
    )
    def test_resolved_config_round_trips(self, tmp_path, text):
        cfg = parse_config(text)
        resolved_text = json.dumps(cfg.resolved)
        assert parse_config(resolved_text).resolved == cfg.resolved
        path = write_config(tmp_path, resolved_text)
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    @settings(max_examples=150, deadline=None)
    @given(in_range_configs())
    def test_resolved_config_round_trips_property(self, config):
        cfg = parse_config(json.dumps(config))
        again = parse_config(json.dumps(cfg.resolved))
        assert again.resolved == cfg.resolved
        assert build_metadata(again)["config_hash"] == build_metadata(cfg)["config_hash"]

    @pytest.mark.parametrize(
        "model, experiment",
        [
            (WIDE_MODEL_BLOCK, '"tol": 1e-8'),
            (POISSON_MODEL_BLOCK, '"K": 8264'),
            (LF_MODEL_BLOCK, '"K": 2'),
        ],
        ids=["wide", "K-8264", "lf"],
    )
    def test_default_constant_t_max_is_30_over_a(self, tmp_path, model, experiment):
        # recorded, not set: the resolved config carries the span the estimate runs over
        text = '{%s, "experiment": {"type": "constant", %s}}' % (model, experiment)
        cfg = parse_config(text)
        assert cfg.settings["t_max"] == 30.0 / tail_exponent(cfg.params)
        resolved_text = json.dumps(cfg.resolved)
        assert parse_config(resolved_text).resolved == cfg.resolved
        path = write_config(tmp_path, resolved_text)
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    def test_K_must_cover_requested_k(self):
        text = MINIMAL_SURVIVAL.replace('"t_max": 5.0', '"t_max": 5.0, "K": 1')
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.path == "experiment.K"


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(path, {"tool": "sporesim"}, ["replicate", "T"], [])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tool=")
        assert lines[-1] == "replicate,T"

    def test_one_point_curve_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(path, {}, ["k", "t", "q"], [(1, 0.0, 1.0)])
        lines = path.read_text().splitlines()
        assert len(lines) == 2

    def test_float_round_trip_bit_equal(self, tmp_path):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0 ** -52, 123456.789e-30]
        path = tmp_path / "floats.csv"
        emit_csv(path, {}, ["x"], [(v,) for v in values])
        with open(path) as f:
            rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
        parsed = [float(r[0]) for r in rows[1:]]
        assert parsed == values

    def test_bytes_equal_per_value_formatting(self, tmp_path):
        # one template per artifact writes what formatting each value alone did
        rows = [
            (1, 0.0, 1.0, 0.0, "ode"),
            (3, 0.1 + 0.2, 1.0 / 3.0, 2.0**-1074, "monte_carlo"),
            (10, 1e300, -0.0, float("inf"), "ode"),
            (200, 123456.789e-30, float("nan"), 5e-324, "ode"),
        ]
        path = tmp_path / "rows.csv"
        emit_csv(path, {}, ["k", "t", "q", "err", "source"], rows)
        expected = "".join(
            ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n"
            for row in rows
        )
        assert path.read_text() == "k,t,q,err,source\n" + expected

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "nl.csv"
        emit_csv(path, {}, ["x"], [(1,)])
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestRunExperiment:
    def test_constant_artifact_value(self, tmp_path):
        cfg = parse_config(
            '{%s, "experiment": {"type": "constant", "K": 2}, '
            '"output": {"dir": "%s"}}' % (LF_MODEL_BLOCK, tmp_path / "out")
        )
        result = run_experiment(cfg)
        assert result.paths == [tmp_path / "out" / "constant.json"]
        report = json.loads(result.paths[0].read_text())
        assert abs(report["c_hat"] - 0.333333) < 1e-4
        assert report["metadata"]["config_hash"]
        assert report["metadata"]["config"]["experiment"]["tol"] == 1e-8

    def test_missing_seed_rejected(self, tmp_path):
        cfg = parse_config(
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 20}, "replicates": 5}}'
            % LF_MODEL_BLOCK
        )
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, out_dir=str(tmp_path))
        assert exc.value.path == "experiment.seed"

    def test_gumbel_artifacts(self, tmp_path):
        cfg = parse_config(
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 50}, '
            '"replicates": 20, "seed": 7}}' % LF_MODEL_BLOCK
        )
        result = run_experiment(cfg, out_dir=str(tmp_path / "g"))
        assert [path.name for path in result.paths] == ["gumbel.json", "extinction_times.csv"]
        report = json.loads((tmp_path / "g" / "gumbel.json").read_text())
        assert report["C_source"] == "linear_fractional"
        assert report["C"] == pytest.approx(1.0 / 3.0)
        assert 0.0 <= report["ks_distance"] <= 1.0
        lines = (tmp_path / "g" / "extinction_times.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "replicate,T"
        assert len(data) == 21

    def test_survival_default_K_is_the_law_level(self, tmp_path):
        # geometric(0.1), mean 9: at K = 20 the solved q_1 is 1.02e-3, 1.33e-5
        # and 3.49e-11 at t = 1, 2 and 5, with an err of at most 3.5e-12,
        # where the law's level gives 5.08e-3, 1.23e-3 and 5.15e-5
        cfg = parse_config(
            '{%s, "experiment": {"type": "survival", "k": [1], "t_max": 10, "method": "ode"}}'
            % WIDE_MODEL_BLOCK
        )
        assert cfg.settings["K"] == truncation_level(cfg.params, DEFAULT_SOLVER_TOL) == 249
        run_experiment(cfg, out_dir=str(tmp_path / "s"))
        lines = (tmp_path / "s" / "survival_ode.csv").read_text().splitlines()
        q = [float(line.split(",")[2]) for line in lines if line[0].isdigit()]
        ref = solve_survival(TruncatedSystem(cfg.params, K=1200), t_max=10.0)[0].qs.tolist()
        assert len(q) == len(ref) == 401
        assert max(abs(a - b) for a, b in zip(q, ref)) <= 2e-9

    def test_survival_mc_and_ode(self, tmp_path):
        cfg = parse_config(
            '{%s, "experiment": {"type": "survival", "k": [1], "t_max": 2.0, '
            '"method": "both", "seed": 3, "replicates": 500, "dt": 0.5}}' % LF_MODEL_BLOCK
        )
        result = run_experiment(cfg, out_dir=str(tmp_path / "s"))
        assert (tmp_path / "s" / "survival_ode.csv").exists()
        assert (tmp_path / "s" / "survival_mc.csv").exists()


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_SURVIVAL)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["decay rate: 0.2", "experiment: survival"]
        assert lines[2].startswith("resolved: ")

    @pytest.mark.parametrize("probs", ['["0.6", "0", "0.4"]', "[true]"], ids=["strings", "bool"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_number_probs_rejected(self, tmp_path, capsys, command, probs):
        out = tmp_path / "out"
        text = MINIMAL_SURVIVAL.replace("[0.6, 0.0, 0.4]", probs).replace(
            '"t_max": 5.0}', '"t_max": 5.0}, "output": {"dir": "%s"}' % out
        )
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert "'model.offspring.probs'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["1e-12", "1e-200"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_geometric_param_below_table_bound_rejected(self, tmp_path, capsys, command, param):
        # such a law's sampling table would be cut at 2^16 entries, leaving
        # a tail search with no end, and at 1e-200 param^2 underflows to 0
        out = tmp_path / "out"
        text = MINIMAL_SURVIVAL.replace(
            '"kind": "table", "probs": [0.6, 0.0, 0.4]', '"kind": "geometric", "param": ' + param
        ).replace(
            '"t_max": 5.0}',
            '"t_max": 5.0, "method": "mc", "seed": 1, "replicates": 10}, '
            '"output": {"dir": "%s"}' % out,
        )
        cfg = write_config(tmp_path, text)
        start = time.perf_counter()
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "'model.offspring.param'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, MINIMAL_SURVIVAL.replace("[0.6, 0.0, 0.4]", "[0.6, 0.0, 0.3]")
        )
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "model.offspring.probs" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_utf8_config_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: config error at '': not UTF-8 text")

    def test_missing_seed_and_ephemeral(self, tmp_path, capsys):
        text = (
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 10}, "replicates": 3}, '
            '"output": {"dir": "%s"}}' % (LF_MODEL_BLOCK, tmp_path / "e")
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["run", "--config", str(cfg), "--ephemeral"]) == EXIT_OK
        report = json.loads((tmp_path / "e" / "gumbel.json").read_text())
        assert report["metadata"]["master_seed"] is not None

    def test_budget_exit_code(self, tmp_path, capsys):
        # supercritical survival run hits the event budget
        text = """
        {
          "model": {"beta": 1.0, "rho": 0.0,
                    "offspring": {"kind": "table", "probs": [0.0, 0.0, 1.0]}},
          "experiment": {"type": "survival", "k": [1], "t_max": 50.0, "method": "mc",
                         "seed": 5, "replicates": 4, "max_events": 100},
          "output": {"dir": "OUT"}
        }
        """.replace("OUT", str(tmp_path / "b"))
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == EXIT_BUDGET

    def test_failed_write_keeps_older_artifacts_whole(self, tmp_path, monkeypatch):
        # artifacts are renamed into place once written: a write failing
        # partway through the second artifact leaves no temporary file and
        # that artifact's older bytes, and rolls back the first
        text = (
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 10}, "replicates": 3, "seed": 1}}'
            % LF_MODEL_BLOCK
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        older = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(older) == ["extinction_times.csv", "gumbel.json"]
        write_atomic = cli._write_atomic
        failed = []

        def fail_after_writing_csv(path, kind, write):
            def write_then_fail(f):
                write(f)
                if kind == "CSV":
                    failed.append(path.name)
                    raise OSError("no space left on device")

            write_atomic(path, kind, write_then_fail)

        monkeypatch.setattr(cli, "_write_atomic", fail_after_writing_csv)
        args = ["run", "--config", str(cfg), "--out-dir", str(out), "--seed", "2"]
        assert main(args) == EXIT_CONFIG
        assert failed == ["extinction_times.csv"]
        left = {path.name: path.read_bytes() for path in out.iterdir()}
        assert left == {"extinction_times.csv": older["extinction_times.csv"]}

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"model": {}, "model": {}}', "model"),
            (
                '{"model": {"beta": 1.0, "rho": 0.0, "offspring": {"kind": "poisson", '
                '"kind": "table", "probs": [1.0]}}}',
                "model.offspring.kind",
            ),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_rejected_at_its_path(self, tmp_path, capsys, text, path):
        cfg = write_config(tmp_path, text)
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"'{path}': key given more than once" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # constant extraction with a settling threshold unreachable on a grid
        # cut to t = 120
        cut_constant_span(monkeypatch)
        text = (
            '{%s, "experiment": {"type": "constant", "K": 2, "tol": 1e-16}, '
            '"output": {"dir": "%s"}}' % (LF_MODEL_BLOCK, tmp_path / "n")
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "did not settle to 1e-16/unit time by t=120 at K=2" in capsys.readouterr().err

    def test_unattainable_solver_tol_exit_code(self, tmp_path, capsys):
        # a tolerance below double precision fails fast and writes nothing
        out = tmp_path / "s"
        text = '{%s, "experiment": {%s, "K": 2, "tol": 1e-20}, "output": {"dir": "%s"}}' % (
            LF_MODEL_BLOCK,
            LF_SURVIVAL_ODE,
            out,
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "double precision" in capsys.readouterr().err
        assert not out.exists()

    def test_gumbel_constant_of_unbounded_law_settles(self, tmp_path):
        # geometric(0.6), beta 1, rho 0: the estimate at the law's level, 31,
        # lands on the quadrature with no truncation
        text = (
            '{"model": {"beta": 1.0, "rho": 0.0, '
            '"offspring": {"kind": "geometric", "param": 0.6}}, '
            '"experiment": {"type": "gumbel", "z": {"1": 100}, "replicates": 20, '
            '"seed": 3, "C": null}}'
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "g")]) == EXIT_OK
        report = json.loads((tmp_path / "g" / "gumbel.json").read_text())
        assert report["C_source"] == "backward_system"
        model = ModelParams(1.0, 0.0, OffspringDistribution.geometric(0.6))
        assert abs(report["C"] - rho_zero_constant(model)) <= 2e-9

    def test_constant_K_defaults_to_the_tail_level(self):
        # the law's level from its tail at tol/1000, at least 2: a table
        # law's support, and an unbounded law's level, which follows tol
        for model, tol, K in (
            (LF_MODEL_BLOCK, 1e-8, 2),
            (PURE_DEATH_MODEL_BLOCK, 1e-8, 2),
            (POISSON_MODEL_BLOCK, 1e-8, 18),
            (POISSON_MODEL_BLOCK, 1e-4, 14),
        ):
            cfg = parse_config('{%s, "experiment": {"type": "constant", "tol": %r}}' % (model, tol))
            assert cfg.settings["K"] == K == default_level(cfg.params, tol)

    def test_constant_of_unbounded_law_at_the_tail_level(self, tmp_path):
        # geometric(0.6), beta 1, rho 0: the run solves the resolved K = 31
        # and its double, and lands on the quadrature with no truncation, as
        # the gumbel constant does
        text = (
            '{"model": {"beta": 1.0, "rho": 0.0, '
            '"offspring": {"kind": "geometric", "param": 0.6}}, '
            '"experiment": {"type": "constant"}}'
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == EXIT_OK
        report = json.loads((tmp_path / "c" / "constant.json").read_text())
        assert report["K"] == report["metadata"]["config"]["experiment"]["K"] == 31
        model = ModelParams(1.0, 0.0, OffspringDistribution.geometric(0.6))
        assert abs(report["c_hat"] - rho_zero_constant(model)) <= 2e-9

    @staticmethod
    def solve_records(caplog) -> list[str]:
        return [
            r.getMessage()
            for r in caplog.records
            if r.name == "sporesim.analytic" and r.getMessage().startswith("backward solve, ")
        ]

    def test_gumbel_estimate_solves_its_level_alone(self, tmp_path, caplog):
        # Poisson(2), beta 0.5, rho 1: C: null reads the estimate's c_hat
        # alone, so the run solves the default level 18 and no other
        text = (
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 10}, "replicates": 5, "seed": 3}}'
            % POISSON_MODEL_BLOCK
        )
        cfg = write_config(tmp_path, text)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        solves = self.solve_records(caplog)
        assert len(solves) == 1 and solves[0].startswith("backward solve, K=18 on "), solves

    def test_constant_k_doubling_change_is_the_gap_of_two_estimates(self, tmp_path, caplog):
        # geometric(0.4), beta 0.5, rho 1 at its default level 56: the run
        # solves K and 2K, and writes the gap between the library's two estimates
        text = '{%s, "experiment": {"type": "constant"}}' % GEOMETRIC_MODEL_BLOCK
        cfg = write_config(tmp_path, text)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        solves = self.solve_records(caplog)
        assert [r.split(" on ")[0] for r in solves] == [
            "backward solve, K=56", "backward solve, K=112"
        ]
        est = json.loads((tmp_path / "o" / "constant.json").read_text())
        m = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4))
        c_K, c_2K = (estimate_constant(TruncatedSystem(m, K=K)).c_hat for K in (56, 112))
        assert est["K"] == 56 and est["c_hat"] == c_K and est["a"] == tail_exponent(m) == 0.25
        assert est["k_doubling_change"] == abs(c_2K - c_K)

    def test_constant_and_gumbel_constant_are_one_estimate(self, tmp_path):
        # constant at its defaults and gumbel's C: null estimate: one level, one
        # settling tolerance and the model's one grid, so one C bit for bit
        for name, model, K, C in (
            ("geometric", GEOMETRIC_MODEL_BLOCK, 56, 0.3384517405506967),
            ("poisson", POISSON_MODEL_BLOCK, 18, 0.25080671160051315),
        ):
            constant = tmp_path / f"{name}-constant.json"
            constant.write_text('{%s, "experiment": {"type": "constant"}}' % model)
            assert main(["run", "--config", str(constant), "--out-dir", str(tmp_path / name)]) == 0
            gumbel = tmp_path / f"{name}-gumbel.json"
            gumbel.write_text(
                '{%s, "experiment": {"type": "gumbel", "z": {"1": 100}, "replicates": 5, '
                '"seed": 3}}' % model
            )
            assert main(["run", "--config", str(gumbel), "--out-dir", str(tmp_path / name)]) == 0
            est = json.loads((tmp_path / name / "constant.json").read_text())
            report = json.loads((tmp_path / name / "gumbel.json").read_text())
            assert est["K"] == est["metadata"]["config"]["experiment"]["K"] == K
            assert report["C_source"] == "backward_system"
            assert est["c_hat"] == report["C"] == C

    @pytest.mark.parametrize(
        "model, experiment",
        [
            (WIDE_MODEL_BLOCK, '"type": "constant"'),
            (WIDE_MODEL_BLOCK, '"type": "gumbel", "z": {"1": 10}, "replicates": 5, "seed": 3'),
            (
                '"model": {"beta": 0.1, "rho": 2.5, '
                '"offspring": {"kind": "geometric", "param": 0.05}}',
                '"type": "constant"',
            ),
        ],
        ids=["geometric-0.1-constant", "geometric-0.1-gumbel", "geometric-0.05-constant"],
    )
    def test_wide_law_constant_settles_at_its_level(self, tmp_path, model, experiment):
        # wide laws, whose levels from the tail are 294 and 573: each settles
        # with its double, and no warning (as of h(t) underflowing at a level
        # too low for the law) is raised
        cfg = write_config(tmp_path, '{%s, "experiment": {%s}}' % (model, experiment))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        if "constant" in experiment:
            est = json.loads((tmp_path / "o" / "constant.json").read_text())
            assert est["k_doubling_change"] <= 1e-9
            assert est["K"] == est["metadata"]["config"]["experiment"]["K"] in (294, 573)
        else:
            report = json.loads((tmp_path / "o" / "gumbel.json").read_text())
            assert report["C_source"] == "backward_system"
            assert report["C"] == pytest.approx(0.007576834748591218, abs=1e-9)

    def test_constant_at_the_size_bound_runs_in_2_gib(self):
        # geometric(0.4), beta 0.5, rho 1 (a = 0.25, spacing 0.4).  A pass
        # keeps one row, and the grid is the model's, at most 2**22 points by
        # the span check, so K is bounded by the settling floor alone: 2K over
        # the 101 points to 10/a = 40, so 20,763 and not one more
        text = '{%s, "experiment": {"type": "constant", "K": %%d}}' % GEOMETRIC_MODEL_BLOCK
        assert 2 * 20763 * 101 <= MAX_SIZE < 2 * 20764 * 101
        assert parse_config(text % 20763).settings["K"] == 20763
        with pytest.raises(ConfigError) as exc:
            parse_config(text % 20764)
        assert exc.value.path == "experiment.K"

    def test_level_past_the_settling_floor_named(self, tmp_path, capsys):
        # geometric(0.001): the level 35,824 cannot run and no lower K can
        # settle.  constant says so at K, and gumbel with C: null at C, with
        # the way out
        for experiment, path in (
            ('"type": "constant"', "K"),
            ('"type": "gumbel", "z": {"1": 10}, "seed": 1', "C"),
        ):
            text = '{%s, "experiment": {%s}}' % (WIDER_MODEL_BLOCK, experiment)
            assert main(["validate", "--config", str(write_config(tmp_path, text))]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"'experiment.{path}': level K = 35824, " in err
            assert "101 grid points" in err and "(2**22)" in err
            assert ("give C" in err) == (path == "C")

    def test_mc_survival_needs_no_solver_K(self, tmp_path, capsys):
        # an MC-only run solves no ODE, so K x grid points does not bound it:
        # one type over 999,001 points writes that many rows
        text = (
            '{%s, "experiment": {"type": "survival", "k": [1], "t_max": 999, "dt": 0.001, '
            '"method": "mc", "replicates": 20, "seed": 1}}' % POISSON_MODEL_BLOCK
        )
        cfg = write_config(tmp_path, text)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        lines = (tmp_path / "o" / "survival_mc.csv").read_text().splitlines()
        assert sum(not line.startswith("#") for line in lines) == 1 + 999001

    def test_gumbel_at_the_host_bound_runs_in_2_gib(self, tmp_path):
        # z holds at most MAX_SIZE hosts in all, and a replicate from that
        # many (LF, so C has the closed form) runs within a 2 GiB
        # address-space limit, in a child process
        text = '{%s, "experiment": {"type": "gumbel", "z": {"1": %d}, "replicates": 1, "seed": 1}}'
        with pytest.raises(ConfigError) as exc:
            parse_config(text % (LF_MODEL_BLOCK, MAX_SIZE + 1))
        assert exc.value.path == "experiment.z"
        cfg = write_config(tmp_path, text % (LF_MODEL_BLOCK, MAX_SIZE))
        out = tmp_path / "out"
        proc = run_limited(cfg, out)
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads((out / "gumbel.json").read_text())
        assert report["replicates"] == 1 and report["C_source"] == "linear_fractional"

    @pytest.mark.parametrize(
        "experiment, key, top",
        [
            # MAX_SIZE replicates, on a grid of 11 points
            ('"method": "mc", "t_max": 0.01, "seed": 1, "replicates": %d', "replicates", MAX_SIZE),
            # K x grid points at MAX_SIZE: 2096 x 2001 <= 2**22 < 2097 x 2001
            ('"t_max": 2.0, "dt": 0.001, "K": %d', "K", MAX_SIZE // 2001),
        ],
        ids=["replicates", "K-x-grid"],
    )
    def test_survival_at_the_size_bounds_runs_in_2_gib(self, tmp_path, experiment, key, top):
        # survival's sizes at their bound run within a 2 GiB address-space
        # limit, in a child process; one more is rejected at its key
        text = '{%s, "experiment": {"type": "survival", "k": [1], %s}}' % (
            LF_MODEL_BLOCK,
            experiment,
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text % (top + 1))
        assert exc.value.path == f"experiment.{key}"
        s = parse_config(text % top).settings
        cfg = write_config(tmp_path, text % top)
        out = tmp_path / "out"
        proc = run_limited(cfg, out)
        assert proc.returncode == EXIT_OK, proc.stderr
        (artifact,) = out.iterdir()
        rows = [line for line in artifact.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + grid_intervals(s["t_max"], s["dt"]) + 1  # header, one type

    @pytest.mark.parametrize(
        "model, C, source",
        [
            # linear fractional, p2 just below p0: lambda = 1e-5
            (
                '"model": {"beta": 1, "rho": 0, '
                '"offspring": {"kind": "table", "probs": [0.500005, 0, 0.499995]}}',
                "null",
                "linear_fractional",
            ),
            (SLOW_TABLE_MODEL_BLOCK, "0.5", "config"),
        ],
        ids=["lf-closed-form", "C-given"],
    )
    def test_gumbel_tiny_a_runs_where_no_constant_is_estimated(
        self, tmp_path, model, C, source
    ):
        # at lambda = 1e-5, a = 5e-6, the constant's span 30/a passes 2**22
        # grid points, which neither an LF law's closed form nor a given C needs
        text = (
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 10}, "C": %s, '
            '"replicates": 5, "seed": 1}}' % (model, C)
        )
        cfg = write_config(tmp_path, text)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "g")]) == EXIT_OK
        assert json.loads((tmp_path / "g" / "gumbel.json").read_text())["C_source"] == source

    def test_constant_epsilon_is_unknown_key(self, tmp_path, capsys):
        text = '{%s, "experiment": {"type": "constant", "epsilon": 0.05}}' % LF_MODEL_BLOCK
        cfg = write_config(tmp_path, text)
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "experiment.epsilon" in capsys.readouterr().err

    def test_seed_override_recorded(self, tmp_path):
        text = (
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 10}, "replicates": 3, '
            '"seed": 1}, "output": {"dir": "%s"}}' % (LF_MODEL_BLOCK, tmp_path / "o")
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--seed", "555"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "gumbel.json").read_text())
        assert report["metadata"]["master_seed"] == 555
        assert report["metadata"]["config"]["experiment"]["seed"] == 555

    @pytest.mark.parametrize("case", list(OUT_OF_RANGE.values()), ids=list(OUT_OF_RANGE))
    def test_out_of_range_value_rejected_before_run(self, tmp_path, capsys, case):
        model, experiment, args, path, *message = case
        out = tmp_path / "out"
        text = '{%s, "experiment": {%s}, "output": {"dir": "%s"}}' % (model, experiment, out)
        cfg = write_config(tmp_path, text)
        expected = [f"'experiment.{path}'" if path else "'experiment'", *message]
        assert main(["run", "--config", str(cfg), *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(e in err for e in expected), err
        assert not out.exists()
        if not args:
            assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert all(e in err for e in expected), err

    def test_rerun_byte_identical_across_threads(self, tmp_path):
        text = (
            '{%s, "experiment": {"type": "gumbel", "z": {"1": 40, "3": 5}, '
            '"replicates": 30, "seed": 11}}' % LF_MODEL_BLOCK
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "r1")]) == EXIT_OK
        assert (
            main(
                ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "r2"), "--threads", "4"]
            )
            == EXIT_OK
        )
        for name in ("gumbel.json", "extinction_times.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize(
    "config",
    [
        CONFIGS[[c.stem for c in CONFIGS].index("survival_linear_fractional")],
        '{%s, "experiment": {"type": "survival", "k": [1, 3, 10], "t_max": 5.0, '
        '"method": "mc", "replicates": 5000}}' % POISSON_MODEL_BLOCK,
    ],
    ids=["survival-lf", "survival-poisson-mc"],
)
def test_artifacts_same_at_any_pool_budget(tmp_path, monkeypatch, config):
    # the pool budget sets which families run together, never an artifact byte
    text = config.read_text(encoding="utf-8") if isinstance(config, Path) else config
    cfg = write_config(tmp_path, text)
    artifacts = []
    for cells in (simulator.POOL_CELLS, simulator.POOL_CELLS // 8):
        monkeypatch.setattr(simulator, "POOL_CELLS", cells)
        out = tmp_path / str(cells)
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--seed", "1"]) == EXIT_OK
        artifacts.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert "survival_mc.csv" in artifacts[0]
    assert artifacts[0] == artifacts[1]


def test_rng_tag_documented_and_recorded(tmp_path):
    # a bump of the RNG tag must reach README and every artifact
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`{RNG_ALGORITHM}`" in readme
    for kind, text in MINIMAL_CONFIGS.items():
        cfg = write_config(tmp_path, text)
        out = tmp_path / kind
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--seed", "1"]) == EXIT_OK
        artifacts = sorted(out.iterdir())
        assert artifacts
        for path in artifacts:
            if path.suffix == ".json":
                metadata = json.loads(path.read_text())["metadata"]
            else:
                metadata = dict(
                    line.removeprefix("# ").split("=", 1)
                    for line in path.read_text().splitlines()
                    if line.startswith("# ")
                )
                metadata["config"] = json.loads(metadata["config"])
            assert metadata["rng_algorithm"] == RNG_ALGORITHM, path.name
            # the embedded config reruns as it stands; --seed gives a run
            # that draws no random numbers no seed
            parse_config(json.dumps(metadata["config"]))
            if kind != "gumbel":  # the minimal survival config solves the ODE only
                # a missing seed is null in CSV provenance and JSON alike
                expected = "null" if path.suffix == ".csv" else None
                assert metadata["master_seed"] == expected, path.name


class TestShippedConfigs:
    def test_all_parse(self):
        for path in sorted(Path(__file__).parent.parent.glob("configs/*.json")):
            cfg = parse_config(path.read_text(encoding="utf-8"))
            assert cfg.kind in cli.EXPERIMENTS

    def test_config_hashes_pinned(self):
        hashes = {
            path.stem: build_metadata(parse_config(path.read_text(encoding="utf-8")))[
                "config_hash"
            ]
            for path in CONFIGS
        }
        assert hashes == SHIPPED_CONFIG_HASHES

    def test_artifact_digests_pinned(self, tmp_path):
        digests, payloads = {}, {}
        for path in CONFIGS:
            if path.stem == "gumbel_linear_fractional":
                continue
            out = tmp_path / path.stem
            args = ["run", "--config", str(path), "--seed", "1", "--out-dir", str(out)]
            assert main(args) == EXIT_OK
            for artifact in out.iterdir():
                digests[f"{path.stem}/{artifact.name}"] = hashlib.sha256(
                    artifact.read_bytes()
                ).hexdigest()
                payloads[f"{path.stem}/{artifact.name}"] = payload_digest(artifact)
        assert payloads == SHIPPED_PAYLOAD_DIGESTS
        assert digests == SHIPPED_ARTIFACT_DIGESTS

    def test_benchmark_workload_digests_pinned(self, tmp_path, caplog):
        digests, payloads, work = {}, {}, {}
        for name, config in BENCHMARK_CONFIGS.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            out = tmp_path / name
            args = ["run", "--config", str(cfg), "--seed", "7", "--out-dir", str(out)]
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="sporesim"):
                assert main(args) == EXIT_OK
            work[name] = [
                f"{r.name}: {r.getMessage()}"
                for r in caplog.records
                if r.name in ("sporesim.simulator", "sporesim.analytic")
            ]
            for artifact in out.iterdir():
                digests[f"{name}/{artifact.name}"] = hashlib.sha256(
                    artifact.read_bytes()
                ).hexdigest()
                payloads[f"{name}/{artifact.name}"] = payload_digest(artifact)
        assert payloads == BENCHMARK_PAYLOAD_DIGESTS
        assert digests == BENCHMARK_ARTIFACT_DIGESTS
        assert work == BENCHMARK_WORK


@pytest.mark.parametrize(
    "experiment, batch_slice, spans",
    [
        (
            '"type": "gumbel", "z": {"1": 40, "3": 20}, "replicates": 20',
            [{"1": 40, "3": 20}, 4, None],
            {"stats.gumbel_experiment", "stats.check_growth_condition", "cli.emit_json"},
        ),
        (
            '"type": "survival", "k": [1, 3], "t_max": 2.0, "method": "mc", "replicates": 200',
            [{"3": 1}, 100, 2.0],
            {"stats.survival_curve_mc"},
        ),
    ],
    ids=["gumbel", "survival-mc"],
)
def test_traced_benchmark_run(tmp_path, experiment, batch_slice, spans):
    # perfbench/trace.py calls library names that no end-to-end run reaches:
    # set_seed on every experiment, run_experiment and run_batch with
    # threads=, stats.run_batch, and the package-level PopulationState,
    # RandomStream, sample_offspring and run_batch
    repo = Path(__file__).parent.parent
    cfg = write_config(tmp_path, '{%s, "experiment": {%s}}' % (LF_MODEL_BLOCK, experiment))
    trace_file = tmp_path / "trace.json"
    path = [str(repo / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [
            sys.executable, str(repo / "perfbench" / "trace.py"), "--config", str(cfg),
            "--seed", "7", "--out-dir", str(tmp_path / "out"), "--trace-file", str(trace_file),
            "--slice", json.dumps(batch_slice),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(trace_file.read_text())["spans"]}
    assert names >= {
        "cli.import",
        "cli.parse_config",
        "cli.run_experiment",
        "cli.build_metadata",
        "cli.emit_csv",
        "simulator.run_batch",
        "probe.run_batch",
        "probe.sample_offspring",
        *spans,
    }, names


# runs each (config, out-dir) pair of argv[1] through the CLI, then names the
# modules it must not have loaded
FOOTPRINT_PROBE = """
import json, sys
from sporesim.cli import main
codes = [main(["run", "--config", cfg, "--out-dir", out]) for cfg, out in json.loads(sys.argv[1])]
unwanted = [name for name in ("_hashlib", "hashlib", "numpy.ma") if name in sys.modules]
print(json.dumps({"codes": codes, "unwanted": unwanted}))
"""


def test_cli_run_loads_neither_openssl_nor_masked_arrays(tmp_path):
    # a CLI run is one fresh process: hashlib loads OpenSSL (~3.6 MB resident)
    # for the config digest, and np.quantile and np.median import numpy.ma;
    # the built-in SHA-256 must give hashlib's digest
    runs = []
    for name, experiment in (
        ("gumbel", '"type": "gumbel", "z": {"1": 40, "3": 20}, "replicates": 20, "seed": 3'),
        (
            "survival",
            '"type": "survival", "k": [1, 3], "t_max": 2.0, "method": "both", "K": 8, '
            '"replicates": 200, "seed": 3',
        ),
    ):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text('{%s, "experiment": {%s}}' % (LF_MODEL_BLOCK, experiment))
        runs.append((str(cfg), str(tmp_path / name)))
    path = [str(Path(__file__).parent.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [EXIT_OK] * 2, "unwanted": []}

    artifacts = sorted(tmp_path.glob("*/*"))
    assert [p.name for p in artifacts] == [
        "extinction_times.csv", "gumbel.json", "survival_mc.csv", "survival_ode.csv"
    ]
    for artifact in artifacts:
        if artifact.suffix == ".json":
            metadata = json.loads(artifact.read_text())["metadata"]
        else:
            metadata = dict(
                line.removeprefix("# ").split("=", 1)
                for line in artifact.read_text().splitlines()
                if line.startswith("# ")
            )
            metadata["config"] = json.loads(metadata["config"])
        canonical = json.dumps(metadata["config"], sort_keys=True, separators=(",", ":"))
        assert metadata["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()


def test_module_entry_point_from_source_tree():
    # python -m sporesim runs the CLI from src/, as Tier-1 and the benchmark
    # run the package, uninstalled
    root = Path(__file__).parent.parent
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    config = "configs/survival_linear_fractional.json"
    proc = subprocess.run(
        [sys.executable, "-m", "sporesim", "validate", "--config", config],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
