"""Configuration ingestion, experiment orchestration, and artifact output.

Experiments are described by a JSON config with three blocks::

    {
      "model":      {"beta": 1.0, "rho": 0.0,
                     "offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]}},
      "experiment": {"type": "survival", ...},
      "output":     {"dir": "."}
    }

Experiment types: survival (per-k curves, ODE and/or Monte Carlo), constant
(leading-constant extraction, by default at the truncation level the offspring
law's tail gives), gumbel (extinction-time limit law, with that estimate when
no closed form gives C).  Every block is declared once, as its keys
in resolution order, each a `Key` with a type check, a bound and a default
(which may depend on earlier keys and, for experiment keys, on the model):
`CONFIG` (the top level), `MODEL`, `OUTPUT`, and the unions `OFFSPRING` on
`kind` and `EXPERIMENTS` on `type`.  An `Experiment` also says whether it
needs a subcritical model, whether a run with the resolved settings is
randomized, and what computes its artifacts.  One walker resolves every
block into the resolved config.

Unknown keys are rejected anywhere; every artifact embeds the fully
resolved config (defaults filled), its hash, the RNG algorithm tag, and the
master seed, so a rerun needs nothing but the artifact.  Randomized
experiments refuse to run without an explicit seed unless --ephemeral.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 event budget
exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable

from . import __version__
from .analytic import (
    DEFAULT_SETTLING_TOL,
    DEFAULT_SOLVER_TOL,
    MAX_SIZE,
    NonConvergenceError,
    SolverError,
    SurvivalCurve,
    TruncatedSystem,
    _constant_grid,
    check_settles,
    default_dt,
    default_level,
    estimate_constant,
    grid_cells,
    linear_fractional_constant,
    solve_survival,
    truncation_level,
)
from .model import ModelParams, OffspringDistribution, tail_exponent
from .simulator import (
    DEFAULT_MAX_EVENTS,
    MAX_EVENTS,
    RNG_ALGORITHM,
    BudgetError,
    PopulationState,
)
from .stats import (
    GUMBEL_MEDIAN,
    check_growth_condition,
    gumbel_experiment,
    survival_curve_mc,
)

try:  # CPython's own SHA-256: hashlib would load OpenSSL (~3.6 MB resident) for one digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4


class ConfigError(ValueError):
    """Config rejection carrying the JSON path of the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at '{path}': {message}")
        self.path = path
        self.message = message


class ModelError(ConfigError):
    """A model the experiment cannot handle: reported at 'model', unprefixed."""


@dataclass
class ExperimentConfig:
    """A config's model, and the config resolved: every default filled in."""

    params: ModelParams
    resolved: dict = field(repr=False)

    @property
    def settings(self) -> dict:
        return self.resolved["experiment"]

    @property
    def kind(self) -> str:
        return self.settings["type"]

    @property
    def randomized(self) -> bool:
        return EXPERIMENTS[self.kind].randomized(self.settings)

    @property
    def seed(self) -> int | None:
        return self.settings.get("seed")

    def set_seed(self, seed: int) -> None:
        """Record ``seed`` as the master seed of a randomized run, after the
        seed key's range check; a run that draws no random numbers records none."""
        seed = _checked("experiment.seed", SEED.check, seed, self.settings, self.params)
        if self.randomized:
            self.settings["seed"] = seed


def _checked(path: str, check, *args):
    """check(*args), with its ValueError turned into a ConfigError at path,
    and path prefixed to a nested block's ConfigError."""
    try:
        return check(*args)
    except ModelError:
        raise
    except ConfigError as e:
        raise ConfigError(f"{path}.{e.path}" if e.path else path, e.message) from e
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def _number(value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _probs(value) -> list[float]:
    """Table probabilities as OffspringDistribution keeps them: renormalized."""
    if not isinstance(value, list) or not value:
        raise ValueError("expected a nonempty list of numbers")
    return list(OffspringDistribution.table([_number(p) for p in value]).probs)


def _types(value) -> list[int]:
    if not (isinstance(value, list) and value and all(1 <= _integer(k) <= MAX_SIZE for k in value)):
        raise ValueError("expected a nonempty list of integers in [1, 2**22]")
    return sorted(set(value))


def _one_of(*options):
    def parse(value):
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value

    return parse


def _optional_number(value) -> float | None:
    return None if value is None else _number(value)


def _initial_counts(value) -> dict[str, int]:
    """Sparse map type -> host count under PopulationState's rule, types sorted; JSON adds
    canonical keys, types up to 2**22 and 2**22 hosts at most."""
    if not isinstance(value, dict) or not value:
        raise ValueError("expected a nonempty map of type -> host count")
    for key in value:
        # only canonical keys: "01", " 1" or "1_0" would alias (or silently
        # rename) a type and drop its hosts when keyed on int(key)
        if not key.isdecimal() or str(int(key)) != key or not 1 <= int(key) <= MAX_SIZE:
            raise ValueError(f"type key {key!r} is not a canonical decimal integer in [1, 2**22]")
    try:
        counts = PopulationState({int(key): n for key, n in value.items()}).counts
    except TypeError as e:
        raise ValueError(str(e)) from e
    if not 1 <= sum(counts.values()) <= MAX_SIZE:  # a replicate holds a row per host
        raise ValueError(f"needs 1 to {MAX_SIZE} (2**22) hosts")
    return {str(k): n for k, n in sorted(counts.items())}


def _bound(ok, message: str):
    """A bound rejecting each value v for which ok(v, settings, model) is false."""

    def check(value, s: dict, m: ModelParams) -> None:
        if not ok(value, s, m):
            raise ValueError(message)

    return check


_POSITIVE = _bound(lambda x, s, m: x > 0, "must be positive")
_EVENT_BUDGET = _bound(
    lambda x, s, m: 1 <= x <= MAX_EVENTS, f"must lie in [1, {MAX_EVENTS}] (2**31 - 1)"
)
_REPLICATES = _bound(lambda n, s, m: 1 <= n <= MAX_SIZE, f"must lie in [1, {MAX_SIZE}] (2**22)")
_SEED_RANGE = _bound(lambda seed, s, m: 0 <= seed < 1 << 64, "must lie in [0, 2**64)")
_MODEL_SPAN = _bound(lambda t, s, m: t == _constant_grid(m)[1], "is the span 30/a, not a setting")


# bounds of the keys that fix an output grid, and of what is kept over it: see analytic.MAX_SIZE
def _spacing(dt, s: dict, m: ModelParams) -> None:
    # an MC-only run writes a row per k and grid point; an ODE solve's K x grid bounds the rest
    grid_cells(len(s["k"]) if s["method"] == "mc" else 1, s["t_max"], dt, "len(k)")


def _solver_K(K, s: dict, m: ModelParams) -> None:
    if K < max(s["k"]):
        raise ValueError("truncation level K must cover every requested k")
    if s["method"] != "mc":
        grid_cells(K, s["t_max"], s["dt"], "K")


def _settles(m: ModelParams, K: int, tol: float) -> None:
    """check_settles at K and at 2K: constant solves 2K for its K-doubling diagnostic, and
    gumbel's estimate (C: null) keeps that floor, its one guard against a stiff default level."""
    check_settles(m, K, tol)
    try:
        check_settles(m, 2 * K, tol)
    except ValueError as e:
        raise ValueError(f"level K = {K}, at 2K: {e}") from e


def _leading_constant(C, s: dict, m: ModelParams) -> None:
    if C is not None and not 0.0 < C <= 1.0:
        raise ValueError("leading constant must lie in (0, 1]")
    if C is None and linear_fractional_constant(m) is None:
        K = default_level(m)  # the level of the estimate C: null makes, at its default tol
        try:
            _settles(m, K, DEFAULT_SETTLING_TOL)
        except ValueError as e:
            raise ValueError(f"{e}: give C to run without the estimate at level K = {K}") from e


REQUIRED = object()  # Key default: the key must be given
OMITTED = object()  # Key default: an absent key stays out of the resolved config


@dataclass(frozen=True)
class Key:
    """One config key.  `parse(value)` type-checks and normalizes the value,
    `bound(value, settings of the earlier keys, context)` rejects it when out
    of range; both raise ValueError with the message.  `default` is a value,
    a function (settings of the earlier keys, context) -> value, REQUIRED or
    OMITTED.  The context is the model for experiment keys, a dict at the top
    level (where the model block leaves its ModelParams), else None."""

    name: str
    parse: Callable[[object], object]
    default: object = REQUIRED
    bound: Callable[[object, dict, ModelParams | None], None] | None = None

    def check(self, value, s: dict, ctx):
        value = self.parse(value)
        if self.bound is not None:
            self.bound(value, s, ctx)
        return value


@dataclass(frozen=True)
class Block(Key):
    """A key holding a nested block: `parse(value, settings of the earlier
    keys, context)` resolves it, raising ConfigErrors with paths relative to it."""

    def check(self, value, s: dict, ctx):
        return self.parse(value, s, ctx)


SEED = Key("seed", _integer, OMITTED, _SEED_RANGE)


@dataclass(frozen=True)
class Experiment:
    """An experiment type.  `run(model, settings, directory)` computes every
    artifact as (path, "csv" or "json", payload) and returns them with a
    one-line summary; `randomized(settings)` says whether the run draws
    random numbers and so needs a seed."""

    keys: tuple[Key, ...]
    run: Callable
    subcritical: bool = False
    randomized: Callable[[dict], bool] = lambda s: False


def _resolve(obj, keys: tuple[Key, ...], ctx=None) -> dict:
    """The block `obj` resolved against `keys`: every key in order, given or
    defaulted, then checked against the settings resolved before it and
    `ctx`.  Error paths are relative to the block."""
    if not isinstance(obj, dict):
        raise ConfigError("", "expected an object")
    names = {key.name for key in keys}
    for name in obj:
        if name not in names:
            raise ConfigError(name, "unknown key")
    s: dict = {}
    for key in keys:
        if key.name in obj:
            value = obj[key.name]
        elif key.default is REQUIRED:
            raise ConfigError(key.name, "missing required key")
        elif key.default is OMITTED:
            continue
        elif callable(key.default):
            value = key.default(s, ctx)
        else:
            value = key.default
        s[key.name] = _checked(key.name, key.check, value, s, ctx)
    return s


def _tag(obj, tag: str, variants: dict) -> str:
    """The variant a tagged-union block names in its `tag` key."""
    if not isinstance(obj, dict):
        raise ConfigError("", "expected an object")
    return _checked(tag, _one_of(*variants), obj.get(tag))


def _offspring(obj, s: dict, ctx) -> dict:
    kind = _tag(obj, "kind", OFFSPRING)
    return _resolve(obj, (Key("kind", str), *OFFSPRING[kind]))


def _model(obj, s: dict, top: dict) -> dict:
    """The model block; its ModelParams, built once, is left in `top`."""
    model = _resolve(obj, MODEL)
    law = OffspringDistribution(**model["offspring"])
    top["params"] = ModelParams(**{**model, "offspring": law})  # beta, rho: ValueError at 'model'
    return model


def _experiment(obj, s: dict, top: dict) -> dict:
    """The experiment block, a union on `type`, against the model in `top`."""
    m = top["params"]
    kind = _tag(obj, "type", EXPERIMENTS)
    spec = EXPERIMENTS[kind]
    if spec.subcritical and not m.subcritical:
        raise ModelError(
            "model",
            f"experiment '{kind}' requires a subcritical model: "
            f"rho + beta*(1 - mean offspring) must be positive, got {m.decay_rate:g}",
        )
    return _resolve(obj, (Key("type", str), *spec.keys), m)


_PARAM = Key("param", _number, REQUIRED, lambda p, s, _: OffspringDistribution(s["kind"], param=p))
OFFSPRING: dict[str, tuple[Key, ...]] = {
    "table": (Key("probs", _probs),),
    "poisson": (_PARAM,),
    "geometric": (_PARAM,),
}
MODEL = (Key("beta", _number), Key("rho", _number), Block("offspring", _offspring))
OUTPUT = (Key("dir", _string, "."),)
CONFIG = (
    Block("model", _model),
    Block("experiment", _experiment),
    Block("output", lambda obj, s, top: _resolve(obj, OUTPUT), {}),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config.

    Raises ConfigError with the JSON path of the offending key; the returned
    config has every default filled in and recorded.
    """
    repeated: dict[int, str] = {}  # id of an object -> its first repeated key

    def pairs(items: list) -> dict:
        obj: dict = {}
        for key, value in items:
            if key in obj:
                repeated.setdefault(id(obj), key)
            obj[key] = value
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=pairs)
    except json.JSONDecodeError as e:
        raise ConfigError("", f"invalid JSON: {e}") from e
    if repeated:
        _reject_repeated(raw, repeated, "")
    top: dict = {}
    resolved = _resolve(raw, CONFIG, top)
    return ExperimentConfig(params=top["params"], resolved=resolved)


def _reject_repeated(obj, repeated: dict[int, str], path: str) -> None:
    """Raise a ConfigError at the first key given twice in one object: JSON
    keeps only a repeated key's last value, silently."""
    if isinstance(obj, dict):
        if id(obj) in repeated:
            raise ConfigError(f"{path}{repeated[id(obj)]}", "key given more than once")
        for key, value in obj.items():
            _reject_repeated(value, repeated, f"{path}{key}.")
    elif isinstance(obj, list):
        for value in obj:
            _reject_repeated(value, repeated, path)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build_metadata(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "sporesim",
        "tool_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "master_seed": cfg.seed,
        "config_hash": sha256(_canonical_json(cfg.resolved).encode()).hexdigest(),
        "config": cfg.resolved,
    }


def _write_atomic(path: Path, kind: str, write: Callable) -> None:
    """Call ``write(f)`` on a new temporary file in ``path``'s directory,
    then rename it to ``path``: a reader never sees a partial artifact, and a
    failed write leaves whatever ``path`` held before."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        try:
            with open(tmp, "x", newline="\n", encoding="utf-8") as f:
                write(f)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # gone once renamed
    except OSError as e:
        raise OSError(f"cannot write {kind} artifact {path}: {e}") from e


def emit_csv(path: Path, metadata: dict, header: list[str], rows: list[tuple]) -> None:
    """Write `# key=value` provenance comments, a header row, then data rows.

    Floats carry 17 significant digits (lossless round-trip); newline is LF.
    The config is canonical JSON and a missing value is written `null`, as
    in the JSON artifacts.  Each column holds one type: the first row's
    types pick one format for every row, `%.17g` for a float, else `%s`.
    """

    def write(f) -> None:
        for key, value in metadata.items():
            if key == "config" or value is None:
                value = _canonical_json(value)
            f.write(f"# {key}={value}\n")
        f.write(",".join(header) + "\n")
        if rows:
            template = ",".join("%.17g" if isinstance(x, float) else "%s" for x in rows[0]) + "\n"
            f.writelines(map(template.__mod__, rows))

    _write_atomic(path, "CSV", write)


def emit_json(path: Path, metadata: dict, payload: dict) -> None:
    def write(f) -> None:
        json.dump({"metadata": metadata, **payload}, f, indent=2, sort_keys=True)
        f.write("\n")

    _write_atomic(path, "JSON", write)


def _resolve_gumbel_constant(m: ModelParams, s: dict) -> tuple[float, str]:
    if s["C"] is not None:
        return s["C"], "config"
    if (C := linear_fractional_constant(m)) is not None:
        return C, "linear_fractional"
    return estimate_constant(TruncatedSystem(m, K=default_level(m))).c_hat, "backward_system"


def _curve_rows(c: SurvivalCurve) -> list[tuple]:
    """A survival curve's CSV rows: k, t, q, err and source at each grid point."""
    return list(zip(repeat(c.k), c.ts.tolist(), c.qs.tolist(), c.err.tolist(), repeat(c.source)))


def _run_survival(m: ModelParams, s: dict, directory: Path):
    artifacts = []
    header = ["k", "t", "q", "err", "source"]
    if s["method"] in ("ode", "both"):
        curves = solve_survival(
            TruncatedSystem(m, K=s["K"]), t_max=s["t_max"], tol=s["tol"], dt=s["dt"]
        )
        rows = [row for k in s["k"] for row in _curve_rows(curves[k - 1])]
        del curves  # all K curves; the rows hold the few emitted, and the MC runs next
        artifacts.append((directory / "survival_ode.csv", "csv", (header, rows)))
    if s["method"] in ("mc", "both"):
        rows = []
        for pos, k in enumerate(s["k"]):
            seed = (s["seed"] + pos) % (1 << 64)  # disjoint streams per k
            curve = survival_curve_mc(
                k, s["t_max"], m, seed, n=s["replicates"], dt=s["dt"], max_events=s["max_events"]
            )
            rows += _curve_rows(curve)
        artifacts.append((directory / "survival_mc.csv", "csv", (header, rows)))
    return artifacts, f"survival curves for k={s['k']}"


def _run_constant(m: ModelParams, s: dict, directory: Path):
    # the estimate at K, and at 2K for the K-doubling diagnostic, which only this artifact reads
    est, double = (
        estimate_constant(TruncatedSystem(m, K=K), s["tol"], s["solver_tol"])
        for K in (s["K"], 2 * s["K"])
    )
    payload = {**asdict(est), "decay_rate": m.decay_rate, "a": tail_exponent(m)}
    payload["k_doubling_change"] = abs(double.c_hat - est.c_hat)
    summary = f"c_hat = {est.c_hat:.6g} at t* = {est.t_star:.4g}"
    return [(directory / "constant.json", "json", payload)], summary


def _run_gumbel(m: ModelParams, s: dict, directory: Path):
    C, c_source = _resolve_gumbel_constant(m, s)
    z = {int(k): v for k, v in s["z"].items()}
    report = gumbel_experiment(
        z,
        m,
        C=C,
        seed=s["seed"],
        replicates=s["replicates"],
        max_events=s["max_events"],
    )
    growth = check_growth_condition(z, a=tail_exponent(m), lam=m.decay_rate)
    payload = {
        "C": C,
        "C_source": c_source,
        "decay_rate": m.decay_rate,
        "predicted_location": report.location,
        "predicted_scale": report.scale,
        "replicates": report.n,
        "ks_distance": report.ks,
        "median_w": report.median_w,
        "predicted_median_w": GUMBEL_MEDIAN,
        "quantiles": [
            {"p": p, "empirical": emp, "predicted": pred}
            for p, emp, pred in report.quantiles
        ],
        "growth_condition": asdict(growth),
    }
    rows = list(enumerate(report.extinction_times.tolist()))
    artifacts = [
        (directory / "gumbel.json", "json", payload),
        (directory / "extinction_times.csv", "csv", (["replicate", "T"], rows)),
    ]
    return artifacts, f"KS distance {report.ks:.4f} over {report.n} replicates"


EXPERIMENTS: dict[str, Experiment] = {
    "survival": Experiment(
        keys=(
            Key("k", _types),
            Key("t_max", _number, REQUIRED, _POSITIVE),
            Key("method", _one_of("ode", "mc", "both"), "ode"),
            Key("dt", _number, lambda s, m: default_dt(s["t_max"]), _spacing),
            Key("tol", _number, DEFAULT_SOLVER_TOL, _POSITIVE),
            Key("K", _integer, lambda s, m: max(*s["k"], truncation_level(m, s["tol"])), _solver_K),
            Key("replicates", _integer, 100_000, _REPLICATES),
            Key("max_events", _integer, DEFAULT_MAX_EVENTS, _EVENT_BUDGET),
            SEED,
        ),
        run=_run_survival,
        randomized=lambda s: s["method"] != "ode",
    ),
    "constant": Experiment(
        keys=(
            Key("tol", _number, DEFAULT_SETTLING_TOL, _POSITIVE),
            Key(
                "K",
                _integer,
                lambda s, m: default_level(m, s["tol"]),
                lambda K, s, m: _settles(m, K, s["tol"]),
            ),
            Key("solver_tol", _number, DEFAULT_SOLVER_TOL, _POSITIVE),
            # recorded, not set: the estimate's span, which perfbench/run.py reads from its artifact
            Key("t_max", _number, lambda s, m: _constant_grid(m)[1], _MODEL_SPAN),
        ),
        run=_run_constant,
        subcritical=True,
    ),
    "gumbel": Experiment(
        keys=(
            Key("z", _initial_counts),
            Key("replicates", _integer, 2000, _REPLICATES),
            Key("max_events", _integer, DEFAULT_MAX_EVENTS, _EVENT_BUDGET),
            Key("C", _optional_number, None, _leading_constant),
            SEED,
        ),
        run=_run_gumbel,
        subcritical=True,
        randomized=lambda s: True,
    ),
}


@dataclass
class ExperimentResult:
    paths: list[Path]
    summary: str


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, threads: int = 1
) -> ExperimentResult:
    """Execute the configured experiment and write its artifacts.

    All payloads are computed before anything is written; if writing fails
    partway, every artifact written so far is removed.  ``threads`` is
    accepted for compatibility and has no effect.
    """
    if cfg.randomized and cfg.seed is None:
        raise ConfigError(
            "experiment.seed",
            "randomized experiments need an explicit seed "
            "(config key, --seed, or opt out with --ephemeral)",
        )
    directory = Path(out_dir if out_dir is not None else cfg.resolved["output"]["dir"])
    metadata = build_metadata(cfg)
    artifacts, summary = EXPERIMENTS[cfg.kind].run(cfg.params, cfg.settings, directory)

    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for path, fmt, payload in artifacts:
            if fmt == "csv":
                header, rows = payload
                emit_csv(path, metadata, header, rows)
            else:
                emit_json(path, metadata, payload)
            written.append(path)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return ExperimentResult(paths=written, summary=summary)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sporesim",
        description="Simulate and analyze the extinction of a spore-carrying host population.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured experiment")
    run_p.add_argument("--config", required=True, help="JSON config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out-dir", default=None, help="override the output directory")
    run_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (the batch engine runs in one thread)",
    )
    run_p.add_argument(
        "--ephemeral",
        action="store_true",
        help="allow a randomized experiment without an explicit seed (one is drawn and recorded)",
    )

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("--config", required=True, help="JSON config file")

    args = parser.parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:  # not an OSError
            raise ConfigError("", f"not UTF-8 text: {e}") from e
        cfg = parse_config(text)

        if args.command == "validate":
            print(f"decay rate: {cfg.params.decay_rate:g}")
            print(f"experiment: {cfg.kind}")
            print(f"resolved: {_canonical_json(cfg.resolved)}")
            return EXIT_OK

        if args.seed is not None:
            cfg.set_seed(args.seed)
        if args.ephemeral and cfg.seed is None:
            cfg.set_seed(int.from_bytes(os.urandom(8), "big") >> 1)

        result = run_experiment(cfg, out_dir=args.out_dir)
        for path in result.paths:
            print(f"wrote {path}")
        print(result.summary)
        return EXIT_OK
    except (OSError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (SolverError, NonConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
