"""Traced run, one fresh interpreter, started by run.py.

    trace.py --config C --seed S --out-dir D --trace-file F [--slice JSON]

Does what `sporesim run --config C --seed S --out-dir D --threads 1` does,
in the same order: import, parse_config, set the seed, run_experiment.  The
public functions that run_experiment calls, and run_batch as the stats layer
calls it, are replaced by wrappers that record one span each (name, start,
end, parent) plus the counts their results carry.  After the run two layer
probes follow: the workload's run_batch slice at threads 1 and 2, and a loop
of sample_offspring draws on the workload's law.  Spans are kept in memory
and written to F when the run ends.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import time
from contextlib import contextmanager

SAMPLE_DRAWS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a wrapper recording a span per call;
        `count(rec, bound_args, result)` adds counts to the span."""
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(rec, bound.arguments, result)
                return result

        setattr(module, attr, traced)


def _count_batch(rec: dict, args: dict, outcomes) -> None:
    events = [o.event_count for o in outcomes]
    rec["attrs"].update(
        replicates=len(outcomes),
        events=sum(events),
        peak_hosts_max=max(o.peak_hosts for o in outcomes),
        budget_used_max=max(events) / args["max_events"],
    )


def _count_curves(rec: dict, args: dict, curves) -> None:
    rec["attrs"]["grid_points"] = len(curves[0].ts)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--slice", default="null")
    args = ap.parse_args()

    tracer = Tracer()
    with tracer.span("cli.import"):
        import sporesim
        import sporesim.cli as cli
        import sporesim.stats as stats

    for attr, name, count in (
        ("build_metadata", "cli.build_metadata", None),
        ("emit_csv", "cli.emit_csv", None),
        ("emit_json", "cli.emit_json", None),
        ("solve_survival", "analytic.solve_survival", _count_curves),
        ("estimate_constant", "analytic.estimate_constant", None),
        ("linear_fractional_constant", "analytic.linear_fractional_constant", None),
        ("survival_curve_mc", "stats.survival_curve_mc", None),
        ("gumbel_experiment", "stats.gumbel_experiment", None),
        ("check_growth_condition", "stats.check_growth_condition", None),
    ):
        tracer.wrap(cli, attr, name, count)
    tracer.wrap(stats, "run_batch", "simulator.run_batch", _count_batch)

    with open(args.config, encoding="utf-8") as f:
        text = f.read()
    with tracer.span("cli.parse_config"):
        cfg = cli.parse_config(text)
    with tracer.span("cli.run_experiment"):
        cfg.set_seed(args.seed)
        cli.run_experiment(cfg, out_dir=args.out_dir, threads=1)

    batch_slice = json.loads(args.slice)
    if batch_slice is not None:
        counts, replicates, horizon = batch_slice
        init = sporesim.PopulationState.from_counts({int(k): n for k, n in counts.items()})
        results = []
        for threads in (1, 2):
            with tracer.span("probe.run_batch", threads=threads, replicates=replicates):
                results.append(
                    sporesim.run_batch(
                        init, cfg.params, args.seed, replicates, horizon=horizon, threads=threads
                    )
                )
        if results[0] != results[1]:
            raise SystemExit("run_batch slice differs between threads 1 and 2")

    rng = sporesim.RandomStream(args.seed, 0)
    law = cfg.params.offspring
    draw = sporesim.sample_offspring
    with tracer.span("probe.sample_offspring", draws=SAMPLE_DRAWS):
        for _ in range(SAMPLE_DRAWS):
            draw(law, rng)

    with open(args.trace_file, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans}, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
