"""Sweep-throughput benchmark: ``repro dse --bench`` → ``BENCH_dse.json``.

Measures how fast the design-space explorer walks one
:class:`~repro.dse.spec.SweepSpec` under four exact regimes:

baseline
    The pre-memoization flow: every point runs the full
    parse → NN-Gen → quantize → compile → plan chain with a private,
    empty stage cache and no design-group sharing — what every sweep
    paid before the staged pipeline landed.
serial_cold
    ``run_sweep(jobs=1)`` on a fresh :class:`~repro.pipeline.BuildPipeline`
    (stage memoization + dedupe + design-group sharing, one process).
parallel_cold
    The same on a fresh pipeline with ``jobs`` worker processes.
warm
    ``run_sweep(jobs=1)`` again on the serial pass's already-populated
    stage cache (the re-sweep cost inside a long-lived session).

Schema 2 adds the estimator regimes over a widened grid
(:func:`widen_spec`, ≥500 points of the same axes plus collapse-friendly
cap/fold-scale ladders):

analytic_cold / analytic_warm
    ``run_sweep(estimator="analytic")`` on a fresh pipeline, then again
    on the warmed one — the closed-form model, no simulator.
hybrid_cold / hybrid
    ``run_sweep(estimator="hybrid")``: the wide grid analytically, then
    only the Pareto frontier + knee neighborhood through the exact
    simulator.  The cold pass pays the replayed designs' first compile;
    the warm pass is measured under the same fully-memoized conditions
    as the base ``warm`` regime (the ``hybrid_under_warm`` comparison).
exact_wide
    The exact engine over the same wide grid (design-group sharing and
    all), for the honest hybrid-vs-exact speedup and the
    ``frontier_match`` bit-identity check.

Schema 2 also records zoo-wide estimator accuracy
(:func:`repro.estimate.cross_validate`) under ``estimator_accuracy``.

All four exact regimes must produce byte-identical point results
(``bit_identical`` in the report) — the speedups are pure evaluation
savings, never changed answers.  No persistent
:class:`~repro.dse.cache.DesignCache` is involved: the benchmark
isolates in-process stage memoization from on-disk result caching.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace

from repro.dse.engine import evaluate_point, run_sweep
from repro.dse.result import SweepResult, pareto_frontier
from repro.dse.spec import SweepSpec
from repro.errors import DeepBurningError
from repro.frontend.graph import NetworkGraph
from repro.pipeline import BuildPipeline

#: Schema version of BENCH_dse.json.
BENCH_DSE_SCHEMA = 2

#: Widening ladders for the estimator regimes.  Cap values at or above
#: what realistic budgets realize collapse onto already-realized designs
#: (the design stage keys on *effective* caps), so the wide grid grows
#: the point count ~10x faster than the distinct-design count — and the
#: Pareto frontier (what hybrid replays exactly) stays a handful of
#: genuinely distinct lanes×SIMD steps.
WIDE_FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                  0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
WIDE_LANE_CAPS = (0, 2, 4, 8, 16, 32, 48, 64, 96)
WIDE_SIMD_CAPS = (0, 8, 16, 24, 32, 48)
WIDE_FOLD_SCALES = (1.0,)


def _merged(base: tuple, extra: tuple) -> tuple:
    return tuple(sorted(set(base) | set(extra)))


def widen_spec(spec: SweepSpec, min_points: int = 500) -> SweepSpec:
    """``spec`` widened to ≥ ``min_points`` for the estimator regimes.

    Unions each axis with the collapse-friendly ladders above and
    forces a timing-only, unfiltered sweep (what the analytic estimator
    evaluates).  Raises when the result still falls short — the caller
    asked for a scale this grid cannot express.
    """
    wide = replace(
        spec,
        fractions=_merged(spec.fractions, WIDE_FRACTIONS),
        max_lanes=_merged(spec.max_lanes, WIDE_LANE_CAPS),
        max_simd=_merged(spec.max_simd, WIDE_SIMD_CAPS),
        fold_capacity_scales=_merged(spec.fold_capacity_scales,
                                     WIDE_FOLD_SCALES),
        functional=False,
        static_filter=False,
        _points=(),
    )
    n_points = len(wide.points())
    if n_points < min_points:
        raise DeepBurningError(
            f"widened spec has {n_points} points, need >= {min_points}")
    return wide


@dataclass
class DseBenchReport:
    """Outcome of one sweep-throughput benchmark run."""

    network: str
    points: int
    jobs: int
    #: Per-regime ``{"elapsed_s": ..., "points_per_s": ...}``.
    passes: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Cold memoized sweep (``jobs`` workers) vs the pre-memoization
    #: serial baseline — the headline number.
    speedup: float = 0.0
    #: Warm re-sweep vs the same pre-memoization baseline (what a
    #: re-sweep inside a long-lived session saves; the CI gate).
    warm_speedup: float = 0.0
    #: True when all regimes produced byte-equal point results.
    bit_identical: bool = False
    #: Points in the widened estimator grid (0 = estimator regimes off).
    wide_points: int = 0
    #: Frontier/knee points the hybrid pass replayed exactly.
    hybrid_replayed: int = 0
    #: Exact-wide elapsed over hybrid elapsed on the same wide grid.
    hybrid_speedup: float = 0.0
    #: True when the ≥500-point hybrid sweep beat the warm exact
    #: re-sweep of the *base* grid (the acceptance gate).
    hybrid_under_warm: bool = False
    #: True when the hybrid frontier is byte-identical to the exact
    #: sweep's frontier over the same wide grid.
    frontier_match: bool = False
    #: Zoo-wide estimator accuracy
    #: (:meth:`repro.estimate.ValidationReport.to_json`).
    estimator_accuracy: dict = field(default_factory=dict)
    #: Where the cold serial sweep's fresh build time went.
    stage_split_s: dict[str, float] = field(default_factory=dict)
    deduped: int = 0
    design_shared: int = 0
    spec: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": BENCH_DSE_SCHEMA,
            "network": self.network,
            "points": self.points,
            "jobs": self.jobs,
            "passes": self.passes,
            "speedup": self.speedup,
            "warm_speedup": self.warm_speedup,
            "bit_identical": self.bit_identical,
            "wide_points": self.wide_points,
            "hybrid_replayed": self.hybrid_replayed,
            "hybrid_speedup": self.hybrid_speedup,
            "hybrid_under_warm": self.hybrid_under_warm,
            "frontier_match": self.frontier_match,
            "estimator_accuracy": self.estimator_accuracy,
            "stage_split_s": self.stage_split_s,
            "deduped": self.deduped,
            "design_shared": self.design_shared,
            "spec": self.spec,
        }

    def write(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def render(self) -> str:
        lines = [
            f"dse bench: '{self.network}', {self.points} points, "
            f"jobs={self.jobs}",
        ]
        for name in ("baseline", "serial_cold", "parallel_cold", "warm",
                     "analytic_cold", "analytic_warm", "hybrid_cold",
                     "hybrid", "exact_wide"):
            entry = self.passes.get(name)
            if entry is None:
                continue
            lines.append(
                f"  {name:14s} {entry['elapsed_s']:8.3f}s  "
                f"{entry['points_per_s']:8.2f} points/s"
            )
        lines.append(
            f"speedup vs baseline: {self.speedup:.2f}x cold, "
            f"{self.warm_speedup:.2f}x warm"
        )
        if self.wide_points:
            lines.append(
                f"wide grid: {self.wide_points} points, hybrid replayed "
                f"{self.hybrid_replayed} exactly, {self.hybrid_speedup:.2f}x "
                f"vs exact on the same grid"
            )
            lines.append(
                "hybrid under warm base sweep: "
                + ("yes" if self.hybrid_under_warm else "NO")
                + "; frontier identical to exact: "
                + ("yes" if self.frontier_match else "NO")
            )
        accuracy = self.estimator_accuracy
        if accuracy:
            lines.append(
                f"estimator accuracy over {len(accuracy.get('per_net', {}))}"
                f" zoo nets: max rel cycle error "
                f"{accuracy.get('max_rel_cycle_error', 0.0):.4%}, mean "
                f"{accuracy.get('mean_rel_cycle_error', 0.0):.4%} "
                + ("(PASS)" if accuracy.get("ok") else "(FAIL)")
            )
        split = self.stage_split_s
        if split:
            detail = " ".join(
                f"{stage.removesuffix('_s')} {split.get(stage, 0.0):.3f}s"
                for stage in ("nngen_s", "quantize_s", "compile_s", "plan_s"))
            lines.append(f"cold-serial build stages: {detail}")
        lines.append(
            f"sharing: {self.deduped} duplicates deduped, "
            f"{self.design_shared} points shared a realized design"
        )
        lines.append("bit-identical across regimes: "
                     + ("yes" if self.bit_identical else "NO"))
        return "\n".join(lines)


def _baseline_sweep(graph: NetworkGraph, spec: SweepSpec) -> SweepResult:
    """The pre-memoization serial flow: full chain per point, no sharing."""
    started = time.perf_counter()
    results = [
        evaluate_point(graph, point, functional=spec.functional,
                       seed=spec.seed, static_filter=spec.static_filter,
                       pipeline=BuildPipeline())
        for point in spec.points()
    ]
    return SweepResult(results=results,
                       cache_misses=len(results),
                       elapsed_s=time.perf_counter() - started,
                       jobs=1)


def _canonical(sweep: SweepResult) -> list[dict]:
    return [result.to_json() for result in sweep.results]


def _frontier_json(sweep: SweepResult) -> list[dict]:
    return [result.to_json() for result in pareto_frontier(sweep.results)]


def run_dse_bench(graph: NetworkGraph, spec: SweepSpec, jobs: int = 4,
                  wide_min_points: int = 500,
                  validate_networks: "list[str] | None" = None,
                  ) -> DseBenchReport:
    """Benchmark ``spec`` on ``graph`` across all regimes.

    ``wide_min_points`` sizes the estimator grid (0 disables the
    estimator regimes and the accuracy sweep); ``validate_networks``
    restricts the accuracy cross-validation (default: the whole zoo).
    """
    points = spec.points()

    baseline = _baseline_sweep(graph, spec)

    serial_pipe = BuildPipeline()
    serial_cold = run_sweep(graph, spec, jobs=1, pipeline=serial_pipe)
    warm = run_sweep(graph, spec, jobs=1, pipeline=serial_pipe)

    parallel_cold = run_sweep(graph, spec, jobs=jobs,
                              pipeline=BuildPipeline())

    sweeps = {
        "baseline": baseline,
        "serial_cold": serial_cold,
        "parallel_cold": parallel_cold,
        "warm": warm,
    }
    reference = _canonical(baseline)
    bit_identical = all(_canonical(sweep) == reference
                        for sweep in sweeps.values())

    def rate(sweep: SweepResult) -> float:
        return len(points) / sweep.elapsed_s if sweep.elapsed_s else 0.0

    passes = {
        name: {"elapsed_s": sweep.elapsed_s, "points_per_s": rate(sweep)}
        for name, sweep in sweeps.items()
    }

    wide_points = 0
    hybrid_replayed = 0
    hybrid_speedup = 0.0
    hybrid_under_warm = False
    frontier_match = False
    estimator_accuracy: dict = {}
    if wide_min_points:
        wide = widen_spec(spec, min_points=wide_min_points)
        wide_points = len(wide.points())
        estimator_pipe = BuildPipeline()
        # hybrid_cold pays the first compile of every replayed frontier
        # design; "hybrid" is the warm second run, measured under the
        # same fully-memoized conditions as the base "warm" regime it
        # is gated against.
        wide_sweeps = {
            "analytic_cold": run_sweep(graph, wide, jobs=1,
                                       pipeline=estimator_pipe,
                                       estimator="analytic"),
            "analytic_warm": run_sweep(graph, wide, jobs=1,
                                       pipeline=estimator_pipe,
                                       estimator="analytic"),
            "hybrid_cold": run_sweep(graph, wide, jobs=1,
                                     pipeline=estimator_pipe,
                                     estimator="hybrid"),
            "hybrid": run_sweep(graph, wide, jobs=1,
                                pipeline=estimator_pipe,
                                estimator="hybrid"),
            "exact_wide": run_sweep(graph, wide, jobs=1,
                                    pipeline=estimator_pipe),
        }
        for name, sweep in wide_sweeps.items():
            passes[name] = {
                "elapsed_s": sweep.elapsed_s,
                "points_per_s": (wide_points / sweep.elapsed_s
                                 if sweep.elapsed_s else 0.0),
            }
        hybrid = wide_sweeps["hybrid"]
        exact_wide = wide_sweeps["exact_wide"]
        hybrid_replayed = hybrid.replayed
        hybrid_speedup = (exact_wide.elapsed_s / hybrid.elapsed_s
                          if hybrid.elapsed_s else 0.0)
        hybrid_under_warm = hybrid.elapsed_s < warm.elapsed_s
        frontier_match = _frontier_json(hybrid) == _frontier_json(exact_wide)

        from repro.estimate import cross_validate
        estimator_accuracy = cross_validate(
            networks=validate_networks, device=spec.device).to_json()

    return DseBenchReport(
        network=graph.name,
        points=len(points),
        jobs=jobs,
        passes=passes,
        speedup=rate(parallel_cold) / rate(baseline) if rate(baseline)
        else 0.0,
        warm_speedup=rate(warm) / rate(baseline) if rate(baseline)
        else 0.0,
        bit_identical=bit_identical,
        wide_points=wide_points,
        hybrid_replayed=hybrid_replayed,
        hybrid_speedup=hybrid_speedup,
        hybrid_under_warm=hybrid_under_warm,
        frontier_match=frontier_match,
        estimator_accuracy=estimator_accuracy,
        stage_split_s=serial_cold.stage_split(),
        deduped=serial_cold.deduped,
        design_shared=serial_cold.design_shared,
        spec={
            "device": spec.device,
            "fractions": list(spec.fractions),
            "data_formats": [list(bits) for bits in spec.data_formats],
            "weight_formats": [list(bits) for bits in spec.weight_formats],
            "max_lanes": list(spec.max_lanes),
            "max_simd": list(spec.max_simd),
            "fold_capacity_scales": list(spec.fold_capacity_scales),
            "functional": spec.functional,
            "static_filter": spec.static_filter,
            "seed": spec.seed,
        },
    )
