"""The immutable serving handle: one built accelerator, many requests.

A :class:`CompiledModel` wraps the :class:`~repro.api.BuildArtifacts`
bundle (graph, design, control program, weights, memory layout) behind a
request-oriented interface.  The artifacts never change after
construction; every mutable piece of simulation state lives in
per-worker :class:`~repro.sim.accel.AcceleratorSimulator` sessions, so
N workers can serve the same model concurrently without sharing state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import threading

import numpy as np

from repro import api
from repro.sim.accel import AcceleratorSimulator, SimulationResult
from repro.sim.plan import ExecutionPlan


@dataclass(frozen=True)
class CompiledModel:
    """One generated accelerator, packaged for the serving runtime."""

    artifacts: api.BuildArtifacts
    name: str = ""
    #: Plan optimization mode — ``"fused"`` (epilogue fusion + buffer
    #: arena, the serving hot path) or
    #: ``"naive"`` (one step per layer, sequential; the baseline the
    #: runtime benchmark compares against).
    optimize: str = "fused"
    _local: threading.local = field(default_factory=threading.local,
                                    repr=False, compare=False)

    @classmethod
    def build(cls, script_or_graph, name: str = "",
              optimize: str = "fused", **build_kwargs) -> "CompiledModel":
        """Run :func:`repro.api.build` and wrap the result."""
        artifacts = api.build(script_or_graph, **build_kwargs)
        return cls(artifacts=artifacts, name=name or artifacts.graph.name,
                   optimize=optimize)

    @classmethod
    def from_zoo(cls, benchmark: str, **build_kwargs) -> "CompiledModel":
        """Build a zoo benchmark network (e.g. ``"mnist"``) for serving."""
        from repro.zoo import benchmark_graph
        graph = benchmark_graph(benchmark)
        return cls.build(graph, name=benchmark, **build_kwargs)

    # ------------------------------------------------------------------

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.artifacts.input_shape

    @cached_property
    def execution_plan(self) -> ExecutionPlan | None:
        """The model-wide execution plan, built once and shared.

        Fetched through the build pipeline's stage cache, so models of
        the same seeded build share it even across
        :class:`CompiledModel` instances.  ``None`` for timing-only
        models; materialized lazily — only a session that actually
        warms or batch-runs pays for it.
        """
        if self.artifacts.weights is None:
            return None
        from repro.pipeline import default_pipeline
        return default_pipeline().plan_for(self.artifacts,
                                           optimize=self.optimize)

    def new_session(self) -> AcceleratorSimulator:
        """A fresh simulator session (one per worker thread).

        Each session caches its own timing pass and quantized executor,
        but all sessions share the model-wide
        :attr:`execution_plan` — weights are packed once per model, not
        once per worker.
        """
        plan = None
        if self.artifacts.weights is not None:
            plan = lambda: self.execution_plan  # noqa: E731 — lazy share
        return api.simulator(self.artifacts, plan=plan,
                             optimize=self.optimize)

    def session(self) -> AcceleratorSimulator:
        """The calling thread's private session, created on first use."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = self.new_session()
            self._local.session = session
        return session

    def warm_session(self, functional: bool = True) -> AcceleratorSimulator:
        """Pre-build this thread's session caches (timing + executor)."""
        session = self.session()
        session.warm(functional=functional)
        return session

    def run(self, inputs: np.ndarray,
            functional: bool = True,
            all_blobs: bool = False) -> SimulationResult:
        """One forward propagation on this thread's session."""
        return self.session().run(inputs, functional=functional,
                                  all_blobs=all_blobs)

    def run_batch(self, batch: list[np.ndarray],
                  functional: bool = True,
                  all_blobs: bool = False) -> list[SimulationResult]:
        """One vectorized forward propagation over the whole batch.

        All requests ride one
        :meth:`~repro.sim.accel.AcceleratorSimulator.run_batch` pass on
        this thread's session; each starts from clean recurrent state.
        """
        return self.session().run_batch(batch, functional=functional,
                                        all_blobs=all_blobs)

    def random_requests(self, count: int, seed: int = 0) -> list[np.ndarray]:
        """``count`` random input tensors (a synthetic request stream)."""
        rng = np.random.default_rng(seed)
        return [rng.uniform(-1.0, 1.0, self.input_shape)
                for _ in range(count)]
