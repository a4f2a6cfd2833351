"""The asyncio multi-tenant serving gateway.

One :class:`Gateway` multiplexes many compiled accelerators and many
tenants over one process:

* models are resolved through a :class:`~repro.gateway.registry.
  ModelRegistry`, so deployments of the same network share one
  :class:`~repro.runtime.model.CompiledModel` and one
  :class:`ModelHost` (a micro-batched
  :class:`~repro.runtime.server.InferenceServer` session pool) —
  requests from different tenants ride the same micro-batches;
* every request passes API-key authentication and the
  :class:`~repro.gateway.admission.AdmissionController` (rate limits,
  quotas, deadline-aware shedding) before touching a queue, and a full
  queue surfaces as a structured ``503`` shed response, never a
  blocked caller;
* completion is bridged from the server's worker threads onto the
  event loop via :meth:`InferenceServer.submit`'s ``on_complete``
  callback and ``loop.call_soon_threadsafe`` — no thread is parked per
  in-flight request.

Synchronous lifecycle (``start``/``stop``/``with``), asynchronous data
path (``await gateway.submit(...)``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import AuthError, GatewayError, QueueFullError
from repro.gateway.admission import AdmissionController
from repro.gateway.auth import Tenant, TenantTable
from repro.gateway.registry import ModelRegistry, ModelSpec, RegistryEntry
from repro.runtime.metrics import Gauge, MetricsRegistry
from repro.runtime.server import InferenceServer

#: Gateway response statuses that carry no model output.
REJECT_CODES = {
    "unauthorized": 401,
    "unknown_model": 404,
    "rate_limited": 429,
    "quota_exhausted": 429,
    "shed": 503,
    "timeout": 504,
    "error": 500,
}


@dataclass(frozen=True)
class GatewayRequest:
    """One tenant request: credentials, target deployment, payload."""

    api_key: str
    model: str
    inputs: Any
    deadline_s: float | None = None


@dataclass(frozen=True)
class GatewayResponse:
    """The structured terminal state of one gateway request.

    ``status`` is machine-friendly (``ok``/``rate_limited``/``shed``/
    ``timeout``/...), ``code`` its HTTP-flavoured numeric twin.  Every
    submitted request gets exactly one response — load shedding answers
    ``429``/``503`` with a ``retry_after_s`` hint instead of silently
    dropping work.
    """

    status: str
    code: int
    tenant: str = ""
    model: str = ""
    request_id: int = 0
    latency_s: float = 0.0
    retry_after_s: float = 0.0
    batch_size: int = 0
    cycles: int = 0
    output: Any = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ModelHost:
    """One shared serving endpoint over one registry entry.

    Owns the :class:`InferenceServer` (bounded queue, micro-batcher,
    worker session pool) plus the host-level telemetry: a queue-depth
    gauge exported into the gateway's registry and an EWMA estimate of
    end-to-end service time that feeds deadline-aware shedding.
    """

    def __init__(self, entry: RegistryEntry, *, workers: int,
                 max_batch_size: int, max_queue_depth: int,
                 batch_timeout_s: float, functional: bool,
                 queue_gauge: Gauge) -> None:
        self.entry = entry
        self.label = f"{entry.spec.display_name}-{entry.key[:8]}"
        self.metrics = MetricsRegistry()
        self.server = InferenceServer(
            entry.model,
            workers=workers,
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
            batch_timeout_s=batch_timeout_s,
            functional=functional,
            metrics=self.metrics,
        )
        self.queue_gauge = queue_gauge
        self.max_batch_size = max_batch_size
        self.deployments = 0
        self._ewma_latency_s = 0.0
        self._ewma_lock = threading.Lock()
        self._started = False

    def start(self) -> None:
        if not self._started:
            self.server.start()
            self._started = True

    def stop(self) -> None:
        if self._started:
            self.server.stop()
            self._started = False

    def observe_service(self, latency_s: float) -> None:
        """Fold one completed request into the service-time estimate."""
        with self._ewma_lock:
            if self._ewma_latency_s == 0.0:
                self._ewma_latency_s = latency_s
            else:
                self._ewma_latency_s += 0.2 * (latency_s
                                               - self._ewma_latency_s)

    def service_estimate_s(self) -> float:
        """Expected end-to-end latency for a request admitted now.

        The EWMA of recent completions scaled by the relative queue
        backlog: an empty queue predicts one typical service time, a
        deep queue proportionally more.  Every worker takes up to one
        full batch off the queue at a time, so the backlog drains
        ``workers * max_batch_size`` requests per service time.  0.0
        until the first completion (never shed blind).
        """
        with self._ewma_lock:
            ewma = self._ewma_latency_s
        if ewma == 0.0:
            return 0.0
        backlog = self.server.queue_depth()
        return ewma * (1.0 + backlog / (self.server.workers
                                        * self.max_batch_size))


@dataclass(frozen=True)
class Deployment:
    """A named endpoint binding one spec to its (shared) host."""

    name: str
    spec: ModelSpec
    key: str
    host: ModelHost


class Gateway:
    """Async multi-model, multi-tenant serving over shared accelerators."""

    def __init__(
        self,
        *,
        registry: ModelRegistry | None = None,
        workers: int = 2,
        max_batch_size: int = 8,
        max_queue_depth: int = 64,
        batch_timeout_s: float = 0.002,
        default_deadline_s: float | None = None,
        functional: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        # `is not None`, not truthiness: an empty registry is falsy
        # (it has __len__) but must still be adopted.
        self.registry = registry if registry is not None else ModelRegistry()
        self.tenants = TenantTable()
        self.admission = AdmissionController()
        self.metrics = metrics or MetricsRegistry()
        self.workers = workers
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.batch_timeout_s = batch_timeout_s
        self.default_deadline_s = default_deadline_s
        self.functional = functional
        self._deployments: dict[str, Deployment] = {}
        self._hosts: dict[str, ModelHost] = {}
        self._lock = threading.Lock()
        self._started = False
        self._next_id = 0

    # -- control plane -------------------------------------------------

    def register_tenant(
        self,
        name: str,
        *,
        api_key: str = "",
        rate_per_s: float = 0.0,
        burst: int = 16,
        quota: int | None = None,
    ) -> Tenant:
        """Create a tenant and its admission state; returns the record
        (carrying the possibly-generated API key)."""
        tenant = self.tenants.register(
            name, api_key=api_key, rate_per_s=rate_per_s, burst=burst,
            quota=quota)
        self.admission.register(tenant)
        return tenant

    def deploy(self, name: str, spec: ModelSpec,
               warm: bool = False) -> Deployment:
        """Expose ``spec`` as endpoint ``name``.

        Two deployments whose specs hash to the same content address
        share one host (and one compiled model, by identity) — their
        tenants' requests are micro-batched together.
        """
        with self._lock:
            if name in self._deployments:
                raise GatewayError(f"endpoint '{name}' is already deployed")
            entry = self.registry.get(spec, pin=True)
            host = self._hosts.get(entry.key)
            if host is None:
                host = ModelHost(
                    entry,
                    workers=self.workers,
                    max_batch_size=self.max_batch_size,
                    max_queue_depth=self.max_queue_depth,
                    batch_timeout_s=self.batch_timeout_s,
                    functional=self.functional,
                    queue_gauge=self.metrics.gauge(
                        f"model.{spec.display_name}-{entry.key[:8]}"
                        ".queue_depth"),
                )
                self._hosts[entry.key] = host
            host.deployments += 1
            deployment = Deployment(name=name, spec=spec, key=entry.key,
                                    host=host)
            self._deployments[name] = deployment
            if self._started:
                host.start()
        if warm:
            self.registry.warm(spec, functional=self.functional)
        return deployment

    def undeploy(self, name: str) -> None:
        """Remove an endpoint; the last endpoint of a host retires it."""
        with self._lock:
            deployment = self._deployments.pop(name, None)
            if deployment is None:
                raise GatewayError(f"no endpoint named '{name}'")
            host = deployment.host
            host.deployments -= 1
            retire = host.deployments == 0
            if retire:
                del self._hosts[deployment.key]
        if retire:
            host.stop()
        self.registry.release(deployment.key)

    def deployment(self, name: str) -> Deployment:
        with self._lock:
            deployment = self._deployments.get(name)
        if deployment is None:
            raise GatewayError(f"no endpoint named '{name}'")
        return deployment

    def deployments(self) -> list[Deployment]:
        with self._lock:
            return sorted(self._deployments.values(),
                          key=lambda d: d.name)

    def hosts(self) -> list[ModelHost]:
        with self._lock:
            return list(self._hosts.values())

    def model_for(self, name: str) -> Any:
        """The (shared) :class:`CompiledModel` behind endpoint ``name``."""
        return self.deployment(name).host.entry.model

    def start(self) -> "Gateway":
        with self._lock:
            if self._started:
                raise GatewayError("gateway is already started")
            self._started = True
            hosts = list(self._hosts.values())
        for host in hosts:
            host.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if not self._started:
                return
            self._started = False
            hosts = list(self._hosts.values())
        for host in hosts:
            host.stop()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- data plane ----------------------------------------------------

    def _new_request_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _account(self, tenant_name: str, status: str) -> None:
        label = tenant_name or "anonymous"
        self.metrics.counter(f"tenant.{label}.requests").inc()
        self.metrics.counter(f"tenant.{label}.{status}").inc()

    def _reject(self, request_id: int, tenant_name: str, model: str,
                status: str, reason: str, started: float,
                retry_after_s: float = 0.0) -> GatewayResponse:
        self._account(tenant_name, status)
        self.metrics.counter("gateway.rejected").inc()
        return GatewayResponse(
            status=status,
            code=REJECT_CODES[status],
            tenant=tenant_name,
            model=model,
            request_id=request_id,
            latency_s=time.perf_counter() - started,
            retry_after_s=retry_after_s,
            error=reason,
        )

    async def submit(self, request: GatewayRequest) -> GatewayResponse:
        """Admit, batch, serve: one structured response per request.

        Never raises for data-plane conditions — authentication, rate
        limiting, shedding, timeouts and execution errors all come back
        as :class:`GatewayResponse` with the appropriate status/code.
        """
        started = time.perf_counter()
        request_id = self._new_request_id()
        self.metrics.counter("gateway.requests").inc()
        try:
            tenant = self.tenants.authenticate(request.api_key)
        except AuthError as error:
            return self._reject(request_id, "", request.model,
                                "unauthorized", str(error), started)
        with self._lock:
            deployment = self._deployments.get(request.model)
        if deployment is None:
            return self._reject(
                request_id, tenant.name, request.model, "unknown_model",
                f"no endpoint named '{request.model}'", started)
        host = deployment.host
        deadline_s = (request.deadline_s if request.deadline_s is not None
                      else self.default_deadline_s)
        decision = self.admission.admit(
            tenant,
            estimated_wait_s=host.service_estimate_s(),
            deadline_s=deadline_s,
        )
        if not decision.admitted:
            return self._reject(
                request_id, tenant.name, request.model, decision.status,
                decision.reason, started,
                retry_after_s=decision.retry_after_s)

        loop = asyncio.get_running_loop()
        future: asyncio.Future[Any] = loop.create_future()

        def resolve(response: Any) -> None:
            if not future.done():
                future.set_result(response)

        def on_complete(response: Any) -> None:
            try:
                loop.call_soon_threadsafe(resolve, response)
            except RuntimeError:
                # The loop is gone (gateway outlived its driver); the
                # blocking-path bookkeeping has already happened.
                pass

        try:
            host.server.submit(request.inputs, timeout_s=deadline_s,
                               on_complete=on_complete)
        except QueueFullError as error:
            return self._reject(
                request_id, tenant.name, request.model, "shed",
                str(error), started,
                retry_after_s=host.service_estimate_s())
        host.queue_gauge.set(host.server.queue_depth())
        served = await future
        host.queue_gauge.set(host.server.queue_depth())
        latency = time.perf_counter() - started

        if served.status == "ok":
            host.observe_service(latency)
            self._account(tenant.name, "ok")
            self.metrics.histogram(
                f"tenant.{tenant.name}.latency_s").observe(latency)
            return GatewayResponse(
                status="ok", code=200, tenant=tenant.name,
                model=request.model, request_id=request_id,
                latency_s=latency, batch_size=served.batch_size,
                cycles=served.cycles, output=served.output,
            )
        status = "timeout" if served.status == "timeout" else "error"
        self._account(tenant.name, status)
        return GatewayResponse(
            status=status, code=REJECT_CODES[status], tenant=tenant.name,
            model=request.model, request_id=request_id, latency_s=latency,
            batch_size=served.batch_size, error=served.error,
        )

    async def infer(self, api_key: str, model: str, inputs: Any,
                    deadline_s: float | None = None) -> GatewayResponse:
        """Convenience wrapper building the request record."""
        return await self.submit(GatewayRequest(
            api_key=api_key, model=model, inputs=inputs,
            deadline_s=deadline_s))
