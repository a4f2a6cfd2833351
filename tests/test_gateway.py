"""Tests for the repro.gateway multi-tenant serving layer.

Covers the content-addressed model registry (identity sharing, pinning,
LRU eviction), admission control (token buckets on a fake clock,
quotas, deadline shedding), API-key auth, the async gateway data path
(structured 401/404/429/503/504 responses, never exceptions), streaming
ingestion and the KPI/bench reports.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import AuthError, GatewayError
from repro.gateway import (
    AdmissionController,
    Gateway,
    ModelRegistry,
    ModelSpec,
    QuotaLedger,
    Tenant,
    TenantTable,
    TokenBucket,
    collect_kpis,
    consume,
    paced_requests,
    run_serving_bench,
    serve_stream,
)

SCRIPT = """
name: "gateway_net"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 16 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 4 } }
"""

SPEC = ModelSpec(script=SCRIPT)


@pytest.fixture(scope="module")
def registry():
    """One shared registry so the tiny script builds once per module."""
    return ModelRegistry(capacity=8)


@pytest.fixture
def gateway(registry):
    gw = Gateway(registry=registry, workers=1, max_batch_size=4,
                 batch_timeout_s=0.001)
    yield gw
    gw.stop()


class _GatedModel:
    """A served model whose batches wait for ``gate`` before running."""

    def __init__(self, model, gate: threading.Event) -> None:
        self.model = model
        self.gate = gate
        self.entered = threading.Event()

    def warm_session(self, functional: bool = True) -> None:
        self.model.warm_session(functional=functional)

    def session(self):
        return self

    def run_batch(self, batch, functional: bool = True):
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return self.model.run_batch(batch, functional=functional)


class TestModelSpec:
    def test_needs_model_or_script(self):
        with pytest.raises(GatewayError, match="zoo model or a script"):
            ModelSpec()

    def test_display_name(self):
        assert ModelSpec(model="mnist").display_name == "mnist"
        assert SPEC.display_name == "script"

    def test_build_kwargs_formats(self):
        spec = ModelSpec(model="mnist", data_bits=(7, 8),
                         weight_bits=(3, 12))
        kwargs = spec.build_kwargs()
        assert kwargs["data_format"].integer_bits == 7
        assert kwargs["weight_format"].fraction_bits == 12
        assert "data_format" not in ModelSpec(model="mnist").build_kwargs()


class TestModelRegistry:
    def test_same_spec_shares_one_model_by_identity(self):
        registry = ModelRegistry(capacity=4)
        first = registry.get(ModelSpec(script=SCRIPT))
        second = registry.get(ModelSpec(script=SCRIPT))
        assert second.model is first.model
        assert registry.misses == 1 and registry.hits == 1
        assert second.hits == 1
        assert len(registry) == 1

    def test_different_knobs_build_separately(self):
        registry = ModelRegistry(capacity=4)
        a = registry.get(ModelSpec(script=SCRIPT))
        b = registry.get(ModelSpec(script=SCRIPT, fraction=0.2))
        assert a.model is not b.model
        assert registry.misses == 2

    def test_lru_eviction_skips_pinned_entries(self):
        registry = ModelRegistry(capacity=2)
        pinned = registry.get(ModelSpec(script=SCRIPT), pin=True)
        registry.get(ModelSpec(script=SCRIPT, fraction=0.2))
        registry.get(ModelSpec(script=SCRIPT, fraction=0.15))
        assert registry.evictions == 1
        assert len(registry) == 2
        assert pinned.key in registry  # oldest, but pinned -> survives

    def test_release_unpins_and_guards_underflow(self):
        registry = ModelRegistry(capacity=2)
        entry = registry.get(ModelSpec(script=SCRIPT), pin=True)
        registry.release(entry.key)
        assert entry.pins == 0
        with pytest.raises(GatewayError, match="released more times"):
            registry.release(entry.key)

    def test_warm_marks_entry(self):
        registry = ModelRegistry(capacity=2)
        entry = registry.warm(ModelSpec(script=SCRIPT))
        assert entry.warmed

    def test_capacity_validated(self):
        with pytest.raises(GatewayError):
            ModelRegistry(capacity=0)

    def test_stats_shape(self):
        registry = ModelRegistry(capacity=2)
        registry.get(ModelSpec(script=SCRIPT))
        stats = registry.stats()
        assert stats["resident"] == 1 and stats["misses"] == 1
        assert stats["models"][0]["name"] == "script"


class TestTokenBucket:
    def test_burst_then_refill_on_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=1.0, burst=2,
                             clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == pytest.approx(1.0)
        now[0] = 1.0
        assert bucket.try_acquire() == 0.0
        assert bucket.tokens == 0.0

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=10.0, burst=3,
                             clock=lambda: now[0])
        now[0] = 100.0
        assert bucket.tokens == 3.0

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate_per_s=0.0, burst=1)
        for _ in range(100):
            assert bucket.try_acquire() == 0.0

    def test_validation(self):
        with pytest.raises(GatewayError):
            TokenBucket(rate_per_s=-1.0, burst=1)
        with pytest.raises(GatewayError):
            TokenBucket(rate_per_s=1.0, burst=0)


class TestQuotaLedger:
    def test_charges_until_spent(self):
        ledger = QuotaLedger(quota=2)
        assert ledger.charge() and ledger.charge()
        assert not ledger.charge()
        assert ledger.used == 2 and ledger.remaining == 0
        assert ledger.exhausted()

    def test_unmetered(self):
        ledger = QuotaLedger(quota=None)
        for _ in range(10):
            assert ledger.charge()
        assert ledger.remaining is None and not ledger.exhausted()


class TestAdmissionController:
    def _controller(self, tenant):
        controller = AdmissionController()
        controller.register(tenant)
        return controller

    def test_deadline_shed_is_side_effect_free(self):
        tenant = Tenant(name="t", api_key="k", rate_per_s=1.0, burst=1,
                        quota=5)
        controller = self._controller(tenant)
        decision = controller.admit(tenant, estimated_wait_s=1.0,
                                    deadline_s=0.01)
        assert not decision.admitted
        assert decision.status == "shed" and decision.code == 503
        assert decision.retry_after_s == 1.0
        # Neither a token nor quota was spent on the shed request.
        assert controller.bucket("t").tokens == 1.0
        assert controller.ledger("t").used == 0

    def test_rate_limit_hints_retry(self):
        tenant = Tenant(name="t", api_key="k", rate_per_s=2.0, burst=1)
        controller = self._controller(tenant)
        assert controller.admit(tenant).admitted
        decision = controller.admit(tenant)
        assert decision.status == "rate_limited" and decision.code == 429
        assert decision.retry_after_s > 0

    def test_quota_exhaustion(self):
        tenant = Tenant(name="t", api_key="k", quota=1)
        controller = self._controller(tenant)
        assert controller.admit(tenant).admitted
        decision = controller.admit(tenant)
        assert decision.status == "quota_exhausted"
        assert decision.code == 429

    def test_unregistered_tenant_rejected(self):
        controller = AdmissionController()
        with pytest.raises(GatewayError, match="not registered"):
            controller.bucket("ghost")


class TestTenantTable:
    def test_register_generates_key(self):
        table = TenantTable()
        tenant = table.register("alice")
        assert len(tenant.api_key) == 32
        assert table.authenticate(tenant.api_key) is tenant
        assert table.by_name("alice") is tenant
        assert "alice" in table and len(table) == 1

    def test_duplicate_name_rejected(self):
        table = TenantTable()
        table.register("alice")
        with pytest.raises(GatewayError, match="already registered"):
            table.register("alice")

    def test_unknown_key_raises(self):
        with pytest.raises(AuthError, match="unknown API key"):
            TenantTable().authenticate("nope")

    def test_tenant_validation(self):
        with pytest.raises(GatewayError):
            Tenant(name="", api_key="k")
        with pytest.raises(GatewayError):
            Tenant(name="t", api_key="k", rate_per_s=-1)
        with pytest.raises(GatewayError):
            Tenant(name="t", api_key="k", burst=0)


class TestGateway:
    def test_tenants_share_one_compiled_model(self, gateway):
        gateway.register_tenant("alice", api_key="key-a")
        gateway.register_tenant("bob", api_key="key-b")
        gateway.deploy("alice/net", SPEC)
        gateway.deploy("bob/net", SPEC)
        # The acceptance criterion: same network, same knobs -> the
        # very same CompiledModel object behind both endpoints.
        assert gateway.model_for("alice/net") is gateway.model_for("bob/net")
        assert len(gateway.hosts()) == 1
        assert gateway.hosts()[0].deployments == 2
        gateway.undeploy("alice/net")
        gateway.undeploy("bob/net")
        assert gateway.hosts() == []

    def test_ok_response_and_accounting(self, gateway, registry):
        key = gateway.register_tenant("alice", api_key="key-a").api_key
        gateway.deploy("alice/net", SPEC)
        model = gateway.model_for("alice/net")
        inputs = model.random_requests(2, seed=3)
        async def scenario():
            return await asyncio.gather(
                gateway.infer(key, "alice/net", inputs[0]),
                gateway.infer(key, "alice/net", inputs[1]),
            )

        with gateway:
            responses = asyncio.run(scenario())
        assert all(r.ok and r.code == 200 for r in responses)
        assert all(r.output is not None for r in responses)
        assert gateway.metrics.counter("tenant.alice.ok").value == 2
        assert gateway.metrics.histogram(
            "tenant.alice.latency_s").count == 2

    def test_unknown_key_is_401(self, gateway):
        response = asyncio.run(gateway.infer("bogus", "x", np.zeros(8)))
        assert response.status == "unauthorized" and response.code == 401

    def test_unknown_endpoint_is_404(self, gateway):
        key = gateway.register_tenant("alice").api_key
        response = asyncio.run(gateway.infer(key, "nope", np.zeros(8)))
        assert response.status == "unknown_model" and response.code == 404

    def test_rate_limit_is_429(self, gateway):
        key = gateway.register_tenant(
            "slow", rate_per_s=0.001, burst=1).api_key
        gateway.deploy("slow/net", SPEC)
        model = gateway.model_for("slow/net")
        inputs = model.random_requests(2, seed=4)

        async def scenario():
            with gateway:
                first = await gateway.infer(key, "slow/net", inputs[0])
                second = await gateway.infer(key, "slow/net", inputs[1])
            return first, second

        first, second = asyncio.run(scenario())
        assert first.ok
        assert second.status == "rate_limited" and second.code == 429
        assert second.retry_after_s > 0

    def test_quota_is_429(self, gateway):
        key = gateway.register_tenant("metered", quota=1).api_key
        gateway.deploy("metered/net", SPEC)
        model = gateway.model_for("metered/net")
        inputs = model.random_requests(2, seed=5)

        async def scenario():
            with gateway:
                first = await gateway.infer(key, "metered/net", inputs[0])
                second = await gateway.infer(key, "metered/net", inputs[1])
            return first, second

        first, second = asyncio.run(scenario())
        assert first.ok
        assert second.status == "quota_exhausted" and second.code == 429

    def test_deadline_shed_is_503(self, gateway):
        key = gateway.register_tenant("hurried").api_key
        gateway.deploy("hurried/net", SPEC)
        host = gateway.deployment("hurried/net").host
        host.observe_service(10.0)  # pretend service takes 10s
        response = asyncio.run(gateway.infer(
            key, "hurried/net", np.zeros(8), deadline_s=0.001))
        assert response.status == "shed" and response.code == 503
        assert response.retry_after_s > 0
        assert "deadline" in response.error

    def test_full_queue_sheds_with_503(self, registry):
        gateway = Gateway(registry=registry, workers=1, max_batch_size=1,
                          max_queue_depth=1, batch_timeout_s=0.0)
        key = gateway.register_tenant("burst").api_key
        gateway.deploy("burst/net", SPEC)
        model = gateway.model_for("burst/net")
        inputs = model.random_requests(2, seed=6)

        async def scenario():
            # Gateway not started: the first request parks in the only
            # queue slot, the second finds the queue full.
            queued = asyncio.ensure_future(
                gateway.infer(key, "burst/net", inputs[0]))
            await asyncio.sleep(0.02)
            shed = await gateway.infer(key, "burst/net", inputs[1])
            gateway.start()
            served = await queued
            return served, shed

        try:
            served, shed = asyncio.run(scenario())
        finally:
            gateway.stop()
        assert served.ok
        assert shed.status == "shed" and shed.code == 503
        assert "full" in shed.error

    def test_overloaded_host_sheds_on_deadline(self, registry):
        """With every worker busy, requests wait in the host queue; its
        depth raises the service estimate until a request with a
        deadline is shed up front rather than queued to time out."""
        gateway = Gateway(registry=registry, workers=1, max_batch_size=2,
                          max_queue_depth=64, batch_timeout_s=0.0)
        key = gateway.register_tenant("crowd").api_key
        gateway.deploy("crowd/net", SPEC)
        host = gateway.deployment("crowd/net").host
        gate = threading.Event()
        host.server.model = _GatedModel(host.server.model, gate)
        host.observe_service(0.5)  # pretend one service takes 0.5s
        inputs = gateway.model_for("crowd/net").random_requests(1)[0]

        async def scenario():
            first = asyncio.ensure_future(gateway.infer(
                key, "crowd/net", inputs, deadline_s=2.0))
            for _ in range(5000):
                if host.server.model.entered.is_set():
                    break
                await asyncio.sleep(0.001)
            rest = [asyncio.ensure_future(gateway.infer(
                key, "crowd/net", inputs, deadline_s=2.0))
                for _ in range(20)]
            # Admission and enqueueing run before a request's first
            # await, so one yield submits (or sheds) all of them.
            await asyncio.sleep(0.05)
            gate.set()
            return [await first] + [await r for r in rest]

        try:
            with gateway:
                responses = asyncio.run(scenario())
        finally:
            gate.set()
        shed = [r for r in responses if r.status == "shed"]
        served = [r for r in responses if r.ok]
        # 0.5 * (1 + backlog / 2) exceeds the 2s deadline once 7
        # requests are queued behind the busy worker.
        assert len(served) == 1 + 7 and len(shed) == 20 - 7
        assert all(r.code == 503 and "deadline" in r.error for r in shed)

    def test_shed_threshold_scales_with_workers(self, registry):
        """Each worker drains up to a full batch per service time, so a
        host with more workers tolerates a deeper queue before its
        estimate passes a request's deadline."""
        def backlog_at_shed(workers: int) -> int:
            gateway = Gateway(registry=registry, workers=workers,
                              max_batch_size=2, max_queue_depth=64)
            gateway.deploy("scale/net", SPEC)
            host = gateway.deployment("scale/net").host
            host.observe_service(0.5)
            inputs = gateway.model_for("scale/net").random_requests(1)[0]
            # Never started: submitted requests stay queued.
            backlog = 0
            while host.service_estimate_s() <= 2.0:
                host.server.submit(inputs)
                backlog += 1
            return backlog

        # 0.5 * (1 + backlog / (workers * 2)) first exceeds 2.0 s at a
        # backlog of 7 with one worker and 49 with eight.
        assert backlog_at_shed(1) == 7
        assert backlog_at_shed(8) == 49

    def test_expired_deadline_is_504(self, registry):
        gateway = Gateway(registry=registry, workers=1,
                          batch_timeout_s=0.0)
        key = gateway.register_tenant("late").api_key
        gateway.deploy("late/net", SPEC)
        model = gateway.model_for("late/net")

        async def scenario():
            # Admitted (no service estimate yet), expires in the queue
            # because the gateway starts only after the deadline.
            queued = asyncio.ensure_future(gateway.infer(
                key, "late/net", model.random_requests(1)[0],
                deadline_s=0.005))
            await asyncio.sleep(0.05)
            gateway.start()
            return await queued

        try:
            response = asyncio.run(scenario())
        finally:
            gateway.stop()
        assert response.status == "timeout" and response.code == 504
        assert gateway.metrics.counter("tenant.late.timeout").value == 1

    def test_double_deploy_and_unknown_undeploy_rejected(self, gateway):
        gateway.register_tenant("alice")
        gateway.deploy("alice/net", SPEC)
        with pytest.raises(GatewayError, match="already deployed"):
            gateway.deploy("alice/net", SPEC)
        with pytest.raises(GatewayError, match="no endpoint"):
            gateway.undeploy("ghost")
        gateway.undeploy("alice/net")


class TestStreaming:
    def test_stream_drains_every_request(self, gateway):
        key = gateway.register_tenant("stream").api_key
        gateway.deploy("stream/net", SPEC)
        model = gateway.model_for("stream/net")
        inputs = model.random_requests(6, seed=7)

        async def scenario():
            return await consume(
                gateway,
                paced_requests(key, "stream/net", inputs),
                max_inflight=2)

        with gateway:
            responses = asyncio.run(scenario())
        assert len(responses) == 6
        assert all(r.ok for r in responses)

    def test_inflight_window_validated(self, gateway):
        async def scenario():
            stream = serve_stream(
                gateway, paced_requests("k", "m", []), max_inflight=0)
            return [r async for r in stream]

        with pytest.raises(GatewayError, match="max_inflight"):
            asyncio.run(scenario())

    def test_negative_rate_rejected(self):
        async def scenario():
            return [r async for r in
                    paced_requests("k", "m", [1], rate_per_s=-1.0)]

        with pytest.raises(GatewayError, match="rate_per_s"):
            asyncio.run(scenario())


class TestKpis:
    def test_report_covers_tenants_models_registry(self, gateway):
        key = gateway.register_tenant("kpi", quota=100).api_key
        gateway.deploy("kpi/net", SPEC)
        model = gateway.model_for("kpi/net")
        inputs = model.random_requests(4, seed=8)

        async def scenario():
            return await consume(
                gateway, paced_requests(key, "kpi/net", inputs))

        with gateway:
            asyncio.run(scenario())
            report = collect_kpis(gateway, window_s=2.0)
        tenant = report.tenants["kpi"]
        assert tenant["ok"] == 4 and tenant["requests"] == 4
        assert tenant["latency_p99_s"] >= tenant["latency_p50_s"] > 0
        assert tenant["requests_per_s"] == pytest.approx(2.0)
        assert tenant["quota_remaining"] == 96
        (model_kpis,) = report.models.values()
        assert model_kpis["requests_completed"] == 4
        assert model_kpis["queue_depth_high_water"] >= 0
        assert report.totals["ok"] == 4
        assert report.registry["resident"] >= 1
        text = report.render()
        assert "kpi" in text and "totals:" in text
        payload = report.to_dict()
        assert payload["tenants"]["kpi"]["ok"] == 4


class TestServingBench:
    def test_small_bench_accounts_every_request(self):
        report = run_serving_bench(
            ("mnist",), tenants=2, rates=(0.0,), requests=6,
            workers=2, max_batch_size=4, out="")
        assert report.dropped_without_response == 0
        (entry,) = report.sweep
        assert entry["offered"] == 12
        assert entry["ok"] + entry["shed"] + entry["rate_limited"] \
            + entry["timeout"] + entry["error"] == 12
        assert report.sequential["requests"] == 12
        assert report.speedup > 0
        # Both tenants served the same network through one build.
        assert report.registry["misses"] == 1
        assert report.registry["hits"] >= 1
        payload = report.to_json()
        assert '"schema": 1' in payload
