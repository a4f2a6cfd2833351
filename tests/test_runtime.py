"""Tests for the repro.runtime serving stack.

Covers the micro-batcher policy (flush on size or deadline, bounded
queue backpressure), the server lifecycle (deterministic batch
formation, structured timeouts, error responses, metrics counts) and
the session model (per-thread simulator state, bit-identical reuse).
"""

import json
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.errors import QueueFullError, ServingError
from repro.runtime import (
    CompiledModel,
    Counter,
    Gauge,
    Histogram,
    InferenceResponse,
    InferenceServer,
    MetricsRegistry,
    MicroBatcher,
    RequestTimeout,
)

SCRIPT = """
name: "runtime_net"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 16 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 4 } }
"""


@pytest.fixture(scope="module")
def model():
    return CompiledModel.build(SCRIPT, device="Z-7045", fraction=0.3)


class TestMicroBatcher:
    def test_flush_on_size(self):
        batcher = MicroBatcher(max_depth=16, max_batch_size=3,
                               batch_timeout_s=10.0)
        for item in range(5):
            batcher.put(item)
        assert batcher.next_batch() == [0, 1, 2]

    def test_drains_remainder_without_waiting_when_queued(self):
        batcher = MicroBatcher(max_depth=16, max_batch_size=3,
                               batch_timeout_s=0.01)
        for item in range(5):
            batcher.put(item)
        batcher.next_batch()
        assert batcher.next_batch() == [3, 4]

    def test_flush_on_deadline(self):
        batcher = MicroBatcher(max_depth=16, max_batch_size=8,
                               batch_timeout_s=0.01)
        batcher.put("only")
        assert batcher.next_batch() == ["only"]

    def test_put_returns_depth(self):
        batcher = MicroBatcher(max_depth=4, max_batch_size=2,
                               batch_timeout_s=0.0)
        assert batcher.put("a") == 1
        assert batcher.put("b") == 2

    def test_full_queue_raises(self):
        batcher = MicroBatcher(max_depth=2, max_batch_size=2,
                               batch_timeout_s=0.0)
        batcher.put("a")
        batcher.put("b")
        with pytest.raises(QueueFullError, match="full"):
            batcher.put("c")

    def test_closed_queue_rejects_and_drains(self):
        batcher = MicroBatcher(max_depth=4, max_batch_size=8,
                               batch_timeout_s=0.0)
        batcher.put("a")
        batcher.close()
        with pytest.raises(QueueFullError, match="closed"):
            batcher.put("b")
        assert batcher.next_batch() == ["a"]
        assert batcher.next_batch() == []

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(0, 1, 0.0)
        with pytest.raises(ValueError):
            MicroBatcher(1, 0, 0.0)
        with pytest.raises(ValueError):
            MicroBatcher(1, 1, -1.0)


class TestMetrics:
    def test_counter(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_stats(self):
        histogram = Histogram("latency")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0
        assert histogram.percentile(50) == 2.5

    def test_empty_histogram(self):
        histogram = Histogram("empty")
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0
        assert histogram.snapshot()["count"] == 0

    def test_registry_create_or_get(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_render_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("served").inc(3)
        registry.histogram("latency_s").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["served"] == 3
        assert snapshot["histograms"]["latency_s"]["count"] == 1
        # Gauge-free registries keep the pre-gauge snapshot schema.
        assert "gauges" not in snapshot
        text = registry.render()
        assert "served" in text and "latency_s" in text

    def test_gauge_tracks_level_and_high_water(self):
        gauge = Gauge("queue_depth")
        gauge.set(3)
        gauge.inc()
        gauge.inc(2)
        assert gauge.value == 6.0
        assert gauge.high_water == 6.0
        gauge.dec(5)
        assert gauge.value == 1.0
        assert gauge.high_water == 6.0
        gauge.set(0)
        assert gauge.snapshot() == {"value": 0.0, "high_water": 6.0}

    def test_gauge_in_registry(self):
        registry = MetricsRegistry()
        assert registry.gauge("g") is registry.gauge("g")
        registry.gauge("g").set(4)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["g"] == {"value": 4.0, "high_water": 4.0}
        assert "high-water" in registry.render()

    def test_histogram_stride_sample_stays_representative(self):
        """The percentile sample must cover the whole stream, not just
        its head: a head reservoir over the 0..9999 ramp would answer
        p50 with ~cap/2 instead of ~5000."""
        histogram = Histogram("ramp", cap=128)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert histogram.sum == sum(range(10_000))
        assert histogram.min == 0.0
        assert histogram.max == 9_999.0
        stride = histogram.sample_stride
        assert stride > 1 and stride & (stride - 1) == 0  # power of two
        # Kept samples are exactly observations 0, s, 2s, ... — the
        # deterministic lattice, so results are reproducible.
        assert histogram._samples == \
            [float(v) for v in range(0, 10_000, stride)]
        tolerance = 2.0 * stride
        assert abs(histogram.percentile(50) - 4999.5) <= tolerance
        assert abs(histogram.percentile(99) - 9900.0) <= tolerance
        snapshot = histogram.snapshot()
        assert abs(snapshot["p95"] - 9500.0) <= tolerance

    def test_histogram_exact_until_cap(self):
        histogram = Histogram("short", cap=128)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.sample_stride == 1
        assert histogram.percentile(50) == 49.5

    def test_histogram_cap_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", cap=1)
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)


class TestCompiledModel:
    def test_session_is_thread_local(self, model):
        main_session = model.session()
        assert model.session() is main_session
        other = {}

        def grab():
            other["session"] = model.session()

        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert other["session"] is not main_session

    def test_session_reuse_is_bit_identical(self, model):
        inputs = model.random_requests(1, seed=5)[0]
        fresh = api.simulate(model.artifacts, inputs)
        first = model.run(inputs)
        second = model.run(inputs)
        np.testing.assert_array_equal(first.output, fresh.output)
        np.testing.assert_array_equal(second.output, fresh.output)
        assert first.cycles == fresh.cycles == second.cycles

    def test_run_batch(self, model):
        stream = model.random_requests(3, seed=7)
        results = model.run_batch(stream)
        assert len(results) == 3
        for inputs, result in zip(stream, results):
            np.testing.assert_array_equal(
                result.output, api.simulate(model.artifacts, inputs).output)

    def test_from_zoo_names_the_model(self):
        compiled = CompiledModel.from_zoo("mnist")
        assert compiled.name == "mnist"
        assert compiled.input_shape == (1, 28, 28)


class TestInferenceServer:
    def test_deterministic_batch_formation(self, model):
        """8 pre-queued requests with max_batch_size=4 -> two batches."""
        server = InferenceServer(model, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.0)
        stream = model.random_requests(8, seed=1)
        pending = [server.submit(x) for x in stream]
        with server:
            responses = [p.result() for p in pending]
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [4] * 8
        assert server.metrics.counter("batches_formed").value == 2
        assert server.metrics.histogram("batch_size").max == 4

    def test_responses_bit_identical_to_facade(self, model):
        stream = model.random_requests(4, seed=2)
        with InferenceServer(model, workers=2, max_batch_size=2) as server:
            responses = [server.submit(x).result() for x in stream]
        for inputs, response in zip(stream, responses):
            expected = api.simulate(model.artifacts, inputs)
            np.testing.assert_array_equal(response.output, expected.output)
            assert response.cycles == expected.cycles
            assert response.energy_j == expected.energy.total_j

    def test_impossible_deadline_times_out(self, model):
        with InferenceServer(model, workers=1) as server:
            response = server.infer(model.random_requests(1)[0],
                                    timeout_s=0.0)
        assert isinstance(response, RequestTimeout)
        assert response.status == "timeout"
        assert not response.ok
        assert "deadline" in response.error
        assert server.metrics.counter("requests_timeout").value == 1
        assert server.metrics.counter("requests_completed").value == 0

    def test_queue_full_backpressure(self, model):
        server = InferenceServer(model, workers=1, max_queue_depth=2)
        stream = model.random_requests(3, seed=3)
        server.submit(stream[0])
        server.submit(stream[1])
        with pytest.raises(QueueFullError):
            server.submit(stream[2])
        server.stop()

    def test_submit_after_stop_rejected(self, model):
        server = InferenceServer(model, workers=1)
        with server:
            pass
        with pytest.raises(QueueFullError, match="closed"):
            server.submit(model.random_requests(1)[0])

    def test_bad_input_is_structured_error(self, model):
        with InferenceServer(model, workers=1) as server:
            response = server.infer(np.zeros(3))
        assert response.status == "error"
        assert not response.ok
        assert response.error
        assert server.metrics.counter("requests_error").value == 1

    def test_metrics_counts_add_up(self, model):
        stream = model.random_requests(6, seed=4)
        with InferenceServer(model, workers=2, max_batch_size=4) as server:
            responses = [p.result() for p in
                         [server.submit(x) for x in stream]]
        assert all(r.ok for r in responses)
        metrics = server.metrics
        assert metrics.counter("requests_submitted").value == 6
        assert metrics.counter("requests_completed").value == 6
        assert metrics.counter("requests_timeout").value == 0
        assert metrics.counter("requests_error").value == 0
        assert metrics.histogram("latency_s").count == 6
        assert metrics.histogram("queue_depth").count == 6
        total_batched = metrics.histogram("batch_size").sum
        assert total_batched == 6

    def test_result_wait_timeout_raises(self, model):
        server = InferenceServer(model, workers=1)
        pending = server.submit(model.random_requests(1)[0])
        with pytest.raises(ServingError, match="not completed"):
            pending.result(timeout=0.01)
        server.stop()

    def test_workers_must_be_positive(self, model):
        with pytest.raises(ServingError):
            InferenceServer(model, workers=0)

    def test_double_start_rejected(self, model):
        server = InferenceServer(model, workers=1)
        with server:
            with pytest.raises(ServingError, match="already started"):
                server.start()

    def test_response_defaults(self):
        response = InferenceResponse(request_id=1)
        assert response.ok
        timeout = RequestTimeout(request_id=2)
        assert timeout.status == "timeout"


def _fake_result():
    return SimpleNamespace(
        outputs={"__output__": np.zeros(4)},
        cycles=1, time_s=0.0,
        energy=SimpleNamespace(total_j=0.0),
    )


class _StubModel:
    """Duck-typed CompiledModel substitute for failure injection.

    With a ``gate``, every batch waits for the event before it runs, so
    a test can hold the workers busy; ``entered`` is set as the first
    batch arrives and ``batches`` records each batch's size.
    """

    def __init__(self, delay_s: float = 0.0,
                 session_error: Exception | None = None,
                 warm_error: Exception | None = None,
                 gate: threading.Event | None = None) -> None:
        self.delay_s = delay_s
        self.session_error = session_error
        self.warm_error = warm_error
        self.gate = gate
        self.entered = threading.Event()
        self.batches: list[int] = []

    def warm_session(self, functional: bool = True) -> None:
        if self.warm_error is not None:
            raise self.warm_error

    def session(self):
        if self.session_error is not None:
            raise self.session_error
        return self

    def run(self, inputs, functional: bool = True):
        if self.delay_s:
            time.sleep(self.delay_s)
        return _fake_result()

    def run_batch(self, batch, functional: bool = True):
        self.batches.append(len(batch))
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s)
        return [_fake_result() for _ in batch]


class TestInferenceServerFailurePaths:
    def test_queued_timeout_names_the_queue(self, model):
        """A request that expires before any worker picks it up is a
        'in queue' timeout."""
        with InferenceServer(model, workers=1) as server:
            response = server.infer(model.random_requests(1)[0],
                                    timeout_s=0.0)
        assert response.status == "timeout"
        assert "in queue" in response.error

    def test_inflight_timeout_names_the_flight(self):
        """A request whose deadline passes while the session is running
        it completes as an 'in flight' timeout, not a success."""
        server = InferenceServer(_StubModel(delay_s=0.05), workers=1,
                                 max_batch_size=1, batch_timeout_s=0.0)
        with server:
            response = server.infer(np.zeros(4), timeout_s=0.02)
        assert response.status == "timeout"
        assert "in flight" in response.error
        assert server.metrics.counter("requests_timeout").value == 1
        assert server.metrics.counter("requests_completed").value == 0

    def test_session_failure_completes_whole_batch(self):
        """Session construction raising inside _run_batch must still
        terminate every request in the batch — callers would otherwise
        block on result() forever."""
        server = InferenceServer(
            _StubModel(session_error=RuntimeError("no session for you")),
            workers=1, max_batch_size=4, batch_timeout_s=0.0)
        pending = [server.submit(np.zeros(4)) for _ in range(4)]
        with server:
            responses = [p.result(timeout=5.0) for p in pending]
        assert [r.status for r in responses] == ["error"] * 4
        assert all("no session for you" in r.error for r in responses)
        assert server.metrics.counter("requests_error").value == 4

    def test_stop_drains_inflight_requests(self, model):
        """stop() completes queued work rather than abandoning it."""
        server = InferenceServer(model, workers=2, max_batch_size=4,
                                 batch_timeout_s=0.0)
        stream = model.random_requests(6, seed=9)
        pending = [server.submit(x) for x in stream]
        server.start()
        server.stop()
        assert all(p.done() for p in pending)
        assert all(p.result().ok for p in pending)

    def test_on_complete_observer(self, model):
        """The completion callback fires exactly once per request, and
        a raising observer does not poison the worker."""
        seen: list[InferenceResponse] = []

        def broken(response: InferenceResponse) -> None:
            seen.append(response)
            raise RuntimeError("observer bug")

        with InferenceServer(model, workers=1, max_batch_size=1,
                             batch_timeout_s=0.0) as server:
            inputs = model.random_requests(2, seed=11)
            first = server.submit(inputs[0], on_complete=broken).result()
            second = server.infer(inputs[1])
        assert len(seen) == 1 and seen[0] is first
        assert first.ok and second.ok


class TestWorkerPull:
    """Workers pull their own batches: busy workers leave requests in
    the bounded queue, where the next free worker takes a full batch."""

    def test_queue_bound_holds_while_workers_are_busy(self):
        gate = threading.Event()
        stub = _StubModel(gate=gate)
        server = InferenceServer(stub, workers=1, max_batch_size=2,
                                 max_queue_depth=4, batch_timeout_s=1.0)
        try:
            with server:
                pending = [server.submit(np.zeros(4)) for _ in range(2)]
                # The worker holds its full batch; the queue is empty.
                assert stub.entered.wait(timeout=10)
                assert server.queue_depth() == 0
                accepted = 0
                with pytest.raises(QueueFullError, match="full"):
                    for _ in range(200):
                        pending.append(server.submit(np.zeros(4)))
                        accepted += 1
                # max_queue_depth waiting + workers * max_batch_size held.
                assert accepted == 4
                assert len(pending) == 4 + 1 * 2
                assert server.queue_depth() == 4
                gate.set()
        finally:
            gate.set()
        assert all(p.result(timeout=5).ok for p in pending)

    def test_batches_grow_under_backlog(self):
        gate = threading.Event()
        stub = _StubModel(gate=gate)
        server = InferenceServer(stub, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.0)
        try:
            with server:
                pending = [server.submit(np.zeros(4))]
                assert stub.entered.wait(timeout=10)
                # 2 * max_batch_size + 1 requests pile up behind the busy
                # worker instead of being split up as they arrive.
                pending += [server.submit(np.zeros(4)) for _ in range(9)]
                assert server.queue_depth() == 9
                gate.set()
                responses = [p.result(timeout=5) for p in pending]
        finally:
            gate.set()
        assert all(r.ok for r in responses)
        assert stub.batches == [1, 4, 4, 1]
        assert [r.batch_size for r in responses] == [1] + [4] * 8 + [1]
        sizes = server.metrics.histogram("batch_size")
        assert (sizes.count, sizes.sum, sizes.max) == (4, 10, 4)

    @pytest.mark.parametrize("name", ["mnist", "hopfield"])
    def test_solo_request_rides_the_plan(self, name, monkeypatch):
        """A batch of one goes through ``run_batch`` (the fused plan)
        and matches the per-sample reference bit for bit, each request
        from clean recurrent state."""
        from repro.sim.accel import AcceleratorSimulator
        from repro.sim.quantized import QuantizedExecutor

        def per_sample_run(*args, **kwargs):
            raise AssertionError("solo request took the per-sample path")

        zoo_model = CompiledModel.from_zoo(name)
        reference = QuantizedExecutor.from_program(
            zoo_model.artifacts.program, zoo_model.artifacts.weights)
        monkeypatch.setattr(AcceleratorSimulator, "run", per_sample_run)
        stream = zoo_model.random_requests(3, seed=21)
        with InferenceServer(zoo_model, workers=1, max_batch_size=4,
                             batch_timeout_s=0.0) as server:
            responses = [server.infer(x) for x in stream]
        assert [r.batch_size for r in responses] == [1, 1, 1]
        for inputs, response in zip(stream, responses):
            assert response.ok, response.error
            reference.reset_state()
            np.testing.assert_array_equal(response.output,
                                          reference.output(inputs))
        assert server.metrics.counter("batch_fallbacks").value == 0

    def test_malformed_input_falls_back_and_is_counted(self, model, caplog):
        stream = model.random_requests(3, seed=22)
        server = InferenceServer(model, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.0)
        pending = [server.submit(x) for x in stream[:2]]
        pending.append(server.submit(np.zeros(3)))
        pending.append(server.submit(stream[2]))
        with caplog.at_level("WARNING", logger="repro.runtime"):
            with server:
                responses = [p.result(timeout=10) for p in pending]
        assert [r.status for r in responses] == ["ok", "ok", "error", "ok"]
        assert all(r.batch_size == 4 for r in responses)
        assert server.metrics.counter("batch_fallbacks").value == 1
        warnings = [r for r in caplog.records if r.name == "repro.runtime"]
        assert len(warnings) == 1
        assert "one at a time" in warnings[0].getMessage()

    def test_many_workers_complete_every_request_once(self):
        """More workers than cores pulling from one queue under a short
        switch interval: every request completes exactly once and no
        batch exceeds the size limit."""
        completions: list[int] = []
        lock = threading.Lock()

        def record(response: InferenceResponse) -> None:
            with lock:
                completions.append(response.request_id)

        server = InferenceServer(_StubModel(delay_s=0.0005), workers=6,
                                 max_batch_size=3, max_queue_depth=400,
                                 batch_timeout_s=0.0005)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                submitters = [threading.Thread(target=lambda: [
                    server.submit(np.zeros(4), on_complete=record)
                    for _ in range(50)]) for _ in range(4)]
                for thread in submitters:
                    thread.start()
                for thread in submitters:
                    thread.join(timeout=30)
                assert not any(t.is_alive() for t in submitters)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(completions) == list(range(1, 201))
        assert server.metrics.counter("requests_completed").value == 200
        sizes = server.metrics.histogram("batch_size")
        assert sizes.sum == 200 and sizes.max <= 3

    def test_warm_failure_raises_from_start(self):
        server = InferenceServer(
            _StubModel(warm_error=RuntimeError("cannot warm")), workers=3)
        with pytest.raises(RuntimeError, match="cannot warm"):
            server.start()
        assert not any(t.name.startswith("repro-runtime-worker")
                       for t in threading.enumerate())


class TestBenchVerifier:
    def test_bench_report_records_static_verdict(self):
        from repro.runtime.bench import run_bench
        report = run_bench(script=SCRIPT, requests=4, workers=2,
                           max_batch_size=2, functional=False, out="")
        assert report.verifier["ok"] is True
        assert set(report.verifier["passes"]) == \
            {"lint", "ranges", "memory", "control"}
        for counts in report.verifier["passes"].values():
            assert counts["errors"] == 0
        payload = json.loads(report.to_json())
        assert payload["verifier"]["ok"] is True
        assert "static verifier: PASS" in report.render()
