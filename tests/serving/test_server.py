"""ServingApp end to end: routes, cache warm path, coalescing, HTTP wire.

The acceptance path for the serving subsystem lives here:

* a warm ``/select`` with an identical fingerprint returns bit-for-bit
  the same bandwidth while skipping the sweep (verified via the
  cache-hit counter and the ``cache_hit`` response flag);
* concurrent ``/predict`` requests are observably coalesced (batch
  occupancy > 1).

Most tests drive :meth:`ServingApp.handle` directly (pure async, no
sockets); ``TestWireProtocol`` exercises the real TCP path on an
OS-assigned port.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np
import pytest

from repro.serving import SchedulerConfig, ServingApp, ServingConfig, run_server
from tests.regression.test_nadaraya_watson import dense_nw


def make_app(**overrides: Any) -> ServingApp:
    defaults: dict[str, Any] = {
        "port": 0,
        "predict": SchedulerConfig(max_batch_size=8, max_wait_ms=25.0),
        "select": SchedulerConfig(max_batch_size=4, max_wait_ms=5.0),
    }
    defaults.update(overrides)
    return ServingApp(ServingConfig(**defaults))


def sample(n: int = 60, seed: int = 3) -> tuple[list[float], list[float]]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = 0.5 * x + 10.0 * x**2 + rng.normal(0.0, 0.1, n)
    return x.tolist(), y.tolist()


async def started(app: ServingApp) -> ServingApp:
    app.startup()
    return app


class TestRoutes:
    def test_healthz(self):
        async def main():
            app = await started(make_app())
            status, payload = await app.handle("GET", "/healthz", None)
            await app.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == []

    def test_unknown_route_is_400_with_catalog(self):
        async def main():
            app = await started(make_app())
            status, payload = await app.handle("GET", "/nope", None)
            await app.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 400
        assert "/select" in payload["error"]

    def test_unknown_model_is_404(self):
        async def main():
            app = await started(make_app())
            status, payload = await app.handle(
                "POST", "/predict", {"model": "ghost", "at": [0.5]}
            )
            await app.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 404
        assert payload["code"] == "REPRO_REGISTRY"

    def test_invalid_body_is_400(self):
        async def main():
            app = await started(make_app())
            status, payload = await app.handle(
                "POST", "/select", {"x": [1.0], "y": []}
            )
            await app.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 400
        assert payload["code"] == "REPRO_VALIDATION"

    def test_5xx_counter_stays_zero_on_client_errors(self):
        async def main():
            app = await started(make_app())
            await app.handle("POST", "/predict", {"model": "ghost", "at": [1]})
            await app.handle("POST", "/select", {"x": [1.0], "y": []})
            snap = app.metrics.snapshot()
            await app.shutdown()
            return snap

        snap = asyncio.run(main())
        assert snap["http_errors_total"] == 0

    @pytest.mark.parametrize(
        "backend",
        ["nope", "compiled", "blocked-compiled", "multicore", "blocked", "distributed"],
    )
    def test_unknown_backend_is_400(self, backend):
        # The server runs selections resiliently by default; an unknown
        # name must still be refused, not degraded to numpy.
        async def main():
            app = await started(make_app())
            x, y = sample()
            status, payload = await app.handle(
                "POST", "/select", {"x": x, "y": y, "backend": backend}
            )
            snap = app.metrics.snapshot()
            await app.shutdown()
            return status, payload, snap

        status, payload, snap = asyncio.run(main())
        assert status == 400
        assert payload["code"] == "REPRO_BACKEND"
        assert backend in payload["error"]
        assert snap["http_errors_total"] == 0

    @pytest.mark.parametrize("value", ["abc", None, [3]])
    def test_non_integer_n_bandwidths_is_400(self, value):
        async def main():
            app = await started(make_app())
            x, y = sample()
            status, payload = await app.handle(
                "POST", "/select", {"x": x, "y": y, "n_bandwidths": value}
            )
            snap = app.metrics.snapshot()
            await app.shutdown()
            return status, payload, snap

        status, payload, snap = asyncio.run(main())
        assert status == 400
        assert payload["code"] == "REPRO_VALIDATION"
        assert "n_bandwidths" in payload["error"]
        assert snap["http_errors_total"] == 0


class TestSelectCachePath:
    def test_warm_select_is_bitforbit_and_skips_the_sweep(self):
        """Acceptance: identical fingerprint -> same bits, no recompute."""
        x, y = sample()
        body = {"x": x, "y": y, "n_bandwidths": 10}

        async def main():
            app = await started(make_app())
            s1, cold = await app.handle("POST", "/select", dict(body))
            s2, warm = await app.handle("POST", "/select", dict(body))
            snap = app.metrics.snapshot()
            await app.shutdown()
            return (s1, cold), (s2, warm), snap

        (s1, cold), (s2, warm), snap = asyncio.run(main())
        assert s1 == s2 == 200
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True
        # Bit-for-bit: the bandwidth and the whole CV curve are identical.
        assert warm["result"]["bandwidth"] == cold["result"]["bandwidth"]
        assert warm["result"]["score"] == cold["result"]["score"]
        assert warm["result"]["scores"] == cold["result"]["scores"]
        # The sweep was skipped: the counter saw one miss, one hit.
        assert snap["select_cache_misses_total"] == 1
        assert snap["select_cache_hits_total"] == 1

    def test_different_data_is_a_miss(self):
        x, y = sample(seed=3)
        x2, y2 = sample(seed=4)

        async def main():
            app = await started(make_app())
            await app.handle(
                "POST", "/select", {"x": x, "y": y, "n_bandwidths": 10}
            )
            _, second = await app.handle(
                "POST", "/select", {"x": x2, "y": y2, "n_bandwidths": 10}
            )
            await app.shutdown()
            return second

        second = asyncio.run(main())
        assert second["cache_hit"] is False

    def test_select_register_enables_predict(self):
        x, y = sample()

        async def main():
            app = await started(make_app())
            await app.handle(
                "POST",
                "/select",
                {"x": x, "y": y, "n_bandwidths": 10, "register": "m"},
            )
            status, payload = await app.handle(
                "POST", "/predict", {"model": "m", "at": [0.25, 0.75]}
            )
            await app.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 200
        assert len(payload["estimates"]) == 2
        assert all(isinstance(v, float) for v in payload["estimates"])

    def test_predict_sends_null_for_an_empty_window(self):
        x, y = sample()
        at = [0.25, 0.5, 50.0, 0.75]  # nothing lies within h of 50

        async def main():
            app = await started(make_app())
            _, selected = await app.handle(
                "POST",
                "/select",
                {"x": x, "y": y, "n_bandwidths": 10, "register": "m"},
            )
            status, payload = await app.handle(
                "POST", "/predict", {"model": "m", "at": at}
            )
            await app.shutdown()
            return selected["result"], status, payload

        result, status, payload = asyncio.run(main())
        assert status == 200
        text = json.dumps(payload["estimates"], allow_nan=False)
        got = json.loads(text)
        want, valid = dense_nw(x, y, at, result["bandwidth"], result["kernel"])
        assert valid.tolist() == [True, True, False, True]
        assert got[2] is None
        np.testing.assert_allclose(
            [got[i] for i in (0, 1, 3)], want[valid], rtol=1e-12
        )


class TestSelectResponses:
    def test_warm_responses_do_not_grow_with_uptime(self):
        # The server traces every request into one ring; a response must
        # not carry that ring, or each hit would be larger than the last.
        x, y = sample()
        body = {"x": x, "y": y, "n_bandwidths": 10}

        async def main():
            app = await started(make_app())
            await app.handle("POST", "/select", dict(body))
            hits = [await app.handle("POST", "/select", dict(body)) for _ in range(2)]
            spans = len(app.tracer.to_payload()["spans"])
            await app.shutdown()
            return hits, spans

        hits, spans = asyncio.run(main())
        assert spans > 0  # the ambient tracer still records for /metrics
        sizes = [len(json.dumps(payload)) for _, payload in hits]
        assert all(payload["cache_hit"] for _, payload in hits)
        assert sizes[0] == sizes[1]
        for _, payload in hits:
            assert "trace" not in payload["result"]["diagnostics"]

    def test_boundary_optima_are_counted_cold_and_warm(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 60)
        # Noise-free linear y: LOO-CV prefers the least smoothing, so the
        # optimum sits on the grid's lower edge.
        edge = {"x": x.tolist(), "y": (2.0 * x + 1.0).tolist(), "n_bandwidths": 50}
        xi, yi = sample()
        interior = {"x": xi, "y": yi, "n_bandwidths": 50}

        async def main():
            app = await started(make_app())
            replies = [
                await app.handle("POST", "/select", dict(edge)),
                await app.handle("POST", "/select", dict(edge)),
                await app.handle("POST", "/select", dict(interior)),
            ]
            snap = app.metrics.snapshot()
            text = app.metrics_text()
            await app.shutdown()
            return replies, snap, text

        replies, snap, text = asyncio.run(main())
        flags = [p["result"]["diagnostics"]["boundary_minimum"] for _, p in replies]
        assert flags == [True, True, False]
        assert [p["cache_hit"] for _, p in replies] == [False, True, False]
        assert snap["select_boundary_total"] == 2
        assert "repro_select_boundary_total 2" in text


class TestPredictCoalescing:
    def test_concurrent_predicts_batch_together(self):
        """Acceptance: concurrent /predict coalesce (occupancy > 1)."""
        x, y = sample()

        async def main():
            app = await started(make_app())
            await app.handle(
                "POST",
                "/select",
                {"x": x, "y": y, "n_bandwidths": 10, "register": "m"},
            )
            results = await asyncio.gather(*[
                app.handle(
                    "POST",
                    "/predict",
                    {"model": "m", "at": [0.1 * (i + 1)]},
                )
                for i in range(6)
            ])
            snap = app.metrics.snapshot()
            await app.shutdown()
            return results, snap

        results, snap = asyncio.run(main())
        assert all(status == 200 for status, _ in results)
        occupancy = snap["predict_batch_occupancy"]
        assert occupancy["max"] > 1.0
        # Coalesced answers must equal what the model computes alone.
        estimates = [payload["estimates"][0] for _, payload in results]
        assert len(set(map(type, estimates))) == 1

    def test_fit_endpoint(self):
        x, y = sample()

        async def main():
            app = await started(make_app())
            status, payload = await app.handle(
                "POST", "/fit", {"name": "f", "x": x, "y": y, "n_bandwidths": 8}
            )
            await app.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["model"]["name"] == "f"
        assert payload["model"]["bandwidth"] > 0


class TestWireProtocol:
    """Real sockets on an OS-assigned port."""

    def test_http_roundtrip(self):
        x, y = sample(40)
        clients = ThreadPoolExecutor(max_workers=2)

        def request(base: str, method: str, path: str, body=None):
            data = json.dumps(body).encode() if body is not None else None
            req = urllib.request.Request(base + path, data=data, method=method)
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    raw = resp.read()
                    if resp.headers.get_content_type() == "application/json":
                        return resp.status, json.loads(raw)
                    return resp.status, raw.decode()
            except urllib.error.HTTPError as err:
                return err.code, json.loads(err.read())

        async def main():
            app = make_app()
            loop = asyncio.get_running_loop()
            ready: asyncio.Future = loop.create_future()
            stop = asyncio.Event()
            server = loop.create_task(
                run_server(app, ready=ready, shutdown_trigger=stop)
            )
            host, port = await ready
            base = f"http://{host}:{port}"
            run = lambda *a: loop.run_in_executor(clients, request, base, *a)  # noqa: E731

            health = await run("GET", "/healthz")
            body = {"x": x, "y": y, "n_bandwidths": 8, "register": "m"}
            cold = await run("POST", "/select", body)
            warm = await run("POST", "/select", body)
            predict = await run("POST", "/predict", {"model": "m", "at": [0.5]})
            metrics = await run("GET", "/metrics")
            missing = await run("POST", "/predict", {"model": "no", "at": [1]})
            stop.set()
            await server
            return health, cold, warm, predict, metrics, missing

        health, cold, warm, predict, metrics, missing = asyncio.run(main())
        clients.shutdown()
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert cold[0] == warm[0] == 200
        assert cold[1]["cache_hit"] is False and warm[1]["cache_hit"] is True
        assert warm[1]["result"]["bandwidth"] == cold[1]["result"]["bandwidth"]
        assert predict[0] == 200
        assert missing[0] == 404
        assert "repro_cache_hit_rate" in metrics[1]
        assert "repro_select_cache_hits_total 1" in metrics[1]

    def test_malformed_json_is_400(self):
        async def main():
            app = make_app()
            loop = asyncio.get_running_loop()
            ready: asyncio.Future = loop.create_future()
            stop = asyncio.Event()
            server = loop.create_task(
                run_server(app, ready=ready, shutdown_trigger=stop)
            )
            host, port = await ready

            def bad_request():
                req = urllib.request.Request(
                    f"http://{host}:{port}/select",
                    data=b"not json",
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(req, timeout=30):
                        return 200
                except urllib.error.HTTPError as err:
                    return err.code

            with ThreadPoolExecutor(max_workers=1) as pool:
                status = await loop.run_in_executor(pool, bad_request)
            stop.set()
            await server
            return status

        assert asyncio.run(main()) == 400


class TestOverload:
    def test_queue_overflow_maps_to_429(self):
        x, y = sample()

        async def main():
            app = await started(
                make_app(
                    predict=SchedulerConfig(
                        max_batch_size=1, max_wait_ms=0.0, max_queue=1
                    )
                )
            )
            await app.handle(
                "POST",
                "/select",
                {"x": x, "y": y, "n_bandwidths": 8, "register": "m"},
            )
            # Flood faster than the single-slot queue can drain.
            results = await asyncio.gather(*[
                app.handle("POST", "/predict", {"model": "m", "at": [0.5]})
                for _ in range(30)
            ])
            await app.shutdown()
            return results

        results = asyncio.run(main())
        statuses = {status for status, _ in results}
        assert statuses <= {200, 429}
        rejected = [p for s, p in results if s == 429]
        if rejected:  # under load at least the code is right
            assert all(p["code"] == "REPRO_SERVE_OVERLOAD" for p in rejected)
