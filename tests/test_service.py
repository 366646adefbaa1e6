"""The campaign service: cache, coalescing, partials, fairness, HTTP.

Most tests drive :class:`repro.service.ServiceApp` directly — it is the
whole server minus the sockets, and every handler returns ``(status,
document)``.  One class exercises the real ``ThreadingHTTPServer`` end
to end over localhost.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

from repro import campaigns
from repro.campaigns.checkpoint import CheckpointStore
from repro.service import ServiceApp, make_server, read_partial
from repro.service.http import TENANT_HEADER


def _spec(**overrides):
    kwargs = dict(distance=3, p=2e-2, samples=32, seed=5, batch_size=8)
    kwargs.update(overrides)
    return campaigns.MemorySpec(**kwargs)


def _body(spec) -> bytes:
    return campaigns.spec_to_json(spec).encode("utf-8")


def _wait(app, h, timeout=30.0):
    """Poll the status endpoint until the campaign settles."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, doc = app.status(h)
        if code in (200, 500):
            return code, doc
        time.sleep(0.01)
    raise AssertionError(f"campaign {h} did not settle in {timeout}s")


class Gated(campaigns.InlineExecutor):
    """Block each campaign until the test releases it."""

    def __init__(self, release, started=None):
        super().__init__(whole_request=True)
        self.release = release
        self.started = started

    def run_chunks(self, kernel, packing, tasks):
        if self.started is not None:
            self.started.set()
        assert self.release.wait(30)
        yield from super().run_chunks(kernel, packing, tasks)


class TestCacheAndCoalescing:
    def test_submit_compute_then_cache_hit(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            spec = _spec()
            code, doc = app.submit(_body(spec), "public")
            assert code == 202
            assert doc["status"] == "queued"
            assert not doc["cache_hit"] and not doc["coalesced"]
            h = doc["spec_hash"]
            assert doc["links"]["partial"] == f"/campaigns/{h}/partial"

            code, doc = _wait(app, h)
            assert code == 200
            assert doc["status"] == "complete"
            assert doc["result"]["counts"]["samples"] == 32
            assert doc["result"]["provenance"]["cache_hit"] is True

            # The second submission is a cache read, not a campaign.
            code, doc = app.submit(_body(spec), "public")
            assert code == 200
            assert doc["cache_hit"] is True
            assert doc["result"]["provenance"]["cache_hit"] is True
            assert app.scheduler.jobs_run == 1

            # The cached document matches a plain local run bit-for-bit.
            fresh = campaigns.run(spec)
            assert doc["result"]["estimates"] == json.loads(
                fresh.to_json())["estimates"]
        finally:
            app.close()

    def test_concurrent_duplicates_coalesce_to_one_compute(self, tmp_path):
        release, started = threading.Event(), threading.Event()
        app = ServiceApp(tmp_path, threads=2,
                         executor_factory=lambda: Gated(release, started))
        try:
            spec = _spec(seed=7)
            code1, doc1 = app.submit(_body(spec), "public")
            assert code1 == 202
            assert started.wait(30)  # the one compute is in flight
            code2, doc2 = app.submit(_body(spec), "other-tenant")
            assert code2 == 202
            assert doc2["coalesced"] is True
            assert doc2["submissions"] == 2
            release.set()
            code, doc = _wait(app, doc1["spec_hash"])
            assert code == 200
            assert app.scheduler.jobs_run == 1
        finally:
            release.set()
            app.close()

    def test_corrupt_result_record_recomputes(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            spec = _spec(seed=9)
            h = campaigns.spec_hash(spec)
            app.submit(_body(spec), "public")
            _wait(app, h)
            app.store.results.path(h).write_text("{ torn write")
            code, doc = app.submit(_body(spec), "public")
            assert code == 202  # a miss, never a 500
            code, doc = _wait(app, h)
            assert code == 200
            assert app.scheduler.jobs_run == 2
        finally:
            app.close()

    def test_version_mismatch_recomputes(self, tmp_path):
        app1 = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        spec = _spec(seed=11)
        h = campaigns.spec_hash(spec)
        try:
            app1.submit(_body(spec), "public")
            _wait(app1, h)
        finally:
            app1.close()
        # An upgraded (here: different-version) server must recompute.
        app2 = ServiceApp(tmp_path, version="0.0.0",
                          executor_factory=campaigns.InlineExecutor)
        try:
            code, doc = app2.submit(_body(spec), "public")
            assert code == 202
            code, doc = _wait(app2, h)
            assert code == 200
            assert doc["version"] == "0.0.0"
        finally:
            app2.close()
        assert len(list(app2.store.results.directory.glob("*.json"))) == 2

    def test_failed_campaign_surfaces_then_retries(self, tmp_path):
        class Exploding(campaigns.Executor):
            def run_chunks(self, kernel, packing, tasks):
                raise RuntimeError("kernel on fire")
                yield  # pragma: no cover

        explode = [True]
        app = ServiceApp(
            tmp_path,
            executor_factory=lambda: (Exploding() if explode[0]
                                      else campaigns.InlineExecutor()))
        try:
            spec = _spec(seed=13)
            h = campaigns.spec_hash(spec)
            app.submit(_body(spec), "public")
            code, doc = _wait(app, h)
            assert code == 500
            assert "kernel on fire" in doc["error"]
            assert app.scheduler.jobs_run == 0

            explode[0] = False  # resubmission clears the failure
            code, doc = app.submit(_body(spec), "public")
            assert code == 202 and not doc["coalesced"]
            code, doc = _wait(app, h)
            assert code == 200
        finally:
            app.close()


class TestValidation:
    def test_malformed_spec_is_400(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            for body in (b"not json", b'{"kind": "memory", "distance": 1}',
                         b'{"kind": "warp-drive"}'):
                code, doc = app.submit(body, "public")
                assert code == 400
                assert "error" in doc
        finally:
            app.close()

    def test_mistyped_spec_is_400(self, tmp_path):
        """A kind that is not a string, or a count that is not an
        integer, is a bad request — not a dropped connection or a
        campaign that fails later."""
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            doc = campaigns.spec_to_dict(_spec())
            for bad in ({"kind": ["memory"]}, {**doc, "distance": 5.5},
                        {**doc, "samples": 10.5}, {**doc, "seed": True}):
                code, body = app.submit(json.dumps(bad).encode(), "public")
                assert code == 400, (bad, body)
                assert "error" in body
        finally:
            app.close()

    def test_sweep_is_400(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            sweep = campaigns.Sweep(_spec(), axes={"distance": [3, 5]})
            code, doc = app.submit(_body(sweep), "public")
            assert code == 400
            assert "client-side" in doc["error"]
        finally:
            app.close()

    def test_retired_kind_is_400(self, tmp_path, retired_spec):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            code, doc = app.submit(json.dumps(retired_spec).encode(),
                                   "public")
            assert code == 400
            assert "'streaming'" in doc["error"]
        finally:
            app.close()

    def test_stored_retired_kind_is_still_served(self, tmp_path,
                                                 store_retired_record):
        """A valid current-version record of a kind the parser no longer
        knows is a correct result: served as 200, never a 500."""
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            h = store_retired_record(app.store.results.directory,
                                     app.version)
            code, doc = app.status(h)
            assert code == 200
            assert doc["result"]["kind"] == "streaming"
            assert doc["cache_hit"]
            code, doc = app.partial(h)
            assert code == 200
            assert doc["status"] == "complete"
        finally:
            app.close()

    def test_unknown_campaign_is_404(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            assert app.status("feedfacefeedface")[0] == 404
            assert app.partial("feedfacefeedface")[0] == 404
        finally:
            app.close()

    def test_job_completing_during_status_is_not_unknown(self, tmp_path):
        """The campaign finishes between ``status``'s two lookups: it
        must read complete, never 404 (a job leaves the registry only
        after its record is stored)."""
        release, started = threading.Event(), threading.Event()
        app = ServiceApp(tmp_path,
                         executor_factory=lambda: Gated(release, started))
        try:
            _, doc = app.submit(_body(_spec()), "public")
            assert started.wait(30)
            lookup = app.scheduler.job

            def completing_lookup(spec_hash):
                job = lookup(spec_hash)
                release.set()
                assert job.wait(30)
                return lookup(spec_hash)

            app.scheduler.job = completing_lookup
            code, doc = app.status(doc["spec_hash"])
            assert code == 200, doc
            assert doc["status"] == "complete"
        finally:
            app.close()


class TestPartials:
    def test_partial_streams_monotone_shots(self, tmp_path):
        permits = threading.Semaphore(0)

        class Stepped(campaigns.InlineExecutor):
            def __init__(self):
                super().__init__(whole_request=False)

            def run_chunks(self, kernel, packing, tasks):
                for item in super().run_chunks(kernel, packing, tasks):
                    assert permits.acquire(timeout=30)
                    yield item

        app = ServiceApp(tmp_path, executor_factory=Stepped)
        try:
            spec = _spec(samples=80, seed=19)  # 10 chunks of 8
            h = campaigns.spec_hash(spec)
            app.submit(_body(spec), "public")
            seen = []
            for _ in range(10):
                permits.release()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    code, doc = app.partial(h)
                    if code == 200 and doc["shots_done"] != \
                            (seen[-1] if seen else None):
                        break
                    time.sleep(0.01)
                seen.append(doc["shots_done"])
                assert doc["shots_requested"] == 80
                assert doc["batch_size"] == 8
                if doc["estimate"] is not None:
                    assert 0.0 <= doc["wilson_low"] <= doc["estimate"] \
                        <= doc["wilson_high"] <= 1.0
            assert seen == sorted(seen)  # appends only: monotone
            assert seen[-1] == 80
            code, doc = _wait(app, h)
            assert code == 200
            code, doc = app.partial(h)
            assert code == 200 and doc["status"] == "complete"
        finally:
            permits.release()
            app.close()

    def test_orphan_shard_reports_interrupted(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            # A shard with no job and no result: a server died mid-run.
            spec = _spec(seed=23)
            campaigns.run(spec, checkpoint=app.store.checkpoints.directory)
            code, doc = app.partial(campaigns.spec_hash(spec))
            assert code == 200
            assert doc["status"] == "interrupted"
            assert doc["shots_done"] == 32
        finally:
            app.close()

    def test_read_partial_tolerates_inflight_tail(self, tmp_path):
        spec = _spec(seed=29)
        campaigns.run(spec, checkpoint=tmp_path)
        path = CheckpointStore(tmp_path).shard(spec).path
        whole = read_partial(path)
        assert whole["chunks_done"] == 4 and whole["shots_done"] == 32
        # A torn append must hide only itself.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "chunk", "index": 99, "truncat')
        assert read_partial(path)["chunks_done"] == 4

    def test_read_partial_rejects_foreign_files(self, tmp_path):
        assert read_partial(tmp_path / "absent.jsonl") is None
        junk = tmp_path / "junk.jsonl"
        junk.write_text("not a shard\n")
        assert read_partial(junk) is None


class TestRefinementThroughService:
    def test_more_shots_resumes_the_cached_campaign(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        try:
            small, big = _spec(seed=31), _spec(seed=31, samples=64)
            app.submit(_body(small), "public")
            _wait(app, campaigns.spec_hash(small))

            code, doc = app.submit(_body(big), "public")
            assert code == 202  # different hash: a miss, not a hit
            code, doc = _wait(app, campaigns.spec_hash(big))
            assert code == 200
            prov = doc["result"]["provenance"]
            assert prov["resumed_chunks"] == 4  # all of the small run
            assert app.scheduler.jobs_run == 2
            fresh = json.loads(campaigns.run(big).to_json())
            assert doc["result"]["estimates"] == fresh["estimates"]
        finally:
            app.close()


class TestFairness:
    def test_round_robin_across_tenants(self, tmp_path):
        release, started = threading.Event(), threading.Event()
        order = []

        class Recording(Gated):
            def bind(self, spec, **kwargs):
                order.append(spec.seed)
                super().bind(spec, **kwargs)

        app = ServiceApp(tmp_path, threads=1,
                         executor_factory=lambda: Recording(release, started))
        try:
            # Tenant "a" floods the queue; "b" arrives after.  With the
            # first job blocked, dispatch order alternates tenants.
            specs = {seed: _spec(seed=seed) for seed in (101, 102, 103,
                                                         201, 202)}
            app.submit(_body(specs[101]), "a")
            assert started.wait(30)
            for seed in (102, 103):
                app.submit(_body(specs[seed]), "a")
            for seed in (201, 202):
                app.submit(_body(specs[seed]), "b")
            release.set()
            for seed, spec in specs.items():
                code, _ = _wait(app, campaigns.spec_hash(spec))
                assert code == 200
            assert order == [101, 102, 201, 103, 202]
        finally:
            release.set()
            app.close()


class TestHTTP:
    def _request(self, base, method, path, body=None, headers=None):
        req = urllib.request.Request(base + path, data=body, method=method,
                                     headers=headers or {})
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.load(resp)
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, json.load(exc)

    def test_keep_alive_responses_do_not_stall(self, tmp_path):
        """Sequential requests on one keep-alive connection are answered
        at once: no response waits on the client's delayed ACK."""
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        server = make_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_address[1],
                                          timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200 and json.load(resp)["status"] == "ok"
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            app.close()
        assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"

    def test_end_to_end_over_localhost(self, tmp_path):
        app = ServiceApp(tmp_path, executor_factory=campaigns.InlineExecutor)
        server = make_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            code, doc = self._request(base, "GET", "/healthz")
            assert code == 200 and doc["status"] == "ok"

            code, doc = self._request(base, "GET", "/no/such/route")
            assert code == 404
            code, doc = self._request(base, "POST", "/campaigns")
            assert code == 400  # no body

            spec = _spec(seed=37)
            code, doc = self._request(
                base, "POST", "/campaigns", _body(spec),
                {TENANT_HEADER: "suite"})
            assert code == 202 and doc["tenant"] == "suite"
            h = doc["spec_hash"]

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                code, doc = self._request(base, "GET", f"/campaigns/{h}")
                if code == 200:
                    break
                time.sleep(0.02)
            assert code == 200 and doc["result"]["counts"]["samples"] == 32

            code, doc = self._request(base, "POST", "/campaigns", _body(spec))
            assert code == 200 and doc["cache_hit"] is True

            code, doc = self._request(base, "GET",
                                      f"/campaigns/{h}/partial")
            assert code == 200 and doc["shots_done"] == 32
        finally:
            server.shutdown()
            server.server_close()
            app.close()
