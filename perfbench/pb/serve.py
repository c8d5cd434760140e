"""``serve-mixed``: an in-process scenario server under a warm/cold mix.

Set-up starts ``serve.ScenarioServer(store, workers=2)`` on a unix
socket and fills its cache with a 64-payload warm set.  Two closed-loop
``ServeClient``s then send three warm requests (cache hits) to each cold
one (a fresh-seed BFDN run that the pool executes and the store fsyncs).
One unit is a batch of 64 requests; the host probe runs between batches,
while nothing is in flight.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
from collections import deque
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.orchestrator import ResultStore, TreeSpec
from repro.scenario import ScenarioSpec
from repro.serve import ScenarioServer, ServeClient, default_payloads

from .checks import check_row
from .host import median, percentile
from .layers import TracedStore
from .workload import Op, Workload

WARM_KINDS = ("tree", "graph", "game", "async-tree")
WARM_SET = 64
GROUP = 4  # one cold request per three warm ones
BATCH = 64
CLIENTS = 2
FULL_N, TINY_N = 400, 60
K = 4
#: Cold seeds start here; warm seeds stay below ``seed * WARM_SET + WARM_SET``.
COLD_BASE = 10 ** 12


class Request(NamedTuple):
    index: int
    cold: bool
    #: Cold requests: the cold-seed counter; warm ones: the warm-set slot.
    slot: int


def warm_seeds(seed: int) -> range:
    """Seeds of the warm set (``default_payloads`` numbers them from a base)."""
    return range(seed * WARM_SET, seed * WARM_SET + WARM_SET)


def cold_seed(seed: int, slot: int) -> int:
    return COLD_BASE + seed * 10 ** 7 + slot


def requests(seed: int) -> Iterator[Request]:
    """The endless, seeded request sequence: in every group of four, one
    cold request at a random position and three draws from the warm set."""
    rng = random.Random(f"{seed}:serve-mixed")
    group = 0
    while True:
        cold_at = rng.randrange(GROUP)
        for position in range(GROUP):
            index = group * GROUP + position
            if position == cold_at:
                yield Request(index, True, group)
            else:
                yield Request(index, False, rng.randrange(WARM_SET))
        group += 1


def cold_payload(seed: int, slot: int, n: int) -> Dict[str, object]:
    s = cold_seed(seed, slot)
    spec = ScenarioSpec(
        kind="tree", algorithm="bfdn", substrate=TreeSpec.named("random", n, seed=s),
        k=K, seed=s, label=f"cold-{slot}",
    )
    return json.loads(spec.to_json())


class ServeMixed(Workload):
    name = "serve-mixed"
    pin_ops = 256

    def setup(self) -> None:
        if self.seed < 0:
            raise ValueError("serve-mixed needs a seed >= 0")
        self.n = TINY_N if self.tiny else FULL_N
        self.loop = asyncio.new_event_loop()
        self.server: Optional[ScenarioServer] = None
        self.clients: List[ServeClient] = []
        self.sequence = requests(self.seed)
        #: Requests per second of each batch (every batch has the same mix).
        self.batch_rates: List[float] = []
        self.samples: List[Dict[str, object]] = []
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        cache_dir = os.path.join(self.workdir, "cache")
        start = perf_counter()
        if self.tracer.enabled:
            self.store: ResultStore = TracedStore(cache_dir)
        else:
            self.store = ResultStore(cache_dir)
        self.store_open_s = perf_counter() - start
        self.server = ScenarioServer(self.store, workers=2)
        # A relative path keeps the socket name short whatever the checkout's path.
        socket_path = os.path.relpath(os.path.join(self.workdir, "serve.sock"))
        await self.server.start(socket_path=socket_path)
        for i in range(CLIENTS):
            client = ServeClient.unix(socket_path, name=f"client-{i}")
            self.clients.append(await client.connect())
        self.warm = default_payloads(
            kinds=WARM_KINDS, distinct=WARM_SET, n=self.n, k=K,
            base_seed=warm_seeds(self.seed).start,
        )
        # Fill the cache, then warm up with one cold and one warm request
        # per client (cold slots below 0 are never used by timed ops).
        fill = [(p, "fresh") for p in self.warm]
        fill += [(cold_payload(self.seed, -1 - i, self.n), "fresh") for i in range(CLIENTS)]
        fill += [(p, "cache") for p in self.warm[:CLIENTS]]
        pending = deque(fill)

        async def drain(client: ServeClient) -> None:
            while pending:
                payload, source = pending.popleft()
                reply = await client.run_scenario(payload)
                if not reply.get("ok") or reply.get("source") != source:
                    raise RuntimeError(f"set-up request failed: {reply.get('error') or reply}")

        await asyncio.gather(*(drain(c) for c in self.clients))
        self.executions_at_start = self.server.pool.executions
        if isinstance(self.store, TracedStore):
            self.store.get_s.clear()
            self.store.put_s.clear()

    def close(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is None:
            return

        async def stop() -> None:
            for client in self.clients:
                await client.close()
            if self.server is not None:
                await self.server.shutdown()
        try:
            loop.run_until_complete(stop())
        finally:
            loop.close()

    def run_unit(self, unit: int, probe: Callable[[], None]) -> None:
        batch = deque(next(self.sequence) for _ in range(BATCH))
        start = perf_counter()
        self.loop.run_until_complete(self._batch(batch))
        self.batch_rates.append(BATCH / (perf_counter() - start))
        self.probe_span(probe, lanes=CLIENTS)

    async def _batch(self, batch: deque) -> None:
        await asyncio.gather(
            *(self._client_loop(lane, c, batch) for lane, c in enumerate(self.clients))
        )

    async def _client_loop(self, lane: int, client: ServeClient, batch: deque) -> None:
        while batch:
            request = batch.popleft()
            payload = (cold_payload(self.seed, request.slot, self.n) if request.cold
                       else self.warm[request.slot])
            start = perf_counter()
            reply = await client.run_scenario(payload)
            end = perf_counter()
            self._record(lane, request, reply, start, end)

    def _record(self, lane: int, request: Request, reply: Dict, start: float, end: float) -> None:
        expected = "fresh" if request.cold else "cache"
        row = reply.get("row") if reply.get("ok") else None
        if not reply.get("ok"):
            error = f"{reply.get('status')}: {reply.get('error')}"
        elif reply.get("source") != expected:
            error = f"source {reply.get('source')!r}, expected {expected!r}"
        else:
            error = check_row(row)
        latency_ms = (end - start) * 1000.0
        server_ms = float(reply.get("latency_ms", 0.0))
        row = row or {}
        self.samples.append({
            "cold": request.cold, "source": reply.get("source", ""),
            "client_ms": latency_ms, "server_ms": server_ms,
            "engine_ms": float(row.get("elapsed", 0.0)) * 1000.0,
        })
        if self.tracer.enabled:
            span = self.tracer.add("serve.request", start, end, op=request.index, lane=lane,
                                   source=reply.get("source", ""))
            inner = min(server_ms / 1000.0, end - start)
            offset = start + (end - start - inner) / 2
            self.tracer.add("serve.server", offset, offset + inner, parent=span.id,
                            op=request.index, lane=lane)
        self.ops.append(Op(request.index, "cold" if request.cold else "warm", end - start,
                       int(row.get("rounds", 0)), int(row.get("wall_rounds", 0)), error))

    def _latencies(self, cold: bool, key: str = "client_ms") -> List[float]:
        return [s[key] for s in self.samples if s["cold"] == cold]

    def throughput(self) -> float:
        return median(self.batch_rates)

    def classes(self) -> Dict[str, float]:
        cold, warm = self._latencies(True), self._latencies(False)
        return {
            "req_per_s": median(self.batch_rates),
            "cold_p50_ms": percentile(cold, 50),
            "cold_p90_ms": percentile(cold, 90),
            "warm_p50_ms": percentile(warm, 50),
            "warm_p90_ms": percentile(warm, 90),
            "cold_n": len(cold),
            "warm_n": len(warm),
        }

    def check_totals(self) -> List[str]:
        """Run-level checks: every cold request, and only those, executed once."""
        executions = self.server.pool.executions - self.executions_at_start
        cold = len(self._latencies(True))
        if executions != cold:
            return [f"{executions} pool executions for {cold} cold requests"]
        return []

    def layers(self) -> Dict[str, float]:
        from .workload import store_layers

        out: Dict[str, float] = {}
        for source, cold in (("cache", False), ("fresh", True)):
            server = percentile(self._latencies(cold, "server_ms"), 50)
            out[f"serve.server_p50_ms.{source}"] = server
            out[f"serve.transport_ms.{source}"] = percentile(self._latencies(cold), 50) - server
        waits = [s["client_ms"] - s["engine_ms"] for s in self.samples if s["cold"]]
        out["serve.cold_wait_ms"] = percentile(waits, 50)
        out["serve.executions"] = self.server.pool.executions - self.executions_at_start
        ok = [s for s in self.samples if s["source"]]
        hits = sum(1 for s in ok if s["source"] in ("cache", "dedup"))
        out["serve.hit_ratio"] = hits / len(ok) if ok else 0.0
        store = self.store
        out.update(store_layers(getattr(store, "put_s", []), getattr(store, "get_s", []),
                                [self.store_open_s]))
        return out
