"""The one cache -> patch -> cold plan ladder behind every plan reuser.

Each of the four callers — full-graph sessions, elastic handoffs,
per-batch sampling and serving deployments — is driven through every
rung it can reach, and every plan must come from exactly one
:meth:`PlanResolver.resolve` call.
"""

import json

import numpy as np
import pytest

from repro.api import DGCLSession
from repro.autotune import CacheKey, PlanCache
from repro.autotune.resolver import PlanResolver
from repro.elastic import ElasticController
from repro.gnn import build_gcn
from repro.graph.generators import rmat
from repro.partition import partition
from repro.sampling import BatchPlanner, NeighborSampler, SeedLoader
from repro.serve import ServeSession, TenantSpec
from repro.topology import dgx1, topology_for_gpu_count


def _graph():
    return rmat(150, 900, seed=13)


def _moved(assignment, num_devices, seed, count=10):
    moved = assignment.copy()
    idx = np.random.default_rng(seed).choice(moved.size, count, replace=False)
    moved[idx] = (moved[idx] + 1) % num_devices
    return moved


def _batches():
    graph = rmat(200, 1400, seed=4)
    loader = SeedLoader(graph, batch_size=32, seed=1)
    sampler = NeighborSampler(graph, (4, 4), seed=2)
    batches = [sampler.sample(s, i) for i, s in enumerate(loader.batches(0))]
    return graph, partition(graph, 4, seed=0).assignment, batches


def _serve_session(cache):
    return ServeSession(
        _graph(), topology_for_gpu_count(4), [TenantSpec("a", slo=1e-3)],
        plan_cache=cache,
    )


# ----------------------------------------------------------------------
# One scenario per caller: returns the plan sources, one per resolution.
def api_sources(tmp_path):
    graph, cache = _graph(), PlanCache(tmp_path)
    session = DGCLSession(dgx1(), plan_cache=cache)
    sources = [session.build_comm_info(graph).plan_source]
    sources.append(session.build_comm_info(graph).plan_source)
    base = session.relation.assignment
    sources.append(session.build_comm_info(
        graph, assignment=_moved(base, 8, seed=3)
    ).plan_source)
    # A donor that promised an impossibly cheap plan: the patch
    # regresses past the cost guard and SPST replans from scratch.
    for path in tmp_path.glob("plan-*.json"):
        doc = json.loads(path.read_text())
        doc["meta"]["cost_units"] = 1e-12
        path.write_text(json.dumps(doc))
    sources.append(session.build_comm_info(
        graph, assignment=_moved(base, 8, seed=4)
    ).plan_source)
    return sources


def elastic_sources(tmp_path):
    graph = rmat(200, 1400, seed=4)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((graph.num_vertices, 6)).astype(np.float32)
    labels = rng.integers(0, 4, graph.num_vertices)
    trainer = ElasticController(
        graph, dgx1(), build_gcn(6, 8, 4, seed=7), features, labels
    )
    sources = [trainer.plan_source]
    trainer.shrink([6, 7])
    trainer.grow([6, 7])
    trainer.shrink([7])
    return sources + [t.plan_source for t in trainer.transitions]


def sampling_sources(tmp_path):
    graph, assignment, batches = _batches()
    cache = PlanCache(tmp_path)
    topology = topology_for_gpu_count(4)
    planner = BatchPlanner(graph, assignment, topology, plan_cache=cache)
    sources = [planner.plan_batch(b).plan_source for b in batches[:2]]
    planner._donor["meta"]["cost_units"] = 1e-12  # force the cost guard
    sources.append(planner.plan_batch(batches[2]).plan_source)
    replay = BatchPlanner(graph, assignment, topology, plan_cache=cache)
    sources.append(replay.plan_batch(batches[0]).plan_source)
    return sources


def serve_sources(tmp_path):
    cache = PlanCache(tmp_path)
    return [_serve_session(cache).plan_cache_source for _ in range(2)]


LADDERS = {
    "api": (api_sources, ["planned", "cache", "patched", "replanned"]),
    "elastic": (elastic_sources, ["planned", "replanned", "memo", "patched"]),
    "sampling": (sampling_sources, ["planned", "patched", "replanned", "cache"]),
    "serve": (serve_sources, ["planned", "cache"]),
}


@pytest.mark.parametrize("caller", sorted(LADDERS))
def test_every_rung_resolves_once(caller, tmp_path, monkeypatch):
    scenario, expected = LADDERS[caller]
    calls = []
    resolve = PlanResolver.resolve

    def counted(self, *args, **kwargs):
        calls.append(caller)
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(PlanResolver, "resolve", counted)
    assert scenario(tmp_path) == expected
    assert len(calls) == len(expected)


# ----------------------------------------------------------------------
def _corrupt_all(directory):
    for path in directory.glob("plan-*.json"):
        path.write_text("{not json")


def api_replay(cache):
    return DGCLSession(dgx1(), plan_cache=cache).build_comm_info(
        _graph()
    ).plan_source


def sampling_replay(cache):
    graph, assignment, batches = _batches()
    planner = BatchPlanner(graph, assignment, topology_for_gpu_count(4),
                           plan_cache=cache)
    return planner.plan_batch(batches[0]).plan_source


def serve_replay(cache):
    return _serve_session(cache).plan_cache_source


@pytest.mark.parametrize("replay", [api_replay, sampling_replay, serve_replay],
                         ids=["api", "sampling", "serve"])
def test_corrupt_disk_entry_is_a_miss(replay, tmp_path):
    replay(PlanCache(tmp_path))
    _corrupt_all(tmp_path)
    cache = PlanCache(tmp_path)
    assert replay(cache) == "planned"
    assert cache.stats.invalidations == 1
    assert cache.stats.stores == 1
    assert replay(PlanCache(tmp_path)) == "cache"  # the rewrite is good


def test_memory_cache_evicts_least_recently_used():
    cache = PlanCache(None)
    cache.MEMORY_ENTRIES = 2
    topology = dgx1()
    keys = [CacheKey(f"g{i}", "p", "t", "c") for i in range(3)]
    plans = [object() for _ in keys]
    cache.put(keys[0], plans[0])
    cache.put(keys[1], plans[1])
    assert cache.get(keys[0], topology) is plans[0]  # now most recent
    cache.put(keys[2], plans[2])
    assert len(cache) == 2
    assert cache.get(keys[1], topology) is None  # evicted first
    assert cache.get(keys[0], topology) is plans[0]
    assert cache.get(keys[2], topology) is plans[2]
    assert cache.stats.hits == 3 and cache.stats.misses == 1
    assert cache.find_sibling(keys[0]) is None
