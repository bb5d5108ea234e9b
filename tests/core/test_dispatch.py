"""The unified estimate() dispatcher: specs, JSON round-trips, parity.

The parity classes pin the ISSUE 6 contract: for every engine row of the
ROADMAP table, ``estimate(spec)`` output is bit-identical to the direct
front-end call with the same arguments and seed.
"""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EstimationJobSpec,
    LongRunWalkEstimateSampler,
    WalkEstimateConfig,
    WalkEstimateSampler,
    design_from_spec,
    design_to_spec,
    estimate,
    long_run_walk_estimate_batch,
    long_run_walk_estimate_sharded,
    walk_estimate_batch,
    walk_estimate_sharded,
)
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.walks.parallel import ShardedWalkEngine
from repro.walks.transitions import (
    LazyWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)

DESIGN_SPECS = {
    "srw": "srw",
    "mhrw": {"name": "mhrw"},
    "lazy-mhrw": {"name": "lazy", "laziness": 0.4, "inner": "mhrw"},
    "maxdeg": {"name": "maxdeg", "max_degree": 40},
}


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(150, 4, seed=6).relabeled()


@pytest.fixture(scope="module")
def csr(hidden):
    return hidden.compile()


@pytest.fixture(scope="module")
def config():
    return WalkEstimateConfig(
        walk_length=5,
        crawl_hops=1,
        backward_repetitions=4,
        refine_repetitions=1,
        calibration_walks=5,
    )


#: A charged job exactly as ``EstimationJobSpec.to_dict()`` wrote it before
#: ``batch_backward`` and the engine's copy of ``kernel_backend`` were
#: retired: both keys appear in ``walk`` and ``engine``.
RETIRED_KEYS_SPEC = {
    "design": {"name": "srw"},
    "samples": 24,
    "start": 0,
    "segments": 1,
    "estimand": "degree",
    "error_target": None,
    "query_budget": None,
    "tenant": "default",
    "seed": 3,
    "walk": {
        "walk_length": None,
        "diameter_hint": 4,
        "crawl_hops": 1,
        "weighted_sampling": True,
        "batch_backward": False,
        "kernel_backend": "numpy",
        "epsilon": 0.2,
        "backward_repetitions": 12,
        "refine_repetitions": 4,
        "scale_percentile": 25.0,
        "calibration_walks": 15,
        "max_attempts_per_sample": 200,
    },
    "engine": {
        "backend": "charged",
        "long_run": False,
        "n_workers": None,
        "mp_context": "spawn",
        "batch_backward": False,
        "kernel_backend": "numpy",
        "slab_storage": "shm",
        "slab_dir": None,
    },
}


def batch_results_equal(a, b):
    return (
        np.array_equal(a.candidates, b.candidates)
        and np.array_equal(a.estimates, b.estimates)
        and np.array_equal(a.target_weights, b.target_weights)
        and np.array_equal(a.acceptance, b.acceptance)
        and np.array_equal(a.accepted, b.accepted)
        and a.forward_steps == b.forward_steps
        and a.backward_steps == b.backward_steps
    )


def sample_batches_equal(a, b):
    return (
        a.nodes == b.nodes
        and a.target_weights == b.target_weights
        and a.query_cost == b.query_cost
        and a.walk_steps == b.walk_steps
    )


class TestDesignSpecs:
    @pytest.mark.parametrize("spec", list(DESIGN_SPECS.values()), ids=DESIGN_SPECS)
    def test_round_trip(self, spec):
        design = design_from_spec(spec)
        canonical = design_to_spec(design)
        rebuilt = design_from_spec(canonical)
        assert design_to_spec(rebuilt) == canonical
        assert rebuilt.name == design.name

    def test_string_shorthand_matches_mapping(self):
        assert design_to_spec(design_from_spec("srw")) == {"name": "srw"}

    def test_nested_lazy(self):
        design = design_from_spec(
            {"name": "lazy", "inner": {"name": "lazy", "inner": "srw"}}
        )
        assert isinstance(design, LazyWalk)
        assert isinstance(design.inner, LazyWalk)
        assert isinstance(design.inner.inner, SimpleRandomWalk)

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown design"):
            design_from_spec("nbrw-ish")

    def test_unexpected_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unexpected keys"):
            design_from_spec({"name": "srw", "laziness": 0.5})

    def test_maxdeg_needs_bound(self):
        with pytest.raises(ConfigurationError, match="max_degree"):
            design_from_spec({"name": "maxdeg"})

    def test_lazy_needs_inner(self):
        with pytest.raises(ConfigurationError, match="inner"):
            design_from_spec({"name": "lazy"})

    def test_unspecable_design_rejected(self):
        class Odd(SimpleRandomWalk):
            pass

        with pytest.raises(ConfigurationError, match="no spec form"):
            design_to_spec(object())
        # Subclasses of specable designs still serialize by isinstance.
        assert design_to_spec(Odd()) == {"name": "srw"}


class TestEngineConfig:
    def test_round_trip(self):
        cfg = EngineConfig(backend="sharded", long_run=True, n_workers=2)
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            EngineConfig(backend="gpu")

    def test_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({"backend": "batch", "worker_count": 4})

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            EngineConfig(n_workers=0)


class TestJobSpec:
    def test_json_round_trip(self, config):
        spec = EstimationJobSpec(
            design={"name": "lazy", "laziness": 0.3, "inner": "srw"},
            samples=12,
            start=3,
            segments=2,
            error_target=0.5,
            query_budget=400,
            tenant="alice",
            seed=11,
            walk=config,
            engine=EngineConfig(backend="batch", long_run=True),
        )
        assert EstimationJobSpec.from_json(spec.to_json()) == spec
        assert EstimationJobSpec.from_dict(spec.to_dict()) == spec

    def test_design_canonicalized_at_construction(self):
        spec = EstimationJobSpec(design="srw")
        assert spec.design == {"name": "srw"}
        assert isinstance(spec.build_design(), SimpleRandomWalk)

    @pytest.mark.parametrize("batch_backward", [False, True])
    def test_retired_keys_read_away(self, batch_backward):
        data = {
            **RETIRED_KEYS_SPEC,
            "walk": {**RETIRED_KEYS_SPEC["walk"], "batch_backward": batch_backward},
            "engine": {**RETIRED_KEYS_SPEC["engine"], "batch_backward": batch_backward},
        }
        spec = EstimationJobSpec.from_dict(data)
        assert spec == EstimationJobSpec(
            design="srw",
            samples=24,
            seed=3,
            walk=WalkEstimateConfig(diameter_hint=4, crawl_hops=1),
            engine=EngineConfig(backend="charged"),
        )
        assert EstimationJobSpec.from_json(spec.to_json()) == spec

    def test_retired_engine_kernel_backend_other_than_numpy_raises(self):
        engine = {**RETIRED_KEYS_SPEC["engine"], "kernel_backend": "python"}
        with pytest.raises(ConfigurationError, match="walk.kernel_backend"):
            EngineConfig.from_dict(engine)
        with pytest.raises(ConfigurationError, match="walk.kernel_backend"):
            EstimationJobSpec.from_dict({**RETIRED_KEYS_SPEC, "engine": engine})

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("samples", 0, "samples"),
            ("segments", 0, "segments"),
            ("estimand", "pagerank", "estimand"),
            ("error_target", 0.0, "error_target"),
            ("query_budget", -1, "query_budget"),
            ("tenant", "", "tenant"),
        ],
    )
    def test_validation(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            EstimationJobSpec(**{field: value})

    def test_json_must_be_object(self):
        with pytest.raises(ConfigurationError, match="object"):
            EstimationJobSpec.from_json("[1, 2]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown EstimationJobSpec"):
            EstimationJobSpec.from_dict({"designs": "srw"})

    def test_with_overrides_revalidates(self):
        spec = EstimationJobSpec(design="srw", samples=5)
        assert spec.with_overrides(samples=9).samples == 9
        with pytest.raises(ConfigurationError, match="samples"):
            spec.with_overrides(samples=0)


class TestScalarParity:
    @pytest.mark.parametrize("name", list(DESIGN_SPECS), ids=list(DESIGN_SPECS))
    def test_scalar_matches_direct_sampler(self, name, hidden, config):
        spec = EstimationJobSpec(
            design=DESIGN_SPECS[name],
            samples=6,
            seed=21,
            walk=config,
            engine=EngineConfig(backend="scalar"),
        )
        via_dispatch = estimate(spec, api=SocialNetworkAPI(hidden))
        direct_api = SocialNetworkAPI(hidden)
        direct = WalkEstimateSampler(spec.build_design(), config).sample(
            direct_api, 0, 6, seed=21
        )
        assert sample_batches_equal(via_dispatch.raw, direct)
        assert via_dispatch.query_cost == direct.query_cost
        assert via_dispatch.to_sample_batch() is via_dispatch.raw

    @pytest.mark.parametrize("long_run", [False, True], ids=["restart", "long-run"])
    @pytest.mark.parametrize("name", list(DESIGN_SPECS), ids=list(DESIGN_SPECS))
    def test_charged_is_bit_identical_to_scalar(self, name, long_run, hidden, config):
        # ``charged`` is the scalar sampler under its older name: same
        # samples, same weights, same queries paid, same effort.
        results = {}
        for backend in ("scalar", "charged"):
            spec = EstimationJobSpec(
                design=DESIGN_SPECS[name],
                samples=6,
                seed=33,
                walk=config,
                engine=EngineConfig(backend=backend, long_run=long_run),
            )
            results[backend] = estimate(spec, api=SocialNetworkAPI(hidden))
        assert sample_batches_equal(results["scalar"].raw, results["charged"].raw)
        assert results["charged"].query_cost > 0

    def test_charged_matches_direct_scalar_sampler(self, hidden, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=6,
            seed=33,
            walk=config,
            engine=EngineConfig(backend="charged"),
        )
        via_dispatch = estimate(spec, api=SocialNetworkAPI(hidden))
        direct = WalkEstimateSampler(SimpleRandomWalk(), config).sample(
            SocialNetworkAPI(hidden), 0, 6, seed=33
        )
        assert sample_batches_equal(via_dispatch.raw, direct)
        assert via_dispatch.query_cost == direct.query_cost

    def test_scalar_long_run_matches_direct(self, hidden, config):
        spec = EstimationJobSpec(
            design="mhrw",
            samples=5,
            seed=9,
            walk=config,
            engine=EngineConfig(backend="scalar", long_run=True),
        )
        via_dispatch = estimate(spec, api=SocialNetworkAPI(hidden))
        direct = LongRunWalkEstimateSampler(
            MetropolisHastingsWalk(), config
        ).sample(SocialNetworkAPI(hidden), 0, 5, seed=9)
        assert sample_batches_equal(via_dispatch.raw, direct)


class TestBatchParity:
    @pytest.mark.parametrize("name", list(DESIGN_SPECS), ids=list(DESIGN_SPECS))
    def test_batch_matches_direct(self, name, csr, config):
        spec = EstimationJobSpec(
            design=DESIGN_SPECS[name],
            samples=25,
            seed=77,
            walk=config,
            engine=EngineConfig(backend="batch"),
        )
        via_dispatch = estimate(spec, graph=csr)
        direct = walk_estimate_batch(
            csr, spec.build_design(), 0, 25, config=config, seed=77
        )
        assert batch_results_equal(via_dispatch.raw, direct)
        assert np.array_equal(via_dispatch.nodes, direct.nodes)
        assert np.array_equal(via_dispatch.weights, direct.weights)
        assert via_dispatch.acceptance_rate == direct.acceptance_rate
        assert via_dispatch.query_cost == 0

    def test_long_run_batch_matches_direct(self, csr, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=8,
            segments=3,
            seed=5,
            walk=config,
            engine=EngineConfig(backend="batch", long_run=True),
        )
        via_dispatch = estimate(spec, graph=csr)
        direct = long_run_walk_estimate_batch(
            csr, SimpleRandomWalk(), 0, 8, 3, config=config, seed=5
        )
        assert batch_results_equal(via_dispatch.raw, direct)

    def test_plain_graph_accepted(self, hidden, config):
        spec = EstimationJobSpec(
            design="srw", samples=10, seed=4, walk=config,
            engine=EngineConfig(backend="batch"),
        )
        via_graph = estimate(spec, graph=hidden)
        via_csr = estimate(spec, graph=hidden.compile())
        assert batch_results_equal(via_graph.raw, via_csr.raw)


class TestShardedParity:
    @pytest.fixture(scope="class")
    def engine(self, csr):
        with ShardedWalkEngine(csr, n_workers=1, mp_context="fork") as eng:
            yield eng

    def test_sharded_matches_direct(self, engine, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=20,
            seed=13,
            walk=config,
            engine=EngineConfig(backend="sharded"),
        )
        via_dispatch = estimate(spec, engine=engine)
        direct = walk_estimate_sharded(
            engine, SimpleRandomWalk(), 0, 20, config=config, seed=13
        )
        assert batch_results_equal(via_dispatch.raw, direct)

    def test_sharded_long_run_matches_direct(self, engine, config):
        spec = EstimationJobSpec(
            design="mhrw",
            samples=6,
            segments=2,
            seed=13,
            walk=config,
            engine=EngineConfig(backend="sharded", long_run=True),
        )
        via_dispatch = estimate(spec, engine=engine)
        direct = long_run_walk_estimate_sharded(
            engine, MetropolisHastingsWalk(), 0, 6, 2, config=config, seed=13
        )
        assert batch_results_equal(via_dispatch.raw, direct)


class TestDispatchResources:
    def test_missing_api(self, config):
        spec = EstimationJobSpec(design="srw", engine=EngineConfig(backend="scalar"))
        with pytest.raises(ConfigurationError, match="api"):
            estimate(spec)

    def test_missing_graph(self):
        spec = EstimationJobSpec(design="srw", engine=EngineConfig(backend="batch"))
        with pytest.raises(ConfigurationError, match="graph"):
            estimate(spec)

    def test_missing_engine(self):
        spec = EstimationJobSpec(design="srw", engine=EngineConfig(backend="sharded"))
        with pytest.raises(ConfigurationError, match="engine"):
            estimate(spec)

    def test_seed_override_wins(self, csr, config):
        spec = EstimationJobSpec(
            design="srw", samples=10, seed=1, walk=config,
            engine=EngineConfig(backend="batch"),
        )
        overridden = estimate(spec, graph=csr, seed=99)
        direct = walk_estimate_batch(
            csr, SimpleRandomWalk(), 0, 10, config=config, seed=99
        )
        assert batch_results_equal(overridden.raw, direct)

    def test_rng_stream_accepted_as_seed(self, csr, config):
        spec = EstimationJobSpec(
            design="srw", samples=10, walk=config,
            engine=EngineConfig(backend="batch"),
        )
        one = estimate(spec, graph=csr, seed=np.random.default_rng(42))
        two = walk_estimate_batch(
            csr, SimpleRandomWalk(), 0, 10, config=config,
            seed=np.random.default_rng(42),
        )
        assert batch_results_equal(one.raw, two)

    def test_result_walk_steps_and_batch_view(self, csr, config):
        spec = EstimationJobSpec(
            design="srw", samples=10, seed=2, walk=config,
            engine=EngineConfig(backend="batch"),
        )
        result = estimate(spec, graph=csr)
        raw = result.raw
        assert result.walk_steps == raw.forward_steps + raw.backward_steps
        assert result.attempts == raw.accepted.size
        assert result.accepted == raw.nodes.size
        repacked = result.to_sample_batch()
        assert repacked.nodes == [int(n) for n in raw.nodes]
