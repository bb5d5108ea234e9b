"""The benchmark's four closed-loop workloads.

Each workload has one caller that waits for every op to finish.  An op is
one ``repro.core.estimate()`` call in the ``we_*`` workloads and one
``SamplingService.step()`` epoch in the ``service_*`` workloads.  Inputs
are generated from the workload seed alone; the program only ever sees
the generated graph and job specs.

Runs are built from *units* of deterministic work that repeat until the
measuring time is used up: a cycle of distinct ops for ``we_*``, one whole
campaign for ``service_*``.  The exact meters (``queries_per_sample``,
``rel_error``, ``sim_s``) come from the first unit, so they repeat bit for
bit for a seed however many units a run fits; every later unit must
reproduce the first one's outputs exactly, which doubles as a determinism
check.  Service campaigns always run whole, because epoch cost changes over
a campaign (checkpoints grow) and a cut campaign would shift the
percentiles.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import repro.core as core
from repro import EngineConfig, EstimationJobSpec, SocialNetworkAPI, WalkEstimateConfig
from repro.crawl.clock import FakeClock, drive
from repro.datasets import google_plus_surrogate
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import ResilientAPI, RetryPolicy
from repro.service import SamplingService, ServiceConfig
from repro.service import checkpoint as checkpoint_module
from repro.service.jobs import JobState

WORKLOADS = ("we_batch", "we_charged", "service_campaign", "service_durable")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  :data:`FULL` is the benchmark; :data:`SMOKE` is the
    self-test's miniature of the same workloads."""

    batch_nodes: int = 20_000
    batch_walks: int = 4096
    batch_cycle: int = 32
    batch_group: int = 256
    charged_nodes: int = 2000
    charged_attach: int = 25
    charged_samples: int = 24
    charged_cycle: int = 110
    charged_group: int = 8
    service_nodes: int = 3000
    service_tenants: int = 8
    service_walks: int = 512
    service_epochs: int = 40
    rows_per_epoch: int = 60
    checkpoint_every: int = 4
    setup_repeats: int = 3
    min_ops: int = 110


FULL = Scale()
SMOKE = Scale(
    batch_nodes=1500,
    batch_walks=256,
    batch_cycle=2,
    batch_group=64,
    charged_nodes=300,
    charged_attach=8,
    charged_samples=8,
    charged_cycle=2,
    charged_group=4,
    service_nodes=600,
    service_tenants=2,
    service_walks=64,
    service_epochs=8,
    rows_per_epoch=20,
    checkpoint_every=4,
    setup_repeats=1,
    min_ops=1,
)

#: Simulated per-batch API latency (seconds), cycled by the crawler.
LATENCY_SCRIPT = (1.0, 0.25, 0.5, 2.0, 0.75, 1.5)

#: Walk knobs of the service tenants: short walks, light backward budget.
SERVICE_WALK = WalkEstimateConfig(
    walk_length=6,
    crawl_hops=0,
    backward_repetitions=4,
    refine_repetitions=0,
    calibration_walks=5,
)

#: The paper's Google Plus configuration (§7.1): initial crawl plus WS-BW.
CHARGED_WALK = WalkEstimateConfig(diameter_hint=4, crawl_hops=1)

RETRY_POLICY = RetryPolicy(max_attempts=6, base_backoff=0.5, jitter=0.1)


def fault_plan(seed: int) -> FaultPlan:
    """A storm that every retry survives: each error window is shorter than
    the circuit threshold, so no job ever fails."""
    return FaultPlan(
        rules=(
            FaultRule(kind="error", first_call=20, last_call=21),
            FaultRule(kind="error", phase="after", first_call=90, last_call=91),
            FaultRule(kind="rate_limit", delay=5.0, first_call=120, last_call=120),
            FaultRule(
                kind="slow", delay=0.5, jitter=0.3, first_call=150, last_call=230
            ),
        ),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one measuring phase of a run observed."""

    op_s: List[float] = field(default_factory=list)
    samples: int = 0
    setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    units: int = 0
    exact: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    notes: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


def merge(phases: List[Phase]) -> Phase:
    """One phase from phases measured one after another on the same inputs."""
    first = phases[0]
    merged = Phase(exact=first.exact, provenance=first.provenance, notes=first.notes)
    for phase in phases:
        merged.op_s += phase.op_s
        merged.samples += phase.samples
        merged.setup_s += phase.setup_s
        merged.attempted += phase.attempted
        merged.failed += phase.failed
        merged.units += phase.units
        merged.errors += phase.errors
        same = phase.exact == first.exact and phase.provenance == first.provenance
        merged.check(same, "phases on the same inputs differ")
    return merged


def digest(*parts: Any) -> str:
    """sha256 over arrays (by bytes) and JSON-able parameters."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def interleave(arrays: List[np.ndarray]) -> np.ndarray:
    """Concatenate per-op arrays sample-major: the first sample of every
    op, then the second of every op, and so on."""
    position = np.concatenate([np.arange(a.size) for a in arrays])
    op = np.concatenate([np.full(a.size, k) for k, a in enumerate(arrays)])
    return np.concatenate(arrays)[np.lexsort((op, position))]


def group_rel_error(
    values: List[np.ndarray], weights: List[np.ndarray], truth: float, group: int
) -> float:
    """Mean |estimate − truth| / truth over groups of *group* samples.

    Each group's estimate is the importance-weighted mean of its samples,
    and a group takes its samples from consecutive ops (see
    :func:`interleave`), as a caller pooling small independent jobs would.
    The pooled estimate of an unbiased sampler is only noise around the
    truth, so its error differs several-fold between seeds; the mean error
    at a fixed sample size is what a user of that size sees, and it is
    steady across seeds.  Samples of one op share its calibration, so
    groups drawn from one op would vary more between seeds.
    """
    v = interleave(values)
    w = 1.0 / interleave(weights)
    usable = v.size - v.size % group
    v, w = v[:usable].reshape(-1, group), w[:usable].reshape(-1, group)
    estimates = np.sum(v * w, axis=1) / np.sum(w, axis=1)
    return float(np.mean(np.abs(estimates - truth) / truth))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# we_batch / we_charged: one estimate() call per op
# ----------------------------------------------------------------------
@dataclass
class _EstimateInputs:
    graph: Any
    csr: Any
    truth: float
    spec: EstimationJobSpec
    charged: bool
    cycle: int
    group: int


def _setup_we_batch(scale: Scale, seed: int) -> _EstimateInputs:
    graph = barabasi_albert_graph(scale.batch_nodes, 4, seed=seed).relabeled()
    csr = graph.compile()
    spec = EstimationJobSpec(
        design="srw", samples=scale.batch_walks, engine=EngineConfig(backend="batch")
    )
    truth = float(csr.degrees.mean())
    return _EstimateInputs(
        graph, csr, truth, spec, False, scale.batch_cycle, scale.batch_group
    )


def _setup_we_charged(scale: Scale, seed: int) -> _EstimateInputs:
    dataset = google_plus_surrogate(
        nodes=scale.charged_nodes, m=scale.charged_attach, seed=seed
    )
    spec = EstimationJobSpec(
        design="srw",
        samples=scale.charged_samples,
        walk=CHARGED_WALK,
        engine=EngineConfig(backend="charged"),
    )
    truth = float(dataset.aggregates["degree"])
    return _EstimateInputs(
        dataset.graph,
        dataset.graph.compile(),
        truth,
        spec,
        True,
        scale.charged_cycle,
        scale.charged_group,
    )


def _run_estimates(
    setup, scale: Scale, seed: int, seconds: float, min_ops: int, tracer
) -> Phase:
    phase = Phase()
    for _ in range(scale.setup_repeats):
        began = time.perf_counter()
        inputs = setup(scale, seed)
        phase.setup_s.append(time.perf_counter() - began)
    csr, truth, cycle = inputs.csr, inputs.truth, inputs.cycle
    if not np.array_equal(csr.node_ids, np.arange(csr.node_ids.size)):
        raise RuntimeError("generated graph must be labelled 0..n-1")
    params = {"spec": inputs.spec.to_dict(), "cycle": cycle, "group": inputs.group}
    phase.provenance = {
        "nodes": int(csr.node_ids.size),
        "edges": int(csr.indices.size // 2),
        "truth": truth,
        "digest": digest(csr.indptr, csr.indices, params),
    }
    first: List[tuple] = []
    values: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    queries = 0
    began = time.perf_counter()
    op = 0
    while op < max(cycle, min_ops) or time.perf_counter() - began < seconds:
        index = op % cycle
        op += 1
        job = inputs.spec.with_overrides(seed=seed * 1_000_003 + index)
        api = SocialNetworkAPI(inputs.graph) if inputs.charged else None
        phase.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        try:
            t0 = time.perf_counter()
            if inputs.charged:
                result = core.estimate(job, api=api)
            else:
                result = core.estimate(job, graph=csr)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            phase.failed += 1
            phase.check(False, f"op {op} raised {exc!r}")
            result = None
        finally:
            if tracer is not None:
                tracer.end_op()
        fingerprint: tuple = ("failed",)
        if result is not None:
            phase.op_s.append(elapsed)
            nodes, w = result.nodes, result.weights
            v = csr.degrees[nodes].astype(np.float64)
            phase.samples += nodes.size
            estimate = np.sum(v / w) / np.sum(1.0 / w) if nodes.size else math.nan
            phase.check(nodes.size > 0, f"op {op} accepted no samples")
            phase.check(np.isfinite(estimate), f"op {op} gave a non-finite estimate")
            cost = api.query_cost if inputs.charged else 0
            fingerprint = (nodes.size, int(nodes.sum()), float(w.sum()), cost)
        if op > cycle:
            phase.check(fingerprint == first[index], f"op {op} did not repeat")
            continue
        first.append(fingerprint)
        if result is not None:
            values.append(v)
            weights.append(w)
            queries += cost
    phase.units = math.ceil(op / cycle)
    if values:
        phase.exact["rel_error"] = group_rel_error(values, weights, truth, inputs.group)
        if inputs.charged:
            accepted = sum(v.size for v in values)
            phase.exact["queries_per_sample"] = queries / max(accepted, 1)
    return phase


# ----------------------------------------------------------------------
# service_campaign / service_durable: one SamplingService.step() per op
# ----------------------------------------------------------------------
class _Campaign:
    """One multi-tenant campaign over a freshly generated hidden graph."""

    def __init__(self, scale: Scale, seed: int, durable: bool, workdir: Path):
        graph = barabasi_albert_graph(scale.service_nodes, 4, seed=seed)
        self.graph = graph.relabeled()
        self.truth = 2.0 * self.graph.number_of_edges() / self.graph.number_of_nodes()
        self.api = SocialNetworkAPI(self.graph)
        self.durable = durable
        self.workdir = workdir
        self.epochs = scale.service_epochs
        clock = FakeClock()
        backend = "sharded" if durable else "batch"
        self.specs = [
            EstimationJobSpec(
                design="srw",
                samples=scale.service_walks,
                error_target=None,
                tenant=f"tenant-{i}",
                walk=SERVICE_WALK,
                engine=EngineConfig(backend=backend),
            )
            for i in range(scale.service_tenants)
        ]
        config = dict(
            max_running=scale.service_tenants,
            max_pending=scale.service_tenants,
            rows_per_epoch=scale.rows_per_epoch,
            max_rounds_per_job=scale.service_epochs,
            monitor_interval=None,
        )
        service_api = self.api
        self.resilient = None
        self.plan = None
        if durable:
            workdir.mkdir(parents=True)
            self.plan = fault_plan(seed)
            self.resilient = ResilientAPI(
                FaultyAPI(self.api, self.plan, clock=clock),
                RETRY_POLICY,
                clock=clock,
                seed=seed,
            )
            service_api = self.resilient
            config.update(
                n_workers=1,
                slab_storage="file",
                slab_dir=str(workdir),
                checkpoint_path=str(workdir / "checkpoint.json"),
                checkpoint_every=scale.checkpoint_every,
            )
        self.service = SamplingService(
            service_api,
            0,
            config=ServiceConfig(**config),
            clock=clock,
            latency=list(LATENCY_SCRIPT),
            seed=seed,
        )

    def provenance(self) -> Dict[str, Any]:
        csr = self.graph.compile()
        params = {
            "specs": [spec.to_dict() for spec in self.specs],
            "epochs": self.epochs,
            "latency": LATENCY_SCRIPT,
            "plan": self.plan.to_dict() if self.plan else None,
            "policy": RETRY_POLICY.to_dict() if self.durable else None,
        }
        return {
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
            "truth": self.truth,
            "digest": digest(csr.indptr, csr.indices, params),
        }

    def total_samples(self) -> int:
        return sum(job.samples for job in self.service.jobs.values())

    async def drive(self, phase: Phase, tracer, setup_began: float) -> None:
        service = self.service
        for spec in self.specs:
            service.submit_nowait(spec)
        # The warm-up epoch admits the jobs, publishes the first topology
        # and, with the sharded backend, forks the walk engine: set-up.
        await service.step()
        phase.setup_s.append(time.perf_counter() - setup_began)
        while service.scheduler.has_work:
            before = self.total_samples()
            phase.attempted += 1
            if tracer is not None:
                tracer.begin_op()
            try:
                t0 = time.perf_counter()
                await service.step()
                elapsed = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.end_op()
            phase.op_s.append(elapsed)
            gained = self.total_samples() - before
            phase.samples += gained
            epoch = service.epochs_run
            phase.check(gained > 0, f"epoch {epoch} accepted no samples")
            for job in service.jobs.values():
                if job.partials and not math.isfinite(job.partials[-1].estimate):
                    phase.check(False, f"{job.job_id} streamed a non-finite estimate")

    def exact(self, phase: Phase) -> Dict[str, float]:
        """Checks and exact meters of the finished campaign."""
        service = self.service
        service.ledger.assert_balanced()
        results = [job.result for job in service.jobs.values()]
        done = [r for r in results if r is not None and r.state is JobState.COMPLETED]
        failed = len(results) - len(done)
        phase.failed += failed
        phase.check(failed == 0, f"{failed} job(s) did not complete")
        phase.check(service.epochs_run == self.epochs, "unexpected epoch count")
        samples = sum(r.samples for r in done)
        errors = [abs(r.estimate - self.truth) / self.truth for r in done]
        exact = {
            "rel_error": float(np.mean(errors)) if errors else math.nan,
            "queries_per_sample": self.api.query_cost / max(samples, 1),
            "sim_s": float(service.clock.now),
            "samples": samples,
        }
        if self.resilient is not None:
            exact["retries"] = self.resilient.retries
            exact["failed_attempts"] = self.resilient.failed_attempts
        return exact

    def close(self, phase: Phase) -> None:
        """Close the service, then check what it left behind."""
        self.service.close()
        if not self.durable:
            return
        leftover = sorted(p.name for p in self.workdir.glob("*.slab"))
        phase.check(not leftover, f"slab files left behind: {leftover}")
        try:
            document = checkpoint_module.load(self.workdir / "checkpoint.json")
            phase.check(
                document["epochs_run"] == self.service.epochs_run,
                "the last checkpoint is not from the last epoch",
            )
        except Exception as exc:  # a missing or invalid checkpoint fails the run
            phase.check(False, f"checkpoint did not load: {exc!r}")
        shutil.rmtree(self.workdir, ignore_errors=True)


@contextlib.contextmanager
def fsync_as_on_tmpfs():
    """Make ``os.fsync`` a no-op while the block runs, as it is on a tmpfs.

    ``service_durable`` measures the serialisation of its file slabs and
    checkpoints, not the latency of the host's disk.  The files stay in the
    checkout, because the benchmark writes nowhere else, and on a shared
    virtual disk an fsync's latency depends on what other tenants write.
    """
    real = os.fsync
    os.fsync = lambda fd: None
    try:
        yield
    finally:
        os.fsync = real


def _run_campaigns(
    durable: bool,
    scale: Scale,
    seed: int,
    seconds: float,
    min_ops: int,
    tracer,
    workroot: Path,
) -> Phase:
    phase = Phase()
    began = time.perf_counter()
    while True:
        short = len(phase.op_s) < min_ops and not phase.failed
        if phase.units and time.perf_counter() - began >= seconds and not short:
            break
        setup_began = time.perf_counter()
        campaign = _Campaign(scale, seed, durable, workroot / f"c{phase.units}")
        ops_before = len(phase.op_s)
        try:
            if phase.units == 0:
                phase.provenance = campaign.provenance()
            drive(campaign.service.clock, campaign.drive(phase, tracer, setup_began))
            exact = campaign.exact(phase)
        except Exception as exc:  # the epoch that raised is a failed op
            phase.failed += 1
            phase.check(False, f"campaign {phase.units + 1} raised {exc!r}")
            exact = None
        finally:
            campaign.close(phase)
            phase.units += 1
        if phase.units == 1:
            phase.exact = exact or {}
            epochs = phase.op_s[ops_before:]
            tenth = max(1, len(epochs) // 10)
            if epochs:
                first, last = epochs[:tenth], epochs[-tenth:]
                phase.notes["epoch_ms_first_tenth"] = 1e3 * statistics.mean(first)
                phase.notes["epoch_ms_last_tenth"] = 1e3 * statistics.mean(last)
        elif exact is not None:
            phase.check(exact == phase.exact, f"campaign {phase.units} differs")
    return phase


def run_phase(
    name: str,
    scale: Scale,
    seed: int,
    seconds: float,
    min_ops: int,
    tracer=None,
    workroot: Optional[Path] = None,
) -> Phase:
    """Measure workload *name* for about *seconds* (whole units only)."""
    if name == "we_batch":
        return _run_estimates(_setup_we_batch, scale, seed, seconds, min_ops, tracer)
    if name == "we_charged":
        return _run_estimates(_setup_we_charged, scale, seed, seconds, min_ops, tracer)
    if name in ("service_campaign", "service_durable"):
        if workroot is None:
            raise ValueError("service workloads need a work directory")
        durable = name == "service_durable"
        with fsync_as_on_tmpfs() if durable else contextlib.nullcontext():
            return _run_campaigns(
                durable, scale, seed, seconds, min_ops, tracer, workroot
            )
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments currently on the host."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def summarize(phase: Phase, import_s: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced phase."""
    ops = sorted(phase.op_s)
    return {
        "setup_s": import_s + statistics.median(phase.setup_s),
        "samples_per_s": phase.samples / sum(ops),
        "op_ms_p50": 1e3 * statistics.median(ops),
        "op_ms_p90": 1e3 * statistics.quantiles(ops, n=10)[8],
        "rel_error": phase.exact.get("rel_error", math.nan),
        "peak_rss_mb": peak_rss_mb(),
    }
