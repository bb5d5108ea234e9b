"""Pluggable kernel backends for the batch-walk hot loop.

The NumPy batch engine (:mod:`repro.walks.batch`) advances K walks per
array operation, but still pays Python-level dispatch *per step*: every
transition re-enters the interpreter, re-slices ``degrees``/``indptr``,
and re-branches on the design.  That overhead is what left the K=1 batch
path ~3x behind the scalar engine and caps wide-batch throughput well
below memory bandwidth (ROADMAP open item 2).

This module makes the step executor pluggable:

* ``numpy`` — the reference backend.  Delegates to the per-step kernels
  in :mod:`repro.walks.batch`; always available; the semantics other
  backends are pinned against.
* ``native`` — a Numba ``@njit`` backend that compiles the **whole
  trajectory loop** (CSR neighbor lookup, transition draw, accept/
  reject, laziness chain, path writeback) into one nopython function
  with zero per-step Python dispatch.  Import-gated: without ``numba``
  (``pip install "walk-not-wait-repro[native]"``) the backend reports
  itself unavailable and soft resolution falls back to ``numpy`` with a
  one-time warning.
* ``python`` — the native trajectory loop executed *without* the JIT.
  Orders of magnitude slower than both others; it exists so the native
  loop's arithmetic and draw order stay verifiable bit for bit on hosts
  without numba (the parity suites run it unconditionally).

**Seed-stable parity across backends.**  Numba ≥ 0.57 implements
``np.random.Generator`` (PCG64) inside nopython code with bit-identical
streams, and NumPy's array draws consume the underlying bit stream
exactly as the equivalent sequence of scalar draws (``rng.integers(0,
high_array)`` ≡ one scalar bounded draw per element, in order;
``rng.random(n)`` ≡ n scalar uniforms).  The trajectory kernels below
therefore draw **phase-major within each step** — all laziness coins,
then the liveness/degree checks, then all proposal indices, then the
conditional acceptance coins — which is precisely the order the NumPy
kernels consume the stream in.  With the same seed every backend
produces the same trajectories *and* leaves the generator in the same
state, so calibration/main-round sequences that share one generator stay
reproducible when the backend changes.  The golden RNG fixtures
(``tests/walks/test_batch_rng_regression.py``) and the cross-backend
hypothesis suite (``tests/walks/test_kernel_backends.py``) pin this.

Backend selection: ``run_walk_batch(..., backend=...)`` per call,
``WalkEstimateConfig(kernel_backend=...)`` (a job's
``walk.kernel_backend``) for the front ends and the service, or the
``REPRO_KERNEL_BACKEND`` environment variable for the process default
(soft resolution — falls back to ``numpy`` when the requested backend is
unavailable).
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graphs.csr import CSRGraph
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover - the default CI matrix
    numba = None

#: Environment variable naming the process-default backend.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: How to get the JIT backend; quoted by every unavailability message.
NATIVE_INSTALL_HINT = 'pip install "walk-not-wait-repro[native]" (numba>=0.57)'

# Inner-design codes for the compiled trajectory loop.
_SRW, _MHRW, _MAXDEG = 0, 1, 2

# Kernel exit codes; the wrapper converts them back into the byte-exact
# errors the NumPy kernels raise.
_OK, _ERR_STUCK, _ERR_OVER_DEGREE = 0, 1, 2


def compile_design(
    design: TransitionDesign,
) -> Optional[Tuple[int, np.ndarray, int]]:
    """Flatten *design* into ``(inner_code, laziness_chain, max_degree)``.

    A :class:`LazyWalk` nest becomes a float64 chain (outermost coin
    first); the innermost design becomes an integer code.  Returns
    ``None`` for designs the trajectory loop cannot express — the same
    closure as :func:`repro.walks.batch.has_batch_kernel`.
    """
    chain: List[float] = []
    inner: TransitionDesign = design
    while isinstance(inner, LazyWalk):
        chain.append(inner.laziness)
        inner = inner.inner
    laziness = np.asarray(chain, dtype=np.float64)
    if isinstance(inner, SimpleRandomWalk):
        return _SRW, laziness, 0
    if isinstance(inner, MetropolisHastingsWalk):
        return _MHRW, laziness, 0
    if isinstance(inner, MaxDegreeWalk):
        return _MAXDEG, laziness, int(inner.max_degree)
    return None


# ----------------------------------------------------------------------
# Trajectory kernels: nopython-compatible bodies, shared verbatim by the
# ``python`` backend (as-is) and the ``native`` backend (njit-wrapped).
# ----------------------------------------------------------------------
def _walk_trajectory(
    indptr, indices, degrees, starts, steps, code, laziness, max_degree, rng
):
    """All K trajectories of a (possibly lazy) SRW/MHRW/MaxDeg walk.

    Phase-major within each step, walker-major within each phase — the
    exact stream order of the NumPy step kernels.  Returns ``(paths,
    err, err_node, err_degree)``; on error the paths array is partial
    and the caller raises without reading it.
    """
    k = starts.shape[0]
    paths = np.empty((k, steps + 1), dtype=np.int64)
    current = starts.copy()
    proposal = np.empty(k, dtype=np.int64)
    moving = np.empty(k, dtype=np.bool_)
    for i in range(k):
        paths[i, 0] = current[i]
    for t in range(steps):
        for i in range(k):
            moving[i] = True
        # Laziness chain: one coin per still-moving walker per layer,
        # outermost layer first (LazyWalk.step's order, per walker).
        for layer in range(laziness.shape[0]):
            stay = laziness[layer]
            for i in range(k):
                if moving[i] and rng.random() < stay:
                    moving[i] = False
        # Liveness pass over the movers, before any inner draw: a
        # lazily-parked walk on an isolated node survives until it
        # first tries to move.
        for i in range(k):
            if moving[i] and degrees[current[i]] == 0:
                return paths, _ERR_STUCK, current[i], np.int64(0)
        if code == _MAXDEG:
            for i in range(k):
                if moving[i] and degrees[current[i]] > max_degree:
                    node = current[i]
                    return paths, _ERR_OVER_DEGREE, node, degrees[node]
            # Virtual-degree coin for every mover, then the neighbor
            # index only for those whose coin said move.
            for i in range(k):
                if moving[i]:
                    d = degrees[current[i]]
                    if not (rng.random() < d / max_degree):
                        moving[i] = False
            for i in range(k):
                if moving[i]:
                    j = rng.integers(0, degrees[current[i]])
                    current[i] = indices[indptr[current[i]] + j]
        elif code == _MHRW:
            # Proposal phase for every mover, then the acceptance coin
            # only where the proposal has strictly higher degree.
            for i in range(k):
                if moving[i]:
                    j = rng.integers(0, degrees[current[i]])
                    proposal[i] = indices[indptr[current[i]] + j]
            for i in range(k):
                if moving[i]:
                    du = degrees[current[i]]
                    dv = degrees[proposal[i]]
                    if dv <= du or rng.random() < du / dv:
                        current[i] = proposal[i]
        else:
            for i in range(k):
                if moving[i]:
                    j = rng.integers(0, degrees[current[i]])
                    current[i] = indices[indptr[current[i]] + j]
        for i in range(k):
            paths[i, t + 1] = current[i]
    return paths, _OK, np.int64(0), np.int64(0)


def _nbrw_trajectory(indptr, indices, degrees, starts, steps, rng):
    """All K non-backtracking trajectories; same contract as above.

    One bounded draw per walker per step over ``degree - 1`` effective
    slots (degree-1 nodes may backtrack), with the arrival edge skipped
    by a binary search over the sorted row — the compiled twin of the
    vectorized ``_rows_searchsorted`` recipe.
    """
    k = starts.shape[0]
    paths = np.empty((k, steps + 1), dtype=np.int64)
    current = starts.copy()
    previous = np.full(k, -1, dtype=np.int64)
    for i in range(k):
        paths[i, 0] = current[i]
    for t in range(steps):
        for i in range(k):
            if degrees[current[i]] == 0:
                return paths, _ERR_STUCK, current[i], np.int64(0)
        for i in range(k):
            d = degrees[current[i]]
            excluded = previous[i] >= 0 and d > 1
            j = rng.integers(0, d - 1 if excluded else d)
            if excluded:
                base = indptr[current[i]]
                lo = np.int64(0)
                hi = d
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if indices[base + mid] < previous[i]:
                        lo = mid + 1
                    else:
                        hi = mid
                if j >= lo:
                    j += 1
            previous[i] = current[i]
            current[i] = indices[indptr[current[i]] + j]
            paths[i, t + 1] = current[i]
    return paths, _OK, np.int64(0), np.int64(0)


_TRAJECTORY_BODIES: Dict[str, Callable] = {
    "walk": _walk_trajectory,
    "nbrw": _nbrw_trajectory,
}

# Dispatcher builds (njit wraps, or plain-Python runner adoptions) since
# process start.  ShardedWalkEngine workers probe this across rounds to
# prove that a persistent pool compiles once and then only reuses.
_COMPILE_EVENTS = 0


def compilation_events() -> int:
    """Dispatcher builds in this process (diagnostics / amortization tests)."""
    return _COMPILE_EVENTS


def _shard_compilation_events(csr: CSRGraph) -> int:
    """``map_shards`` probe: dispatcher builds inside this worker."""
    return compilation_events()


def _raise_kernel_error(
    csr: CSRGraph, err: int, node: int, degree: int, max_degree: int
):
    """Convert a kernel exit code into the NumPy backend's exact error."""
    original = int(csr.ids_of(np.asarray([node], dtype=np.int64))[0])
    if err == _ERR_STUCK:
        raise GraphError(f"random walk stuck: node {original} has no neighbors")
    raise ConfigurationError(
        f"node {original} has degree {int(degree)} > declared "
        f"max_degree {max_degree}"
    )


class KernelBackend:
    """One way of executing the batch-walk trajectory loop.

    Subclasses implement :meth:`run_walks` / :meth:`run_nbrw` over CSR
    *positions* (the id round-trip stays in :mod:`repro.walks.batch`)
    and must consume the generator stream exactly as the ``numpy``
    reference does.
    """

    name: str = "abstract"
    jit: bool = False

    @property
    def available(self) -> bool:
        """Whether this backend can execute on this host."""
        return True

    def supports(self, design: TransitionDesign) -> bool:
        """Whether *design* has a trajectory kernel on this backend."""
        return compile_design(design) is not None

    def run_walks(
        self,
        csr: CSRGraph,
        design: TransitionDesign,
        starts: np.ndarray,
        steps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All K trajectories as a ``(K, steps + 1)`` position array."""
        raise NotImplementedError

    def run_nbrw(
        self,
        csr: CSRGraph,
        starts: np.ndarray,
        steps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Non-backtracking twin of :meth:`run_walks`."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """One capability-report row for this backend."""
        return {
            "available": self.available,
            "jit": self.jit,
            "designs": ["srw", "mhrw", "maxdeg", "lazy-*", "nbrw"],
        }


class NumpyKernelBackend(KernelBackend):
    """The reference backend: per-step vectorized NumPy kernels."""

    name = "numpy"
    jit = False

    def supports(self, design: TransitionDesign) -> bool:
        from repro.walks import batch

        return batch.has_batch_kernel(design)

    def run_walks(self, csr, design, starts, steps, rng):
        from repro.walks import batch

        kernel = batch._resolve_kernel(design)
        if kernel is None:  # pragma: no cover - run_walk_batch validates
            raise ConfigurationError(
                f"design {design.name!r} has no batch kernel"
            )
        current = starts
        paths = np.empty((current.size, steps + 1), dtype=np.int64)
        paths[:, 0] = current
        for t in range(steps):
            current = kernel(csr, design, current, rng)
            paths[:, t + 1] = current
        return paths

    def run_nbrw(self, csr, starts, steps, rng):
        from repro.walks import batch

        current = starts
        paths = np.empty((current.size, steps + 1), dtype=np.int64)
        paths[:, 0] = current
        previous = np.full(current.size, -1, dtype=np.int64)
        for t in range(steps):
            deg = csr.degrees[current]
            batch._require_alive(deg, current, csr)
            excluded = (previous >= 0) & (deg > 1)
            effective = deg - excluded
            idx = batch._uniform_indices(rng, effective)
            if excluded.any():
                slot = batch._rows_searchsorted(
                    csr, current[excluded], previous[excluded]
                )
                idx[excluded] += idx[excluded] >= slot
            nxt = csr.indices[csr.indptr[current] + idx]
            previous, current = current, nxt
            paths[:, t + 1] = current
        return paths

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        row["note"] = "reference implementation; per-step vectorized kernels"
        return row


class TrajectoryLoopBackend(KernelBackend):
    """The whole-trajectory loop, JIT-compiled (``native``) or not (``python``).

    Both flavors share the kernel bodies above; the only difference is
    whether :mod:`numba` wraps them.  Dispatchers are built once per
    kernel kind and memoized on the instance — a persistent worker
    process (``ShardedWalkEngine``) therefore compiles on its first
    round and only reuses afterwards; ``cache=True`` additionally
    persists the machine code across processes.
    """

    def __init__(self, name: str, jit: bool) -> None:
        self.name = name
        self.jit = jit
        self._dispatchers: Dict[str, Callable] = {}

    @property
    def available(self) -> bool:
        return (not self.jit) or numba is not None

    def _dispatcher(self, kind: str) -> Callable:
        fn = self._dispatchers.get(kind)
        if fn is None:
            global _COMPILE_EVENTS
            body = _TRAJECTORY_BODIES[kind]
            if self.jit:
                if numba is None:  # pragma: no cover - require_backend gates
                    raise ConfigurationError(
                        f"kernel backend 'native' needs numba; {NATIVE_INSTALL_HINT}"
                    )
                fn = numba.njit(cache=True, nogil=True)(body)
            else:
                fn = body
            _COMPILE_EVENTS += 1
            self._dispatchers[kind] = fn
        return fn

    def run_walks(self, csr, design, starts, steps, rng):
        compiled = compile_design(design)
        if compiled is None:  # pragma: no cover - run_walk_batch validates
            raise ConfigurationError(
                f"design {design.name!r} has no trajectory kernel"
            )
        code, laziness, max_degree = compiled
        paths, err, node, degree = self._dispatcher("walk")(
            csr.indptr,
            csr.indices,
            csr.degrees,
            starts,
            steps,
            code,
            laziness,
            max_degree,
            rng,
        )
        if err != _OK:
            _raise_kernel_error(csr, err, int(node), int(degree), max_degree)
        return paths

    def run_nbrw(self, csr, starts, steps, rng):
        paths, err, node, degree = self._dispatcher("nbrw")(
            csr.indptr, csr.indices, csr.degrees, starts, steps, rng
        )
        if err != _OK:
            _raise_kernel_error(csr, err, int(node), int(degree), 0)
        return paths

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        if self.jit:
            row["requires"] = NATIVE_INSTALL_HINT
            row["numba"] = getattr(numba, "__version__", None)
            row["note"] = "whole-trajectory nopython loop; zero per-step dispatch"
        else:
            row["note"] = (
                "native loop without the JIT — verification only, very slow"
            )
        return row


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, KernelBackend] = {}
_DEFAULT_BACKEND = "numpy"
_WARNED_FALLBACK = False

BackendLike = Union[str, KernelBackend, None]


def register_backend(backend: KernelBackend, replace: bool = False) -> KernelBackend:
    """Add *backend* to the registry (``replace=True`` to override)."""
    if backend.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"kernel backend {backend.name!r} is already registered"
        )
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that can execute on this host, sorted."""
    return tuple(name for name in backend_names() if _REGISTRY[name].available)


def get_backend(name: str) -> KernelBackend:
    """The registered backend called *name* (available or not)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; registered: "
            + ", ".join(backend_names())
        ) from None


def require_backend(name: str) -> KernelBackend:
    """Strict resolution: raise unless *name* exists **and** is available."""
    backend = get_backend(name)
    if not backend.available:
        raise ConfigurationError(
            f"kernel backend {name!r} is not available on this host: "
            f"numba is not installed — {NATIVE_INSTALL_HINT} — or use "
            "kernel_backend='numpy'"
        )
    return backend


def _warn_fallback_once(requested: str) -> None:
    global _WARNED_FALLBACK
    if not _WARNED_FALLBACK:
        _WARNED_FALLBACK = True
        warnings.warn(
            f"kernel backend {requested!r} is unavailable (numba not "
            f"installed; {NATIVE_INSTALL_HINT}); falling back to 'numpy'",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_backend(spec: BackendLike = None, strict: bool = True) -> KernelBackend:
    """Resolve a backend spec to an executable backend object.

    ``None`` means the process default; a string is looked up in the
    registry; a backend object passes through.  ``strict=True`` (the
    default for explicit per-call/config selection) raises when the
    request cannot be honored; ``strict=False`` falls back to ``numpy``
    with a one-time :class:`RuntimeWarning` — the import-time/env-var
    path, where failing would make the package unimportable.
    """
    if isinstance(spec, KernelBackend):
        return spec
    name = default_backend_name() if spec is None else spec
    if strict:
        return require_backend(name)
    backend = get_backend(name)
    if not backend.available:
        _warn_fallback_once(name)
        return _REGISTRY["numpy"]
    return backend


def default_backend_name() -> str:
    """The process-default backend name (``numpy`` unless overridden)."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> KernelBackend:
    """Set the process default (strict: the backend must be available)."""
    global _DEFAULT_BACKEND
    backend = require_backend(name)
    _DEFAULT_BACKEND = backend.name
    return backend


def capability_report() -> Dict[str, object]:
    """What this host can run: default backend plus one row per backend."""
    return {
        "default": default_backend_name(),
        "numba": getattr(numba, "__version__", None),
        "backends": {name: _REGISTRY[name].describe() for name in backend_names()},
    }


register_backend(NumpyKernelBackend())
register_backend(TrajectoryLoopBackend("native", jit=True))
register_backend(TrajectoryLoopBackend("python", jit=False))

# Honor the environment override softly: a numba-less host asking for
# ``native`` must still import (one-time warning, numpy fallback) — the
# same graceful degradation as the FastAPI-gated service adapter.
_env_default = os.environ.get(BACKEND_ENV_VAR)
if _env_default:
    _DEFAULT_BACKEND = resolve_backend(_env_default, strict=False).name
