"""Span tracer for the mixrate layers, installed from outside the program.

`Tracer.install()` replaces every public function of the six layer modules
(and the validating constructors of their types) with a span wrapper, and
wraps `numpy.linalg.eigh` / `eigvalsh` so that every eigendecomposition is
counted wherever it is made. `uninstall()` puts the originals back.

A span records its inclusive duration; its layer's self time is that
duration minus the time covered by its child spans. Eigendecompositions are
spans of the `hermitian` layer, because that is the kernel layer they belong
to. Buckets group functions into the named per-layer metrics; a bucket's
time counts only its outermost span, so recursion into the same bucket is
not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "harness", "rates", "ensembles", "entangling", "hermitian")

# (layer, qualified name) -> bucket. Anything else in a layer gets a span
# for self-time accounting but feeds no bucket.
BUCKETS = {
    ("ensembles", "DensityMatrix.__post_init__"): "validate",
    ("ensembles", "Hamiltonian.__post_init__"): "validate",
    ("ensembles", "expected_state"): "expected_state",
    ("ensembles", "evolve"): "evolve",
    ("ensembles", "unitary_at"): "evolve",
    ("ensembles", "von_neumann_entropy"): "entropy",
    ("ensembles", "shannon_entropy"): "entropy",
    ("ensembles", "binary_entropy"): "entropy",
    ("ensembles", "average_entropy"): "entropy",
    ("ensembles", "parse_ensemble"): "parse",
    ("ensembles", "parse_hamiltonian_set"): "parse",
    ("ensembles", "matrix_from_json"): "parse",
    ("rates", "max_mixing_rate"): "max_rate",
    ("rates", "binary_max_rate"): "max_rate",
    ("rates", "optimal_hamiltonians"): "max_rate",
    ("rates", "fd_mixing_rate"): "fd_oracle",
    ("rates", "fd_mixing_rate_richardson"): "fd_oracle",
    ("rates", "stm_check"): "stm",
    ("rates", "mixing_rate"): "mixing_rate",
    ("rates", "rate_report"): "rate_report",
    ("entangling", "sie_to_sim"): "sie",
    ("entangling", "entangling_rate"): "ent_rate",
    ("entangling", "ste_check"): "ste",
    ("entangling", "partial_trace"): "partial_trace",
    ("harness", "sample_density"): "sample",
    ("harness", "sample_hamiltonian"): "sample",
    ("harness", "sample_hamiltonian_set"): "sample",
    ("harness", "sample_ensemble"): "sample",
    ("harness", "trial_ensemble"): "sample",
    ("harness", "run_trial"): "trial",
    ("harness", "records_to_csv"): "report",
    ("harness", "records_to_json"): "report",
    ("harness", "write_report"): "report",
}

# The bucket whose every call duration is kept, for percentiles.
SAMPLED = "trial"


class Tracer:
    """Collects span self times per layer and call counts / times per bucket."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.bucket_s = defaultdict(float)
        self.calls = Counter()
        self.durations = defaultdict(list)
        self._stack: list[list[float]] = []
        self._depth = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, bucket: str | None):
        stack, self_s, bucket_s = self._stack, self.self_s, self.bucket_s
        calls, depth = self.calls, self._depth
        keep = self.durations[bucket] if bucket == SAMPLED else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if bucket:
                calls[bucket] += 1
                depth[bucket] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if bucket:
                    depth[bucket] -= 1
                    if depth[bucket] == 0:
                        bucket_s[bucket] += dur
                    if keep is not None:
                        keep.append(dur)

        return span

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"mixrate.{m}") for m in LAYERS}
        wrapped = {}  # id(original function) -> span wrapper
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, layer, BUCKETS.get((layer, name)))
                elif inspect.isclass(obj):
                    for meth in ("__init__", "__post_init__"):
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            bucket = BUCKETS.get((layer, f"{name}.{meth}"))
                            self._set(obj, meth, self._wrap(fn, layer, bucket))
        # Functions are bound by name into other modules (`from .x import f`),
        # so every module attribute that is an original gets the wrapper.
        for mod in [importlib.import_module("mixrate"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, name, wrapped[id(obj)])
        for name in ("eigh", "eigvalsh"):
            self._set(np.linalg, name, self._wrap(getattr(np.linalg, name), "hermitian", "eig"))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
