"""Batched multi-chip evaluation and retraining for B fault-masked chips.

Evaluating a population of faulty chips is the dominant non-training cost of
the Reduce flow: Step-2 triage, resilience-trial baselines and campaign
accuracy checkpoints all need "accuracy of the pre-trained DNN under chip
b's fault masks" for many chips.  Under the weight-stationary mapping both
FAP (Zhang et al., VTS 2018) and SalvageDNN-style permutations reduce to
per-layer weight masks, so evaluating B chips is just B masked variants of
the same GEMM — which batches trivially.

:class:`BatchedFaultEvaluator` stacks the B per-chip masked weight matrices
into ``(B, N_out, K)`` tensors once, then runs the *unmodified* model forward
with every mappable layer temporarily routed through a batched GEMM.  Two
regimes are exploited:

* **Shared prefix.** Until the first masked layer, activations are identical
  for every chip, so the input batch is *not* replicated: the prefix runs
  once, and the first masked layer lowers its input once (one im2col) and
  multiplies it against all B weight sets in a single wide GEMM
  ``(P, K) @ (K, B * N_out)`` — the per-chip GEMMs share their activation
  operand, so this is a pure B-fold saving on the lowering and a large BLAS
  efficiency win over B narrow GEMMs.
* **Folded suffix.** Downstream of the first masked layer the activations
  diverge per chip; they are carried with a folded ``(B * batch, ...)``
  leading axis and each masked layer applies a stacked
  ``(B, P, K) @ (B, K, N_out)`` matmul.  Non-mappable layers (ReLU,
  eval-mode batch norm, pooling, flatten, dropout-in-eval) are strictly
  per-sample and need no changes at all.

Numerical equivalence: chip ``b``'s slice of every stacked GEMM multiplies
the same operands in the same row order as the serial per-chip pass, and all
surrounding ops are per-sample elementwise, so logits match the serial
``evaluate_accuracy`` path bit-for-bit on a given BLAS build (the wide
shared-prefix GEMM may in principle differ to float32 rounding on BLAS
builds whose kernel selection changes the reduction order with the output
width; the equivalence tests pin this down exactly on the build in use).

:class:`BatchedFaultTrainer` extends the same idea through the *backward*
pass: fault-aware retraining (FAT) of B chips that share their training
data, hyper-parameters and seed — the Step-3 inner loop of the Reduce
campaign — runs as one folded training loop with stacked per-chip weights,
per-chip optimizer state and stacked float32 keep-multiplier mask
enforcement, bit-identical to B serial ``Trainer`` runs (see the class
docstring and tests/test_batched_fat.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import queue
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.mapping import model_fault_masks
from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.nn.functional import (
    _bn_axes,
    _output_windows,
    _pad_nchw,
    _pair,
    _scatter_windows,
    _bn_eval_forward,
    _bn_train_backward,
    _bn_train_forward,
    bn_running_update,
    col2im_t,
    im2col,
    im2col_t,
)
from repro.nn.tensor import Function, is_grad_enabled
from repro.observability import metrics, trace
from repro.utils.logging import get_logger

logger = get_logger("accelerator.batched")

MaskDict = Dict[str, np.ndarray]

# An im2col lowering is a ``C * kh * kw``-fold expansion of its batch, so an
# unbounded cache over a large eval set could dwarf the stacked weights it
# sits next to.  The default byte cap comfortably holds the fast preset's
# whole lowered test set with headroom for several layer geometries; larger
# workloads evict least-recently-used batches and simply re-lower them — a
# throughput fallback, never a correctness change.
DEFAULT_LOWERING_CACHE_MB = 128.0

#: Cache keys: ``(kind, layer_name, batch_size, batch_index)``.  ``kind``
#: namespaces the two lowering layouts that coexist in this module —
#: ``"im2col"`` yields ``(P, K)`` columns (the forward-only evaluator) and
#: ``"im2col_t"`` yields ``(K, P)`` (the trainer's eval pass) — and
#: ``batch_size`` disambiguates loaders slicing the same data differently
#: (batch ``i`` covers different rows at different batch sizes).
LoweringKey = Tuple[str, str, int, int]
LoweringEntry = Tuple[np.ndarray, int, int]


class LoweringCache:
    """Byte-capped, thread-safe LRU cache of shared-prefix eval lowerings.

    Maps :data:`LoweringKey` to the cached ``(cols, out_h, out_w)`` lowering
    of one eval batch at one layer.  Valid whenever the input to the first
    batched layer is a deterministic function of the batch — true for
    unshuffled evaluation passes over fixed weights, where the prefix holds
    no stochastic or per-chip layers — so per-checkpoint evaluations,
    successive chip chunks, and whole strategy-sweep arms over the same
    population stop re-lowering identical batches.

    One instance may be shared across evaluators, trainers, campaign runs
    and sweep arms (see :class:`EvalPipeline`), and between the evaluation
    hot loop and its background prefetch thread: ``get_or_compute`` runs at
    most one computation per key at a time (concurrent callers wait on the
    in-flight one), and eviction is least-recently-used once ``max_bytes``
    is exceeded.  An entry larger than the whole cap is returned uncached.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is None:
            max_bytes = int(DEFAULT_LOWERING_CACHE_MB * 1024 * 1024)
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[LoweringKey, LoweringEntry]" = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()
        self._inflight: Dict[LoweringKey, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes of cached lowering arrays."""
        return self._nbytes

    def set_max_bytes(self, max_bytes: int) -> None:
        """Change the byte cap, evicting LRU entries down to the new cap."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        with self._lock:
            self.max_bytes = int(max_bytes)
            self._evict_locked(0)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._update_gauge_locked()

    def _update_gauge_locked(self) -> None:
        if metrics.enabled:
            metrics.gauge("lowering_cache.bytes").set(self._nbytes)

    def _evict_locked(self, incoming: int) -> None:
        while self._entries and self._nbytes + incoming > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= evicted[0].nbytes
            if metrics.enabled:
                metrics.counter("lowering_cache.evictions").inc()

    def _put_locked(self, key: LoweringKey, value: LoweringEntry) -> None:
        incoming = value[0].nbytes
        if incoming > self.max_bytes:
            return  # larger than the whole cap: serve uncached
        self._evict_locked(incoming)
        self._entries[key] = value
        self._nbytes += incoming
        self._update_gauge_locked()

    def get_or_compute(
        self,
        key: LoweringKey,
        compute: Callable[[], LoweringEntry],
        record: bool = True,
    ) -> LoweringEntry:
        """Return the cached entry for ``key``, computing (once) on a miss.

        When another thread — the batch prefetcher — is already computing
        this key, the call waits for that computation instead of duplicating
        it.  ``record=False`` (the prefetch thread) leaves the hit/miss
        counters to the consuming thread and counts its own computations
        under ``lowering_cache.prefetched`` instead.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    if record and metrics.enabled:
                        metrics.counter("lowering_cache.hits").inc()
                    return entry
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            # Another thread owns the computation: wait and re-check.  The
            # owner may legitimately fail to cache (oversized entry, eviction
            # pressure), in which case the loop claims ownership next round.
            event.wait()
        try:
            entry = compute()
            with self._lock:
                self._put_locked(key, entry)
                if metrics.enabled:
                    name = "lowering_cache.misses" if record else "lowering_cache.prefetched"
                    metrics.counter(name).inc()
            return entry
        finally:
            with self._lock:
                del self._inflight[key]
            event.set()


class _LoweringPrefetcher:
    """Background double-buffering of the next eval batch's lowering.

    While the hot loop runs the current batch's stacked GEMMs, a single
    worker thread computes the *next* batch's shared-prefix im2col lowering
    into the shared :class:`LoweringCache`, so the loop never blocks on
    lowering.  The lowering recipe (which layer, which im2col variant) is
    learned on the first batch: the eval forward registers it via
    :meth:`offer_recipe` exactly when the raw input batch is what reaches
    the first stacked layer — the only case in which the lowering is a pure
    function of the batch that a prefix-less thread can reproduce.  When no
    recipe registers (MLP models, non-trivial prefixes), submissions are
    dropped and the pass runs exactly as before — prefetch is bit-identical
    by construction because the cache stores the same deterministic arrays
    the hot loop would compute itself.
    """

    def __init__(self, cache: LoweringCache) -> None:
        self._cache = cache
        self._recipe: Optional[Tuple[str, str, int, Callable[[np.ndarray], LoweringEntry]]] = None
        self._queue: "queue.Queue[Optional[Tuple[int, np.ndarray]]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None

    def offer_recipe(
        self,
        kind: str,
        layer_name: str,
        batch_size: int,
        lower: Callable[[np.ndarray], LoweringEntry],
    ) -> None:
        """Register the first-stacked-layer lowering recipe (first call wins)."""
        if self._recipe is None:
            self._recipe = (kind, layer_name, batch_size, lower)

    def submit(self, batch_index: int, data: np.ndarray) -> None:
        """Queue one upcoming batch for background lowering (main thread)."""
        if self._recipe is None:
            # No recipe yet (first batch still in flight, or the model's
            # first stacked layer never sees the raw batch): nothing a
            # background thread could compute faithfully.
            return
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._worker, name="lowering-prefetch", daemon=True
            )
            self._thread.start()
        self._queue.put((batch_index, data))

    def close(self) -> None:
        """Drain and join the worker (no-op when it never started)."""
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
            self._thread = None

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch_index, data = item
            kind, layer_name, batch_size, lower = self._recipe
            try:
                self._cache.get_or_compute(
                    (kind, layer_name, batch_size, batch_index),
                    lambda: lower(data),
                    record=False,
                )
            except Exception:  # pragma: no cover - deterministic math
                # Never take down the eval pass from the helper thread; the
                # hot loop recomputes the lowering itself on the cache miss.
                logger.exception("lowering prefetch failed for batch %d", batch_index)


def _prefetched_batches(loader, prefetcher: Optional[_LoweringPrefetcher]):
    """Iterate ``loader`` with one-batch lookahead feeding the prefetcher.

    Yields ``(batch_index, batch)`` exactly like ``enumerate(loader)``; when
    a prefetcher is given, batch ``i + 1`` is pulled (materialized) and
    submitted for background lowering *before* batch ``i`` is yielded, so
    its lowering overlaps batch ``i``'s GEMMs.
    """
    iterator = iter(loader)
    try:
        pending = next(iterator)
    except StopIteration:
        return
    index = 0
    while True:
        try:
            upcoming = next(iterator)
        except StopIteration:
            upcoming = None
        if upcoming is not None and prefetcher is not None:
            prefetcher.submit(index + 1, upcoming[0].data)
        yield index, pending
        if upcoming is None:
            return
        pending = upcoming
        index += 1


@dataclasses.dataclass
class EvalPipeline:
    """Shared configuration + state of the pipelined evaluation path.

    One instance is attached to an experiment context and rides into every
    framework, evaluator and trainer built from it, so the lowering cache is
    shared across population triage, campaign chunks and whole strategy-sweep
    arms (K arms over the same population lower each eval batch once, not K
    times).  ``prefetch`` gates the background lowering thread
    (``--no-prefetch``), ``widened_eval`` gates multi-checkpoint GEMM
    widening, and ``lowering_cache_mb`` caps the shared cache
    (``--lowering-cache-mb``).  Every knob is a pure throughput lever:
    results are bit-identical in all configurations.
    """

    prefetch: bool = True
    widened_eval: bool = True
    lowering_cache_mb: float = DEFAULT_LOWERING_CACHE_MB

    def __post_init__(self) -> None:
        if self.lowering_cache_mb < 0:
            raise ValueError(
                f"lowering_cache_mb must be non-negative, got {self.lowering_cache_mb}"
            )
        self.cache = LoweringCache(max_bytes=self._max_bytes())

    def _max_bytes(self) -> int:
        return int(self.lowering_cache_mb * 1024 * 1024)

    def configure(
        self,
        prefetch: Optional[bool] = None,
        widened_eval: Optional[bool] = None,
        lowering_cache_mb: Optional[float] = None,
    ) -> "EvalPipeline":
        """Apply CLI/engine overrides in place (shrinking the cap evicts)."""
        if prefetch is not None:
            self.prefetch = bool(prefetch)
        if widened_eval is not None:
            self.widened_eval = bool(widened_eval)
        if lowering_cache_mb is not None:
            if lowering_cache_mb < 0:
                raise ValueError(
                    f"lowering_cache_mb must be non-negative, got {lowering_cache_mb}"
                )
            self.lowering_cache_mb = float(lowering_cache_mb)
            self.cache.set_max_bytes(self._max_bytes())
        return self


def _conv_output_hw(shape: Tuple[int, ...], module: nn.Module) -> Tuple[int, int]:
    """Spatial output dims of ``module`` on an NCHW input of ``shape``.

    Mirrors :func:`im2col`'s arithmetic so fold geometry can be derived
    without waiting for the lowering (which may come from a cache).
    """
    kh, kw = _pair(module.kernel_size)
    sh, sw = _pair(module.stride)
    ph, pw = _pair(module.padding)
    out_h = (shape[2] + 2 * ph - kh) // sh + 1
    out_w = (shape[3] + 2 * pw - kw) // sw + 1
    return out_h, out_w


class UnsupportedModelError(RuntimeError):
    """The model contains layers the batched fault-aware trainer cannot stack.

    Raised at :class:`BatchedFaultTrainer` construction (never mid-training).
    Every parametric layer family in this repository (``Linear``, ``Conv2d``,
    ``BatchNorm1d/2d``) stacks, so this only fires for user-defined layers
    with trainable parameters the trainer does not know how to fold per chip.
    """

# Stacked per-chip weights cost ``chips x model-size`` floats; population
# helpers evaluate in chunks of this many chips to bound peak memory.
DEFAULT_CHIP_CHUNK = 16


@dataclasses.dataclass
class _BatchedLayer:
    """One mappable layer with its B stacked, pre-masked GEMM weights."""

    name: str
    module: nn.Module
    stack: np.ndarray  # (B, N_out, K) masked per-chip weights
    wide: Optional[np.ndarray] = None  # (K, B * N_out), built on first shared use

    @property
    def stacked_t(self) -> np.ndarray:
        """The (B, K, N_out) matmul operand (transposed view, zero-copy)."""
        return self.stack.transpose(0, 2, 1)

    def wide_weights(self) -> np.ndarray:
        """The (K, B * N_out) operand of the shared-prefix wide GEMM."""
        if self.wide is None:
            chips, out_dim, k = self.stack.shape
            self.wide = np.ascontiguousarray(
                self.stack.transpose(2, 0, 1).reshape(k, chips * out_dim)
            )
        return self.wide


def _as_eval_loader(data: Union[Dataset, DataLoader], batch_size: int) -> DataLoader:
    if isinstance(data, DataLoader):
        return data
    return DataLoader(data, batch_size=batch_size, shuffle=False, seed=0)


class BatchedFaultEvaluator:
    """Evaluate one model under B per-chip fault-mask sets in batched passes.

    Parameters
    ----------
    model:
        The model whose *current* weights are the shared starting point (for
        the Reduce flow: the pre-trained DNN).  Masked weight stacks are
        captured at construction; biases, batch-norm statistics and every
        non-mappable parameter are read live at evaluation time.
    mask_sets:
        One mask dict per chip (as produced by ``build_fap_masks``), all with
        identical layer keys.  ``True`` marks a weight forced to zero.
    lowering_cache:
        Optional shared :class:`LoweringCache`.  When given,
        :meth:`evaluate_accuracy` caches (and reuses) the shared-prefix
        im2col lowering of each eval batch keyed by batch index, so several
        evaluators walking the same unshuffled data — e.g. successive chip
        chunks of a population triage, or later arms of a strategy sweep —
        lower each batch exactly once.  Only valid across evaluators that
        share the model weights and iterate the same data in order (batch
        size rides in the cache key).
    prefetch:
        Pipeline the eval pass: while one batch's stacked GEMMs run, a
        background thread lowers the *next* batch into ``lowering_cache``
        (no-op without a cache, or when the model's first stacked layer
        does not consume the raw input batch).  Results are bit-identical
        with prefetch on or off.
    """

    def __init__(
        self,
        model: nn.Module,
        mask_sets: Sequence[MaskDict],
        lowering_cache: Optional[LoweringCache] = None,
        prefetch: bool = True,
    ) -> None:
        if not mask_sets:
            raise ValueError("mask_sets must contain at least one chip")
        self.model = model
        self.num_chips = len(mask_sets)
        self._lowering_cache = lowering_cache
        self._prefetch = bool(prefetch)
        self._prefetcher: Optional[_LoweringPrefetcher] = None
        self._prefetch_probe: Optional[np.ndarray] = None
        self._eval_batch_size: Optional[int] = None
        # Index of the eval batch currently in flight (None outside
        # evaluate_accuracy: inputs of unknown identity are never cached).
        self._batch_index: Optional[int] = None
        key_set = set(mask_sets[0])
        for index, masks in enumerate(mask_sets[1:], start=1):
            if set(masks) != key_set:
                raise ValueError(
                    f"mask set {index} has layer keys {sorted(masks)} != {sorted(key_set)}"
                )
        modules = dict(model.named_modules())
        self._layers: List[_BatchedLayer] = []
        # True while the forward pass is still on the shared (un-replicated)
        # prefix; flipped by the first masked layer that executes.
        self._shared_prefix = True
        for name in mask_sets[0]:
            module = modules.get(name)
            if module is None:
                raise KeyError(f"mask refers to unknown layer {name!r}")
            weight = getattr(module, "weight", None)
            if weight is None:
                raise ValueError(f"layer {name!r} has no weight to mask")
            if not isinstance(module, (nn.Linear, nn.Conv2d)):
                raise TypeError(f"layer {name!r} is not mappable (Linear/Conv2d)")
            out_dim = weight.data.shape[0]
            stacked = np.empty((self.num_chips,) + weight.data.shape, dtype=weight.data.dtype)
            for chip, masks in enumerate(mask_sets):
                mask = masks[name]
                if mask.shape != weight.data.shape:
                    raise ValueError(
                        f"mask shape {mask.shape} does not match weight shape "
                        f"{weight.data.shape} for layer {name!r}"
                    )
                # np.where (not multiply) so masked entries are exact +0.0,
                # bit-identical to the serial ``weight.data[mask] = 0.0`` path.
                stacked[chip] = np.where(mask, weight.data.dtype.type(0), weight.data)
            self._layers.append(
                _BatchedLayer(
                    name=name, module=module, stack=stacked.reshape(self.num_chips, out_dim, -1)
                )
            )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_fault_maps(
        cls,
        model: nn.Module,
        fault_maps: Iterable[FaultMap],
        column_permutations: Optional[Dict[str, Sequence[int]]] = None,
    ) -> "BatchedFaultEvaluator":
        """Build the evaluator straight from per-chip fault maps."""
        mask_sets = [
            model_fault_masks(model, fault_map, column_permutations)
            for fault_map in fault_maps
        ]
        return cls(model, mask_sets)

    # -- batched forward plumbing --------------------------------------------

    def _expand_shared(self, gemm_input: np.ndarray, layer: _BatchedLayer) -> np.ndarray:
        """Shared-prefix GEMM: one ``(P, K)`` operand against all B chips.

        Returns the folded ``(B, P, N_out)`` result.  The per-chip weight
        columns are concatenated into one ``(K, B * N_out)`` operand so a
        single wide GEMM replaces B narrow ones.
        """
        rows = gemm_input.shape[0]
        out = gemm_input @ layer.wide_weights()  # (P, B * N_out)
        return out.reshape(rows, self.num_chips, -1).transpose(1, 0, 2)

    def _gemm(self, data: np.ndarray, layer: _BatchedLayer, shared: bool) -> np.ndarray:
        """Per-chip GEMM plus bias, ``(B, P, N_out)``.

        Shared-prefix inputs are one ``(P, K)`` operand; folded-suffix inputs
        are ``(B * P, K)`` rows, chip ``b``'s block against its own weights.
        """
        if shared:
            out = self._expand_shared(data, layer)
        else:
            per_chip = data.shape[0] // self.num_chips
            out = np.matmul(
                data.reshape(self.num_chips, per_chip, data.shape[1]), layer.stacked_t
            )
        if layer.module.bias is not None:
            out += layer.module.bias.data
        return out

    def _linear_forward(self, layer: _BatchedLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            data = x.data
            if data.ndim != 2:
                data = data.reshape(data.shape[0], -1)
            shared = self._shared_prefix
            self._shared_prefix = False
            out = self._gemm(data, layer, shared)
            return nn.Tensor(out.reshape(out.shape[0] * out.shape[1], -1))

        return forward

    def _lower_cols(self, data: np.ndarray, layer: _BatchedLayer, shared: bool) -> np.ndarray:
        module = layer.module
        lower = lambda: im2col(data, module.kernel_size, module.stride, module.padding)
        if not (shared and self._lowering_cache is not None and self._batch_index is not None):
            return lower()[0]
        prefetcher = self._prefetcher
        if prefetcher is not None and data is self._prefetch_probe:
            # The raw input batch reaches this layer unchanged, so upcoming
            # batches can be lowered off-thread faithfully.
            prefetcher.offer_recipe(
                "im2col",
                layer.name,
                self._eval_batch_size,
                lambda d: im2col(d, module.kernel_size, module.stride, module.padding),
            )
        cols, _, _ = self._lowering_cache.get_or_compute(
            ("im2col", layer.name, self._eval_batch_size, self._batch_index), lower
        )
        return cols

    def _conv_forward(self, layer: _BatchedLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            data = x.data
            shared = self._shared_prefix
            self._shared_prefix = False
            out_h, out_w = _conv_output_hw(data.shape, layer.module)
            out = self._gemm(self._lower_cols(data, layer, shared), layer, shared)
            folded = out.shape[0] * out.shape[1] // (out_h * out_w)
            return nn.Tensor(
                np.ascontiguousarray(out.reshape(folded, out_h, out_w, -1).transpose(0, 3, 1, 2))
            )

        return forward

    @contextlib.contextmanager
    def _patched(self):
        """Temporarily route every mappable layer through its batched GEMM."""
        patched: List[nn.Module] = []
        try:
            for layer in self._layers:
                if "forward" in layer.module.__dict__:
                    raise RuntimeError(
                        f"layer {layer.name!r} already has a patched forward "
                        "(nested batched evaluation is not supported)"
                    )
                make = (
                    self._linear_forward
                    if isinstance(layer.module, nn.Linear)
                    else self._conv_forward
                )
                object.__setattr__(layer.module, "forward", make(layer))
                patched.append(layer.module)
            yield
        finally:
            for module in reversed(patched):
                object.__delattr__(module, "forward")

    def _forward_all_chips(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for one (shared) input batch under every chip: (B, n, C)."""
        self._shared_prefix = True
        logits = self.model(nn.Tensor(inputs)).data
        if self._shared_prefix:
            # No masked layer executed (empty mask sets): every chip sees the
            # same logits.
            return np.broadcast_to(logits[None], (self.num_chips,) + logits.shape)
        return logits.reshape(self.num_chips, inputs.shape[0], -1)

    # -- evaluation ----------------------------------------------------------

    def evaluate_logits(self, inputs: Union[nn.Tensor, np.ndarray]) -> np.ndarray:
        """Logits of one input batch under every chip: ``(B, n, classes)``."""
        data = inputs.data if isinstance(inputs, nn.Tensor) else np.asarray(inputs)
        was_training = self.model.training
        self.model.eval()
        try:
            with nn.no_grad(), self._patched():
                return self._forward_all_chips(data).copy()
        finally:
            if was_training:
                self.model.train()

    def evaluate_accuracy(
        self,
        data: Union[Dataset, DataLoader],
        batch_size: int = 128,
    ) -> List[float]:
        """Per-chip top-1 accuracy on ``data`` (one pass over the loader)."""
        loader = _as_eval_loader(data, batch_size=batch_size)
        correct = np.zeros(self.num_chips, dtype=np.int64)
        total = 0
        was_training = self.model.training
        self.model.eval()
        prefetcher = (
            _LoweringPrefetcher(self._lowering_cache)
            if self._prefetch and self._lowering_cache is not None
            else None
        )
        self._prefetcher = prefetcher
        self._eval_batch_size = batch_size
        try:
            with nn.no_grad(), self._patched():
                for batch_index, (inputs, targets) in _prefetched_batches(
                    loader, prefetcher
                ):
                    self._batch_index = batch_index
                    data_array = inputs.data
                    self._prefetch_probe = data_array
                    n = data_array.shape[0]
                    logits = self._forward_all_chips(data_array)
                    predictions = logits.argmax(axis=-1)
                    correct += (predictions == np.asarray(targets)[None, :]).sum(axis=1)
                    total += n
        finally:
            self._batch_index = None
            self._prefetch_probe = None
            self._prefetcher = None
            self._eval_batch_size = None
            if prefetcher is not None:
                prefetcher.close()
            if was_training:
                self.model.train()
        if total == 0:
            return [0.0] * self.num_chips
        return [int(c) / total for c in correct]


def evaluate_chip_accuracies(
    model: nn.Module,
    data: Union[Dataset, DataLoader],
    mask_sets: Sequence[MaskDict],
    batch_size: int = 128,
    chip_chunk: int = DEFAULT_CHIP_CHUNK,
    lowering_cache: Optional[LoweringCache] = None,
    prefetch: bool = True,
) -> List[float]:
    """Accuracy of ``model`` under each chip's masks, batched in chip chunks.

    The convenience wrapper over :class:`BatchedFaultEvaluator` used by the
    population triage and campaign checkpoints: peak memory is bounded by
    ``chip_chunk`` stacked weight copies plus the byte-capped
    :class:`LoweringCache`, regardless of population size.

    Every chunk walks the same unshuffled eval batches, so the shared-prefix
    im2col lowering is cached across chunks (``lowering_cache``, created per
    call when not supplied): each test batch is lowered once for the whole
    population instead of once per chunk.  Callers evaluating the *same
    model and data* repeatedly (e.g. triage over a population larger than
    one mask-chunk, or successive sweep arms) may pass their own cache to
    extend the reuse.  ``prefetch`` pipelines each pass: the next batch's
    lowering is computed on a background thread while the current batch's
    stacked GEMMs run (bit-identical results either way).
    """
    if chip_chunk < 1:
        raise ValueError(f"chip_chunk must be >= 1, got {chip_chunk}")
    cache = lowering_cache if lowering_cache is not None else LoweringCache()
    accuracies: List[float] = []
    for start in range(0, len(mask_sets), chip_chunk):
        evaluator = BatchedFaultEvaluator(
            model,
            mask_sets[start:start + chip_chunk],
            lowering_cache=cache,
            prefetch=prefetch,
        )
        accuracies.extend(evaluator.evaluate_accuracy(data, batch_size=batch_size))
    return accuracies


# ---------------------------------------------------------------------------
# Batched multi-chip fault-aware retraining (backward pass)
# ---------------------------------------------------------------------------
#
# Retraining B chips on *shared* mini-batches is the training-time analogue of
# the evaluator above: every chip sees the same input batch, so the first
# stacked layer consumes one shared GEMM operand (one lowering) and everything
# downstream is carried with a folded ``(B * batch, ...)`` leading axis and
# stacked per-chip GEMMs.  Unlike evaluation, *every* parametric layer must be
# stacked — per-chip gradients diverge all weights after the first optimizer
# step — and the backward pass mirrors the serial autograd Functions
# slice-for-slice:
#
# * each stacked ``np.matmul`` presents chip ``b``'s 2-D slice to BLAS with
#   the same memory characteristics (contiguity / transposition) as the
#   serial ``Linear``/``Conv2dFunction`` GEMM, so slices are bit-identical on
#   a given BLAS build (pinned by tests/test_batched_fat.py);
# * all surrounding ops (activations, pooling, flatten, loss log-softmax) are
#   strictly per-sample and run unmodified on folded tensors;
# * the loss is a per-chip mean, so one backward from the summed per-chip
#   losses delivers exactly the gradient each serial run computes.


def _fat_timer(name: str):
    """Timer attributed to the FAT phase the caller is running in.

    The stacked Functions serve both the training step (grad enabled) and the
    trainer's checkpoint-eval forward (under ``nn.no_grad()``); splitting the
    timers by grad mode keeps eval-side GEMM/lowering cost out of the training
    attribution (``fat.train.*`` vs ``fat.eval.*``).
    """
    phase = "train" if is_grad_enabled() else "eval"
    return metrics.timer(f"fat.{phase}.{name}")


class _StackedLinearFunction(Function):
    """B per-chip affine transforms sharing one autograd node.

    ``shared=True`` (the first stacked layer of a step): ``x`` is the shared
    ``(n, K)`` batch and the forward runs one wide GEMM
    ``(n, K) @ (K, B * N)`` — the per-chip weight columns concatenated — whose
    per-chip slices equal the serial ``x @ W_b.T``.  The backward splits the
    folded gradient per chip and computes the stacked weight gradients
    ``grad_b.T @ x`` against the shared operand.

    ``shared=False``: ``x`` is folded ``(B * n, K)`` and forward/backward are
    stacked batched matmuls whose slices mirror the serial GEMMs exactly.
    """

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,  # (B, N, K)
        bias: Optional[np.ndarray],  # (B, N)
        num_chips: int,
        shared: bool,
    ) -> np.ndarray:
        self.save_for_backward(x, weight, bias is not None, num_chips, shared)
        if shared:
            chips, out_dim, k = weight.shape
            wide = weight.transpose(2, 0, 1).reshape(k, chips * out_dim)  # copy
            out = (x @ wide).reshape(x.shape[0], chips, out_dim).transpose(1, 0, 2)
        else:
            per_chip = x.shape[0] // num_chips
            out = np.matmul(
                x.reshape(num_chips, per_chip, x.shape[1]), weight.transpose(0, 2, 1)
            )
        if bias is not None:
            out = out + bias[:, None, :]
        else:
            out = np.ascontiguousarray(out)
        return out.reshape(out.shape[0] * out.shape[1], out.shape[2])

    def backward(self, grad_output: np.ndarray):
        x, weight, has_bias, num_chips, shared = self.saved
        out_dim = weight.shape[1]
        g = grad_output.reshape(num_chips, grad_output.shape[0] // num_chips, out_dim)
        if shared:
            x_op: np.ndarray = x  # (n, K), broadcast against all chips
        else:
            x_op = x.reshape(num_chips, x.shape[0] // num_chips, x.shape[1])
        # Chip b's slice is the serial ``grad_output.T @ x`` (same transposed
        # view against the same activation operand).
        grad_w = np.matmul(g.transpose(0, 2, 1), x_op)
        grad_x = None
        if not self.needs_input_grad or self.needs_input_grad[0]:
            grad_x_folded = np.matmul(g, weight)  # (B, n, K)
            if shared:
                # The shared operand feeds every chip's branch, so its
                # gradient sums over chips (only reachable when the shared
                # input itself requires grad — never the data batch).
                grad_x = grad_x_folded.sum(axis=0)
            else:
                grad_x = grad_x_folded.reshape(x.shape)
        if has_bias:
            grad_b = g.sum(axis=1)
            return grad_x, grad_w, grad_b
        return grad_x, grad_w


def _stacked_im2col_t(
    x: np.ndarray,
    num_chips: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, int, int]:
    """Lower folded ``(B * n, C, H, W)`` activations into a ``(B, K, P)`` stack.

    Chip ``b``'s slice is exactly ``im2col_t(x[b * n:(b + 1) * n], ...)`` —
    same gather, same element order — produced in one copy straight into the
    stacked layout (no intermediate folded ``colsT`` + re-blocking pass).
    """
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    total, c, h, w = x.shape
    per_chip = total // num_chips
    if ph or pw:
        x = _pad_nchw(x, ph, pw)
    padded_h, padded_w = h + 2 * ph, w + 2 * pw
    if padded_h < kh or padded_w < kw:
        raise ValueError(
            f"kernel {kernel_size} larger than padded input ({padded_h}, {padded_w})"
        )
    out_h = (padded_h - kh) // sh + 1
    out_w = (padded_w - kw) // sw + 1
    stack = np.empty(
        (num_chips, c * kh * kw, per_chip * out_h * out_w), dtype=x.dtype
    )
    dest = stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    if out_h * out_w < kh * kw:
        # Fewer output positions than kernel offsets (see the loop-order
        # rule in repro.nn.functional): gather one receptive field per copy.
        split = x.reshape(num_chips, per_chip, c, padded_h, padded_w)
        for oh, ow, rows, columns in _output_windows(out_h, out_w, kernel_size, stride):
            dest[..., oh, ow] = split[:, :, :, rows, columns].transpose(0, 2, 3, 4, 1)
        return stack, out_h, out_w
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    if sh != 1 or sw != 1:
        windows = windows[:, :, ::sh, ::sw, :, :]
    # (B*n, c, oh, ow, kh, kw) -> split the chip axis (still a view).
    split = windows.reshape((num_chips, per_chip) + windows.shape[1:])
    np.copyto(dest, split.transpose(0, 2, 5, 6, 1, 3, 4))
    return stack, out_h, out_w


def _stacked_col2im_t(
    cols_stack: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    num_chips: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`_stacked_im2col_t` back to folded NCHW.

    One phase sweep over the whole stack; chip ``b``'s slice receives exactly
    the adds ``col2im_t(cols_stack[b], ...)`` performs, in the same order.
    """
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    total, c, h, w = x_shape
    per_chip = total // num_chips
    padded_h, padded_w = h + 2 * ph, w + 2 * pw
    colsK = cols_stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    if out_h * out_w < kh * kw:
        # Output positions in reverse (see repro.nn.functional): fields
        # (oh, ow, kh, kw, c, B, n) -> sums (padded_h, padded_w, c, B, n).
        sums = _scatter_windows(
            colsK.transpose(5, 6, 2, 3, 1, 0, 4), padded_h, padded_w, stride
        )
        dx = np.ascontiguousarray(sums.transpose(3, 4, 2, 0, 1)).reshape(
            total, c, padded_h, padded_w
        )
    else:
        dx = np.zeros((total, c, padded_h, padded_w), dtype=cols_stack.dtype)
        dx_stack = dx.reshape(num_chips, per_chip, c, padded_h, padded_w)
        for i in range(kh):
            for j in range(kw):
                view = dx_stack[:, :, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
                view += colsK[:, :, i, j].transpose(0, 2, 1, 3, 4)
    if ph or pw:
        dx = dx[:, :, ph:ph + h, pw:pw + w]
    return dx


class _StackedConv2dFunction(Function):
    """B per-chip 2-D convolutions sharing one im2col lowering per step.

    The shared first layer lowers the input batch once (``im2col_t``) and
    multiplies it against all B weight matrices in one wide ``(B * O, K) @
    (K, P)`` GEMM; folded layers lower the folded activations straight into a
    ``(B, K, P)`` stack and run stacked GEMMs.  Every GEMM presents chip
    ``b``'s slice (or row block) to BLAS exactly like the serial
    :class:`~repro.nn.functional.Conv2dFunction` does.
    """

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,  # (B, O, C, kh, kw)
        bias: Optional[np.ndarray],  # (B, O)
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        num_chips: int,
        shared: bool,
        lowering: Optional[Tuple[np.ndarray, int, int]] = None,
    ) -> np.ndarray:
        chips, out_channels, in_channels, kh, kw = weight.shape
        if x.shape[1] != in_channels:
            raise ValueError(
                f"input has {x.shape[1]} channels but weight expects {in_channels}"
            )
        w2 = weight.reshape(chips, out_channels, -1)
        if shared:
            per_chip = x.shape[0]
            if lowering is not None:
                # Pre-lowered shared input (the trainer's eval-pass cache);
                # only read here, never saved for backward (eval runs under
                # no_grad), so the cached array is never aliased or mutated.
                cols_op, out_h, out_w = lowering
            else:
                with _fat_timer("im2col_seconds"):
                    cols_op, out_h, out_w = im2col_t(x, (kh, kw), stride, padding)  # (K, P)
            # Wide GEMM: all chips' weight rows in one (B * O, K) @ (K, P)
            # call.  Per-chip row blocks are bit-identical to the serial
            # (O, K) @ (K, P) GEMM on this BLAS build (pinned by tests), and
            # one M-wide call is far faster than B narrow ones.
            with _fat_timer("gemm_seconds"):
                out_t = (w2.reshape(chips * out_channels, -1) @ cols_op).reshape(
                    chips, out_channels, -1
                )
        else:
            per_chip = x.shape[0] // num_chips
            with _fat_timer("im2col_seconds"):
                cols_op, out_h, out_w = _stacked_im2col_t(
                    x, num_chips, (kh, kw), stride, padding
                )
            with _fat_timer("gemm_seconds"):
                out_t = np.matmul(w2, cols_op)  # (B, O, P)
        if bias is not None:
            out_t += bias[:, :, None]
        out = out_t.reshape(chips, out_channels, per_chip, out_h, out_w).transpose(
            0, 2, 1, 3, 4
        )
        if is_grad_enabled():
            self.save_for_backward(
                cols_op, weight, x.shape, (kh, kw), stride, padding,
                out_h, out_w, bias is not None, num_chips, shared,
            )
        out = np.ascontiguousarray(out)
        return out.reshape(chips * per_chip, out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray):
        (cols_op, weight, x_shape, kernel, stride, padding,
         out_h, out_w, has_bias, num_chips, shared) = self.saved
        chips, out_channels = weight.shape[:2]
        per_chip = grad_output.shape[0] // num_chips
        w2 = weight.reshape(chips, out_channels, -1)
        # (B*n, O, oh, ow) -> (B, O, n*oh*ow): chip b's block is the serial
        # channel-major gather of its own gradient.
        g_t = np.ascontiguousarray(
            grad_output.reshape(num_chips, per_chip, out_channels, out_h, out_w)
            .transpose(0, 2, 1, 3, 4)
        ).reshape(num_chips, out_channels, -1)
        # Backward only ever runs during training steps.
        with metrics.timer("fat.train.gemm_seconds"):
            if shared:
                # Wide GEMM against the shared columns: one (B * O, P) @ (P, K)
                # call whose per-chip row blocks equal the serial NT GEMM.
                grad_w = (
                    g_t.reshape(num_chips * out_channels, -1) @ cols_op.T
                ).reshape(num_chips, out_channels, -1)
            else:
                grad_w = np.matmul(g_t, cols_op.transpose(0, 2, 1))
        grad_w = grad_w.reshape(weight.shape)
        grad_x = None
        if not self.needs_input_grad or self.needs_input_grad[0]:
            grad_colsT = np.matmul(w2.transpose(0, 2, 1), g_t)  # (B, K, P)
            if shared:
                grad_x = np.zeros(x_shape, dtype=grad_output.dtype)
                for chip in range(num_chips):
                    grad_x += col2im_t(
                        grad_colsT[chip], x_shape, kernel, stride, padding, out_h, out_w
                    )
            else:
                grad_x = _stacked_col2im_t(
                    grad_colsT, x_shape, num_chips, kernel, stride, padding,
                    out_h, out_w,
                )
        if has_bias:
            grad_bias = g_t.sum(axis=2)
            return grad_x, grad_w, grad_bias
        return grad_x, grad_w


class _StackedNllLossFunction(Function):
    """Per-chip mean NLL of folded log-probabilities: returns ``(B,)`` losses.

    Chip ``b``'s value and gradient replicate the serial
    ``F.cross_entropy(..., reduction="mean")`` arithmetic operation-for-
    operation (including the optional label-smoothing composition), so one
    backward from the summed losses is bit-identical to B serial backwards.
    """

    def forward(
        self,
        log_probs: np.ndarray,
        targets: np.ndarray,
        num_chips: int,
        label_smoothing: float,
    ) -> np.ndarray:
        if log_probs.ndim != 2:
            raise ValueError(
                f"stacked loss expects (B * n, C) log-probabilities, got {log_probs.shape}"
            )
        total_rows = log_probs.shape[0]
        if total_rows % num_chips:
            raise ValueError(
                f"{total_rows} rows do not fold into {num_chips} chips"
            )
        per_chip = total_rows // num_chips
        targets = np.asarray(targets).astype(np.int64).reshape(-1)
        if targets.shape[0] != per_chip:
            raise ValueError(
                f"targets length {targets.shape[0]} does not match per-chip batch {per_chip}"
            )
        tiled = np.tile(targets, num_chips)
        picked = log_probs[np.arange(total_rows), tiled].reshape(num_chips, per_chip)
        # Serial: -picked.mean() per chip; mean over each contiguous row uses
        # the same pairwise reduction as the standalone serial vector.
        hard = -picked.mean(axis=1)
        self.save_for_backward(
            log_probs.shape, tiled, per_chip, label_smoothing, log_probs.dtype, num_chips
        )
        if label_smoothing <= 0.0:
            return hard.astype(log_probs.dtype, copy=False)
        if not 0.0 <= label_smoothing < 1.0:
            # Same validation (and message) as the serial ``cross_entropy``.
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        # Mirror the serial composition
        #   hard * (1 - ls) + (-(sum(axis=-1).mean()) * (1 / C)) * ls
        # with the same float32 scalar coercions in the same order.
        num_classes = log_probs.shape[-1]
        w_hard = np.asarray(1.0 - label_smoothing, dtype=log_probs.dtype)
        w_smooth = np.asarray(label_smoothing, dtype=log_probs.dtype)
        inv_c = np.asarray(1.0 / num_classes, dtype=log_probs.dtype)
        smooth = -log_probs.sum(axis=-1).reshape(num_chips, per_chip).mean(axis=1)
        return hard * w_hard + (smooth * inv_c) * w_smooth

    def backward(self, grad_output: np.ndarray):
        shape, tiled, per_chip, label_smoothing, dtype, num_chips = self.saved
        grad = np.zeros(shape, dtype=dtype)
        # Same double-literal division and float32 assignment as the serial
        # NllLossFunction ("mean" reduction over the per-chip batch).
        grad[np.arange(shape[0]), tiled] = -1.0 / per_chip
        g3 = grad.reshape(num_chips, per_chip, shape[1])
        upstream = np.asarray(grad_output, dtype=dtype).reshape(num_chips)
        if label_smoothing <= 0.0:
            g3 *= upstream[:, None, None]
            return (grad,)
        num_classes = shape[1]
        w_hard = np.asarray(1.0 - label_smoothing, dtype=dtype)
        w_smooth = np.asarray(label_smoothing, dtype=dtype)
        inv_c = np.asarray(1.0 / num_classes, dtype=dtype)
        # Hard branch: upstream * (1 - ls) scales the -1/n entries.
        g3 *= (upstream * w_hard)[:, None, None]
        # Smooth branch, replayed through the serial op chain
        # Mul(ls) -> Mul(1/C) -> Neg -> Mean(/n) -> broadcast over (n, C).
        smooth_grad = -((upstream * w_smooth) * inv_c) / per_chip
        g3 += smooth_grad[:, None, None]
        return (grad,)


def stacked_cross_entropy(
    logits: nn.Tensor,
    targets: np.ndarray,
    num_chips: int,
    label_smoothing: float = 0.0,
) -> nn.Tensor:
    """Per-chip cross-entropy of folded ``(B * n, C)`` logits: a ``(B,)`` tensor."""
    log_probs = logits.log_softmax(axis=-1)
    return _StackedNllLossFunction.apply(
        log_probs, np.asarray(targets), num_chips, float(label_smoothing)
    )


class _StackedBatchNormFunction(Function):
    """B per-chip training-mode batch norms with per-chip-fold statistics.

    Chip ``b``'s fold of the folded ``(B * n, ...)`` activations is
    normalised with its *own* batch statistics using the exact serial fused
    arithmetic — :func:`repro.nn.functional._bn_train_forward` /
    ``_bn_train_backward`` applied to the contiguous per-chip slice — so
    outputs and gradients are bit-identical to B serial
    :class:`~repro.nn.functional.BatchNormFunction` calls.  ``shared=True``
    (a batch norm reached before any other stacked layer) reads the
    un-replicated shared input once per chip and emits a folded output:
    per-chip gamma/beta diverge after the first optimizer step, so a stacked
    batch norm always ends the shared prefix.

    ``stats_out`` collects ``(batch_mean, biased_batch_var)`` per chip for
    the per-chip running-statistics update.
    """

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,  # (B, C) per-chip gamma
        bias: np.ndarray,  # (B, C) per-chip beta
        num_chips: int,
        eps: float,
        shared: bool,
        stats_out: Optional[list] = None,
    ) -> np.ndarray:
        reduce_axes, param_shape = _bn_axes(x.ndim)
        per_chip = x.shape[0] if shared else x.shape[0] // num_chips
        out = np.empty((num_chips * per_chip,) + x.shape[1:], dtype=x.dtype)
        normalised = np.empty_like(out)
        inv_stds: List[np.ndarray] = []
        for chip in range(num_chips):
            fold = slice(chip * per_chip, (chip + 1) * per_chip)
            x_b = x if shared else x[fold]
            out_b, norm_b, inv_std, mean, var = _bn_train_forward(
                x_b,
                weight[chip].reshape(param_shape),
                bias[chip].reshape(param_shape),
                reduce_axes,
                eps,
            )
            out[fold] = out_b
            normalised[fold] = norm_b
            inv_stds.append(inv_std)
            if stats_out is not None:
                stats_out.append((mean.reshape(-1), var.reshape(-1)))
        if is_grad_enabled():
            self.save_for_backward(
                weight, normalised, inv_stds, reduce_axes, param_shape,
                num_chips, per_chip, shared, x.shape,
            )
        return out

    def backward(self, grad_output: np.ndarray):
        (weight, normalised, inv_stds, reduce_axes, param_shape,
         num_chips, per_chip, shared, x_shape) = self.saved
        grad_w = np.empty_like(weight)
        grad_b = np.empty_like(weight)
        # Skip the dx computation entirely for a first-layer batch norm
        # whose input is the data batch (mirrors the conv/linear gating).
        need_x = not self.needs_input_grad or self.needs_input_grad[0]
        grad_x: Optional[np.ndarray] = None
        if need_x:
            if shared:
                # The shared input feeds every chip's branch, so its gradient
                # sums over chips (only reachable when the shared input itself
                # requires grad — never the data batch).
                grad_x = np.zeros(x_shape, dtype=grad_output.dtype)
            else:
                grad_x = np.empty(x_shape, dtype=grad_output.dtype)
        for chip in range(num_chips):
            fold = slice(chip * per_chip, (chip + 1) * per_chip)
            dx_b, dgamma, dbeta = _bn_train_backward(
                grad_output[fold],
                weight[chip].reshape(param_shape),
                normalised[fold],
                inv_stds[chip],
                reduce_axes,
                need_input_grad=need_x,
            )
            grad_w[chip] = dgamma
            grad_b[chip] = dbeta
            if need_x:
                if shared:
                    grad_x += dx_b
                else:
                    grad_x[fold] = dx_b
        return grad_x, grad_w, grad_b


@dataclasses.dataclass
class _StackedNormLayer:
    """One batch-norm layer with B stacked per-chip parameters and statistics.

    Unlike the GEMM layers, batch norm carries trainable per-chip gamma/beta
    *and* non-trainable per-chip running statistics that diverge as soon as
    per-chip activations do — both live here as ``(B, C)`` stacks; the
    module's own buffers are never touched.
    """

    name: str
    module: nn.Module
    weight: "nn.Parameter"  # (B, C) gamma
    bias: "nn.Parameter"  # (B, C) beta
    running_mean: np.ndarray  # (B, C) float32
    running_var: np.ndarray  # (B, C) float32


@dataclasses.dataclass
class _StackedLayer:
    """One parametric layer with its B stacked per-chip weights (and masks)."""

    name: str
    module: nn.Module
    weight: "nn.Parameter"  # (B,) + weight shape
    bias: Optional["nn.Parameter"]  # (B, out) or None
    keep: Optional[np.ndarray]  # (B,) + weight shape float32; masked layers only

    def enforce_weight(self) -> None:
        if self.keep is not None:
            np.multiply(self.weight.data, self.keep, out=self.weight.data)

    def enforce_grad(self) -> None:
        if self.keep is not None and self.weight.grad is not None:
            np.multiply(self.weight.grad, self.keep, out=self.weight.grad)


# Upper bound on the summed stacked-parameter floats a widened multi-
# checkpoint eval may concatenate (64 M float32 = 256 MB of weight stacks;
# folded activations scale with the same C * B factor, so this doubles as a
# proxy cap on them).  Over the cap, deferred checkpoints evaluate one at a
# time — a memory fallback, never a correctness change.
WIDENED_EVAL_MAX_FLOATS = 64 * 1024 * 1024


@dataclasses.dataclass
class _EvalSnapshot:
    """Stacked weights + metadata of one deferred checkpoint evaluation."""

    epochs: float
    steps: int
    train_losses: np.ndarray  # (B,) float64, NaN where no steps ran
    layer_weights: List[np.ndarray]
    layer_biases: List[Optional[np.ndarray]]
    norm_weights: List[np.ndarray]
    norm_biases: List[np.ndarray]
    norm_means: List[np.ndarray]
    norm_vars: List[np.ndarray]

    @property
    def num_floats(self) -> int:
        arrays: List[Optional[np.ndarray]] = [
            *self.layer_weights, *self.layer_biases, *self.norm_weights,
            *self.norm_biases, *self.norm_means, *self.norm_vars,
        ]
        return sum(a.size for a in arrays if a is not None)


class BatchedFaultTrainer:
    """Fault-aware retraining of B chips in one batched training loop.

    Mirrors :class:`repro.training.Trainer` for B chips that share the same
    starting weights (the model's current state), training data, hyper-
    parameters, seed and epoch budget but differ in their fault masks: every
    optimizer step runs one folded forward/backward in which each GEMM is
    stacked over chips, followed by per-chip optimizer updates on the stacked
    parameters (the optimizer's elementwise update math over a ``(B, ...)``
    stack *is* B independent per-chip updates; gradient clipping is the only
    cross-element op and uses :func:`repro.nn.optim.clip_grad_norm_per_chip`).

    Exact serial equivalence: given the same :class:`TrainingConfig`, chip
    ``b``'s weights, losses and accuracies are bit-identical to a serial
    ``Trainer(model, ..., masks=mask_sets[b])`` run on this BLAS build
    (tests/test_batched_fat.py pins this).  The model itself is never
    modified: stacked copies are trained, and per-chip results are read back
    with :meth:`chip_state_dict`.

    Supported models are compositions of ``Linear``/``Conv2d`` (stacked
    GEMMs), ``BatchNorm1d/2d`` (stacked per-chip gamma/beta and running
    statistics with per-chip-fold batch statistics — see
    :class:`_StackedBatchNormFunction`), parameter-free per-sample layers
    (activations, pooling, flatten) and ``Dropout`` (shared noise, drawn
    from the same trainer-seeded stream as the serial runs).  Only unknown
    user-defined parametric layers raise :class:`UnsupportedModelError`.
    """

    def __init__(
        self,
        model: nn.Module,
        mask_sets: Sequence[MaskDict],
        train_data: Union[Dataset, DataLoader],
        eval_data: Union[Dataset, DataLoader],
        config=None,
        lowering_cache: Optional[LoweringCache] = None,
        prefetch: bool = True,
        widened_eval: bool = True,
    ) -> None:
        from repro.training import (
            TrainingConfig,
            _as_loader,
            require_nonempty_train_loader,
            seed_stochastic_layers,
        )
        from repro.utils.rng import derive_seed

        if not mask_sets:
            raise ValueError("mask_sets must contain at least one chip")
        key_set = set(mask_sets[0])
        for index, masks in enumerate(mask_sets[1:], start=1):
            if set(masks) != key_set:
                raise ValueError(
                    f"mask set {index} has layer keys {sorted(masks)} != {sorted(key_set)}"
                )
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self.num_chips = len(mask_sets)
        self.train_loader = _as_loader(
            train_data,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            seed=derive_seed(self.config.seed, "train-loader"),
        )
        require_nonempty_train_loader(self.train_loader)
        self.eval_data = eval_data
        self.batches_per_epoch = len(self.train_loader)
        self.steps_taken = 0
        # True while the current forward pass is still on the shared
        # (un-replicated) input; flipped by the first stacked layer.
        self._shared_prefix = True
        # Shared-prefix lowerings of the (unshuffled, deterministic) eval
        # batches, reused across every per-checkpoint evaluation of this
        # trainer — and, when the caller passes a shared cache, across
        # trainers, chip chunks and sweep arms.  Only consulted while
        # ``_eval_batch_index`` is set inside :meth:`evaluate`.
        self._eval_lowering = lowering_cache if lowering_cache is not None else LoweringCache()
        self._eval_batch_index: Optional[int] = None
        self._eval_batch_size: Optional[int] = None
        # Background double-buffering of eval-batch lowerings (bit-identical
        # either way; see _LoweringPrefetcher).
        self._prefetch = prefetch
        self._prefetcher: Optional[_LoweringPrefetcher] = None
        self._prefetch_probe: Optional[np.ndarray] = None
        # Multi-checkpoint GEMM widening: defer per-checkpoint evaluations
        # and run them as one (C * B)-chip stacked pass (see :meth:`train`).
        self._widened_eval = widened_eval

        self._layers: List[_StackedLayer] = []
        self._norm_layers: List[_StackedNormLayer] = []
        self._dropouts: List[nn.Module] = []
        parameters: List[nn.Parameter] = []
        for name, module in model.named_modules():
            if isinstance(module, nn.Dropout):
                self._dropouts.append(module)
                continue
            direct = [p for p in module._parameters.values() if p is not None]
            if not direct:
                continue
            if isinstance(module, nn.BatchNorm2d):  # BatchNorm1d subclasses it
                if name in key_set:
                    raise ValueError(
                        f"layer {name!r} is a batch norm and cannot carry a fault mask"
                    )
                weight_param = nn.Parameter(
                    np.repeat(module.weight.data[None], self.num_chips, axis=0)
                )
                bias_param = nn.Parameter(
                    np.repeat(module.bias.data[None], self.num_chips, axis=0)
                )
                self._norm_layers.append(
                    _StackedNormLayer(
                        name=name,
                        module=module,
                        weight=weight_param,
                        bias=bias_param,
                        running_mean=np.repeat(
                            np.asarray(module.running_mean)[None], self.num_chips, axis=0
                        ),
                        running_var=np.repeat(
                            np.asarray(module.running_var)[None], self.num_chips, axis=0
                        ),
                    )
                )
                # Same order as ``model.parameters()`` (weight before bias).
                parameters.append(weight_param)
                parameters.append(bias_param)
                continue
            if not isinstance(module, (nn.Linear, nn.Conv2d)):
                raise UnsupportedModelError(
                    f"layer {name!r} ({type(module).__name__}) has trainable "
                    "parameters but is not a stackable Linear/Conv2d/BatchNorm; "
                    "batched fault-aware retraining cannot fold it per chip"
                )
            weight = module.weight.data
            stack = np.empty((self.num_chips,) + weight.shape, dtype=weight.dtype)
            keep: Optional[np.ndarray] = None
            if name in key_set:
                keep = np.empty((self.num_chips,) + weight.shape, dtype=np.float32)
            for chip, masks in enumerate(mask_sets):
                if name in masks:
                    mask = masks[name]
                    if mask.shape != weight.shape:
                        raise ValueError(
                            f"mask shape {mask.shape} does not match weight shape "
                            f"{weight.shape} for layer {name!r}"
                        )
                    # np.where keeps masked entries exact +0.0, bit-identical
                    # to the serial ``weight.data[mask] = 0.0`` enforcement.
                    stack[chip] = np.where(mask, weight.dtype.type(0), weight)
                    keep[chip] = np.where(mask, np.float32(0.0), np.float32(1.0))
                else:
                    stack[chip] = weight
            weight_param = nn.Parameter(stack)
            bias_param: Optional[nn.Parameter] = None
            if module.bias is not None:
                bias_param = nn.Parameter(
                    np.repeat(module.bias.data[None], self.num_chips, axis=0)
                )
            self._layers.append(
                _StackedLayer(
                    name=name, module=module, weight=weight_param,
                    bias=bias_param, keep=keep,
                )
            )
            # Same order as ``model.parameters()`` (weight before bias per
            # module) so per-chip gradient clipping accumulates norms in the
            # serial order.
            parameters.append(weight_param)
            if bias_param is not None:
                parameters.append(bias_param)
        known = {layer.name for layer in self._layers}
        for name in key_set:
            if name not in known:
                raise KeyError(f"mask refers to unknown layer {name!r}")
        self._masked_layers = [layer for layer in self._layers if layer.keep is not None]
        self.optimizer = self.config.build_optimizer(parameters)
        # Dropout draws from trainer-seeded per-layer generators, exactly as
        # each serial Trainer with this config would reseed them.
        seed_stochastic_layers(self.model, self.config.seed)
        # Base state for chip_state_dict (stacked slices override trainables).
        self._base_state = model.state_dict()

    # -- batched forward plumbing --------------------------------------------

    @property
    def epochs_taken(self) -> float:
        return self.steps_taken / self.batches_per_epoch

    def _linear_forward(self, layer: _StackedLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            if x.ndim != 2:
                x = x.flatten(start_dim=1)
            shared = self._shared_prefix
            self._shared_prefix = False
            return _StackedLinearFunction.apply(
                x, layer.weight, layer.bias, self.num_chips, shared
            )

        return forward

    def _lower_eval_input(self, data: np.ndarray, layer: _StackedLayer) -> np.ndarray:
        module = layer.module
        prefetcher = self._prefetcher
        if prefetcher is not None and data is self._prefetch_probe:
            # The raw input batch reaches the first stacked layer, so the
            # lowering is a pure function of the batch: teach the prefetcher
            # to compute upcoming batches in the background.
            prefetcher.offer_recipe(
                "im2col_t",
                layer.name,
                self._eval_batch_size,
                lambda d: im2col_t(d, module.kernel_size, module.stride, module.padding),
            )
        cols, _, _ = self._eval_lowering.get_or_compute(
            ("im2col_t", layer.name, self._eval_batch_size, self._eval_batch_index),
            lambda: im2col_t(data, module.kernel_size, module.stride, module.padding),
        )
        return cols

    def _conv_forward(self, layer: _StackedLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            module = layer.module
            shared = self._shared_prefix
            self._shared_prefix = False
            lowering = None
            if shared and self._eval_batch_index is not None:
                # Evaluation pass over the unshuffled eval loader: the input
                # to the first stacked layer is a pure function of the batch
                # (the prefix holds no parametric or stochastic layers), so
                # its lowering is identical at every checkpoint and cached.
                out_h, out_w = _conv_output_hw(x.shape, module)
                lowering = (self._lower_eval_input(x.data, layer), out_h, out_w)
            return _StackedConv2dFunction.apply(
                x, layer.weight, layer.bias,
                module.stride, module.padding, self.num_chips, shared, lowering,
            )

        return forward

    def _norm_forward(self, layer: _StackedNormLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            module = layer.module
            shared = self._shared_prefix
            self._shared_prefix = False
            if module.training:
                stats: List[Tuple[np.ndarray, np.ndarray]] = []
                out = _StackedBatchNormFunction.apply(
                    x, layer.weight, layer.bias, self.num_chips, module.eps, shared, stats
                )
                # Per-chip running-statistics update: the same EMA arithmetic
                # the serial layer applies, on chip b's own batch statistics.
                reduce_axes, _ = _bn_axes(x.ndim)
                per_chip = x.shape[0] if shared else x.shape[0] // self.num_chips
                reduce_count = per_chip
                for axis in reduce_axes[1:]:
                    reduce_count *= x.shape[axis]
                for chip, (batch_mean, batch_var) in enumerate(stats):
                    new_mean, new_var = bn_running_update(
                        layer.running_mean[chip],
                        layer.running_var[chip],
                        batch_mean,
                        batch_var,
                        reduce_count,
                        module.momentum,
                    )
                    layer.running_mean[chip] = new_mean
                    layer.running_var[chip] = new_var
                return out
            # Eval mode: per-chip running statistics as constants, through
            # the same arithmetic helper as the serial eval path (slice for
            # slice bit-identical).  Evaluation runs under no_grad, so no
            # autograd node is needed.
            data = x.data
            _, param_shape = _bn_axes(data.ndim)
            per_chip = data.shape[0] if shared else data.shape[0] // self.num_chips
            out = np.empty((self.num_chips * per_chip,) + data.shape[1:], dtype=data.dtype)
            for chip in range(self.num_chips):
                fold = slice(chip * per_chip, (chip + 1) * per_chip)
                out[fold] = _bn_eval_forward(
                    data if shared else data[fold],
                    layer.weight.data[chip].reshape(param_shape),
                    layer.bias.data[chip].reshape(param_shape),
                    layer.running_mean[chip].reshape(param_shape),
                    layer.running_var[chip].reshape(param_shape),
                    module.eps,
                )
            return nn.Tensor(out)

        return forward

    def _dropout_forward(self, module: nn.Module):
        def forward(x: nn.Tensor) -> nn.Tensor:
            if not module.training or module.p == 0.0:
                return x
            if self._shared_prefix:
                # Shared input: one draw, exactly the serial call.
                return F.dropout(x, module.p, training=True, rng=module._rng)
            # Folded activations: draw the per-sample mask once (the same
            # stream position as each serial run) and tile it over chips.
            per_chip = x.shape[0] // self.num_chips
            shape = (per_chip,) + x.shape[1:]
            mask = (module._rng.random(shape) >= module.p).astype(x.dtype) / (1.0 - module.p)
            tiled = np.tile(mask, (self.num_chips,) + (1,) * (x.ndim - 1))
            return x * tiled

        return forward

    @contextlib.contextmanager
    def _patched(self):
        """Route stacked layers (and dropout) through their batched forwards."""
        patched: List[nn.Module] = []
        try:
            for layer in self._layers:
                if "forward" in layer.module.__dict__:
                    raise RuntimeError(
                        f"layer {layer.name!r} already has a patched forward "
                        "(nested batched execution is not supported)"
                    )
                make = (
                    self._linear_forward
                    if isinstance(layer.module, nn.Linear)
                    else self._conv_forward
                )
                object.__setattr__(layer.module, "forward", make(layer))
                patched.append(layer.module)
            for norm in self._norm_layers:
                if "forward" in norm.module.__dict__:
                    raise RuntimeError(
                        f"layer {norm.name!r} already has a patched forward "
                        "(nested batched execution is not supported)"
                    )
                object.__setattr__(norm.module, "forward", self._norm_forward(norm))
                patched.append(norm.module)
            for module in self._dropouts:
                if "forward" in module.__dict__:
                    raise RuntimeError("dropout layer already has a patched forward")
                object.__setattr__(module, "forward", self._dropout_forward(module))
                patched.append(module)
            yield
        finally:
            for module in reversed(patched):
                object.__delattr__(module, "forward")

    # -- training ------------------------------------------------------------

    def _train_steps(self, num_steps: int) -> np.ndarray:
        """Run ``num_steps`` batched steps; returns per-chip mean train loss."""
        if num_steps <= 0:
            return np.full(self.num_chips, np.nan)
        self.model.train()
        losses: List[np.ndarray] = []
        remaining = num_steps
        with trace.span(
            "fat.train_steps", steps=num_steps, chips=self.num_chips
        ), self._patched():
            while remaining > 0:
                for inputs, targets in self.train_loader:
                    self._shared_prefix = True
                    logits = self.model(inputs)
                    step_losses = stacked_cross_entropy(
                        logits, targets, self.num_chips,
                        label_smoothing=self.config.label_smoothing,
                    )
                    self.optimizer.zero_grad()
                    step_losses.sum().backward()
                    for layer in self._masked_layers:
                        layer.enforce_grad()
                    if self.config.grad_clip is not None:
                        nn.clip_grad_norm_per_chip(
                            self.optimizer.parameters,
                            self.config.grad_clip,
                            self.num_chips,
                        )
                    self.optimizer.step()
                    for layer in self._masked_layers:
                        layer.enforce_weight()
                    losses.append(step_losses.data.astype(np.float64))
                    self.steps_taken += 1
                    remaining -= 1
                    if remaining == 0:
                        break
        if not losses:
            return np.full(self.num_chips, np.nan)
        stacked = np.asarray(losses)  # (steps, B)
        # Serial records python floats and takes np.mean over the step list;
        # reduce each chip's contiguous step vector the same way.
        return np.array(
            [np.mean(np.ascontiguousarray(stacked[:, chip])) for chip in range(self.num_chips)]
        )

    def _eval_forward_all_chips(self, inputs: np.ndarray) -> np.ndarray:
        """Per-chip logits for one eval batch: ``(B, n, classes)``."""
        self._shared_prefix = True
        logits = self.model(nn.Tensor(inputs)).data
        if self._shared_prefix:
            # No stacked layer executed: all chips share logits.
            return np.broadcast_to(logits[None], (self.num_chips,) + logits.shape)
        return logits.reshape(self.num_chips, inputs.shape[0], -1)

    def evaluate(self) -> List[float]:
        """Per-chip top-1 accuracy on the eval data (mirrors ``Trainer.evaluate``).

        One batched pass over the *current* stacked weights and statistics.
        """
        from repro.training import _as_eval_loader as _training_eval_loader

        batch_size = self.config.batch_size * 4
        loader = _training_eval_loader(self.eval_data, batch_size=batch_size)
        was_training = self.model.training
        self.model.eval()
        correct = np.zeros(self.num_chips, dtype=np.int64)
        total = 0
        prefetcher = (
            _LoweringPrefetcher(self._eval_lowering) if self._prefetch else None
        )
        try:
            with trace.span(
                "fat.eval_checkpoint", chips=self.num_chips
            ), nn.no_grad(), self._patched():
                self._eval_batch_size = batch_size
                self._prefetcher = prefetcher
                for batch_index, (inputs, targets) in _prefetched_batches(
                    loader, prefetcher
                ):
                    self._eval_batch_index = batch_index
                    data = inputs.data
                    self._prefetch_probe = data
                    n = data.shape[0]
                    logits = self._eval_forward_all_chips(data)
                    predictions = logits.argmax(axis=-1)
                    correct += (predictions == np.asarray(targets)[None, :]).sum(axis=1)
                    total += n
        finally:
            self._eval_batch_index = None
            self._eval_batch_size = None
            self._prefetcher = None
            self._prefetch_probe = None
            if prefetcher is not None:
                prefetcher.close()
            if was_training:
                self.model.train()
        if total == 0:
            return [0.0] * self.num_chips
        return [int(c) / total for c in correct]

    # -- widened multi-checkpoint evaluation ---------------------------------

    def _snapshot_stacks(
        self, epochs: float, steps: int, train_losses: np.ndarray
    ) -> _EvalSnapshot:
        """Copy the current stacked weights/statistics for a deferred eval."""
        return _EvalSnapshot(
            epochs=epochs,
            steps=steps,
            train_losses=np.asarray(train_losses, dtype=np.float64).copy(),
            layer_weights=[layer.weight.data.copy() for layer in self._layers],
            layer_biases=[
                None if layer.bias is None else layer.bias.data.copy()
                for layer in self._layers
            ],
            norm_weights=[norm.weight.data.copy() for norm in self._norm_layers],
            norm_biases=[norm.bias.data.copy() for norm in self._norm_layers],
            norm_means=[norm.running_mean.copy() for norm in self._norm_layers],
            norm_vars=[norm.running_var.copy() for norm in self._norm_layers],
        )

    @contextlib.contextmanager
    def _stacks_swapped(
        self,
        num_chips: int,
        layer_weights: List[np.ndarray],
        layer_biases: List[Optional[np.ndarray]],
        norm_weights: List[np.ndarray],
        norm_biases: List[np.ndarray],
        norm_means: List[np.ndarray],
        norm_vars: List[np.ndarray],
    ):
        """Temporarily present other stacked arrays (and chip count) as live.

        The batched forwards consult the layer objects live, so swapping the
        arrays re-points every forward without re-patching anything.
        Restores the training stacks on exit.
        """
        saved_chips = self.num_chips
        saved_layer = [(layer.weight.data, None if layer.bias is None else layer.bias.data)
                       for layer in self._layers]
        saved_norm = [(norm.weight.data, norm.bias.data, norm.running_mean, norm.running_var)
                      for norm in self._norm_layers]
        try:
            self.num_chips = num_chips
            for layer, weight, bias in zip(self._layers, layer_weights, layer_biases):
                layer.weight.data = weight
                if layer.bias is not None:
                    layer.bias.data = bias
            for norm, weight, bias, mean, var in zip(
                self._norm_layers, norm_weights, norm_biases, norm_means, norm_vars
            ):
                norm.weight.data = weight
                norm.bias.data = bias
                norm.running_mean = mean
                norm.running_var = var
            yield
        finally:
            self.num_chips = saved_chips
            for layer, (weight, bias) in zip(self._layers, saved_layer):
                layer.weight.data = weight
                if layer.bias is not None:
                    layer.bias.data = bias
            for norm, (weight, bias, mean, var) in zip(self._norm_layers, saved_norm):
                norm.weight.data = weight
                norm.bias.data = bias
                norm.running_mean = mean
                norm.running_var = var

    def _evaluate_snapshots(
        self, snapshots: List[_EvalSnapshot]
    ) -> List[Tuple[_EvalSnapshot, List[float]]]:
        """Evaluate deferred checkpoint snapshots, widened where feasible.

        C snapshots of the same B-chip population stack into one
        ``(C * B)``-chip evaluation pass — every stacked GEMM widens from B
        to C·B slices, each im2col lowering is shared by all C checkpoints,
        and the whole thing is one loader walk instead of C.  Per-checkpoint
        results are exact unstacked row blocks: chip slices of the widened
        GEMMs are bit-identical to the B-chip pass (the same per-slice
        identity the batched substrate already rests on).
        """
        if not snapshots:
            return []
        # Checkpoints that quantized to the same optimizer step (fine epoch
        # grids at small batches-per-epoch counts do this constantly) carry
        # identical stacked weights — no training step ran between them — so
        # one evaluation pass serves every alias.  This is what makes eval
        # cost sublinear in the checkpoint count.
        unique: List[_EvalSnapshot] = []
        seen_steps: Dict[int, int] = {}
        for snapshot in snapshots:
            if snapshot.steps not in seen_steps:
                seen_steps[snapshot.steps] = len(unique)
                unique.append(snapshot)
        if metrics.enabled and len(unique) < len(snapshots):
            metrics.counter("fat.eval.checkpoints_deduped").inc(
                len(snapshots) - len(unique)
            )
        if len(unique) < len(snapshots):
            evaluated = self._evaluate_snapshots(unique)
            by_steps = {snap.steps: accuracies for snap, accuracies in evaluated}
            return [(snapshot, by_steps[snapshot.steps]) for snapshot in snapshots]
        total_floats = sum(snapshot.num_floats for snapshot in snapshots)
        if len(snapshots) > 1 and total_floats <= WIDENED_EVAL_MAX_FLOATS:
            return self._evaluate_snapshots_widened(snapshots)
        results: List[Tuple[_EvalSnapshot, List[float]]] = []
        for snapshot in snapshots:
            with self._stacks_swapped(
                self.num_chips,
                snapshot.layer_weights,
                snapshot.layer_biases,
                snapshot.norm_weights,
                snapshot.norm_biases,
                snapshot.norm_means,
                snapshot.norm_vars,
            ):
                results.append((snapshot, self.evaluate()))
        return results

    def _evaluate_snapshots_widened(
        self, snapshots: List[_EvalSnapshot]
    ) -> List[Tuple[_EvalSnapshot, List[float]]]:
        count = len(snapshots)
        base = self.num_chips
        layer_weights = [
            np.concatenate([s.layer_weights[i] for s in snapshots], axis=0)
            for i in range(len(self._layers))
        ]
        layer_biases: List[Optional[np.ndarray]] = [
            None
            if self._layers[i].bias is None
            else np.concatenate([s.layer_biases[i] for s in snapshots], axis=0)
            for i in range(len(self._layers))
        ]
        norm_weights = [
            np.concatenate([s.norm_weights[i] for s in snapshots], axis=0)
            for i in range(len(self._norm_layers))
        ]
        norm_biases = [
            np.concatenate([s.norm_biases[i] for s in snapshots], axis=0)
            for i in range(len(self._norm_layers))
        ]
        norm_means = [
            np.concatenate([s.norm_means[i] for s in snapshots], axis=0)
            for i in range(len(self._norm_layers))
        ]
        norm_vars = [
            np.concatenate([s.norm_vars[i] for s in snapshots], axis=0)
            for i in range(len(self._norm_layers))
        ]
        with trace.span(
            "fat.eval_widened", checkpoints=count, chips=base
        ), self._stacks_swapped(
            count * base, layer_weights, layer_biases,
            norm_weights, norm_biases, norm_means, norm_vars,
        ):
            flat = self.evaluate()
        return [
            (snapshot, flat[c * base:(c + 1) * base])
            for c, snapshot in enumerate(snapshots)
        ]

    def train(
        self,
        epochs: float,
        eval_checkpoints: Optional[Sequence[float]] = None,
        include_initial: bool = True,
    ):
        """Train all chips for ``epochs``; returns one history per chip.

        Checkpoint semantics match :meth:`repro.training.Trainer.train`: the
        same cumulative epoch checkpoints, the same step accounting, and per-
        chip records whose accuracies and losses equal the serial runs'.

        With ``widened_eval`` (the default) and more than one checkpoint,
        per-checkpoint evaluations are deferred: each checkpoint snapshots
        the stacked weights and statistics, training continues uninterrupted,
        and all C snapshots then evaluate in one widened ``(C * B)``-chip
        pass (see :meth:`_evaluate_snapshots`).  Checkpoints that quantize
        to the same optimizer step share one evaluation — their weights are
        identical — so the deferred pass is sublinear in the checkpoint
        count for fine epoch grids.  Histories are identical
        either way — evaluation never mutates training state (it runs under
        ``no_grad`` on fixed weights over the unshuffled eval loader), so the
        training step sequence, RNG streams and recorded accuracies all
        match the interleaved schedule bit for bit.
        """
        from repro.training import CheckpointRecord, TrainingHistory, epochs_to_steps

        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        histories = [TrainingHistory() for _ in range(self.num_chips)]
        checkpoints = sorted(set(float(c) for c in (eval_checkpoints or []) if 0.0 < c <= epochs))
        if epochs > 0 and (not checkpoints or abs(checkpoints[-1] - epochs) > 1e-12):
            checkpoints.append(float(epochs))
        passes = (1 if include_initial else 0) + len(checkpoints)
        defer = self._widened_eval and passes > 1
        snapshots: List[_EvalSnapshot] = []

        def record_checkpoint(epochs_at: float, train_losses: np.ndarray) -> None:
            if defer:
                if snapshots and snapshots[-1].steps == self.steps_taken:
                    # Same optimizer step as the previous checkpoint — the
                    # stacks have not moved, so alias its arrays rather than
                    # copying them again.
                    snapshots.append(
                        dataclasses.replace(
                            snapshots[-1],
                            epochs=epochs_at,
                            train_losses=np.asarray(
                                train_losses, dtype=np.float64
                            ).copy(),
                        )
                    )
                else:
                    snapshots.append(
                        self._snapshot_stacks(epochs_at, self.steps_taken, train_losses)
                    )
                return
            accuracies = self.evaluate()
            steps = self.steps_taken
            for chip, history in enumerate(histories):
                history.add(
                    CheckpointRecord(
                        epochs=epochs_at,
                        steps=steps,
                        train_loss=float(train_losses[chip]),
                        eval_accuracy=accuracies[chip],
                    )
                )

        if include_initial:
            record_checkpoint(0.0, np.full(self.num_chips, np.nan))
        previous_steps = 0
        for checkpoint in checkpoints:
            target_steps = epochs_to_steps(checkpoint, self.batches_per_epoch)
            step_delta = target_steps - previous_steps
            if step_delta > 0:
                train_losses = self._train_steps(step_delta)
            else:
                train_losses = np.full(self.num_chips, np.nan)
            previous_steps = target_steps
            record_checkpoint(checkpoint, train_losses)
        for snapshot, accuracies in self._evaluate_snapshots(snapshots):
            for chip, history in enumerate(histories):
                history.add(
                    CheckpointRecord(
                        epochs=snapshot.epochs,
                        steps=snapshot.steps,
                        train_loss=float(snapshot.train_losses[chip]),
                        eval_accuracy=accuracies[chip],
                    )
                )
        return histories

    # -- results -------------------------------------------------------------

    def chip_state_dict(self, chip: int) -> Dict[str, np.ndarray]:
        """The model state dict chip ``chip``'s serial run would end with."""
        if not 0 <= chip < self.num_chips:
            raise IndexError(f"chip {chip} out of range for {self.num_chips} chips")
        state = {name: value.copy() for name, value in self._base_state.items()}
        for layer in self._layers:
            prefix = f"{layer.name}." if layer.name else ""
            state[f"{prefix}weight"] = layer.weight.data[chip].copy()
            if layer.bias is not None:
                state[f"{prefix}bias"] = layer.bias.data[chip].copy()
        for norm in self._norm_layers:
            prefix = f"{norm.name}." if norm.name else ""
            state[f"{prefix}weight"] = norm.weight.data[chip].copy()
            state[f"{prefix}bias"] = norm.bias.data[chip].copy()
            state[f"{prefix}running_mean"] = norm.running_mean[chip].copy()
            state[f"{prefix}running_var"] = norm.running_var[chip].copy()
        return state
