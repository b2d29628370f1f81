"""Experiment context: dataset + pre-trained model + accelerator, with caching.

Every figure runner starts from the same ingredients (Fig. 1 inputs): a
pre-trained DNN, a dataset, a systolic array and an accuracy constraint.
``ExperimentContext.from_preset`` builds them once; pre-training results are
cached in memory (keyed by the preset) so that running several figure
benchmarks in one session does not repeat the expensive pre-training step.

An optional *on-disk* cache layers underneath the in-memory one: when a
cache directory is configured (``disk_cache_dir=`` argument,
:func:`set_disk_cache_dir` or the ``REPRO_CACHE_DIR`` environment variable),
the pre-trained state dict and clean accuracy are persisted per preset
fingerprint, so repeated CLI runs — and campaign workers spawned in fresh
processes — skip pre-training entirely.  The same directory holds each
preset's Step-1 resilience profile (``<fingerprint>.profile.json``), so
Step 1 runs once per DNN rather than once per process.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro import nn
from repro.accelerator.batched import EvalPipeline
from repro.accelerator.systolic_array import SystolicArray
from repro.core.constraints import AccuracyConstraint
from repro.core.reduce import ReduceConfig, ReduceFramework
from repro.core.profiles import ResilienceProfile, load_profile, save_profile
from repro.data.synthetic import DatasetBundle, make_class_template_images
from repro.experiments.presets import ExperimentPreset
from repro.models.registry import build_model
from repro.nn.serialization import clone_state_dict
from repro.observability import metrics, trace
from repro.training import Trainer, evaluate_accuracy
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("experiments.common")

# In-memory cache of pre-trained contexts, keyed by a preset fingerprint.
_CONTEXT_CACHE: Dict[str, "ExperimentContext"] = {}

# On-disk cache of pre-trained state dicts and Step-1 profiles (same
# fingerprint key); resolved from the explicit argument, this module default,
# or REPRO_CACHE_DIR.
_DISK_CACHE_ENV = "REPRO_CACHE_DIR"
_DISK_CACHE_DIR: Optional[Path] = None


# Version of the training-substrate numerics baked into cached pre-trained
# states.  Bump whenever a change shifts training trajectories bit-for-bit
# (the campaign STORE_FORMAT_VERSION guards recorded *results* the same way;
# this guards the pre-trained *weights* they start from, so a warm disk
# cache from an older build can never seed new-version campaigns).  The
# fingerprint also keys the cached Step-1 profiles, so a bump invalidates
# those too.
# Version 2: fused batch-norm backward + C-contiguous materialisation of
# degenerate 1x1 im2col lowerings (changes vgg-style pre-training).
TRAINING_NUMERICS_VERSION = 2


def preset_fingerprint(preset: ExperimentPreset) -> str:
    """Stable content fingerprint of a preset (cache key for its context).

    Includes :data:`TRAINING_NUMERICS_VERSION`, so pre-trained states cached
    on disk under one substrate-numerics version are never reused once the
    training arithmetic changes.
    """
    from repro.utils.config import config_to_dict
    import hashlib
    import json

    payload = json.dumps(
        {"numerics": TRAINING_NUMERICS_VERSION, "preset": config_to_dict(preset)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# Backwards-compatible alias (the fingerprint is public API now that the
# campaign store and disk cache key on it).
_preset_fingerprint = preset_fingerprint


def set_disk_cache_dir(path: Optional[Union[str, Path]]) -> None:
    """Set (or clear, with ``None``) the default on-disk context cache."""
    global _DISK_CACHE_DIR
    _DISK_CACHE_DIR = Path(path) if path is not None else None


def resolve_disk_cache_dir(explicit: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """The disk cache directory in effect: argument, module default, or env."""
    if explicit is not None:
        return Path(explicit)
    if _DISK_CACHE_DIR is not None:
        return _DISK_CACHE_DIR
    env = os.environ.get(_DISK_CACHE_ENV)
    return Path(env) if env else None


def _disk_cache_paths(cache_dir: Path, fingerprint: str) -> Tuple[Path, Path]:
    return cache_dir / f"{fingerprint}.npz", cache_dir / f"{fingerprint}.json"


def _load_pretrained_from_disk(
    cache_dir: Path, fingerprint: str
) -> Optional[Tuple[Dict[str, np.ndarray], float]]:
    """Load a cached (state dict, clean accuracy) pair, or None on any miss."""
    import zipfile

    from repro.nn.serialization import load_checkpoint
    from repro.utils.config import load_json

    state_path, meta_path = _disk_cache_paths(cache_dir, fingerprint)
    if not state_path.exists() or not meta_path.exists():
        return None
    try:
        state = load_checkpoint(state_path)
        meta = load_json(meta_path)
        clean_accuracy = float(meta["clean_accuracy"])
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        logger.warning("ignoring unreadable disk-cache entry %s", state_path)
        return None
    return state, clean_accuracy


def _save_pretrained_to_disk(
    cache_dir: Path,
    fingerprint: str,
    preset: ExperimentPreset,
    state: Dict[str, np.ndarray],
    clean_accuracy: float,
) -> None:
    from repro.nn.serialization import save_checkpoint
    from repro.utils.config import save_json

    state_path, meta_path = _disk_cache_paths(cache_dir, fingerprint)
    # Write-then-rename so a killed process (or a concurrent worker) never
    # leaves a torn archive at the final path.
    tmp_path = state_path.with_name(f"{state_path.stem}.{os.getpid()}.tmp.npz")
    save_checkpoint(state, tmp_path)
    os.replace(tmp_path, state_path)
    save_json(
        {
            "preset": preset.name,
            "fingerprint": fingerprint,
            "clean_accuracy": clean_accuracy,
        },
        meta_path,
        atomic=True,
    )
    logger.info("cached pre-trained state for preset %r at %s", preset.name, state_path)


def _load_profile_from_disk(
    path: Path, context: "ExperimentContext"
) -> Optional[ResilienceProfile]:
    """Load a cached Step-1 profile, or None on a miss or a bad entry.

    An entry whose grid or clean accuracy disagrees with ``context`` is
    treated like an unreadable one: logged and recomputed.
    """
    if not path.exists():
        return None
    try:
        profile = load_profile(path)
    except (OSError, ValueError, KeyError, TypeError):
        logger.warning("ignoring unreadable profile cache entry %s", path)
        return None
    config = context.preset.resilience_config()
    checkpoints = [0.0] + [float(c) for c in config.epoch_checkpoints]
    if (
        not np.array_equal(profile.fault_rates, np.asarray(config.fault_rates, dtype=float))
        or not np.array_equal(profile.epoch_checkpoints, checkpoints)
        or profile.num_trials != config.trials_per_rate
        or profile.clean_accuracy != context.clean_accuracy
    ):
        logger.warning("ignoring profile cache entry %s inconsistent with its context", path)
        return None
    return profile


def build_dataset(preset: ExperimentPreset) -> DatasetBundle:
    """Build the synthetic dataset described by the preset."""
    spec = preset.dataset
    return make_class_template_images(
        num_classes=spec.num_classes,
        train_per_class=spec.train_per_class,
        test_per_class=spec.test_per_class,
        image_size=spec.image_size,
        channels=spec.channels,
        noise_std=spec.noise_std,
        shift_pixels=spec.shift_pixels,
        seed=spec.seed,
        name=f"{preset.name}-synthetic",
    )


@dataclasses.dataclass
class ExperimentContext:
    """The shared inputs of every experiment (Fig. 1 of the paper)."""

    preset: ExperimentPreset
    bundle: DatasetBundle
    model: nn.Module
    pretrained_state: Dict[str, np.ndarray]
    array: SystolicArray
    clean_accuracy: float
    # On-disk cache resolved by from_preset (None: no disk cache); it holds
    # the Step-1 profile next to the pre-trained state.
    disk_cache_dir: Optional[Path] = None
    _profile: Optional[ResilienceProfile] = None
    # Lazily-created pipelined-eval configuration (prefetch, widened
    # multi-checkpoint GEMMs, shared lowering cache).  It lives on the
    # context — not on a framework — because :meth:`framework` returns a
    # fresh framework per call: sharing the pipeline is what lets triage,
    # campaign chunks and successive sweep arms reuse each other's eval-batch
    # lowerings.
    _eval_pipeline: Optional[EvalPipeline] = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_preset(
        cls,
        preset: ExperimentPreset,
        use_cache: bool = True,
        disk_cache_dir: Optional[Union[str, Path]] = None,
    ) -> "ExperimentContext":
        """Build (or fetch from the caches) the context for a preset.

        ``use_cache`` governs the in-memory cache; the on-disk cache of
        pre-trained state dicts is consulted whenever a cache directory is
        configured (see :func:`resolve_disk_cache_dir`).
        """
        fingerprint = preset_fingerprint(preset)
        if use_cache and fingerprint in _CONTEXT_CACHE:
            return _CONTEXT_CACHE[fingerprint]

        bundle = build_dataset(preset)
        model = build_model(
            preset.model.name,
            input_shape=bundle.input_shape,
            num_classes=bundle.num_classes,
            seed=preset.model.seed,
            **preset.model.kwargs,
        )
        cache_dir = resolve_disk_cache_dir(disk_cache_dir)
        cached = _load_pretrained_from_disk(cache_dir, fingerprint) if cache_dir else None
        if cached is not None:
            state, clean_accuracy = cached
            model.load_state_dict(state)
            logger.info(
                "loaded pre-trained %s for preset %r from disk cache (skipping pre-training)",
                preset.model.name,
                preset.name,
            )
        else:
            logger.info("pre-training %s on %s for %.1f epochs", preset.model.name, bundle.name, preset.pretrain_epochs)
            trainer = Trainer(model, bundle.train, bundle.test, config=preset.pretrain)
            trainer.train(preset.pretrain_epochs, include_initial=False)
            clean_accuracy = evaluate_accuracy(model, bundle.test)
            if cache_dir is not None:
                _save_pretrained_to_disk(
                    cache_dir, fingerprint, preset, model.state_dict(), clean_accuracy
                )
        context = cls(
            preset=preset,
            bundle=bundle,
            model=model,
            pretrained_state=clone_state_dict(model.state_dict()),
            array=SystolicArray(preset.array_rows, preset.array_cols),
            clean_accuracy=clean_accuracy,
            disk_cache_dir=cache_dir,
        )
        if use_cache:
            _CONTEXT_CACHE[fingerprint] = context
        return context

    # -- derived objects -----------------------------------------------------------

    def constraint(self) -> AccuracyConstraint:
        return self.preset.constraint()

    def target_accuracy(self) -> float:
        return self.constraint().resolve(self.clean_accuracy)

    def reduce_config(self) -> ReduceConfig:
        return ReduceConfig(
            constraint=self.constraint(),
            resilience=self.preset.resilience_config(),
            retraining=self.preset.retraining,
        )

    @property
    def eval_pipeline(self) -> EvalPipeline:
        """The context-wide pipelined-eval configuration (created on demand)."""
        if self._eval_pipeline is None:
            self._eval_pipeline = EvalPipeline()
        return self._eval_pipeline

    def configure_eval_pipeline(
        self,
        prefetch: Optional[bool] = None,
        widened_eval: Optional[bool] = None,
        lowering_cache_mb: Optional[float] = None,
    ) -> EvalPipeline:
        """Apply CLI/engine eval-pipeline overrides for this context."""
        return self.eval_pipeline.configure(
            prefetch=prefetch,
            widened_eval=widened_eval,
            lowering_cache_mb=lowering_cache_mb,
        )

    def framework(self) -> ReduceFramework:
        """A fresh :class:`ReduceFramework` over this context's inputs."""
        framework = ReduceFramework(
            self.model,
            self.pretrained_state,
            self.bundle,
            self.array,
            config=self.reduce_config(),
            eval_pipeline=self.eval_pipeline,
        )
        if self._profile is not None:
            framework.set_profile(self._profile)
        else:
            # Same model, weights and test set as from_preset's evaluation, so
            # seeding it here skips a redundant full test-set pass (e.g. for
            # fixed-policy campaigns that never run Step 1).
            framework.set_clean_accuracy(self.clean_accuracy)
        return framework

    def resilience_profile(self, force: bool = False) -> ResilienceProfile:
        """The Step-1 resilience profile, computed once per context.

        With a disk cache configured the profile is also persisted there,
        and a later context for the same preset (in any process) loads it
        instead of re-running the analysis.  ``force=True`` recomputes it
        and overwrites the cached entry.
        """
        if self._profile is not None and not force:
            return self._profile
        path = None
        if self.disk_cache_dir is not None:
            path = self.disk_cache_dir / f"{preset_fingerprint(self.preset)}.profile.json"
        with trace.span("step1.profile", preset=self.preset.name) as span:
            profile = None if path is None or force else _load_profile_from_disk(path, self)
            cache = "off" if path is None else "hit" if profile is not None else "miss"
            span.set(cache=cache)
            if profile is None:
                framework = ReduceFramework(
                    self.model,
                    self.pretrained_state,
                    self.bundle,
                    self.array,
                    config=self.reduce_config(),
                )
                profile = framework.analyze_resilience()
                if path is not None:
                    save_profile(profile, path)
        if path is not None:
            name = "hits" if cache == "hit" else "misses"
            metrics.counter(f"step1.profile_cache_{name}").inc()
        self._profile = profile
        return profile

    def restore_pretrained(self) -> None:
        """Reset the shared model to the pre-trained weights."""
        self.model.load_state_dict(self.pretrained_state)


def clear_context_cache() -> None:
    """Drop every cached experiment context (mainly for tests)."""
    _CONTEXT_CACHE.clear()
