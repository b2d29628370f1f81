"""Serialization helpers for experiment configuration dataclasses.

Experiment configs throughout the library are plain ``dataclasses``.  These
helpers convert them to/from JSON-compatible dictionaries so that every
experiment can be saved next to its results and replayed exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Type, TypeVar, Union

import numpy as np

T = TypeVar("T")


class ConfigError(ValueError):
    """Raised when a configuration value is invalid or cannot be serialized."""


def _to_jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(f"value of type {type(value).__name__} is not JSON-serializable: {value!r}")


def config_to_dict(config: Any) -> Dict[str, Any]:
    """Convert a dataclass config instance into a JSON-compatible dict."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise ConfigError(f"expected a dataclass instance, got {type(config).__name__}")
    return _to_jsonable(config)


def config_from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
    """Instantiate a dataclass ``cls`` from a dict, ignoring unknown keys.

    Nested dataclass fields are recursively reconstructed when the stored
    value is a dict.
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigError(f"{cls!r} is not a dataclass type")
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        if name not in field_map:
            continue
        field = field_map[name]
        field_type = field.type
        resolved = _resolve_dataclass_type(cls, field_type)
        if resolved is not None and isinstance(value, dict):
            kwargs[name] = config_from_dict(resolved, value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def _resolve_dataclass_type(owner: type, annotation: Any) -> Any:
    """Best-effort resolution of a dataclass type from a field annotation."""
    if isinstance(annotation, type) and dataclasses.is_dataclass(annotation):
        return annotation
    if isinstance(annotation, str):
        import sys

        module = sys.modules.get(owner.__module__)
        candidate = getattr(module, annotation, None) if module else None
        if isinstance(candidate, type) and dataclasses.is_dataclass(candidate):
            return candidate
    return None


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync a directory so a just-renamed entry survives a power cut.

    ``os.replace`` makes a rename atomic with respect to concurrent readers,
    but the *directory entry* itself is only durable once the directory's
    metadata reaches disk.  Platforms where directories cannot be opened for
    fsync (e.g. Windows) are silently skipped — the rename is still atomic,
    just not power-cut durable there.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def save_json(data: Any, path: Union[str, Path], atomic: bool = False) -> Path:
    """Write JSON-compatible ``data`` (or a dataclass) to ``path``.

    With ``atomic=True`` the payload is written to a sibling temp file
    (named per process, so concurrent writers of one path never share it),
    fsynced, moved into place with :func:`os.replace`, and the parent
    directory is fsynced — so concurrent readers (e.g. campaign workers
    inspecting a store manifest) never observe a torn file and the rename
    survives a power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _to_jsonable(data)
    if atomic:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(path.parent)
    else:
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Read JSON data written by :func:`save_json`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
