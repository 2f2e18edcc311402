"""Saving and loading datasets.

Datasets round-trip through a small JSON layout so that a generated instance
can be inspected, versioned, shared, or re-used across benchmark runs without
re-generating it.  The layout stores entities, relations, similarity edges,
labels and the generation config in a single JSON document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..atomicio import atomic_write_json
from ..datamodel.serialize import store_from_dict, store_to_dict
from ..exceptions import DataModelError, InputFormatError
from .schema import BibliographicDataset

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def dataset_to_dict(dataset: BibliographicDataset) -> Dict:
    """Serialise a dataset to a JSON-compatible dictionary."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "name": dataset.name,
        "config": dataset.config,
    }
    payload.update(store_to_dict(dataset.store))
    payload["labels"] = dict(sorted(dataset.labels.items()))
    return payload


def dataset_from_dict(payload: Dict) -> BibliographicDataset:
    """Rebuild a dataset from the dictionary produced by :func:`dataset_to_dict`.

    Anything else — another version, another kind of document (a delta
    trace, say), a malformed record — is an :class:`InputFormatError`.
    """
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != _FORMAT_VERSION:
        raise InputFormatError(f"unsupported dataset format version: {version!r}")
    try:
        return BibliographicDataset(
            name=payload["name"],
            store=store_from_dict(payload),
            labels=dict(payload["labels"]),
            config=dict(payload.get("config", {})),
        )
    except (KeyError, TypeError, ValueError, AttributeError,
            DataModelError) as error:
        raise InputFormatError(
            f"not a dataset: {type(error).__name__}: {error}") from None


def save_dataset(dataset: BibliographicDataset, path: PathLike) -> Path:
    """Write a dataset to a JSON file atomically; returns the path written."""
    return atomic_write_json(path, dataset_to_dict(dataset), indent=1)


def load_dataset(path: PathLike) -> BibliographicDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:  # not JSON, or not UTF-8
            raise InputFormatError(f"{path}: not a JSON dataset: {error}") from None
    try:
        return dataset_from_dict(payload)
    except InputFormatError as error:
        raise InputFormatError(f"{path}: {error}") from None
