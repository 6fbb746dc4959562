"""Persistence for experiment results (JSON).

Grid sweeps are the expensive part of the reproduction; this module
saves their :class:`~repro.sim.system.SystemResult` cells to a JSON
document so analyses (tables, figures, the report) can be re-rendered
without re-simulating, and results can be diffed across code versions.

It also holds :class:`ContentStore`, the one on-disk store behind both
cache lanes: the result lane (:class:`~repro.analysis.runner.ResultCache`)
and the derived-artifact lane that caches the rendered report
(:mod:`repro.analysis.derived`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.analysis.experiments import ExperimentGrid
from repro.obs.manifest import code_version_stamp
from repro.sim.system import SystemResult

#: v2 canonicalized the result ``stats`` encoding: a sorted list of
#: ``[key, value]`` pairs instead of a JSON object.  JSON object keys
#: are always strings, so the v1 encoding silently converted integer
#: stat keys (e.g. per-distance or per-bank breakdowns) to strings on
#: the way to disk — a loaded grid could then compare unequal to the
#: grid that produced it and re-derive different artifact fingerprints.
#: Pair lists keep each key's JSON type intact.  v1 documents still
#: load (their stringified keys are unrecoverable, and kept as-is).
FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, FORMAT_VERSION)


class CacheCorruptionError(ValueError):
    """A persisted cache entry exists but cannot be trusted.

    Raised (never silently swallowed into garbage data) when a cache
    file is truncated, is not JSON, carries the wrong format version,
    fails its integrity digest, or fails the lane codec's validation.
    :meth:`ContentStore.get` catches this to quarantine the entry and
    report a miss, so the caller recomputes instead of crashing — see
    ``ContentStore.get`` vs the raising ``ContentStore.load``.
    """


def _digest_canonical(value):
    """A JSON-able image of ``value`` that keeps dict-key types apart.

    ``json.dumps`` stringifies non-string dictionary keys, so a naive
    canonical encoding would hash ``{0: 3}`` and ``{"0": 3}`` — two
    different results — to the same digest (and crash outright on a
    dict mixing int and str keys under ``sort_keys=True``).  Every dict
    is therefore rewritten as ``{"__dict__": [[key, value], ...]}``
    with the pairs sorted by the compact JSON encoding of their
    (recursively canonicalized) key: keys stay JSON values of their own
    type, sorting never compares ints to strings, and the single-key
    ``__dict__`` wrapper cannot collide with any list or scalar a
    payload could contain.
    """
    if isinstance(value, dict):
        pairs = [[_digest_canonical(key), _digest_canonical(val)]
                 for key, val in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True,
                                               separators=(",", ":")))
        return {"__dict__": pairs}
    if isinstance(value, (list, tuple)):
        return [_digest_canonical(item) for item in value]
    return value


def integrity_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of one cache payload.

    Stored alongside every cache entry so bit rot *inside* an otherwise
    well-formed JSON document (a flipped digit survives both
    ``json.load`` and field validation) is still detected at read time.
    The canonical form (see :func:`_digest_canonical`) is key-type
    aware, so payloads differing only in the type of a nested dict key
    never share a digest — a hand-built grid's ``content:`` fallback
    fingerprint (:meth:`~repro.analysis.experiments.ExperimentGrid.cell_keys`)
    depends on that.
    """
    canonical = json.dumps(_digest_canonical(payload),
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _encode_stats(stats: dict) -> List[list]:
    """Canonical JSON encoding of a result's ``stats`` dictionary.

    A sorted list of ``[key, value]`` pairs rather than a JSON object:
    object keys must be strings, so ``json.dump`` would silently
    stringify integer keys and the decoded dictionary would no longer
    equal the one that was saved.  Pairs carry each key as a JSON value
    of its own type.  Sorting is by ``(type name, stringified key)`` —
    deterministic for the mixed int/str key sets real designs produce
    without ever comparing ints to strings.
    """
    return [[key, stats[key]]
            for key in sorted(stats, key=lambda k: (type(k).__name__, str(k)))]


def _decode_stats(encoded: object) -> dict:
    """Inverse of :func:`_encode_stats` (also accepts the legacy v1
    plain-object form, whose keys are necessarily strings)."""
    if isinstance(encoded, dict):
        return encoded
    if not isinstance(encoded, list):
        raise ValueError(
            f"stats must be a pair list or legacy object, got "
            f"{type(encoded).__name__}")
    stats = {}
    for item in encoded:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"malformed stats pair: {item!r}")
        stats[item[0]] = item[1]
    return stats


def result_to_dict(result: SystemResult) -> dict:
    """A JSON-ready dictionary of one result.

    Everything is ``dataclasses.asdict`` except ``stats``, which uses
    the canonical pair-list encoding (see :func:`_encode_stats`) so the
    JSON round trip is lossless for non-string stat keys.
    """
    payload = dataclasses.asdict(result)
    payload["stats"] = _encode_stats(result.stats)
    return payload


def result_from_dict(payload: dict) -> SystemResult:
    """Inverse of :func:`result_to_dict`."""
    fields = {f.name for f in dataclasses.fields(SystemResult)}
    unknown = set(payload) - fields
    if unknown:
        raise ValueError(f"unknown result fields: {sorted(unknown)}")
    missing = fields - set(payload)
    if missing:
        raise ValueError(f"missing result fields: {sorted(missing)}")
    payload = dict(payload)
    payload["stats"] = _decode_stats(payload["stats"])
    return SystemResult(**payload)


def _identity(value: Any) -> Any:
    return value


class Codec(NamedTuple):
    """How one cache lane's values map to and from JSON payloads.

    ``decode`` raises :class:`ValueError` or :class:`TypeError` for a
    payload that is well-formed JSON but not a valid value.
    """

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


#: Values that already are JSON documents (derived artifacts).
JSON_CODEC = Codec(_identity, _identity)

#: :class:`~repro.sim.system.SystemResult` cells.
RESULT_CODEC = Codec(result_to_dict, result_from_dict)


class ContentStore:
    """Content-addressed on-disk store of JSON entries.

    The storage discipline both cache lanes share; what differs between
    them — the key, the root, the codec, the format constant and
    whether a miss is an error or only lost work — is the lane's
    business.  Layout: ``<root>/<key[:2]>/<key>.json``.  Each entry is
    an envelope::

        {"format": ..., "code_version": ..., "meta": {...},
         "integrity": ..., "payload": ...}

    ``payload`` is ``codec.encode(value)`` and ``integrity`` its
    :func:`integrity_digest`.  ``meta`` holds whatever audit fields the
    lane passes to :meth:`put` (a cell's key fields, an artifact's
    kind), for reading with plain ``jq``/``grep``; it is never read
    back.

    Writes are atomic (a temp file unique to the writing process and
    thread, then ``os.replace``), so concurrent runs, service threads
    and overlapping sessions can share one root.  :meth:`load` verifies the
    envelope, the digest and the codec and raises the typed
    :class:`CacheCorruptionError` on anything untrustworthy;
    :meth:`get` turns corruption into a quarantine (the file moves to
    ``<root>/quarantine/`` for post-mortem) plus a miss.
    """

    def __init__(self, root: Union[str, os.PathLike], format: int,
                 codec: Codec = JSON_CODEC) -> None:
        self.root = Path(root).expanduser()
        self.format = format
        self.codec = codec
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def load(self, key: str) -> Any:
        """The verified value stored under ``key``.

        Raises :class:`FileNotFoundError` for an absent entry and
        :class:`CacheCorruptionError` for one that exists but fails any
        verification step.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise
        except OSError as error:
            raise CacheCorruptionError(
                f"unreadable cache entry {path}: {error}") from error
        try:
            entry = json.loads(raw)
        except ValueError as error:
            raise CacheCorruptionError(
                f"cache entry {path} is not valid JSON (truncated "
                f"write?): {error}") from error
        if not isinstance(entry, dict):
            raise CacheCorruptionError(
                f"cache entry {path} is not a JSON object")
        if entry.get("format") != self.format:
            raise CacheCorruptionError(
                f"cache entry {path} has format {entry.get('format')!r} "
                f"(expected {self.format})")
        if "payload" not in entry:
            raise CacheCorruptionError(
                f"cache entry {path} is missing its payload")
        payload = entry["payload"]
        if entry.get("integrity") != integrity_digest(payload):
            raise CacheCorruptionError(
                f"cache entry {path} failed its integrity digest "
                "(bit rot or a hand edit)")
        try:
            return self.codec.decode(payload)
        except (ValueError, TypeError) as error:
            raise CacheCorruptionError(
                f"cache entry {path} holds an invalid payload: "
                f"{error}") from error

    def get(self, key: str) -> Optional[Any]:
        """The value stored under ``key``, or ``None`` on a miss.

        A corrupt entry is quarantined and reported as a miss, so the
        caller recomputes (and :meth:`put` then heals the entry).
        ``None`` is reserved for misses: stored values are never null.
        """
        try:
            value = self.load(key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CacheCorruptionError:
            self._quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry aside (never leave it to fail again)."""
        path = self.path_for(key)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def put(self, key: str, value: Any, **meta: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        Concurrent writers of one key each write their own temp file,
        and the last ``os.replace`` wins; the entries are identical, as
        a key names its value.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.codec.encode(value)
        entry = {
            "format": self.format,
            "code_version": code_version_stamp(),
            "meta": meta,
            "integrity": integrity_digest(payload),
            "payload": payload,
        }
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=1)
        os.replace(tmp, path)
        self.stores += 1


def save_grid(path: str, grid: ExperimentGrid) -> None:
    """Write a grid (and all its cells) to ``path`` as JSON."""
    document = {
        "format_version": FORMAT_VERSION,
        "designs": list(grid.designs),
        "benchmarks": list(grid.benchmarks),
        "cells": [
            {"design": design, "benchmark": benchmark,
             "result": result_to_dict(result)}
            for (design, benchmark), result in sorted(grid.results.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def load_grid(path: str) -> ExperimentGrid:
    """Read a grid written by :func:`save_grid`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported grid format {version!r} (expected one of "
            f"{list(_SUPPORTED_VERSIONS)})")
    designs = tuple(document["designs"])
    benchmarks = tuple(document["benchmarks"])
    results: Dict[Tuple[str, str], SystemResult] = {}
    for cell in document["cells"]:
        results[(cell["design"], cell["benchmark"])] = result_from_dict(
            cell["result"])
    _validate_coverage(path, designs, benchmarks, results)
    return ExperimentGrid(
        designs=designs,
        benchmarks=benchmarks,
        results=results,
    )


def _validate_coverage(path: str, designs: Tuple[str, ...],
                       benchmarks: Tuple[str, ...],
                       results: Dict[Tuple[str, str], SystemResult]) -> None:
    """Reject documents whose cells don't cover ``designs x benchmarks``.

    A truncated or hand-edited grid would otherwise load fine and only
    explode deep inside an analysis; fail here with the exact cells that
    are missing or unexpected.
    """
    expected = {(design, benchmark)
                for design in designs for benchmark in benchmarks}
    missing = sorted(expected - set(results))
    extra = sorted(set(results) - expected)
    if not missing and not extra:
        return
    problems = []
    if missing:
        problems.append(
            f"{len(missing)} missing cell(s) (first few: {missing[:5]})")
    if extra:
        problems.append(
            f"{len(extra)} cell(s) outside the declared grid "
            f"(first few: {extra[:5]})")
    raise ValueError(
        f"grid document {path!r} does not cover its declared "
        f"{len(designs)} designs x {len(benchmarks)} benchmarks: "
        + "; ".join(problems))
