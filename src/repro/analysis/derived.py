"""Optimization-only cache lane for the rendered report.

:mod:`repro.analysis.runner` caches *raw* grid cells (the authoritative
lane: simulation results, content-addressed by every simulation input).
This module adds the second, **derived** lane.  It holds one kind of
artifact, the rendered ``repro report`` document
(:func:`repro.analysis.report.build_report`), fingerprinted by

* the **result-cache keys of every contributing cell** (which already
  embed the code-version stamp and every simulation input),
* the explicit :data:`ANALYSIS_VERSION` constant (bumped by hand when
  analysis/rendering logic changes in a way the code stamp alone should
  not be trusted to describe),
* the package :func:`~repro.obs.manifest.code_version_stamp` (so the
  report's static sections — Table 7's area model, the
  signal-integrity table — still invalidate on any edit),
* the artifact ``kind`` and its renderer ``params``.

The lane is **never authoritative**: losing it costs recomputation,
never correctness.  Storage is the same
:class:`~repro.analysis.storage.ContentStore` the result lane uses
(``<root>/<key[:2]>/<key>.json``, integrity digest, quarantine), holding
JSON artifacts as they are; a corrupt entry is quarantined and the
artifact recomputed from its inputs.

``lane.get_or_compute(kind, keys, params, compute)`` answers a warm
artifact without calling ``compute`` and records ``analysis.derived.*``
counters that can be mounted on a
:class:`~repro.obs.registry.MetricsRegistry` and embedded in a
:class:`~repro.obs.manifest.RunManifest` (its ``derived`` field).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterable, Optional, Union

from repro.analysis.storage import ContentStore
from repro.obs.manifest import code_version_stamp
from repro.sim.stats import Counter

#: Explicit derived-algorithm version.  Bump whenever a dataset builder
#: or renderer changes meaning in a way that must invalidate previously
#: cached artifacts (the code-version stamp also rotates on any edit;
#: this constant is the belt to that suspender, and the one knob tests
#: and emergency rollbacks can turn without touching source digests).
ANALYSIS_VERSION = 1

#: Bump when the on-disk entry layout (not the artifacts) changes.  v2
#: moved entries into the :class:`~repro.analysis.storage.ContentStore`
#: envelope both cache lanes share; v1 entries hash to other keys.
DERIVED_FORMAT_VERSION = 2


def derived_key(kind: str, cell_keys: Iterable[str],
                params: Optional[Dict[str, Any]] = None,
                analysis_version: Optional[int] = None) -> str:
    """Content fingerprint of one derived artifact.

    ``cell_keys`` are the result-cache keys (or content fingerprints —
    see :meth:`~repro.analysis.experiments.ExperimentGrid.cell_keys`)
    of every cell the artifact was derived from, order-insensitive.
    ``params`` captures renderer parameters (the report's ``n_refs``
    preamble) that change the artifact without changing its inputs.  If *any* component changes, the key changes and the stale
    entry is simply never seen again.
    """
    payload = {
        "kind": kind,
        "cell_keys": sorted(cell_keys),
        "analysis_version": (ANALYSIS_VERSION if analysis_version is None
                             else analysis_version),
        "code_version": code_version_stamp(),
        "derived_format": DERIVED_FORMAT_VERSION,
        "params": params or {},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class DerivedLane:
    """The routing layer between the report and a derived-artifact store.

    ``cache`` is a :class:`~repro.analysis.storage.ContentStore` of
    :data:`DERIVED_FORMAT_VERSION` entries.  ``cache=None`` disables
    the lane: every artifact is computed inline and nothing is stored,
    which keeps all callers on one code path whether or not a
    ``--derived-cache-dir`` was given.  Counters are
    kept regardless, so "how much did the lane save" is always
    reportable; :meth:`register` mounts them on a metrics registry as
    ``analysis.derived.*`` and :meth:`as_dict` is the JSON form a
    :class:`~repro.obs.manifest.RunManifest` embeds as its ``derived``
    provenance field.
    """

    def __init__(self, cache: Optional[ContentStore] = None) -> None:
        self.cache = cache
        self.counter = Counter()
        for name in ("hits", "misses", "stores", "quarantined", "computed"):
            self.counter.add(name, 0)

    @property
    def enabled(self) -> bool:
        return self.cache is not None

    def get_or_compute(self, kind: str, cell_keys: Iterable[str],
                       params: Optional[Dict[str, Any]],
                       compute: Callable[[], Any]) -> Any:
        """The artifact ``(kind, cell_keys, params)`` names.

        Answered from the cache when warm; otherwise ``compute()`` runs
        and (when the lane is enabled) its JSON-able return value is
        stored for next time.  The lane is optimization-only: a
        disabled or cold lane and a warm lane return equal artifacts —
        modulo JSON round-tripping, which is why artifacts are required
        to be JSON-able (tuples come back as lists; callers that care
        re-tuple).
        """
        if self.cache is None:
            self.counter.add("computed")
            return compute()
        key = derived_key(kind, cell_keys, params)
        quarantined_before = self.cache.quarantined
        artifact = self.cache.get(key)
        self.counter.add("quarantined",
                         self.cache.quarantined - quarantined_before)
        if artifact is not None:
            self.counter.add("hits")
            return artifact
        self.counter.add("misses")
        artifact = compute()
        self.counter.add("computed")
        self.cache.put(key, artifact, kind=kind,
                       analysis_version=ANALYSIS_VERSION)
        self.counter.add("stores")
        return artifact

    # -- observability -----------------------------------------------------
    def register(self, registry) -> None:
        """Mount the lane counters on ``registry`` as ``analysis.derived.*``."""
        registry.register("analysis.derived", self.counter)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready lane provenance for a run manifest."""
        doc: Dict[str, Any] = {"enabled": self.enabled,
                               "analysis_version": ANALYSIS_VERSION}
        doc.update(self.counter.as_dict())
        if self.cache is not None:
            doc["root"] = str(self.cache.root)
        return doc

    def summary(self) -> str:
        """One human line for the CLI footers."""
        counts = self.counter.as_dict()
        if not self.enabled:
            return (f"derived cache: disabled "
                    f"({counts['computed']} artifact(s) computed inline)")
        quarantine_note = (f", {counts['quarantined']} quarantined"
                          if counts["quarantined"] else "")
        return (f"derived cache: {counts['hits']} hit(s), "
                f"{counts['misses']} miss(es), {counts['stores']} "
                f"store(s){quarantine_note} under {self.cache.root}")


def as_lane(derived: Union[DerivedLane, ContentStore, str, os.PathLike, None],
            ) -> DerivedLane:
    """Coerce a lane argument (directory path, store, or lane) to a lane.

    ``None`` yields a disabled lane, so call sites never branch.
    """
    if isinstance(derived, DerivedLane):
        return derived
    if derived is None or isinstance(derived, ContentStore):
        return DerivedLane(derived)
    return DerivedLane(ContentStore(derived, DERIVED_FORMAT_VERSION))
