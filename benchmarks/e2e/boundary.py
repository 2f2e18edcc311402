"""Spans the benchmark puts around the program's public entry points.

The program already emits spans for blocking, grid rounds/tasks, MLN
inference, streaming, WAL/checkpoints and serving.  The layers it does not
cover are measured from outside: :func:`install` wraps one public entry
point per missing layer in ``repro.obs.trace.span()``, so the new spans nest
in the same tree (pool workers are forked after the wrap, so their task
captures carry them too).  Nothing here runs in the untraced pass.
"""

from __future__ import annotations

import functools
import inspect

from repro.obs import registry as obs_registry
from repro.obs.trace import span

#: (module, owner or None for a module-level function, attribute, span name)
_WRAPS = (
    ("repro.datamodel.compact", "CompactStore", "from_store", "datamodel.snapshot"),
    ("repro.datamodel.compact", "CompactStore", "restrict", "datamodel.restrict"),
    ("repro.datamodel.compact", "StoreView", "restrict", "datamodel.restrict"),
    ("repro.datamodel.store", "EntityStore", "restrict", "datamodel.restrict"),
    ("repro.streaming.overlay", "StoreOverlay", "restrict", "datamodel.restrict"),
    ("repro.core.maximal", None, "compute_maximal_messages", "core.maximal_messages"),
    ("repro.mln.model", "MarkovLogicNetwork", "ground", "mln.ground"),
    ("repro.dedupalog.engine", "DedupalogEngine", "evaluate", "dedupalog.evaluate"),
    ("repro.serving.epoch", "Epoch", "__init__", "serving.epoch_publish"),
    ("repro.serving.service", "MatchService", "_validate_batch", "serving.validate"),
    ("repro.durability.session", "DurableStreamSession", "recover", "durable.recover_total"),
)

#: Modules that imported ``compute_maximal_messages`` by name before the wrap.
_MAXIMAL_IMPORTERS = ("repro.parallel.tasks", "repro.core.mmp", "repro.core",
                      "repro")

NETWORK_FOR_CALLS = "e2e_network_for_calls_total"


def _spanned(function, name):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)
    return wrapper


def install() -> None:
    """Wrap every entry point in ``_WRAPS`` (once per process)."""
    import importlib
    for module_name, owner_name, attribute, span_name in _WRAPS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_spanned(raw.__func__, span_name))
        else:
            wrapped = _spanned(raw, span_name)
        setattr(owner, attribute, wrapped)
        if owner_name is None:
            for importer in _MAXIMAL_IMPORTERS:
                setattr(importlib.import_module(importer), attribute, wrapped)

    # network_for is far too hot for a span (every match and every
    # score_delta goes through it); a registry counter rides back from pool
    # workers on MapResult.metrics like the program's own counters.
    from repro.matchers.mln_matcher import MLNMatcher
    calls = obs_registry.counter(
        NETWORK_FOR_CALLS, "MLNMatcher.network_for calls (benchmark wrap)")
    network_for = MLNMatcher.network_for

    @functools.wraps(network_for)
    def counted(self, store):
        calls.inc()
        return network_for(self, store)
    MLNMatcher.network_for = counted
