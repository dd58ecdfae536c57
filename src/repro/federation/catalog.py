"""Shard catalog: which warehouse shard holds which source.

The paper's "join across databases" mode is simulated in the seed by
loading every source into one warehouse. The federation layer keeps
each source in its own store — the shape HepToX (peer-to-peer
heterogeneous XML stores) and YeastMed (a mediator over distributed
biological sources) both argue for — and this catalog is the routing
table: shard name → backend spec, source name → ordered shard list.

A source mapped to **one** shard lives there whole; a source mapped to
several shards is horizontally partitioned — contiguous entry slices
in catalog order (see :meth:`repro.federation.facade.FederatedXomatiQ.
load_text`), which is what lets the coordinator reproduce monolithic
document order when merging.

The catalog round-trips through a small JSON registry file
(``xomatiq shard`` verbs manage it)::

    {
      "version": 1,
      "shards":  {"s0": {"path": "s0.sqlite", "backend": "sqlite"},
                  "s1": {"path": "s1.sqlite", "backend": "sqlite"}},
      "sources": {"hlx_enzyme": ["s0"],
                  "hlx_embl":   ["s1"],
                  "hlx_sprot":  ["s0", "s1"]}
    }

Warehouses open lazily on first use; a shard whose database file has
gone missing raises :class:`ShardUnreachableError` *at open time*, and
the scatter-gather executor turns that into a partial-results warning
rather than a hard failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ShardConfigError, ShardUnreachableError
from repro.obs.trace import NULL_TRACER

CATALOG_VERSION = 1

#: in-memory sqlite marker (tests and benchmarks shard without files)
MEMORY_PATH = ":memory:"


@dataclass(frozen=True)
class ShardSpec:
    """One shard's backend coordinates.

    ``latency_s`` models the shard's access round-trip (a remote
    shard's network hop), in the same injected-delay style as the
    harvest fault plan's ``stall`` outcome: the scatter-gather
    executor sleeps it once per shard subquery. Local file/memory
    shards default to 0.0; benchmarks (E13) and latency experiments
    set it to measure what concurrent scatter buys over sequential
    shard visits.
    """

    name: str
    path: str = MEMORY_PATH
    backend: str = "sqlite"
    latency_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form for the registry file."""
        data = {"path": self.path, "backend": self.backend}
        if self.latency_s:
            data["latency_s"] = self.latency_s
        return data


#: separates a shard name from a replica ordinal in backend names
#: (``s0#r1`` = second replica of shard ``s0``); reserved in shard names
REPLICA_SEP = "#"


def shard_of(backend_name: str) -> str:
    """The shard a backend name belongs to (``s0#r1`` → ``s0``)."""
    return backend_name.split(REPLICA_SEP, 1)[0]


class ShardCatalog:
    """Shard registry + source→shard routing + lazy warehouse pool.

    The catalog owns the warehouses it opens (:meth:`close` releases
    them); warehouses attached ready-made via :meth:`attach` are left
    to their creators.
    """

    def __init__(self, metrics=None):
        #: metrics sink handed to every warehouse this catalog opens
        #: (None = the process-wide default registry); the federated
        #: facade aligns this with its own registry so shard-level and
        #: coordinator-level metrics land in one place
        self.metrics = metrics
        #: shared tracer handed to every shard warehouse (set via
        #: :meth:`set_tracer`), so shard-side query spans and SQL
        #: statement records land in the *coordinator's* span tree
        #: instead of per-shard orphan tracers
        self.tracer = NULL_TRACER
        self._specs: dict[str, ShardSpec] = {}
        #: shard name → ordered replica specs (replica backend names
        #: are derived: ``<shard>#r<ordinal>``)
        self._replicas: dict[str, list[ShardSpec]] = {}
        self._sources: dict[str, list[str]] = {}
        self._warehouses: dict[str, object] = {}
        self._owned: set[str] = set()

    # -- registration --------------------------------------------------------

    def add_shard(self, name: str, path: str = MEMORY_PATH,
                  backend: str = "sqlite",
                  latency_s: float = 0.0) -> ShardSpec:
        """Register a shard; returns its spec."""
        if not name:
            raise ShardConfigError("shard name must be non-empty")
        if REPLICA_SEP in name:
            raise ShardConfigError(
                f"shard name {name!r} may not contain {REPLICA_SEP!r} "
                f"(reserved for replica backend names)")
        if name in self._specs:
            raise ShardConfigError(f"shard {name!r} already registered")
        if backend not in ("sqlite", "minidb"):
            raise ShardConfigError(
                f"shard {name!r}: unknown backend {backend!r} "
                f"(expected sqlite or minidb)")
        if latency_s < 0:
            raise ShardConfigError(
                f"shard {name!r}: latency_s must be >= 0")
        spec = ShardSpec(name=name, path=str(path), backend=backend,
                         latency_s=latency_s)
        self._specs[name] = spec
        return spec

    def attach(self, name: str, warehouse) -> None:
        """Register a shard backed by an already-open warehouse (tests
        and benchmarks build in-memory shards up front)."""
        if name in self._specs:
            raise ShardConfigError(f"shard {name!r} already registered")
        self._specs[name] = ShardSpec(name=name, path=MEMORY_PATH)
        self._adopt(name, warehouse)

    def add_replica(self, shard: str, path: str = MEMORY_PATH,
                    backend: str = "sqlite",
                    latency_s: float = 0.0) -> ShardSpec:
        """Register a replica backend for an existing shard.

        The replica gets a derived backend name (``<shard>#r<n>``) and
        holds the *same* data as its primary (the facade's loader
        writes every entry slice to the primary and all its replicas),
        so the executor can fail a subquery over to it — or hedge onto
        it — without changing the answer.
        """
        if shard not in self._specs:
            raise ShardConfigError(
                f"replica for unknown shard {shard!r}")
        if backend not in ("sqlite", "minidb"):
            raise ShardConfigError(
                f"replica of {shard!r}: unknown backend {backend!r} "
                f"(expected sqlite or minidb)")
        if latency_s < 0:
            raise ShardConfigError(
                f"replica of {shard!r}: latency_s must be >= 0")
        ordinal = len(self._replicas.get(shard, []))
        spec = ShardSpec(name=f"{shard}{REPLICA_SEP}r{ordinal}",
                         path=str(path), backend=backend,
                         latency_s=latency_s)
        self._replicas.setdefault(shard, []).append(spec)
        return spec

    def attach_replica(self, shard: str, warehouse) -> ShardSpec:
        """Register a replica backed by an already-open warehouse
        (tests and benchmarks build in-memory replicas up front)."""
        spec = self.add_replica(shard)
        self._adopt(spec.name, warehouse)
        return spec

    def _adopt(self, name: str, warehouse) -> None:
        """Pool a ready-made warehouse under ``name``, branded with it
        unless it already carries a shard name, and handed the shared
        tracer when the federation traces."""
        self._warehouses[name] = warehouse
        if not getattr(warehouse, "shard_name", ""):
            warehouse.shard_name = name
        if self.tracer.enabled:
            warehouse.enable_tracing(self.tracer)

    def replicas(self, shard: str) -> list[ShardSpec]:
        """Ordered replica specs of one shard ([] when none)."""
        return list(self._replicas.get(shard, []))

    def backends_for(self, shard: str) -> list[str]:
        """All backend names able to answer for a shard: the primary
        first (it is the write target and the fast path), then its
        replicas in registration order."""
        if shard not in self._specs:
            raise ShardConfigError(f"unknown shard {shard!r}")
        return [shard] + [spec.name
                          for spec in self._replicas.get(shard, [])]

    def assign(self, source: str, *shards: str) -> None:
        """Route a source to one shard (whole) or several (horizontally
        partitioned in the given order); replaces any prior route."""
        if not shards:
            raise ShardConfigError(
                f"source {source!r} needs at least one shard")
        for shard in shards:
            if shard not in self._specs:
                raise ShardConfigError(
                    f"source {source!r} routed to unknown shard {shard!r}")
        if len(set(shards)) != len(shards):
            raise ShardConfigError(
                f"source {source!r} routed to the same shard twice")
        self._sources[source] = list(shards)

    # -- lookup --------------------------------------------------------------

    def shard_names(self) -> list[str]:
        """Registered shard names, registration order."""
        return list(self._specs)

    def spec(self, name: str) -> ShardSpec:
        """Spec of one shard or replica backend (``s0`` or ``s0#r1``)."""
        spec = self._specs.get(name)
        if spec is not None:
            return spec
        if REPLICA_SEP in name:
            for candidate in self._replicas.get(shard_of(name), []):
                if candidate.name == name:
                    return candidate
        raise ShardConfigError(f"unknown shard {name!r}")

    def sources(self) -> dict[str, list[str]]:
        """source → ordered shard names (a copy)."""
        return {source: list(shards)
                for source, shards in self._sources.items()}

    def shards_for(self, source: str) -> list[str]:
        """Ordered shards hosting a source; [] when unrouted."""
        return list(self._sources.get(source, []))

    def shard_position(self, source: str, shard: str) -> int:
        """Position of ``shard`` in a source's partition order — the
        coordinator's primary sort component for partitioned sources
        (contiguous loading makes it the monolithic load order)."""
        try:
            return self._sources[source].index(shard)
        except (KeyError, ValueError):
            return 0

    # -- warehouses ----------------------------------------------------------

    def warehouse(self, name: str):
        """The shard's warehouse, opened on first use.

        Raises :class:`ShardUnreachableError` when the shard's
        database cannot be opened (missing file, broken backend) —
        callers on the query path degrade, administrative callers
        surface it.
        """
        warehouse = self._warehouses.get(name)
        if warehouse is not None:
            return warehouse
        spec = self.spec(name)
        try:
            warehouse = self._open(spec)
        except ShardUnreachableError:
            raise
        except Exception as exc:
            raise ShardUnreachableError(
                f"shard {name!r} ({spec.path}): {exc}") from exc
        self._warehouses[name] = warehouse
        self._owned.add(name)
        return warehouse

    def peek(self, name: str):
        """The backend's warehouse if it is already open, else None —
        never opens one. (The executor's straggler cancellation uses
        this: there is nothing to interrupt on a backend that was
        never opened.)"""
        return self._warehouses.get(name)

    def set_tracer(self, tracer) -> None:
        """Adopt one shared tracer for every shard warehouse — the
        ones already open (including attached ones) and every one
        opened later. This is the cross-shard half of the distributed
        trace: without it each shard's query spans start their own
        disconnected tree."""
        self.tracer = tracer
        for warehouse in self._warehouses.values():
            warehouse.enable_tracing(tracer)

    def _open(self, spec: ShardSpec):
        from repro.engine import Warehouse

        def branded(warehouse):
            warehouse.shard_name = spec.name
            return warehouse

        if spec.backend == "minidb":
            from repro.relational import MiniDbBackend
            return branded(Warehouse(backend=MiniDbBackend(),
                                     metrics=self.metrics,
                                     trace=self.tracer))
        if spec.path == MEMORY_PATH:
            return branded(Warehouse(metrics=self.metrics,
                                     trace=self.tracer))
        path = Path(spec.path)
        if not path.exists():
            raise ShardUnreachableError(
                f"shard {spec.name!r}: database {spec.path} does not "
                f"exist (create it with `xomatiq shard init`)")
        from repro.relational import SqliteBackend
        return branded(Warehouse(backend=SqliteBackend(path),
                                 create=False, metrics=self.metrics,
                                 trace=self.tracer))

    def create_shards(self) -> None:
        """Eagerly create/open every shard database (``shard init``)."""
        from repro.engine import Warehouse
        from repro.relational import SqliteBackend
        specs = list(self._specs.values())
        for replicas in self._replicas.values():
            specs.extend(replicas)
        for spec in specs:
            if spec.name in self._warehouses or spec.backend != "sqlite" \
                    or spec.path == MEMORY_PATH:
                continue
            if not Path(spec.path).exists():
                Warehouse(backend=SqliteBackend(spec.path)).close()

    def close(self) -> None:
        """Close every warehouse this catalog opened itself."""
        for name in list(self._owned):
            warehouse = self._warehouses.pop(name, None)
            self._owned.discard(name)
            if warehouse is not None:
                warehouse.close()
        # attached warehouses stay open — their creators own them
        self._warehouses = {name: wh for name, wh in
                            self._warehouses.items()}

    # -- registry file -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready registry form."""
        shards = {}
        for name, spec in self._specs.items():
            entry = spec.to_dict()
            if self._replicas.get(name):
                entry["replicas"] = [replica.to_dict()
                                     for replica in self._replicas[name]]
            shards[name] = entry
        return {
            "version": CATALOG_VERSION,
            "shards": shards,
            "sources": {source: list(shards)
                        for source, shards in self._sources.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardCatalog":
        """Rebuild a catalog from its registry form."""
        if not isinstance(data, dict) or "shards" not in data:
            raise ShardConfigError("shard map must be an object with "
                                   "'shards' and 'sources' keys")
        version = data.get("version", CATALOG_VERSION)
        if version != CATALOG_VERSION:
            raise ShardConfigError(
                f"unsupported shard-map version {version!r}")
        catalog = cls()
        for name, spec in data["shards"].items():
            if not isinstance(spec, dict):
                raise ShardConfigError(
                    f"shard {name!r}: spec must be an object")
            catalog.add_shard(name, path=spec.get("path", MEMORY_PATH),
                              backend=spec.get("backend", "sqlite"),
                              latency_s=spec.get("latency_s", 0.0))
            for replica in spec.get("replicas", []):
                if not isinstance(replica, dict):
                    raise ShardConfigError(
                        f"shard {name!r}: replica spec must be an object")
                catalog.add_replica(
                    name, path=replica.get("path", MEMORY_PATH),
                    backend=replica.get("backend", "sqlite"),
                    latency_s=replica.get("latency_s", 0.0))
        for source, shards in data.get("sources", {}).items():
            if isinstance(shards, str):
                shards = [shards]
            catalog.assign(source, *shards)
        return catalog

    def save(self, path: str | Path) -> None:
        """Write the registry file."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ShardCatalog":
        """Read a registry file; shard paths stay relative to the
        process working directory (the file records what was given)."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ShardConfigError(f"cannot read shard map {path}: "
                                   f"{exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ShardConfigError(
                f"shard map {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
