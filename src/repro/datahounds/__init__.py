"""Data Hounds: harvest, transform and load biological sources
(paper §2). See :class:`DataHound` for the orchestrator."""

from repro.datahounds.faults import (
    FaultInjectingRepository,
    FaultPlan,
    FaultSpec,
)
from repro.datahounds.hound import (
    DataHound,
    DocumentStore,
    HarvestReport,
    LoadReport,
    SourceFailure,
)
from repro.datahounds.mapping import strip_trailing_period
from repro.datahounds.registry import SourceRegistry
from repro.datahounds.resilience import ResilientRepository
from repro.datahounds.transformer import SourceTransformer
from repro.datahounds.transport import (
    DirectoryRepository,
    FetchResult,
    InMemoryRepository,
    content_checksum,
)
from repro.datahounds.triggers import ChangeEvent, TriggerHub
from repro.datahounds.updates import (
    ReleaseSnapshot,
    UpdatePlan,
    chunk_fingerprint,
    diff_releases,
    entry_fingerprint,
)

__all__ = [
    "ChangeEvent",
    "DataHound",
    "DirectoryRepository",
    "DocumentStore",
    "FaultInjectingRepository",
    "FaultPlan",
    "FaultSpec",
    "FetchResult",
    "HarvestReport",
    "InMemoryRepository",
    "LoadReport",
    "ReleaseSnapshot",
    "ResilientRepository",
    "SourceFailure",
    "SourceRegistry",
    "SourceTransformer",
    "TriggerHub",
    "UpdatePlan",
    "chunk_fingerprint",
    "content_checksum",
    "diff_releases",
    "entry_fingerprint",
    "strip_trailing_period",
]
