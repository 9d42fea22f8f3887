"""Object fusion via semantic object-ids (Section 2), re-exported.

The functions live in :mod:`repro.oem.compare`, beside the duplicate
elimination that :func:`~repro.oem.compare.finish` runs before them:
they depend on OEM alone, and the wrappers, which cannot import the
mediator, finish their answers with them too.

Naming note: this is **object** fusion, a semantic feature of the
result set.  It is unrelated to :mod:`repro.mediator.pipeline`, which
implements **operator** fusion — a physical-plan optimization that
merges straight-line datamerge operators into single pipeline nodes.
"""

from repro.oem.compare import fuse_objects, has_semantic_oids

__all__ = ["fuse_objects", "has_semantic_oids"]
