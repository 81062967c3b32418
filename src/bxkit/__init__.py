"""Bidirectional transformation kernel.

A small laboratory for bidirectional transformations: a universal value
model, pluggable update and traceability representations, adapters for
the classic framework families (mappings, lenses, maintainers, trigonal
systems, symmetric lenses, edit lenses, symmetric delta-lenses), an
executable suite of the bidirectional laws checked bounded-exhaustively
over finite domains, and a classifier that places each transformation on
the standard comparison axes.
"""

from .values import (
    AtomInt,
    AtomStr,
    CapExceeded,
    DomainDescriptor,
    InvalidPath,
    Pair,
    Rec,
    SamenessRelation,
    Seq,
    Value,
    atom,
    atoms,
    cardinality,
    contains,
    diff,
    enumerate_values,
    pair,
    pairs_of,
    rec,
    recs_of,
    select,
    seq,
    seqs_of,
)
from .scheme import (
    BothStates,
    ComplementTrace,
    Delete,
    DeltaTrace,
    DeltaUpdate,
    EditOp,
    Edits,
    Insert,
    NoTrace,
    Opaque,
    PostState,
    ReplaceAt,
    ReplaceRoot,
    SetField,
    StateEdits,
    StateTrace,
    Traceability,
    Update,
    UpdatePreorder,
    compose_updates,
    default_preorder,
    identity_update,
    incidence_failure,
)
from .grammar import parse_value, render_value
from .frameworks import (
    Bx,
    Undefined,
    UnknownName,
    make_edit_lens,
    make_lens,
    make_maintainer,
    make_mapping,
    make_sdelta_lens,
    make_symmetric_lens,
    make_trigonal,
)
from .catalog import CatalogEntry, catalog, catalog_entries, catalog_names
from .laws import (
    ALL_LAWS,
    LawReport,
    LawSuiteConfig,
    audit_incidence,
    run_suite,
)
from .classify import SchemeSignature, classify, render_report, well_behaved
from .verdict import Counterexample, Fails, Holds, NotExpressible, Vacuous, Verdict, WeaklyHolds

__version__ = "0.1.0"
