"""The paper's core contribution: policy-atom computation and analyses.

Pipeline order (mirroring §2.4):

1. :mod:`repro.core.sanitize` — remove abnormal peers (ADD-PATH damage,
   private-ASN leaks, duplicate floods), expand/drop AS_SETs, infer
   full-feed peers, filter prefixes by visibility and length;
2. :mod:`repro.core.atoms` — group prefixes by their AS-path vector
   across vantage points;
3. analyses — :mod:`statistics`, :mod:`update_correlation`,
   :mod:`formation`, :mod:`stability`, :mod:`splits`.
"""

from repro.core.atoms import AtomSet, PolicyAtom, compute_atoms
from repro.core.dynamics import DynamicsSummary, classify_updates
from repro.core.formation import (
    FORMATION_METHOD_II,
    FORMATION_METHOD_III,
    FormationResult,
    formation_distances,
)
from repro.core.fullfeed import full_feed_peers, full_feed_threshold
from repro.core.incremental import AtomIndex, IncrementalStats
from repro.core.intern import PathInternPool, pack_key, unpack_key
from repro.core.moas import moas_prefixes, moas_share
from repro.core.pipeline import AtomComputation, compute_policy_atoms
from repro.core.sanitize import (
    CleanDataset,
    SanitizationConfig,
    SanitizationReport,
    sanitize,
)
from repro.core.splits import SplitEvent, detect_splits
from repro.core.stability import complete_atom_match, maximized_prefix_match
from repro.core.statistics import GeneralStats, general_stats
from repro.core.update_correlation import UpdateCorrelation, update_correlation
from repro.core.visibility import VisibilityReport, visibility_report

__all__ = [
    "AtomComputation",
    "AtomIndex",
    "AtomSet",
    "CleanDataset",
    "DynamicsSummary",
    "FORMATION_METHOD_II",
    "FORMATION_METHOD_III",
    "FormationResult",
    "GeneralStats",
    "IncrementalStats",
    "PathInternPool",
    "PolicyAtom",
    "SanitizationConfig",
    "SanitizationReport",
    "SplitEvent",
    "UpdateCorrelation",
    "VisibilityReport",
    "classify_updates",
    "complete_atom_match",
    "compute_atoms",
    "compute_policy_atoms",
    "detect_splits",
    "formation_distances",
    "full_feed_peers",
    "full_feed_threshold",
    "general_stats",
    "maximized_prefix_match",
    "moas_prefixes",
    "moas_share",
    "pack_key",
    "sanitize",
    "unpack_key",
    "update_correlation",
    "visibility_report",
]
