"""Real-world anchors and growth profiles, 2002-2024.

The paper reports absolute counts (ASes, prefixes, atoms, full-feed
peers) for several anchor dates; everything else in the longitudinal
study is a trend between those anchors.  This module encodes the
anchors at *full* Internet scale and interpolates piecewise-linearly,
so the world generator can be asked "what should the Internet look
like in July 2013" and scale the answer down by the configured factor.

Calibration constants that have no directly reported value (policy-mix
shares, churn hazards) were tuned so the emergent statistics land on
the paper's tables; they are all in one place here so re-calibration is
a data edit, not a code change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.util.dates import year_fraction


@dataclass(frozen=True)
class YearProfile:
    """Full-scale Internet shape at one instant.

    Counts are real-world magnitudes (the world generator scales them);
    shares and rates are dimensionless and used as-is.
    """

    year: float

    # Population (full scale).
    v4_ases: int
    v4_prefixes: int
    v6_ases: int
    v6_prefixes: int

    # Collector infrastructure (full scale).
    collectors: int
    fullfeed_peers: int
    partial_peers: int

    # Policy granularity.
    mean_unit_size_v4: float
    mean_unit_size_v6: float
    #: probability that a multi-prefix origin keeps one uniform policy
    single_unit_share_v4: float
    single_unit_share_v6: float
    #: largest atom observed (full scale; Table 1 / Table 4)
    max_atom_v4: int
    max_atom_v6: int

    # Mechanism mix among differentiated units: how an extra unit differs
    # from its origin's base unit.  Shares sum to 1.
    mix_prepend: float
    mix_selective: float
    mix_tag_shallow: float  # transit rule right above the origin -> distance 3
    mix_tag_deep: float     # transit rule one level higher -> distance 4+

    # Stability hazards (per hour).  Two-class mixture: a small volatile
    # share with a fast hazard, the rest slow (fits the paper's
    # fast-then-flat CAM decay).
    volatile_unit_share: float
    hazard_volatile: float
    hazard_stable: float
    #: probability a volatile change reverts to the previous state
    oscillation_bias: float

    #: probability per day that a vantage-point AS changes a provider
    vp_change_per_day: float

    #: share of prefixes originated by two ASes
    moas_share: float

    #: fraction of paths carrying an AS_SET (aggregation), of which most
    #: are singletons
    as_set_share: float


#: Anchor profiles.  Population numbers for 2002/2004/2011/2024 come from
#: the paper (§3.1, Table 1, Table 4, Fig. 12/13); intermediate years are
#: consistent with public RouteViews/RIS table-size history.
_ANCHORS: List[YearProfile] = [
    YearProfile(
        year=2002.0,
        v4_ases=12_500, v4_prefixes=115_000, v6_ases=0, v6_prefixes=0,
        collectors=1, fullfeed_peers=13, partial_peers=0,
        mean_unit_size_v4=4.4, mean_unit_size_v6=1.2,
        single_unit_share_v4=0.58, single_unit_share_v6=0.9,
        max_atom_v4=900, max_atom_v6=16,
        mix_prepend=0.17, mix_selective=0.36, mix_tag_shallow=0.19, mix_tag_deep=0.12,
        volatile_unit_share=0.05, hazard_volatile=0.055, hazard_stable=4.0e-4,
        oscillation_bias=0.45,
        vp_change_per_day=0.005, moas_share=0.030, as_set_share=0.010,
    ),
    YearProfile(
        year=2004.0,
        v4_ases=16_490, v4_prefixes=131_526, v6_ases=0, v6_prefixes=0,
        collectors=8, fullfeed_peers=45, partial_peers=10,
        mean_unit_size_v4=3.84, mean_unit_size_v6=1.2,
        single_unit_share_v4=0.55, single_unit_share_v6=0.9,
        max_atom_v4=1020, max_atom_v6=16,
        mix_prepend=0.16, mix_selective=0.36, mix_tag_shallow=0.20, mix_tag_deep=0.12,
        volatile_unit_share=0.05, hazard_volatile=0.055, hazard_stable=4.0e-4,
        oscillation_bias=0.45,
        vp_change_per_day=0.005, moas_share=0.032, as_set_share=0.009,
    ),
    YearProfile(
        year=2008.0,
        v4_ases=28_000, v4_prefixes=260_000, v6_ases=1_000, v6_prefixes=1_500,
        collectors=12, fullfeed_peers=120, partial_peers=40,
        mean_unit_size_v4=3.2, mean_unit_size_v6=1.2,
        single_unit_share_v4=0.40, single_unit_share_v6=0.88,
        max_atom_v4=1400, max_atom_v6=20,
        mix_prepend=0.13, mix_selective=0.4, mix_tag_shallow=0.27, mix_tag_deep=0.09,
        volatile_unit_share=0.06, hazard_volatile=0.06, hazard_stable=4.0e-4,
        oscillation_bias=0.45,
        vp_change_per_day=0.005, moas_share=0.033, as_set_share=0.008,
    ),
    YearProfile(
        year=2011.0,
        v4_ases=36_000, v4_prefixes=360_000, v6_ases=2_938, v6_prefixes=4_178,
        collectors=14, fullfeed_peers=180, partial_peers=70,
        mean_unit_size_v4=2.9, mean_unit_size_v6=1.20,
        single_unit_share_v4=0.30, single_unit_share_v6=0.85,
        max_atom_v4=1700, max_atom_v6=32,
        mix_prepend=0.125, mix_selective=0.38, mix_tag_shallow=0.29, mix_tag_deep=0.1,
        volatile_unit_share=0.06, hazard_volatile=0.06, hazard_stable=3.8e-4,
        oscillation_bias=0.45,
        vp_change_per_day=0.005, moas_share=0.034, as_set_share=0.008,
    ),
    YearProfile(
        year=2016.0,
        v4_ases=55_000, v4_prefixes=620_000, v6_ases=12_000, v6_prefixes=32_000,
        collectors=20, fullfeed_peers=350, partial_peers=150,
        mean_unit_size_v4=2.5, mean_unit_size_v6=1.8,
        single_unit_share_v4=0.12, single_unit_share_v6=0.75,
        max_atom_v4=2200, max_atom_v6=600,
        mix_prepend=0.13, mix_selective=0.28, mix_tag_shallow=0.35, mix_tag_deep=0.13,
        volatile_unit_share=0.07, hazard_volatile=0.07, hazard_stable=3.6e-4,
        oscillation_bias=0.45,
        vp_change_per_day=0.012, moas_share=0.035, as_set_share=0.007,
    ),
    YearProfile(
        year=2020.0,
        v4_ases=68_000, v4_prefixes=860_000, v6_ases=20_000, v6_prefixes=100_000,
        collectors=24, fullfeed_peers=500, partial_peers=220,
        mean_unit_size_v4=2.3, mean_unit_size_v6=2.1,
        single_unit_share_v4=0.08, single_unit_share_v6=0.70,
        max_atom_v4=2700, max_atom_v6=1400,
        mix_prepend=0.12, mix_selective=0.22, mix_tag_shallow=0.40, mix_tag_deep=0.14,
        volatile_unit_share=0.08, hazard_volatile=0.08, hazard_stable=3.4e-4,
        oscillation_bias=0.45,
        vp_change_per_day=0.012, moas_share=0.037, as_set_share=0.006,
    ),
    YearProfile(
        year=2024.8,
        v4_ases=76_672, v4_prefixes=1_028_444, v6_ases=34_164, v6_prefixes=227_363,
        collectors=28, fullfeed_peers=600, partial_peers=300,
        mean_unit_size_v4=2.13, mean_unit_size_v6=2.41,
        single_unit_share_v4=0.05, single_unit_share_v6=0.62,
        max_atom_v4=3072, max_atom_v6=2317,
        mix_prepend=0.11, mix_selective=0.20, mix_tag_shallow=0.43, mix_tag_deep=0.15,
        volatile_unit_share=0.15, hazard_volatile=0.32, hazard_stable=4.0e-4,
        oscillation_bias=0.50,
        vp_change_per_day=0.015, moas_share=0.038, as_set_share=0.005,
    ),
]

_NUMERIC_FIELDS = [
    name for name in YearProfile.__dataclass_fields__ if name != "year"
]


def _interpolate(left: YearProfile, right: YearProfile, when: float) -> YearProfile:
    if right.year == left.year:
        return left
    weight = (when - left.year) / (right.year - left.year)
    weight = min(1.0, max(0.0, weight))
    values: Dict[str, float] = {"year": when}
    for name in _NUMERIC_FIELDS:
        low = getattr(left, name)
        high = getattr(right, name)
        value = low + (high - low) * weight
        if isinstance(low, int) and isinstance(high, int):
            value = int(round(value))
        values[name] = value
    return YearProfile(**values)  # type: ignore[arg-type]


def profile_for(timestamp: int) -> YearProfile:
    """The interpolated full-scale profile at an epoch timestamp."""
    when = year_fraction(timestamp)
    if when <= _ANCHORS[0].year:
        return replace(_ANCHORS[0], year=when)
    for left, right in zip(_ANCHORS, _ANCHORS[1:]):
        if when <= right.year:
            return _interpolate(left, right, when)
    return replace(_ANCHORS[-1], year=when)


@dataclass
class WorldParams:
    """Scale and determinism knobs of one simulated Internet.

    ``as_scale`` / ``prefix_scale`` multiply the full-scale population
    counts; ``peer_scale`` multiplies vantage-point counts (kept higher
    than the population scale because atom fidelity depends on having
    enough independent viewpoints).
    """

    seed: int = 20250701
    as_scale: float = 1.0 / 50.0
    prefix_scale: float = 1.0 / 50.0
    peer_scale: float = 0.10
    collector_scale: float = 0.35
    min_fullfeed_peers: int = 8
    min_collectors: int = 2
    n_regions: int = 4
    #: multiply all churn hazards (0 freezes the world between snapshots)
    churn_multiplier: float = 1.0
    #: enable injection of the paper's data artifacts (A8.3)
    inject_artifacts: bool = True

    def scaled_counts(self, profile: YearProfile) -> "ScaledCounts":
        """Apply the world scale to a full-size profile."""
        return ScaledCounts(
            v4_ases=max(40, int(round(profile.v4_ases * self.as_scale))),
            v4_prefixes=max(80, int(round(profile.v4_prefixes * self.prefix_scale))),
            v6_ases=int(round(profile.v6_ases * self.as_scale)),
            v6_prefixes=int(round(profile.v6_prefixes * self.prefix_scale)),
            collectors=max(
                self.min_collectors,
                int(round(profile.collectors * self.collector_scale)),
            ),
            fullfeed_peers=max(
                self.min_fullfeed_peers,
                int(round(profile.fullfeed_peers * self.peer_scale)),
            ),
            partial_peers=int(round(profile.partial_peers * self.peer_scale)),
        )


@dataclass(frozen=True)
class ScaledCounts:
    """Population targets after applying the world scale."""

    v4_ases: int
    v4_prefixes: int
    v6_ases: int
    v6_prefixes: int
    collectors: int
    fullfeed_peers: int
    partial_peers: int


#: Ready-made scales.  TINY is for unit tests, SMALL for examples and
#: quick benches, MEDIUM for the full benchmark run.
TINY_WORLD = WorldParams(as_scale=1 / 400, prefix_scale=1 / 400, peer_scale=0.05,
                         collector_scale=0.25, min_fullfeed_peers=5)
SMALL_WORLD = WorldParams(as_scale=1 / 120, prefix_scale=1 / 120, peer_scale=0.05,
                          collector_scale=0.25, min_fullfeed_peers=6)
MEDIUM_WORLD = WorldParams(as_scale=1 / 50, prefix_scale=1 / 50, peer_scale=0.08)
