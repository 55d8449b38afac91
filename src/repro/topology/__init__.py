"""Synthetic AS-level Internet topology.

The generator produces a tiered AS graph with Gao-Rexford business
relationships, allocates address space, and attaches per-origin routing
policies (announcement groups, prepending, TE tags) plus per-transit
selective-export rules — the mechanisms the paper identifies as the
sources of policy-atom structure.
"""

from repro.topology.addressing import AddressAllocator
from repro.topology.evolution import WorldParams, YearProfile, profile_for
from repro.topology.generator import GeneratorParams, generate_topology
from repro.topology.model import ASGraph, ASNode, Relationship, Tier
from repro.topology.policies import OriginPolicy, PolicyUnit, TransitPolicy

__all__ = [
    "ASGraph",
    "ASNode",
    "AddressAllocator",
    "GeneratorParams",
    "OriginPolicy",
    "PolicyUnit",
    "Relationship",
    "Tier",
    "TransitPolicy",
    "WorldParams",
    "YearProfile",
    "generate_topology",
    "profile_for",
]
