"""Exact-arithmetic Littlewood complexes and equivariant resolution tooling
for the classical and exceptional groups."""

from .partitions import Decomposition, Partition
from .characters import Character, RootSystem, Weight, build_root_system, dim_irrep
from .bott import BottOutcome, SpinLabel, bott
from .complexes import GradedTerm, GroupCase, parse_case
from .resolutions import BettiTable, HilbertData

__all__ = [
    "BettiTable",
    "BottOutcome",
    "Character",
    "Decomposition",
    "GradedTerm",
    "GroupCase",
    "HilbertData",
    "Partition",
    "RootSystem",
    "SpinLabel",
    "Weight",
    "bott",
    "build_root_system",
    "dim_irrep",
    "parse_case",
]
