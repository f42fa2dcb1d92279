"""Extended Fock space inner products via loop partitions.

The degree-n component of the extended Fock space pairs two symmetric
kernels by summing, over all set partitions of the n slots, the integral of
the product restricted to the partition diagonal, weighted by the number of
cyclic orders of each block, prod_B (|B|-1)!.  Summing those multiplicities
over all partitions of n slots gives exactly n! (one summand per
permutation, grouped by its cycle partition), which is the census invariant.

Kernels vanishing on all diagonals reduce the sum to the all-singleton
partition, i.e. the ordinary symmetric-power inner product: the off-diagonal
subspace embeds isometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ContractError, DimensionError, SizeError
from .measure import AtomicMeasure
from .symtensor import FockVector, SymTensor, _tables

MAX_LOOP_ORDER = 10
_MAX_ASSIGNMENTS = 4_000_000


@dataclass(frozen=True)
class LoopPartition:
    """A set partition of slots 0..n-1 with its cyclic-order multiplicity."""

    blocks: tuple[tuple[int, ...], ...]
    multiplicity: int

    @property
    def order(self) -> int:
        return sum(len(b) for b in self.blocks)


def iter_loop_partitions(n: int) -> Iterator[LoopPartition]:
    """Generate all set partitions of {0..n-1} with multiplicity prod (|B|-1)!.

    Deterministic order: refinement-first recursion placing each element
    into existing blocks in order, then into a fresh block.
    """
    if not 1 <= n <= MAX_LOOP_ORDER:
        raise SizeError(f"partition order must be in 1..{MAX_LOOP_ORDER}, got {n}")
    blocks: list[list[int]] = []

    def rec(i: int):
        if i == n:
            mult = 1
            for b in blocks:
                mult *= math.factorial(len(b) - 1)
            yield LoopPartition(tuple(tuple(b) for b in blocks), mult)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


@lru_cache(maxsize=None)
def loop_partitions(n: int) -> tuple[LoopPartition, ...]:
    """All loop partitions of order n (cached)."""
    return tuple(iter_loop_partitions(n))


def loop_census(n: int) -> int:
    """Sum of multiplicities over all loop partitions of order n (equals n!)."""
    return sum(p.multiplicity for p in iter_loop_partitions(n))


def _check_pair(measure: AtomicMeasure, f: SymTensor, g: SymTensor) -> None:
    if f.m != g.m or f.m != measure.m:
        raise DimensionError("kernels and measure must share the atom set")
    if f.degree != g.degree:
        raise ContractError("kernels must have equal degree")


def _partition_integral(measure: AtomicMeasure, f: SymTensor, g: SymTensor,
                        part: LoopPartition) -> float:
    """Integral over one partition diagonal: assign an atom to each block,
    weight each block by its atom's measure weight, and sum conj(f) * g."""
    n = f.degree
    k = len(part.blocks)
    m = measure.m
    if m ** k > _MAX_ASSIGNMENTS:
        raise SizeError("partition diagonal too large for dense assignment sum")
    pos_to_block = np.empty(n, dtype=np.int64)
    for bi, b in enumerate(part.blocks):
        pos_to_block[list(b)] = bi
    grid = np.indices((m,) * k).reshape(k, -1).T
    ranks = _tables(m, n).rank_rows(grid[:, pos_to_block])
    vals = np.conj(f.values)[ranks] * g.values[ranks]
    wprod = np.prod(measure.weights[grid], axis=1)
    return (wprod @ vals).item()


def ext_inner_n(measure: AtomicMeasure, f: SymTensor, g: SymTensor) -> float:
    """Degree-n extended inner product (without the n! overall factor).

    Sums the diagonal integrals of all loop partitions of the n slots,
    each weighted by its cyclic-order multiplicity.
    """
    _check_pair(measure, f, g)
    if f.degree == 0:
        return (np.conj(f.values[0]) * g.values[0]).item()
    total = 0.0
    for part in loop_partitions(f.degree):
        total += part.multiplicity * _partition_integral(measure, f, g, part)
    return total


def fock_inner_n(measure: AtomicMeasure, f: SymTensor, g: SymTensor) -> float:
    """Ordinary symmetric-power inner product sum over ordered tuples of
    prod_k w_{i_k} conj(f) g (no n! factor)."""
    _check_pair(measure, f, g)
    if f.degree == 0:
        return (np.conj(f.values[0]) * g.values[0]).item()
    wprod = np.prod(measure.weights[f.reps], axis=1)
    return ((f.perm_counts * wprod) @ (np.conj(f.values) * g.values)).item()


def ext_inner(measure: AtomicMeasure, f: FockVector, g: FockVector) -> float:
    """Full extended Fock inner product: sum_n n! * ext_inner_n."""
    if f.m != g.m or f.m != measure.m:
        raise DimensionError("vectors and measure must share the atom set")
    total = 0.0
    for n in range(max(f.degree, g.degree) + 1):
        total += math.factorial(n) * ext_inner_n(measure, f.get(n), g.get(n))
    return total


def fock_inner(measure: AtomicMeasure, f: FockVector, g: FockVector) -> float:
    """Ordinary Fock inner product: sum_n n! * fock_inner_n."""
    if f.m != g.m or f.m != measure.m:
        raise DimensionError("vectors and measure must share the atom set")
    total = 0.0
    for n in range(max(f.degree, g.degree) + 1):
        total += math.factorial(n) * fock_inner_n(measure, f.get(n), g.get(n))
    return total


def is_off_diagonal(f: SymTensor, tol: float = 1e-12) -> bool:
    """True when every entry with a repeated atom index is below tol."""
    if f.degree < 2:
        return True
    reps = f.reps
    has_repeat = np.any(reps[:, 1:] == reps[:, :-1], axis=1)
    if not has_repeat.any():
        return True
    return float(np.max(np.abs(f.values[has_repeat]))) <= tol
