"""Extended Fock space inner products and their loop partitions.

The degree-n component of the extended Fock space pairs two symmetric
kernels by summing, over all set partitions of the n slots, the integral of
the product restricted to the partition diagonal, weighted by the number of
cyclic orders of each block, prod_B (|B|-1)!.  Summing those multiplicities
over all partitions of n slots gives exactly n! (one summand per
permutation, grouped by its cycle partition), which is the census invariant.

Over finitely many atoms that sum collapses atom by atom: the partitions of
the k_i slots sitting on atom i contribute, by the Stirling first-kind
identity, sum_pi prod_B (|B|-1)! w_i^|pi| = w_i (w_i+1) ... (w_i+k_i-1).  So

    ext_inner_n(f, g) = sum_k perm_count(k) prod_i rising(w_i, k_i) conj(f[k]) g[k]

over the occupation counts k of the stored multi-indices.  The ordinary
product is the same sum with w_i^k_i in place of the rising factorials,
one body for both.  Kernels vanishing on all diagonals (every k_i <= 1)
make the two agree: the off-diagonal subspace embeds isometrically.

The loop partitions themselves are kept for the census table of
``gwn loops``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ContractError, DimensionError, SizeError
from .measure import AtomicMeasure
from .symtensor import FockVector, SymTensor, _degree, atom_products

# Loop partitions are enumerated and cached in Python: order 10 has
# Bell(10) = 115975 of them (52 MB, 3 s to build), and each further order
# multiplies both by about six.
MAX_LOOP_ORDER = 10


@dataclass(frozen=True)
class LoopPartition:
    """A set partition of slots 0..n-1 with its cyclic-order multiplicity."""

    blocks: tuple[tuple[int, ...], ...]
    multiplicity: int


def iter_loop_partitions(n: int) -> Iterator[LoopPartition]:
    """Generate all set partitions of {0..n-1} with multiplicity prod (|B|-1)!.

    Deterministic order: refinement-first recursion placing each element
    into existing blocks in order, then into a fresh block.  The
    multiplicity rides down the recursion: placing an element into a block
    of size L turns its (L-1)! into L!, a factor L; a fresh block adds 0! = 1.
    """
    if not 1 <= n <= MAX_LOOP_ORDER:
        raise SizeError(f"partition order must be in 1..{MAX_LOOP_ORDER}, got {n}")
    blocks: list[list[int]] = []

    def rec(i: int, mult: int):
        if i == n:
            yield LoopPartition(tuple(tuple(b) for b in blocks), mult)
            return
        for b in blocks:
            size = len(b)
            b.append(i)
            yield from rec(i + 1, mult * size)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, mult)
        blocks.pop()

    yield from rec(0, 1)


@lru_cache(maxsize=None)
def loop_partitions(n: int) -> tuple[LoopPartition, ...]:
    """All loop partitions of order n (cached)."""
    return tuple(iter_loop_partitions(n))


def loop_census(n: int) -> int:
    """Sum of multiplicities over all loop partitions of order n (equals n!)."""
    return sum(p.multiplicity for p in iter_loop_partitions(n))


def _weighted_inner_n(measure: AtomicMeasure, f: SymTensor, g: SymTensor,
                      step: float) -> float:
    """sum_k perm_count(k) prod_i t_i(k_i) conj(f[k]) g[k] with the per-atom
    weights t_i(k) = w_i (w_i + step) ... (w_i + (k-1) step)."""
    if f.m != g.m or f.m != measure.m:
        raise DimensionError("kernels and measure must share the atom set")
    if f.degree != g.degree:
        raise ContractError("kernels must have equal degree")
    n = f.degree
    table = np.ones((measure.m, n + 1))
    table[:, 1:] = np.cumprod(measure.weights[:, None] + step * np.arange(n), axis=1)
    wprod = atom_products(table, n)[_degree(measure.m, n)]
    wprod *= f.perm_counts   # in place on the fresh products; conj() of real values is no copy
    terms = f.values.conj() * g.values
    terms *= wprod
    # numpy's pairwise sum: a BLAS dot's rounding grows with the entry count
    return np.sum(terms).item()


def ext_inner_n(measure: AtomicMeasure, f: SymTensor, g: SymTensor) -> float:
    """Degree-n extended inner product (without the n! overall factor).

    The loop-partition sum in closed form: each stored multi-index with
    occupation counts k is weighted by perm_count(k) prod_i rising(w_i, k_i).
    """
    return _weighted_inner_n(measure, f, g, 1.0)


def fock_inner_n(measure: AtomicMeasure, f: SymTensor, g: SymTensor) -> float:
    """Ordinary symmetric-power inner product sum over ordered tuples of
    prod_k w_{i_k} conj(f) g (no n! factor): weights prod_i w_i^k_i."""
    return _weighted_inner_n(measure, f, g, 0.0)


def _fock_sum(measure: AtomicMeasure, f: FockVector, g: FockVector,
              inner_n) -> float:
    """sum_n n! * inner_n(f_n, g_n)."""
    if f.m != g.m or f.m != measure.m:
        raise DimensionError("vectors and measure must share the atom set")
    total = 0.0
    for n in range(max(f.degree, g.degree) + 1):
        total += math.factorial(n) * inner_n(measure, f.get(n), g.get(n))
    return total


def ext_inner(measure: AtomicMeasure, f: FockVector, g: FockVector) -> float:
    """Full extended Fock inner product: sum_n n! * ext_inner_n."""
    return _fock_sum(measure, f, g, ext_inner_n)


def fock_inner(measure: AtomicMeasure, f: FockVector, g: FockVector) -> float:
    """Ordinary Fock inner product: sum_n n! * fock_inner_n."""
    return _fock_sum(measure, f, g, fock_inner_n)


def is_off_diagonal(f: SymTensor, tol: float = 1e-12) -> bool:
    """True when every entry with a repeated atom index is below tol."""
    repeated = f.perm_counts != math.factorial(f.degree)   # an atom appears twice
    return not repeated.any() or float(np.max(np.abs(f.values[repeated]))) <= tol
