"""Symmetric tensors over a finite atom set, stored on sorted multi-indices.

A degree-n symmetric tensor over m atoms keeps one value per sorted
multi-index (i_1 <= ... <= i_n), i.e. C(n+m-1, n) entries.  All algebra
(symmetrized products, diagonal restrictions, slot operations) works on this
dense multiset storage; index tables are precomputed per (m, n) and cached,
so the hot paths are vectorized gathers.

Symmetrization convention: the symmetrized product is the arithmetic mean
over position splits, so phi-tensor-phi equals the plain tensor square with
no combinatorial prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .measure import AtomicMeasure

# Hard caps keeping table sizes at desk scale.
MAX_DENSE = 4_000_000
MAX_DEGREE = 16


@dataclass(frozen=True)
class _MultisetTable:
    m: int
    n: int
    reps: np.ndarray         # (R, n) sorted representative tuples, lex order
    keys: np.ndarray         # (R,) strictly increasing integer keys
    powers: np.ndarray       # (n,) big-endian base-m digit weights
    perm_counts: np.ndarray  # (R,) number of distinct orderings of each rep

    def rank_sorted_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ranks of already-sorted index rows (shape (..., n))."""
        k = rows @ self.powers
        return np.searchsorted(self.keys, k)

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ranks of arbitrary index rows; rows are sorted internally."""
        return self.rank_sorted_rows(np.sort(rows, axis=-1))


@lru_cache(maxsize=None)
def _tables(m: int, n: int) -> _MultisetTable:
    if m < 1:
        raise DimensionError("need at least one atom")
    if n < 0 or n > MAX_DEGREE:
        raise SizeError(f"degree {n} outside supported range 0..{MAX_DEGREE}")
    if n == 0:
        reps = np.zeros((1, 0), dtype=np.int64)
    else:
        reps = np.array(list(combinations_with_replacement(range(m), n)),
                        dtype=np.int64).reshape(-1, n)
    powers = (m ** np.arange(n - 1, -1, -1, dtype=np.int64)) if n else np.zeros(0, np.int64)
    keys = reps @ powers
    pc = np.empty(len(reps), dtype=np.int64)
    for i, t in enumerate(reps):
        c = math.factorial(n)
        for v in set(t.tolist()):
            c //= math.factorial(int(np.count_nonzero(t == v)))
        pc[i] = c
    return _MultisetTable(m, n, reps, keys, powers, pc)


@lru_cache(maxsize=None)
def _ordered_ranks(m: int, n: int) -> np.ndarray:
    """Rank of the sorted version of every ordered tuple, in C order (m^n,)."""
    if m ** n > MAX_DENSE:
        raise SizeError(f"dense table m^n = {m}^{n} too large")
    grid = np.indices((m,) * n).reshape(n, -1).T if n else np.zeros((1, 0), np.int64)
    return _tables(m, n).rank_rows(grid)


@lru_cache(maxsize=None)
def _insert_ranks(m: int, n: int) -> np.ndarray:
    """(R_n, m) table: rank in degree n+1 of rep with one extra atom appended."""
    tab = _tables(m, n)
    big = _tables(m, n + 1)
    R = len(tab.reps)
    rows = np.empty((R, m, n + 1), dtype=np.int64)
    rows[:, :, :n] = tab.reps[:, None, :]
    rows[:, :, n] = np.arange(m)[None, :]
    return big.rank_rows(rows.reshape(R * m, n + 1)).reshape(R, m)


@lru_cache(maxsize=None)
def _split_ranks(m: int, na: int, nb: int):
    """Position-split tables for the symmetrized product.

    For every degree-(na+nb) rep and every choice of na positions, the ranks
    of the two sorted sub-tuples.  Returns (ranks_a, ranks_b), each of shape
    (R, C(na+nb, na)).
    """
    n = na + nb
    tab = _tables(m, n)
    combs = np.array(list(combinations(range(n), na)), dtype=np.int64).reshape(-1, na)
    comp = np.array([sorted(set(range(n)) - set(c.tolist())) for c in combs],
                    dtype=np.int64).reshape(-1, nb)
    sub_a = tab.reps[:, combs]    # (R, C, na), rows already sorted
    sub_b = tab.reps[:, comp]
    ra = _tables(m, na).rank_sorted_rows(sub_a.reshape(-1, na)).reshape(len(tab.reps), -1)
    rb = _tables(m, nb).rank_sorted_rows(sub_b.reshape(-1, nb)).reshape(len(tab.reps), -1)
    return ra, rb


@lru_cache(maxsize=None)
def _tie_table(m: int, n_in: int, r: int):
    """Entries for appending r tied copies of an existing slot.

    For each degree-(n_in + r) rep t and atom v appearing with count
    c >= r+1 in t, one entry (out_index, rank of t with r copies of v
    removed, v, C(c, r+1)).
    """
    tab_out = _tables(m, n_in + r)
    tab_in = _tables(m, n_in)
    rank_in = {tuple(t.tolist()): i for i, t in enumerate(tab_in.reps)}
    out_idx, in_rank, atoms, counts = [], [], [], []
    for i, t in enumerate(tab_out.reps):
        tl = t.tolist()
        for v in sorted(set(tl)):
            c = tl.count(v)
            if c >= r + 1:
                reduced = [x for x in tl if x != v] + [v] * (c - r)
                out_idx.append(i)
                in_rank.append(rank_in[tuple(sorted(reduced))])
                atoms.append(v)
                counts.append(math.comb(c, r + 1))
    return (np.array(out_idx, np.int64), np.array(in_rank, np.int64),
            np.array(atoms, np.int64), np.array(counts, np.int64))


class SymTensor:
    """A symmetric tensor of fixed degree over m atoms (multiset storage)."""

    def __init__(self, m: int, degree: int, values=None):
        self.m = int(m)
        self.degree = int(degree)
        R = math.comb(self.degree + self.m - 1, self.degree)
        if values is None:
            self.values = np.zeros(R)
        else:
            v = np.asarray(values)
            if v.shape != (R,):
                raise DimensionError(
                    f"expected {R} multiset values for m={m}, degree={degree}, got shape {v.shape}")
            self.values = v.astype(complex if np.iscomplexobj(v) else float)

    @property
    def reps(self) -> np.ndarray:
        return _tables(self.m, self.degree).reps

    @property
    def perm_counts(self) -> np.ndarray:
        return _tables(self.m, self.degree).perm_counts

    def value_at(self, idx) -> float:
        """Entry at an arbitrary (unsorted) index tuple."""
        row = np.sort(np.asarray(idx, dtype=np.int64))
        if row.shape != (self.degree,):
            raise ContractError(f"index tuple must have {self.degree} entries")
        r = int(_tables(self.m, self.degree).rank_sorted_rows(row[None, :])[0])
        return self.values[r]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def copy(self) -> "SymTensor":
        return SymTensor(self.m, self.degree, self.values.copy())

    def _check_compat(self, other: "SymTensor") -> None:
        if self.m != other.m:
            raise DimensionError("tensors live over different atom sets")
        if self.degree != other.degree:
            raise ContractError("tensors have different degrees")

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._check_compat(other)
        return SymTensor(self.m, self.degree, self.values + other.values)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        self._check_compat(other)
        return SymTensor(self.m, self.degree, self.values - other.values)

    def __neg__(self) -> "SymTensor":
        return SymTensor(self.m, self.degree, -self.values)

    def __mul__(self, c) -> "SymTensor":
        return SymTensor(self.m, self.degree, self.values * c)

    __rmul__ = __mul__

    def to_dense(self) -> np.ndarray:
        """Full (m,)*degree array (small degrees only)."""
        return self.values[_ordered_ranks(self.m, self.degree)].reshape(
            (self.m,) * self.degree)

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SymTensor":
        """Symmetrize a full array into multiset storage (mean over orderings)."""
        arr = np.asarray(arr)
        n = arr.ndim
        m = arr.shape[0] if n else 1
        if n and arr.shape != (m,) * n:
            raise DimensionError("dense array must be a hypercube")
        if not n:
            return cls(m, 0, np.asarray([complex(arr) if np.iscomplexobj(arr) else float(arr)]))
        ranks = _ordered_ranks(m, n)
        tab = _tables(m, n)
        acc = np.zeros(len(tab.reps), dtype=complex if np.iscomplexobj(arr) else float)
        np.add.at(acc, ranks, arr.ravel())
        return cls(m, n, acc / tab.perm_counts)

    def to_index_map(self) -> dict:
        """JSON-friendly map from sorted multi-index strings to values."""
        return {" ".join(map(str, t.tolist())): float(v)
                for t, v in zip(self.reps, self.values)}

    @classmethod
    def from_index_map(cls, m: int, degree: int, d: dict) -> "SymTensor":
        t = cls(m, degree)
        vals = t.values.copy()
        tab = _tables(m, degree)
        for key, v in d.items():
            idx = np.array(sorted(int(x) for x in key.split()), dtype=np.int64)
            if idx.shape != (degree,):
                raise ContractError(f"index key '{key}' has wrong arity for degree {degree}")
            if idx.size and (idx.min() < 0 or idx.max() >= m):
                raise DimensionError(f"index key '{key}' out of range for m={m}")
            x = float(v)
            if not math.isfinite(x):
                raise DomainError(f"value of index key '{key}' is not finite")
            vals[int(tab.rank_sorted_rows(idx[None, :])[0])] = x
        t.values = vals
        return t

    def __repr__(self) -> str:
        return f"SymTensor(m={self.m}, degree={self.degree})"


def rank_one(f, degree: int) -> SymTensor:
    """The symmetric power f^{(x) degree} of a test function (no prefactor)."""
    f = np.asarray(f)
    if f.ndim != 1:
        raise DimensionError("rank_one expects a vector of atom values")
    m = f.size
    reps = _tables(m, degree).reps
    vals = np.prod(f[reps], axis=1) if degree else np.ones(1, dtype=f.dtype)
    return SymTensor(m, degree, vals)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetrized tensor product (mean over position splits)."""
    if a.m != b.m:
        raise DimensionError("tensors live over different atom sets")
    if a.degree == 0:
        return SymTensor(b.m, b.degree, a.values[0] * b.values)
    if b.degree == 0:
        return SymTensor(a.m, a.degree, b.values[0] * a.values)
    ra, rb = _split_ranks(a.m, a.degree, b.degree)
    vals = np.mean(a.values[ra] * b.values[rb], axis=1)
    return SymTensor(a.m, a.degree + b.degree, vals)


def _check_partition(blocks, n: int) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for b in blocks:
        bl = sorted(int(x) for x in b)
        if not bl:
            raise ContractError("empty block in partition")
        if any(x < 0 or x >= n for x in bl):
            raise ContractError(f"partition block {bl} outside positions 0..{n - 1}")
        if seen & set(bl):
            raise ContractError("partition blocks overlap")
        seen |= set(bl)
        out.append(bl)
    if len(seen) != n:
        raise ContractError("partition does not cover all positions")
    return out


def diagonal_restrict(t: SymTensor, blocks) -> np.ndarray:
    """Evaluate t with the slots of each block identified.

    ``blocks`` partitions the positions 0..degree-1.  Returns a dense array
    with one axis per block (generally not symmetric across blocks).
    """
    bl = _check_partition(blocks, t.degree)
    k = len(bl)
    if t.m ** k > MAX_DENSE:
        raise SizeError("diagonal restriction too large to hold densely")
    pos_to_block = np.empty(t.degree, dtype=np.int64)
    for bi, b in enumerate(bl):
        pos_to_block[b] = bi
    grid = np.indices((t.m,) * k).reshape(k, -1).T if k else np.zeros((1, 0), np.int64)
    rows = grid[:, pos_to_block]
    vals = t.values[_tables(t.m, t.degree).rank_rows(rows)]
    return vals.reshape((t.m,) * k)


def multiply_pointwise_first_slot(t: SymTensor, g) -> SymTensor:
    """Symmetrization of g(x_1) t(x_1, ..., x_n).

    Because t is symmetric this is t multiplied by the mean of g over the
    slots of each multi-index.
    """
    g = np.asarray(g)
    if g.shape != (t.m,):
        raise DimensionError("pointwise factor must be a test function")
    if t.degree == 0:
        raise ContractError("degree-0 tensor has no slot to multiply")
    return SymTensor(t.m, t.degree, t.values * np.mean(g[t.reps], axis=1))


def append_tied_slots(t: SymTensor, r: int, measure: AtomicMeasure) -> SymTensor:
    """Symmetrize t(x_1..x_n) times r point-mass densities tying new slots to x_n.

    The result has degree n + r.  Each new slot carries a factor
    [x_new == x_n] / w at the tied atom (density convention), and the whole
    expression is symmetrized over slot orderings.  For r = 0 this is t.
    """
    if t.m != measure.m:
        raise DimensionError("tensor and measure atom counts differ")
    if t.degree == 0:
        raise ContractError("cannot tie new slots to a degree-0 tensor")
    if r == 0:
        return t.copy()
    n_out = t.degree + r
    out_idx, in_rank, atoms, counts = _tie_table(t.m, t.degree, r)
    vals = np.zeros(math.comb(n_out + t.m - 1, n_out),
                    dtype=complex if np.iscomplexobj(t.values) else float)
    contrib = counts * t.values[in_rank] / measure.weights[atoms] ** r
    np.add.at(vals, out_idx, contrib)
    vals /= math.comb(n_out, r + 1)
    return SymTensor(t.m, n_out, vals)


class FockVector:
    """A finite sequence of symmetric tensors, one per degree 0..N."""

    def __init__(self, kernels):
        ks = list(kernels)
        if not ks:
            raise ContractError("a Fock vector needs at least the degree-0 kernel")
        m = ks[0].m
        for d, k in enumerate(ks):
            if k.m != m:
                raise DimensionError("kernels live over different atom sets")
            if k.degree != d:
                raise ContractError(f"kernel at position {d} has degree {k.degree}")
        self.kernels = ks
        self.m = m

    @property
    def degree(self) -> int:
        return len(self.kernels) - 1

    @classmethod
    def zeros(cls, m: int, degree: int) -> "FockVector":
        return cls([SymTensor(m, d) for d in range(degree + 1)])

    @classmethod
    def vacuum(cls, m: int) -> "FockVector":
        v = cls.zeros(m, 0)
        v.kernels[0].values = np.ones(1)
        return v

    @classmethod
    def single(cls, t: SymTensor) -> "FockVector":
        """Embed one tensor as the only nonzero component."""
        v = cls.zeros(t.m, t.degree)
        v.kernels[t.degree] = t.copy()
        return v

    def get(self, n: int) -> SymTensor:
        """Degree-n kernel (zero tensor beyond the stored degree)."""
        if 0 <= n <= self.degree:
            return self.kernels[n]
        return SymTensor(self.m, n)

    def pad_to(self, degree: int) -> "FockVector":
        if degree <= self.degree:
            return self
        return FockVector(self.kernels + [SymTensor(self.m, d)
                                          for d in range(self.degree + 1, degree + 1)])

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.m != other.m:
            raise DimensionError("Fock vectors live over different atom sets")
        N = max(self.degree, other.degree)
        return FockVector([self.get(d) + other.get(d) for d in range(N + 1)])

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, c) -> "FockVector":
        return FockVector([k * c for k in self.kernels])

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return max(k.max_abs() for k in self.kernels)

    def __repr__(self) -> str:
        return f"FockVector(m={self.m}, degree={self.degree})"
