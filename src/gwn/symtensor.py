"""Symmetric tensors over a finite atom set, stored on sorted multi-indices.

A degree-n symmetric tensor over m atoms keeps one value per sorted
multi-index (i_1 <= ... <= i_n), i.e. C(n+m-1, n) entries.  Each entry is
also indexed by its occupation counts k (k_i = how often atom i appears),
and perm_count(k) = n! / prod_i k_i! counts its orderings.  A symmetric
tensor f is thereby the polynomial sum_k perm_count(k) f[k] s^k in the
atom variables, which is how the inner products, Wick kernels and basis
conversions factor over atoms.

Every product prod_i t_i(k_i) of a per-atom table t comes from one kernel,
``atom_products``: rank-one powers (f^k), inner-product weights (w^k,
rising(w, k)), Wick densities and functional values (s^k, q_k(s)).  A rep
ending in k copies of atom a is its parent (those copies removed) times
t_a(k), so all degrees 0..N cost one multiply per entry.

Symmetrization convention: the symmetrized product is the arithmetic mean
over position splits, so phi-tensor-phi equals the plain tensor square with
no combinatorial prefactor.  It is the product of the two polynomials: the
coefficients perm_count(k) f[k] of the factors are multiplied and added
onto the merge table, which maps a pair of multi-indices to the rank of
their union (occupation counts k_a + k_b).  The same table serves the slot
operators (one extra atom, degree b = 1) and the dense layout (a chain of
one-atom merges).

Every rank table comes from the cached multiset and last-run tables of
each (m, n), the merge table or, in ``wickcalc``, the simplex of all
degrees <= N, so the hot paths are vectorized gathers.  Each is checked
against one entry budget, ``MAX_ENTRIES``, before it is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .measure import _json_number

# Most entries one table or tensor may hold (2^26 int64 entries are
# 512 MB).  It admits the 16-atom degree-8 Wick kernels and the 60-atom
# degree-4 tables, and refuses the many-atom tables that would take
# gigabytes before allocating them.
MAX_ENTRIES = 1 << 26
# perm_counts divides int64 factorials, which are exact only up to 20!;
# 16 keeps a margin and lies past every degree the suites use.
MAX_DEGREE = 16


def _check_entries(entries: int, what: str) -> None:
    if entries > MAX_ENTRIES:
        raise SizeError(f"{what} needs {entries} entries, over the budget of "
                        f"{MAX_ENTRIES}")


def _check_degree(n: int) -> None:
    if n < 0 or n > MAX_DEGREE:
        raise SizeError(f"degree {n} outside supported range 0..{MAX_DEGREE}")


@dataclass(frozen=True)
class _MultisetTable:
    m: int
    n: int
    reps: np.ndarray         # (R, n) sorted representative tuples, lex order
    keys: np.ndarray         # (R,) strictly increasing integer keys
    powers: np.ndarray       # (n,) big-endian base-m digit weights
    occ: np.ndarray          # (R, m) occupation counts
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
    _check_degree(n)
    _check_entries(math.comb(n + m - 1, n) * max(m, n), f"multiset table (m={m}, n={n})")
    if n == 0:
        reps = np.zeros((1, 0), dtype=np.int64)
    else:
        reps = np.array(list(combinations_with_replacement(range(m), n)),
                        dtype=np.int64).reshape(-1, n)
    powers = (m ** np.arange(n - 1, -1, -1, dtype=np.int64)) if n else np.zeros(0, np.int64)
    keys = reps @ powers
    R = len(reps)
    occ = np.bincount((np.arange(R) + R * reps.T).ravel(),
                      minlength=R * m).reshape(m, R).T
    # n! / prod_i k_i!, where prod_i k_i! is the product of the positions
    # of each slot within its run of equal atoms in the sorted rep
    pc = np.full(R, math.factorial(n), dtype=np.int64)
    run = np.ones(R, dtype=np.int64)
    for p in range(1, n):
        run = np.where(reps[:, p] == reps[:, p - 1], run + 1, 1)
        pc //= run
    return _MultisetTable(m, n, reps, keys, powers, occ, pc)


def _start(m: int, n: int) -> int:
    """Offset of degree n when the reps of every degree are laid out in turn."""
    return math.comb(n + m - 1, m)


@lru_cache(maxsize=None)
def _last_runs(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parent, a, k) per degree-n rep, n >= 1: it ends in k copies of atom a;
    parent is the ``_start`` offset of the rep without them (k key digits)."""
    tab = _tables(m, n)
    a = tab.reps[:, -1]
    k = tab.occ[np.arange(len(a)), a]
    parent = tab.keys // m ** k
    for j in np.unique(k).tolist():
        run = k == j
        parent[run] = _start(m, n - j) + np.searchsorted(_tables(m, n - j).keys,
                                                         parent[run])
    return parent, a, k


def atom_products(table, N: int) -> list[np.ndarray]:
    """P_0..P_N for an (m, N+1, ...) per-atom table t: P_n[r, ...] =
    prod_i t[i, k_i(r), ...] over the occupation counts of each degree-n rep
    r, built as P_{n-k}[parent] * t[a, k] in one buffer.  t[:, 0] stands
    for t_i(0) = 1 and is never read."""
    _check_degree(N)
    table = np.asarray(table)
    m, tail = table.shape[0], table.shape[2:]
    starts = [_start(m, n) for n in range(N + 2)]
    _check_entries(starts[-1] * math.prod(tail), f"atom products up to degree {N}")
    flat = np.empty((starts[-1],) + tail, dtype=table.dtype)
    flat[0] = 1
    for n in range(1, N + 1):
        parent, a, k = _last_runs(m, n)
        lo, hi = starts[n], starts[n + 1]
        # the parents lie below lo, so with mode="clip" take makes no copy
        flat[:lo].take(parent, axis=0, out=flat[lo:hi], mode="clip")
        flat[lo:hi] *= table[a, k]
    return [flat[lo:hi] for lo, hi in zip(starts, starts[1:])]


@lru_cache(maxsize=None)
def _merge_ranks(m: int, a: int, b: int) -> np.ndarray:
    """(R_a, R_b) table: degree-(a+b) rank of the union of degree-a rep i and
    degree-b rep j, i.e. of the occupation counts k_i + k_j.  Callers put the
    larger degree first, so the product and slot operators share tables."""
    ta = _tables(m, a)
    _check_entries(len(ta.reps) * math.comb(b + m - 1, b), f"merge table ({a}, {b})")
    if b != 1:
        r = np.arange(len(ta.reps))[:, None]
        for p, atoms in enumerate(_tables(m, b).reps.T):
            r = _merge_ranks(m, a + p, 1)[r, atoms]
        return r
    # Inserting atom x behind the p entries <= x multiplies the key digits
    # of those p entries by m and writes x at digit a - p.
    p = np.cumsum(ta.occ, axis=1)
    head = np.zeros((len(ta.reps), a + 1), dtype=np.int64)
    np.cumsum(ta.reps * ta.powers, axis=1, out=head[:, 1:])
    keys = ta.keys[:, None] + (m - 1) * np.take_along_axis(head, p, axis=1) \
        + np.arange(m) * m ** (a - p)
    return np.searchsorted(_tables(m, a + 1).keys, keys)


@lru_cache(maxsize=None)
def _ordered_ranks(m: int, n: int) -> np.ndarray:
    """Rank of the sorted version of every ordered tuple, in C order (m^n,)."""
    _check_entries(m ** n, f"dense table {m}^{n}")
    r = np.zeros(1, dtype=np.int64)
    for d in range(n):
        r = _merge_ranks(m, d, 1)[r].ravel()
    return r


class SymTensor:
    """A symmetric tensor of fixed degree over m atoms (multiset storage)."""

    def __init__(self, m: int, degree: int, values=None):
        self.m = int(m)
        self.degree = int(degree)
        _check_degree(self.degree)
        R = math.comb(self.degree + self.m - 1, self.degree)
        _check_entries(R, f"degree-{self.degree} tensor over {self.m} atoms")
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
        for key, v in d.items():
            idx = np.array(sorted(int(x) for x in key.split()), dtype=np.int64)
            if idx.shape != (degree,):
                raise ContractError(f"index key '{key}' has wrong arity for degree {degree}")
            if idx.size and (idx.min() < 0 or idx.max() >= m):
                raise DimensionError(f"index key '{key}' out of range for m={m}")
            x = _json_number(v, f"value of index key '{key}'")
            if not math.isfinite(x):
                raise DomainError(f"value of index key '{key}' is not finite")
            vals[int(_tables(m, degree).rank_sorted_rows(idx[None, :])[0])] = x
        t.values = vals
        return t

    def __repr__(self) -> str:
        return f"SymTensor(m={self.m}, degree={self.degree})"


def rank_one(f, degree: int) -> SymTensor:
    """The symmetric power f^{(x) degree} of a test function (no prefactor)."""
    f = np.asarray(f)
    if f.ndim != 1 or f.size == 0:
        raise DimensionError("rank_one expects a vector of atom values")
    _check_degree(degree)
    powers = f[:, None] ** np.arange(degree + 1)
    return SymTensor(f.size, degree, atom_products(powers, degree)[degree])


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetrized tensor product (mean over position splits): the product
    of the polynomials sum_k perm_count(k) f[k] s^k of the two factors."""
    if a.m != b.m:
        raise DimensionError("tensors live over different atom sets")
    if a.degree < b.degree:
        a, b = b, a
    coeff = np.outer(a.perm_counts * a.values, b.perm_counts * b.values)
    tab = _tables(a.m, a.degree + b.degree)
    vals = np.zeros(len(tab.reps), dtype=coeff.dtype)
    np.add.at(vals, _merge_ranks(a.m, a.degree, b.degree).ravel(), coeff.ravel())
    return SymTensor(a.m, a.degree + b.degree, vals / tab.perm_counts)


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
