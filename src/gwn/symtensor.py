"""Symmetric tensors over a finite atom set, stored on sorted multi-indices.

A degree-n symmetric tensor over m atoms keeps one value per sorted
multi-index (i_1 <= ... <= i_n), i.e. C(n+m-1, n) entries.  Each entry is
also indexed by its occupation counts k (k_i = how often atom i appears),
and perm_count(k) = n! / prod_i k_i! counts its orderings.  A symmetric
tensor f is thereby the polynomial sum_k A[k] s^k in the atom variables,
A[k] = perm_count(k) f[k], which is how the inner products, Wick kernels
and basis conversions factor over atoms.  A ``FockVector`` stores only A,
over degrees 0..N on the flat layout of ``atom_products``; the kernels
f = A / perm_count appear only where ``SymTensor``s go in or come out.

Every product prod_i t_i(k_i) of a per-atom table t comes from one kernel,
``atom_products``: rank-one powers (f^k), inner-product weights (w^k,
rising(w, k)), Wick densities and functional values (s^k, q_k(s)).  A rep
ending in k copies of atom a is its parent (those copies removed) times
t_a(k), so all degrees 0..N cost one multiply per entry.  The factors are
read k-major, t_a(k) as row k m + a, through one cached row index per
degree, each block gathered by one ``take`` into one reused buffer.

Symmetrization convention: the symmetrized product is the arithmetic mean
over position splits, so phi-tensor-phi equals the plain tensor square with
no combinatorial prefactor.  It is the product of the two polynomials: the
coefficients A of the factors are multiplied and added onto the merge
table, which maps a pair of multi-indices to the rank of their union
(occupation counts k_a + k_b).  One table, ``_insertions``, holds the
one-atom steps, the offset of each rep with one atom added: both slot
kernels of ``fieldops`` read it (raising adds onto it, lowering reads from
it), the merge tables compose it, and ``wickcalc`` converts bases and
restricts functionals to one atom along it and the run table of run
lengths and bases.

Every rank table is built from the one a degree lower, with no keys and
no search: the degree-n reps list each degree-(n-1) rep extended by every
atom at or past its last one.  The cached tables are read-only and
compact: reps uint8 up to 256 atoms, run lengths int8 (one per atom and
rep), ranks and offsets int32 (``MAX_ENTRIES`` < 2^31), and each is
checked against one entry budget, ``MAX_ENTRIES``, before it is allocated.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .measure import _json_number

# Most entries one table or tensor may hold (2^26 int64 entries are
# 512 MB).  A multiset table counts its reps and per-rep arrays, n + 3
# entries a rep, so it admits the 16-atom degree-8 Wick kernels and every
# table up to degree 5 at 60 atoms and degree 4 at 121, and refuses the
# many-atom tables that would take gigabytes before allocating them.
MAX_ENTRIES = 1 << 26
# perm_counts divides int64 factorials, which are exact only up to 20!;
# 16 keeps a margin and lies past every degree the suites use.
MAX_DEGREE = 16
# entries of the per-atom factor that atom_products gathers at once
_PRODUCT_BLOCK = 1 << 16


def _check_entries(entries: int, what: str) -> None:
    if entries > MAX_ENTRIES:
        raise SizeError(f"{what} needs {entries} entries, over the budget of "
                        f"{MAX_ENTRIES}")


def _check_degree(n: int) -> None:
    if n < 0 or n > MAX_DEGREE:
        raise SizeError(f"degree {n} outside supported range 0..{MAX_DEGREE}")


class _MultisetTable(NamedTuple):
    reps: np.ndarray         # (R, n) sorted representative tuples, lex order, uint8 or wider
    perm_counts: np.ndarray  # (R,) number of distinct orderings of each rep, int64
    last_run: np.ndarray     # (R,) int8 copies of its last atom that each rep ends in


def _check_table(m: int, n: int) -> None:
    """The entry budget of the degree-n multiset table over m atoms,
    checked without building it.  The table holds more entries than a
    degree-n tensor, so it is the first of the two to be refused."""
    _check_entries(math.comb(n + m - 1, n) * (n + 3), f"multiset table (m={m}, n={n})")


def _frozen(*arrays: np.ndarray):
    """The arrays, made read-only: a cached table is shared by every caller."""
    for x in arrays:
        x.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


def _children(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, atom) per degree-n rep, n >= 1: the degree-n reps list each
    degree-(n-1) rep q in turn, extended by every atom x at or past its last
    one, which keeps the lex order; q's child x has rank head[q] + x."""
    prev = _tables(m, n - 1).reps
    grow = m - prev[:, -1].astype(np.intp) if n > 1 else np.array([m])
    parent = np.repeat(np.arange(len(prev)), grow)
    return parent, np.arange(len(parent)) - (np.cumsum(grow) - m)[parent]


@lru_cache(maxsize=None)
def _tables(m: int, n: int) -> _MultisetTable:
    if m < 1:
        raise DimensionError("need at least one atom")
    _check_degree(n)
    _check_table(m, n)
    if n == 0:
        return _MultisetTable(*_frozen(np.zeros((1, 0), np.min_scalar_type(m - 1)),
                                       np.ones(1, np.int64), np.zeros(1, np.int8)))
    prev = _tables(m, n - 1)
    parent, atom = _children(m, n)
    reps = np.column_stack((prev.reps[parent], atom.astype(prev.reps.dtype)))
    # a rep whose last atom repeats its parent's ends in one more copy, and
    # n! / prod_i k_i! is its parent's count times n / (that run's length)
    same = reps[:, -2] == reps[:, -1] if n > 1 else False
    run = np.where(same, prev.last_run[parent] + 1, 1).astype(np.int8)
    return _MultisetTable(*_frozen(reps, prev.perm_counts[parent] * n // run, run))


def _start(m: int, n: int) -> int:
    """Offset of degree n when the reps of every degree are laid out in turn."""
    return math.comb(n + m - 1, m)


def _degree(m: int, n: int) -> slice:
    """The degree-n entries of that flat layout."""
    return slice(_start(m, n), _start(m, n + 1))


def _lex_rank(m: int, n: int, idx, what: str) -> int:
    """Rank of a multi-index, in any order, among the degree-n reps, in
    closed form: at each slot p of the sorted index, the reps that agree
    with it before p and hold an atom v in [idx[p - 1], idx[p]) at p,
    C(m - v + n - p - 2, n - p - 1) for each v, sum to two binomials."""
    idx = sorted(int(i) for i in idx)
    if len(idx) != n:
        raise ContractError(f"{what} has {len(idx)} atoms, not {n}")
    if idx and (idx[0] < 0 or idx[-1] >= m):
        raise DimensionError(f"{what} out of range for m={m}")
    return sum(math.comb(m - low + n - p - 1, n - p) - math.comb(m - i + n - p - 1, n - p)
               for p, (low, i) in enumerate(zip([0] + idx, idx)))


@lru_cache(maxsize=None)
def _last_runs(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, row) per degree-n rep, n >= 1, both int32: it ends in k
    copies of atom a, and row = k m + a is the row of its factor t_a(k) in
    the per-atom table read k-major; parent is the ``_start`` offset of the
    rep without them: the parent of q, the rep of its first n - 1 atoms,
    when q ends in a too, else q."""
    tab = _tables(m, n)
    row = tab.last_run.astype(np.int32) * m + tab.reps[:, -1]
    q = _children(m, n)[0]
    up = _last_runs(m, n - 1)[0][q] if n > 1 else q
    return _frozen(np.where(tab.last_run > 1, up, _start(m, n - 1) + q).astype(np.int32), row)


@lru_cache(maxsize=None)
def _insertions(m: int, N: int) -> np.ndarray:
    """(m, _start(m, N)) int32: [a, r] is the offset of rep r, of degree < N,
    with one atom a added.  Rep q of degree n (last atom l, parent q') with
    x added is q's child head[q] + x when x >= l, else s = q' with x added,
    one degree down, with l appended: s's child head[s] + l."""
    _check_degree(N)
    _check_table(m, N)   # the table the offsets point into, refused as if it were built
    out, n = np.empty((m, _start(m, N)), np.int32), N - 1
    if N == 0:
        return _frozen(out)
    prev = _insertions(m, n)
    out[:, :prev.shape[1]] = prev
    last = _tables(m, n).reps.max(axis=1, initial=0).astype(np.int32)   # 0 for no atom
    head = np.cumsum(m - last, dtype=np.int32) + (_start(m, N) - m)
    block, x = out[:, _degree(m, n)], np.arange(m, dtype=np.int32)[:, None]
    np.add(head, x, out=block)
    if n:
        down = head[prev[:, _degree(m, n - 1)] - _start(m, n)][:, _children(m, n)[0]]
        down += last
        np.copyto(block, down, where=x < last)
    return _frozen(out)


@lru_cache(maxsize=None)
def _atom_runs(m: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, base), int8 and int32, each (m, _start(m, N)): rep j plus atom a,
    ``_insertions(m, N)[a, j]``, ends in k[a, j] copies of a, and base[a, j]
    is its offset without them; 5 bytes an (atom, rep), in 8-byte entries."""
    size = _start(m, N)
    _check_entries(-(-5 * m * size // 8), f"run table (m={m}, N={N})")
    entry = _insertions(m, N)
    k = np.ones((m, size), dtype=np.int8)
    base = np.tile(np.arange(size, dtype=np.int32), (m, 1))
    for n in range(N - 1):
        low = _degree(m, n)   # (j + a) + a: the run of j + a, one copy longer
        np.put_along_axis(k, entry[:, low], k[:, low] + 1, axis=1)
        np.put_along_axis(base, entry[:, low], base[:, low], axis=1)
    return _frozen(k, base)


def atom_products(table, N: int) -> np.ndarray:
    """P over degrees 0..N on the flat layout for an (m, N+1, ...) per-atom
    table t: P[r, ...] = prod_i t[i, k_i(r), ...] over the occupation counts
    of each rep r, built as P[parent] * t[a, k] in one buffer.  t is read
    k-major, t[a, k] as row k m + a of one (m (N+1), ...) array: a view when
    each t(k) is stored contiguously, as ``_atom_table`` stores them, else
    a copy of the table.  t[:, 0] stands for t_i(0) = 1 and is never read,
    nor are the columns past N of a wider table."""
    _check_degree(N)
    table = np.asarray(table)
    m, tail = table.shape[0], table.shape[2:]
    size = _start(m, N + 1)
    _check_entries(size * math.prod(tail), f"atom products up to degree {N}")
    runs = [_last_runs(m, n) for n in range(1, N + 1)]   # tables refuse first
    rows = np.ascontiguousarray(table.swapaxes(0, 1)[:N + 1]).reshape(((N + 1) * m,) + tail)
    flat = np.empty((size,) + tail, dtype=table.dtype)
    flat[0] = 1
    # rows per block of the gathered factors: no temporary the size of a degree
    step = max(1, _PRODUCT_BLOCK // max(1, math.prod(tail)))
    buf = np.empty((min(step, size),) + tail, dtype=table.dtype)
    # take copies an index that is read-only or not intp on every call, so
    # each block of the cached int32 indices is cast into one reused array
    index = np.empty(min(step, size), dtype=np.intp)
    for n, (parent, row) in enumerate(runs, 1):
        d = _degree(m, n)
        for lo in range(0, len(row), step):
            out = flat[d][lo:lo + step]
            idx, factor = index[:len(out)], buf[:len(out)]
            # the parents lie below degree n, so with mode="clip" take makes no copy
            np.copyto(idx, parent[lo:lo + step])
            flat[:d.start].take(idx, axis=0, out=out, mode="clip")
            np.copyto(idx, row[lo:lo + step])
            rows.take(idx, axis=0, out=factor, mode="clip")
            out *= factor
    return flat


def _merge_ranks(m: int, a: int, b: int) -> np.ndarray:
    """(R_a, R_b) table: degree-(a+b) rank of the union of degree-a rep i and
    degree-b rep j, i.e. of the occupation counts k_i + k_j: the b atoms of
    j added to i one at a time, so callers put the larger degree first."""
    _check_entries(len(_tables(m, a).reps) * math.comb(b + m - 1, b), f"merge table ({a}, {b})")
    r = np.arange(_start(m, a), _start(m, a + 1))[:, None]
    for atoms in _tables(m, b).reps.T:
        r = _insertions(m, a + b)[atoms, r]
    return r - _start(m, a + b)


class SymTensor:
    """A symmetric tensor of fixed degree over m atoms (multiset storage)."""

    def __init__(self, m: int, degree: int, values=None):
        self.m = int(m)
        self.degree = int(degree)
        if self.m < 1:
            raise DimensionError("need at least one atom")
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
        return self.values[_lex_rank(self.m, self.degree, np.ravel(idx), f"index tuple {idx}")]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

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

    def __mul__(self, c) -> "SymTensor":
        return SymTensor(self.m, self.degree, self.values * c)

    __rmul__ = __mul__

    def to_index_map(self) -> dict:
        """JSON-friendly map from sorted multi-index strings to values."""
        return {" ".join(map(str, t.tolist())): float(v)
                for t, v in zip(self.reps, self.values)}

    @classmethod
    def from_index_map(cls, m: int, degree: int, d: dict) -> "SymTensor":
        t = cls(m, degree)
        seen = {}
        for key, v in d.items():
            r = _lex_rank(m, degree, key.split(), f"index key '{key}'")
            x = _json_number(v, f"value of index key '{key}'")
            if not math.isfinite(x):
                raise DomainError(f"value of index key '{key}' is not finite")
            if seen.setdefault(r, key) != key:   # "0 1" and "1 0", say
                raise ContractError(f"index keys '{seen[r]}' and '{key}' name "
                                    f"the same multiset")
            t.values[r] = x
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
    return SymTensor(f.size, degree, atom_products(powers, degree)[_degree(f.size, degree)])


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


class FockVector:
    """A finite Fock vector over m atoms: one read-only flat array ``coeffs``
    of the coefficients A = perm_count * f of its kernels f, degree n at
    ``_degree(m, n)``; ``_from_coeffs`` takes such an array over read-only."""

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
        self.m, self.degree = m, len(ks) - 1
        self.coeffs = np.concatenate([k.perm_counts * k.values for k in ks])
        self.coeffs.setflags(write=False)

    @classmethod
    def _from_coeffs(cls, m: int, degree: int, coeffs: np.ndarray) -> "FockVector":
        v = cls.__new__(cls)
        v.m, v.degree, v.coeffs = m, degree, coeffs
        coeffs.setflags(write=False)
        return v

    @classmethod
    def zeros(cls, m: int, degree: int) -> "FockVector":
        return cls([SymTensor(m, d) for d in range(degree + 1)])

    @classmethod
    def vacuum(cls, m: int) -> "FockVector":
        return cls([SymTensor(m, 0, np.ones(1))])

    @classmethod
    def single(cls, t: SymTensor) -> "FockVector":
        """Embed one tensor as the only nonzero component."""
        return cls([SymTensor(t.m, d) for d in range(t.degree)] + [t])

    def get(self, n: int) -> SymTensor:
        """Degree-n kernel (zero tensor beyond the stored degree)."""
        if 0 <= n <= self.degree:
            return SymTensor(self.m, n, self.coeffs[_degree(self.m, n)]
                             / _tables(self.m, n).perm_counts)
        return SymTensor(self.m, n)

    @property
    def kernels(self) -> tuple[SymTensor, ...]:
        return tuple(self.get(n) for n in range(self.degree + 1))

    def pad_to(self, degree: int) -> "FockVector":
        return self if degree <= self.degree else self + FockVector.zeros(self.m, degree)

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.m != other.m:
            raise DimensionError("Fock vectors live over different atom sets")
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        a = np.concatenate([long[:short.size] + short, long[short.size:]])
        return FockVector._from_coeffs(self.m, max(self.degree, other.degree), a)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, c) -> "FockVector":
        return FockVector._from_coeffs(self.m, self.degree, self.coeffs * c)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return max(k.max_abs() for k in self.kernels)

    def __repr__(self) -> str:
        return f"FockVector(m={self.m}, degree={self.degree})"
