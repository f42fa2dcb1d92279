"""Independent reference implementations used only by the tests.

Four kinds live here.

* Brute-force routes that avoid the package's multiset tables and partition
  code: dense arrays are built straight from the documented storage order
  (combinations_with_replacement), the extended inner product is the
  literal sum over all n! permutations, each contributing the diagonal
  integral of its cycle decomposition via einsum, and a product over atoms
  of a per-atom table counts each multi-index's atoms in Python.
* Combinatorial routes to what the package computes by per-atom closed
  forms: the loop-partition sum of the extended inner product, the
  five-term Wick kernel recurrence with tied slots, and the loop-partition
  expansion of basis conversion.  They work on the multiset storage and
  loop partitions, and share none of the occupation-count formulas they
  are compared with.
* The jump sum of the adjointness check by literal removal: one
  configuration per jump, each evaluated directly, where the package sums
  Taylor terms against per-sample jump power sums.
* Closed forms of the one-atom tables the package builds by three-term
  recurrence: products of binomials and rising factorials, and the
  orthonormal coefficients P_n = q_n / c_n through log-gamma values.
"""

from __future__ import annotations

import math
import string
from itertools import combinations_with_replacement, permutations, product

import numpy as np
from scipy.special import poch

from gwn.errors import ContractError, DimensionError, SizeError
from gwn.extfock import loop_partitions
from gwn.measure import AtomicMeasure
from gwn.symtensor import MAX_ENTRIES, FockVector, SymTensor, _tables, sym_product
from gwn.wickcalc import (WICK_MAX_DEGREE, Basis, OmegaSample, PolyFunctional,
                          evaluate_batch)

MAX_ASSIGNMENTS = 4_000_000


def dense_from_symtensor(t) -> np.ndarray:
    """Full ordered array from multiset storage, bypassing the rank tables."""
    lookup = dict(zip(combinations_with_replacement(range(t.m), t.degree),
                      t.values.tolist()))
    if t.degree == 0:
        return np.asarray(t.values[0])
    out = np.empty((t.m,) * t.degree, dtype=t.values.dtype)
    for idx in product(range(t.m), repeat=t.degree):
        out[idx] = lookup[tuple(sorted(idx))]
    return out


def occupation_products(table: np.ndarray, m: int, n: int) -> np.ndarray:
    """prod_i table[i, k_i, ...] for every stored degree-n multi-index, with
    k_i counted from the index tuple."""
    return np.array([math.prod((table[i, rep.count(i)] for i in range(m)),
                               start=np.ones(table.shape[2:]))
                     for rep in combinations_with_replacement(range(m), n)])


def ordered_sum(t, s: np.ndarray) -> float:
    """sum over ordered index tuples i of t[i_1..i_n] s_{i_1} ... s_{i_n}:
    the monomial <omega^(x)n, t> at masses s, on the dense array."""
    out = dense_from_symtensor(t)
    for _ in range(t.degree):
        out = np.tensordot(s, out, axes=1)
    return complex(out) if np.iscomplexobj(out) else float(out)


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(cyc)
    return cycles


def ext_inner_n_perm(weights: np.ndarray, F: np.ndarray, G: np.ndarray) -> float:
    """Brute-force degree-n extended inner product.

    Sums over all n! permutations; each permutation contributes the integral
    of conj(F) * G restricted to the diagonal of its cycle decomposition,
    with one measure weight per cycle.
    """
    n = F.ndim
    if n == 0:
        return (np.conj(F) * G).item()
    FG = np.conj(F) * G
    total = 0.0
    for perm in permutations(range(n)):
        cycles = _cycles(perm)
        letters = string.ascii_lowercase
        subs = [""] * n
        for ci, cyc in enumerate(cycles):
            for pos in cyc:
                subs[pos] = letters[ci]
        expr = "".join(subs) + "," + ",".join(letters[ci] for ci in range(len(cycles))) + "->"
        total += np.einsum(expr, FG, *([weights] * len(cycles))).item()
    return total


def fock_inner_n_dense(weights: np.ndarray, F: np.ndarray, G: np.ndarray) -> float:
    """Plain symmetric-power inner product on dense arrays."""
    n = F.ndim
    if n == 0:
        return float(np.conj(F) * G)
    W = weights
    for _ in range(n - 1):
        W = np.multiply.outer(W, weights)
    return float(np.sum(W * np.conj(F) * G))


def sym_product_dense(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Symmetrized product by averaging over all orderings of the joint slots."""
    na, nb = A.ndim, B.ndim
    raw = np.multiply.outer(A, B)
    n = na + nb
    acc = np.zeros_like(raw)
    for perm in permutations(range(n)):
        acc += np.transpose(raw, perm)
    return acc / math.factorial(n)


# --- loop-partition sum of the extended inner product -----------------------

def partition_integral(measure: AtomicMeasure, f: SymTensor, g: SymTensor,
                       part) -> complex:
    """Integral over one partition diagonal: assign an atom to each block,
    weight each block by its atom's measure weight, and sum conj(f) * g."""
    n = f.degree
    k = len(part.blocks)
    m = measure.m
    if m ** k > MAX_ASSIGNMENTS:
        raise SizeError("partition diagonal too large for dense assignment sum")
    pos_to_block = np.empty(n, dtype=np.int64)
    for bi, b in enumerate(part.blocks):
        pos_to_block[list(b)] = bi
    grid = np.indices((m,) * k).reshape(k, -1).T
    ranks = _tables(m, n).rank_rows(grid[:, pos_to_block])
    vals = np.conj(f.values)[ranks] * g.values[ranks]
    wprod = np.prod(measure.weights[grid], axis=1)
    return (wprod @ vals).item()


def ext_inner_n_partitions(measure: AtomicMeasure, f: SymTensor,
                           g: SymTensor) -> complex:
    """Degree-n extended inner product as the sum over all loop partitions
    of the n slots, each weighted by its cyclic-order multiplicity."""
    if f.degree == 0:
        return (np.conj(f.values[0]) * g.values[0]).item()
    total = 0.0
    for part in loop_partitions(f.degree):
        total += part.multiplicity * partition_integral(measure, f, g, part)
    return total


# --- slot operations on multiset storage -----------------------------------

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
    if t.m ** k > MAX_ENTRIES:
        raise SizeError("diagonal restriction too large to hold densely")
    pos_to_block = np.empty(t.degree, dtype=np.int64)
    for bi, b in enumerate(bl):
        pos_to_block[b] = bi
    grid = np.indices((t.m,) * k).reshape(k, -1).T if k else np.zeros((1, 0), np.int64)
    rows = grid[:, pos_to_block]
    vals = t.values[_tables(t.m, t.degree).rank_rows(rows)]
    return vals.reshape((t.m,) * k)


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


# --- five-term Wick kernel recurrence --------------------------------------

def pair_density(measure: AtomicMeasure) -> SymTensor:
    """Degree-2 density of the diagonal point-mass pairing: [i == j]/w_j."""
    t = SymTensor(measure.m, 2)
    vals = t.values.copy()
    reps = t.reps
    diag = reps[:, 0] == reps[:, 1]
    vals[diag] = 1.0 / measure.weights[reps[diag, 0]]
    return SymTensor(measure.m, 2, vals)


def wick_kernels_recurrence(omega: OmegaSample, measure: AtomicMeasure,
                            N: int) -> list[SymTensor]:
    """Densities of :omega^n: for n = 0..N by the five-term recurrence

        K_{n+1} = Sym[K_n (x) K_1] - n Sym[K_{n-1} (x) pair-density]
                  - n(n-1) Sym[K_{n-1} with two tied slots]
                  - 2n Sym[K_n with one tied slot].
    """
    m = measure.m
    out = [SymTensor(m, 0, np.ones(1))]
    if N == 0:
        return out
    k1 = SymTensor(m, 1, omega.masses / measure.weights - 1.0)
    out.append(k1)
    pair = pair_density(measure)
    for n in range(1, N):
        nxt = sym_product(out[n], k1) \
            - n * sym_product(out[n - 1], pair) \
            - 2.0 * n * append_tied_slots(out[n], 1, measure)
        if n >= 2:
            nxt = nxt - n * (n - 1.0) * append_tied_slots(out[n - 1], 2, measure)
        out.append(nxt)
    return out


# --- loop-partition expansion behind basis conversion ----------------------

def expansion(f: SymTensor, measure: AtomicMeasure, signed: bool) -> dict[int, SymTensor]:
    """Expand a degree-n pairing over loop partitions with one slot per block.

    Each block either stays a free slot (weight |B|!, sign (-1)^(|B|+1) in
    the signed version) or is integrated out against the measure (weight
    (|B|-1)!, sign (-1)^|B|).  Returns kernels by resulting degree.
    """
    n = f.degree
    out: dict[int, SymTensor] = {}
    if n == 0:
        return {0: f.copy()}
    if n > WICK_MAX_DEGREE:
        raise SizeError(f"basis conversion capped at degree {WICK_MAX_DEGREE}")
    w = measure.weights
    for part in loop_partitions(n):
        blocks = part.blocks
        k = len(blocks)
        dense = diagonal_restrict(f, blocks)
        sizes = [len(b) for b in blocks]
        for mask in range(1 << k):
            coeff = 1.0
            for bi, sz in enumerate(sizes):
                if mask >> bi & 1:
                    coeff *= math.factorial(sz)
                    if signed and sz % 2 == 0:
                        coeff = -coeff
                else:
                    coeff *= math.factorial(sz - 1)
                    if signed and sz % 2 == 1:
                        coeff = -coeff
            arr = dense
            for bi in range(k - 1, -1, -1):
                if not mask >> bi & 1:
                    arr = np.tensordot(arr, w, axes=([bi], [0]))
            deg = int(bin(mask).count("1"))
            arr = np.asarray(arr)
            if deg == 0:
                st = SymTensor(f.m, 0, np.array([coeff * arr.item()]))
            else:
                st = coeff * SymTensor.from_dense(arr)
            out[deg] = out.get(deg, SymTensor(f.m, deg)) + st
    return out


def convert_by_partitions(p: PolyFunctional, measure: AtomicMeasure) -> PolyFunctional:
    """The functional p re-expressed in the other basis, by expansion."""
    to_monomial = p.basis is Basis.GAMMA_WICK
    acc = FockVector.zeros(p.m, p.degree)
    for n in range(p.degree + 1):
        for deg, t in expansion(p.kernels.get(n), measure, to_monomial).items():
            acc.kernels[deg] = acc.get(deg) + t
    return PolyFunctional(Basis.MONOMIAL if to_monomial else Basis.GAMMA_WICK, acc)


# --- dense routes of the field operators and slot derivatives --------------

def symmetrize_dense(A: np.ndarray) -> np.ndarray:
    """Mean of A over all orderings of its axes."""
    n = A.ndim
    return sum(np.transpose(A, p) for p in permutations(range(n))) / math.factorial(n)


def _along_first_axis(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((-1,) + (1,) * (n - 1))


def neutral_dense(xi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """n Sym[xi(x_1) F(x_1, ..., x_n)], n >= 1."""
    n = F.ndim
    return n * symmetrize_dense(_along_first_axis(xi, n) * F)


def contraction_dense(v: np.ndarray, F: np.ndarray) -> np.ndarray:
    """n sum_y v(y) F(y, .), n >= 1."""
    return F.ndim * np.tensordot(v, F, axes=1)


def diagonal_slice_dense(xi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """n(n-1) Sym[xi(x) F(x, x, .)], n >= 2."""
    n = F.ndim
    D = np.moveaxis(np.diagonal(F, axis1=0, axis2=1), -1, 0)
    return n * (n - 1) * symmetrize_dense(_along_first_axis(xi, n - 1) * D)


def slot_evaluation_dense(F: np.ndarray, atom: int) -> np.ndarray:
    """n F(atom, .), n >= 1."""
    return F.ndim * F[atom]


# --- jump removal, one configuration per jump ------------------------------

def jump_removal_sum(phi: PolyFunctional, xi: np.ndarray, masses: np.ndarray,
                     owners: np.ndarray, atoms: np.ndarray, sizes: np.ndarray,
                     measure: AtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Per sample row, the sum of s xi_a phi(omega - s e_a) over the row's
    jumps (a, s), and the sum of the absolute values of those terms.

    Each jump gets its own copy of its row's masses with the jump taken
    off (rounding dust below zero cleared), evaluated on its own."""
    rows = masses.shape[0]
    if owners.size == 0:
        return np.zeros(rows), np.zeros(rows)
    removed = masses[owners]
    removed[np.arange(owners.size), atoms] -= sizes
    np.maximum(removed, 0.0, out=removed)
    terms = sizes * xi[atoms] * evaluate_batch(phi, removed, measure)
    return (np.bincount(owners, weights=terms, minlength=rows),
            np.bincount(owners, weights=np.abs(terms), minlength=rows))


def wick_monic_table(w: float, N: int) -> np.ndarray:
    """[n, l] = s^l coefficient of the one-atom Wick power q_n(s; w):
    (-1)^(n-l) C(n, l) rising(w+l, n-l)."""
    return np.array([[(-1) ** (n - l) * math.comb(n, l) * poch(w + l, n - l)
                      if l <= n else 0.0 for l in range(N + 1)]
                     for n in range(N + 1)])


def wick_inverse_table(w: float, N: int) -> np.ndarray:
    """[l, j] = q_j(s; w) coefficient of s^l: C(l, j) rising(w+j, l-j)."""
    return np.array([[math.comb(l, j) * poch(w + j, l - j) if j <= l else 0.0
                      for j in range(N + 1)] for l in range(N + 1)])


def laguerre_closed_form(sigma: float, N: int) -> np.ndarray:
    """[n, l] = s^l coefficient of P_n = q_n / c_n, c_n^2 = n! rising(sigma, n),
    summed in log space so that neither q_n nor c_n overflows."""
    out = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        log_c = 0.5 * (math.lgamma(n + 1) + math.lgamma(sigma + n) - math.lgamma(sigma))
        for l in range(n + 1):
            log_q = (math.log(math.comb(n, l)) + math.lgamma(sigma + n)
                     - math.lgamma(sigma + l))
            out[n, l] = (-1) ** (n - l) * math.exp(log_q - log_c)
    return out
