"""Independent reference implementations used only by the tests.

Eleven kinds live here.

* Rank tables by key and search: each sorted multi-index is read as a
  base-m number, and a row is ranked by ``searchsorted`` of its key in the
  keys of the reps, where the package builds its insertion, last-run and
  run tables by recursion over the reps and ranks single rows in closed
  form.

* Brute-force routes that avoid the package's multiset tables and partition
  code: dense arrays are built straight from the documented storage order
  (combinations_with_replacement), the extended inner product is the
  literal sum over all n! permutations, each contributing the diagonal
  integral of its cycle decomposition via einsum, and a product over atoms
  of a per-atom table counts each multi-index's atoms in Python.  The
  product kernel's first gather, a two-array index into the per-atom
  table with each parent ranked from its rep, fixes the kernel's bytes.
* Combinatorial routes to what the package computes by per-atom closed
  forms: the loop-partition sum of the extended inner product, the
  five-term Wick kernel recurrence with tied slots, and the loop-partition
  expansion of basis conversion.  They work on the multiset storage and
  loop partitions, and share none of the occupation-count formulas they
  are compared with.
* The jump sum of the adjointness check by literal removal: one
  configuration per jump, each evaluated directly, where the package sums
  Taylor terms against per-sample jump power sums.
* Every form that varies one atom's mass by whole rows: phi at the
  configurations with that mass changed, the shifted rows of an integral
  form at the nodes of a 64-node Gauss-Laguerre rule, and the per-atom
  nabla^j functionals of the Taylor coefficients (``nabla``, on the Fock
  side), each evaluated by ``evaluate_batch``, where the package reads
  one-atom restrictions off the run table and integrates them by the
  exact moments j!.
* The rank-one Wick pairs <:omega^n:, xi^(x)n> as the product over atoms
  of one-atom series, multiplied out by truncated convolution, where the
  package reads them off the log of the Wick exponential.
* Closed forms of the one-atom tables the package builds by three-term
  recurrence: products of binomials and rising factorials, and the
  orthonormal coefficients P_n = q_n / c_n through log-gamma values.
* Coordinate multiplication as the unmerged five-term sum, one Wick
  adjoint per term, where the package raises the three adjoint terms at
  once.
* The ordinary inner product of float kernels in exact rational
  arithmetic, where the package multiplies and sums in floats.
* The exact target of the adjointness check as the Mecke integral taken
  term by term on dicts of monomials, with the Fock-side annihilation,
  scipy's incomplete gamma and moments from the exponential of the
  cumulant series (in exact fractions under the Gamma law), where the
  package lowers coefficient arrays through the run table, reads a1- psi
  in its integral form and contracts one moment table through the merge
  table.
* Compound-Poisson thinning as a boolean-mask store of 0.0 over the
  thinned proposals, where the package multiplies every size by its keep
  flag.
"""

from __future__ import annotations

import math
import string
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np
from scipy.special import gamma, gammaincc, poch, roots_laguerre

from gwn.errors import ContractError, DimensionError, SizeError
from gwn.extfock import loop_partitions
from gwn.measure import AtomicMeasure
from gwn.fieldops import annihilate1
from gwn.funcalc import del_dagger, nabla, wick_del
from gwn.symtensor import (MAX_ENTRIES, FockVector, SymTensor, _start, _tables,
                           sym_product)
from gwn.wickcalc import (WICK_MAX_DEGREE, Basis, OmegaSample, PolyFunctional,
                          evaluate_batch)

MAX_ASSIGNMENTS = 4_000_000

# nodes and weights of the 64-node Gauss-Laguerre rule: integrals against
# e^(-s) ds on (0, inf), exact for s-polynomials up to degree 127
RULE_NODES, RULE_WEIGHTS = roots_laguerre(64)


def _keys(m: int, rows: np.ndarray) -> np.ndarray:
    """Sorted index rows (shape (..., n)) read as big-endian base-m numbers."""
    n = rows.shape[-1]
    return rows.astype(np.int64) @ (m ** np.arange(n - 1, -1, -1, dtype=np.int64))


@lru_cache(maxsize=4)
def _rep_keys(m: int, n: int) -> np.ndarray:
    return _keys(m, _tables(m, n).reps)


def rank_sorted_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """Ranks of already-sorted index rows among the reps of their degree,
    by key and ``searchsorted``: the keys of the lex-ordered reps increase."""
    rows = np.asarray(rows)
    return np.searchsorted(_rep_keys(m, rows.shape[-1]), _keys(m, rows))


def rank_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """Ranks of arbitrary index rows; rows are sorted first."""
    return rank_sorted_rows(m, np.sort(rows, axis=-1))


def insert_ranks(m: int, n: int) -> np.ndarray:
    """(R_n, m): degree-(n+1) rank of each degree-n rep with each atom added."""
    reps = _tables(m, n).reps.astype(np.int64)
    return np.stack([rank_rows(m, np.hstack([reps, np.full((len(reps), 1), x)]))
                     for x in range(m)], axis=1)


def merge_ranks(m: int, a: int, b: int) -> np.ndarray:
    """(R_a, R_b): degree-(a+b) rank of the sorted union of each degree-a
    rep and each degree-b rep."""
    ra, rb = (_tables(m, n).reps.astype(np.int64) for n in (a, b))
    union = np.hstack([np.repeat(ra, len(rb), axis=0), np.tile(rb, (len(ra), 1))])
    return rank_rows(m, union).reshape(len(ra), len(rb))


def last_runs(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, row) per degree-n rep: the flat offset of the rep without
    its last run of k copies of atom a, counted from the rep, and k m + a."""
    reps = _tables(m, n).reps.astype(np.int64)
    last = reps[:, -1]
    k = np.sum(reps == last[:, None], axis=1)
    parent = np.empty(len(reps), dtype=np.int64)
    for c in np.unique(k):
        parent[k == c] = _start(m, n - c) + rank_sorted_rows(m, reps[k == c, :n - c])
    return parent, k * m + last


def atom_runs(m: int, N: int) -> tuple[np.ndarray, ...]:
    """(entry, k, base) of the run table, each run found by adding
    one atom a to a rep of degree < N and ranking the result and the rep
    with every a removed."""
    size = _start(m, N)
    entry, k, base = (np.empty((m, size), dtype=np.int64) for _ in range(3))
    for n in range(N):
        reps = _tables(m, n).reps.astype(np.int64)
        lines = slice(_start(m, n), _start(m, n + 1))
        for a in range(m):
            grown = np.sort(np.hstack([reps, np.full((len(reps), 1), a)]), axis=1)
            entry[a, lines] = _start(m, n + 1) + rank_sorted_rows(m, grown)
            held = np.sum(reps == a, axis=1)
            k[a, lines] = held + 1
            for c in np.unique(held):
                some = reps[held == c]
                rest = some[some != a].reshape(len(some), n - c)
                base[a, lines][held == c] = _start(m, n - c) + rank_sorted_rows(m, rest)
    return entry, k, base


def _dyadic(x: float) -> tuple[int, int]:
    """A float as (n, e), the integer n over 2^e."""
    n, d = float(x).as_integer_ratio()
    return n, d.bit_length() - 1


def fock_inner_n_exact(measure: AtomicMeasure, f: SymTensor, g: SymTensor) -> Fraction:
    """sum_k perm_count(k) prod_i w_i^k_i f[k] g[k] for real kernels, exact
    for the float inputs.  Each float is an integer over a power of two;
    a rep's weight product is that of the rep without its last atom times
    that atom's weight, and one Fraction is formed from the integer sum."""
    m, n = f.m, f.degree
    w = [_dyadic(x) for x in measure.weights.tolist()]
    prods = [(1, 0)]
    for d in range(1, n + 1):
        reps = _tables(m, d).reps.astype(np.int64)
        up = rank_sorted_rows(m, reps[:, :-1]).tolist()
        prods = [(prods[q][0] * w[a][0], prods[q][1] + w[a][1])
                 for q, a in zip(up, reps[:, -1].tolist())]
    terms = [(pc * wn * fn * gn, we + fe + ge) for (wn, we), pc, (fn, fe), (gn, ge)
             in zip(prods, f.perm_counts.tolist(), map(_dyadic, f.values.tolist()),
                    map(_dyadic, g.values.tolist()))]
    top = max(e for _, e in terms)
    return Fraction(sum(t << (top - e) for t, e in terms), 1 << top)


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


def symtensor_from_dense(arr: np.ndarray) -> SymTensor:
    """Multiset storage of a hypercube array's symmetrization: the mean of
    its entries over the orderings of each multi-index."""
    m, n = arr.shape[0], arr.ndim
    groups: dict[tuple, list] = {}
    for idx in product(range(m), repeat=n):
        groups.setdefault(tuple(sorted(idx)), []).append(arr[idx])
    return SymTensor(m, n, np.array([np.mean(groups[rep]) for rep in
                                     combinations_with_replacement(range(m), n)]))


def occupation_products(table: np.ndarray, m: int, n: int) -> np.ndarray:
    """prod_i table[i, k_i, ...] for every stored degree-n multi-index, with
    k_i counted from the index tuple."""
    return np.array([math.prod((table[i, rep.count(i)] for i in range(m)),
                               start=np.ones(table.shape[2:]))
                     for rep in combinations_with_replacement(range(m), n)])


def atom_products_pairwise(table, N: int) -> np.ndarray:
    """atom_products by its first gather, the reference for its bytes: rep
    r ending in k copies of atom a is P[parent] * table[a, k], the factors
    of a degree gathered at once by the two-array index table[a, k], and
    the parent (r without those copies) ranked from its rep."""
    table = np.asarray(table)
    m, tail = table.shape[0], table.shape[2:]
    flat = [np.ones((1,) + tail, dtype=table.dtype)]
    for n in range(1, N + 1):
        tab = _tables(m, n)
        k = tab.last_run
        parent = np.empty((len(k),) + tail, dtype=table.dtype)
        for c in np.unique(k):
            parent[k == c] = flat[n - c][rank_sorted_rows(m, tab.reps[k == c, :n - c])]
        flat.append(parent * table[tab.reps[:, -1], k])
    return np.concatenate(flat)


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
    ranks = rank_rows(m, grid[:, pos_to_block])
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
    vals = t.values[rank_rows(t.m, rows)]
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
        return SymTensor(t.m, t.degree, t.values)
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
        return {0: SymTensor(f.m, 0, f.values)}
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
                st = coeff * symtensor_from_dense(arr)
            out[deg] = out.get(deg, SymTensor(f.m, deg)) + st
    return out


def convert_by_partitions(p: PolyFunctional, measure: AtomicMeasure) -> PolyFunctional:
    """The functional p re-expressed in the other basis, by expansion."""
    to_monomial = p.basis is Basis.GAMMA_WICK
    acc = FockVector.zeros(p.m, p.degree)
    for n in range(p.degree + 1):
        for deg, t in expansion(p.kernels.get(n), measure, to_monomial).items():
            acc = acc + FockVector.single(t)
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


def coordinate_multiply_five_terms(p: PolyFunctional, atom: int,
                                   measure: AtomicMeasure) -> PolyFunctional:
    """Multiplication by the configuration density at one atom on the
    Gamma-Wick functional p, term by term:
    dagger + 2 dagger del + id + del + dagger del del."""
    d1 = wick_del(p, atom)
    d2 = wick_del(d1, atom)
    return del_dagger(p, atom, measure) + 2.0 * del_dagger(d1, atom, measure) \
        + p + d1 + del_dagger(d2, atom, measure)


# --- jump removal, one configuration per jump ------------------------------

def jump_removal_sum(phi: PolyFunctional, xi: np.ndarray, masses: np.ndarray,
                     segments, measure: AtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Per sample row, the sum of s xi_a phi(omega - s e_a) over the row's
    jumps (a, s), and the sum of the absolute values of those terms.

    segments lists (atom, owners, sizes), one or more per atom.  Each jump
    gets its own copy of its row's masses with the jump taken off (rounding
    dust below zero cleared), evaluated on its own."""
    rows = masses.shape[0]
    atoms = np.concatenate([np.full(len(own), a) for a, own, _ in segments])
    owners = np.concatenate([own for _, own, _ in segments])
    sizes = np.concatenate([s for _, _, s in segments])
    if owners.size == 0:
        return np.zeros(rows), np.zeros(rows)
    removed = masses[owners]
    removed[np.arange(owners.size), atoms] -= sizes
    np.maximum(removed, 0.0, out=removed)
    terms = sizes * xi[atoms] * evaluate_batch(phi, removed, measure)
    return (np.bincount(owners, weights=terms, minlength=rows),
            np.bincount(owners, weights=np.abs(terms), minlength=rows))


# --- compound-Poisson thinning by a mask store ------------------------------

def cp_segments_masked(measure: AtomicMeasure, eps: float, rng: np.random.Generator,
                       size: int, window: int):
    """The (atom, owners, sizes) segments of a compound-Poisson batch of size
    rows in windows of at most window proposals, read from rng in the order
    of gammasample._cp_segments (its budget checks left out), each size
    written out in full and then s[thinned] = 0.0 stored through a boolean
    mask, where the package multiplies the sizes by keep < 1."""
    log_span = math.log(1.0 / eps)
    mass = np.array([math.exp(-eps) * log_span, math.exp(-1.0)])
    totals = rng.poisson(size * measure.weights[:, None] * mass)
    for i, (n_low, n_high) in enumerate(totals.tolist()):
        n = n_low + n_high
        for start in range(0, max(n, 1), window):
            count = min(window, n - start)
            owners = rng.integers(0, size, count)
            u, keep = rng.random((2, count))
            cut = min(max(n_low - start, 0), count)
            low = eps * np.exp(u[:cut] * log_span)
            high = 1.0 - np.log1p(-u[cut:])
            s = np.concatenate([low, high])
            thinned = np.concatenate([keep[:cut] * np.exp(low - eps),
                                      keep[cut:] * high]) >= 1.0
            s[thinned] = 0.0
            yield i, owners, s


# --- one atom varied, by whole rows -------------------------------------------

def varied_rows(masses: np.ndarray, atom: int, x) -> np.ndarray:
    """One copy of the 1-d masses per value of x, with the mass at atom
    set to that value."""
    rows = np.repeat(np.asarray(masses, dtype=float)[None, :], np.size(x), axis=0)
    rows[:, atom] = x
    return rows


def shifted_integral(ps, omega: OmegaSample, atom: int, measure: AtomicMeasure,
                     nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """int_0^inf phi(omega + s delta_atom) e^(-s) ds for each functional of
    ps (one basis), by the rule (nodes, weights), from one evaluation of
    the rows omega + s_k delta_atom."""
    rows = varied_rows(omega.masses, atom, omega.masses[atom] + nodes)
    return weights @ evaluate_batch(ps, rows, measure)


def taylor_stack(phi_m: PolyFunctional, atoms, J: int) -> list[PolyFunctional]:
    """[phi, nabla_a^j phi for j = 1..J] for each atom a of atoms, in that
    order: the Taylor coefficients of a monomial phi along the mass of
    each of those atoms, up to order J, times j!."""
    stack = [phi_m]
    for a in atoms:
        d = phi_m
        for _ in range(J):
            d = nabla(d, int(a))
            stack.append(d)
    return stack


def taylor_values(phi_m: PolyFunctional, masses: np.ndarray, atoms,
                  measure: AtomicMeasure, J: int) -> np.ndarray:
    """(B, K, J+1): nabla_a^j phi / j! at each row of the (B, m) masses, for
    each atom a of atoms, by evaluating the Taylor stack."""
    values = evaluate_batch(taylor_stack(phi_m, atoms, J), masses, measure)
    out = np.empty((len(values), len(atoms), J + 1))
    out[..., 0] = values[:, :1]
    out[..., 1:] = values[:, 1:].reshape(len(values), len(atoms), J)
    return out / np.array([math.factorial(j) for j in range(J + 1)])


def second_annihilation_forms(p: PolyFunctional, xi: np.ndarray,
                              omega: OmegaSample, measure: AtomicMeasure,
                              nodes: np.ndarray, weights: np.ndarray):
    """phi(omega) and the compensated, gradient-shift and uncompensated
    right sides of the second annihilation check, by whole rows: the order-2
    Taylor stack over every atom and, per atom of the support of xi, the
    shifted rows of [phi, nabla_a phi]."""
    pm = p.to_basis(Basis.MONOMIAL, measure)
    D = taylor_values(pm, omega.masses[None, :], range(pm.m), measure, 2)[0]
    base, g1, g2 = D[0, 0], D[:, 1], 2.0 * D[:, 2]
    lead = float(omega.masses @ (xi * g2)) + float((measure.weights * xi) @ g1)
    atoms = np.flatnonzero(xi)
    shifted = np.reshape([shifted_integral([pm, nabla(pm, a)], omega, a, measure,
                                           nodes, weights) for a in atoms], (-1, 2))
    wxi = (measure.weights * xi)[atoms]
    comp = lead - math.fsum(wxi * (shifted[:, 0] - base * float(np.sum(weights))))
    return (base, comp, lead - wxi @ shifted[:, 1],
            lead - wxi @ shifted[:, 0] - measure.integrate(xi) * base)


# --- rank-one Wick pairs, atom by atom --------------------------------------

def _atom_series_product(S: np.ndarray, xi: np.ndarray, weights: np.ndarray,
                         N: int) -> np.ndarray:
    """n! times the t^n coefficients, n <= N, of prod_i sum_k q_k(s_i; w_i)
    (xi_i t)^k / k! for each row of S, the one-atom Wick powers from their
    three-term recurrence q_{k+1} = (s - 2k - w) q_k - k(k-1+w) q_{k-1}."""
    fact = np.array([math.factorial(k) for k in range(N + 1)], dtype=float)
    poly = np.zeros((len(S), N + 1))
    poly[:, 0] = 1.0
    for s, w, x in zip(S.T, weights, xi):
        q = [np.ones_like(s), s - w]
        for k in range(1, N):
            q.append((s - 2 * k - w) * q[k] - k * (k - 1 + w) * q[k - 1])
        series = np.stack([q[k] * x ** k / fact[k] for k in range(N + 1)], axis=1)
        poly = np.stack([np.sum(poly[:, : d + 1] * series[:, d::-1], axis=1)
                         for d in range(N + 1)], axis=1)
    return poly * fact


def wick_pair_rank_one_convolution(masses: np.ndarray, xi: np.ndarray,
                                   measure: AtomicMeasure,
                                   N: int) -> tuple[np.ndarray, np.ndarray]:
    """<:omega^n:, xi^(x)n> for n = 0..N and each row of a (B, m) mass
    matrix, as (B, N+1): the Wick exponential factorizes over atoms, so the
    one-atom series are multiplied out by truncated convolution.

    Also returns the size of the terms summed, from the same product at
    (-s, -|xi|): (-1)^k q_k(-s) has the absolute values of the monomial
    coefficients of q_k, so every term there is >= 0."""
    S = np.asarray(masses, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return (_atom_series_product(S, xi, measure.weights, N),
            _atom_series_product(-S, -np.abs(xi), measure.weights, N))


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


# --- the adjointness target by the Mecke integral, on monomial dicts --------

def monomial_terms(p: PolyFunctional, measure: AtomicMeasure, number=float) -> dict:
    """p as {occupation counts k: A[k]} of sum_k A[k] s^k, a Gamma-Wick p
    first converted by the loop-partition expansion.  The stored
    coefficients A are read in the documented order: degree by degree,
    the reps of each in combinations_with_replacement order."""
    pm = p if p.basis is Basis.MONOMIAL else convert_by_partitions(p, measure)
    reps = (rep for n in range(pm.degree + 1)
            for rep in combinations_with_replacement(range(pm.m), n))
    return {tuple(rep.count(a) for a in range(pm.m)): number(float(c))
            for rep, c in zip(reps, pm.kernels.coeffs)}


def _add_term(poly: dict, key: tuple, c) -> None:
    poly[key] = poly.get(key, 0) + c


def cp_moments(weights, eps: float, N: int, number=float) -> list[list]:
    """[a][n] = E[s_a^n], n <= N, of the compound-Poisson mass truncated at
    eps: n! [t^n] exp(K(t)) for the cumulant series K(t) = sum_j kappa_j
    t^j / j!, kappa_j = w_a Gamma(j, eps) from scipy's regularized upper
    incomplete gamma ((j-1)! w_a at eps = 0), exponentiated as sum_r
    K^r / r! by truncated convolution."""
    out = []
    for w in weights:
        K = [number(0)] + [number(w) * (number(math.factorial(j - 1)) if eps == 0
                                        else gamma(j) * gammaincc(j, eps))
                           / math.factorial(j) for j in range(1, N + 1)]
        series = [number(1)] + [number(0)] * N
        power = list(series)
        for r in range(1, N + 1):
            power = [sum((power[i] * K[n - i] for i in range(n)), number(0)) / r
                     for n in range(N + 1)]
            series = [x + y for x, y in zip(series, power)]
        out.append([math.factorial(n) * x for n, x in enumerate(series)])
    return out


def adjointness_target_terms(phi: PolyFunctional, psi: PolyFunctional, xi,
                             measure: AtomicMeasure, eps: float) -> tuple:
    """(value, scale) of E[(a1+ phi) psi - phi (a1- psi)] under the
    compound-Poisson law truncated at eps, term by term on monomial dicts.
    The jump sum is the Mecke integral sum_a w_a xi_a int_eps^inf e^(-s)
    E[phi psi(omega + s e_a)] ds: each monomial's (s_a + s)^(k_a) expanded
    binomially and each s^j integrated to Gamma(j+1, eps) (scipy's, j! at
    eps = 0); a1- psi is the Fock side, annihilate1 on psi's Gamma-Wick
    kernels.  Then phi times that, multiplied out as dicts, against
    cp_moments.  At eps = 0 every number is a Fraction (weights, xi and the
    float coefficients read exactly), so the value is exact for them.
    scale is the same sum with every term taken at its absolute value
    before any two cancel."""
    exact = eps == 0
    number = Fraction if exact else float
    m = measure.m
    w = [number(float(x)) for x in measure.weights]
    xi = [number(float(x)) for x in xi]
    psi_w = psi if psi.basis is Basis.GAMMA_WICK else convert_by_partitions(psi, measure)
    a1 = PolyFunctional(Basis.GAMMA_WICK, annihilate1(np.array(xi, dtype=float),
                                                      psi_w.kernels, measure))
    chi, size = {}, {}

    def add(key, c):
        _add_term(chi, key, c)
        _add_term(size, key, abs(c))

    for k, c in monomial_terms(psi, measure, number).items():
        for a in range(m):
            for j in range(k[a] + 1):
                shift = number(math.factorial(j)) if exact \
                    else gamma(j + 1) * gammaincc(j + 1, eps)
                key = k[:a] + (k[a] - j,) + k[a + 1:]
                add(key, w[a] * xi[a] * c * math.comb(k[a], j) * shift)
        add(k, -sum(x * y for x, y in zip(w, xi)) * c)
    for k, c in monomial_terms(a1, measure, number).items():
        add(k, -c)
    moments = cp_moments(measure.weights, eps, phi.degree + psi.degree, number)

    def mean(left, right):
        return sum((c * d * math.prod(moments[a][x + y] for a, (x, y) in enumerate(zip(k, l)))
                    for k, c in left.items() for l, d in right.items()), number(0))

    phi_terms = monomial_terms(phi, measure, number)
    return mean(phi_terms, chi), mean({k: abs(c) for k, c in phi_terms.items()}, size)
