"""Core types for the restricted polynomially tilted pairwise interaction model.

The model lives on the open simplex in R^p.  A point u has a density
proportional to

    (prod_j u_j^{beta_j}) * exp(u_L' A_L u_L),

where u_L = (u_1, ..., u_{p-1}) drops the last (reference) component,
A_L is symmetric, and the restriction fixes the interaction terms that
involve the reference component to zero.  Integrability requires every
beta_j > -1.  The natural parameter vector packs A_L and beta as

    pi = (a_11, ..., a_{p-1,p-1}, a_12, a_13, ..., a_{p-2,p-1},
          1 + beta_1, ..., 1 + beta_{p-1}),

with off-diagonal pairs in lexicographic order, giving
q = p(p-1)/2 + (p-1) free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRowError, DimensionError

NEG_TOL = 1e-15
SYM_TOL = 1e-12
MIN_P = 3


def q_dim(p: int) -> int:
    """Number of free parameters for a p-part model."""
    if p < MIN_P:
        raise DimensionError(f"model needs p >= {MIN_P}, got p={p}")
    return p * (p - 1) // 2 + (p - 1)


def dim_from_q(q: int) -> int:
    """Invert :func:`q_dim`: recover p from a parameter vector length."""
    # q = (p-1)(p+2)/2  =>  p = (-1 + sqrt(9 + 8q)) / 2
    p = int(round((-1.0 + np.sqrt(9.0 + 8.0 * q)) / 2.0))
    if p < MIN_P or q_dim(p) != q:
        raise DimensionError(f"length {q} does not match any p >= {MIN_P}")
    return p


def pair_indices(p: int) -> list[tuple[int, int]]:
    """0-based (i, j) pairs with i < j <= p-2, lexicographic order.

    These index the off-diagonal entries of A_L in the packed vector.
    """
    d = p - 1
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def param_labels(p: int) -> list[str]:
    """Human-readable labels for the packed parameter vector (1-based)."""
    d = p - 1
    labels = [f"a_{j + 1}{j + 1}" for j in range(d)]
    labels += [f"a_{i + 1}{j + 1}" for i, j in pair_indices(p)]
    labels += [f"beta_{j + 1}" for j in range(d)]
    return labels


def as_matrix(data) -> np.ndarray:
    """Coerce data to an (n, p) array of row-normalized compositions.

    Accepts a 1-d or 2-d array or a sequence of rows.  Rows are
    validated (finite, nonnegative, positive sum) and divided by their
    sums.  This is the package's only composition validator, called once
    where data enters (the fit, ``influence`` and the contamination
    outlier); the statistics below that boundary take its result as
    given, because renormalizing a normalized row can change its last
    bits.
    """
    mat = np.atleast_2d(np.array(data, dtype=float))
    if mat.ndim != 2:
        raise DimensionError(f"expected 2-d data, got shape {mat.shape}")
    n, p = mat.shape
    if p < MIN_P:
        raise DimensionError(f"compositions need at least {MIN_P} parts, got {p}")
    if n < 1:
        raise DimensionError("empty data")
    if not np.all(np.isfinite(mat)):
        raise ValueError("data has non-finite entries")
    if np.any(mat < -NEG_TOL):
        raise ValueError("data has negative entries")
    np.clip(mat, 0.0, None, out=mat)
    totals = mat.sum(axis=1)
    if np.any(totals <= 0.0):
        bad = int(np.nonzero(totals <= 0.0)[0][0])
        raise DegenerateRowError(f"row {bad} sums to zero")
    return mat / totals[:, None]


@dataclass(frozen=True)
class CountDataset:
    """Multinomial count data: one row of nonnegative integers per sample."""

    x: np.ndarray
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.x)
        if arr.ndim != 2:
            raise DimensionError(f"counts must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionError("empty count data")
        if arr.shape[1] < MIN_P:
            raise DimensionError(f"counts need at least {MIN_P} columns, got {arr.shape[1]}")
        as_float = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(as_float)):
            raise ValueError("counts have non-finite entries")
        if np.any(as_float < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(as_float != np.floor(as_float)):
            raise ValueError("counts must be integers")
        # Above 2**53 a float no longer holds every integer, so such
        # counts are not exact, and their int64 totals can wrap.
        over = as_float.sum(axis=1) > 2.0**53
        if np.any(over):
            bad = int(np.nonzero(over)[0][0])
            raise ValueError(f"count row {bad} totals {as_float[bad].sum():.6g}, "
                             "more than 2**53: counts that large are not exact")
        ints = as_float.astype(np.int64)
        totals = ints.sum(axis=1)
        if np.any(totals < 1):
            bad = int(np.nonzero(totals < 1)[0][0])
            raise DegenerateRowError(f"count row {bad} has total zero")
        ints.flags.writeable = False
        totals.flags.writeable = False
        object.__setattr__(self, "x", ints)
        object.__setattr__(self, "m", totals)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def proportions(data: CountDataset) -> np.ndarray:
    """Plug-in proportions x_i / m_i, shape (n, p).  Zeros are kept."""
    return data.x / data.m[:, None]


@dataclass(frozen=True)
class RPPIParams:
    """Model parameters: interaction matrix A_L, exponents beta, block size.

    ``a_l`` is the symmetric (p-1) x (p-1) interaction matrix on the
    non-reference components.  ``beta`` has length p; every entry must be
    > -1, and the last entry plays the role of the known reference
    exponent (zero under the restricted model).  ``kstar`` is the number
    of leading components treated as the rare block K by the weighted
    estimator; the remaining non-reference components form block R.
    """

    a_l: np.ndarray
    beta: np.ndarray
    kstar: int = -1

    def __post_init__(self):
        a = np.asarray(self.a_l, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if b.ndim != 1 or b.size < MIN_P:
            raise DimensionError(f"beta must be 1-d with length >= {MIN_P}, got shape {b.shape}")
        p = b.size
        d = p - 1
        if a.shape != (d, d):
            raise DimensionError(f"a_l must be ({d}, {d}) for p={p}, got {a.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("parameters have non-finite entries")
        if np.max(np.abs(a - a.T), initial=0.0) > SYM_TOL * max(1.0, np.max(np.abs(a))):
            raise ValueError("a_l is not symmetric")
        if np.any(b <= -1.0):
            raise ValueError("every beta entry must exceed -1")
        a = 0.5 * (a + a.T)
        kstar = self.kstar if self.kstar != -1 else d
        if not 1 <= kstar <= d:
            raise DimensionError(f"kstar must be in [1, {d}], got {kstar}")
        a.flags.writeable = False
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "a_l", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "kstar", int(kstar))

    @property
    def p(self) -> int:
        return self.beta.size

    @property
    def q(self) -> int:
        return q_dim(self.p)


@dataclass(frozen=True)
class ParamVector:
    """The packed natural parameter vector (see module docstring)."""

    pi: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pi, dtype=float)
        if arr.ndim != 1:
            raise DimensionError(f"pi must be 1-d, got shape {arr.shape}")
        dim_from_q(arr.size)  # raises if the length is inconsistent
        if not np.all(np.isfinite(arr)):
            raise ValueError("pi has non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pi", arr)

    @property
    def p(self) -> int:
        return dim_from_q(self.pi.size)

    @property
    def q(self) -> int:
        return self.pi.size

    @property
    def labels(self) -> list[str]:
        return param_labels(self.p)


def pack(params: RPPIParams) -> ParamVector:
    """Pack (A_L, beta) into the natural parameter vector."""
    p = params.p
    d = p - 1
    diag = np.diag(params.a_l)
    off = np.array([params.a_l[i, j] for i, j in pair_indices(p)])
    return ParamVector(np.concatenate([diag, off, 1.0 + params.beta[:d]]))


def unpack(pi, kstar: int | None = None, beta_p: float = 0.0) -> RPPIParams:
    """Invert :func:`pack`.  ``beta_p`` fills the reference exponent slot."""
    vec = pi.pi if isinstance(pi, ParamVector) else np.asarray(pi, dtype=float)
    p = dim_from_q(vec.size)
    d = p - 1
    n_off = d * (d - 1) // 2
    a = np.zeros((d, d))
    a[np.diag_indices(d)] = vec[:d]
    for slot, (i, j) in enumerate(pair_indices(p)):
        a[i, j] = a[j, i] = vec[d + slot]
    beta = np.append(vec[d + n_off:] - 1.0, beta_p)
    return RPPIParams(a_l=a, beta=beta, kstar=kstar if kstar is not None else d)
