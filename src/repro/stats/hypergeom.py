"""Hypergeometric enrichment statistics, implemented in log-space.

GOLEM asks: a researcher selects ``n`` genes out of a universe of ``N``;
``K`` of the universe are annotated to a GO term and ``k`` of the
selection are.  The enrichment p-value is the probability of observing
``k`` or more annotated genes under random sampling without replacement,
i.e. the hypergeometric survival function at ``k - 1``.

Everything here is vectorized so GOLEM can score thousands of GO terms in
one call (the per-term Python loop is kept only as the benchmark baseline
in :mod:`benchmarks.bench_ablations`).
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

__all__ = [
    "log_binomial",
    "hypergeom_pmf",
    "hypergeom_sf",
    "enrichment_pvalue",
    "enrichment_pvalues",
]


def log_binomial(n: np.ndarray | int, k: np.ndarray | int) -> np.ndarray:
    """Natural log of the binomial coefficient ``C(n, k)``, elementwise.

    Entries with ``k < 0`` or ``k > n`` get ``-inf`` (coefficient zero),
    which lets callers sum pmf terms without branching.
    """
    # imported here: scipy.special is 66 modules no serving route reaches
    from scipy.special import gammaln

    n_arr = np.asarray(n, dtype=np.float64)
    k_arr = np.asarray(k, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        out = gammaln(n_arr + 1) - gammaln(k_arr + 1) - gammaln(n_arr - k_arr + 1)
    invalid = (k_arr < 0) | (k_arr > n_arr)
    out = np.where(invalid, -np.inf, out)
    return out


def hypergeom_pmf(k, N, K, n) -> np.ndarray:
    """P[X = k] for X ~ Hypergeometric(N, K, n), elementwise/broadcast.

    Parameters mirror the classical urn model: population ``N``, successes
    in population ``K``, draws ``n``, observed successes ``k``.
    """
    k, N, K, n = np.broadcast_arrays(
        np.asarray(k, dtype=np.int64),
        np.asarray(N, dtype=np.int64),
        np.asarray(K, dtype=np.int64),
        np.asarray(n, dtype=np.int64),
    )
    _check_params(N, K, n)
    log_p = log_binomial(K, k) + log_binomial(N - K, n - k) - log_binomial(N, n)
    return np.exp(log_p)


def hypergeom_sf(k, N, K, n) -> np.ndarray:
    """P[X > k] (survival function), elementwise/broadcast.

    Computed by summing pmf terms over the support tail in log-space.
    The support is bounded by ``min(K, n)`` so the tail sum is short for
    realistic GO term sizes.
    """
    k, N, K, n = np.broadcast_arrays(
        np.asarray(k, dtype=np.int64),
        np.asarray(N, dtype=np.int64),
        np.asarray(K, dtype=np.int64),
        np.asarray(n, dtype=np.int64),
    )
    _check_params(N, K, n)
    upper = np.minimum(K, n)
    # Vectorized tail sum: enumerate j = 0 .. max_upper once, mask per-element.
    max_upper = int(upper.max(initial=0))
    j = np.arange(max_upper + 1, dtype=np.int64)  # (J,)
    # Shape bookkeeping: broadcast element dims against the support axis.
    kk = k[..., None]
    NN = N[..., None]
    KK = K[..., None]
    nn = n[..., None]
    log_terms = log_binomial(KK, j) + log_binomial(NN - KK, nn - j) - log_binomial(NN, nn)
    in_tail = (j > kk) & (j <= upper[..., None])
    terms = np.where(in_tail, np.exp(log_terms), 0.0)
    sf = terms.sum(axis=-1)
    return np.clip(sf, 0.0, 1.0)


def enrichment_pvalue(k: int, N: int, K: int, n: int) -> float:
    """One-sided enrichment p-value P[X >= k] for a single GO term.

    ``k`` annotated genes observed in a selection of ``n``, from a
    universe of ``N`` genes of which ``K`` carry the annotation.
    """
    if k == 0:
        return 1.0  # P[X >= 0] is always 1
    return float(hypergeom_sf(k - 1, N, K, n))


def enrichment_pvalues(k: np.ndarray, N: int, K: np.ndarray, n: int) -> np.ndarray:
    """Vectorized P[X >= k_i] across many GO terms sharing one universe/selection.

    Parameters
    ----------
    k:
        Per-term count of selected genes annotated to the term.
    N:
        Universe size (total annotated genes under consideration).
    K:
        Per-term count of universe genes annotated to the term.
    n:
        Selection size.
    """
    k = np.asarray(k, dtype=np.int64)
    K = np.asarray(K, dtype=np.int64)
    if k.shape != K.shape:
        raise ValidationError(f"k {k.shape} and K {K.shape} must align")
    pvals = np.ones(k.shape, dtype=np.float64)
    positive = k > 0
    if positive.any():
        pvals[positive] = hypergeom_sf(k[positive] - 1, N, K[positive], n)
    return pvals


def _check_params(N: np.ndarray, K: np.ndarray, n: np.ndarray) -> None:
    if (N < 0).any():
        raise ValidationError("population size N must be non-negative")
    if ((K < 0) | (K > N)).any():
        raise ValidationError("annotated count K must satisfy 0 <= K <= N")
    if ((n < 0) | (n > N)).any():
        raise ValidationError("selection size n must satisfy 0 <= n <= N")
