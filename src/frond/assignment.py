"""Similarity, optimal assignment, and similarity gating."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Assignment:
    """One-to-one matching between track rows and detection columns.

    A row or column that appears in no pair is unmatched; the caller,
    which knows how many rows and columns there are, works that out.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)


def similarity_matrix(prototypes: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Dot-product similarity of every prototype row against every embedding row.

    Both arguments are (n, d) arrays of unit-norm rows; entry (i, j) is
    the cosine similarity of prototype i and embedding j.
    """
    p = np.asarray(prototypes, dtype=np.float64)
    e = np.asarray(embeddings, dtype=np.float64)
    if p.ndim != 2 or e.ndim != 2:
        raise ValueError("similarity_matrix expects 2-d arrays")
    if p.shape[1] != e.shape[1]:
        raise ValueError(f"dimension mismatch: {p.shape[1]} vs {e.shape[1]}")
    return p @ e.T


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-total-cost one-to-one assignment over a cost matrix.

    Rectangular matrices are solved natively: exactly min(rows, cols)
    pairs are produced and the surplus rows or columns appear in none of
    them.  The total cost is optimal and the result is
    deterministic: the same matrix always yields the same pairs.  A
    matrix with more rows than columns is solved transposed.  Among
    several equally cheap optima, the one found is the one the shorter
    axis reaches in scan order: first each of its lines, in ascending
    order, keeps its first cheapest entry if no earlier line took it;
    then the remaining lines are inserted by augmenting paths, in
    ascending order, scanning entries ascending with strict improvement.

    Args:
        cost: (rows, cols) matrix of finite costs.

    Returns:
        Assignment with pairs sorted by row index.

    Raises:
        ValueError: on an empty matrix or any NaN / non-finite entry.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
        raise ValueError("cost matrix must be 2-d and non-empty")
    if np.isnan(c).any():
        raise ValueError("invalid cost: NaN entry")
    if not np.all(np.isfinite(c)):
        raise ValueError("invalid cost: non-finite entry")
    if c.shape[0] <= c.shape[1]:
        return Assignment(list(enumerate(_solve(c))))
    return Assignment(sorted((i, j) for j, i in enumerate(_solve(c.T))))


def _solve(cost: np.ndarray) -> list[int]:
    """Exact O(n^2 m) solver for an (n, m) matrix with n <= m; returns the
    column chosen for each row.

    Shortest augmenting path with row/column potentials, warm-started by
    the reduction step of Jonker & Volgenant (1987) applied to rows.
    Each row's potential starts at its minimum cost and every column's
    at 0, so the duals are feasible.  In ascending row order, a row
    takes its first cheapest column if that column is still free; such
    an edge is tight.  Only the rows whose cheapest column was taken
    then go through the augmenting loop, in ascending order, with column
    scans ascending and strict improvement.  That loop lowers a column's
    potential only while the column is in a search tree, and every tree
    column ends up matched, so free columns keep potential 0 and the
    result is optimal for the rectangular problem.
    """
    n, m = cost.shape
    best = cost.argmin(axis=1).tolist()
    u = [0.0] + cost[np.arange(n), best].tolist()
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row owning column j, 1-based, 0 = free
    pending = []
    for i, j in enumerate(best, start=1):
        if match[j + 1]:
            pending.append(i)
        else:
            match[j + 1] = i
    rows = cost.tolist() if pending else []
    parent = [0] * (m + 1)
    for i in pending:
        match[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = rows[i0 - 1]
            delta = math.inf
            j1 = -1
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    parent[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = parent[j0]
            match[j0] = match[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, m + 1):
        if match[j]:
            col_of_row[match[j] - 1] = j - 1
    return col_of_row


def gate_assignment(assignment: Assignment, similarity: np.ndarray, tau_s: float) -> Assignment:
    """Reject matched pairs whose similarity falls below the gate.

    A pair with similarity exactly tau_s survives; strictly below is
    dropped, which leaves both its track and its detection unmatched.
    Kept pairs stay in their input order.
    """
    s = np.asarray(similarity, dtype=np.float64)
    return Assignment([(ti, dj) for ti, dj in assignment.pairs if s[ti, dj] >= tau_s])
