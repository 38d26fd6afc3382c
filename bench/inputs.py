"""Seeded benchmark inputs, made with numpy alone.

The package's own sampler is never used to make inputs, so a change to
the sampler cannot change the data the other commands are measured on.
Every generated model has a negative definite interaction matrix, so the
quadratic u' A u is at most 0 on the simplex and plain rejection from
Dirichlet(beta + 1) with acceptance exp(u' A u) is exact.  The fixed
dataset-2 design is only written out as a params file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# A two-by-two negative definite interaction with the last (reference)
# component the most abundant, as the fit command expects.
P3_A = ((-3.0, 1.0), (1.0, -2.0))
P3_BETA = (-0.4, -0.3, 0.0)

# Dataset-2 fit of the source paper: vertex-concentrated, five parts.
DATASET2_A = (
    (-141.924, -16586.0, -5877.63, -11524.5),
    (-16586.0, -9856.69, -38106.8, 11709.2),
    (-5877.63, -38106.8, -5184.47, 8260.35),
    (-11524.5, 11709.2, 8260.35, -216660.0),
)
DATASET2_BETA = (-0.904976, -0.909160, -0.740065, -0.464586, 0.0)
DATASET2_KSTAR = 4


def quadratic(U: np.ndarray, a_l) -> np.ndarray:
    V = U[:, : len(a_l)]
    return np.einsum("ni,ij,nj->n", V, np.asarray(a_l, dtype=float), V)


def draw(a_l, beta, n: int, rng: np.random.Generator) -> np.ndarray:
    """n exact draws by rejection; needs a negative semidefinite a_l."""
    a = np.asarray(a_l, dtype=float)
    if np.max(np.linalg.eigvalsh(a)) > 0.0:
        raise ValueError("rejection with envelope 1 needs a negative definite a_l")
    alpha = np.asarray(beta, dtype=float) + 1.0
    kept, have = [], 0
    while have < n:
        P = rng.dirichlet(alpha, size=max(4096, 2 * (n - have)))
        P = P[np.log(rng.random(P.shape[0])) < quadratic(P, a)]
        P = P[(P > 0.0).all(axis=1)]
        kept.append(P)
        have += P.shape[0]
    return np.concatenate(kept)[:n]


def moments(a_l, beta, proposals: int, rng: np.random.Generator,
            chunk: int = 1_000_000) -> dict:
    """Model mean of u and E_dirichlet[exp(u' A u)] by importance sampling.

    Proposals come from Dirichlet(beta + 1) with weights exp(u' A u); the
    returned standard errors are the delta-method ones of the
    self-normalised mean and of the plain weight average.
    """
    alpha = np.asarray(beta, dtype=float) + 1.0
    p = alpha.size
    sw = sww = 0.0
    swu = np.zeros(p)
    swuu = np.zeros(p)
    swwu = np.zeros(p)
    swwuu = np.zeros(p)
    done = 0
    while done < proposals:
        size = min(chunk, proposals - done)
        P = rng.dirichlet(alpha, size=size)
        w = np.exp(quadratic(P, a_l))
        sw += w.sum()
        sww += (w * w).sum()
        swu += w @ P
        swuu += w @ (P * P)
        swwu += (w * w) @ P
        swwuu += (w * w) @ (P * P)
        done += size
    mean = swu / sw
    # Var of the ratio estimator: sum w_i^2 (u_i - mean)^2 / (sum w)^2
    var = (swwuu - 2.0 * mean * swwu + mean * mean * sww) / (sw * sw)
    ew = sw / proposals
    ew_var = max(sww / proposals - ew * ew, 0.0) / proposals
    return {"mean": mean.tolist(), "mean_se": np.sqrt(np.maximum(var, 0.0)).tolist(),
            "ew": ew, "ew_se": float(np.sqrt(ew_var)), "proposals": proposals}


def p17_model(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A seeded p=17 model with a negative definite A_L.

    A_L is scaled so that E[u' A u] under the Dirichlet(beta + 1)
    proposal is -3.5, which keeps the sampler's acceptance near 4.5% for
    every seed (unscaled, it ranges over a factor of 3).
    """
    d = 16
    B = rng.normal(size=(d, d))
    a_l = -(B @ B.T / d + np.eye(d))
    beta = np.append(rng.uniform(-0.5, 0.3, size=d), 0.0)
    alpha = beta + 1.0
    a0 = alpha.sum()
    second = (np.outer(alpha, alpha) + np.diag(alpha)) / (a0 * (a0 + 1.0))
    return a_l * (-3.5 / np.sum(a_l * second[:d, :d])), beta


def params_payload(a_l, beta, kstar: int) -> dict:
    """The package's params JSON schema (version 1)."""
    a = np.asarray(a_l, dtype=float)
    return {"schema_version": 1, "kind": "params", "p": a.shape[0] + 1,
            "kstar": kstar, "a_l": a.tolist(),
            "beta": np.asarray(beta, dtype=float).tolist()}


def dataset2_payload() -> dict:
    return params_payload(DATASET2_A, DATASET2_BETA, DATASET2_KSTAR)


def write_table(path: Path, matrix: np.ndarray, prefix: str) -> None:
    """CSV with a header row and shortest round-trip numbers."""
    cols = matrix.shape[1]
    lines = [",".join(f"{prefix}{j + 1}" for j in range(cols))]
    lines += [",".join(map(repr, row)) for row in matrix.tolist()]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
