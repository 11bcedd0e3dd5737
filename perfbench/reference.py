"""Independent NumPy reference for the benchmark's correctness gate.

Nothing here imports `dispersal`: the gate recomputes every quantity it
checks from the stored states with its own grid, kernel and reaction
field, so a defect in the program cannot hide behind a recorded scalar.
Only the configurations the benchmark runs are covered: trapezoid
grids on the unit interval or unit square, gaussian or constant
kernels, and the constant or single-dip weights of the workloads.
"""

from __future__ import annotations

import numpy as np

DIP_CENTER = 0.5
DIP_EXPONENT = 0.4
DIP_LEVEL = 3.0


def trapezoid(dim: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (n, dim) and weights (n,) of the tensor trapezoid rule."""
    h = 1.0 / (resolution - 1)
    x = np.arange(resolution) * h
    w = np.full(resolution, h)
    w[0] = w[-1] = 0.5 * h
    if dim == 1:
        return x[:, None], w
    gx, gy = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), np.outer(w, w).ravel()


class Problem:
    """Dispersal operator A = K diag(w) of one workload configuration."""

    def __init__(self, dim: int, resolution: int, length_scale: float | None):
        self.nodes, self.weights = trapezoid(dim, resolution)
        self.n = self.weights.size
        if length_scale is None:
            k = np.ones((self.n, self.n))
        else:
            diff = self.nodes[:, None, :] - self.nodes[None, :, :]
            k = np.exp(-np.sum(diff**2, axis=-1) / length_scale**2)
        sqrt_w = np.sqrt(self.weights)
        evals, evecs = np.linalg.eigh(sqrt_w[:, None] * k * sqrt_w[None, :])
        self.a = k * self.weights[None, :]
        self.lambda1 = float(evals[-1])
        phi1 = evecs[:, -1] / sqrt_w
        phi1 = phi1 if phi1.sum() > 0 else -phi1
        self.phi1 = phi1 / phi1.max()

    def mass(self, u: np.ndarray, p: float = 2.0) -> float:
        """sum_j w_j |u_j|^p, the reaction field of the constant weight."""
        return float(self.weights @ np.abs(u) ** p)

    def residual(self, lam: float, u: np.ndarray, field: np.ndarray) -> float:
        """|A u + Phi_u u - lambda u|_inf for a given reaction field."""
        return float(np.abs(self.a @ u + field * u - lam * u).max())

    def dip_row(self) -> np.ndarray:
        """Q(x, .) of the single-dip weight (h = 1, g = 0): x-only."""
        return DIP_LEVEL - np.abs(self.nodes[:, 0] - DIP_CENTER) ** DIP_EXPONENT

    def dip_profile(self, eps: float) -> np.ndarray:
        """a_eps = min(|x - x0|, 1)^eps around the dip's maximum node."""
        x0 = self.nodes[int(np.argmax(self.dip_row()))]
        d = np.linalg.norm(self.nodes - x0[None, :], axis=1)
        return np.minimum(d, 1.0) ** eps

    def closed_form_branch(self, lambda_max: float, points: int):
        """Exact branch of the constant weight Q = 1, p = 2.

        Phi_u is the constant sum_j w_j u_j^2, so u = t phi1 solves the
        equation at lambda = lambda1 + t^2 sum_j w_j phi1_j^2.  Returns
        (lambda, u) pairs with lambda evenly spaced up to lambda_max.
        """
        norm2 = self.mass(self.phi1)
        lams = self.lambda1 + (lambda_max - self.lambda1) * (
            np.arange(1, points + 1) / points
        )
        return [
            (float(lam), np.sqrt((lam - self.lambda1) / norm2) * self.phi1)
            for lam in lams
        ]
