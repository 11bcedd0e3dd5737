"""Box domains, quadrature grids, and ball covering counts.

Everything downstream reduces integrals over the habitat to weighted sums
over a fixed node set, so this module stays deliberately small: a `Domain`
is an axis-aligned box in R^N for any N >= 1, `build_grid` produces nodes
and strictly positive weights for one of three classical rules, and
`cover` counts the closed balls of radius r/2 that cover the box.  Both
are tensor products of per-axis constructions, built the same way in
every dimension.  A grid is valid by construction: its nodes lie in the
closed box (the trapezoid ends are exactly its bounds), every weight is
positive and the weights sum to the volume to relative 1e-12, so
`build_grid` checks its arguments and not its result.  Grids are frozen
after construction and are safe to share between threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RULES",
    "Domain",
    "GeometryError",
    "QuadratureGrid",
    "build_grid",
    "cover",
]

RULES = ("midpoint", "trapezoid", "gauss-legendre-tensor")

_RULE_ALIASES = {
    "gauss": "gauss-legendre-tensor",
    "gauss-legendre": "gauss-legendre-tensor",
}


class GeometryError(ValueError):
    """Degenerate domain, unknown rule, or invalid covering radius."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box in R^N, N >= 1.

    ``lower`` and ``upper`` are per-axis bounds.  A box whose side,
    lower + upper or volume overflows, or whose volume is below 1e-280,
    is refused, so every grid on it has finite nodes and normal weights.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise GeometryError("lower and upper must have the same length")
        if not lo:
            raise GeometryError("a box needs at least one axis")
        if not all(map(math.isfinite, lo + hi)):
            raise GeometryError(
                f"box bounds must be finite: lower={lo} upper={hi}"
            )
        if any(b <= a for a, b in zip(lo, hi)):
            raise GeometryError(f"degenerate box: lower={lo} upper={hi}")
        # on any grid that fits in memory the least weight is above 1e-27
        # of the volume
        if not (
            all(math.isfinite(a + b) for a, b in zip(lo, hi))
            and 1e-280 <= self.volume < math.inf
        ):
            raise GeometryError(
                f"box is out of float64 range: lower={lo} upper={hi}, "
                f"volume {self.volume} (a side, a + b or the volume "
                "overflows, or the volume is below 1e-280)"
            )

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    @property
    def volume(self) -> float:
        return float(math.prod(self.sides))

    @property
    def diameter(self) -> float:
        return float(math.hypot(*self.sides))


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and positive weights for integration over ``domain``.

    ``nodes`` has shape (n, dim) and ``weights`` shape (n,); the weights sum
    to the domain volume to relative 1e-12.  ``resolution`` is points per
    axis, so n == resolution ** dim.
    """

    domain: Domain
    rule: str
    resolution: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, samples: np.ndarray) -> float:
        """Weighted sum approximating the integral of the sampled function."""
        values = np.asarray(samples, dtype=float)
        if values.shape != (self.n,):
            raise GeometryError(
                f"expected {self.n} samples, got shape {values.shape}"
            )
        return float(self.weights @ values)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Weighted inner product <u, v> = sum_j w_j u_j v_j."""
        return float(self.weights @ (np.asarray(u, float) * np.asarray(v, float)))

    def lp_norm(self, u: np.ndarray, p: float) -> float:
        """Weighted L^p norm (sum_j w_j |u_j|^p)^(1/p), p > 0."""
        if p <= 0:
            raise GeometryError("p must be positive")
        u = np.asarray(u, dtype=float)
        return float((self.weights @ np.abs(u) ** p) ** (1.0 / p))

    def axes(self) -> tuple:
        """Per-axis (nodes, weights) of the tensor rule.

        ``nodes`` are their product in ``ij`` order (the last axis varies
        fastest) and ``weights`` the outer product of the axis weights.
        """
        return _axes(self.domain, self.rule, self.resolution)


def _axis_rule(rule: str, lo: float, hi: float, res: int):
    h = (hi - lo) / res
    if rule == "midpoint":
        x = lo + (np.arange(res) + 0.5) * h
        w = np.full(res, h)
    elif rule == "trapezoid":
        # ends exactly lo and hi, the interior lo + k h
        x = np.linspace(lo, hi, res)
        h = (hi - lo) / (res - 1)
        w = np.full(res, h)
        w[0] = w[-1] = 0.5 * h
    else:  # gauss-legendre-tensor
        t, wt = np.polynomial.legendre.leggauss(res)
        x = 0.5 * (hi - lo) * t + 0.5 * (lo + hi)
        w = 0.5 * (hi - lo) * wt
    return x, w


def _axes(domain: Domain, rule: str, res: int) -> tuple:
    return tuple(
        _axis_rule(rule, lo, hi, res)
        for lo, hi in zip(domain.lower, domain.upper)
    )


def build_grid(domain: Domain, rule: str, resolution: int) -> QuadratureGrid:
    """Tensor-product quadrature grid with ``resolution`` points per axis."""
    rule = _RULE_ALIASES.get(rule, rule)
    if rule not in RULES:
        raise GeometryError(f"unknown rule {rule!r}; expected one of {RULES}")
    if isinstance(resolution, bool) or not isinstance(
        resolution, numbers.Integral
    ):
        raise GeometryError(
            f"resolution must be an integer, got {resolution!r}"
        )
    if resolution < 2:
        raise GeometryError("resolution must be at least 2")

    axes = _axes(domain, rule, resolution)
    nodes = _mesh([x for x, _ in axes])
    weights = np.prod(_mesh([w for _, w in axes]), axis=1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(domain, rule, resolution, nodes, weights)


def _mesh(axes: list) -> np.ndarray:
    """The product of per-axis values as (n, N) rows, last axis fastest."""
    return np.column_stack(
        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    )


def cover(domain: Domain, r: float) -> int:
    """The number m of closed balls of radius r/2 that cover ``domain``.

    Each axis is split into the fewest equal cells no longer than
    r/sqrt(N), to a relative slack of 1e-12; the cell centers are the
    ball centers and m is the product of the per-axis cell counts.  A
    cell's half diagonal is then at most r/2, to that slack, so every
    point of the box, every grid node among them, lies within r/2 of its
    own cell's center.
    """
    if not r > 0:
        raise GeometryError("covering radius r must be positive")
    max_cell = r / math.sqrt(domain.dim)
    return math.prod(
        max(1, math.ceil(side / max_cell - 1e-12)) for side in domain.sides
    )
