"""Momentum gradient descent over the pose manifold with finite-difference gradients.

The update is the classical heavy-ball recursion

    step_t = beta * step_{t-1} - alpha * grad J(x_t),
    x_{t+1} = x_t (+) step_t,

applied through the right-perturbation retraction, terminating once
|step_t| drops below the tolerance. Gradients are central differences
along the 3(N-1) perturbation axes; the objective only needs to be
evaluable, not differentiable in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from covform.costs import SATURATION, Objective
from covform.se2 import FormationState, _rot_many, compose_many, exp_many, oplus


@dataclass(frozen=True)
class OptimizerConfig:
    alpha: float = 0.001      # learning rate
    beta: float = 0.9         # momentum
    tol: float = 1e-4         # stop when |step| < tol
    max_iters: int = 50_000
    fd_step: float = 1e-6
    restarts: int = 8         # multistart count
    init_box: float = 3.0     # random translations drawn from [-box, box]^2
    min_init_separation: float = 0.5

    def __post_init__(self):
        if self.alpha <= 0 or not 0 <= self.beta < 1 or self.tol <= 0 or self.fd_step <= 0:
            raise ValueError("need alpha > 0, 0 <= beta < 1, tol > 0, fd_step > 0")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("need max_iters >= 1 and restarts >= 1")
        if self.init_box <= 0 or self.min_init_separation < 0:
            raise ValueError("need init_box > 0 and min_init_separation >= 0")


@dataclass
class OptimizationTrace:
    """Iteration history plus the final state."""

    iterates: list[tuple[int, float, float]] = field(default_factory=list)  # (iter, cost, |step|)
    final_state: FormationState | None = None
    final_cost: float = np.inf
    converged: bool = False
    message: str = ""

    @property
    def n_iters(self) -> int:
        return len(self.iterates)


@lru_cache(maxsize=16)
def _probe_exps(dim: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """exp_many of the probes +step e_0, -step e_0, +step e_1, ..., built once."""
    probes = np.zeros((dim, 2, dim))
    probes[np.arange(dim), :, np.arange(dim)] = (step, -step)
    return exp_many(probes.reshape(2 * dim, dim))


def gradient_fd(cost: Objective, x: FormationState, step: float) -> tuple[float, np.ndarray]:
    """Cost at x and its central-difference gradient along each perturbation axis.

    x itself (as row 0, not re-projected) and the probes +e_0, -e_0, +e_1, ...,
    x times their cached exps, go to ``cost.many`` in one call.
    """
    C, r, _ = compose_many(x, *_probe_exps(x.dim, step))
    vals = cost.many(np.concatenate([x.C[None], C]), np.concatenate([x.r[None], r]))
    value, hi, lo = float(vals[0]), vals[1::2], vals[2::2]
    bad = ~(np.isfinite(hi) & np.isfinite(lo))
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"cost is not finite at finite-difference probe, coordinate {k}")
    return value, (hi - lo) / (2.0 * step)


def minimize(cost: Objective, x0: FormationState,
             cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationTrace:
    """Run momentum descent from one start; returns the trace.

    The cost at each new iterate comes with its gradient from one
    ``gradient_fd`` call; the cost alone is evaluated only at the start and
    at the state the descent stops on.
    """
    trace = OptimizationTrace()
    x = x0
    c = cost(x)
    if not np.isfinite(c):
        raise ValueError("cost is not finite at the initial state")
    _, g = gradient_fd(cost, x, cfg.fd_step)
    if c >= SATURATION and np.all(g == 0.0):
        trace.final_state, trace.final_cost = x, c
        trace.message = "started on a saturated cost plateau with zero gradient"
        return trace
    step = np.zeros(x.dim)
    for it in range(cfg.max_iters):
        step = cfg.beta * step - cfg.alpha * g
        x = oplus(x, step)
        norm = math.sqrt(step.dot(step))  # np.linalg.norm of a real 1-D array
        trace.converged = norm < cfg.tol
        if trace.converged or it == cfg.max_iters - 1:
            break
        c, g = gradient_fd(cost, x, cfg.fd_step)
        trace.iterates.append((it, c, norm))
    trace.final_state = x
    trace.final_cost = c = cost(x)
    trace.iterates.append((it, c, norm))
    if not trace.converged:
        trace.message = f"step norm still {norm:.3g} after {cfg.max_iters} iters"
    return trace


def random_formation(n_robots: int, rng: np.random.Generator,
                     cfg: OptimizerConfig = OptimizerConfig()) -> FormationState:
    """Random start: uniform headings, translations in the init box.

    States with any pair closer than min_init_separation are resampled so
    no start sits inside the collision barrier; ValueError after 1000 draws.
    """
    m = n_robots - 1
    for _ in range(1000):
        ang = rng.uniform(-np.pi, np.pi, m)
        pos = rng.uniform(-cfg.init_box, cfg.init_box, (m, 2))
        all_pos = np.vstack([np.zeros((1, 2)), pos])
        d = np.linalg.norm(all_pos[:, None] - all_pos[None, :], axis=-1)
        if np.all(d[np.triu_indices(n_robots, 1)] > cfg.min_init_separation):
            return FormationState(_rot_many(ang), pos)
    b = cfg.init_box
    raise ValueError(f"1000 draws of {n_robots} robots in [-{b}, {b}]^2 all put a pair within "
                     f"min_init_separation {cfg.min_init_separation} m; grow the box")
