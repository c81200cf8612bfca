"""SE(2) arithmetic and the product-manifold perturbation used everywhere else.

Conventions, fixed once and used consistently by the measurement Jacobians,
the optimizer, and the EKF error states:

* a twist is a plain ndarray ``[phi, rho_x, rho_y]`` (rotation first),
* perturbations act on the right: ``T <- T @ exp(xi)``,
* 2-vectors are plain float64 ndarrays of shape (2,).

Robot 1 is the reference robot; a ``FormationState`` stores the poses of
robots 2..N relative to robot 1 and never stores robot 1's (identity) pose.
"""

from __future__ import annotations

import math

import numpy as np

# Below this rotation angle exp/log switch to their 2nd-order series.
SMALL_ANGLE = 1e-7

# Rotation matrices are re-projected onto SO(2) after this many composes.
RENORMALIZE_EVERY = 100


def rot2(phi: float) -> np.ndarray:
    """2x2 rotation matrix for angle phi: the 0-d case of ``_rot_many``."""
    return _rot_many(np.asarray(phi, dtype=np.float64))


def wrap_angle(phi):
    """Wrap an angle, or each entry of an array of angles, to (-pi, pi]."""
    w = np.arctan2(np.sin(phi), np.cos(phi))
    return np.where(w == -np.pi, np.pi, w)[()]


class _FrozenPoses:
    """Rotation(s) ``C`` (..., 2, 2) and translation(s) ``r`` (..., 2), frozen.

    Instances are immutable and their arrays read-only, pickled copies
    included. ``ops`` counts the composes that produced this value; past
    RENORMALIZE_EVERY the rotations are projected back onto SO(2)
    (``_renormalized``) so determinant drift stays bounded.
    """

    __slots__ = ("C", "r", "_ops")

    def __init__(self, C: np.ndarray, r: np.ndarray, ops: int = 0):
        C = np.asarray(C, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        self._check_shapes(C, r)
        C, ops = _renormalized(C, ops)
        C.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_ops", ops)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (np.asarray(self.C), np.asarray(self.r), self._ops))


class Pose2(_FrozenPoses):
    """An SE(2) element: 2x2 rotation matrix ``C`` plus translation ``r``."""

    __slots__ = ()

    @staticmethod
    def _check_shapes(C: np.ndarray, r: np.ndarray) -> None:
        if C.shape != (2, 2) or r.shape != (2,):
            raise ValueError(f"Pose2 needs C (2,2) and r (2,), got {C.shape} and {r.shape}")

    @classmethod
    def identity(cls) -> "Pose2":
        return cls(np.eye(2), np.zeros(2))

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.C[1, 0], self.C[0, 0]))

    def matrix(self) -> np.ndarray:
        """3x3 homogeneous form."""
        T = np.eye(3)
        T[:2, :2] = self.C
        T[:2, 2] = self.r
        return T

    def __repr__(self) -> str:
        return f"Pose2(angle={self.angle:.6g}, r=({self.r[0]:.6g}, {self.r[1]:.6g}))"


def _V_inv(phi: float) -> np.ndarray:
    # phi sin / (2 - 2 cos) reduces to (phi/2) cot(phi/2), stable away from 0
    if abs(phi) < SMALL_ANGLE:
        a = 1.0 - phi * phi / 12.0
        b = phi / 2.0
    else:
        half = phi / 2.0
        a = half * np.cos(half) / np.sin(half)
        b = half
    return np.array([[a, b], [-b, a]])


def exp(xi: np.ndarray) -> Pose2:
    """Closed-form SE(2) exponential of a twist [phi, rho_x, rho_y]."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != (3,):
        raise ValueError(f"twist must have shape (3,), got {xi.shape}")
    R, t = exp_many(xi[None])
    return Pose2(R[0, 0], t[0, 0])


def log(T: Pose2) -> np.ndarray:
    """Inverse of :func:`exp`; the returned angle lies in (-pi, pi]."""
    phi = T.angle
    rho = _V_inv(phi) @ T.r
    return np.array([phi, rho[0], rho[1]])


def compose(A: Pose2, B: Pose2) -> Pose2:
    """Group product A*B."""
    return Pose2(A.C @ B.C, A.C @ B.r + A.r, ops=A._ops + B._ops + 1)


def inverse(A: Pose2) -> Pose2:
    """Group inverse, compose(A, inverse(A)) = identity."""
    Ct = A.C.T
    return Pose2(Ct.copy(), -(Ct @ A.r), ops=A._ops + 1)


class FormationState(_FrozenPoses):
    """Ordered poses of robots 2..N relative to robot 1.

    Internally stacked as arrays ``C`` (M,2,2) and ``r`` (M,2) with
    M = N-1, which keeps cost evaluations and the finite-difference
    optimizer loop vectorized.
    """

    __slots__ = ()

    @staticmethod
    def _check_shapes(C: np.ndarray, r: np.ndarray) -> None:
        if C.ndim != 3 or C.shape[1:] != (2, 2) or r.shape != (C.shape[0], 2):
            raise ValueError(f"need C (M,2,2) and r (M,2), got {C.shape} and {r.shape}")

    @classmethod
    def identity(cls, n_robots: int) -> "FormationState":
        m = n_robots - 1
        if m < 1:
            raise ValueError("need at least 2 robots")
        return cls(np.broadcast_to(np.eye(2), (m, 2, 2)).copy(), np.zeros((m, 2)))

    @property
    def n_robots(self) -> int:
        return self.C.shape[0] + 1

    @property
    def dim(self) -> int:
        """Dimension of the flat perturbation vector, 3(N-1)."""
        return 3 * self.C.shape[0]

    def pose(self, robot_id: int) -> Pose2:
        """Pose of a robot relative to robot 1 (robot 1 -> identity)."""
        self._check_id(robot_id)
        if robot_id == 1:
            return Pose2.identity()
        i = robot_id - 2
        return Pose2(self.C[i].copy(), self.r[i].copy())

    def positions(self) -> np.ndarray:
        """(N,2) robot origins in robot 1's frame; row 0 is robot 1."""
        out = np.zeros((self.C.shape[0] + 1, 2))
        out[1:] = self.r
        return out

    def _check_id(self, robot_id: int) -> None:
        if not 1 <= robot_id <= self.n_robots:
            raise ValueError(f"unknown robot id {robot_id} (team has {self.n_robots})")

    def __repr__(self) -> str:
        return f"FormationState(n_robots={self.n_robots})"


def _rot_many(phi: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 2, 2) for an array of angles (...)."""
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty(phi.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    return out


def _renormalized(C: np.ndarray, ops: int) -> tuple[np.ndarray, int]:
    """(C, ops), with the rotations C (..., 2, 2) projected back onto SO(2) and
    the count reset once ops passes RENORMALIZE_EVERY; at 0-d the bits of rot2."""
    if ops > RENORMALIZE_EVERY:
        return _rot_many(np.arctan2(C[..., 1, 0], C[..., 0, 0])), 0
    return C, ops


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of 2x2 matrices (...,2,2) and 2-vectors (...,2), with the
    two-term sums written out: the values einsum("...ij,...j->...i") gives,
    without its generic loop, which is slow on these small trailing axes."""
    return M[..., 0] * v[..., None, 0] + M[..., 1] * v[..., None, 1]


def _V_apply(phi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Translations t = V(phi) rho (..., 2) of exp([phi, rho]) over any leading
    axes, V(phi) = (1/phi) [[sin, -(1-cos)], [1-cos, sin]] (Sola et al.,
    arXiv 1812.01537), from h = sin(phi/2) and sin(phi); 1 - cos is written
    as 2h^2 to dodge cancellation at small phi. The 2x2 products are written
    out: the values einsum gives on the stacked V matrices, bit for bit
    (phi * 0.5 and h + h are phi/2 and 2h exactly). Below SMALL_ANGLE V's
    entries sin(phi)/phi and 2h^2/phi take their series 1 - phi^2/6 and phi/2."""
    h, sin_phi = np.sin(phi * 0.5), np.sin(phi)
    big = np.abs(phi) >= SMALL_ANGLE
    if np.count_nonzero(big) == big.size:
        a = sin_phi / phi
        b = (h + h) * h / phi
    else:
        a = 1.0 - phi * phi / 6.0
        b = phi * 0.5
        np.divide(sin_phi, phi, out=a, where=big)
        np.divide((h + h) * h, phi, out=b, where=big)
    rx, ry = rho[..., 0], rho[..., 1]
    t = np.empty(rho.shape)
    t[..., 0] = a * rx - b * ry
    t[..., 1] = b * rx + a * ry
    return t


def exp_step(pose: np.ndarray, xi: np.ndarray) -> None:
    """The one pose step, in place: T_p <- T_p exp(xi_p) for the poses
    [phi, x, y] in consecutive triples of the flat float64 array ``pose``
    and the twists [phi, rho_x, rho_y] in the rows of xi (N,3) or (3N,).

    It runs on Python floats, robot by robot (at the team sizes of a trial
    this beats a batched step's numpy dispatch), whose math.sin and math.cos
    round as numpy's do, with the arithmetic of ``_V_apply``, its series
    below SMALL_ANGLE included. It writes through ``pose``, so the caller
    passes a view of the poses it means to move, never a copy.
    """
    sin, cos = math.sin, math.cos
    x, d = iter(pose.tolist()), iter(xi.ravel().tolist())
    out = []
    for ang, px, py, phi, rx, ry in zip(x, x, x, d, d, d):
        h, sin_phi = sin(phi * 0.5), sin(phi)
        if abs(phi) >= SMALL_ANGLE:
            a, b = sin_phi / phi, (h + h) * h / phi
        else:
            a, b = 1.0 - phi * phi / 6.0, phi * 0.5
        tx, ty = a * rx - b * ry, b * rx + a * ry
        c, s = cos(ang), sin(ang)
        out += (ang + phi, px + (c * tx - s * ty), py + (s * tx + c * ty))
    pose[:] = out


def exp_many(dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SE(2) exps of the rows of dx (B, 3(N-1)): rotations (B,N-1,2,2), V(phi) rho (B,N-1,2)."""
    d = dx.reshape(dx.shape[0], -1, 3)
    phi = d[..., 0]
    return _rot_many(phi), _V_apply(phi, d[..., 1:])


def compose_many(x: FormationState, R: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """x right-perturbed by each of B stacked exps (R, t) from ``exp_many``, as
    :func:`oplus` does: the rotations, translations and compose count of all B.
    The 2x2 products are written out, as in ``_matvec``: the values of
    einsum("nij,bnjk->bnik") and einsum("nij,bnj->bni"), bit for bit."""
    C = x.C[:, :, 0, None] * R[..., None, 0, :] + x.C[:, :, 1, None] * R[..., None, 1, :]
    r = x.r + _matvec(x.C, t)
    C, ops = _renormalized(C, x._ops + 1)
    return C, r, ops


def oplus(x: FormationState, dx: np.ndarray) -> FormationState:
    """Right-perturb every pose: pose_p <- pose_p * exp(dxi_p).

    ``dx`` is flat with length 3(N-1), blocks ordered [phi, rho_x, rho_y]
    per robot, robots in state order.
    """
    dx = np.asarray(dx, dtype=np.float64)
    if dx.shape != (x.dim,):
        raise ValueError(f"perturbation must have shape ({x.dim},), got {dx.shape}")
    C, r, ops = compose_many(x, *exp_many(dx[None]))
    return FormationState(C[0], r[0], ops=ops)


def relative_position(x: FormationState, p: int, q: int) -> np.ndarray:
    """Position of robot p relative to robot q, resolved in robot 1's frame."""
    x._check_id(p)
    x._check_id(q)
    rp = np.zeros(2) if p == 1 else x.r[p - 2]
    rq = np.zeros(2) if q == 1 else x.r[q - 2]
    return rp - rq
