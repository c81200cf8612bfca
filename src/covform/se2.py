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

import numpy as np

# Below this rotation angle exp/log switch to their 2nd-order series.
SMALL_ANGLE = 1e-7

# Rotation matrices are re-projected onto SO(2) after this many composes.
RENORMALIZE_EVERY = 100

_S = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 deg rotation generator


def rot2(phi: float) -> np.ndarray:
    """2x2 rotation matrix for angle phi."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def wrap_angle(phi):
    """Wrap an angle, or each entry of an array of angles, to (-pi, pi]."""
    w = np.arctan2(np.sin(phi), np.cos(phi))
    return np.where(w == -np.pi, np.pi, w)[()]


class Pose2:
    """An SE(2) element: 2x2 rotation matrix ``C`` plus translation ``r``.

    Instances are immutable. ``ops`` counts how many composes produced this
    value; once it passes RENORMALIZE_EVERY the rotation is projected back
    onto SO(2) so determinant drift stays bounded in long simulations.
    """

    __slots__ = ("C", "r", "_ops")

    def __init__(self, C: np.ndarray, r: np.ndarray, ops: int = 0):
        C = np.asarray(C, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        if C.shape != (2, 2) or r.shape != (2,):
            raise ValueError(f"Pose2 needs C (2,2) and r (2,), got {C.shape} and {r.shape}")
        if ops > RENORMALIZE_EVERY:
            C = rot2(np.arctan2(C[1, 0], C[0, 0]))
            ops = 0
        C.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_ops", ops)

    def __setattr__(self, name, value):
        raise AttributeError("Pose2 is immutable")

    def __reduce__(self):
        return (Pose2, (np.asarray(self.C), np.asarray(self.r), self._ops))

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
    phi = xi[:1]
    t = _V_apply(phi, xi[None, 1:], np.sin(phi * 0.5), np.sin(phi))
    return Pose2(rot2(xi[0]), t[0])


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


def adjoint(T: Pose2) -> np.ndarray:
    """3x3 adjoint of T under the [phi, rho] twist ordering.

    Satisfies T * exp(xi) = exp(Ad_T xi) * T.
    """
    A = np.eye(3)
    A[1:, 0] = -(_S @ T.r)
    A[1:, 1:] = T.C
    return A


class FormationState:
    """Ordered poses of robots 2..N relative to robot 1.

    Internally stacked as arrays ``C`` (M,2,2) and ``r`` (M,2) with
    M = N-1, which keeps cost evaluations and the finite-difference
    optimizer loop vectorized.
    """

    __slots__ = ("C", "r", "_ops", "_pos")

    def __init__(self, C: np.ndarray, r: np.ndarray, ops: int = 0):
        C = np.asarray(C, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        if C.ndim != 3 or C.shape[1:] != (2, 2) or r.shape != (C.shape[0], 2):
            raise ValueError(f"need C (M,2,2) and r (M,2), got {C.shape} and {r.shape}")
        if ops > RENORMALIZE_EVERY:
            C = _rot_many(np.arctan2(C[:, 1, 0], C[:, 0, 0]))
            ops = 0
        C.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_ops", ops)
        object.__setattr__(self, "_pos", None)

    def __setattr__(self, name, value):
        raise AttributeError("FormationState is immutable")

    def __reduce__(self):
        return (FormationState, (np.asarray(self.C), np.asarray(self.r), self._ops))

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
        if self._pos is None:
            out = np.zeros((self.C.shape[0] + 1, 2))
            out[1:] = self.r
            out.flags.writeable = False
            object.__setattr__(self, "_pos", out)
        return self._pos

    def headings(self) -> np.ndarray:
        """(N,) heading angles; entry 0 is robot 1's zero."""
        return np.concatenate([[0.0], np.arctan2(self.C[:, 1, 0], self.C[:, 0, 0])])

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


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of 2x2 matrices (...,2,2) and 2-vectors (...,2), with the
    two-term sums written out: the values einsum("...ij,...j->...i") gives,
    without its generic loop, which is slow on these small trailing axes."""
    return M[..., 0] * v[..., None, 0] + M[..., 1] * v[..., None, 1]


def _V_apply(phi: np.ndarray, rho: np.ndarray, h: np.ndarray,
             sin_phi: np.ndarray) -> np.ndarray:
    """Translations t = V(phi) rho (..., 2) of exp([phi, rho]) over any leading
    axes, V(phi) = (1/phi) [[sin, -(1-cos)], [1-cos, sin]] (Sola et al.,
    arXiv 1812.01537), from h = sin(phi/2) and sin(phi); 1 - cos is written
    as 2h^2 to dodge cancellation at small phi. The 2x2 products are written
    out: the values einsum gives on the stacked V matrices, bit for bit
    (phi * 0.5 and h + h are phi/2 and 2h exactly). Below SMALL_ANGLE V's
    entries sin(phi)/phi and 2h^2/phi take their series 1 - phi^2/6 and phi/2.

    ``covsim.ekf.EkfState._peek`` repeats this arithmetic, the series choice
    included, on the Python floats of one pose; a change here must be made
    there too (tests/test_ekf.py holds the two to the same bits)."""
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


def exp_step(ang: np.ndarray, pos: np.ndarray, xi: np.ndarray,
             trig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Right-exp step on stacked poses, in place: T_p <- T_p * exp(xi_p).

    ``ang`` (N,) and ``pos`` (N,2) hold the headings and positions of the
    T_p; ``xi`` is (N,3) with rows [phi, rho_x, rho_y]; ``trig`` is
    (cos(ang), sin(ang)), which the caller may share with other work on the
    same headings. Returns the translations V(phi_p) rho_p of the exp(xi_p).

    One sine call serves V's sin(phi/2) and sin(phi), and the 2x2 products
    are written out. That gives the values of the stacked V matrices and
    ``_rot_many`` applied by einsum, bit for bit, in fewer numpy calls.
    """
    n = ang.shape[0]
    phi = xi[:, 0]
    sines = np.sin(np.concatenate([phi * 0.5, phi]))
    c, s = trig
    t = _V_apply(phi, xi[:, 1:], sines[:n], sines[n:])
    tx, ty = t[:, 0], t[:, 1]
    step = np.empty((n, 2))
    step[:, 0] = c * tx - s * ty
    step[:, 1] = s * tx + c * ty
    pos += step
    ang += phi
    return t


def oplus_many(x: FormationState, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Right-perturb x by each row of dx (B, 3(N-1)) as :func:`oplus` does: the
    rotations (B,N-1,2,2), translations (B,N-1,2) and compose count of all B."""
    d = dx.reshape(dx.shape[0], -1, 3)
    phi = d[..., 0]
    t = _V_apply(phi, d[..., 1:], np.sin(phi * 0.5), np.sin(phi))
    C = np.einsum("nij,bnjk->bnik", x.C, _rot_many(phi))
    r = x.r + np.einsum("nij,bnj->bni", x.C, t)
    if x._ops + 1 > RENORMALIZE_EVERY:
        return _rot_many(np.arctan2(C[..., 1, 0], C[..., 0, 0])), r, 0
    return C, r, x._ops + 1


def oplus(x: FormationState, dx: np.ndarray) -> FormationState:
    """Right-perturb every pose: pose_p <- pose_p * exp(dxi_p).

    ``dx`` is flat with length 3(N-1), blocks ordered [phi, rho_x, rho_y]
    per robot, robots in state order.
    """
    dx = np.asarray(dx, dtype=np.float64)
    if dx.shape != (x.dim,):
        raise ValueError(f"perturbation must have shape ({x.dim},), got {dx.shape}")
    C, r, ops = oplus_many(x, dx[None])
    return FormationState(C[0], r[0], ops=ops)


def relative_position(x: FormationState, p: int, q: int) -> np.ndarray:
    """Position of robot p relative to robot q, resolved in robot 1's frame."""
    x._check_id(p)
    x._check_id(q)
    rp = np.zeros(2) if p == 1 else x.r[p - 2]
    rq = np.zeros(2) if q == 1 else x.r[q - 2]
    return rp - rq
