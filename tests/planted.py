"""Planted (S, G) pairs of each case label, I to IV: the fixtures of
acceptance criterion 5.  ``canonical_pair`` gives a case's canonical model
and ``conjugated_pair`` the same model in a random well-conditioned frame."""

import numpy as np

from biconserve.errors import ContractViolation


def canonical_pair(case: str, params: dict | None = None):
    """A canonical (S, G) model pair realizing the requested case label."""
    p = {"H": 0.7, "k2": 1.3, "k3": -0.4, "k4": 2.1, "nu": 0.9, "eps1": 1.0}
    if params:
        p.update(params)
    H, k2, k3, k4, nu = p["H"], p["k2"], p["k3"], p["k4"], p["nu"]
    e1 = p["eps1"]
    if case == "I":
        S = np.diag([-2.0 * H, k2, k3, k4])
        G = np.diag([-1.0, -1.0, 1.0, 1.0])
        return S, G
    if case == "II":
        S = np.array([
            [-2.0 * H, 0, 0, 0],
            [0, k2, 1.0, 0],
            [0, 0, k2, 0],
            [0, 0, 0, k4],
        ])
        G = np.array([
            [e1, 0, 0, 0],
            [0, 0, -1.0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, -e1],
        ])
        return S, G
    if case == "III":
        S = np.array([
            [-2.0 * H, 0, 0, 0],
            [0, k2, -nu, 0],
            [0, nu, k2, 0],
            [0, 0, 0, k4],
        ])
        G = np.diag([1.0, -1.0, 1.0, -1.0])
        return S, G
    if case == "IV":
        S = np.array([
            [-2.0 * H, 0, 0, 0],
            [0, 2.0 * H, 0, 0],
            [0, 0, 2.0 * H, -1.0],
            [0, 1.0, 0, 2.0 * H],
        ])
        G = np.array([
            [-1.0, 0, 0, 0],
            [0, 0, -1.0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 1.0],
        ])
        return S, G
    raise ContractViolation(f"unknown case {case!r}")


def conjugated_pair(case: str, rng: np.random.Generator, params: dict | None = None):
    """Random well-conditioned change of frame applied to a canonical pair."""
    S0, G0 = canonical_pair(case, params)
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    d = np.diag(rng.uniform(0.8, 1.25, size=4))
    P = q1 @ d @ q2
    S = np.linalg.solve(P, S0 @ P)
    G = P.T @ G0 @ P
    return S, G, S0, G0
