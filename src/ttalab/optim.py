"""Update rules for the adapter: preconditioned, SGD, AdamW.

Each rule returns its step delta (AdamW also advances its state);
gradient clipping and delta capping are separate so the episode loop can
apply them in the documented order (clip the gradient, take the rule step,
cap the step). The closed-form trust-region step solves

    minimize g . delta   subject to   (1/2) delta^T I delta <= eps

for diagonal I, giving delta* = -eta * I^{-1} g with
eta = sqrt(2 eps / (g^T I^{-1} g)); the constraint is tight at delta*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DEFAULT_LR = {"precond": 1e-3, "sgd": 5e-4, "adamw": 3e-4}


@dataclass
class UpdateRuleConfig:
    kind: str = "precond"
    learning_rate: float | None = None
    steps: int = 50
    clip_coef: float = 1.0
    max_delta_norm: float = 0.25
    lambda_reg: float = 1e-3

    def validate(self) -> None:
        if self.kind not in _DEFAULT_LR:
            raise ValueError(f"unknown update kind {self.kind!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for name, value in (("learning_rate", self.lr), ("clip_coef", self.clip_coef),
                            ("max_delta_norm", self.max_delta_norm)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.lambda_reg) and self.lambda_reg >= 0):
            raise ValueError(f"lambda_reg must be finite and >= 0, got {self.lambda_reg}")

    @property
    def lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return _DEFAULT_LR[self.kind]


def clip_gradient(g: np.ndarray, c: float) -> np.ndarray:
    """g * min(1, c / ||g||); direction preserved, zero stays zero."""
    if c <= 0:
        raise ValueError("clip coefficient must be > 0")
    norm = float(np.linalg.norm(g))
    if norm <= c or norm == 0.0:
        return np.array(g, copy=True)
    return g * (c / norm)


def cap_delta(delta: np.ndarray, max_delta_norm: float) -> np.ndarray:
    """Same rescaling as clip_gradient, applied to a step."""
    return clip_gradient(delta, max_delta_norm)


def sgd_step(g: np.ndarray, lr: float) -> np.ndarray:
    return -lr * g


def precond_step(g: np.ndarray, preconditioner: np.ndarray, lr: float) -> np.ndarray:
    """delta = -lr * (P o g), elementwise preconditioning."""
    if preconditioner.shape != g.shape:
        raise ValueError(
            f"preconditioner shape {preconditioner.shape} does not match "
            f"gradient shape {g.shape}")
    return -lr * (preconditioner * g)


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamWState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def adamw_step(state: AdamWState, phi: np.ndarray, g: np.ndarray, lr: float,
               eps_num: float = 1e-8, weight_decay: float = 0.0) -> np.ndarray:
    """Bias-corrected AdamW (beta1 = 0.9, beta2 = 0.999) with decoupled
    weight decay.

    With eps_num = 0 the first step from zero state is exactly
    -lr * sign(g) (0/0 coordinates resolve to 0), which is the sign-step
    behavior the preconditioned rule is built to avoid on cold starts.
    """
    state.t += 1
    state.m = 0.9 * state.m + (1.0 - 0.9) * g
    state.v = 0.999 * state.v + (1.0 - 0.999) * g * g
    m_hat = state.m / (1.0 - 0.9 ** state.t)
    v_hat = state.v / (1.0 - 0.999 ** state.t)
    denom = np.sqrt(v_hat) + eps_num
    ratio = np.divide(m_hat, denom, out=np.zeros_like(m_hat), where=denom != 0.0)
    return -lr * (ratio + weight_decay * phi)


@dataclass
class TrustRegionStep:
    delta: np.ndarray
    eta: float
    degenerate: bool = False


def trust_region_step(g: np.ndarray, fisher_diag: np.ndarray,
                      eps: float) -> TrustRegionStep:
    """Closed-form minimizer of g.delta on the Fisher ellipsoid of radius eps.

    Returns delta* = -eta * g / I and eta = sqrt(2 eps / sum(g^2 / I));
    a zero gradient yields the zero step flagged degenerate (eta undefined).
    """
    if eps <= 0:
        raise ValueError("trust region radius must be > 0")
    fisher_diag = np.asarray(fisher_diag, dtype=np.float64)
    if fisher_diag.shape != np.shape(g):
        raise ValueError("fisher diagonal and gradient shapes differ")
    if np.any(fisher_diag <= 0):
        raise ValueError("fisher diagonal must be positive")
    quad = float(np.dot(g, g / fisher_diag))
    if quad == 0.0:
        return TrustRegionStep(delta=np.zeros_like(fisher_diag),
                               eta=float("nan"), degenerate=True)
    eta = math.sqrt(2.0 * eps / quad)
    return TrustRegionStep(delta=-eta * (g / fisher_diag), eta=eta)
