"""Likelihood training of a complex MPS on rotated single-shot data.

The cost at a bond is the mean negative log of the normalized squared
rotated amplitude plus an entanglement penalty,

    L(M) = -(1/|V|) sum_shots ln(|amp|^2 / |M|^2) + lam * S2(M),

where M is the merged two-site tensor, |M|^2 its squared Frobenius norm
(the state norm in canonical gauge), and S2 the second Renyi entropy of
the normalized Schmidt spectrum across the merged bond.  Keeping the norm
explicit makes L scale-invariant, so the merged tensor may wander off the
unit sphere between gradient steps without biasing the objective.

Gradients are taken with respect to the conjugated merged tensor; for a
real loss the ascent direction of -L is exactly that Wirtinger derivative.
Per shot the environment factorizes into a left vector, the two rotated
outcome rows, and a right vector, so amplitudes and gradient sums reduce
to one complex matmul each over the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, ParameterError
from .mps import MatrixProductState, merge_two_site, split_two_site
from .rotations import rotation_matrices

# normalized shot probabilities are clamped below at this floor in the loss;
# clamped shots contribute nothing to the gradient
_PROB_FLOOR = 1e-12
# a bond step that raises the loss is rejected and the step size scaled by this
_STEP_SHRINK = 0.5
# gradient steps tried per bond visit
_GRAD_STEPS = 10
# upper bound of the noise-scaled truncation threshold (see _bond_eta)
_ETA_CAP = 0.12


@dataclass
class LossReport:
    """Cost breakdown at one penalty weight; total = nll + lam * penalty."""

    nll: float
    penalty: float
    lam: float

    @property
    def total(self) -> float:
        return self.nll + self.lam * self.penalty


def _site_rows(dataset):
    """Per-site (|V|, q) arrays: the rotation row selected by each outcome."""
    thetas, phis, spin = dataset.thetas, dataset.phis, dataset.spin
    idx = dataset.outcome_indices
    count = thetas.shape[0]
    rows = []
    sel = np.arange(count)
    for j in range(dataset.n_sites):
        u = rotation_matrices(thetas[:, j], phis[:, j], spin)
        rows.append(np.ascontiguousarray(u[sel, idx[:, j], :]))
    return rows


def _contract_left(left, tensor, row):
    t = np.einsum("si,ivj->svj", left, tensor)
    return np.einsum("svj,sv->sj", t, row)


def _contract_right(tensor, row, right):
    t = np.einsum("ivj,sj->siv", tensor, right)
    return np.einsum("siv,sv->si", t, row)


def _tensors_and_rows(mps, dataset):
    """The state's site tensors and the dataset's per-site rotation rows,
    after checking that the dataset is non-empty and matches the state."""
    if len(dataset) == 0:
        raise ParameterError("dataset is empty")
    if dataset.n_sites != mps.n_sites or dataset.local_dim != mps.local_dim:
        raise ParameterError("dataset does not match the state's shape")
    return [mps.tensor(j) for j in range(mps.n_sites)], _site_rows(dataset)


def _abs2(amps) -> np.ndarray:
    """|amp|^2 from the real and imaginary parts (np.abs is a hypot)."""
    out = np.square(amps.real)
    out += np.square(amps.imag)
    return out


def _clamped_nll(probs) -> float:
    """Mean negative log of the probabilities, clamped below at _PROB_FLOOR."""
    return -float(np.log(np.maximum(probs, _PROB_FLOOR)).sum() / probs.size)


def _chain_nll(tensors, rows) -> float:
    """Whole-chain NLL of the site tensors over per-site rotation rows."""
    env = np.ones((rows[0].shape[0], 1), dtype=np.complex128)
    for tensor, row in zip(tensors, rows):
        env = _contract_left(env, tensor, row)
    return _clamped_nll(_abs2(env[:, 0]))


def nll(mps, dataset) -> float:
    """Mean negative log of the squared rotated amplitudes over the dataset,
    with |amp|^2 clamped below at _PROB_FLOOR.  The state must be normalized."""
    return _chain_nll(*_tensors_and_rows(mps, dataset))


class BondObjective:
    """The training objective restricted to one merged two-site tensor.

    Environments (everything outside the merged pair, rotated and contracted
    with the shot outcomes) are frozen at construction; ``loss`` and
    ``gradient`` may then be evaluated for arbitrary merged tensors of the
    matching shape.  ``gradient`` returns the ascent direction of -loss with
    respect to the conjugated tensor.  Shots whose normalized probability
    falls below _PROB_FLOOR contribute the clamped constant to the loss and
    nothing to the gradient; ``clamped_last`` tallies them per evaluation.
    ``loss`` and ``gradient`` accept the ``point`` of their merged tensor,
    so that a caller evaluating both at one tensor computes it once.
    """

    def __init__(self, left, row_a, row_b, right, penalty_weight):
        """The objective at a bond with per-shot ``left`` (|V|, D1) and
        ``right`` (|V|, D2) environments and the two sites' rotation rows."""
        # a method of its own because bench/tracing.py patches it as training.bond_env
        self._init_from_parts(left, row_a, row_b, right, penalty_weight)

    def _init_from_parts(self, left, row_a, row_b, right, penalty_weight):
        count, d1 = left.shape
        q = row_a.shape[1]
        d2 = right.shape[1]
        self.count = count
        self.shape = (d1, q, q, d2)
        self.penalty_weight = float(penalty_weight)
        # rank-1 shot environments, shots last: la^T (D1 q, |V|), rb^T (q D2, |V|)
        la_t = np.multiply(left.T[:, None, :], row_a.T[None, :, :], order="C")
        rb_t = np.multiply(row_b.T[:, None, :], right.T[None, :, :], order="C")
        self._lat = la_t.reshape(d1 * q, count)
        self._rbt = rb_t.reshape(q * d2, count)
        self.clamped_last = 0

    def amplitudes(self, merged) -> np.ndarray:
        d1, q, _, d2 = self.shape
        # la @ M2 summed row-wise against rb, with shots along the columns
        return (merged.reshape(d1 * q, q * d2).T @ self._lat * self._rbt).sum(axis=0)

    def point(self, merged):
        """(amplitudes, |M|^2, normalized probabilities, purity terms) at
        ``merged``; the purity terms are (Tr[(Theta Theta^dag)^2],
        Theta Theta^dag) of the raw bond matricization Theta, or None when
        the penalty weight is 0."""
        n2 = float(np.vdot(merged, merged).real)
        if not 0.0 < n2 < math.inf:
            raise DegenerateStateError("merged tensor has zero norm")
        amps = self.amplitudes(merged)
        probs = _abs2(amps)
        probs /= n2
        purity = None
        if self.penalty_weight != 0.0:
            d1, q, _, d2 = self.shape
            theta = merged.reshape(d1 * q, q * d2)
            g = theta @ theta.conj().T
            purity = float(np.vdot(g, g).real), g
        return amps, n2, probs, purity

    def loss(self, merged, point=None) -> float:
        _, n2, probs, purity = self.point(merged) if point is None else point
        value = _clamped_nll(probs)
        if purity is not None:
            value += self.penalty_weight * (2.0 * math.log(n2) - math.log(purity[0]))
        return value

    def gradient(self, merged, point=None) -> np.ndarray:
        amps, n2, probs, purity = self.point(merged) if point is None else point
        count, lam = self.count, self.penalty_weight
        if probs.min() >= _PROB_FLOOR:
            n_live, wc = count, (1.0 / count) / amps
        else:
            live = probs >= _PROB_FLOOR
            n_live = int(np.count_nonzero(live))
            wc = np.divide(1.0 / count, amps, out=np.zeros_like(amps), where=live)
        self.clamped_last = count - n_live
        # conj(la)^T diag(w) conj(rb) with w = 1 / (|V| conj(amp)), formed as
        # the conjugate of la^T diag(conj(w)) rb.  The sum over shots stays the
        # inner dimension of a matrix-matrix product, whose bytes do not
        # depend on the BLAS thread count; a matrix-vector product summing
        # over shots gives other bytes at other thread counts.
        grad = ((self._lat * wc) @ self._rbt.T).conj()
        theta = merged.reshape(grad.shape)
        # the likelihood's and the penalty's terms along M, in one update
        grad -= ((n_live / count + 2.0 * lam) / n2) * theta
        if purity is not None:
            t2, g = purity
            grad += (2.0 * lam / t2) * (g @ theta)
        return grad.reshape(self.shape)


def _bond_eta(cfg, d1, q, d2, n_shots) -> float:
    """Relative truncation threshold at one bond trained on ``n_shots`` shots.

    Besides the fixed floor ``cfg.eta``, singular values below
    eta_noise * sqrt((D1 q + q D2) / (2 |V|)), capped at _ETA_CAP, are
    pruned: the statistical magnitude that pure sampling noise induces on
    the merged tensor's singular values.  eta_noise = 0 leaves the floor only.
    """
    if cfg.eta_noise == 0.0:
        return cfg.eta
    noise = cfg.eta_noise * np.sqrt((d1 * q + q * d2) / (2.0 * n_shots))
    return max(cfg.eta, min(_ETA_CAP, noise))


def _optimize_bond(obj, merged, config):
    step = config.step_size
    point = obj.point(merged)
    loss = obj.loss(merged, point)
    for _ in range(_GRAD_STEPS):
        if step == 0.0:
            break
        grad = obj.gradient(merged, point)
        trial = merged + step * grad
        trial_point = obj.point(trial)
        trial_loss = obj.loss(trial, trial_point)
        if trial_loss <= loss:
            merged, loss, point = trial, trial_loss, trial_point
            step = min(step * 1.2, config.step_size)
        else:
            step *= _STEP_SHRINK
    return merged


def train_stage(mps, dataset, config) -> tuple[MatrixProductState, list[LossReport]]:
    """Sweep with an annealed penalty until the total loss settles.

    Sweep t uses penalty weight lambda0 * lambda_decay**t.  Stops when the
    relative change of the total loss drops below convergence_tol or after
    sweeps_per_stage sweeps; the appended final report is the last sweep's
    nll and penalty at lam = 0.  Each sweep is a left-to-right-to-left pass
    that parks the canonical center at site 0 and reports the entropy
    across bond 0.
    """
    config.validate()
    if mps.n_sites < 2:
        raise ParameterError("training needs at least 2 sites")
    # canonicalize returns a state that owns its arrays, so the stage may too
    tensors, rows = _tensors_and_rows(mps.canonicalize(0), dataset)
    last = mps.n_sites - 2
    # per-shot environments, one per site: bond k reads env[k] (sites 0 .. k-1
    # contracted with their rows) and env[k + 2] (sites k+2 .. N-1).  Each pass
    # overwrites env[k + 1] with the side the next bond reads, so none is kept
    # past the last bond that reads it.
    env = [np.ones((len(dataset), 1), dtype=np.complex128)] * (mps.n_sites + 1)
    for j in range(mps.n_sites - 1, 1, -1):
        env[j] = _contract_right(tensors[j], rows[j], env[j + 1])

    def train_bond(k, lam, move):
        obj = BondObjective(env[k], rows[k], rows[k + 1], env[k + 2], lam)
        merged = _optimize_bond(obj, merge_two_site(tensors[k], tensors[k + 1]), config)
        merged /= np.linalg.norm(merged)
        d1, q, _, d2 = merged.shape
        eta = _bond_eta(config, d1, q, d2, obj.count)
        tensors[k], tensors[k + 1], _ = split_two_site(merged, config.d_cap, eta, move)

    history, lam, prev = [], float(config.lambda0), None
    for _ in range(config.sweeps_per_stage):
        for k in range(last):
            train_bond(k, lam, "right")
            env[k + 1] = _contract_left(env[k], tensors[k], rows[k])
        # the turn: the last bond is trained again next, on the same environments
        train_bond(last, lam, "left")
        for k in range(last, 0, -1):
            train_bond(k, lam, "left")
            env[k + 1] = _contract_right(tensors[k + 1], rows[k + 1], env[k + 2])
        train_bond(0, lam, "left")
        model = MatrixProductState(tensors, center=0)
        rep = LossReport(_chain_nll(tensors, rows), model.renyi2_entropy(0), lam)
        history.append(rep)
        if prev is not None:
            if abs(rep.total - prev) <= config.convergence_tol * max(1.0, abs(prev)):
                break
        prev = rep.total
        lam *= config.lambda_decay
    history.append(LossReport(rep.nll, rep.penalty, 0.0))
    return model, history
