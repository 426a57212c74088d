"""Evasion attacks against the dense classifiers, plus the two noise kinds
that ``detector.prepare_batch`` matches to each attack's magnitude.

All attacks share one contract: they take a network, a clean input, and the
input's original label, and return an AttackOutcome whose ``success`` flag is
true exactly when the network's deterministic prediction on the returned
example differs from that label.  Crafted examples are always clipped to the
configured box.

Attack kinds:

* ``fgm``    one L2-normalized gradient step of size epsilon
* ``bim_a``  iterated steps of epsilon/max_iters, stopping at the first
             misclassifying iterate
* ``bim_b``  the same steps but always running all max_iters iterations
* ``jsma``   greedy saliency pairs, each chosen pair of features set to a
             box extreme
* ``opt``    optimizer-based minimum-L2 attack (tanh box change of variables,
             hinge on the logit margin, binary search over the hinge weight)
* ``adaptive_opt``  the opt attack with an additional penalty on the local
             intrinsic dimensionality of the iterate's pre-softmax activation,
             weighted by a binary-searched constant alpha

The iterated attacks step on ``microgradnet.forward_row`` and
``backprop_row``: one unchecked forward per iterate serves its prediction and
its gradient or Jacobian, with the arithmetic of the checked wrappers, so the
outcomes are bitwise those of stepping through ``predict`` and
``input_gradient``.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import microgradnet
from .errors import ExhaustedFeaturesError, NoDirectionError, ShapeError
from .microgradnet import CrossEntropy, input_gradient
# unused here; benchmark/child.py's traced run checks this binding is patched
from .microgradnet import forward_capture  # noqa: F401
from .neighborhood import Minibatch

ATTACK_KINDS = ("fgm", "bim_a", "bim_b", "jsma", "opt", "adaptive_opt")

# saturation tolerance: features this close to a box edge are never reselected
_SATURATION_TOL = 1e-12


@dataclass(frozen=True)
class AttackConfig:
    """Knobs shared by all attack kinds; most kinds read only a few.

    ``epsilon`` is the total step budget for fgm/bim; ``max_iters`` bounds the
    bim/jsma loops and the opt attack's inner gradient descent.  The opt hinge
    weight c is binary-searched within ``opt_c_range`` and the adaptive
    penalty weight within ``adaptive_alpha_range``; a collapsed range (equal
    endpoints) pins the constant.
    """

    kind: str = "fgm"
    epsilon: float = 0.3
    max_iters: int = 50
    clip_min: float = 0.0
    clip_max: float = 1.0
    sign_step: bool = False
    opt_learning_rate: float = 0.1
    opt_binary_search_steps: int = 6
    opt_c_range: tuple = (1e-3, 1e6)
    adaptive_alpha_range: tuple = (1e-3, 1e6)
    adaptive_alpha_steps: int = 6
    adaptive_k: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.clip_min < self.clip_max:
            raise ValueError("clip_min must be below clip_max")
        for name in ("opt_c_range", "adaptive_alpha_range"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise ValueError(f"{name} must be positive and ascending")
        if self.opt_binary_search_steps < 1 or self.adaptive_alpha_steps < 1:
            raise ValueError("search steps must be at least 1")
        if self.opt_learning_rate <= 0.0:
            raise ValueError("opt_learning_rate must be positive")
        if self.adaptive_k < 1:
            raise ValueError("adaptive_k must be at least 1")


@dataclass(frozen=True)
class AttackOutcome:
    adversarial: np.ndarray
    success: bool
    iterations_used: int
    l2_perturbation: float

    def __post_init__(self):
        a = np.asarray(self.adversarial, dtype=float)
        object.__setattr__(self, "adversarial", a)
        a.setflags(write=False)


def _finish(net, x, label, adv, iterations) -> AttackOutcome:
    adv = np.asarray(adv, dtype=float)
    return AttackOutcome(
        adversarial=adv,
        success=microgradnet.predict(net, adv) != label,
        iterations_used=iterations,
        l2_perturbation=float(np.linalg.norm(adv - x)),
    )


def _clip(v, cfg: AttackConfig):
    return np.clip(v, cfg.clip_min, cfg.clip_max)


# --------------------------------------------------------------------------
# single-step and iterated gradient attacks


def fgm(net, x, label: int, cfg: AttackConfig) -> AttackOutcome:
    """One gradient step of L2 length epsilon (or epsilon*sign with sign_step)."""
    x = np.asarray(x, dtype=float)
    g = input_gradient(net, x, CrossEntropy(label))
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise NoDirectionError("input gradient is exactly zero")
    step = cfg.epsilon * np.sign(g) if cfg.sign_step else cfg.epsilon * g / norm
    return _finish(net, x, label, _clip(x + step, cfg), 1)


def _bim(net, x, label, cfg, stop_early):
    """One forward per iterate serves both the stop-early prediction and the
    gradient of the next step."""
    x = microgradnet.as_row(net, x)
    if not 0 <= label < net.output_dim:
        raise ValueError("label out of range")
    step_size = cfg.epsilon / cfg.max_iters
    cur = x
    iterations = 0
    for _ in range(cfg.max_iters):
        levels = microgradnet.forward_row(net, cur)
        if stop_early and iterations and levels[-1].argmax() != label:
            break
        g = microgradnet.cross_entropy_gradient(net, levels, label)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            if iterations == 0:
                raise NoDirectionError("input gradient is exactly zero")
            break  # gradient died mid-path; keep the partial perturbation
        step = step_size * np.sign(g) if cfg.sign_step else step_size * g / norm
        cur = _clip(cur + step, cfg)
        iterations += 1
    return _finish(net, x, label, cur, iterations)


def bim_a(net, x, label: int, cfg: AttackConfig) -> AttackOutcome:
    """Iterated epsilon/max_iters steps, returning the first misclassifying iterate."""
    return _bim(net, x, label, cfg, stop_early=True)


def bim_b(net, x, label: int, cfg: AttackConfig) -> AttackOutcome:
    """Iterated epsilon/max_iters steps, always running the full iteration budget."""
    return _bim(net, x, label, cfg, stop_early=False)


# --------------------------------------------------------------------------
# saliency-pair attack


def _best_pair(cur, alpha, beta, cfg):
    """Most salient admissible feature pair, or None.

    Tries pairs pushed to clip_max first (target derivative sum positive,
    other-class sum negative), then pairs pushed to clip_min with the signs
    flipped.  The score -sum_alpha * sum_beta is maximized; ties go to the
    lexicographically smallest pair.  Saturated features are excluded.
    """
    for toward_max in (True, False):
        if toward_max:
            free = cur < cfg.clip_max - _SATURATION_TOL
        else:
            free = cur > cfg.clip_min + _SATURATION_TOL
        idx = np.flatnonzero(free)
        if idx.shape[0] < 2:
            continue
        a = np.add.outer(alpha[idx], alpha[idx])
        b = np.add.outer(beta[idx], beta[idx])
        admissible = (a > 0) & (b < 0) if toward_max else (a < 0) & (b > 0)
        rows, cols = np.triu_indices(idx.shape[0], k=1)
        ok = admissible[rows, cols]
        if not ok.any():
            continue
        scores = np.where(ok, -(a * b)[rows, cols], -np.inf)
        best = int(np.argmax(scores))  # first max = lexicographically smallest
        return int(idx[rows[best]]), int(idx[cols[best]]), toward_max
    return None


def jsma(net, x, label: int, cfg: AttackConfig) -> AttackOutcome:
    """Greedy saliency attack: per iteration one feature pair jumps to a box edge.

    The target class is the runner-up of the network's output at the clean
    input.  Raises ExhaustedFeaturesError (carrying the partial iterate) when
    no admissible pair remains before the input is misclassified.
    """
    x = microgradnet.as_row(net, x)
    cur = x.copy()
    levels = microgradnet.forward_row(net, cur)
    ranked = np.argsort(-levels[-1], kind="stable")
    target = int(ranked[1] if ranked[0] == label else ranked[0])
    iterations = 0
    for _ in range(cfg.max_iters):
        if iterations:  # one forward per iterate serves prediction and Jacobian
            levels = microgradnet.forward_row(net, cur)
        if levels[-1].argmax() != label:
            break
        jac = microgradnet.logit_jacobian_at(net, levels)
        alpha = jac[target]
        beta = jac.sum(axis=0) - alpha
        pair = _best_pair(cur, alpha, beta, cfg)
        if pair is None:
            raise ExhaustedFeaturesError(partial=cur, iterations=iterations)
        p, q, toward_max = pair
        value = cfg.clip_max if toward_max else cfg.clip_min
        cur[p] = value
        cur[q] = value
        iterations += 1
    return _finish(net, x, label, cur, iterations)


# --------------------------------------------------------------------------
# optimizer-based minimum-L2 attack (and its detector-aware variant)


def _lid_value_and_cotangent(a, refs, k):
    """LID of activation ``a`` against reference activations, plus d(lid)/da.

    ``refs`` is (n, d); the k nearest rows are the frozen neighborhood for
    this evaluation.  Returns (None, None) when the neighborhood is
    degenerate (a zero distance), which callers treat as "skip the penalty".
    """
    diff = refs - a
    dist = np.sqrt((diff ** 2).sum(axis=1))
    order = dist.argsort(kind="stable")[:k]
    r = dist[order]
    if r[0] == 0.0 or r[-1] == 0.0:
        return None, None
    s = float(np.log(r / r[-1]).sum())
    if s == 0.0:
        return None, None
    lid = -k / s
    # d(sum log r_i)/da = sum (a - n_i)/r_i^2 ; the r_k term enters k times
    contrib = (a - refs[order]) / (r ** 2)[:, None]
    ds_da = contrib.sum(axis=0) - k * contrib[-1]
    return lid, (k / s ** 2) * ds_da


def _opt_descent(net, x, label, cfg, c, alpha, presoftmax_refs, k, w0):
    """One gradient-descent run at fixed hinge weight c and penalty weight alpha.

    Returns (best, iterations) where best is None or a dict with the winning
    iterate; "winning" means successful with the smallest LID when the
    penalty is active, otherwise the smallest perturbation norm.
    """
    lo, hi = cfg.clip_min, cfg.clip_max
    span = hi - lo
    logits_index = net.depth - 2
    others = np.delete(np.arange(net.output_dim), label)
    w = w0.copy()
    best = None
    for _ in range(cfg.max_iters):
        t = np.tanh(w)
        xt = lo + span * (t + 1.0) / 2.0
        delta = xt - x
        levels = microgradnet.forward_row(net, xt)
        logits = levels[logits_index]
        # the hinge's runner-up: the first largest logit other than label's
        runner = others[logits[others].argmax()]
        margin = float(logits[label] - logits[runner])
        lid = None
        lid_cot = None
        if alpha > 0.0:
            lid, lid_cot = _lid_value_and_cotangent(logits, presoftmax_refs, k)
        if levels[-1].argmax() != label:
            l2 = float(np.linalg.norm(delta))
            # rank successful iterates by the attack objective itself so the
            # penalty-free limit (alpha -> 0) selects exactly like plain opt;
            # iterates whose penalty is unevaluable rank last but still count
            objective = l2 ** 2 + (alpha * lid if lid is not None else 0.0)
            key = (lid is None and alpha > 0.0, objective)
            if best is None or key < best["key"]:
                best = {"key": key, "adversarial": xt, "lid": lid}
        grad_x = 2.0 * delta
        if margin > 0.0 or lid_cot is not None:
            # d(margin)/d(logits) is +1 at label and -1 at the runner-up
            cot = np.zeros(logits.shape[0])
            if margin > 0.0:
                cot[label] = c
                cot[runner] = -c
            if lid_cot is not None:
                cot += alpha * lid_cot
            if cot.any():
                grad_x = grad_x + microgradnet.backprop_row(
                    net, levels, logits_index, cot)
        grad_w = grad_x * span * (1.0 - t ** 2) / 2.0
        w -= cfg.opt_learning_rate * grad_w
    return best, cfg.max_iters


def _opt_attack(net, x, label, cfg, alpha=0.0, presoftmax_refs=None, k=0):
    """Binary search over the hinge weight around repeated descent runs."""
    x = microgradnet.as_row(net, x)
    lo, hi = cfg.clip_min, cfg.clip_max
    u = (np.clip(x, lo, hi) - lo) / (hi - lo)
    u = np.clip(u, 1e-6, 1.0 - 1e-6)
    w0 = np.arctanh(2.0 * u - 1.0)
    w0 = w0 + 1e-6 * np.random.default_rng(cfg.seed).standard_normal(x.shape[0])
    c_lo = 0.0
    c_hi = np.inf
    c = cfg.opt_c_range[0]
    overall = None
    total_iterations = 0
    last_iterate = x
    for _ in range(cfg.opt_binary_search_steps):
        best, used = _opt_descent(net, x, label, cfg, c, alpha,
                                  presoftmax_refs, k, w0)
        total_iterations += used
        if best is not None:
            last_iterate = best["adversarial"]
            if overall is None or best["key"] < overall["key"]:
                overall = best
            c_hi = c
        else:
            c_lo = c
        if np.isinf(c_hi):
            c = min(c * 10.0, cfg.opt_c_range[1])
            if c == c_lo:  # already failing at the top of the range
                break
        else:
            c = (c_lo + c_hi) / 2.0
    if overall is None:
        return _finish(net, x, label, last_iterate, total_iterations)
    return _finish(net, x, label, overall["adversarial"], total_iterations)


def opt_l2(net, x, label: int, cfg: AttackConfig) -> AttackOutcome:
    """Minimum-L2 optimizer attack: minimize ||delta||^2 + c * hinge(margin).

    The iterate lives in tanh-transformed coordinates so it can never leave
    the clip box; c is binary-searched (success lowers it, failure raises it)
    and the smallest-norm successful iterate over all runs is returned.
    """
    return _opt_attack(net, x, label, cfg)


def adaptive_opt_lid(net, x, label: int, refs: Minibatch,
                     cfg: AttackConfig) -> AttackOutcome:
    """Optimizer attack that also minimizes pre-softmax LID against ``refs``.

    The objective gains an alpha-weighted LID term evaluated against the
    reference minibatch's pre-softmax activations, with the k-nearest
    membership re-frozen at every descent step.  alpha is binary-searched in
    log space within adaptive_alpha_range for the largest value that still
    yields a successful attack; at the bottom of the range the penalty
    vanishes and the outcome approaches the plain opt attack's.
    """
    x = np.asarray(x, dtype=float)
    if len(refs) <= cfg.adaptive_k:
        raise ValueError("reference minibatch is smaller than adaptive_k + 1")
    levels = microgradnet.activations_batch(net, refs.vectors)
    presoftmax = levels[net.depth - 2]

    def run(alpha):
        return _opt_attack(net, x, label, cfg, alpha=alpha,
                           presoftmax_refs=presoftmax, k=cfg.adaptive_k)

    a_lo, a_hi = cfg.adaptive_alpha_range
    outcome_lo = run(a_lo)
    iterations = outcome_lo.iterations_used
    if not outcome_lo.success or a_lo == a_hi:
        return AttackOutcome(outcome_lo.adversarial, outcome_lo.success,
                             iterations, outcome_lo.l2_perturbation)
    best = outcome_lo
    out_hi = run(a_hi)
    iterations += out_hi.iterations_used
    if out_hi.success:
        best = out_hi
    else:
        lo, hi = np.log(a_lo), np.log(a_hi)
        for _ in range(cfg.adaptive_alpha_steps):
            mid = np.exp((lo + hi) / 2.0)
            out_mid = run(mid)
            iterations += out_mid.iterations_used
            if out_mid.success:
                best = out_mid
                lo = np.log(mid)
            else:
                hi = np.log(mid)
    return AttackOutcome(best.adversarial, best.success, iterations,
                         best.l2_perturbation)


# --------------------------------------------------------------------------
# dispatch


def run_attack(net, x, label: int, cfg: AttackConfig,
               refs: Minibatch | None = None) -> AttackOutcome:
    """Run the attack named by ``cfg.kind``; adaptive_opt needs ``refs``."""
    if cfg.kind == "fgm":
        return fgm(net, x, label, cfg)
    if cfg.kind == "bim_a":
        return bim_a(net, x, label, cfg)
    if cfg.kind == "bim_b":
        return bim_b(net, x, label, cfg)
    if cfg.kind == "jsma":
        return jsma(net, x, label, cfg)
    if cfg.kind == "opt":
        return opt_l2(net, x, label, cfg)
    if refs is None:
        raise ValueError("adaptive_opt requires a reference minibatch")
    return adaptive_opt_lid(net, x, label, refs, cfg)


def run_attacks(net, xs, labels, cfg: AttackConfig, *,
                refs: Minibatch | None = None, workers: int = 1):
    """``(outcomes, reasons)``: ``run_attack`` on every row, row j seeded at
    ``cfg.seed + j``, on a pool of ``workers`` threads.  A dead end becomes a
    failed outcome with a reason (None elsewhere): "exhausted feature pairs"
    keeps the partial iterate, "zero input gradient" the input."""
    if len(xs) != len(labels):
        raise ShapeError(f"{len(xs)} rows but {len(labels)} labels")

    def one(j):
        x, cfg_j = xs[j], replace(cfg, seed=cfg.seed + j)
        try:
            return run_attack(net, x, int(labels[j]), cfg_j, refs=refs), None
        except ExhaustedFeaturesError as err:
            adv = np.asarray(err.partial, dtype=float)
            return (AttackOutcome(adv, False, err.iterations,
                                  float(np.linalg.norm(adv - x))),
                    "exhausted feature pairs")
        except NoDirectionError:
            return AttackOutcome(x, False, 0, 0.0), "zero input gradient"

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(len(xs))))
    else:
        results = [one(j) for j in range(len(xs))]
    return [r[0] for r in results], [r[1] for r in results]


# --------------------------------------------------------------------------
# magnitude-matched noise


def gaussian_l2_noise(x, magnitude: float, seed: int, *,
                      clip_min: float = 0.0, clip_max: float = 1.0) -> np.ndarray:
    """Random direction scaled to an exact L2 magnitude, then clipped.

    Before clipping the noise norm equals ``magnitude`` to within rounding;
    that equality is asserted here because downstream comparisons rely on it.
    """
    x = np.asarray(x, dtype=float)
    if magnitude <= 0.0:
        raise ValueError("noise magnitude must be positive")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(x.shape[0])
    norm = float(np.linalg.norm(g))
    while norm == 0.0:  # unreachable in practice, but keeps the scaling exact
        g = rng.standard_normal(x.shape[0])
        norm = float(np.linalg.norm(g))
    g *= magnitude / norm
    assert abs(float(np.linalg.norm(g)) - magnitude) <= 1e-9 * max(magnitude, 1.0)
    return np.clip(x + g, clip_min, clip_max)


def minmax_pixel_noise(x, count: int, seed: int, *, clip_min: float = 0.0,
                       clip_max: float = 1.0) -> np.ndarray:
    """Flip ``count`` randomly chosen features to a random box extreme each."""
    x = np.asarray(x, dtype=float)
    if count < 1:
        raise ValueError("need at least one feature to flip")
    count = min(count, x.shape[0])
    rng = np.random.default_rng(seed)
    idx = rng.choice(x.shape[0], size=count, replace=False)
    toward_max = rng.integers(0, 2, size=count).astype(bool)
    noisy = x.copy()
    noisy[idx] = np.where(toward_max, clip_max, clip_min)
    return noisy


# --------------------------------------------------------------------------
# batch output


def save_attack_outcomes(path, member_ids, outcomes, kind: str) -> None:
    """Write one CSV row per outcome: id, kind, success, iterations, L2, features."""
    outcomes = list(outcomes)
    if len(member_ids) != len(outcomes):
        raise ValueError("ids and outcomes do not align")
    if not outcomes:
        raise ValueError("nothing to write")
    width = outcomes[0].adversarial.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "attack_kind", "success", "iterations",
                         "l2_perturbation"] + [f"x_{i}" for i in range(width)])
        for mid, out in zip(member_ids, outcomes):
            writer.writerow([mid, kind, int(out.success), out.iterations_used,
                             repr(out.l2_perturbation)]
                            + [repr(v) for v in out.adversarial.tolist()])
