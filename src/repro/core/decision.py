"""The Decision Maker: choosing the execution model per query.

"Decision maker would decide the solution model to use based on type of
query, historic data and known features of the network at hand."

Policies
--------
* :class:`StaticPolicy` -- always the same plan (the non-adaptive straw
  man every static system embodies).
* :class:`EstimateGreedyPolicy` -- argmin of the *analytic* estimates
  under the query's COST constraint.  Good until reality (contention,
  retransmissions) diverges from the analytic model.
* :class:`LearnedPolicy` -- per-model learners predict the *actual*
  objective from features; ε-greedy exploration; online updates from
  measured outcomes.  This is the paper's proposal.
* :class:`OraclePolicy` -- cheats by peeking at a caller-provided map of
  actual outcomes; used only to compute regret in experiment E4.

The scalar objective blends energy and time on fixed scales (1 mJ and
1 s are "comparable"); a COST clause turns the corresponding metric into
a hard constraint first.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro import checks
from repro.core.features import featurize
from repro.core.learning import KNNRegressor
from repro.queries.ast import Query
from repro.queries.models.base import CostEstimate, ExecutionModel, QueryContext

#: Scales making joules and seconds commensurable in the blended objective.
ENERGY_SCALE_J = 1e-3
TIME_SCALE_S = 1.0


def default_objective(energy_j: float, time_s: float) -> float:
    """The blended cost the Decision Maker minimizes by default."""
    return energy_j / ENERGY_SCALE_J + time_s / TIME_SCALE_S


@dataclasses.dataclass
class Decision:
    """What the Decision Maker chose and why."""

    model: ExecutionModel
    estimate: CostEstimate
    candidates: dict[str, CostEstimate]
    reason: str


class DecisionPolicy:
    """Interface: rank feasible candidates for one query."""

    name = "abstract"

    def choose(
        self,
        query: Query,
        ctx: QueryContext,
        targets: list[int],
        candidates: dict[str, tuple[ExecutionModel, CostEstimate]],
    ) -> str:
        """Return the chosen model name from ``candidates`` (non-empty)."""
        raise NotImplementedError

    def update(
        self,
        query: Query,
        ctx: QueryContext,
        targets: list[int],
        model_name: str,
        estimate: CostEstimate,
        actual_energy_j: float,
        actual_time_s: float,
    ) -> None:
        """Feedback hook; default no-op (static/greedy policies)."""


class StaticPolicy(DecisionPolicy):
    """Always pick ``model_name`` when feasible, else fall back greedily."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        self.name = f"static:{model_name}"

    def choose(self, query, ctx, targets, candidates):
        if self.model_name in candidates:
            return self.model_name
        return min(
            candidates,
            key=lambda n: default_objective(candidates[n][1].energy_j, candidates[n][1].time_s),
        )


class EstimateGreedyPolicy(DecisionPolicy):
    """Argmin of analytic estimates under the COST constraint."""

    name = "estimate-greedy"

    def choose(self, query, ctx, targets, candidates):
        pool = _apply_cost_constraint(query, candidates)
        return min(
            pool,
            key=lambda n: default_objective(pool[n][1].energy_j, pool[n][1].time_s),
        )


class LearnedPolicy(DecisionPolicy):
    """Per-model learned prediction of the actual objective.

    Rather than regressing the absolute objective (whose scale varies by
    orders of magnitude across queries), each model's learner predicts
    the **log bias ratio** ``log(actual / analytic)`` -- how wrong the
    analytic estimate tends to be for this model on queries like this.
    Predictions multiply back into the analytic estimate.  Targets are
    near-constant per model, so a handful of samples already corrects
    systematic bias (contention, retransmissions) without the variance
    of absolute regression.

    Parameters
    ----------
    learner_factory:
        Zero-arg factory building one regressor per model (default
        :class:`~repro.core.learning.KNNRegressor`).
    epsilon / epsilon_decay:
        ε-greedy exploration rate, multiplied by the decay after every
        update (exploration fades as experience accumulates).
    rng:
        Random stream for exploration draws.
    """

    name = "learned"

    def __init__(
        self,
        learner_factory: typing.Callable[[], typing.Any] = KNNRegressor,
        epsilon: float = 0.25,
        epsilon_decay: float = 0.985,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.learner_factory = learner_factory
        self.epsilon = checks.fraction("epsilon", epsilon)
        self.epsilon_decay = checks.fraction("epsilon_decay", epsilon_decay)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._learners: dict[str, typing.Any] = {}
        self.updates = 0

    def _learner(self, model_name: str):
        learner = self._learners.get(model_name)
        if learner is None:
            learner = self.learner_factory()
            self._learners[model_name] = learner
        return learner

    def predicted_objective(self, query, ctx, targets, model_name, estimate) -> float:
        """Bias-corrected analytic objective (raw analytic until warm)."""
        analytic = default_objective(estimate.energy_j, estimate.time_s)
        learner = self._learner(model_name)
        x = featurize(query, ctx, targets, estimate)
        try:
            log_bias = learner.predict(x)
        except RuntimeError:
            return analytic
        return analytic * float(np.exp(np.clip(log_bias, -10.0, 10.0)))

    def choose(self, query, ctx, targets, candidates):
        pool = _apply_cost_constraint(query, candidates)
        names = sorted(pool)
        if len(names) > 1 and float(self.rng.random()) < self.epsilon:
            return names[int(self.rng.integers(len(names)))]
        return min(
            names,
            key=lambda n: self.predicted_objective(query, ctx, targets, n, pool[n][1]),
        )

    def update(self, query, ctx, targets, model_name, estimate,
               actual_energy_j, actual_time_s):
        x = featurize(query, ctx, targets, estimate)
        analytic = max(default_objective(estimate.energy_j, estimate.time_s), 1e-12)
        actual = max(default_objective(actual_energy_j, actual_time_s), 1e-12)
        self._learner(model_name).update(x, float(np.log(actual / analytic)))
        self.updates += 1
        self.epsilon *= self.epsilon_decay


class OraclePolicy(DecisionPolicy):
    """Picks by *actual* outcomes supplied externally (regret baseline).

    ``lookup`` maps model name → actual objective for the current query;
    experiment harnesses that run every model fill it in.
    """

    name = "oracle"

    def __init__(self) -> None:
        self.lookup: dict[str, float] = {}

    def choose(self, query, ctx, targets, candidates):
        pool = _apply_cost_constraint(query, candidates)
        known = {n: self.lookup[n] for n in pool if n in self.lookup}
        if known:
            return min(known, key=known.get)
        return min(
            pool,
            key=lambda n: default_objective(pool[n][1].energy_j, pool[n][1].time_s),
        )


def _apply_cost_constraint(
    query: Query,
    candidates: dict[str, tuple[ExecutionModel, CostEstimate]],
) -> dict[str, tuple[ExecutionModel, CostEstimate]]:
    """Filter to candidates satisfying the COST clause.

    When nothing satisfies it, all candidates are kept (the paper's COST
    is a preference the system honours when it can; refusing to answer
    would be worse).
    """
    if query.cost is None:
        return candidates
    ok = {
        name: pair
        for name, pair in candidates.items()
        if pair[1].metric(query.cost.metric) <= query.cost.limit
    }
    return ok or candidates


class DecisionMaker:
    """Estimates every registered model and delegates the pick to a policy.

    Parameters
    ----------
    models:
        The execution models available.
    policy:
        The selection policy.
    """

    def __init__(self, models: typing.Sequence[ExecutionModel], policy: DecisionPolicy) -> None:
        if not models:
            raise ValueError("need at least one execution model")
        names = [m.name for m in models]
        if len(set(names)) != len(names):
            raise ValueError("duplicate model names")
        self.models = {m.name: m for m in models}
        self.policy = policy
        self.decisions = 0

    def estimates(self, query: Query, ctx: QueryContext, targets: list[int]) -> dict[str, CostEstimate]:
        """Analytic estimates from every model (including infeasible)."""
        return {
            name: (model.estimate(query, ctx, targets) if model.supports(query, ctx)
                   else CostEstimate.INFEASIBLE)
            for name, model in self.models.items()
        }

    def decide(self, query: Query, ctx: QueryContext, targets: list[int]) -> Decision | None:
        """Choose a model for ``query``; None when nothing is feasible."""
        all_est = self.estimates(query, ctx, targets)
        candidates = {
            name: (self.models[name], est)
            for name, est in all_est.items()
            if est.feasible
        }
        if not candidates:
            return None
        chosen = self.policy.choose(query, ctx, targets, candidates)
        self.decisions += 1
        model, estimate = candidates[chosen]
        return Decision(model=model, estimate=estimate, candidates=all_est,
                        reason=self.policy.name)

    def feedback(
        self,
        query: Query,
        ctx: QueryContext,
        targets: list[int],
        decision: Decision,
        actual_energy_j: float,
        actual_time_s: float,
    ) -> None:
        """Report measured outcome back to the policy (adaptivity loop)."""
        self.policy.update(
            query, ctx, targets, decision.model.name, decision.estimate,
            actual_energy_j, actual_time_s,
        )
