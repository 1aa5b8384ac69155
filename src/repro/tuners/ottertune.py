"""The BO-style tuner (OtterTune-like pipeline, Van Aken et al. 2017).

Pipeline per recommendation:

1. pull the target workload's samples plus the repository;
2. map the target onto its most similar historical workload
   (:mod:`repro.tuners.workload_mapping`);
3. fit a GPR surrogate on the mapped workload's samples concatenated with
   the target's own (target last, so its evidence dominates duplicates);
4. maximise GP-UCB over random candidate configurations plus local
   perturbations of the best seen, honouring the VM memory budget;
5. rank knob importance with a Lasso path for the recommendation report
   (lazily: the path is solved only when ``ranked_knobs`` is read).

Every request rebuilds its training set and refits its GPR: in the
tuning loop a sample upload precedes each request, so fits keyed on the
repository version would never be reused.

The §1 scalability cost is modelled by :meth:`recommendation_cost_s`:
GPR retraining takes ~100–120 s at production sample volumes, so one
deployment saturates at 3–4 serviced instances under 5-minute periodic
tuning — the number Fig. 9 attacks with the TDE.

Model corruption (§2.1, Figs. 12) is emergent: feed low-quality idle
production samples through :meth:`observe` and the surrogate learns a
flat, noisy response surface whose argmax is close to random.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.common.rng import make_rng
from repro.dbsim.config import (
    KnobConfiguration,
    fit_values_to_budget,
    fit_values_to_budget_frozen,
)
from repro.dbsim.knobs import KnobCatalog, KnobClass
from repro.tuners.base import (
    Recommendation,
    TrainingSample,
    Tuner,
    TuningRequest,
    boost_throttled_knobs,
    config_to_vector,
    values_to_vectors,
    vector_to_config,
    vectors_to_values,
)
from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.knob_selection import (
    KnobSelector,
    Subspace,
    repair_config_frozen,
)
from repro.tuners.lasso import lasso_path_ranking
from repro.tuners.repository import WorkloadRepository
from repro.tuners.surrogate import SurrogateScreen
from repro.tuners.workload_mapping import WorkloadMapper

if TYPE_CHECKING:
    from repro.core.features import Features

__all__ = ["OtterTuneTuner"]


class OtterTuneTuner(Tuner):
    """BO-style tuner over a shared workload repository.

    Parameters
    ----------
    catalog:
        Knob catalog of the DBMS flavor being tuned.
    repository:
        Shared :class:`WorkloadRepository`; a private one is created if
        omitted.
    kappa:
        GP-UCB exploration weight. The default is deliberately small —
        against production systems exploration is costly, and Fig. 15
        "minimise[s] this exploration by setting appropriate hyper
        parameters manually" (pass ~0 for that experiment).
    memory_limit_mb / active_connections:
        If given, candidate configurations violating the §4 memory budget
        are filtered out before scoring.
    """

    name = "ottertune"

    def __init__(
        self,
        catalog: KnobCatalog,
        repository: WorkloadRepository | None = None,
        kappa: float = 0.5,
        n_candidates: int = 600,
        max_train_samples: int = 300,
        memory_limit_mb: float | None = None,
        active_connections: int = 20,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if max_train_samples < 3:
            raise ValueError("max_train_samples must be >= 3")
        self.catalog = catalog
        self.repository = repository if repository is not None else WorkloadRepository()
        self.kappa = kappa
        self.n_candidates = n_candidates
        self.max_train_samples = max_train_samples
        self.memory_limit_mb = memory_limit_mb
        self.active_connections = active_connections
        self._rng = make_rng(seed)
        self._mapper = WorkloadMapper(self.repository)
        self._last_train_size = 0
        self.last_mapping_id: str | None = None
        # Opt-in tiers, armed through configure(): off by default.
        self._screen: SurrogateScreen | None = None
        self._selector: KnobSelector | None = None

    @property
    def surrogate_screen(self) -> SurrogateScreen | None:
        """The active screen, for stats inspection (``None`` when off)."""
        return self._screen

    @property
    def knob_selector(self) -> KnobSelector | None:
        """The active selector, for stats inspection (``None`` when off)."""
        return self._selector

    def configure(self, features: Features) -> None:
        """Adopt the surrogate screen and knob selection *features* arms.

        With the screen, raw candidates are shortlisted by a coreset-GP
        surrogate and budget repair plus exact GP-UCB run only on the
        shortlist. With selection, a per-workload active subspace is
        derived and candidate generation, repair, GP-UCB and the screen
        all run inside it, inactive knobs carried byte-identically from
        the incumbent configuration.
        """
        self._screen = (
            SurrogateScreen(features.surrogate) if features.surrogate else None
        )
        self._selector = (
            KnobSelector(features.selection, self.catalog)
            if features.selection
            else None
        )

    # -- Tuner interface ---------------------------------------------------------

    def observe(self, sample: TrainingSample) -> None:
        """Store one sample in the shared repository."""
        self.repository.add(sample)

    def recommend(self, request: TuningRequest) -> Recommendation:
        """GP-UCB recommendation for *request* (see module docstring)."""
        x, y = self._training_set(request)
        self._last_train_size = len(y)
        if len(y) < 3:
            # Cold start: no usable history; nudge defaults randomly.
            vector = np.clip(
                config_to_vector(request.config)
                + self._rng.normal(0.0, 0.1, size=len(self.catalog)),
                0.0,
                1.0,
            )
            config = self._repair(vector_to_config(vector, self.catalog))
            return Recommendation(
                request.instance_id, config, self.name, expected_improvement=0.0
            )
        sub = None if self._selector is None else self._subspace(request)
        # One fit per request, over the knobs this request tunes.
        gpr = GaussianProcessRegressor(length_scale=0.4, noise_variance=0.05).fit(
            x if sub is None else x[:, list(sub.active)], y
        )
        if sub is not None:
            return self._recommend_projected(request, sub, gpr, x, y)
        # Repair happens *before* GP-UCB scoring so the surrogate is asked
        # about configurations that can actually be deployed; otherwise a
        # budget filter would reject nearly all of the uniform samples
        # (working areas multiply per session).
        candidates = self._repair_candidates(
            self._shortlisted(request, gpr, x, y, self._raw_candidates(x, y))
        )
        scores = gpr.ucb(candidates, kappa=self.kappa)
        self.recorder.event(
            "tuner.surrogate",
            instance=request.instance_id,
            source=self.name,
            train_samples=len(y),
            candidates=len(candidates),
        )
        best = int(np.argmax(scores))
        config = vector_to_config(candidates[best], self.catalog)
        config = self._repair(boost_throttled_knobs(config, request))
        best_mean = float(gpr.predict(candidates[best][None, :])[0])
        current_pred = float(gpr.predict(config_to_vector(request.config)[None, :])[0])
        return Recommendation(
            instance_id=request.instance_id,
            config=config,
            source=self.name,
            # Posterior-mean difference: the UCB's exploration bonus is a
            # selection criterion, not an improvement estimate.
            expected_improvement=best_mean - current_pred,
            ranked_knobs=partial(self.ranked_knobs, x, y),
        )

    def recommendation_cost_s(self) -> float:
        """GPR retrain + candidate scoring wall-clock model (§1).

        Calibrated so ~2000 repository samples cost ≈ 110 s of training
        and ≈ 200 s end-to-end, the numbers the paper reports.
        """
        n = max(self.repository.total_samples(), self._last_train_size)
        train_s = 110.0 * (n / 2000.0) ** 1.5
        scoring_s = 90.0 * (n / 2000.0)
        if self._screen is not None:
            # The screen hands exact scoring only the shortlist; model the
            # scoring term shrinking by the same fraction (training cost
            # is unchanged — the GPR still refits on every request).
            total = self.n_candidates + self.n_candidates // 5
            scoring_s *= min(
                1.0, self._screen.policy.shortlist_size / max(total, 1)
            )
        return 2.0 + train_s + scoring_s

    # -- pipeline pieces -----------------------------------------------------------

    def _training_set(self, request: TuningRequest) -> tuple[np.ndarray, np.ndarray]:
        """Mapped + target samples, objectives standardised per source.

        Different sources observe the same configurations under different
        offered loads (an offline stress session vs a live system), so raw
        throughputs are not comparable across sources; each source's
        objective is z-scored independently — what matters for the
        surrogate is each source's *ranking* of configurations.
        """
        target = self.repository.dataset(request.workload_id)
        mapping = self._mapper.map_workload(request.workload_id)
        self.last_mapping_id = mapping.best_workload_id

        def standardise(y: np.ndarray) -> np.ndarray:
            std = float(np.std(y))
            return (y - float(np.mean(y))) / std if std > 1e-12 else y - float(np.mean(y))

        parts_x: list[np.ndarray] = []
        parts_y: list[np.ndarray] = []
        if mapping.mapped:
            mapped = self.repository.dataset(mapping.best_workload_id)
            if mapped.size:
                parts_x.append(mapped.configs)
                parts_y.append(standardise(mapped.objective))
        if target.size:
            parts_x.append(target.configs)
            parts_y.append(standardise(target.objective))
        if not parts_x:
            return np.empty((0, len(self.catalog))), np.empty(0)
        x = np.vstack(parts_x)
        y = np.concatenate(parts_y)
        # Exact GPR is cubic in the sample count; cap the training set at
        # the most recent rows (target samples come last and survive
        # preferentially), as a deployed tuner must.
        if len(y) > self.max_train_samples:
            x = x[-self.max_train_samples :]
            y = y[-self.max_train_samples :]
        return x, y

    def _raw_candidates(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Unrepaired candidate matrix in normalised [0, 1]^d space."""
        d = len(self.catalog)
        n_random = self.n_candidates
        random_part = self._rng.uniform(0.0, 1.0, size=(n_random, d))
        best_seen = x[int(np.argmax(y))]
        local_part = np.clip(
            best_seen + self._rng.normal(0.0, 0.08, size=(n_random // 5, d)),
            0.0,
            1.0,
        )
        return np.vstack([random_part, local_part])

    def _repair_candidates(self, candidates: np.ndarray) -> np.ndarray:
        """Batched §4 budget repair of a normalised candidate matrix."""
        if self.memory_limit_mb is None:
            return candidates
        # One batched unit->value->repair->unit round trip over the whole
        # candidate matrix; KnobConfiguration objects are materialised only
        # for the winning candidate back in :meth:`recommend`.
        values = vectors_to_values(candidates, self.catalog)
        repaired = fit_values_to_budget(
            values,
            self.catalog,
            self.memory_limit_mb,
            self.active_connections,
        )
        return values_to_vectors(repaired, self.catalog)

    def _shortlisted(
        self,
        request: TuningRequest,
        gpr: GaussianProcessRegressor,
        x: np.ndarray,
        y: np.ndarray,
        raw: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        """The rows of *raw* the surrogate screen keeps; all when off or abstaining.

        The screen scores the *unrepaired* matrix (on the *active*
        columns, if given): repairing 16 survivors instead of 720
        candidates is most of its win. It draws no randomness, so
        ``self._rng`` advances exactly as with the screen off.
        """
        if self._screen is None:
            return raw
        cols = slice(None) if active is None else active
        keep = self._screen.shortlist(raw[:, cols], gpr, x[:, cols], y, self.kappa)
        if keep is None:
            return raw
        self.recorder.inc("repro_surrogate_shortlists_total")
        self.recorder.event(
            "tuner.shortlist",
            instance=request.instance_id,
            source=self.name,
            candidates=len(raw),
            shortlist=len(keep),
        )
        return raw[keep]

    # -- projected (dynamic knob selection) path ---------------------------------

    def _subspace(self, request: TuningRequest) -> Subspace | None:
        """The workload's active subspace, or ``None`` to tune all knobs.

        ``None`` means the selector abstains (young workload) and the
        exact full-space path runs. No RNG is drawn here, so an
        abstaining selector leaves the stream exactly where the
        full-space expressions expect it.
        """
        selector = self._selector
        assert selector is not None
        if request.throttle_class == KnobClass.ASYNC_PLANNER.value:
            # The TDE's learning automata own these knobs; their
            # throttles are the importance signal shared with this tier.
            for knob_name in request.throttle_knobs:
                selector.note_automaton_signal(knob_name)
        dataset = self.repository.dataset(request.workload_id)
        before = selector.counters()
        version = self.repository.version
        sub = selector.subspace(
            request.workload_id, dataset.configs, dataset.objective, version
        )
        if sub is not None:
            selector.record_deltas(self.recorder, before)
        return sub

    def _recommend_projected(
        self,
        request: TuningRequest,
        sub: Subspace,
        gpr: GaussianProcessRegressor,
        x: np.ndarray,
        y: np.ndarray,
    ) -> Recommendation:
        """Recommendation inside the workload's active subspace *sub*.

        *gpr* is fitted on the active columns of *x*; inactive knobs are
        carried from the incumbent configuration.
        """
        selector = self._selector
        assert selector is not None
        active = np.fromiter(sub.active, dtype=np.intp)
        names = self.catalog.names()
        incumbent = config_to_vector(request.config)
        raw = self._shortlisted(
            request,
            gpr,
            x,
            y,
            self._raw_candidates_projected(x, y, incumbent, active),
            active,
        )
        candidates = self._repair_candidates_frozen(raw, active)
        scores = gpr.ucb(candidates[:, active], kappa=self.kappa)
        self.recorder.event(
            "tuner.surrogate",
            instance=request.instance_id,
            source=self.name,
            train_samples=len(y),
            candidates=len(candidates),
        )
        self.recorder.event(
            "tuner.subspace",
            instance=request.instance_id,
            source=self.name,
            workload=request.workload_id,
            active=len(sub.active),
            total=len(names),
            version=sub.version,
            updated=sub.updated,
            automaton_signals=sum(selector.automaton_signals.values()),
        )
        best = int(np.argmax(scores))
        winner = vector_to_config(candidates[best], self.catalog)
        # Only the active knobs move; inactive knobs keep the incumbent's
        # float values bit-for-bit (they are never run through the
        # unit-vector round trip).
        config = request.config.with_values(
            {names[i]: winner[names[i]] for i in sub.active}
        )
        config = boost_throttled_knobs(config, request)
        if self.memory_limit_mb is not None:
            config = repair_config_frozen(
                config,
                request.config,
                self.memory_limit_mb,
                self.active_connections,
            )
        best_mean = float(gpr.predict(candidates[best, active][None, :])[0])
        current_pred = float(gpr.predict(incumbent[active][None, :])[0])
        ranking = selector.importance(request.workload_id) or ()
        return Recommendation(
            instance_id=request.instance_id,
            config=config,
            source=self.name,
            expected_improvement=best_mean - current_pred,
            ranked_knobs=list(ranking),
        )

    def _raw_candidates_projected(
        self,
        x: np.ndarray,
        y: np.ndarray,
        incumbent: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Full-width candidates that vary only on the active columns.

        RNG draws are sized by the subspace (``(n, k)`` instead of
        ``(n, d)``), so flag-on runs are a pure function of (seed,
        policy) — byte-reproducible across runs, though deliberately not
        stream-compatible with the full-space path. Inactive columns are
        the incumbent's coordinates.
        """
        k = len(active)
        n_random = self.n_candidates
        random_part = self._rng.uniform(0.0, 1.0, size=(n_random, k))
        best_seen = x[int(np.argmax(y))]
        local_part = np.clip(
            best_seen[active]
            + self._rng.normal(0.0, 0.08, size=(n_random // 5, k)),
            0.0,
            1.0,
        )
        raw_k = np.vstack([random_part, local_part])
        raw = np.tile(incumbent, (len(raw_k), 1))
        raw[:, active] = raw_k
        return raw

    def _repair_candidates_frozen(
        self, candidates: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """§4 budget repair that moves only the active columns."""
        if self.memory_limit_mb is None:
            return candidates
        frozen = np.ones(len(self.catalog), dtype=bool)
        frozen[active] = False
        values = vectors_to_values(candidates, self.catalog)
        repaired = fit_values_to_budget_frozen(
            values,
            self.catalog,
            self.memory_limit_mb,
            frozen,
            self.active_connections,
        )
        return values_to_vectors(repaired, self.catalog)

    def _repair(self, config: KnobConfiguration) -> KnobConfiguration:
        if self.memory_limit_mb is None:
            return config
        return config.fitted_to_budget(
            self.memory_limit_mb, self.active_connections
        )

    def ranked_knobs(self, x: np.ndarray, y: np.ndarray) -> list[str]:
        """Knob names ranked by Lasso-path importance on (*x*, *y*)."""
        if len(y) < 5:
            return []
        order = lasso_path_ranking(x, y)
        names = self.catalog.names()
        return [names[i] for i in order]
