"""Dynamic per-workload knob selection (DOT-style active subspaces).

OtterTune's pipeline ranks knobs once per repository version and then
tunes the *full* catalog; DOT ("Dynamic Knob Selection and Online
Sampling for Automated Database Tuning", PAPERS.md) shows that choosing
*which* knobs to tune per workload, online, shrinks the optimizer's
dimensionality and speeds convergence. This module is that selection
tier for the reproduction:

1. **Incremental re-rank.** A :class:`KnobSelector` keeps per-workload
   running moments (``n``, ``Σx``, ``Σxxᵀ``, ``Σxy``, ``Σy``, ``Σy²``)
   accumulated *row-sequentially in arrival order*. On a repository
   version bump it derives the standardised Lasso-path problem straight
   from those moments — an O(Δn·d²) update instead of the O(n·d²) Gram
   rebuild ``lasso_path_ranking`` pays on raw rows — and hands the
   previous fit's path coefficients to
   :func:`~repro.tuners.lasso.lasso_gram_ranking`, which reuses them
   outright whenever the problem bits have not moved (a version bump
   that added no rows for this workload). Cold and warm selectors fold
   the same rows in the same order, so they derive bit-identical
   problems, and the exact Lasso path is a pure function of those bits:
   the warm-started ranking equals a from-scratch ranking bit for bit
   at every version — the property
   ``tests/property/test_knob_selection_properties.py`` pins.
2. **Stable active subspace.** The top-``k`` ranked knobs (minus the
   TDE-automaton-owned ones, see below) form the *candidate* subspace.
   A new candidate set must win ``stability_window`` consecutive
   re-ranks before it replaces the active set, so the subspace cannot
   thrash between windows: over ``R`` re-ranks of one workload at most
   ``1 + R // stability_window`` replacements can happen.
3. **Projection.** The BO/RL tuners project candidate generation,
   budget repair, GP-UCB and the surrogate screen onto the active
   subspace; inactive knobs are carried byte-identically from the
   incumbent configuration (see ``OtterTuneTuner._recommend_projected``
   and :func:`~repro.dbsim.config.fit_values_to_budget_frozen`).

**Automaton ownership.** The TDE's learning automata already tune the
async/planner knobs online (``PlannerThrottleDetector``); those knobs
are excluded from the selector's subspace so the two tiers never fight
over one knob. Importance signals flow the other way too: automaton
throttles reported on tuning requests are recorded via
:meth:`KnobSelector.note_automaton_signal` and surfaced through the
``tuner.subspace`` trace event.

Everything here is deterministic — no RNG at all; a selector is a pure
function of (policy, catalog, sample arrival order). The tier is **off
by default**: with no :class:`SelectionPolicy` wired, no selector is
built and every figure output stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.recording import Recorder
from repro.dbsim.config import KnobConfiguration, fit_values_to_budget_frozen
from repro.dbsim.knobs import KnobCatalog, KnobClass
from repro.tuners.lasso import lasso_gram_ranking

__all__ = [
    "KNOBSELECT_METRIC_FAMILIES",
    "KnobSelector",
    "SelectionPolicy",
    "Subspace",
    "repair_config_frozen",
]

#: Metric family names and help strings for the selection tier, exported
#: through the Prometheus renderer and described up front on trace
#: registries (like the surrogate and safety families) so
#: ``repro trace --metrics`` surfaces them before a sample lands.
KNOBSELECT_METRIC_FAMILIES: dict[str, str] = {
    "repro_knobselect_reranks_total": (
        "Incremental importance re-ranks run after a repository "
        "version bump."
    ),
    "repro_knobselect_reuses_total": (
        "Re-ranks served by the previous fit's path coefficients "
        "(standardised problem unchanged bit-for-bit)."
    ),
    "repro_knobselect_hits_total": (
        "Subspace requests served from the version-keyed cache."
    ),
    "repro_knobselect_updates_total": (
        "Active-subspace replacements committed after the stability "
        "window."
    ),
    "repro_knobselect_holds_total": (
        "Candidate subspace changes held back by the stability window."
    ),
}


@dataclass(frozen=True)
class SelectionPolicy:
    """Tunable thresholds of the dynamic knob-selection tier.

    Parameters
    ----------
    top_k:
        Size of the active subspace: the ``top_k`` knobs by Lasso-path
        entry order (after automaton-owned exclusions) are tuned, the
        rest ride along at the incumbent's values. 8 of the 14-knob
        catalogs keeps >= 0.95 throughput retention on the fixed-arm
        ablation (``repro ablate knobs``) while shrinking every
        downstream matrix.
    stability_window:
        Consecutive re-ranks a *changed* candidate set must win before
        it replaces the active set. 1 adopts immediately; 3 filters the
        rank jitter young repositories show without delaying genuine
        workload shifts by more than three windows.
    min_rank_samples:
        Below this many samples of a workload the selector abstains and
        the caller tunes the full space — path rankings on a handful of
        rows are noise.
    n_alphas:
        Regularisation-path resolution handed to the Lasso solve; same
        default as ``lasso_path_ranking``.
    exclude_automaton_knobs:
        Keep the TDE learning automaton's async/planner knobs out of
        the subspace (they are tuned online by that tier already).
    """

    top_k: int = 8
    stability_window: int = 3
    min_rank_samples: int = 12
    n_alphas: int = 30
    exclude_automaton_knobs: bool = True

    def __post_init__(self) -> None:
        if self.top_k < 2:
            raise ValueError("top_k must be >= 2")
        if self.stability_window < 1:
            raise ValueError("stability_window must be >= 1")
        if self.min_rank_samples < 6:
            raise ValueError("min_rank_samples must be >= 6")
        if self.n_alphas < 2:
            raise ValueError("n_alphas must be >= 2")


@dataclass(frozen=True)
class Subspace:
    """One workload's active subspace at one repository version."""

    workload_id: str
    #: Sorted catalog indices of the knobs the optimizer may move.
    active: tuple[int, ...]
    #: Full importance order from the latest re-rank (catalog indices).
    ranking: tuple[int, ...]
    #: Repository version the ranking was derived at.
    version: int
    #: Whether this re-rank replaced the active set.
    updated: bool


class _RunningStats:
    """Row-sequential sufficient statistics of one workload's samples.

    The standardised Lasso problem needs only first and second moments.
    Accumulating them one row at a time *in arrival order* is the whole
    bit-reproducibility argument: a cold selector fed all rows runs the
    exact float-op sequence a warm selector ran across its increments,
    so both derive bit-identical moments — something ``x.mean(axis=0)``
    (pairwise summation, split-dependent) cannot promise.
    """

    __slots__ = ("n", "sx", "sy", "syy", "sxx", "sxy")

    def __init__(self, d: int) -> None:
        self.n = 0
        self.sx = np.zeros(d)
        self.sy = 0.0
        self.syy = 0.0
        self.sxx = np.zeros((d, d))
        self.sxy = np.zeros(d)

    def absorb(
        self, configs: np.ndarray, objective: np.ndarray, start: int
    ) -> None:
        """Fold rows ``start:`` in, one at a time, in arrival order."""
        for i in range(start, len(objective)):
            row = configs[i]
            target = float(objective[i])
            self.sx += row
            self.sy += target
            self.syy += target * target
            self.sxx += np.multiply.outer(row, row)
            self.sxy += row * target
            self.n += 1

    def standardised_problem(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gram, corr)`` of the standardised design, from moments only.

        Zero-variance columns standardise by 1.0 (mirroring
        ``lasso._standardise``) so they contribute zero rows/columns and
        the solver skips them.
        """
        n = float(self.n)
        mean = self.sx / n
        var = np.maximum(self.sxx.diagonal() / n - mean * mean, 0.0)
        std = np.sqrt(var)
        std = np.where(std > 1e-12, std, 1.0)
        y_mean = self.sy / n
        y_var = max(self.syy / n - y_mean * y_mean, 0.0)
        y_std = math.sqrt(y_var) or 1.0
        gram = (
            self.sxx / n - np.multiply.outer(mean, mean)
        ) / np.multiply.outer(std, std)
        corr = (self.sxy / n - mean * y_mean) / (std * y_std)
        return gram, corr


class _WorkloadState:
    """Selector state for one workload id."""

    __slots__ = (
        "stats",
        "rows_seen",
        "version",
        "subspace",
        "active",
        "pending",
        "pending_count",
        "path",
        "problem",
    )

    def __init__(self, d: int) -> None:
        self.stats = _RunningStats(d)
        self.rows_seen = 0
        self.version = -1
        self.subspace: Subspace | None = None
        self.active: tuple[int, ...] | None = None
        self.pending: tuple[int, ...] | None = None
        self.pending_count = 0
        self.path: np.ndarray | None = None
        self.problem: tuple[np.ndarray, np.ndarray] | None = None


class KnobSelector:
    """Per-workload dynamic active subspaces over a knob catalog.

    One selector lives inside one tuner. :meth:`subspace` serves the
    repository-backed (BO) path, keyed on the repository version so a
    workload re-ranks at most once per version; :meth:`ingest` and
    :meth:`subspace_for` serve the RL path, which has no repository —
    there the version is the selector's own row counter. Both return
    ``None`` (abstain: tune the full space) below
    ``policy.min_rank_samples``.
    """

    def __init__(self, policy: SelectionPolicy, catalog: KnobCatalog) -> None:
        self.policy = policy
        self.catalog = catalog
        self._names: list[str] = catalog.names()
        owned: set[str] = set()
        if policy.exclude_automaton_knobs:
            owned = {
                k.name for k in catalog.by_class(KnobClass.ASYNC_PLANNER)
            }
        self._excluded = frozenset(
            i for i, name in enumerate(self._names) if name in owned
        )
        self._states: dict[str, _WorkloadState] = {}
        #: Automaton throttle counts by knob name (importance signals
        #: flowing in from the TDE tier; see ``note_automaton_signal``).
        self.automaton_signals: dict[str, int] = {}
        self.reranks = 0
        self.reuses = 0
        self.hits = 0
        self.updates = 0
        self.holds = 0

    @property
    def dimension(self) -> int:
        """Full catalog width d."""
        return len(self._names)

    def excluded_knobs(self) -> tuple[str, ...]:
        """Automaton-owned knob names barred from every subspace."""
        return tuple(sorted(self._names[i] for i in self._excluded))

    def note_automaton_signal(self, knob_name: str) -> None:
        """Record a TDE-automaton throttle on *knob_name*.

        The automata own those knobs (they stay excluded from the
        subspace); counting their throttles here keeps the importance
        signal visible to the director tier and the ``tuner.subspace``
        trace event instead of being lost between the two tuning loops.
        """
        self.automaton_signals[knob_name] = (
            self.automaton_signals.get(knob_name, 0) + 1
        )

    def active_knobs(self, workload_id: str) -> tuple[str, ...] | None:
        """Names of the workload's active subspace, or ``None``."""
        state = self._states.get(workload_id)
        if state is None or state.active is None:
            return None
        return tuple(self._names[i] for i in state.active)

    def importance(self, workload_id: str) -> tuple[str, ...] | None:
        """Full knob importance order from the latest re-rank (names)."""
        state = self._states.get(workload_id)
        if state is None or state.subspace is None:
            return None
        return tuple(self._names[i] for i in state.subspace.ranking)

    def mask(self, subspace: Subspace) -> np.ndarray:
        """Boolean ``(d,)`` mask, ``True`` on the active columns."""
        out = np.zeros(self.dimension, dtype=bool)
        out[list(subspace.active)] = True
        return out

    def counters(self) -> tuple[int, int, int, int, int]:
        """Snapshot of (reranks, reuses, hits, updates, holds)."""
        return (
            self.reranks,
            self.reuses,
            self.hits,
            self.updates,
            self.holds,
        )

    def record_deltas(
        self, recorder: Recorder, before: tuple[int, int, int, int, int]
    ) -> None:
        """Mirror counter movement since *before* onto a trace recorder."""
        reranks, reuses, hits, updates, holds = before
        if self.reranks > reranks:
            recorder.inc("repro_knobselect_reranks_total")
        elif self.hits > hits:
            recorder.inc("repro_knobselect_hits_total")
        if self.reuses > reuses:
            recorder.inc("repro_knobselect_reuses_total")
        if self.updates > updates:
            recorder.inc("repro_knobselect_updates_total")
        if self.holds > holds:
            recorder.inc("repro_knobselect_holds_total")

    def subspace(
        self,
        workload_id: str,
        configs: np.ndarray,
        objective: np.ndarray,
        version: int,
    ) -> Subspace | None:
        """Active subspace for a repository dataset at *version*.

        *configs*/*objective* are the workload's full (append-only)
        sample matrices; only rows past the high-water mark are folded
        into the running moments. The result is cached per version, so a
        workload re-ranks at most once per version.
        """
        state = self._state(workload_id)
        if state.subspace is not None and state.version == version:
            self.hits += 1
            return state.subspace
        if state.rows_seen > len(objective):
            # The dataset shrank under us (rebuilt repository): the
            # moments no longer describe it, so restart from row zero.
            state = self._states[workload_id] = _WorkloadState(
                self.dimension
            )
        state.stats.absorb(configs, objective, state.rows_seen)
        state.rows_seen = len(objective)
        return self._refresh(workload_id, state, version)

    def ingest(
        self, workload_id: str, config_vector: np.ndarray, objective: float
    ) -> None:
        """Fold one (normalised vector, objective) sample in.

        The RL tuner's feed: it has no shared repository, so the
        selector keeps its own arrival-ordered moments and uses the row
        count as the version.
        """
        state = self._state(workload_id)
        state.stats.absorb(
            np.asarray(config_vector, dtype=float)[None, :],
            np.array([objective]),
            0,
        )
        state.rows_seen += 1

    def subspace_for(self, workload_id: str) -> Subspace | None:
        """Active subspace over previously :meth:`ingest`-ed samples."""
        state = self._states.get(workload_id)
        if state is None:
            return None
        if (
            state.subspace is not None
            and state.version == state.rows_seen
        ):
            self.hits += 1
            return state.subspace
        return self._refresh(workload_id, state, state.rows_seen)

    def _state(self, workload_id: str) -> _WorkloadState:
        state = self._states.get(workload_id)
        if state is None:
            state = self._states[workload_id] = _WorkloadState(
                self.dimension
            )
        return state

    def _refresh(
        self, workload_id: str, state: _WorkloadState, version: int
    ) -> Subspace | None:
        if state.stats.n < self.policy.min_rank_samples:
            return None
        gram, corr = state.stats.standardised_problem()
        order, path = lasso_gram_ranking(
            gram,
            corr,
            n_alphas=self.policy.n_alphas,
            warm_path=state.path,
            warm_problem=state.problem,
        )
        if path is state.path:
            self.reuses += 1
        state.path = path
        state.problem = (gram, corr)
        self.reranks += 1
        candidate = tuple(
            sorted(
                [j for j in order if j not in self._excluded][
                    : self.policy.top_k
                ]
            )
        )
        updated = self._advance(state, candidate)
        assert state.active is not None
        state.version = version
        state.subspace = Subspace(
            workload_id=workload_id,
            active=state.active,
            ranking=tuple(order),
            version=version,
            updated=updated,
        )
        return state.subspace

    def _advance(
        self, state: _WorkloadState, candidate: tuple[int, ...]
    ) -> bool:
        """Stability-window state machine; ``True`` iff the set changed.

        A changed candidate must win ``stability_window`` *consecutive*
        re-ranks, so between two replacements at least that many
        re-ranks pass: over ``R`` re-ranks a workload sees at most
        ``1 + R // stability_window`` replacements.
        """
        if state.active is None:
            state.active = candidate
            self.updates += 1
            return True
        if candidate == state.active:
            state.pending = None
            state.pending_count = 0
            return False
        if candidate == state.pending:
            state.pending_count += 1
        else:
            state.pending = candidate
            state.pending_count = 1
        if state.pending_count >= self.policy.stability_window:
            state.active = candidate
            state.pending = None
            state.pending_count = 0
            self.updates += 1
            return True
        self.holds += 1
        return False


def repair_config_frozen(
    config: KnobConfiguration,
    incumbent: KnobConfiguration,
    memory_limit_mb: float,
    active_connections: int,
) -> KnobConfiguration:
    """Scalar §4 repair that holds unmoved knobs byte-untouched.

    The projected tuners' repair step: knobs still at *incumbent*'s
    value (the inactive subspace, minus any throttle boosts) are frozen
    — the incumbent already runs inside the budget, so only the knobs
    this recommendation actually moved absorb the shrink. See
    :func:`~repro.dbsim.config.fit_values_to_budget_frozen`.
    """
    catalog = config.catalog
    names = catalog.names()
    values = np.array([[config[name] for name in names]])
    frozen = np.array([config[name] == incumbent[name] for name in names])
    repaired = fit_values_to_budget_frozen(
        values, catalog, memory_limit_mb, frozen, active_connections
    )
    updates = {
        name: float(repaired[0, i])
        for i, name in enumerate(names)
        if repaired[0, i] != values[0, i]
    }
    if not updates:
        return config
    return config.with_values(updates)
