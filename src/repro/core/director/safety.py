"""SafetyGovernor: safe online tuning (OnlineTune-style) for the director.

Production tuners cannot treat every recommendation as trusted: a
mis-trained surrogate (or an adversarial tuner — see
:mod:`repro.faults`) can emit a configuration that tanks the master the
moment the DFA promotes it. Following "Towards Dynamic and Safe
Configuration Tuning for Cloud Databases" (OnlineTune), the governor
constrains online tuning three ways:

1. **Safe-region bounding** — every candidate's distance from the
   incumbent configuration, measured in the tuners' normalised
   ``[0, 1]^d`` knob space (:func:`~repro.tuners.base.config_to_vector`),
   is clamped to a per-move *step budget*. An oversized jump is cut to a
   step along the same direction; the remainder waits for later moves
   (the tuner re-recommends from the new incumbent), so a pathological
   recommendation degrades into a sequence of small, observable,
   revertable steps.
2. **Canary-on-slave** — the bounded candidate is not promoted blind:
   the DFA's slave-first protocol (§4) gains a canary phase that
   replays the window's workload on one slave under the candidate and
   only proceeds if throughput clears a regression threshold (see
   :class:`~repro.core.apply.dfa.CanaryContext`).
3. **Auto-revert** — after master promotion the governor watches the
   next windows; an observed regression below its rolling
   *anchor* (best recently observed throughput, decayed so the bar
   tracks workload drift) restores the anchor's configuration — the
   empirical last-known-good — records a :class:`SafetyIncident`, and
   quarantines the reverted config so the reconciler does not
   immediately re-apply it from persistence.

Everything is deterministic: the governor draws no randomness, keeps no
wall-clock state, and with no governor wired (the default) every output
of the service is byte-identical to the ungoverned build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.recording import NULL_RECORDER, Recorder
from repro.core.director.config_repository import ConfigRepository
from repro.dbsim.config import KnobConfiguration
from repro.tuners.base import config_to_vector, vector_to_config

__all__ = [
    "REVERT_SOURCE",
    "SAFETY_METRIC_FAMILIES",
    "GovernorPolicy",
    "BoundedMove",
    "SafetyIncident",
    "RevertDecision",
    "SafetyGovernor",
]

#: Source tag on configurations the governor stores after an auto-revert
#: (the director's last-known-good fallback then serves the restored
#: config, not the reverted one).
REVERT_SOURCE = "governor-revert"

#: The governor's metric family names and help strings, exported through
#: the Prometheus renderer and described up front on trace registries so
#: ``repro trace --metrics`` surfaces them even before a sample lands.
SAFETY_METRIC_FAMILIES: dict[str, str] = {
    "repro_safety_violations_total": (
        "Recommendations that exceeded the governor step budget and were "
        "clamped to the safe region."
    ),
    "repro_canary_rejections_total": (
        "Candidate configs rejected by the canary-slave evaluation."
    ),
    "repro_reverts_total": (
        "Master configs auto-reverted after an observed regression."
    ),
}

#: Deltas below this (normalised knob units) count as "unchanged": they
#: are float round-trip noise, not real moves, and are never rewritten.
_EPSILON = 1e-9


@dataclass(frozen=True)
class GovernorPolicy:
    """Tunable thresholds of the safety governor.

    Parameters
    ----------
    step_budget:
        Maximum per-move L-inf distance from the incumbent in normalised
        knob space. Oversized candidates are cut to this budget.
    canary_threshold:
        The canary slave must achieve at least this fraction of its
        incumbent-config throughput for the candidate to be promoted.
    revert_threshold:
        Observed master throughput below this fraction of the rolling
        anchor triggers an auto-revert while a promotion is under watch.
    watch_windows:
        Monitoring windows a promoted config stays under watch.
    quarantine_s:
        Simulated seconds a reverted config stays quarantined: while
        fresh, reconciliation consults the incident log and restores the
        incident's replacement instead of re-applying the reverted one.
    anchor_decay:
        Per-window decay of the throughput anchor, so the revert bar
        tracks genuine workload drift instead of a stale historic peak.
    """

    step_budget: float = 0.2
    canary_threshold: float = 0.85
    revert_threshold: float = 0.9
    watch_windows: int = 2
    quarantine_s: float = 1800.0
    anchor_decay: float = 0.998

    def __post_init__(self) -> None:
        if not 0.0 < self.step_budget <= 1.0:
            raise ValueError("step_budget must be in (0, 1]")
        if not 0.0 < self.canary_threshold <= 1.0:
            raise ValueError("canary_threshold must be in (0, 1]")
        if not 0.0 < self.revert_threshold <= 1.0:
            raise ValueError("revert_threshold must be in (0, 1]")
        if self.watch_windows < 1:
            raise ValueError("watch_windows must be >= 1")
        if self.quarantine_s <= 0:
            raise ValueError("quarantine_s must be positive")
        if not 0.0 < self.anchor_decay <= 1.0:
            raise ValueError("anchor_decay must be in (0, 1]")


@dataclass(frozen=True)
class BoundedMove:
    """Result of bounding one candidate to the safe region."""

    config: KnobConfiguration
    #: Whether the candidate exceeded the budget and was cut.
    clamped: bool
    #: The candidate's original L-inf distance from the incumbent.
    distance: float


@dataclass(frozen=True)
class SafetyIncident:
    """One auto-revert: what was reverted and what was restored, when."""

    instance_id: str
    time_s: float
    reverted_config: KnobConfiguration
    restored_config: KnobConfiguration


@dataclass(frozen=True)
class RevertDecision:
    """The governor's instruction to restore a last-known-good config."""

    config: KnobConfiguration


@dataclass
class _InstanceState:
    """Per-instance watch state; all simulated-time, no wall clock."""

    anchor_tps: float = 0.0
    anchor_config: KnobConfiguration | None = None
    watching: bool = False
    watched_windows: int = 0


class SafetyGovernor:
    """Bounds, watches and reverts online configuration moves.

    Parameters
    ----------
    configs:
        The director's :class:`ConfigRepository`; restored configs are
        stored here under :data:`REVERT_SOURCE` so the last-known-good
        fallback path serves them.
    policy:
        Thresholds (default :class:`GovernorPolicy`).
    recorder:
        Observability seam: clamps and reverts emit events and count
        into the :data:`SAFETY_METRIC_FAMILIES` counters.
    """

    def __init__(
        self,
        configs: ConfigRepository,
        policy: GovernorPolicy | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.configs = configs
        self.policy = policy if policy is not None else GovernorPolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.clamps = 0
        self.canary_rejections = 0
        self.reverts = 0
        self.incidents: list[SafetyIncident] = []
        self._states: dict[str, _InstanceState] = {}

    # -- safe-region bounding ---------------------------------------------------

    def bound(
        self,
        instance_id: str,
        incumbent: KnobConfiguration,
        candidate: KnobConfiguration,
        now_s: float,
    ) -> BoundedMove:
        """Clamp *candidate* to the step budget around *incumbent*.

        Distance is L-inf in the normalised knob space, so one knob
        jumping across its whole range is as violating as all of them
        doing so. An oversized move is scaled along its own direction to
        land exactly on the budget; knobs the candidate did not change
        are carried over untouched (no float round-trip noise).
        """
        budget = self.policy.step_budget
        incumbent_vec = config_to_vector(incumbent)
        delta = config_to_vector(candidate) - incumbent_vec
        distance = float(np.max(np.abs(delta))) if delta.size else 0.0
        if distance <= budget + _EPSILON:
            return BoundedMove(candidate, clamped=False, distance=distance)
        scale = budget / distance
        raw = vector_to_config(incumbent_vec + delta * scale, incumbent.catalog)
        updates = {
            knob.name: raw[knob.name]
            for i, knob in enumerate(incumbent.catalog)
            if abs(delta[i]) > _EPSILON
        }
        bounded = incumbent.with_values(updates)
        self.clamps += 1
        self.recorder.event(
            "governor.clamp",
            instance=instance_id,
            distance=distance,
            # Budget-sized moves the full candidate decomposes into.
            stages=int(math.ceil(distance / budget)),
        )
        self.recorder.inc(
            "repro_safety_violations_total", instance=instance_id
        )
        return BoundedMove(bounded, clamped=True, distance=distance)

    # -- promotion watch + auto-revert -------------------------------------------

    def note_promotion(self, instance_id: str) -> None:
        """A candidate landed on the master: watch the next windows."""
        state = self._state(instance_id)
        state.watching = True
        state.watched_windows = 0

    def note_canary_rejection(self, instance_id: str) -> None:
        """Bookkeeping hook: the DFA's canary rejected a candidate."""
        self.canary_rejections += 1

    def revert_failed(self, instance_id: str) -> None:
        """A revert apply did not land: keep the instance under watch."""
        state = self._state(instance_id)
        state.watching = True
        state.watched_windows = 0

    def observe_window(
        self,
        instance_id: str,
        master_config: KnobConfiguration,
        throughput: float,
        now_s: float,
    ) -> RevertDecision | None:
        """Feed one window's observed throughput; maybe order a revert.

        Call once per monitoring window *before* the window's tuning
        decision, with the throughput achieved under *master_config*.
        Returns a :class:`RevertDecision` when a watched promotion
        regressed below ``revert_threshold`` of the rolling anchor —
        the caller applies ``decision.config`` (and reports back via
        :meth:`revert_failed` if that apply fails).
        """
        state = self._state(instance_id)
        decision: RevertDecision | None = None
        if state.watching:
            anchor_config = state.anchor_config
            if (
                anchor_config is not None
                and throughput
                < self.policy.revert_threshold * state.anchor_tps
            ):
                self.incidents.append(
                    SafetyIncident(
                        instance_id=instance_id,
                        time_s=now_s,
                        reverted_config=master_config,
                        restored_config=anchor_config,
                    )
                )
                self.reverts += 1
                self.configs.store(
                    instance_id, anchor_config, REVERT_SOURCE, now_s
                )
                self.recorder.event(
                    "governor.revert",
                    instance=instance_id,
                    observed_tps=throughput,
                    anchor_tps=state.anchor_tps,
                )
                self.recorder.inc(
                    "repro_reverts_total", instance=instance_id
                )
                state.watching = False
                state.watched_windows = 0
                decision = RevertDecision(config=anchor_config)
            else:
                state.watched_windows += 1
                if state.watched_windows >= self.policy.watch_windows:
                    self.recorder.event(
                        "governor.accept", instance=instance_id
                    )
                    state.watching = False
                    state.watched_windows = 0
        # Rolling anchor: the best recently observed throughput, decayed
        # per window; the config that set the watermark is the empirical
        # last-known-good a revert restores.
        decayed = state.anchor_tps * self.policy.anchor_decay
        if throughput >= decayed or state.anchor_config is None:
            state.anchor_tps = throughput
            state.anchor_config = master_config
        else:
            state.anchor_tps = decayed
        return decision

    # -- incident log / quarantine -------------------------------------------------

    def quarantined_replacement(
        self, instance_id: str, config: KnobConfiguration, now_s: float
    ) -> KnobConfiguration | None:
        """The restored config to use instead of quarantined *config*.

        Consulted by the reconciler before restoring from persistence: a
        config reverted within the last ``quarantine_s`` simulated
        seconds must not be re-applied, so the incident's restored
        config is handed back as the replacement. ``None`` means
        *config* is not under quarantine.
        """
        for incident in reversed(self.incidents):
            if incident.instance_id != instance_id:
                continue
            if now_s - incident.time_s > self.policy.quarantine_s:
                continue
            if incident.reverted_config == config:
                return incident.restored_config
        return None

    def _state(self, instance_id: str) -> _InstanceState:
        state = self._states.get(instance_id)
        if state is None:
            state = _InstanceState()
            self._states[instance_id] = state
        return state
