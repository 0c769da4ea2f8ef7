"""Per-pixel leaky integrate-and-fire neuron grids.

Each sensor pixel is wired to exactly one neuron. A neuron accumulates
incoming event weight on its membrane potential V, leaks toward the resting
potential with per-step decay rate beta, and fires when V crosses the
threshold. The discrete update applied by :meth:`NeuronGrid.step` is, in
order:

    V <- beta * (V - v_rest) + v_rest      # leak; the fresh input is NOT decayed
    V <- V + X (+ previous-step spike for the recurrent variant)
    spike where V >= v_th, then reset

``beta = 1 - 1/tau_m`` links the decay rate to the membrane time constant
measured in timesteps. Four variants share this update and differ only in
reset/feedback wiring:

- ``lif``    hard reset to v_rest
- ``reclif`` hard reset; the previous step's output spike (0/1) is added to
             the next step's input
- ``lrlif``  soft reset: v_th is subtracted, keeping the residual charge
- ``plif``   identical forward dynamics to lif; beta is supplied through
             tau_m instead of directly

The default threshold is 1.1 with unit event weights, so a single isolated
event cannot fire a neuron: charge from at least two events must meet on
the membrane before it has fully leaked away. That is the noise filter the
spike-based encoder builds on.

Cost per step: only the leak is dense, O(pixels). A step built by
:meth:`StepInput.from_events` carries one weight per event and its flat
pixel index, and the grid adds those weights to the touched membranes
only. With ``v_rest == 0`` and fewer than one event per 16 pixels, the
threshold test, the reset and the recurrent feedback touch only the
step's input pixels and the previous step's spikers, O(events); other
steps test every membrane. Both ways every neuron follows the update
above exactly.

Accounting: the grid counts one accumulate operation (AC) per event
integrated plus one per recurrent feedback addition actually applied, and
tallies emitted spikes. Both counters are read out by the efficiency and
suppression metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .events import SensorGeometry

SpikeFrame = np.ndarray
"""(H, W) boolean array: True where a neuron fired during a step."""

_NONE_FIRED = np.empty(0, dtype=np.intp)


class NeuronVariant(str, Enum):
    LIF = "lif"
    REC_LIF = "reclif"
    LR_LIF = "lrlif"
    PLIF = "plif"

    @property
    def hard_reset(self) -> bool:
        return self is not NeuronVariant.LR_LIF


@dataclass(frozen=True)
class NeuronConfig:
    """Static parameters of a neuron grid.

    Exactly one of ``beta`` / ``tau_m`` may be given; the other is derived
    through ``beta = 1 - 1/tau_m``. ``weight_pos`` / ``weight_neg`` are the
    membrane increments per positive/negative event (equal by default: the
    binary encoding is polarity-blind).
    """

    variant: NeuronVariant = NeuronVariant.LIF
    beta: float | None = None
    v_th: float = 1.1
    v_rest: float = 0.0
    weight_pos: float = 1.0
    weight_neg: float = 1.0
    tau_m: float | None = None

    def __post_init__(self) -> None:
        beta, tau_m = self.beta, self.tau_m
        if beta is None and tau_m is None:
            raise ValueError("one of beta or tau_m is required")
        if tau_m is not None:
            if tau_m <= 1.0:
                raise ValueError(f"tau_m must exceed 1 timestep, got {tau_m}")
            derived = 1.0 - 1.0 / tau_m
            if beta is None:
                object.__setattr__(self, "beta", derived)
            elif beta != derived:
                raise ValueError(
                    f"beta={beta} inconsistent with tau_m={tau_m} (expected {derived})"
                )
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        for name in ("v_th", "v_rest", "weight_pos", "weight_neg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")
        if self.v_rest >= self.v_th:
            raise ValueError(f"v_rest must be below v_th, got {self.v_rest} >= {self.v_th}")


@dataclass
class StepInput:
    """Accumulated input for one timestep, dense or sparse.

    Dense (``pixels`` is None): ``values`` is the (H, W) sum of event
    weights landing on each pixel during the step. Sparse: ``values[i]`` is
    the weight of one event at flat pixel index ``pixels[i]``
    (``y * width + x``); pixels may repeat and entries keep event order.
    ``event_count`` is how many events the input holds (used for AC
    accounting, one accumulate per event).
    """

    values: np.ndarray
    event_count: int = 0
    pixels: np.ndarray | None = None

    @classmethod
    def zeros(cls, geometry: SensorGeometry) -> "StepInput":
        return cls(np.zeros(geometry.shape, dtype=np.float64), 0)

    @classmethod
    def from_events(
        cls,
        geometry: SensorGeometry,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        config: NeuronConfig,
    ) -> "StepInput":
        """Sparse input: one weight and one flat pixel index per event.

        No pixel-sized work; slicing ``values`` and ``pixels`` over a range
        of events gives the input of those events alone.
        """
        w = np.where(np.asarray(p) > 0, float(config.weight_pos), float(config.weight_neg))
        flat = np.asarray(y, dtype=np.int64) * geometry.width + np.asarray(x, dtype=np.int64)
        return cls(w, len(flat), flat)


class NeuronGrid:
    """H x W grid of independent neurons; a mutable state machine.

    One encoder owns a grid at a time. All updates are vectorized and
    elementwise, so the spike output is independent of pixel iteration
    order by construction.
    """

    def __init__(self, geometry: SensorGeometry, config: NeuronConfig) -> None:
        self.geometry = geometry
        self.config = config
        self.v = np.full(geometry.shape, config.v_rest, dtype=np.float64)
        # Flat indices of the neurons that fired on the last step.
        self.fired = _NONE_FIRED
        # Per-pixel weight sums of a sparse step; all zero between steps.
        self._scratch = np.zeros(geometry.pixel_count, dtype=np.float64)
        self.ac_count = 0
        self.spike_count = 0

    def step(self, inp: StepInput) -> SpikeFrame:
        """Advance every neuron by one timestep; return the spike frame.

        ``fired`` then holds the ascending flat indices (``y * width + x``)
        of the neurons that fired. With a sparse input of fewer than one
        event per 16 pixels and ``v_rest == 0``, the threshold is tested
        only on the input's pixels and, for ``reclif`` and ``lrlif``, on the
        previous step's spikers: the leak then never raises a membrane
        (``beta * v <= max(v, 0)``), so no other neuron can cross. This
        relies on each step leaving every membrane but its spikers' below
        ``v_th``; a membrane written directly at or above ``v_th`` is only
        caught by a step that tests them all.
        """
        pixels = inp.pixels
        if pixels is None and inp.values.shape != self.geometry.shape:
            raise ValueError(
                f"input shape {inp.values.shape} does not match grid {self.geometry.shape}"
            )
        cfg = self.config
        v = self.v.reshape(-1)
        prev = self.fired
        # Below one event per 16 pixels scattered adds beat a full histogram.
        sparse = pixels is not None and 16 * len(pixels) < v.size

        # Leak before integrating: the input arriving in this step is taken
        # at full strength.
        self._leak()
        if pixels is None:
            self.v += inp.values
        elif not sparse:
            v += np.bincount(pixels, inp.values, v.size)
        elif len(pixels):
            self._add_sparse(v, pixels, inp.values)
        self.ac_count += inp.event_count

        if cfg.variant is NeuronVariant.REC_LIF and len(prev):
            v[prev] += 1.0
            self.ac_count += len(prev)

        if sparse and cfg.v_rest == 0.0:
            if cfg.variant in (NeuronVariant.REC_LIF, NeuronVariant.LR_LIF) and len(prev):
                pixels = np.concatenate((pixels, prev))
            fired = pixels[v[pixels] >= cfg.v_th]
            if len(fired) > 1:  # np.unique costs microseconds even on empty arrays
                fired = np.unique(fired)
            spikes = np.zeros(v.size, dtype=np.bool_)
            spikes[fired] = True
        else:
            spikes = v >= cfg.v_th
            fired = np.flatnonzero(spikes)
        if len(fired):
            if cfg.variant.hard_reset:
                v[fired] = cfg.v_rest
            else:
                v[fired] -= cfg.v_th
        self.fired = fired
        self.spike_count += len(fired)
        return spikes.reshape(self.geometry.shape)

    def decay_only(self, steps: int) -> "NeuronGrid":
        """Apply ``steps`` zero-input leak updates without thresholding.

        With v_rest = 0 this multiplies the membrane by beta**steps exactly
        as the closed-form decay law states.
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self._leak()
        return self

    def _add_sparse(self, v: np.ndarray, pixels: np.ndarray, weights: np.ndarray) -> None:
        """Add each touched pixel's weight sum to its flat membrane ``v`` once.

        The sums build up in event order from +0.0, as ``np.bincount``
        would, so the membranes match a dense step bit for bit (an untouched
        membrane skips ``+ 0.0``, which can only flip the sign of a zero).
        """
        scratch = self._scratch
        np.add.at(scratch, pixels, weights)
        v[pixels] += scratch[pixels]
        scratch[pixels] = 0.0

    def _leak(self) -> None:
        """Decay every membrane one step toward v_rest, in place."""
        cfg = self.config
        if cfg.v_rest == 0.0:
            self.v *= cfg.beta
        else:
            self.v -= cfg.v_rest
            self.v *= cfg.beta
            self.v += cfg.v_rest

    def reset(self) -> None:
        """Return every membrane to rest and clear the pending spikers."""
        self.v.fill(self.config.v_rest)
        self.fired = _NONE_FIRED


__all__ = [
    "SpikeFrame",
    "NeuronVariant",
    "NeuronConfig",
    "StepInput",
    "NeuronGrid",
]
