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

Cost per step: the input term is O(events in the step). A step built by
:meth:`StepInput.from_events` carries one weight per event and its flat
pixel index, and the grid adds those weights to the touched membranes
only. The leak, the threshold test and the reset stay dense, O(pixels),
so every neuron is updated every step exactly as written above.

Accounting: the grid counts one accumulate operation (AC) per event
integrated plus one per recurrent feedback addition actually applied, and
tallies emitted spikes. Both counters are read out by the efficiency and
suppression metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .events import SensorGeometry

SpikeFrame = np.ndarray
"""(H, W) boolean array: True where a neuron fired during a step."""


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
        self._feedback = np.zeros(geometry.shape, dtype=np.float64)
        # Per-pixel weight sums of a sparse step; all zero between steps.
        self._scratch = np.zeros(geometry.pixel_count, dtype=np.float64)
        self.ac_count = 0
        self.spike_count = 0

    def step(self, inp: StepInput) -> SpikeFrame:
        """Advance every neuron by one timestep; return the spike frame."""
        if inp.pixels is None and inp.values.shape != self.geometry.shape:
            raise ValueError(
                f"input shape {inp.values.shape} does not match grid {self.geometry.shape}"
            )
        cfg = self.config
        v = self.v

        # Leak before integrating: the input arriving in this step is taken
        # at full strength.
        self._leak()
        if inp.pixels is None:
            v += inp.values
        elif len(inp.pixels):
            self._add_sparse(inp.pixels, inp.values)
        self.ac_count += inp.event_count

        if cfg.variant is NeuronVariant.REC_LIF:
            applied = int(np.count_nonzero(self._feedback))
            if applied:
                v += self._feedback
                self.ac_count += applied

        spikes = v >= cfg.v_th
        fired = int(np.count_nonzero(spikes))
        if fired:
            if cfg.variant.hard_reset:
                v[spikes] = cfg.v_rest
            else:
                v[spikes] -= cfg.v_th

        if cfg.variant is NeuronVariant.REC_LIF:
            self._feedback = spikes.astype(np.float64)

        self.spike_count += fired
        return spikes

    def spike_window(self, micro_inputs: Iterable[StepInput] | Sequence[StepInput]) -> SpikeFrame:
        """Run one step per micro input and OR the spike frames together.

        The OR is what turns a slice's spike activity into a single binary
        digit: the digit is 1 iff the neuron fired at least once during the
        slice.
        """
        combined: SpikeFrame | None = None
        for inp in micro_inputs:
            s = self.step(inp)
            if combined is None:
                combined = s
            else:
                combined |= s
        if combined is None:
            raise ValueError("spike_window requires at least one micro input")
        return combined

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

    def _add_sparse(self, pixels: np.ndarray, weights: np.ndarray) -> None:
        """Add each touched pixel's weight sum to its membrane once.

        The sums build up in event order from +0.0, as ``np.bincount``
        would, so the membranes match a dense step bit for bit (an untouched
        membrane skips ``+ 0.0``, which can only flip the sign of a zero).
        With at least one event per 16 pixels a full histogram is cheaper
        than scattered adds, and it is still O(events).
        """
        scratch = self._scratch
        if 16 * len(pixels) >= scratch.size:
            self.v += np.bincount(pixels, weights, scratch.size).reshape(self.v.shape)
            return
        np.add.at(scratch, pixels, weights)
        flat_v = self.v.reshape(-1)
        flat_v[pixels] += scratch[pixels]
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
        """Return every membrane to rest and clear pending feedback."""
        self.v.fill(self.config.v_rest)
        self._feedback.fill(0.0)

    def clear_counters(self) -> None:
        """Zero the AC and spike tallies (state is left untouched)."""
        self.ac_count = 0
        self.spike_count = 0


__all__ = [
    "SpikeFrame",
    "NeuronVariant",
    "NeuronConfig",
    "StepInput",
    "NeuronGrid",
]
