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

Cost per step: a step built by :meth:`StepInput.from_events` carries one
weight per event and its flat pixel index. With ``v_rest == 0`` and
fewer than one event per 16 pixels, the grid adds those weights to the
touched membranes only, and the threshold test, the reset and the
recurrent feedback touch only the step's input pixels and the previous
step's spikers; other steps histogram the weights and test every
membrane. The leak is dense, O(pixels), unless moreover ``beta = 2**-m``
(the default 0.5 included) and the step holds fewer than one event per
128 pixels beyond the first 65 536, as at 1280x720 with a few thousand
events: then each touched membrane is caught up on its idle steps at
once, and the whole step is O(events). Either way every neuron follows
the update above exactly. The spike frame a step returns is one reused
buffer, valid until the next step.

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

from .events import SensorGeometry, sorted_unique

SpikeFrame = np.ndarray
"""(H, W) boolean array: True where a neuron fired during a step.

``NeuronGrid.step`` returns a read-only view that the next step reuses."""

_NONE_FIRED = np.empty(0, dtype=np.intp)

_SMALLEST_NORMAL = 2.0**-1022
# Rounded multiplies by beta <= 1/2 that take any float below 2**-1022 to
# zero: it is at most 2**52 units of 2**-1074 after the first, and each
# further one halves it or more, rounding to even.
_ZERO_AFTER = 64
# Leak steps after which every finite membrane is zero: at most 2045 exact
# ones, then _ZERO_AFTER rounded ones.
_GAP_CAP = 2045 + _ZERO_AFTER
# The lazy clock restarts from 0 here, so int32 clock values never overflow.
_CLOCK_LIMIT = 2**31 - 1 - _GAP_CAP

# A step goes lazy below one event per _LAZY_PIXELS_PER_EVENT pixels beyond
# _LAZY_MIN_PIXELS (see NeuronGrid.step).
_LAZY_MIN_PIXELS = 65536
_LAZY_PIXELS_PER_EVENT = 128


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

    With ``v_rest == 0`` and ``beta = 2**-m`` the leak is lazy on steps
    with few events: the grid keeps a step clock and, per neuron, the step
    its membrane was last brought up to date, and a step updates only the
    neurons it touches. Reading :attr:`v` brings every membrane up to
    date first, so reads and writes through ``grid.v`` see the dense
    chain; read it anew after each step.
    """

    def __init__(self, geometry: SensorGeometry, config: NeuronConfig) -> None:
        self.geometry = geometry
        self.config = config
        n = geometry.pixel_count
        self._v = np.full(n, config.v_rest, dtype=np.float64)
        # Flat indices of the neurons that fired on the last step.
        self.fired = _NONE_FIRED
        # Per-pixel weight sums of a sparse step; all zero between steps.
        self._scratch = np.zeros(n, dtype=np.float64)
        # The spike frame step returns: True exactly at ``fired``.
        self._frame = np.zeros(n, dtype=np.bool_)
        self._frame_view = self._frame.reshape(geometry.shape)
        self._frame_view.flags.writeable = False
        # Lazy leak: m with beta == 2**-m, or None for the dense leak. The
        # clock counts lazy leak steps; neuron i's membrane is current as of
        # clock value _last[i], and every one is as of _synced.
        self._shift = _halving_shift(config)
        self._clock = self._synced = 0
        self._last = np.zeros(n, dtype=np.int32) if self._shift is not None else None
        # Set by reading v: a write through it may leave membranes over v_th.
        self._exposed = False
        self.ac_count = 0
        self.spike_count = 0

    @property
    def v(self) -> np.ndarray:
        """(H, W) membrane potentials, brought up to date with the step clock."""
        self._sync()
        self._exposed = True
        return self._v.reshape(self.geometry.shape)

    def step(self, inp: StepInput) -> SpikeFrame:
        """Advance every neuron by one timestep; return the spike frame.

        The frame is a read-only view of a buffer the grid reuses: it is
        valid until the next ``step`` or ``reset``. ``fired`` then holds the
        ascending flat indices (``y * width + x``) of the neurons that fired.

        With a sparse input of fewer than one event per 16 pixels and
        ``v_rest == 0``, the threshold is tested only on the input's pixels
        and, for ``reclif`` and ``lrlif``, on the previous step's spikers:
        the leak then never raises a membrane (``beta * v <= max(v, 0)``),
        so no other neuron can cross. After a read of :attr:`v`, the next
        step also tests the membranes then at or above ``v_th``.

        If moreover ``beta = 2**-m``, such a step can leak only those same
        neurons and cost O(events): it does so below one event per 128
        pixels beyond the first 65 536. Any other step first brings every
        membrane up to date, as reading :attr:`v` does.
        """
        pixels = inp.pixels
        if pixels is None and inp.values.shape != self.geometry.shape:
            raise ValueError(
                f"input shape {inp.values.shape} does not match grid {self.geometry.shape}"
            )
        cfg = self.config
        v = self._v
        prev = self.fired
        # Below one event per 16 pixels scattered adds beat a full histogram.
        sparse = pixels is not None and cfg.v_rest == 0.0 and 16 * len(pixels) < v.size
        # The neurons a sparse step can make cross the threshold. The hard
        # reset leaves lif and plif spikers at rest, where they stay.
        candidates = pixels
        if sparse and len(prev) and cfg.variant in (NeuronVariant.REC_LIF, NeuronVariant.LR_LIF):
            candidates = np.concatenate((pixels, prev))
        if sparse and self._exposed:
            candidates = np.concatenate((candidates, np.flatnonzero(v >= cfg.v_th)))
        self._exposed = False
        # A lazy leak beats a dense one below one event per
        # _LAZY_PIXELS_PER_EVENT pixels beyond _LAZY_MIN_PIXELS.
        lazy = (
            sparse
            and self._shift is not None
            and _LAZY_MIN_PIXELS + _LAZY_PIXELS_PER_EVENT * len(pixels) < v.size
        )

        # Leak before integrating: the input arriving in this step is taken
        # at full strength.
        if lazy:
            self._tick(1)
            self._catch_up(candidates)
        else:
            self._sync()
            self._leak()
        if pixels is None:
            v += inp.values.reshape(-1)
        elif not sparse:
            v += np.bincount(pixels, inp.values, v.size)
        else:
            self._add_sparse(v, pixels, inp.values)
        self.ac_count += inp.event_count

        if cfg.variant is NeuronVariant.REC_LIF:
            v[prev] += 1.0
            self.ac_count += len(prev)

        if sparse:
            fired = sorted_unique(candidates[v[candidates] >= cfg.v_th])
        else:
            fired = np.flatnonzero(v >= cfg.v_th)
        if cfg.variant.hard_reset:
            v[fired] = cfg.v_rest
        else:
            v[fired] -= cfg.v_th
        self._frame[prev] = False
        self._frame[fired] = True
        self.fired = fired
        self.spike_count += len(fired)
        return self._frame_view

    def decay_only(self, steps: int) -> "NeuronGrid":
        """Apply ``steps`` zero-input leak updates without thresholding.

        Each update is the step's leak, so the membrane follows
        ``v_rest + beta**steps * (v - v_rest)`` up to the rounding of each
        multiply: exactly for ``beta = 2**-m`` while the membrane stays a
        normal float, within rounding for other betas. On the lazy leak
        (``v_rest == 0``, ``beta = 2**-m``) this only advances the clock.
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if self._shift is not None:
            self._tick(steps)
            return self
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
        v = self._v
        if cfg.v_rest == 0.0:
            v *= cfg.beta
        else:
            v -= cfg.v_rest
            v *= cfg.beta
            v += cfg.v_rest

    def _tick(self, steps: int) -> None:
        """Advance the lazy clock by ``steps`` leak steps.

        It moves at most _GAP_CAP at once: every longer gap leaves the same
        zeros.
        """
        if self._clock >= _CLOCK_LIMIT:
            self._sync()
            self._last.fill(0)
            self._clock = self._synced = 0
        self._clock += min(steps, _GAP_CAP)

    def _sync(self) -> None:
        """Bring every membrane up to date with the step clock."""
        if self._synced != self._clock:
            self._catch_up(slice(None))
            self._synced = self._clock

    def _catch_up(self, neurons: np.ndarray | slice) -> None:
        """Bring the given neurons (flat indices, repeats allowed, or a slice) up to date."""
        gaps = self._clock - self._last[neurons]
        self._last[neurons] = self._clock
        self._v[neurons] = self._decayed(self._v[neurons], gaps)

    def _decayed(self, v: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """``v`` after ``gaps`` leak steps each, bit for bit as ``v *= beta`` repeated.

        Multiplying by ``2**-m`` is exact while the product is a normal
        float, so one ``ldexp`` does the steps that stay at or above
        2**-1022. Below it every product rounds to a multiple of 2**-1074,
        and repeated rounding differs from one rounding, so those last steps
        are taken one multiply at a time.
        """
        m = self._shift
        if m == 0:
            return v
        gaps = np.minimum(gaps, _GAP_CAP)
        out = np.ldexp(v, gaps * -m)
        low = np.abs(out) < _SMALLEST_NORMAL
        low &= v != 0.0
        if low.any():
            sel = np.flatnonzero(low)
            out[sel] = _subnormal_chain(v[sel], gaps[sel], m, self.config.beta)
        return out

    def reset(self) -> None:
        """Return every membrane to rest and clear the pending spikers."""
        self._v.fill(self.config.v_rest)
        if self._last is not None:
            self._last.fill(self._clock)
        self._synced = self._clock
        self._frame[self.fired] = False
        self.fired = _NONE_FIRED


def _halving_shift(config: NeuronConfig) -> int | None:
    """m such that ``beta == 2**-m`` when the leak may be lazy, else None."""
    mantissa, exponent = math.frexp(config.beta)
    if config.v_rest != 0.0 or mantissa != 0.5:
        return None
    return 1 - exponent


def _subnormal_chain(v: np.ndarray, gaps: np.ndarray, m: int, beta: float) -> np.ndarray:
    """Apply ``gaps`` multiplies by ``beta = 2**-m`` to nonzero ``v``, rounding as each would.

    The first j steps keep ``|v| * 2**(-m*j) >= 2**-1022`` and are exact;
    with ``v = f * 2**e``, ``0.5 <= |f| < 1``, that holds for all
    ``m*j <= e + 1021``. The rest are rounded multiplies, and within
    _ZERO_AFTER of them every value is a (signed) zero.
    """
    _, e = np.frexp(v)
    exact = np.minimum(gaps, np.maximum((e + 1021) // m, 0))
    w = np.ldexp(v, -m * exact)
    rest = gaps - exact
    for i in range(int(min(rest.max(), _ZERO_AFTER))):
        w = np.where(rest > i, w * beta, w)
    return w


__all__ = [
    "SpikeFrame",
    "NeuronVariant",
    "NeuronConfig",
    "StepInput",
    "NeuronGrid",
]
