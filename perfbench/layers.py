"""Outside-in layer tracing: self time per layer, measured from the benchmark.

Nothing under ``src/`` is instrumented.  While a :class:`LayerTracer` is
installed it

- wraps every callable bound through ``Simulator.register``, charging the
  call to a layer by its registry key (:data:`KEY_LAYERS`);
- wraps the public methods in :data:`METHOD_LAYERS`, which run inside those
  keys, so nested work (a host tick inside ``fleet.tick``) is charged to
  its own layer;
- taps the ``fleetscale.*`` phase spans that a ``FleetScaleCampaign``
  records into its telemetry hub.

A layer's self time is the wall time of its calls minus the time of the
traced calls inside them.  The traced wall minus every layer's self time
is ``sim.residual_s``: heap push/pop, event dispatch, and whatever runs
outside a traced call.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.climate.generator import WeatherGenerator
from repro.core.builder import Campaign
from repro.hardware.host import Host
from repro.sim.engine import Simulator
from repro.state.checkpoint import DeltaCheckpointWriter
from repro.telemetry import Telemetry
from repro.telemetry.spans import SpanTracer
from repro.thermal.enclosure import Enclosure

#: Registry-key prefix -> layer; the first match wins.  ``None`` leaves
#: the call's self time in the residual (pure dispatch).  Keys matching
#: nothing land in the ``unmapped`` layer, so a new key shows up in the
#: table instead of hiding in the residual.
KEY_LAYERS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("fleet.tick", "hardware"),
    ("prototype.tick", "hardware"),
    ("archiver.step.", "workload"),
    ("monitoring.", "monitoring"),
    ("lascar.", "monitoring"),
    ("powermeter.", "monitoring"),
    ("webcam.", "monitoring"),
    ("station.", "climate"),
    ("policy.", "core.policy"),
    ("campaign.", "core.policy"),
    ("plant.", "plant"),
    ("control.", "control"),
    ("fleetscale.monitor", "fleetscale.monitor"),
    # The frame group only dispatches; its phases are timed by the hub tap.
    ("fleetscale.frame", None),
)

#: Public methods traced in place: (owner, attribute, call name, layer).
METHOD_LAYERS: Tuple[Tuple[type, str, str, str], ...] = (
    (Host, "tick", "Host.tick", "hardware"),
    (Host, "tick_from_columns", "Host.tick_from_columns", "hardware"),
    (WeatherGenerator, "sample", "WeatherGenerator.sample", "climate"),
    (Campaign, "checkpoint", "Campaign.checkpoint", "state.checkpoint"),
    (DeltaCheckpointWriter, "write", "DeltaCheckpointWriter.write", "state.checkpoint"),
)

#: Layers in table order, each with the per-layer metric holding its self
#: time.  ``sim.residual_s`` closes the sum.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("hardware", "hardware.self_s"),
    ("workload", "workload.self_s"),
    ("monitoring", "monitoring.self_s"),
    ("climate", "climate.self_s"),
    ("thermal", "thermal.self_s"),
    ("core.policy", "core.policy_self_s"),
    ("plant", "plant.self_s"),
    ("control", "control.self_s"),
    ("state.checkpoint", "state.checkpoint_s"),
    ("state.read", "state.read_s"),
    ("state.restore", "state.restore_s"),
    ("fleetscale.weather", "fleetscale.weather_s"),
    ("fleetscale.thermal", "fleetscale.thermal_s"),
    ("fleetscale.hazards", "fleetscale.hazards_s"),
    ("fleetscale.workload", "fleetscale.workload_s"),
    ("fleetscale.monitor", "fleetscale.monitor_s"),
    ("unmapped", "trace.unmapped_s"),
)


def layer_for_key(key: str) -> Optional[str]:
    for prefix, layer in KEY_LAYERS:
        if key.startswith(prefix):
            return layer
    return "unmapped"


def _enclosure_classes() -> List[type]:
    """``Enclosure`` and every subclass defining its own ``advance``."""
    found, todo = [], [Enclosure]
    while todo:
        cls = todo.pop()
        if "advance" in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class _PhaseTap(SpanTracer):
    """Telemetry span sink that also charges ``fleetscale.*`` phases."""

    def __init__(self, tracer: "LayerTracer") -> None:
        super().__init__()
        self._tracer = tracer

    def record(self, label: str, elapsed_s: float) -> None:
        super().record(label, elapsed_s)
        if label.startswith("fleetscale."):
            self._tracer._phase(label, elapsed_s)


class LayerTracer:
    """Self-time accounting over a stack of traced calls.

    Each stack frame is ``[child_s, phase_mark_s]``: the time of traced
    calls finished inside it, and how much of that the last hub phase
    already claimed.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self._stack: List[List[float]] = [[0.0, 0.0]]
        self._undo: List[Tuple[type, str, object]] = []

    def _wrap(self, fn: Callable, name: str, layer: Optional[str]) -> Callable:
        stack, self_s, calls, layer_calls = (
            self._stack, self.self_s, self.calls, self.layer_calls
        )

        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                if layer is not None:
                    self_s[layer] += elapsed - frame[0]
                    layer_calls[layer] += 1

        return traced

    def call(self, name: str, layer: str, fn: Callable, *args):
        """Run ``fn(*args)`` as one traced call (for call sites in the benchmark)."""
        return self._wrap(fn, name, layer)(*args)

    def _phase(self, label: str, elapsed_s: float) -> None:
        # Phases of one frame run back to back inside the traced frame
        # key, so the traced calls since the previous phase are this
        # phase's children.
        frame = self._stack[-1]
        inner = frame[0] - frame[1]
        self.self_s[label] += elapsed_s - inner
        self.calls[label] += 1
        self.layer_calls[label] += 1
        frame[0] += elapsed_s - inner
        frame[1] = frame[0]

    def telemetry(self) -> Telemetry:
        """A telemetry hub whose phase spans feed this tracer."""
        hub = Telemetry()
        hub.spans = _PhaseTap(self)
        return hub

    def _patch(self, owner: type, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        register = Simulator.register
        wrap = self._wrap

        def traced_register(sim, key, fn):
            return register(sim, key, wrap(fn, key, layer_for_key(key)))

        self._patch(Simulator, "register", traced_register)
        for owner, attr, name, layer in METHOD_LAYERS:
            self._patch(owner, attr, wrap(owner.__dict__[attr], name, layer))
        for cls in _enclosure_classes():
            advance = cls.__dict__["advance"]
            self._patch(cls, "advance", wrap(advance, "Enclosure.advance", "thermal"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def calls_with_prefix(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Self time per layer, the residual, and the traced call counts."""
        metrics = {metric: self.self_s.get(layer, 0.0) for layer, metric in LAYER_METRICS}
        metrics["sim.residual_s"] = wall_s - sum(metrics.values())
        calls = self.calls
        metrics.update({
            "hardware.fleet_ticks": calls["fleet.tick"],
            "hardware.host_ticks": calls["Host.tick"] + calls["Host.tick_from_columns"],
            "workload.steps": self.calls_with_prefix("archiver.step."),
            "monitoring.rounds": calls["monitoring.collect"],
            "monitoring.samples": (
                calls["lascar.sample"] + calls["powermeter.sample"] + calls["webcam.capture"]
            ),
            "climate.samples": calls["WeatherGenerator.sample"],
            "thermal.advances": calls["Enclosure.advance"],
            "core.policy_actions": (
                self.calls_with_prefix("policy.") + self.calls_with_prefix("campaign.")
            ),
            "plant.ticks": calls["plant.tick"],
            "control.ticks": calls["control.tick"],
            "state.checkpoints": calls["DeltaCheckpointWriter.write"],
        })
        return metrics
