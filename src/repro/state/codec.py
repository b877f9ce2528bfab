"""Serialisation helpers for state dicts.

Two layers:

- **Packed arrays** -- the hot instrument histories (a full-scale
  campaign accumulates ~half a million sensor records) are stored as
  base64-encoded little-endian ``float64``/``int64`` columns instead of
  JSON number lists, which keeps checkpoint writes well under the 5 %
  step-time budget the benchmark satellite enforces.
- **Tagged values** -- configs, bus events, and fault plans are frozen
  dataclasses, enums, and datetimes.  :func:`encode_value` reduces them
  to tagged plain data and :func:`decode_value` rebuilds them against a
  fixed registry of ``repro.*`` classes -- nothing outside that
  registry is ever instantiated from a checkpoint.
"""

from __future__ import annotations

import base64
import dataclasses
import datetime as _dt
import enum
import functools
import math
from typing import Any, Dict, List, Optional, Sequence, Type

import numpy as np

_F64 = "<f8"
_I64 = "<i8"
_U8 = "|u1"


# ----------------------------------------------------------------------
# Packed columns
# ----------------------------------------------------------------------
def _pack(values, dtype: str) -> Dict[str, Any]:
    array = np.asarray(list(values), dtype=np.dtype(dtype))
    return {"__packed__": dtype, "n": int(array.size),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


def _unpack(blob: Dict[str, Any], dtype: str) -> np.ndarray:
    if blob.get("__packed__") != dtype:
        raise ValueError(f"expected a packed {dtype} column, got {blob!r:.80}")
    raw = base64.b64decode(blob["data"].encode("ascii"))
    array = np.frombuffer(raw, dtype=np.dtype(dtype))
    if array.size != blob["n"]:
        raise ValueError("packed column length mismatch")
    return array


def pack_floats(values: Sequence[float]) -> Dict[str, Any]:
    """A float column as a base64 ``float64`` blob."""
    return _pack(values, _F64)


def unpack_floats(blob: Dict[str, Any]) -> List[float]:
    return [float(v) for v in _unpack(blob, _F64)]


def pack_ints(values: Sequence[int]) -> Dict[str, Any]:
    """An int column as a base64 ``int64`` blob."""
    return _pack(values, _I64)


def unpack_ints(blob: Dict[str, Any]) -> List[int]:
    return [int(v) for v in _unpack(blob, _I64)]


def pack_bools(values: Sequence[bool]) -> Dict[str, Any]:
    """A bool column as a base64 byte blob."""
    return _pack([1 if v else 0 for v in values], _U8)


def unpack_bools(blob: Dict[str, Any]) -> List[bool]:
    return [bool(v) for v in _unpack(blob, _U8)]


def pack_optional_floats(values: Sequence[Optional[float]]) -> Dict[str, Any]:
    """Float-or-``None`` column; ``None`` rides as NaN.

    The instrument series this packs (sensor temperatures, logger
    readings) never contain a genuine NaN, so the sentinel is lossless.
    """
    return pack_floats([math.nan if v is None else float(v) for v in values])


def unpack_optional_floats(blob: Dict[str, Any]) -> List[Optional[float]]:
    return [None if math.isnan(v) else v for v in _unpack(blob, _F64)]


# ----------------------------------------------------------------------
# Tagged values
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _class_registry() -> Dict[str, Type]:
    """Name -> class for everything a checkpoint may instantiate.

    Imported lazily so the state package stays import-light and free of
    cycles (core and monitoring import it back); built once, because a
    restore looks classes up hundreds of times.
    """
    from repro.climate import profiles as _profiles
    from repro.control import controllers as _controllers
    from repro.control import observation as _observation
    from repro.core import config as _config
    from repro.core import results as _results
    from repro.hardware import faults as _hwfaults
    from repro.monitoring import health as _health
    from repro.monitoring import transport as _transport
    from repro.plant import faults as _plant
    from repro.plant import trip as _trip
    from repro.runner import policy as _policy
    from repro.sim import events as _events
    from repro.thermal import tent as _tent

    classes: List[Type] = [
        _config.ExperimentConfig,
        _config.HostPlan,
        _config.TentModificationPlan,
        _hwfaults.TransientFaultModel,
        _hwfaults.MemoryFaultModel,
        _hwfaults.FaultKind,
        _tent.Modification,
        _results.PrototypeResult,
        _results.SnapshotCensus,
        _transport.LinkFault,
        _transport.LinkFaultAction,
        _transport.LinkFaultPlan,
        _transport.LinkStorm,
        _health.HealthPolicy,
        _policy.RetryPolicy,
        _plant.PlantFault,
        _plant.PlantFaultKind,
        _plant.PlantFaultPlan,
        _plant.PlantStorm,
        _trip.ThermalTripPolicy,
        _controllers.ControllerSpec,
        _controllers.ControlAction,
        _observation.ControlObservation,
    ]
    classes.extend(
        obj
        for obj in vars(_events).values()
        if isinstance(obj, type)
        and issubclass(obj, _events.Event)
        and dataclasses.is_dataclass(obj)
    )
    classes.extend(
        obj
        for obj in vars(_profiles).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    )
    return {cls.__name__: cls for cls in classes}


def encode_value(value: Any) -> Any:
    """Reduce a value to tagged, JSON-serialisable plain data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if isinstance(value, _dt.datetime):
        return {"__datetime__": value.isoformat()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} into a checkpoint")


def decode_value(data: Any) -> Any:
    """Rebuild :func:`encode_value` output; tuples come back as tuples.

    Dataclass fields declared as lists keep list values; every other
    encoded sequence decodes to a tuple, which matches how the frozen
    config/event classes declare their collections.
    """
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return tuple(decode_value(v) for v in data)
    if isinstance(data, dict):
        if "__enum__" in data:
            cls = _lookup(data["__enum__"])
            return cls[data["name"]]
        if "__datetime__" in data:
            return _dt.datetime.fromisoformat(data["__datetime__"])
        if "__dataclass__" in data:
            cls = _lookup(data["__dataclass__"])
            fields = {k: decode_value(v) for k, v in data["fields"].items()}
            known = {f.name for f in dataclasses.fields(cls)}
            return cls(**{k: v for k, v in fields.items() if k in known})
        return {k: decode_value(v) for k, v in data.items()}
    raise TypeError(f"cannot decode {type(data).__name__} from a checkpoint")


def _lookup(name: str) -> Type:
    registry = _class_registry()
    if name not in registry:
        raise ValueError(f"checkpoint names unknown class {name!r}")
    return registry[name]
