"""Reference report serializer: the two-pass writer the package used first.

``jsonable`` turns a document into plain data (int, float, bool, None, str,
dict, list), and ``emit`` writes that data with 17 significant digits, NaN
and infinities as strings, ASCII only, and a list of numbers on one line.
The tests hold the package's one-pass writer (``cli._to_json``) to
``emit(jsonable(doc), 0)`` byte for byte.
"""
import json
import math
import numbers
from dataclasses import fields, is_dataclass

import numpy as np


def jsonable(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return f"{v:.17g}"


def emit(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k), ensure_ascii=True)}: {emit(v, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float)) for v in obj)
        if flat:
            return "[" + ", ".join(emit(v, 0) for v in obj) + "]"
        rows = [f"{inner}{emit(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
