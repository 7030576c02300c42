"""JSONL trace export and import.

One record per line.  Spans:

``{"kind": "span", "trace": 0, "span": 1, "parent": 0, "name": "net.send",
   "start": 1.5, "end": 2.25, "status": "ok", "attrs": {...}}``

Events:

``{"kind": "event", "trace": 0, "parent": 1, "name": "net.hop",
   "time": 1.75, "attrs": {...}}``

The format is append-friendly and diff-friendly (keys are emitted in a
fixed order), and loads back into the same record objects the tracer
produces, so :mod:`repro.observability.analysis` works identically on
live tracers and exported files.  :func:`read_document` reads the JSON
documents the other exports write (profiles, bench results).
"""

from __future__ import annotations

import json
import typing

from repro.observability.tracer import SpanRecord, TraceEvent


def _default(obj: typing.Any) -> typing.Any:
    """Best-effort JSON coercion for numpy scalars and odd attr values."""
    for attr in ("item",):  # numpy scalars
        if hasattr(obj, attr):
            return obj.item()
    return str(obj)


def write_jsonl(records: typing.Iterable[SpanRecord | TraceEvent], path) -> int:
    """Write ``records`` to ``path`` as JSONL; returns the line count.

    Open spans are exported with ``"end": null`` -- analysis treats them
    as zero-duration, and the exporter does not mutate them.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), default=_default))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path) -> list[SpanRecord | TraceEvent]:
    """Load a JSONL trace back into record objects (see :func:`write_jsonl`)."""
    records: list[SpanRecord | TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                records.append(record_from_dict(payload, where=f"{path}:{lineno}"))
            except (AttributeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc!r}") from exc
    return records


def record_from_dict(payload: dict, where: str = "<record>") -> SpanRecord | TraceEvent:
    """Rebuild one record object from its :meth:`to_dict` form."""
    kind = payload.get("kind")
    if kind == "span":
        record = SpanRecord(
            trace_id=int(payload["trace"]),
            span_id=int(payload["span"]),
            parent_id=None if payload.get("parent") is None else int(payload["parent"]),
            name=str(payload["name"]),
            start_s=float(payload["start"]),
            attrs=dict(payload.get("attrs") or {}),
        )
        if payload.get("end") is not None:
            record.end_s = float(payload["end"])
        record.status = str(payload.get("status", "ok"))
        return record
    if kind == "event":
        return TraceEvent(
            trace_id=int(payload["trace"]),
            parent_id=None if payload.get("parent") is None else int(payload["parent"]),
            name=str(payload["name"]),
            time_s=float(payload["time"]),
            attrs=dict(payload.get("attrs") or {}),
        )
    raise ValueError(f"{where}: unknown record kind {kind!r}")


def read_document(path, what: str, schema: int,
                  fields: typing.Mapping[str, type | tuple[type, ...]],
                  kind: str | None = None) -> dict:
    """Load one JSON export: an object with this ``kind`` (when given) and
    ``schema``, whose ``fields`` hold values of their types.  Every error
    names ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or (kind is not None and doc.get("kind") != kind):
        raise ValueError(f"{path}: not a {what}")
    if doc.get("schema") != schema:
        raise ValueError(f"{path}: unsupported schema {doc.get('schema')!r} "
                         f"(this reader speaks {schema})")
    for name, types in fields.items():
        if name not in doc:
            raise ValueError(f"{path}: malformed {what} (no {name!r} key)")
        if not isinstance(doc[name], types):
            raise ValueError(f"{path}: malformed {what} ({name!r} holds "
                             f"{type(doc[name]).__name__})")
    return doc
