"""Shared helpers for on-disk artifacts: bit-exact arrays, digests, atomic
writes, JSON/JSONL and plain-text line files."""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path

import numpy as np


def encode_array(a: np.ndarray) -> dict:
    """Encode a float64 array as base64 bytes so round-trips are bit-exact."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    if d.get("dtype") != "float64":
        raise ValueError(f"unsupported array dtype {d.get('dtype')!r}")
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(d["shape"]).copy()


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_obj(obj) -> str:
    return digest_text(canonical_json(obj))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_lines(path) -> list[str]:
    """The non-blank lines of a text file, in order."""
    return [ln for ln in Path(path).read_text().splitlines() if ln.strip()]


def write_text(path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it into
    place, so a write that fails part-way leaves the old file untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def check_header(doc, kind: str, version: int, path) -> None:
    """Raise ValueError unless `doc` is a `kind` artifact at `format_version`
    `version`."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} artifact")
    if doc.get("format_version") != version:
        raise ValueError(f"{path}: unsupported {kind} format version "
                         f"{doc.get('format_version')!r}")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_jsonl(path, header: dict, records) -> None:
    """Write a JSONL file with a single header line followed by records."""
    lines = [canonical_json(header)] + [canonical_json(rec) for rec in records]
    write_text(path, "\n".join(lines) + "\n")


def read_jsonl(path) -> tuple[dict, list[dict]]:
    """Read a header-plus-records JSONL file written by write_jsonl."""
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty artifact")
    header = json.loads(lines[0])
    return header, [json.loads(ln) for ln in lines[1:]]
