"""Group files, report documents, and export formats.

Group file schema (JSON object):

  {"name": str?,                      either a full table ...
   "order": int, "table": [[int]],
   "names": [str]?}

  {"name": str?,                      ... or a permutation generating set
   "degree": int, "generators": [[int], ...]}

Exactly one of "table" / "generators" must be present.  Indices are 0-based;
if the identity of a table sits at an index other than 0 it is relocated on
load (the group records the original index in `relabeled_from`).  A
file longer than max_group_file_bytes(order_cap()) raises OrderCapExceeded
once that many bytes and one more are read, and a declared order or degree
above order_cap() before the table is built.  The name and each entry of
"names" hold at most MAX_NAME_CHARS characters, and no two entries of
"names" are equal.

A file in any JSON layout is read.  A "table" in the grammar below is
decoded from the file's bytes, TABLE_BLOCK_ROWS rows at a time; any other
file (a minus sign, a longer integer, a float, a boolean, a ragged row,
malformed text) goes through json.loads, to the same group or error.

  table = '[' ws row (ws ',' ws row)* ws ']'    int = 0 | [1-9][0-9]{0,8}
  row = '[' ws int (ws ',' ws int)* ws ']'      ws = (space | tab | LF | CR)*

Report documents are schema-versioned JSON with sorted keys so identical runs
serialize byte-identically; per-check wall-clock timing is deliberately left
out of the document for the same reason.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from ._version import __version__
from .catalog import catalog_group
from .errors import OrderCapExceeded, ParseError
from .groups import (
    FiniteGroup,
    _first_repeat,
    check_order_cap,
    group_center,
    group_from_permutations,
    group_from_table,
    order_cap,
)
from .report import CheckReport, summarize

REPORT_SCHEMA = "gyrolab-report/1"
SEARCH_SCHEMA = "gyrolab-search/1"

MAX_NAME_CHARS = 256
# Whitespace and separators allowed per table cell: json.dumps at indent k
# puts 3k + 2 on each, so this admits indents up to 10.
CELL_LAYOUT_BYTES = 32
READ_CHUNK = 1 << 20
# rows of a table decoded from bytes at a time, so no temporary outgrows a block
TABLE_BLOCK_ROWS = 32
_TABLE_KEY = re.compile(rb'"table"[ \t\n\r]*:[ \t\n\r]*\[')
_ROW_END = re.compile(rb"\][ \t\n\r]*([,\]])")
_WS, _DIGIT, _COMMA, _OPEN, _CLOSE = range(1, 6)
_BYTE_KIND = np.zeros(256, dtype=np.uint8)          # 0: outside the grammar
_BYTE_KIND[list(b" \t\n\r0123456789,[]")] = [_WS] * 4 + [_DIGIT] * 10 + [_COMMA, _OPEN, _CLOSE]


# ---------------------------------------------------------------------------
# group files

def max_group_file_bytes(cap: int) -> int:
    """The longest group file read under order cap `cap`: cap^2 integers (a
    full table, or cap generators of degree cap) at CELL_LAYOUT_BYTES plus
    their digits each, cap names of MAX_NAME_CHARS characters at up to 12
    bytes each (a JSON surrogate-pair escape), and 4 KiB for the other
    fields."""
    return (cap * cap * (CELL_LAYOUT_BYTES + len(str(cap)))
            + cap * (12 * MAX_NAME_CHARS + 16) + 4096)


def _check_name(path, value: str, what: str) -> None:
    if len(value) > MAX_NAME_CHARS:
        raise ParseError(str(path), f"{what} is longer than {MAX_NAME_CHARS} characters")


def _read_group_bytes(path, cap: int) -> bytearray:
    """The bytes of a group file, read in chunks: at most
    max_group_file_bytes(cap) bytes and one more, also from a pipe or a
    device."""
    bound = max_group_file_bytes(cap)
    data = bytearray()
    try:
        with Path(path).open("rb") as f:
            while len(data) <= bound:
                chunk = f.read(min(READ_CHUNK, bound + 1 - len(data)))
                if not chunk:
                    break
                data += chunk
    except OSError as exc:
        raise ParseError(str(path), f"cannot read: {exc}") from exc
    if len(data) > bound:
        raise OrderCapExceeded(cap, len(data),
                               f"file is longer than {bound} bytes, the bound for order "
                               f"cap {cap}, which counts whitespace: at most "
                               f"{CELL_LAYOUT_BYTES} bytes of it per table cell")
    return data


def _table_document(data: bytearray) -> dict | None:
    """The document of a group file whose top-level "table" has the grammar of
    the module docstring, that table decoded from the bytes into one int64
    (order, order) array; None for any other file.  json.loads reads the rest,
    the table's span replaced by an integer whose digits occur nowhere else:
    read back as doc["table"], it proves the span is the value json.loads keeps."""
    key = _TABLE_KEY.search(data)
    if key is None:
        return None
    start, ends = key.end() - 1, []            # ends: the byte after each row's "]"
    for row in _ROW_END.finditer(data, key.end()):
        ends.append(row.start() + 1)
        if row[1] == b"]":
            break
    else:
        return None
    head, tail = data[:start], data[row.end():]
    sentinel = b"1"
    while sentinel in head or sentinel in tail:
        sentinel += b"0"
    try:
        doc = json.loads((head + sentinel + tail).decode())
    except (ValueError, RecursionError):      # not UTF-8, not JSON, or too deep
        return None
    n = doc.get("order") if type(doc) is dict else None   # checked before the table is made
    if (type(n) is not int or type(doc.get("table")) is not int or doc["table"] != int(sentinel)
            or not 1 <= n <= order_cap() or len(ends) != n or row.end() - start < n * (2 * n + 1)):
        return None
    table = np.zeros((n, n), dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    # the kinds of ",[N,...,N]" per row of a block; the first row has no ","
    want = np.tile(np.array([_COMMA, _OPEN] + [_DIGIT, _COMMA] * (n - 1) + [_DIGIT, _CLOSE],
                            dtype=np.uint8), TABLE_BLOCK_ROWS)
    lo = start + 1
    for r in range(0, n, TABLE_BLOCK_ROWS):
        rows = table[r:r + TABLE_BLOCK_ROWS]
        block, lo = buf[lo:ends[r + len(rows) - 1]], ends[r + len(rows) - 1]
        kinds = want[int(r == 0):len(rows) * (2 * n + 2)]
        kind = _BYTE_KIND.take(block)
        digit = kind == _DIGIT
        first = digit > np.roll(digit, 1)             # a block ends in "]", not a digit
        at = np.flatnonzero((kind != _WS) & (digit == first))      # where each token starts
        if not np.array_equal(kind.take(at), kinds):
            return None
        starts = at[kinds == _DIGIT]
        width = np.flatnonzero(digit > np.roll(digit, -1)) + 1 - starts
        if width.max() > 9 or ((block.take(starts) == ord("0")) & (width > 1)).any():
            return None
        cells = rows.reshape(-1)
        for k in range(int(width.max())):
            # the digit k places left of each number's last, masked past its first
            d = block.take(starts + width - 1 - k, mode="clip") - np.uint8(ord("0"))
            cells += np.multiply(d, 10 ** k, dtype=np.int64) * (width > k)
    doc["table"] = table
    return doc


def parse_group_file(path) -> FiniteGroup:
    p = Path(path)
    data = _read_group_bytes(p, order_cap())
    doc = _table_document(data)
    if doc is None:
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(str(path), f"not UTF-8 text: {exc.reason}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(str(path),
                             f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(str(path), "top level must be a JSON object")

    has_table = "table" in doc
    has_gens = "generators" in doc
    if has_table == has_gens:
        raise ParseError(str(path),
                         "exactly one of 'table' and 'generators' must be present")

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(str(path), "field 'name' must be a string")
    _check_name(path, name, "field 'name'")

    if has_table:
        order = doc.get("order")
        if type(order) is not int or order < 1:
            raise ParseError(str(path), "field 'order' must be a positive integer")
        check_order_cap(order, "declared order")
        table = doc["table"]
        try:
            arr = np.asarray(table)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(path),
                             f"field 'table' is not a rectangular integer array: {exc}") from exc
        if arr.ndim != 2 or arr.shape != (order, order):
            raise ParseError(str(path),
                             f"field 'table' has shape {tuple(arr.shape)}, "
                             f"expected ({order}, {order})")
        # a dtype check: JSON floats, integers past int64 and all-boolean
        # tables come back as float, object and bool arrays, but booleans
        # among integers come back as integers, so the cells are scanned for
        # them when the file holds a JSON boolean at all (a table decoded
        # from bytes holds none).  group_from_table checks the range against
        # the order and casts the array once
        i32 = np.iinfo(np.int32)
        if (arr.dtype.kind not in "iu" or arr.min() < i32.min or arr.max() > i32.max
                or (arr is not table and (b"true" in data or b"false" in data)
                    and any(type(v) is bool for row in table for v in row))):
            raise ParseError(str(path), "field 'table' must hold integers in the int32 range")
        names = doc.get("names")
        if names is not None:
            if (not isinstance(names, list) or len(names) != order
                    or not all(isinstance(s, str) for s in names)):
                raise ParseError(str(path),
                                 f"field 'names' must be a list of {order} strings")
            for i, s in enumerate(names):
                _check_name(path, s, f"names[{i}]")
            j = _first_repeat(names)
            if j is not None:
                raise ParseError(str(path), f"names[{j}] repeats an earlier name")
        return group_from_table(arr, names=names, name=name or p.stem)

    degree = doc.get("degree")
    if type(degree) is not int or degree < 1:
        raise ParseError(str(path), "field 'degree' must be a positive integer")
    check_order_cap(degree, "declared degree")
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParseError(str(path), "field 'generators' must be a non-empty list")
    for i, g in enumerate(gens):
        if (not isinstance(g, list) or len(g) != degree
                or not all(type(v) is int for v in g)):
            raise ParseError(str(path),
                             f"generator {i} must be a list of {degree} integers")
    return group_from_permutations(degree, gens, name=name or p.stem)


def write_group_file(G: FiniteGroup, path) -> None:
    doc = {
        "name": G.name,
        "order": G.order,
        "table": G.table.tolist(),
        "names": list(G.names),
    }
    Path(path).write_text(dumps_json(doc))


def resolve_group(spec: str) -> FiniteGroup:
    """Turn 'file:PATH' or a catalog spec string into a group."""
    if spec.startswith("file:"):
        return parse_group_file(spec[len("file:"):])
    return catalog_group(spec)


def gather_sources(inputs: str) -> list[str]:
    """Expand the --inputs argument of the scan: a directory of .json group
    files (sorted) or a text file with one source spec per line."""
    p = Path(inputs)
    if p.is_dir():
        return [f"file:{f}" for f in sorted(p.glob("*.json"))]
    if p.is_file():
        out = []
        for line in p.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
        return out
    raise ParseError(inputs, "not a directory or a readable list file")


# ---------------------------------------------------------------------------
# documents

def dumps_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def group_descriptor(G: FiniteGroup, source: str | None = None) -> dict:
    d = {"name": G.name, "order": G.order}
    if source is not None:
        d["source"] = source
    if G.relabeled_from is not None:
        d["identity_relocated_from"] = G.relabeled_from
    return d


def report_document(G: FiniteGroup, reports: list[CheckReport],
                    source: str | None = None) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "gyrolab", "version": __version__},
        "group": group_descriptor(G, source),
        "checks": [r.to_dict() for r in reports],
        "summary": summarize(reports),
    }


def search_document(summary_dict: dict) -> dict:
    return {
        "schema": SEARCH_SCHEMA,
        "tool": {"name": "gyrolab", "version": __version__},
        **summary_dict,
    }


# ---------------------------------------------------------------------------
# exports

def matrix_csv(matrix) -> str:
    """One line of comma-separated integers per row, each line ended by a newline.

    Each cell is looked up in the table of the decimal words of the values
    from the least to the largest, NUL-padded to the widest; the separators
    fill one more byte per cell, and the padding is dropped in one pass."""
    m = np.asarray(matrix)
    if not m.size:
        return "\n" * max(len(m), 1)
    lo, hi = int(m.min()), int(m.max())
    w = max(len(str(lo)), len(str(hi)))
    words = np.arange(lo, hi + 1).astype(f"S{w}").view(np.uint8).reshape(-1, w)
    out = np.empty(m.shape + (w + 1,), dtype=np.uint8)
    out[..., :w] = words[m - lo if lo else m]
    out[..., w] = ord(",")
    out[:, -1, w] = ord("\n")
    return out[out != 0].tobytes().decode()


def export_circ_table(G: FiniteGroup) -> dict:
    from .gyro import build_gyro
    L = build_gyro(G).loop
    return {
        "kind": "circ-table",
        "group": group_descriptor(G),
        "order": L.order,
        "table": L.table.tolist(),
        "names": list(L.names),
    }


def export_gyration_table(G: FiniteGroup) -> dict:
    from .gyro import build_gyro, gyration_table
    L = build_gyro(G).loop
    gt = gyration_table(L)
    return {
        "kind": "gyration-table",
        "group": group_descriptor(G),
        "order": L.order,
        "ids": gt.ids.tolist(),
        "gyrations": gt.perms.tolist(),
    }


def _factor_sets(G: FiniteGroup):
    """(T, fs, tf): the transversal of Z(G), its factor set and the twisted one."""
    from .cocycle import factor_set, gyro_factor_set, make_transversal
    T = make_transversal(G, group_center(G))
    fs = factor_set(G, T)
    return T, fs, gyro_factor_set(fs)


def export_factor_set(G: FiniteGroup) -> dict:
    T, fs, tf = _factor_sets(G)
    return {
        "kind": "factor-set",
        "group": group_descriptor(G),
        "center": list(T.center),
        "center_names": [G.names[i] for i in T.center],
        "quotient_order": T.quotient.order,
        "reps": [int(r) for r in T.reps],
        "plain": fs.local_values().tolist(),
        "twisted": tf.local_values().tolist(),
    }


_EXPORTERS = {
    "circ-table": export_circ_table,
    "gyration-table": export_gyration_table,
    "factor-set": export_factor_set,
}

def _gyration_ids(G: FiniteGroup) -> np.ndarray:
    from .gyro import build_gyro, gyration_table
    return gyration_table(build_gyro(G).loop).ids


def _circ_table(G: FiniteGroup) -> np.ndarray:
    from .gyro import build_gyro
    return build_gyro(G).loop.table


# the matrix a CSV export of each kind dumps, built without its JSON document
_CSV_MATRIX = {
    "circ-table": _circ_table,
    "gyration-table": _gyration_ids,
    "factor-set": lambda G: _factor_sets(G)[2].local_values(),
}


def export_document(G: FiniteGroup, what: str) -> dict:
    if what not in _EXPORTERS:
        raise ValueError(f"unknown export kind {what!r}")
    return _EXPORTERS[what](G)


def export_text(G: FiniteGroup, what: str, fmt: str) -> str:
    if fmt == "csv" and what in _CSV_MATRIX:
        return matrix_csv(_CSV_MATRIX[what](G))
    doc = export_document(G, what)
    if fmt == "json":
        return dumps_json(doc)
    raise ValueError(f"unknown export format {fmt!r}")
