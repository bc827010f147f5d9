import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrolab import (
    FiniteGroup,
    GyrolabError,
    NotAssociative,
    NotLatinSquare,
    OrderCapExceeded,
    ParseError,
    catalog_group,
    parse_group_file,
    report_document,
    resolve_group,
    verify_suite,
    write_group_file,
)
from gyrolab.fileio import (
    CELL_LAYOUT_BYTES,
    MAX_NAME_CHARS,
    dumps_json,
    export_text,
    gather_sources,
    matrix_csv,
    max_group_file_bytes,
)
from gyrolab import fileio
from gyrolab.cli import main
from gyrolab.groups import elem_dtype
from gyrolab.search import evaluate_source


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return p


def test_parse_table_file(tmp_path):
    p = _write(tmp_path, "c2.json", {"order": 2, "table": [[0, 1], [1, 0]]})
    G = parse_group_file(p)
    assert G.order == 2
    assert G.name == "c2"              # falls back to the file stem


def test_parse_trivial(tmp_path):
    p = _write(tmp_path, "t.json", {"order": 1, "table": [[0]]})
    assert parse_group_file(p).order == 1


def test_parse_permutation_file(tmp_path):
    p = _write(tmp_path, "d16.json", {
        "degree": 8,
        "generators": [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]],
    })
    G = parse_group_file(p)
    assert G.order == 16


def test_roundtrip(tmp_path, d16):
    out = tmp_path / "d16.json"
    write_group_file(d16, out)
    H = parse_group_file(out)
    assert np.array_equal(H.table, d16.table)
    assert H.names == d16.names
    # a second write is byte-identical
    out2 = tmp_path / "again.json"
    write_group_file(H, out2)
    assert out.read_text() == out2.read_text()


def test_identity_relocated_on_load(tmp_path):
    # C3 written with the identity at index 1
    t = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    p = _write(tmp_path, "c3moved.json", {"order": 3, "table": t})
    G = parse_group_file(p)
    assert G.relabeled_from == 1
    assert G.mul(0, 2) == 2


@pytest.mark.parametrize("doc,fragment", [
    ("{not json", "invalid JSON"),
    ("[1,2]", "JSON object"),
    ({"order": 2}, "exactly one"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "generators": [[0, 1]]}, "exactly one"),
    ({"order": 0, "table": []}, "positive integer"),
    ({"order": 2, "table": [[0, 1]]}, "shape"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["e"]}, "names"),
    ({"degree": 3, "generators": []}, "non-empty"),
    ({"degree": 3, "generators": [[0, 1]]}, "generator 0"),
    ({"order": 2, "table": [["a", "b"], ["b", "a"]]}, "table"),
    ({"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
      "names": ["e", "a", "b", "a"]}, "names[3] repeats an earlier name"),
])
def test_parse_errors(tmp_path, doc, fragment):
    p = _write(tmp_path, "bad.json", doc)
    with pytest.raises(ParseError) as exc:
        parse_group_file(p)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("cell", [0.5, 4294967296, -4294967296, 2 ** 64, True])
def test_table_cells_that_are_not_int32_integers_are_parse_errors(tmp_path, cell):
    # 0.5 used to be truncated to the trivial group, 2^32 raised OverflowError
    p = _write(tmp_path, "cell.json", {"order": 1, "table": [[cell]]})
    with pytest.raises(ParseError, match="field 'table' must hold integers"):
        parse_group_file(p)
    assert main(["analyze", "--group", f"file:{p}"]) == 2
    rec = evaluate_source(f"file:{p}")
    assert rec.status == "error"
    assert rec.reason.startswith("ParseError: ") and "field 'table'" in rec.reason


def test_boolean_table_cells_among_integers_are_parse_errors(tmp_path):
    # [[0, true], [true, 0]] comes back from numpy as an int64 array
    p = _write(tmp_path, "bool.json", {"order": 2, "table": [[0, True], [True, 0]]})
    with pytest.raises(ParseError, match="field 'table' must hold integers"):
        parse_group_file(p)
    # the word in a name alone does not refuse an integer table
    p = _write(tmp_path, "named.json", {"name": "true", "order": 2, "table": [[0, 1], [1, 0]]})
    assert parse_group_file(p).order == 2


@pytest.mark.parametrize("doc,fragment", [
    ({"degree": 2, "generators": [[True, False]]}, "generator 0 must be a list of 2 integers"),
    ({"degree": True, "generators": [[0]]}, "field 'degree' must be a positive integer"),
    ({"order": True, "table": [[0]]}, "field 'order' must be a positive integer"),
])
def test_boolean_sizes_and_generator_entries_are_parse_errors(tmp_path, doc, fragment):
    # isinstance(True, int) holds, so these parsed as C2 or the trivial group
    with pytest.raises(ParseError, match=fragment):
        parse_group_file(_write(tmp_path, "bool.json", doc))


def test_non_utf8_file_is_a_parse_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "\xe9", "order": 1, "table": [[0]]}')
    with pytest.raises(ParseError, match="not UTF-8 text"):
        parse_group_file(p)


@pytest.mark.parametrize("text,fragment", [
    ("[" * 100_000, "recursion"),                                  # json.loads' RecursionError
    ('{"order": 1, "table": [[' + "1" * 5000 + "]]}", "digits"),   # its ValueError on an int
])
def test_json_too_deep_or_too_long_an_integer_is_a_parse_error(tmp_path, capsys, text, fragment):
    # json.loads raises RecursionError and ValueError past its limits; both
    # are ParseErrors that name the file, so the CLI exits 2
    p = tmp_path / "deep.json"
    p.write_text(text)
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_group_file(p)
    assert exc.value.path == str(p)
    assert main(["analyze", "--group", f"file:{p}"]) == 2
    assert str(p) in capsys.readouterr().err
    rec = evaluate_source(f"file:{p}")
    assert rec.status == "error"
    assert rec.reason.startswith("ParseError: ") and str(p) in rec.reason


# near-valid group files: a valid table or generating set with a few defects

_BAD_VALUES = st.one_of(st.integers(min_value=-3, max_value=12), st.just(2 ** 40),
                        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2),
                        st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
_VALID_TABLES = ["cyclic:3", "product:cyclic:2,cyclic:2", "dihedral:8"]
_VALID_GENERATORS = [(3, [[1, 2, 0], [1, 0, 2]]), (4, [[1, 2, 3, 0], [0, 3, 2, 1]]), (2, [[1, 0]])]


def _defective_table_file(draw):
    G = catalog_group(draw(st.sampled_from(_VALID_TABLES)))
    n = G.order
    doc = {"order": n, "table": G.table.tolist()}
    if draw(st.booleans()):
        doc["names"] = list(G.names)
    for defect in draw(st.lists(st.sampled_from(
            ["ragged", "cell", "rows", "order", "short-names", "repeated-names", "name-type",
             "table-type"]), min_size=1, max_size=3)):
        rows = doc["table"]
        row = (rows[draw(st.integers(0, len(rows) - 1))]
               if isinstance(rows, list) and rows else None)
        if defect == "ragged" and isinstance(row, list):
            row[:] = row[:-1] if draw(st.booleans()) else row + [0]
        elif defect == "cell" and isinstance(row, list) and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_VALUES)
        elif defect == "rows" and isinstance(rows, list):
            doc["table"] = rows[:-1] if draw(st.booleans()) else rows + [list(range(n))]
        elif defect == "order":
            doc["order"] = draw(st.one_of(st.integers(-1, n + 2), _BAD_VALUES))
        elif defect == "short-names":
            doc["names"] = list(G.names)[:draw(st.integers(0, n - 1))]
        elif defect == "repeated-names":
            names = list(G.names)
            j = draw(st.integers(1, n - 1))
            names[j] = names[draw(st.integers(0, j - 1))]
            doc["names"] = names
        elif defect == "name-type":
            doc["names"] = draw(st.one_of(_BAD_VALUES, st.lists(_BAD_VALUES, min_size=n,
                                                                max_size=n)))
        elif defect == "table-type":
            doc["table"] = draw(_BAD_VALUES)
    return doc


def _defective_generator_file(draw):
    degree, gens = draw(st.sampled_from(_VALID_GENERATORS))
    doc = {"degree": degree, "generators": [list(g) for g in gens]}
    for defect in draw(st.lists(st.sampled_from(
            ["degree", "non-bijective", "out-of-range", "ragged", "entry", "generators-type"]),
            min_size=1, max_size=3)):
        gens = doc["generators"]
        g = gens[draw(st.integers(0, len(gens) - 1))] if isinstance(gens, list) and gens else None
        if defect == "degree":
            doc["degree"] = draw(st.one_of(st.integers(-1, degree + 2), _BAD_VALUES))
        elif defect == "non-bijective" and isinstance(g, list) and len(g) > 1:
            g[0] = g[1]
        elif defect == "out-of-range" and isinstance(g, list) and g:
            g[draw(st.integers(0, len(g) - 1))] = draw(st.sampled_from([-1, degree, 2 ** 40]))
        elif defect == "ragged" and isinstance(g, list):
            g[:] = g[:-1] if draw(st.booleans()) else g + [degree - 1]
        elif defect == "entry" and isinstance(g, list) and g:
            g[draw(st.integers(0, len(g) - 1))] = draw(_BAD_VALUES)
        elif defect == "generators-type":
            doc["generators"] = draw(st.one_of(_BAD_VALUES, st.just([]),
                                               st.lists(_BAD_VALUES, min_size=1, max_size=2)))
    return doc


@st.composite
def _near_valid_group_files(draw):
    form = draw(st.sampled_from(["table", "generators"]))
    return (_defective_table_file if form == "table" else _defective_generator_file)(draw)


@given(_near_valid_group_files())
def test_near_valid_group_files_parse_to_a_group_or_a_typed_error(doc):
    # the parser's outcome is a group or a GyrolabError (ParseError for what
    # the file states, the constructors' errors for what its table is),
    # never a bare IndexError, TypeError, KeyError or ValueError
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "near.json"
        path.write_text(json.dumps(doc))
        try:
            G = parse_group_file(path)
        except GyrolabError:
            return
    assert isinstance(G, FiniteGroup)


@given(_near_valid_group_files())
def test_near_valid_group_files_through_every_entry_point(doc):
    # analyze and verify exit 0 or 1, or 2 with an error line; the search
    # record is an error record at worst, and its reason never names a bare
    # IndexError, KeyError or TypeError
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "near.json"
        path.write_text(json.dumps(doc))
        for command in ("analyze", "verify"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--group", f"file:{path}", "--out", str(Path(tmp) / "doc")])
            assert code in (0, 1) or (code == 2 and err.getvalue().startswith("error: ")), (
                command, code, err.getvalue())
        rec = evaluate_source(f"file:{path}")
    assert not (rec.reason or "").startswith(("IndexError", "KeyError", "TypeError")), rec.reason


# the table read from bytes against the json.loads reader kept in conftest:
# the same group, names and relabeled_from, or the same exception and message

_SMALL_GROUPS = ["cyclic:1", "cyclic:2", "cyclic:7", "product:cyclic:2,cyclic:2", "dihedral:8",
                 "quaternion:8", "dihedral:12", "cyclic:12"]
_JSON_WS = st.text(alphabet=" \t\n\r", max_size=3)


def _outcome(read, path):
    try:
        G = read(path)
    except Exception as exc:           # compared by type and message
        return type(exc), str(exc)
    return G.name, list(G.names), G.relabeled_from, G.table.dtype.str, G.table.tolist()


def _same_outcome(text, ref_parse_group_file):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        got = _outcome(parse_group_file, path)
        assert got == _outcome(ref_parse_group_file, path), text
        return fileio._table_document(fileio._read_group_bytes(path, 1 << 20)) is not None


@st.composite
def _group_docs(draw):
    """(doc, rows): a small group's file document, its elements renamed by a
    drawn permutation (the identity may move), and the table's cells as text."""
    G = catalog_group(draw(st.sampled_from(_SMALL_GROUPS)))
    n = G.order
    perm = np.array(draw(st.permutations(range(n))))
    inv = np.argsort(perm)
    table = perm[G.table[np.ix_(inv, inv)]].tolist()
    doc = {"order": n, "table": table}
    if draw(st.booleans()):
        doc["names"] = [G.names[i] for i in inv]
    if draw(st.booleans()):
        doc["name"] = G.name
    keys = draw(st.permutations(list(doc)))
    return {k: doc[k] for k in keys}, [[str(v) for v in row] for row in table]


def _spaced(draw, doc, rows):
    """doc as JSON text with drawn runs of JSON whitespace between all
    tokens of the table and around the object's separators."""
    runs = draw(st.lists(_JSON_WS, min_size=7, max_size=7))
    ws = iter(runs * (8 * len(rows) ** 2 + 32)).__next__

    def sep(s):
        return ws() + s + ws()

    def table():
        return ("[" + ws() + sep(",").join("[" + ws() + sep(",").join(row) + ws() + "]"
                                           for row in rows) + ws() + "]")

    return ("{" + ws() + sep(",").join(
        json.dumps(k) + sep(":") + (table() if k == "table" else json.dumps(v))
        for k, v in doc.items()) + ws() + "}")


@given(data=st.data())
def test_table_read_from_bytes_matches_json_loads_in_every_layout(ref_parse_group_file, data):
    # and the table is read from bytes: the json.loads path is not taken
    doc, rows = data.draw(_group_docs())
    layout = data.draw(st.one_of(st.sampled_from(["compact", "spaced", "random"]),
                                 st.integers(0, 10)))
    if layout == "compact":
        text = json.dumps(doc, separators=(",", ":"))
    elif layout == "spaced":
        text = json.dumps(doc)
    elif layout == "random":
        text = _spaced(data.draw, doc, rows)
    else:
        text = json.dumps(doc, indent=layout)
    assert _same_outcome(text, ref_parse_group_file)


def _mutate(draw, doc, rows, mutation):
    """The text of doc with one defect in or around its table."""
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    cell = rows[i][j]
    if mutation == "ragged":
        rows[i] = rows[i][:-1] if n > 1 and draw(st.booleans()) else rows[i] + ["0"]
    elif mutation in _CELL_TEXT:
        k = rows[i].index("0") if mutation == "minus-zero" else j    # -0 reads as 0
        rows[i][k] = _CELL_TEXT[mutation].format(rows[i][k])
    elif mutation == "double-comma":
        rows[i][j] = cell + ","
    elif mutation == "extra-bracket":
        rows[i][-1] += "]"
    elif mutation == "duplicate-key":
        other = [[0] * n] * n if draw(st.booleans()) else [[0]]
        text = _spaced(draw, doc, rows)
        dup = '"table": ' + json.dumps(other)
        return (text[:1] + dup + ", " + text[1:] if draw(st.booleans())
                else text[:-1] + ", " + dup + "}")
    elif mutation == "separator":
        # a "," between two cells, or between two rows, made another byte
        text = _spaced(draw, doc, rows)
        between = re.finditer(r"[0-9\]][ \t\n\r]*,(?=[ \t\n\r]*[0-9\[])", text)
        commas = [m.end() - 1 for m in between]
        k = draw(st.sampled_from(commas)) if commas else len(text)
        return text[:k] + draw(st.sampled_from(";:.x]")) + text[k + 1:]
    elif mutation == "escaped-key":
        text = _spaced(draw, doc, rows)
        if draw(st.booleans()):
            return text.replace('"table"', '"\\u0074able"')
        return text[:-1] + ', "\\u0074able": [[0]]}'
    elif mutation == "name-table":
        doc = {"name": 'x"table', **doc} if draw(st.booleans()) else {'x"table': [[0]], **doc}
    elif mutation == "nested-table":
        doc = {"meta": {"table": [[int(v) for v in r] for r in rows]}, **doc}
        if draw(st.booleans()):
            rows[i][j] = str((int(cell) + 1) % n)
    text = _spaced(draw, doc, rows)
    if mutation in _BAD_SPACE:
        at = text.index("[", text.index('"table"')) + 1
        text = text[:at] + _BAD_SPACE[mutation] + text[at:]
    return text


_CELL_TEXT = {"leading-zero": "0{}", "minus-zero": "-{}", "float": "{}.0", "exponent": "{}e0",
              "true": "true", "ten-digits": "100000000{}", "space-in-number": "{} 1"}
_BAD_SPACE = {"vertical-tab": "\x0b", "form-feed": "\x0c", "no-break-space": "\u00a0"}


@pytest.mark.parametrize("mutation", [*_CELL_TEXT, "ragged", "double-comma", "separator",
                                      "extra-bracket", *_BAD_SPACE, "duplicate-key", "escaped-key",
                                      "name-table", "nested-table"])
@settings(max_examples=20)
@given(data=st.data())
def test_table_read_from_bytes_matches_json_loads_on_near_grammar_files(ref_parse_group_file,
                                                                        mutation, data):
    doc, rows = data.draw(_group_docs())
    _same_outcome(_mutate(data.draw, doc, rows, mutation), ref_parse_group_file)


# cells at the edges of the decoder's row blocks: the first cell of a
# block's first row and the last cell of its last row, in tables of one,
# one short of, exactly, and one past one and two blocks
_BLOCK_ORDERS = [1, 31, 32, 33, 64, 65]
_EDGE_CELLS = {"plain": "{}", "nine-digits": "123456789", "ten-digits": "1234567890",
               "leading-zero": "0{}"}
_FIXED_LAYOUTS = ["compact", "spaced", *range(11)]
_MARK = 987654321                       # a cell no table here holds, replaced in the text


def _edge_files(order, cell):
    """(block, edge, doc, rows): cyclic:order renamed so that the identity
    sits at its last index, with `cell` at the first or last cell of each
    block; doc holds _MARK there and rows the cells as text."""
    G = catalog_group(f"cyclic:{order}")
    perm = np.roll(np.arange(order), 1)                # element i renamed i - 1 mod order
    inv = np.argsort(perm)
    table = perm[G.table.astype(np.int64)[np.ix_(inv, inv)]].tolist()
    for r0 in range(0, order, fileio.TABLE_BLOCK_ROWS):
        for edge, (i, j) in (("first", (r0, 0)),
                             ("last", (min(r0 + fileio.TABLE_BLOCK_ROWS, order) - 1, order - 1))):
            rows = [[str(v) for v in row] for row in table]
            rows[i][j] = _EDGE_CELLS[cell].format(rows[i][j])
            marked = [row[:] for row in table]
            marked[i][j] = _MARK
            yield r0 // fileio.TABLE_BLOCK_ROWS, edge, {"order": order, "table": marked}, rows


def _laid_out(doc, rows, layout, draw=None):
    if layout == "random":
        return _spaced(draw, doc, rows)
    text = (json.dumps(doc, separators=(",", ":")) if layout == "compact"
            else json.dumps(doc) if layout == "spaced" else json.dumps(doc, indent=layout))
    i, j = next((i, row.index(_MARK)) for i, row in enumerate(doc["table"]) if _MARK in row)
    return text.replace(str(_MARK), rows[i][j])


@pytest.mark.parametrize("cell", list(_EDGE_CELLS))
@pytest.mark.parametrize("order", _BLOCK_ORDERS)
def test_table_read_from_bytes_at_block_edges(ref_parse_group_file, order, cell):
    # the same group, names, relabeled_from, dtype and table as json.loads,
    # or the same error, in every fixed layout; a nine-digit cell is
    # decoded from bytes, a ten-digit or leading-zero cell is left to json.loads
    for block, edge, doc, rows in _edge_files(order, cell):
        for layout in _FIXED_LAYOUTS:
            text = _laid_out(doc, rows, layout)
            from_bytes = _same_outcome(text, ref_parse_group_file)
            assert from_bytes == (cell in ("plain", "nine-digits")), (block, edge, layout)
            if cell == "nine-digits":
                decoded = fileio._table_document(bytearray(text.encode()))["table"]
                assert decoded.dtype == np.int64 and (decoded == 123456789).sum() == 1


@pytest.mark.parametrize("cell", list(_EDGE_CELLS))
@pytest.mark.parametrize("order", _BLOCK_ORDERS)
@settings(max_examples=5)
@given(data=st.data())
def test_table_read_from_bytes_at_block_edges_in_random_layouts(ref_parse_group_file, order,
                                                                cell, data):
    for block, edge, doc, rows in _edge_files(order, cell):
        text = _laid_out(doc, rows, "random", data.draw)
        assert _same_outcome(text, ref_parse_group_file) == (cell in ("plain", "nine-digits"))


def test_table_read_from_bytes_allocates_the_table_and_one_block():
    # unitriangular4:3 in the compact layout, 2.0 MB of text: the traced
    # peak is the int64 table and one block's buffers, 128 bytes per cell of
    # TABLE_BLOCK_ROWS rows (the byte masks of its text, the token offsets,
    # the digit-run offsets and the digit sums).  A temporary as long as the
    # table's text, even one bool mask, raises the peak past them
    T = catalog_group("unitriangular4:3").table
    n = len(T)
    data = bytearray(json.dumps({"order": n, "table": T.tolist()}, separators=(",", ":")).encode())
    assert len(data) > 3 * n * n
    assert fileio._table_document(data) is not None      # fills Python's free lists
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = fileio._table_document(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert doc["table"].dtype == np.int64 and np.array_equal(doc["table"], T)
    block = 128 * fileio.TABLE_BLOCK_ROWS * n
    assert peak < doc["table"].nbytes + block, (peak, doc["table"].nbytes, block)


def test_math_validation_propagates(tmp_path):
    latin_bad = _write(tmp_path, "lat.json",
                       {"order": 3, "table": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]})
    with pytest.raises(NotLatinSquare):
        parse_group_file(latin_bad)
    nonassoc = _write(tmp_path, "na.json", {"order": 5, "table": [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]})
    with pytest.raises(NotAssociative):
        parse_group_file(nonassoc)


def test_declared_size_past_order_cap_is_refused_before_parsing(tmp_path, monkeypatch):
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "4")
    # the cap is checked before the table is read, so a bogus table still
    # gives OrderCapExceeded rather than a ParseError
    table = _write(tmp_path, "t.json", {"order": 5, "table": "not read"})
    with pytest.raises(OrderCapExceeded) as exc:
        parse_group_file(table)
    assert (exc.value.cap, exc.value.reached) == (4, 5)
    assert str(exc.value) == "declared order 5 exceeds cap 4"
    gens = _write(tmp_path, "g.json", {"degree": 8, "generators": "not read"})
    with pytest.raises(OrderCapExceeded, match="^declared degree 8 exceeds cap 4$"):
        parse_group_file(gens)
    ok = _write(tmp_path, "k.json", {"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                                           [2, 3, 0, 1], [3, 2, 1, 0]]})
    assert parse_group_file(ok).order == 4


def _no_read_text(monkeypatch):
    def no_read(self, *args, **kwargs):
        raise AssertionError("the file was read whole")

    monkeypatch.setattr(Path, "read_text", no_read)


def test_oversized_file_is_refused_after_at_most_the_bound(tmp_path, monkeypatch):
    big = tmp_path / "c64.json"
    write_group_file(catalog_group("cyclic:64"), big)
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "4")
    bound = max_group_file_bytes(4)
    assert big.stat().st_size > bound
    _no_read_text(monkeypatch)
    with pytest.raises(OrderCapExceeded) as exc:
        parse_group_file(big)
    assert (exc.value.cap, exc.value.reached) == (4, bound + 1)
    assert str(exc.value) == (f"file is longer than {bound} bytes, the bound for order cap 4, "
                              f"which counts whitespace: at most {CELL_LAYOUT_BYTES} bytes "
                              "of it per table cell")


class _Endless:
    """A file object that never ends, counting the bytes it serves."""

    served = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self, size=-1):
        assert size >= 0, "unbounded read"
        self.served += size
        return b" " * size


def test_endless_source_is_refused_after_at_most_the_bound(tmp_path, monkeypatch):
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "4")
    stream = _Endless()
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: stream)
    _no_read_text(monkeypatch)
    with pytest.raises(OrderCapExceeded, match="file is longer than"):
        parse_group_file(tmp_path / "pipe")
    assert stream.served == max_group_file_bytes(4) + 1


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
def test_device_that_reports_size_zero_is_bounded(monkeypatch):
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "4")
    with pytest.raises(OrderCapExceeded) as exc:
        resolve_group("file:/dev/zero")
    assert exc.value.reached == max_group_file_bytes(4) + 1


def test_table_at_the_cap_is_read_at_the_widest_admitted_indent(tmp_path, monkeypatch):
    # json.dumps at indent 10 puts 3 * 10 + 2 = CELL_LAYOUT_BYTES on each table cell
    G = catalog_group("cyclic:320")
    doc = {"name": G.name, "order": G.order, "table": G.table.tolist(), "names": list(G.names)}
    p = tmp_path / "c320.json"
    p.write_text(json.dumps(doc, indent=10))
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "320")
    assert p.stat().st_size > G.order ** 2 * CELL_LAYOUT_BYTES
    back = parse_group_file(p)
    assert back.order == 320 and np.array_equal(back.table, G.table)


def test_files_the_cap_admits_are_under_the_byte_bound(tmp_path, monkeypatch):
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "16")
    G = catalog_group("dihedral:16")
    p = tmp_path / "d16.json"
    write_group_file(G, p)
    doc = json.loads(p.read_text())
    doc["names"] = ["\U0001d54f" * (MAX_NAME_CHARS - 2) + f"{i:02d}" for i in range(16)]
    doc["name"] = "n" * MAX_NAME_CHARS
    p.write_text(json.dumps(doc, indent=4))
    assert parse_group_file(p).order == 16


@pytest.mark.parametrize("field", ["name", "names"])
def test_names_longer_than_the_cap_are_refused(tmp_path, field):
    long = "x" * (MAX_NAME_CHARS + 1)
    doc = {"order": 2, "table": [[0, 1], [1, 0]]}
    doc[field] = long if field == "name" else ["e", long]
    with pytest.raises(ParseError, match=f"longer than {MAX_NAME_CHARS} characters"):
        parse_group_file(_write(tmp_path, "n.json", doc))


def test_resolve_group(tmp_path):
    assert resolve_group("cyclic:5").order == 5
    p = _write(tmp_path, "k.json", {"order": 2, "table": [[0, 1], [1, 0]]})
    assert resolve_group(f"file:{p}").order == 2


def test_gather_sources_dir(tmp_path):
    for name in ("b.json", "a.json", "skip.txt"):
        (tmp_path / name).write_text("{}")
    got = gather_sources(str(tmp_path))
    assert got == [f"file:{tmp_path/'a.json'}", f"file:{tmp_path/'b.json'}"]


def test_gather_sources_list_file(tmp_path):
    lst = tmp_path / "specs.txt"
    lst.write_text("cyclic:3\n\n# a comment\nwreath33\n")
    assert gather_sources(str(lst)) == ["cyclic:3", "wreath33"]


def test_gather_sources_missing(tmp_path):
    with pytest.raises(ParseError):
        gather_sources(str(tmp_path / "nope"))


def test_report_document_shape(d16):
    reports = verify_suite(d16, ["char-commutant", "two-engel-implies-class2"])
    doc = report_document(d16, reports, source="dihedral:16")
    assert doc["schema"] == "gyrolab-report/1"
    assert doc["group"]["order"] == 16
    assert doc["summary"] == {"pass": 1, "fail": 0, "skipped": 1}
    for entry in doc["checks"]:
        assert "timing" not in entry
    # serialization is stable
    assert dumps_json(doc) == dumps_json(json.loads(dumps_json(doc)))


def test_matrix_csv():
    assert matrix_csv([[0, 1], [2, 3]]) == "0,1\n2,3\n"


def test_matrix_csv_matches_per_cell_format_on_arrays_and_lists(d16):
    table = catalog_group("heisenberg:5").table
    assert table.dtype == elem_dtype(len(table))
    for m in (table, table.astype(np.int32), table.tolist(), d16.table[:3], [[7, 10, 123]]):
        rows = np.asarray(m)
        expected = "\n".join(",".join(str(int(v)) for v in row) for row in rows) + "\n"
        assert matrix_csv(m) == expected



_CSV_CASES = [[[5]], [[3, 1, 4, 1, 5]], [[2], [7], [1]], [[9, 10], [10, 9]], [[99, 100, 0]],
              [[-3, 0, 7], [12, -100, 5]], [[-9, -10], [-99, 100]], [[8, 9, 10, 11], [98, 99, 100, 101]]]


@pytest.mark.parametrize("m", [np.array(m, dtype=dtype) for m in _CSV_CASES
                               for dtype in (np.uint16, np.int32, np.int64)
                               if dtype is not np.uint16 or min(map(min, m)) >= 0] + _CSV_CASES)
def test_matrix_csv_equals_the_str_join_reference(ref_matrix_csv, m):
    # widths 1, 2 and 3 around 9/10 and 99/100, negative cells, 1 x 1, 1 x k
    # and k x 1, as arrays of each dtype and as lists
    assert matrix_csv(m) == ref_matrix_csv(m)


@pytest.mark.parametrize("m", [[], np.zeros((0, 0), dtype=np.int64),
                               np.zeros((0, 3), dtype=np.uint16), np.zeros((3, 0), dtype=np.int32)])
def test_matrix_csv_of_an_empty_matrix_equals_the_reference(ref_matrix_csv, m):
    assert matrix_csv(m) == ref_matrix_csv(m)


def test_matrix_csv_equals_the_reference_on_ladder_tables(ref_matrix_csv):
    for spec in ("dihedral:16", "wreath33", "heisenberg:5"):
        G = catalog_group(spec)
        assert matrix_csv(G.table) == ref_matrix_csv(G.table)
        assert export_text(G, "circ-table", "csv") == ref_matrix_csv(
            json.loads(export_text(G, "circ-table", "json"))["table"])

def test_export_circ_table_csv(d16):
    text = export_text(d16, "circ-table", "csv")
    rows = text.strip().split("\n")
    assert len(rows) == 16
    assert rows[0] == ",".join(str(i) for i in range(16))


def test_export_gyration_json(d16):
    doc = json.loads(export_text(d16, "gyration-table", "json"))
    assert doc["kind"] == "gyration-table"
    assert len(doc["gyrations"]) == 2
    assert doc["ids"][0][0] == 0


def test_export_factor_set_json(d16):
    doc = json.loads(export_text(d16, "factor-set", "json"))
    assert doc["center"] == [0, 4]
    assert doc["quotient_order"] == 8
    assert len(doc["plain"]) == 8 and len(doc["twisted"]) == 8
    flat = {v for row in doc["plain"] for v in row}
    assert flat <= {0, 1}              # indices into the two-element center
    # the CSV export is the twisted matrix of the document
    assert export_text(d16, "factor-set", "csv") == matrix_csv(doc["twisted"])


def test_export_bad_kind(d16):
    with pytest.raises(ValueError):
        export_text(d16, "nope", "json")
    with pytest.raises(ValueError):
        export_text(d16, "circ-table", "xml")
