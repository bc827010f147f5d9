import json
from pathlib import Path

import numpy as np
import pytest

from gyrolab import (
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
from gyrolab.cli import main
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
    assert table.dtype == np.int32
    for m in (table, table.tolist(), d16.table[:3], [[7, 10, 123]]):
        rows = np.asarray(m)
        expected = "\n".join(",".join(str(int(v)) for v in row) for row in rows) + "\n"
        assert matrix_csv(m) == expected


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


def test_export_bad_kind(d16):
    with pytest.raises(ValueError):
        export_text(d16, "nope", "json")
    with pytest.raises(ValueError):
        export_text(d16, "circ-table", "xml")
