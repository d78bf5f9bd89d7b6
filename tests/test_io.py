"""Definition-file loading, saving and canonical serialization."""

import json

import pytest

from hyperrings.io import (
    FileFormatError,
    load_ring,
    ring_from_obj,
    ring_sha256,
    ring_to_json_bytes,
    ring_to_obj,
    save_ring,
)
from hyperrings.construct import quotient
from hyperrings.bitsets import mask_of


def test_round_trip_is_byte_identical(tmp_path, z6a):
    path = tmp_path / "ring.json"
    save_ring(z6a, path)
    loaded = load_ring(path)
    assert loaded.table_key() == z6a.table_key()
    again = tmp_path / "ring2.json"
    save_ring(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_sha_is_stable(z4):
    assert ring_sha256(z4) == ring_sha256(z4)
    assert ring_sha256(z4) != ring_sha256(quotient(z4, mask_of([0, 2])).ring)


def test_constructed_ring_carries_provenance(tmp_path, z4):
    q = quotient(z4, mask_of([0, 2])).ring
    obj = ring_to_obj(q)
    assert obj["construction"] == "quotient"
    assert obj["source"] == "Z4"
    path = tmp_path / "q.json"
    save_ring(q, path)
    loaded = load_ring(path)
    assert dict(loaded.provenance)["construction"] == "quotient"


def test_loader_names_bad_field(tmp_path):
    obj = {"name": "bad", "size": 2, "add": [[0, 1], [1, 0]],
           "hmul": [[[0], [0]], [[0], [7]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError) as exc:
        load_ring(path)
    assert "hmul[1][1]" in str(exc.value)
    obj.update(add=[[0, 1], ["1", 0]], hmul=[[[0], [0]], [[0], [1]]])
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError) as exc:
        load_ring(path)
    assert str(exc.value).startswith(f"{path}: add[1][0] = '1'")
    # a JSON true is not element 1, in a table or as the size
    for field, change in [("add[0][1] = True", {"add": [[0, True], [True, 0]]}),
                          ("hmul[1][1] contains True",
                           {"hmul": [[[0], [0]], [[0], [True]]]}),
                          ("field 'size'", {"size": True, "add": [[0]],
                                            "hmul": [[[0]]]}),
                          # provenance is text, kept as written
                          ("field 'params'", {"params": 7}),
                          ("field 'construction'", {"construction": ["product"]}),
                          ("field 'source'", {"source": None})]:
        path.write_text(json.dumps({**obj, "add": [[0, 1], [1, 0]], **change}))
        with pytest.raises(FileFormatError) as exc:
            load_ring(path)
        assert str(exc.value).startswith(f"{path}: {field}"), field


def test_loader_names_empty_cell(tmp_path):
    obj = {"name": "bad", "size": 2, "add": [[0, 1], [1, 0]],
           "hmul": [[[0], [0]], [[0], []]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError) as exc:
        load_ring(path)
    assert "hmul[1][1]" in str(exc.value)


def test_loader_reports_json_syntax_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(FileFormatError) as exc:
        load_ring(path)
    assert "line 2" in str(exc.value)


def test_loader_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(FileFormatError) as exc:
        load_ring(path)
    assert str(exc.value).startswith(f"{path}: not UTF-8 text: ")
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


def test_loader_rejects_wrong_shapes():
    with pytest.raises(FileFormatError):
        ring_from_obj({"name": "x", "size": 2, "add": [[0, 1]], "hmul": []})
    with pytest.raises(FileFormatError):
        ring_from_obj([1, 2, 3])
    with pytest.raises(FileFormatError):
        ring_from_obj({"name": "", "size": 1, "add": [[0]], "hmul": [[[0]]]})


def test_canonical_bytes_sorted_keys(z4):
    data = json.loads(ring_to_json_bytes(z4))
    assert list(data) == sorted(data)
