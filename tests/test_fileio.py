"""Wire formats: dataset CSV and instance JSON."""

import json

import numpy as np
import pytest

from curvebench import fileio
from curvebench.generator import make_descriptor


class TestPointCloudCsv:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 7)) * 10.0 ** rng.integers(-8, 8, size=(20, 7))
        path = tmp_path / "cloud.csv"
        fileio.write_point_cloud_csv(path, pts, prefix="x")
        back = fileio.read_point_cloud_csv(path, prefix="x")
        assert np.array_equal(back, pts)

    def test_header_names(self, tmp_path):
        path = tmp_path / "emb.csv"
        fileio.write_point_cloud_csv(path, np.zeros((2, 3)), prefix="y")
        assert path.read_text().splitlines()[0] == "y1,y2,y3"

    def test_wrong_prefix_rejected(self, tmp_path):
        path = tmp_path / "cloud.csv"
        fileio.write_point_cloud_csv(path, np.zeros((2, 2)), prefix="x")
        with pytest.raises(ValueError, match="header"):
            fileio.read_point_cloud_csv(path, prefix="y")

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y2\n1.0,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            fileio.read_point_cloud_csv(path, prefix="y")

    def test_ragged_row_reported_with_its_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y1,y2\n1.0,2.0\n\n3.0\n")
        with pytest.raises(ValueError, match="ragged rows \\(line 4 "):
            fileio.read_point_cloud_csv(path, prefix="y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reported_with_its_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"y1,y2\n1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(ValueError, match="non-finite cell on line 4"):
            fileio.read_point_cloud_csv(path, prefix="y")

    def test_repeated_writes_are_byte_identical(self, tmp_path):
        pts = np.array([[1 / 3, np.pi], [-1e-17, 2e300]])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_point_cloud_csv(a, pts)
        fileio.write_point_cloud_csv(b, pts)
        assert a.read_bytes() == b.read_bytes()


class TestInstanceJson:
    def test_roundtrip_preserves_descriptor(self, tmp_path):
        d = make_descriptor(("sine", "circle"), (1.2, 1.8), eta=0.01, seed=12345)
        path = tmp_path / "inst.json"
        fileio.write_instance_json(path, d)
        back = fileio.read_instance_json(path)
        assert back == d

    def test_exact_key_set(self, tmp_path):
        d = make_descriptor(("flat", "flat"), (1.2, 1.2))
        path = tmp_path / "inst.json"
        fileio.write_instance_json(path, d)
        obj = fileio.read_json(path)
        assert tuple(obj.keys()) == fileio.INSTANCE_KEYS

    @pytest.mark.parametrize("key,value", [
        ("thetas", 1.2),
        ("thetas", ["1.2", "1.8"]),
        ("thetas", [True, 1.8]),
        ("families", "sine"),
        ("families", ["sine", 3]),
    ])
    def test_wrongly_typed_list_is_named(self, tmp_path, key, value):
        d = make_descriptor(("sine", "circle"), (1.2, 1.8))
        path = tmp_path / "inst.json"
        fileio.write_instance_json(path, d)
        obj = fileio.read_json(path)
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"inst.json: '{key}' must be a list of"):
            fileio.read_instance_json(path)

    @pytest.mark.parametrize("key,value", [
        ("eta", None),
        ("seed", [1]),
        ("n", "two"),
        ("grid_resolution", float("inf")),
        ("thetas", [10**400, 1.2]),
    ])
    def test_unconvertible_field_is_named(self, tmp_path, key, value):
        d = make_descriptor(("sine", "circle"), (1.2, 1.8))
        path = tmp_path / "inst.json"
        fileio.write_instance_json(path, d)
        obj = fileio.read_json(path)
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"inst.json: bad value .* for '{key}'"):
            fileio.read_instance_json(path)

    def test_convertible_fields_stay_accepted(self, tmp_path):
        d = make_descriptor(("sine", "circle"), (1.2, 2.0), eta=0.01, seed=3)
        path = tmp_path / "inst.json"
        fileio.write_instance_json(path, d)
        obj = fileio.read_json(path)
        obj.update(n="2", seed=3.0, eta="0.01", thetas=[1.2, 2])
        path.write_text(json.dumps(obj))
        assert fileio.read_instance_json(path) == d

    @pytest.mark.parametrize("key,value", [
        ("seed", 3.7),
        ("seed", True),
        ("grid_resolution", 16.9),
        ("n", "3.7"),
        ("m", False),
    ])
    def test_non_integral_integer_field_is_named(self, tmp_path, key, value):
        d = make_descriptor(("sine", "circle"), (1.2, 1.8))
        path = tmp_path / "inst.json"
        fileio.write_instance_json(path, d)
        obj = fileio.read_json(path)
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"inst.json: bad value {value!r} for '{key}'"):
            fileio.read_instance_json(path)

    @pytest.mark.parametrize("reader", [fileio.read_instance_json, fileio.read_json])
    def test_invalid_json_names_its_file(self, tmp_path, reader):
        path = tmp_path / "inst.json"
        path.write_text('{"n": 2,')
        with pytest.raises(ValueError, match="inst.json: not valid JSON .Expecting property name"):
            reader(path)

    @pytest.mark.parametrize("text", ["5\n", "[1, 2]\n", "null\n", '"inst"\n'])
    def test_non_object_file_rejected(self, tmp_path, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="inst.json: expected a JSON object"):
            fileio.read_instance_json(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2}\n')
        with pytest.raises(ValueError, match="missing keys"):
            fileio.read_instance_json(path)
