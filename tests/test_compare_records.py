"""tools/compare_records.py: how two records' schedule fields are compared."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_records.py"
_spec = importlib.util.spec_from_file_location("compare_records", TOOL)
compare_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_records)


def _blob(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


def _verdict(parent: dict, change: dict) -> str:
    return compare_records.schedule_verdict(_blob(parent), _blob(change),
                                            "rdm-0-1-record.json")


def test_schedule_fields_are_paired_by_path():
    """A field only the change has does not shift the pairing, so a changed
    shot count beside it is reported, and an equal d_prop is not."""
    parent = {"shots": 7538278, "intermediate": {"d_prop": 76, "n_g": 9,
                                                 "x_good": 0.25}}
    change = {"shots": 2502714, "intermediate": {"d_gse": 64, "d_prop": 76,
                                                 "n_g": 9, "x_good": 0.5}}
    assert _verdict(parent, change) == ("schedule differs: shots 7538278 -> "
                                        "2502714; intermediate.d_gse missing "
                                        "in parent")
    assert _verdict(change, parent) == ("schedule differs: intermediate.d_gse "
                                        "missing in change; shots 2502714 -> "
                                        "7538278")


def test_matching_schedules_and_records_without_one():
    record = {"shots": 10, "intermediate": {"d_prop": 76, "x_good": 0.25}}
    moved = dict(record, intermediate={"d_prop": 76, "x_good": 0.5})
    assert _verdict(record, moved) == "shots and schedule match"
    assert _verdict({"x": 1}, {"x": 2}) == "no schedule fields"


def test_weighted_group_size_is_a_schedule_field():
    parent = {"shots": 5136090, "intermediate": {"k_weighted": 259473}}
    change = {"shots": 3618225, "intermediate": {"k_weighted": 183645}}
    assert _verdict(parent, change) == ("schedule differs: "
                                        "intermediate.k_weighted 259473 -> "
                                        "183645; shots 5136090 -> 3618225")


def test_numbers_are_paired_by_path_and_unpaired_paths_are_named():
    """A field only one record has does not make the numeric difference
    infinite: the numbers at shared paths are compared, and the extra paths
    are listed apart, with the side that lacks them."""
    parent = {"estimate": [0.5, 0.25], "shots": 100,
              "intermediate": {"k_weighted": 10, "p0_bar": 0.8}}
    change = {"estimate": [0.5, 0.0], "shots": 80,
              "intermediate": {"k_weighted": 8, "p0_bar": 0.8,
                               "real_target": True}}
    args = _blob(parent), _blob(change), "record.json"
    assert compare_records.largest_difference(*args) == 1.0
    assert compare_records.unpaired_paths(*args) == [
        "intermediate.real_target missing in parent"]
    assert compare_records.unpaired_paths(*reversed(args[:2]), "record.json") == [
        "intermediate.real_target missing in change"]
    assert compare_records.largest_difference(_blob(parent), _blob(parent),
                                              "record.json") == 0.0
    assert compare_records.unpaired_paths(_blob(parent), _blob(parent),
                                          "record.json") == []
