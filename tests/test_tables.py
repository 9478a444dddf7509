import pytest

from mlstab import tables


def no_solve(*args, **kwargs):
    raise AssertionError("a cell ran before the arguments were checked")


class TestSpecs:
    def test_table_ids(self):
        assert tables.TABLE_IDS == ("T2", "T3", "T4", "T5", "T6", "T7")

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            tables.reproduce("T11")

    def test_zero_offset_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(tables, "solve", no_solve)
        with pytest.raises(ValueError, match="m must be a positive integer"):
            tables.reproduce("T4", m=0)

    def test_reference_values_spot_checks(self):
        assert tables._T2["fbdf1"][(500.0, 0.5)] == 0.5002
        assert tables._T3["l1"][(100.0, 0.9)] == 0.9011
        assert tables._T4["fbdf1"][(10.0, 0.7)] == 0.7014
        assert tables._T6["fbdf2"][(20.0, 0.3)] == 0.2770
        assert tables._T7["alpha_diff"][(100.0, 0.5)] == 1.4998

    def test_t7_asserts_only_half_alpha(self):
        spec = tables._SPECS["T7"]
        assert spec.asserted("alpha_diff", 20.0, 0.5)
        assert not spec.asserted("alpha_diff", 20.0, 0.9)


class TestCsvRendering:
    def test_layout(self):
        cell = tables.CellResult("T2", "fbdf1", 100.0, 0.3, 0.30091, 0.3009,
                                 1e-5, 1e-3, True, True)
        text = tables.results_to_csv([cell])
        lines = text.splitlines()
        assert lines[0].startswith("table,scheme,t,alpha")
        assert lines[1] == "T2,fbdf1,100,0.3,0.300910,0.3009,0.000010,0.001,1,1"
