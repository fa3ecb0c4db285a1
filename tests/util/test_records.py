"""Unit tests for repro.util.records."""

import pytest
from hypothesis import given, strategies as st

from repro.util.records import ResultRecord, ResultSet


def rec(config="coarse", size=8, lat=3.5, exp="fig3", **extra):
    return ResultRecord(experiment=exp, config=config, size=size, latency_us=lat, extra=extra)


class TestResultRecord:
    def test_roundtrip_dict(self):
        r = rec(extra_metric=42)
        assert ResultRecord.from_dict(r.to_dict()) == r

    def test_frozen(self):
        with pytest.raises(AttributeError):
            rec().latency_us = 1.0


class TestResultSet:
    def test_empty(self):
        rs = ResultSet()
        assert len(rs) == 0
        assert rs.configs() == []
        assert rs.sizes() == []

    def test_add_iter(self):
        rs = ResultSet()
        rs.add(rec(size=1))
        rs.add(rec(size=2))
        assert len(rs) == 2
        assert [r.size for r in rs] == [1, 2]
        assert rs[1].size == 2

    def test_configs_first_seen_order(self):
        rs = ResultSet([rec(config="fine"), rec(config="none"), rec(config="fine")])
        assert rs.configs() == ["fine", "none"]

    def test_sizes_sorted(self):
        rs = ResultSet([rec(size=1024), rec(size=1), rec(size=64)])
        assert rs.sizes() == [1, 64, 1024]

    def test_series_sorted_by_size(self):
        rs = ResultSet(
            [rec(config="c", size=64, lat=5.0), rec(config="c", size=1, lat=3.0),
             rec(config="other", size=1, lat=9.9)]
        )
        assert rs.series("c") == [(1, 3.0), (64, 5.0)]

    def test_point(self):
        rs = ResultSet([rec(config="c", size=8, lat=4.2)])
        assert rs.point("c", 8) == 4.2

    def test_point_missing(self):
        with pytest.raises(KeyError):
            ResultSet().point("c", 8)

    def test_point_ambiguous(self):
        rs = ResultSet([rec(config="c", size=8), rec(config="c", size=8)])
        with pytest.raises(ValueError):
            rs.point("c", 8)

    def test_json_roundtrip(self):
        rs = ResultSet([rec(size=1, lat=3.25, note="x"), rec(config="fine", size=2048)])
        rs2 = ResultSet.from_json(rs.to_json())
        assert list(rs2) == list(rs)

    def test_from_json_rejects_non_list(self):
        with pytest.raises(ValueError):
            ResultSet.from_json('{"a": 1}')

    def test_save_load(self, tmp_path):
        rs = ResultSet([rec()])
        path = str(tmp_path / "out.json")
        rs.save(path)
        assert list(ResultSet.load(path)) == list(rs)

    def test_to_csv_header_and_rows(self):
        rs = ResultSet(
            [rec(config="fine", size=8, lat=3.5, run=1), rec(size=64, lat=4.0)]
        )
        lines = rs.to_csv().splitlines()
        assert lines[0] == "experiment,config,size,latency_us,run"
        assert lines[1] == "fig3,fine,8,3.5,1"
        assert lines[2] == "fig3,coarse,64,4.0,"  # missing extra -> empty cell
        assert len(lines) == 3

    def test_to_csv_extra_keys_sorted_union(self):
        rs = ResultSet([rec(zeta=1), rec(alpha=2)])
        header = rs.to_csv().splitlines()[0]
        assert header.endswith("alpha,zeta")

    def test_to_csv_quotes_and_structured_extras(self):
        rs = ResultSet([rec(config='co,ar"se', meta={"b": 2, "a": 1})])
        text = rs.to_csv()
        assert '"co,ar""se"' in text  # proper CSV quoting
        assert '{""a"": 1, ""b"": 2}' in text  # dict extras as sorted JSON

    def test_to_csv_empty(self):
        assert ResultSet().to_csv() == "experiment,config,size,latency_us\n"

    def test_save_csv(self, tmp_path):
        rs = ResultSet([rec()])
        path = str(tmp_path / "out.csv")
        rs.save_csv(path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == rs.to_csv()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=4096),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=30,
        )
    )
    def test_series_union_covers_all_records(self, points):
        rs = ResultSet([rec(config=c, size=s, lat=v) for c, s, v in points])
        total = sum(len(rs.series(c)) for c in rs.configs())
        assert total == len(rs)
