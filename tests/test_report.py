import json
import sys
from fractions import Fraction

import pytest

from liedim.render import FAST_STR_MIN_BITS, render_fraction
from liedim.report import (
    CSV_COLUMNS,
    ConvergenceRow,
    RunConfig,
    build_b_rows,
    build_c_rows,
    rows_from_json,
    to_csv,
    to_json,
)

# float-bits 16 keeps the goldens short (4 decimal digits)
B_GOLDEN_CSV = """\
r,p,m,k,dim_num,dim_den_context,ratio_num,ratio_den,ratio_float,bound_float,gap_float
3,2,0,3,2,2,1,1,1.0000,1.0000,0.0000
6,2,1,3,8,9,8,9,0.8889,0.1458,0.1111
12,2,2,3,304,335,304,335,0.9075,0.5692,0.0925
"""

C_GOLDEN_CSV = """\
r,p,m,k,dim_num,dim_den_context,ratio_num,ratio_den,ratio_float,bound_float,gap_float
3,2,0,3,2,2,1,1,1.0000,1.0000,0.0000
6,2,1,3,80,120,2,3,0.6667,0.6667,0.3333
12,2,2,3,35481600,39916800,8,9,0.8889,0.7963,0.1111
"""


def test_run_config_validation():
    cfg = RunConfig(p=2, k_list=(3,), m_max=2, n=2)
    assert cfg.float_bits == 128
    with pytest.raises(ValueError):
        RunConfig(p=4, k_list=(3,), m_max=2)
    with pytest.raises(ValueError):
        RunConfig(p=2, k_list=(), m_max=2)
    with pytest.raises(ValueError):
        RunConfig(p=2, k_list=(3, 3), m_max=2)
    with pytest.raises(ValueError):
        RunConfig(p=2, k_list=(4,), m_max=2)
    with pytest.raises(ValueError):
        RunConfig(p=2, k_list=(3,), m_max=-1)
    with pytest.raises(ValueError):
        RunConfig(p=2, k_list=(3,), m_max=2, n=1)
    with pytest.raises(ValueError):
        RunConfig(p=2, k_list=(3,), m_max=2, float_bits=0)


def test_b_rows_golden_csv():
    cfg = RunConfig(p=2, k_list=(3,), m_max=2, n=2, float_bits=16)
    assert to_csv(build_b_rows(cfg)) == B_GOLDEN_CSV


def test_c_rows_golden_csv():
    cfg = RunConfig(p=2, k_list=(3,), m_max=2, float_bits=16)
    assert to_csv(build_c_rows(cfg)) == C_GOLDEN_CSV


def test_b_rows_need_n():
    cfg = RunConfig(p=2, k_list=(3,), m_max=2)
    with pytest.raises(ValueError):
        build_b_rows(cfg)


def test_rows_sorted_by_degree_across_chains():
    cfg = RunConfig(p=2, k_list=(5, 3), m_max=1, n=2, float_bits=16)
    rows = build_b_rows(cfg)
    assert [row.r for row in rows] == [3, 5, 6, 10]
    assert [row.r for row in rows] == sorted(row.r for row in rows)


def test_k1_chain_conventions():
    # k = 1: ratio 0 from r = p on, and no finite bound to report
    cfg = RunConfig(p=2, k_list=(1,), m_max=3, n=2, float_bits=16)
    rows = build_b_rows(cfg)
    assert [row.r for row in rows] == [1, 2, 4, 8]
    assert rows[0].ratio == 1 and rows[0].bound_float == "1.0000"
    for row in rows[1:]:
        assert row.ratio == 0
        assert row.bound_float == ""
        assert 1 - row.ratio == 1


def test_gap_is_one_minus_ratio():
    cfg = RunConfig(p=3, k_list=(2,), m_max=3, n=3, float_bits=16)
    for row in build_b_rows(cfg):
        assert row.gap_float == render_fraction(1 - row.ratio, 16)
    for row in build_c_rows(cfg):
        assert row.gap_float == render_fraction(1 - row.ratio, 16)


def test_csv_structure():
    cfg = RunConfig(p=2, k_list=(3,), m_max=1, n=2, float_bits=16)
    text = to_csv(build_b_rows(cfg))
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert text.endswith("\n")
    assert "\r" not in text


def test_json_round_trip():
    cfg = RunConfig(p=2, k_list=(3, 5), m_max=2, n=2)
    rows = build_b_rows(cfg)
    assert rows_from_json(to_json(rows)) == rows

    cfg = RunConfig(p=3, k_list=(2,), m_max=2)
    rows = build_c_rows(cfg)
    assert rows_from_json(to_json(rows)) == rows


def test_one_schema_at_size():
    # (r-1)! at r = 3 * 2^11 is past FAST_STR_MIN_BITS, so the records take
    # int_to_str's divide-and-conquer path
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = build_c_rows(RunConfig(p=2, k_list=(3,), m_max=11))
        text = to_json(rows)
        assert rows_from_json(text) == rows
        records = json.loads(text)
        assert records[-1]["dim_den_context"] == str(rows[-1].dim_den_context)
    finally:
        sys.set_int_max_str_digits(saved)
    assert rows[-1].dim_den_context.bit_length() > FAST_STR_MIN_BITS
    assert all(type(row) is ConvergenceRow for row in rows)
    assert len(records) == len(rows) == 12
    for record in records:
        assert tuple(record) == CSV_COLUMNS


def test_json_big_integers_as_strings():
    cfg = RunConfig(p=2, k_list=(3,), m_max=2, float_bits=16)
    payload = json.loads(to_json(build_c_rows(cfg)))
    row = payload[-1]
    assert row["r"] == 12 and row["p"] == 2 and row["m"] == 2 and row["k"] == 3
    assert row["dim_num"] == "35481600"
    assert row["dim_den_context"] == "39916800"
    assert row["ratio_num"] == "8" and row["ratio_den"] == "9"
    assert isinstance(row["ratio_float"], str)


def test_ratio_fields_in_lowest_terms():
    cfg = RunConfig(p=2, k_list=(3,), m_max=2, float_bits=16)
    rows = build_c_rows(cfg)
    assert rows[1].ratio == Fraction(2, 3)
    assert rows[1].dim_num == 80 and rows[1].dim_den_context == 120
