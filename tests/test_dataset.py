import csv
import io
import logging
import math
import pickle
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heartcbr import cases as cases_module, dataset
from heartcbr.cases import (
    BLOCK_ROWS,
    FEATURE_NAMES,
    VALIDATION_MODES,
    Case,
    CaseValidationError,
    to_feature_vector,
    validate_case,
)
from heartcbr.dataset import (
    CANONICAL_HEADER,
    CaseBase,
    DatasetError,
    DegenerateSplitError,
    parse_csv,
    read_case_base,
    split_sequential,
    write_case_base,
    write_cases,
)
from heartcbr.scaling import NormalizationParams, fit_minmax
from heartcbr.synthetic import generate_rows

from conftest import cases_strategy, in_domain_raw, make_case
from test_cases import _oracle_validate_case

HEADER = "age,sex,cp,trestbps,chol,fbs,restecg,thalach,exang,oldpeak,slope,ca,thal,target"
ROW = "54,1,0,130,250,0,1,150,0,1.0,1,0,2,1"
BAD_CHOL = ROW.replace("250", "abc")
BLANK_TARGET = ROW[:-1]


def test_parse_two_line_file():
    cases = parse_csv(io.StringIO(f"{HEADER}\n{ROW}\n"))
    assert len(cases) == 1
    assert cases[0].age == 54
    assert cases[0].target == 1


def test_parse_reads_a_text_stream_where_it_stands_and_leaves_it_open():
    stream = io.StringIO(f"preamble\n{HEADER}\n{ROW}\n")
    stream.readline()
    assert len(parse_csv(stream)) == 1
    assert not stream.closed


@pytest.mark.parametrize(
    "source", [HEADER.encode(), io.BytesIO(HEADER.encode())], ids=["bytes", "binary-stream"]
)
def test_parse_rejects_bytes_sources(source):
    with pytest.raises(TypeError, match="^unsupported source type"):
        parse_csv(source)


def test_integer_past_the_float_range_rejected_citing_its_line():
    huge = ROW.replace("54", "1" + "0" * 400, 1)
    with pytest.raises(DatasetError, match=r"^line 3: age: integer outside \[-2\*\*53, 2\*\*53\]$"):
        parse_csv(io.StringIO(f"{HEADER}\n{ROW}\n{huge}\n"))
    past_the_digit_limit = ROW.replace("54", "1" * 5000, 1)  # int() takes at most 4,300 digits
    with pytest.raises(DatasetError, match=r"^line 2: age: integer outside \[-2\*\*53, 2\*\*53\]$"):
        parse_csv(io.StringIO(f"{HEADER}\n{past_the_digit_limit}\n"))


def test_parse_error_cites_line_number():
    bad = ROW.replace("250", "abc")
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(f"{HEADER}\n{ROW}\n{bad}\n"))
    assert "line 3" in str(exc.value)
    assert "chol" in str(exc.value)


def test_empty_file_rejected():
    with pytest.raises(DatasetError):
        parse_csv(io.StringIO(""))


def test_header_only_file_parses_empty():
    assert parse_csv(io.StringIO(HEADER + "\n")) == []


def test_unknown_column_rejected():
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(HEADER.replace("chol", "cholesterol") + "\n"))
    assert "cholesterol" in str(exc.value)


def test_missing_column_rejected():
    header = HEADER.replace("chol,", "")
    row = "54,1,0,130,0,1,150,0,1.0,1,0,2,1"
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(f"{header}\n{row}\n"))
    assert "chol" in str(exc.value)


def test_duplicate_column_rejected():
    with pytest.raises(DatasetError):
        parse_csv(io.StringIO(HEADER + ",age\n"))


def test_header_aliases_and_case_insensitivity():
    header = "Age,Gender,cp,resttbps,chol,fbs,restecg,thalach,exang,oldpeak,slope,ca,thal,Target"
    cases = parse_csv(io.StringIO(f"{header}\n{ROW}\n"))
    assert cases[0].sex == 1
    assert cases[0].trestbps == 130


@pytest.mark.parametrize("read", [parse_csv, read_case_base])
def test_a_leading_byte_order_mark_is_dropped(read, tmp_path):
    text = io.StringIO()
    base = CaseBase.from_cases(Case(**row) for row in generate_rows(300, seed=5))
    if read is read_case_base:
        write_case_base(base, text)
    else:
        write_cases(base.cases(), text)
    plain = read(io.StringIO(text.getvalue()))
    marked = "\ufeff" + text.getvalue()
    (tmp_path / "marked.csv").write_text(marked, encoding="utf-8")
    for source in (tmp_path / "marked.csv", str(tmp_path / "marked.csv"), io.StringIO(marked)):
        result = read(source)
        assert result == plain
        if read is read_case_base:
            assert result.ids() == plain.ids()


@pytest.mark.parametrize("column, name", [("age", "\ufeff\ufeffage"), ("age", " \ufeffage"), ("sex", "\ufeffsex")])
def test_a_byte_order_mark_elsewhere_is_an_unknown_column(column, name):
    header = HEADER.replace(column, name, 1)
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(f"{header}\n{ROW}\n"))
    assert str(exc.value) == f"unknown column {name!r}"


def test_target_column_optional():
    header = HEADER.rsplit(",", 1)[0]
    row = ROW.rsplit(",", 1)[0]
    cases = parse_csv(io.StringIO(f"{header}\n{row}\n"))
    assert cases[0].target is None


def test_wrong_field_count_rejected():
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(f"{HEADER}\n54,1,0\n"))
    assert "line 2" in str(exc.value)


def test_strict_mode_propagates():
    row = ROW.replace("54,1,", "54,2,")  # sex out of domain
    with pytest.raises(DatasetError):
        parse_csv(io.StringIO(f"{HEADER}\n{row}\n"), mode="strict")


def test_parse_preserves_order():
    rows = "\n".join(ROW.replace("54", str(age), 1) for age in (61, 40, 59, 33))
    cases = parse_csv(io.StringIO(f"{HEADER}\n{rows}\n"))
    assert [c.age for c in cases] == [61, 40, 59, 33]


# Blank rows as csv.reader sees them: no cells, one blank cell, blank cells.
BLANK_ROWS = ["", "   ", "\t", " , ,\t", ",,,,,,,,,,,,,", '""']


def test_parse_skips_blank_rows_and_cites_the_file_line_after_them():
    bad = ROW.replace("250", "abc")
    text = "\n".join([HEADER, ROW, *BLANK_ROWS, ROW, "", bad]) + "\n"
    bad_line = 2 + len(BLANK_ROWS) + 3
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(text))
    assert str(exc.value) == f"line {bad_line}: chol: non-numeric value 'abc'"
    good = "\n".join([HEADER, ROW, *BLANK_ROWS, ROW, ""]) + "\n"
    assert len(parse_csv(io.StringIO(good))) == 2


def test_parse_cites_the_file_line_of_a_short_row_after_blank_rows():
    text = "\n".join([HEADER, *BLANK_ROWS, "54,1,0"]) + "\n"
    with pytest.raises(DatasetError) as exc:
        parse_csv(io.StringIO(text))
    assert str(exc.value) == f"line {2 + len(BLANK_ROWS)}: expected 14 fields, found 3"


def test_read_case_base_skips_blank_rows_and_cites_the_file_line_after_them(tmp_path):
    path = tmp_path / "base.csv"
    rows = [f"case_id,{HEADER}", f"0,{ROW}", *BLANK_ROWS, f"1,{ROW}", "  ", f"2,{ROW[:-1]}7"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetError) as exc:
        read_case_base(path)
    assert str(exc.value) == f"line {len(rows)}: target: value 7 outside domain [0, 1]"
    path.write_text("\n".join(rows[:-1]) + "\n")
    assert read_case_base(path).ids() == [0, 1]


def test_integers_past_two_to_the_53_are_rejected_and_those_at_it_survive(tmp_path):
    # float64 holds every integer within 2**53 exactly, so the case base keeps
    # them in its float rows; one past the bound is rejected by the parse, the
    # case-base read and the case base itself, with none of its digits.
    message = r"age: integer outside \[-2\*\*53, 2\*\*53\]$"
    row = ROW.replace("54", "9007199254740993", 1)
    with pytest.raises(DatasetError, match="^line 3: " + message):
        parse_csv(io.StringIO(f"{HEADER}\n{ROW}\n{row}\n"))
    path = tmp_path / "base.csv"
    path.write_text(f"case_id,{HEADER}\n0,{ROW}\n1,{row}\n")
    with pytest.raises(DatasetError, match="^line 3: " + message):
        read_case_base(path)
    with pytest.raises(DatasetError, match="^case 1: " + message):
        CaseBase.from_cases([make_case(), replace(make_case(), age=2**53 + 1)])
    row = ROW.replace("54", "9007199254740992", 1).replace("250", str(-(2**53)))
    (case,) = parse_csv(io.StringIO(f"{HEADER}\n{row}\n"))
    assert (case.age, case.chol) == (2**53, -(2**53))
    write_case_base(CaseBase.from_cases([case]), path)
    assert f"0,9007199254740992,1,0,130,{-(2**53)}," in path.read_text()
    (reread,) = read_case_base(path).cases()
    assert (reread.age, reread.chol) == (9007199254740992, -9007199254740992)
    assert reread == case


@pytest.mark.parametrize("value", [2**53 + 1, 10**400, -(10**400)], ids=["2**53+1", "10**400", "-10**400"])
@pytest.mark.parametrize(
    "store",
    [
        lambda case: CaseBase.from_cases([make_case(), case]),
        lambda case: CaseBase([(0, make_case()), (1, case)]),
        lambda case: CaseBase.from_cases([make_case()]).add(case),
    ],
    ids=["from_cases", "entries", "add"],
)
def test_an_integer_past_the_float_range_is_refused_as_one_past_two_to_the_53(store, value):
    # float() of the 10**400 age overflows before any bound is checked.
    with pytest.raises(DatasetError, match=r"^case 1: age: integer outside \[-2\*\*53, 2\*\*53\]$"):
        store(replace(make_case(), age=value))


# --- splitting -------------------------------------------------------------


def test_split_ten_cases():
    cases = [make_case(age=30 + i) for i in range(10)]
    split = split_sequential(cases, 0.6)
    assert len(split.train) == 6
    assert len(split.test) == 4
    assert split.train.ids() == [0, 1, 2, 3, 4, 5]
    assert [c.age for c in split.train.cases()] == [30, 31, 32, 33, 34, 35]
    assert [c.age for c in split.test] == [36, 37, 38, 39]


def test_split_uses_decimal_fraction_semantics():
    # floor(5 * 0.6) must be 3, not a float artifact of binary 0.6
    cases = [make_case(age=30 + i) for i in range(5)]
    split = split_sequential(cases, 0.6)
    assert len(split.train) == 3


def test_split_single_case_degenerate():
    with pytest.raises(DegenerateSplitError):
        split_sequential([make_case()], 0.6)


def test_split_fraction_bounds():
    cases = [make_case() for _ in range(4)]
    for bad in (0, 1, -0.2, 1.5):
        with pytest.raises(DatasetError):
            split_sequential(cases, bad)


def test_split_empty_input():
    with pytest.raises(DatasetError):
        split_sequential([], 0.6)


def test_split_tiny_fraction_degenerate():
    cases = [make_case() for _ in range(3)]
    with pytest.raises(DegenerateSplitError):
        split_sequential(cases, 0.1)


@given(st.integers(2, 80))
def test_split_sizes_follow_floor(n):
    cases = [make_case(age=20 + (i % 60)) for i in range(n)]
    split = split_sequential(cases, 0.6)
    expected_train = math.floor(Fraction(6, 10) * n)
    assert len(split.train) == expected_train
    assert len(split.test) == n - expected_train


@given(cases_strategy(min_size=2, max_size=30))
def test_split_is_an_order_preserving_partition(cases):
    try:
        split = split_sequential(cases, 0.5)
    except DegenerateSplitError:
        return
    assert split.train.cases() + list(split.test) == cases


# --- case base -------------------------------------------------------------


def test_case_base_assigns_increasing_ids():
    base = CaseBase.from_cases([make_case(age=a) for a in (40, 50, 60)])
    assert base.ids() == [0, 1, 2]
    new_id = base.add(make_case(age=70))
    assert new_id == 3


def test_case_base_requires_targets():
    unsolved = Case(
        age=50, sex=1, cp=0, trestbps=120, chol=200, fbs=0, restecg=0,
        thalach=160, exang=0, oldpeak=0.0, slope=1, ca=0, thal=2, target=None,
    )
    with pytest.raises(DatasetError):
        CaseBase.from_cases([unsolved])
    base = CaseBase.from_cases([make_case()])
    with pytest.raises(DatasetError, match="^case 1: stored cases must have a target$"):
        base.add(unsolved)
    assert base.ids() == [0]


def test_case_base_rejects_non_increasing_ids():
    case = make_case()
    with pytest.raises(DatasetError):
        CaseBase([(0, case), (0, case)])
    with pytest.raises(DatasetError):
        CaseBase([(3, case), (1, case)])


def test_round_trip_three_cases(tmp_path):
    base = CaseBase.from_cases(
        [make_case(age=41, oldpeak=2.3), make_case(age=52, ca=4), make_case(age=63, oldpeak=0.0)]
    )
    path = tmp_path / "base.csv"
    write_case_base(base, path)
    assert read_case_base(path) == base


def test_round_trip_empty_base(tmp_path):
    path = tmp_path / "empty.csv"
    write_case_base(CaseBase(), path)
    text = path.read_text()
    assert text.splitlines() == ["case_id," + HEADER]
    assert len(read_case_base(path)) == 0


def test_duplicate_case_id_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(f"case_id,{HEADER}\n0,{ROW}\n0,{ROW}\n")
    with pytest.raises(DatasetError) as exc:
        read_case_base(path)
    assert str(exc.value) == "line 3: duplicate case_id 0"


def test_out_of_order_case_id_rejected_citing_its_line(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text(f"case_id,{HEADER}\n0,{ROW}\n5,{ROW}\n3,{ROW}\n")
    with pytest.raises(DatasetError, match=r"^line 4: case_id 3 outside \[6, 2\*\*63\)$"):
        read_case_base(path)


@st.composite
def stored_bases(draw):
    """Case bases of lenient cases: wide integers, -0.0 and subnormal oldpeaks, and codes the block branch refuses."""
    entries, case_id = [], -1
    for _ in range(draw(st.integers(0, 10))):
        raw = draw(in_domain_raw())
        for name in ("age", "trestbps", "chol", "thalach"):
            if draw(st.booleans()):
                raw[name] = draw(WIDE_INTS)
        raw["ca"] = draw(st.sampled_from([0, 3, 4, 2**53, -(2**53)]))  # out of its domain: refused, warns
        raw["thal"] = draw(st.sampled_from([1, 3, 0, 7]))
        raw["oldpeak"] = draw(
            st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308])
        )
        case_id += draw(st.integers(1, 2**40))
        entries.append((case_id, validate_case(raw, "lenient")[0]))
    return CaseBase(entries)


@settings(max_examples=150, deadline=None)
@given(base=stored_bases(), block=st.sampled_from([1, 3, BLOCK_ROWS]))
def test_a_written_base_reads_back_to_equal_cases_and_the_same_bytes(base, block):
    written = io.StringIO()
    write_case_base(base, written)
    with mock.patch.object(dataset, "BLOCK_ROWS", block):
        reread = read_case_base(io.StringIO(written.getvalue()))
    # The arrays, extrema and distinct index hold the same bits.
    for ours, theirs in zip(reread.arrays() + reread.distinct(), base.arrays() + base.distinct()):
        assert (ours.dtype, ours.shape, ours.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
    assert np.array(reread.extrema()).tobytes() == np.array(base.extrema()).tobytes()
    # Cases rebuilt from them hold the values, types and signed zeros that were stored.
    assert reread.ids() == base.ids()
    assert [[(type(v), repr(v)) for v in vars(case).values()] for case in reread.cases()] == [
        [(type(v), repr(v)) for v in vars(case).values()] for case in base.cases()
    ]
    assert reread == base
    again = io.StringIO()
    write_case_base(reread, again)
    assert again.getvalue() == written.getvalue()


def test_a_byte_that_is_not_utf8_is_cited_by_its_file_line(tmp_path):
    # The codec's message follows the line; its position counts from the line's start.
    bad = ROW.replace("250", "2\xff0").encode("latin-1")
    path = tmp_path / "data.csv"
    path.write_bytes(f"{HEADER}\n{ROW}\n".encode() + bad + b"\n")
    fault = "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"
    with pytest.raises(DatasetError, match=f"^line 3: invalid UTF-8: {fault}$"):
        parse_csv(path)
    path.write_bytes(f"case_id,{HEADER}\n0,{ROW}\n\n1,".encode() + bad + b"\n")
    with pytest.raises(DatasetError, match="^line 4: invalid UTF-8: .* byte 0xff in position 14: invalid start byte$"):
        read_case_base(path)
    path.write_bytes(HEADER.replace("age", "\xe9ge").encode("latin-1") + b"\n")
    with pytest.raises(DatasetError, match="^line 1: invalid UTF-8: .* byte 0xe9 in position 0: invalid continuation"):
        parse_csv(path)
    path.write_bytes(f"{HEADER}\n{ROW}\n".encode() + b"\xe2\x82")  # cut inside a character
    with pytest.raises(DatasetError, match="^line 3: invalid UTF-8: .* bytes in position 0-1: unexpected end of data$"):
        parse_csv(path)
    # A text stream decodes as its opener chose; its fault is left as it is.
    with pytest.raises(UnicodeDecodeError):
        parse_csv(io.TextIOWrapper(io.BytesIO(f"{HEADER}\n".encode() + bad), encoding="utf-8"))


def test_a_fault_in_a_block_read_before_the_undecodable_byte_wins(tmp_path):
    rows = [ROW] * 3000
    rows[5] = ROW.replace("250", "abc")
    path = tmp_path / "data.csv"
    path.write_bytes(("\n".join([HEADER, *rows]) + "\n").encode() + b"\xff\n")
    with pytest.raises(DatasetError, match=r"^line 7: chol: non-numeric value 'abc'$"):
        parse_csv(path)
    rows[5] = ROW
    path.write_bytes(("\n".join([HEADER, *rows]) + "\n").encode() + b"\xff\n")
    with pytest.raises(DatasetError, match="^line 3002: invalid UTF-8: .* byte 0xff in position 0: invalid start"):
        parse_csv(path)


UNDECODABLE = ROW.replace("250", "2\xff0")
DECODE_FAULT = r"invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position \d+: invalid start byte"


@pytest.mark.parametrize("block", [1, 3, BLOCK_ROWS])
@pytest.mark.parametrize(
    "rows, message",
    [
        ([ROW, BAD_CHOL, ROW, UNDECODABLE], "line 3: chol: non-numeric value 'abc'"),
        ([ROW, "54,1,0", ROW, UNDECODABLE], "line 3: expected {width} fields, found {short}"),
        ([ROW, ROW, ROW, UNDECODABLE], f"line 5: {DECODE_FAULT}"),
        ([ROW, UNDECODABLE, ROW, BAD_CHOL], f"line 3: {DECODE_FAULT}"),
        ([ROW] * 2995 + [BAD_CHOL, ROW, UNDECODABLE], "line 2997: chol: non-numeric value 'abc'"),
        ([ROW] * 2997 + [UNDECODABLE, BAD_CHOL], f"line 2999: {DECODE_FAULT}"),
    ],
    ids=["row-fault-first", "width-fault-first", "byte-only", "byte-first", "past-8-KB", "byte-first-past-8-KB"],
)
@pytest.mark.parametrize("read", [parse_csv, read_case_base])
def test_the_first_fault_in_file_order_wins_over_an_undecodable_byte(read, rows, message, block, tmp_path):
    # The text stream decodes 8 KB ahead of the rows it has handed out, so
    # the rows before the byte's line are read again from the text before it.
    header = HEADER
    if read is read_case_base:
        header, rows = f"case_id,{HEADER}", [f"{n},{row}" for n, row in enumerate(rows)]
    path = tmp_path / "data.csv"
    path.write_bytes("\n".join([header, *rows, ""]).encode("latin-1"))
    message = message.format(width=header.count(",") + 1, short=rows[1].count(",") + 1)
    with mock.patch.object(dataset, "BLOCK_ROWS", block), pytest.raises(DatasetError, match=f"^{message}$"):
        read(path)


@pytest.mark.parametrize("block", [1, 3, BLOCK_ROWS])
def test_the_rows_before_an_undecodable_byte_are_yielded_once_in_order(block, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes("\n".join([HEADER, *[ROW] * 3000, "", UNDECODABLE, ""]).encode("latin-1"))
    seen = []
    with mock.patch.object(dataset, "BLOCK_ROWS", block), closing(dataset._blocks(path)) as blocks:
        assert list(next(blocks)) == list(CANONICAL_HEADER)
        with pytest.raises(DatasetError, match=f"^line 3003: {DECODE_FAULT}$"):
            for lines, rows in blocks:
                assert len(lines) == len(rows) <= block
                seen += lines
    assert seen == list(range(2, 3002))


def test_case_id_past_int64_rejected_citing_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"case_id,{HEADER}\n0,{ROW}\n{2**63},{ROW}\n")
    with pytest.raises(DatasetError, match=rf"^line 3: case_id {2**63} outside \[1, 2\*\*63\)$"):
        read_case_base(path)
    path.write_text(f"case_id,{HEADER}\n-1,{ROW}\n")
    with pytest.raises(DatasetError, match=r"^line 2: case_id -1 outside \[0, 2\*\*63\)$"):
        read_case_base(path)
    path.write_text(f"case_id,{HEADER}\n{2**63 - 1},{ROW}\n")
    assert read_case_base(path).ids() == [2**63 - 1]


def test_case_base_rejects_ids_past_int64():
    with pytest.raises(DatasetError, match="outside"):
        CaseBase([(10**20, make_case())])


def test_add_after_the_largest_id_raises_and_leaves_the_base_unchanged():
    base = CaseBase([(0, make_case(age=40)), (2**63 - 1, make_case(age=50))])
    before = (base.ids(), base.cases(), [a.tolist() for a in (*base.arrays(), *base.distinct())])
    with pytest.raises(DatasetError, match=r"^no case id left: the last id is 9223372036854775807, the largest below 2\*\*63$"):
        base.add(make_case(age=60))
    assert (base.ids(), base.cases(), [a.tolist() for a in (*base.arrays(), *base.distinct())]) == before
    assert base.extrema() == CaseBase.from_cases(base.cases()).extrema()


@pytest.mark.parametrize(
    "header, message",
    [("case_id," + HEADER.rsplit(",", 1)[0], "missing target column"), (HEADER, "missing case_id column")],
    ids=["target", "case_id"],
)
def test_case_base_file_missing_a_column(tmp_path, header, message):
    path = tmp_path / "broken.csv"
    path.write_text(header + "\n")
    with pytest.raises(DatasetError, match=f"^{message}$"):
        read_case_base(path)


def test_ids_survive_round_trip_after_retention_gap(tmp_path):
    base = CaseBase([(2, make_case(age=40)), (7, make_case(age=50))])
    path = tmp_path / "gap.csv"
    write_case_base(base, path)
    reloaded = read_case_base(path)
    assert reloaded.ids() == [2, 7]
    assert reloaded.add(make_case()) == 8


def _oracle_format_value(name, value):
    if name == "oldpeak":
        return repr(float(value))
    return str(int(value))


def _oracle_case_fields(case):
    """The per-field row builder that the case files were first written with."""
    row = [_oracle_format_value(name, getattr(case, name)) for name in FEATURE_NAMES]
    row.append("" if case.target is None else str(case.target))
    return row


# The widest integers validate_case accepts: float64 must hold them exactly.
WIDE_INTS = st.integers(-(2**53), 2**53) | st.sampled_from([2**53, -(2**53), 2**53 - 1, -(2**53) + 1])


@st.composite
def storable_cases(draw):
    """Cases validate_case accepts in lenient mode, with values anywhere in their ranges."""
    raw = draw(in_domain_raw(with_target=False))
    for name in ("age", "trestbps", "chol", "thalach", "ca", "thal"):
        if draw(st.booleans()):
            raw[name] = draw(WIDE_INTS)
    raw["oldpeak"] = draw(st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308]))
    raw["target"] = draw(st.sampled_from([None, 0, 1]))
    return validate_case(raw, "lenient")[0]


def _oracle_csv(header, rows):
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return text.getvalue()


@settings(max_examples=300)
@given(st.lists(storable_cases(), max_size=8))
def test_case_rows_equal_the_per_field_oracle(cases):
    written = io.StringIO()
    write_cases(cases, written)
    assert written.getvalue() == _oracle_csv(CANONICAL_HEADER, map(_oracle_case_fields, cases))
    stored = [case for case in cases if case.target is not None]
    written = io.StringIO()
    write_case_base(CaseBase.from_cases(stored), written)
    rows = ([str(i), *_oracle_case_fields(case)] for i, case in enumerate(stored))
    assert written.getvalue() == _oracle_csv(("case_id", *CANONICAL_HEADER), rows)


def test_write_cases_reparses(tmp_path):
    cases = [make_case(age=45, oldpeak=1.4), make_case(age=51, target=0)]
    path = tmp_path / "cases.csv"
    write_cases(cases, path)
    assert parse_csv(path) == cases


def test_case_base_arrays_mirror_the_cases_and_grow_in_place():
    base = CaseBase.from_cases([make_case(chol=100, target=0), make_case(chol=200, target=1)])
    features, ids, targets = base.arrays()
    assert features.dtype == np.float64 and features.shape == (2, 13)
    before = features
    # The constructor leaves no spare row, so the first add grows the matrix
    # (to 64 rows) and the 63rd grows it again.
    for k in range(100):
        base.add(make_case(chol=300 + k, target=k % 2))
    features, ids, targets = base.arrays()
    assert features.tolist() == [list(to_feature_vector(c)) for c in base.cases()]
    assert ids.tolist() == base.ids()
    assert targets.tolist() == [c.target for c in base.cases()]
    assert before.shape == (2, 13)  # views taken earlier keep their rows


@pytest.mark.parametrize("n", [0, 1, 150])
def test_a_base_never_added_to_holds_exactly_its_rows(n):
    base = CaseBase.from_cases([make_case(chol=100 + k % 90) for k in range(n)])
    features, ids, targets = base.arrays()
    first, columns = base.distinct()
    assert [view.base.size for view in (features, ids, targets)] == [13 * n, n, n]
    assert first.base.shape == columns.base.shape == (2, n)


def test_case_base_arrays_are_read_only():
    features, ids, targets = CaseBase.from_cases([make_case()]).arrays()
    for view in (features, ids, targets):
        with pytest.raises(ValueError):
            view[0] = 0


def test_case_base_arrays_keep_given_ids():
    entries = [(3, make_case(chol=150)), (7, make_case(chol=250, target=0))]
    base = CaseBase(entries)
    _, ids, targets = base.arrays()
    assert ids.tolist() == [3, 7]
    assert targets.tolist() == [1, 0]
    base.add(make_case())
    assert base.arrays()[1].tolist() == [3, 7, 8]


def scaled(features, params):
    """Kernel rows worked out one value at a time: (x - min) / range, raw where degenerate."""
    return [
        [x if deg else (x - lo) / rng for x, lo, rng, deg in zip(row, params.mins, params.ranges, params.degenerate)]
        for row in features.tolist()
    ]


def test_derived_rows_scale_only_new_rows_while_the_params_stay_equal():
    base = CaseBase.from_cases([make_case(chol=100 + k, age=40 + k) for k in range(3)])
    params = fit_minmax(base)
    assert any(params.degenerate) and not all(params.degenerate)
    with mock.patch.object(
        NormalizationParams, "kernel_rows", autospec=True, side_effect=NormalizationParams.kernel_rows
    ) as kernel_rows:
        first = base.derived_rows(params)
        assert first.tolist() == scaled(base.arrays()[0], params)
        # 70 adds grow the arrays to 64, then 128 rows; equal params scale the
        # new rows alone.
        for k in range(70):
            base.add(make_case(chol=200 + k, age=40 + k % 3))
        same = NormalizationParams(params.mins, params.maxs)
        rows = base.derived_rows(same)
        features = base.arrays()[0]
        assert rows.tolist() == scaled(features, params)
        # Attribute-major: each attribute of every case is one contiguous row.
        for attribute, column in enumerate(rows.T):
            assert column.flags.c_contiguous
            assert column.tolist() == [row[attribute] for row in scaled(features, params)]
        base.derived_rows(params)  # no new rows: nothing to scale
        # A copy of a stored row adds no distinct row, so nothing to scale.
        base.add(make_case(chol=100, age=40))
        assert base.derived_rows(params).tolist() == rows.tolist()
        # New params scale every distinct row into a new array; views handed
        # out before them keep their values.
        refit = fit_minmax(base)
        assert refit != params
        assert base.derived_rows(refit).tolist() == scaled(features, refit)
    assert [len(call.args[1]) for call in kernel_rows.call_args_list] == [3, 70, 73]
    assert first.tolist() == scaled(features[:3], params)
    assert rows.tolist() == scaled(features, params)
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


@pytest.mark.parametrize("start", [0, 1, 10])
def test_a_base_built_in_one_batch_equals_one_grown_by_add(start):
    # The constructor and add number the same rows alike. The rows include
    # copies stored under the other target and rows that differ only in the
    # sign of a zero, which have equal scores but are distinct. An empty base
    # has no rows to double, so its first add takes the 64-row floor.
    cases = [make_case(chol=100 + k % 7, target=k % 2) for k in range(150)]
    cases += [make_case(oldpeak=0.0), make_case(oldpeak=-0.0), make_case(oldpeak=-0.0, target=0)]
    cases += [make_case(chol=300 + k, oldpeak=-0.0 if k % 3 else 0.0) for k in range(50)]
    base = CaseBase.from_cases(cases)
    grown = CaseBase.from_cases(cases[:start])
    for case in cases[start:]:
        grown.add(case)

    def state(case_base):
        views = case_base.arrays() + case_base.distinct()
        columns = [(view.dtype, view.tolist(), view.tobytes()) for view in views]
        return columns, np.array(case_base.extrema()).tobytes()

    assert state(base) == state(grown)
    assert grown == base
    assert len(base.distinct()[0]) == 7 + 2 + 50
    # Reads with no add between them hand out the very same views.
    views = base.arrays() + base.distinct()
    assert all(a is b for a, b in zip(views, base.arrays() + base.distinct()))


# --- block validation against the row-by-row loop --------------------------
#
# parse_csv and read_case_base validate blocks of rows column by column. They
# must read every file as the row-by-row loop below did: a verbatim copy of
# the loop that validated one record at a time, with validate_case replaced
# by the verbatim per-field validator that test_cases keeps. The same cases,
# field types and reprs, the same logged warning, and the same first fault.


def _oracle_records(source, *, allow_case_id):
    if isinstance(source, (str, Path)):
        opened = open(source, "r", encoding="utf-8", newline="")
    elif isinstance(source, io.TextIOBase):
        opened = nullcontext(source)
    else:
        raise TypeError(f"unsupported source type {type(source)!r}")
    with opened as stream:
        reader = csv.reader(stream)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise DatasetError("empty file: no header row") from None
        positions = dataset._resolve_header(raw_header, case_ids=allow_case_id, stored=False)
        yield positions
        width = len(raw_header)
        names = tuple(positions)
        cells = itemgetter(*positions.values())
        for line_no, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) != width:
                raise DatasetError(
                    f"line {line_no}: expected {width} fields, found {len(row)}"
                )
            yield line_no, dict(zip(names, cells(row)))


def _oracle_parse_csv(source, mode="lenient"):
    cases = []
    warning_counts = Counter()
    with closing(_oracle_records(source, allow_case_id=False)) as records:
        next(records)
        for line_no, raw in records:
            try:
                case, warnings = _oracle_validate_case(raw, mode)
            except CaseValidationError as exc:
                raise DatasetError(f"line {line_no}: {exc}") from exc
            for message in warnings:
                warning_counts[message.split(":", 1)[0]] += 1
            cases.append(case)

    if warning_counts:
        dataset.logger.warning(
            "accepted %d out-of-domain values in lenient mode: %s",
            sum(warning_counts.values()),
            dict(warning_counts),
        )
    return cases


def _oracle_read_case_base(source):
    entries = []
    with closing(_oracle_records(source, allow_case_id=True)) as records:
        positions = next(records)
        if "case_id" not in positions:
            raise DatasetError("missing case_id column")
        if "target" not in positions:
            raise DatasetError("missing target column")
        last = -1
        for line_no, raw in records:
            try:
                case_id = int(raw.pop("case_id"))
            except ValueError:
                raise DatasetError(f"line {line_no}: non-integer case_id") from None
            if not last < case_id < 2**63:
                raise DatasetError(f"line {line_no}: {dataset._id_fault(case_id, last)}")
            last = case_id
            try:
                case, _ = _oracle_validate_case(raw, "lenient")
            except CaseValidationError as exc:
                raise DatasetError(f"line {line_no}: {exc}") from exc
            if case.target is None:
                raise DatasetError(f"line {line_no}: stored case missing target")
            entries.append((case_id, case))
    return CaseBase(entries)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.seen = []

    def emit(self, record):
        self.seen.append((record.name, record.levelname, record.getMessage()))


def _read_outcome(read, text, *args):
    """What ``read`` makes of ``text``: each case's field types and reprs and the log, or the error."""
    handler = _Records()
    dataset.logger.addHandler(handler)
    try:
        result = read(io.StringIO(text), *args)
    except Exception as exc:
        return ("raises", type(exc), str(exc), handler.seen)
    finally:
        dataset.logger.removeHandler(handler)
    ids = result.ids() if isinstance(result, CaseBase) else None
    cases = result.cases() if isinstance(result, CaseBase) else result
    fields = [[(type(value), repr(value)) for value in vars(case).values()] for case in cases]
    return ("accepts", ids, fields, handler.seen)


# Edits of one row: (column, text). Values the block branch must pass to the
# per-field parsers, which accept them ("54.0", U+001C padding) or reject
# them (integers past 2**53); values at the bound, which both take; codes
# that warn or fail; and faults of the row itself.
ROW_EDITS = [
    ("age", " 54 "), ("age", "54.0"), ("chol", "1_0"), ("age", "\x1c54\x1f"), ("age", "٥٤"),
    ("age", str(2**53 + 1)), ("trestbps", str(10**400)), ("thalach", "1" * 5000),
    ("age", str(2**53)), ("chol", str(-(2**53))), ("thalach", str(-(2**53) - 1)), ("ca", str(2**53 + 1)),
    ("chol", str(10**308)), ("chol", str(10**308)), ("age", "5.5"), ("chol", "abc"), ("sex", "2"),
    ("oldpeak", "-1.0"), ("oldpeak", "nan"), ("oldpeak", "1e400"), ("oldpeak", " 0.5"),
    ("ca", "4"), ("thal", "0"), ("ca", "7"), ("target", " 1 "), ("target", "2"), ("target", ""),
    ("case_id", "x"), ("case_id", "dup"), ("case_id", str(2**63)),
    ("width", "short"), ("width", "long"), ("blank", ""), ("blank", " , ,\t"),
]
FILLER = [
    [repr(value) if name == "oldpeak" else str(value) for name, value in row.items()]
    for row in generate_rows(40, seed=3)
]


@st.composite
def edited_files(draw):
    """(case-base text, csv text) sharing rows: edits at the first and last row and around block ends."""
    block = draw(st.sampled_from([1, 2, 3, BLOCK_ROWS]))
    n = draw(st.integers(1, 2 * block + 2))
    spots = {0, n - 1, block - 1, block, 2 * block - 1, 2 * block} & set(range(n))
    spots |= set(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    edits = {spot: draw(st.lists(st.sampled_from(ROW_EDITS), max_size=2)) for spot in spots}
    edits = {spot: chosen for spot, chosen in edits.items() if chosen}
    with_target = draw(st.integers(0, 9)) < 9  # shrinks to a file with a target column
    names = list(CANONICAL_HEADER) if with_target else list(FEATURE_NAMES)
    stored, plain = [",".join(["case_id", *names])], [",".join(names)]
    case_id = -1
    for spot in range(n):
        fields = dict(zip(CANONICAL_HEADER, FILLER[draw(st.integers(0, len(FILLER) - 1))]))
        case_id += draw(st.integers(1, 2))
        fields["case_id"] = str(case_id)
        width = 0
        for column, text in edits.get(spot, []):
            if column == "blank":
                stored.append(text)
                plain.append(text)
            elif column == "width":
                width = -1 if text == "short" else 1
            elif text == "dup":
                fields["case_id"] = str(max(case_id - 1, 0))
            else:
                fields[column] = text
        row = [fields[name] for name in names]
        row = row[:width] if width < 0 else row + ["0"] * width
        stored.append(",".join([fields["case_id"], *row]))
        plain.append(",".join(row))
    return block, "\n".join(stored) + "\n", "\n".join(plain) + "\n"


@settings(max_examples=250, deadline=None)
@given(files=edited_files())
def test_files_read_as_the_row_by_row_loop_read_them(files):
    block, stored, plain = files
    with mock.patch.object(dataset, "BLOCK_ROWS", block):
        for mode in VALIDATION_MODES:
            assert _read_outcome(parse_csv, plain, mode) == _read_outcome(_oracle_parse_csv, plain, mode)
        assert _read_outcome(read_case_base, stored) == _read_outcome(_oracle_read_case_base, stored)




@pytest.mark.parametrize("block", [1, 3, BLOCK_ROWS])
@pytest.mark.parametrize(
    "read, rows, message",
    [
        (parse_csv, [ROW, BAD_CHOL, "54,1,0"], "line 3: chol: non-numeric value 'abc'"),
        (parse_csv, [ROW, "54,1,0", BAD_CHOL], "line 3: expected 14 fields, found 3"),
        (parse_csv, [ROW.replace(",0,2,1", ",4,2,1"), "54,1,0"], "line 3: expected 14 fields, found 3"),
        (read_case_base, [f"0,{ROW}", f"1,{BAD_CHOL}", f"1,{ROW}"], "line 3: chol: non-numeric value 'abc'"),
        (read_case_base, [f"0,{ROW}", f"0,{ROW}", f"1,{BAD_CHOL}"], "line 3: duplicate case_id 0"),
        (read_case_base, [f"0,{ROW}", f"x,{BAD_CHOL}"], "line 3: non-integer case_id"),
        (read_case_base, [f"0,{BLANK_TARGET}", f"1,{BAD_CHOL}"], "line 2: stored case missing target"),
        (read_case_base, [f"0,{ROW}", f"1,{BAD_CHOL[:-1]}"], "line 3: chol: non-numeric value 'abc'"),
        (read_case_base, [f"0,{ROW}", f"1,{ROW}", "2,54"], "line 4: expected 15 fields, found 2"),
    ],
)
def test_the_first_fault_in_file_order_wins(read, rows, message, block):
    header = HEADER if read is parse_csv else f"case_id,{HEADER}"
    text = "\n".join([header, *rows]) + "\n"
    with mock.patch.object(dataset, "BLOCK_ROWS", block):
        outcome = _read_outcome(read, text)
    oracle = _oracle_parse_csv if read is parse_csv else _oracle_read_case_base
    assert outcome == _read_outcome(oracle, text)
    assert outcome[:3] == ("raises", DatasetError, message)

@pytest.mark.parametrize(
    "read, block, edit",
    [
        (parse_csv, BLOCK_ROWS, "domain"),
        (read_case_base, BLOCK_ROWS, "domain"),
        (parse_csv, 16, "text"),
        (read_case_base, 16, "text"),
    ],
    ids=["parse_csv", "read_case_base", "parse_csv-text", "read_case_base-text"],
)
def test_only_the_rows_the_block_branch_refuses_reach_the_per_field_parsers(read, block, edit, monkeypatch):
    # 1,000 rows, every 33rd edited, one at a time, in file order. A ca or
    # thal code outside its domain sends those rows alone to validate_case;
    # "54.0"-style text in an integer column, which int() refuses, sends
    # every row of their blocks.
    rows = generate_rows(1000, seed=13)
    odd = list(range(5, 1000, 33))
    if edit == "domain":
        for at in odd:
            rows[at][["ca", "thal"][at % 2]] = [4, 0][at % 2]
    text = io.StringIO()
    base = CaseBase.from_cases(Case(**row) for row in rows)
    if read is read_case_base:
        write_case_base(base, text)
    else:
        write_cases(base.cases(), text)
    lines = list(csv.reader(io.StringIO(text.getvalue())))
    header, records = lines[0], lines[1:]
    if edit == "text":
        for at in odd:
            column = header.index(["age", "chol", "thalach"][at % 3])
            records[at][column] += ".0"
    odd_blocks = {at // block for at in odd}
    refused_at = odd if edit == "domain" else [row for row in range(1000) if row // block in odd_blocks]
    text = "\n".join(map(",".join, lines)) + "\n"
    refused, per_field = [], []
    monkeypatch.setattr(dataset, "validate_case", lambda raw, mode: refused.append(raw) or validate_case(raw, mode))
    parse_float = cases_module._parse_float
    monkeypatch.setattr(cases_module, "_parse_float", lambda *args: per_field.append(args) or parse_float(*args))
    monkeypatch.setattr(dataset, "BLOCK_ROWS", block)
    result = read(io.StringIO(text))
    cases = result.cases() if read is read_case_base else result
    assert cases == base.cases()
    expected = [dict(zip(header, records[at])) for at in refused_at]
    assert refused == expected
    assert len(per_field) == len(refused_at)


@pytest.mark.parametrize("block", [1, 3, BLOCK_ROWS])
def test_cases_made_a_column_at_a_time_are_the_ones_case_init_makes(block, tmp_path):
    # parse_csv and CaseBase.cases() store each field without Case.__init__
    # (cases._column_cases). Rows the block branch refuses ("54.0", a ca of 4,
    # a blank target, "1_0") are patched in from validate_case.
    rows = [ROW, ROW.replace("54", "54.0", 1), ROW.replace(",0,2,1", ",4,2,1"), BLANK_TARGET]
    rows.append("60,0,3,140,1_0,1,2,170,1,0.0,2,3,3,0")
    with mock.patch.object(dataset, "BLOCK_ROWS", block):
        parsed = parse_csv(io.StringIO("\n".join([HEADER, *rows * 20]) + "\n"))
        expected = [(0, 250, 1), (0, 250, 1), (4, 250, 1), (0, 250, None), (3, 10, 0)] * 20
        assert [(case.ca, case.chol, case.target) for case in parsed] == expected
        path = tmp_path / "base.csv"
        write_case_base(CaseBase.from_cases(case for case in parsed if case.target is not None), path)
        reread = read_case_base(path).cases()
    assert len(reread) == 80
    for case in parsed + reread:
        twin = Case(**vars(case))
        assert case == twin
        assert list(vars(case)) == list(vars(twin)) == list(CANONICAL_HEADER)
        assert (hash(case), repr(case), pickle.dumps(case)) == (hash(twin), repr(twin), pickle.dumps(twin))


def test_an_unknown_mode_raises_at_the_first_data_row():
    with pytest.raises(ValueError, match="^unknown validation mode 'lax'$"):
        parse_csv(io.StringIO(f"{HEADER}\n{ROW}\n"), "lax")
    assert parse_csv(io.StringIO(f"{HEADER}\n\n"), "lax") == []
    with pytest.raises(DatasetError, match="^line 2: expected 14 fields, found 3$"):
        parse_csv(io.StringIO(f"{HEADER}\n54,1,0\n{ROW}\n"), "lax")
