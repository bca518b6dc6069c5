import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heartcbr import dataset
from heartcbr.cases import FEATURE_NAMES, Case, to_feature_vector, validate_case
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

from conftest import cases_strategy, in_domain_raw, make_case

HEADER = "age,sex,cp,trestbps,chol,fbs,restecg,thalach,exang,oldpeak,slope,ca,thal,target"
ROW = "54,1,0,130,250,0,1,150,0,1.0,1,0,2,1"


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
    with pytest.raises(DatasetError, match=r"^line 3: age: integer outside the float range$"):
        parse_csv(io.StringIO(f"{HEADER}\n{ROW}\n{huge}\n"))
    past_the_digit_limit = ROW.replace("54", "1" * 5000, 1)  # int() takes at most 4,300 digits
    with pytest.raises(DatasetError, match=r"^line 2: age: integer outside the float range$"):
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


def test_integers_past_two_to_the_53_survive_parse_write_and_read(tmp_path):
    row = ROW.replace("54", "9007199254740993", 1).replace("250", str(10**20))
    (case,) = parse_csv(io.StringIO(f"{HEADER}\n{row}\n"))
    assert (case.age, case.chol) == (2**53 + 1, 10**20)
    path = tmp_path / "base.csv"
    write_case_base(CaseBase.from_cases([case]), path)
    assert f"0,9007199254740993,1,0,130,{10**20}," in path.read_text()
    (reread,) = read_case_base(path).cases()
    assert (reread.age, reread.chol) == (9007199254740993, 100000000000000000000)
    assert reread == case


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


def test_case_base_file_missing_target_column(tmp_path):
    header = "case_id," + HEADER.rsplit(",", 1)[0]
    path = tmp_path / "broken.csv"
    path.write_text(header + "\n")
    with pytest.raises(DatasetError):
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


# The widest integers validate_case accepts: float() must take them.
WIDE_INTS = st.integers(-(2**1024 - 2**970 - 1), 2**1024 - 2**970 - 1) | st.sampled_from(
    [2**53 + 1, -(2**63), 2**1024 - 2**970 - 1, -(2**1024 - 2**970 - 1)]
)


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
    assert [dataset._case_fields(case) for case in cases] == [_oracle_case_fields(case) for case in cases]
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


def test_derived_rows_transform_only_new_rows_while_the_key_stays_equal():
    seen = []

    def doubled(features):
        seen.append(len(features))
        return 2 * features

    base = CaseBase.from_cases([make_case(chol=100 + k) for k in range(3)])
    first = base.derived_rows(("scale", 2), doubled)
    assert first.tolist() == (2 * base.arrays()[0]).tolist()
    # 70 adds grow the arrays to 64, then 128 rows; an equal key transforms the
    # new rows alone.
    for k in range(70):
        base.add(make_case(chol=200 + k))
    rows = base.derived_rows(("scale", 2), doubled)
    features = base.arrays()[0]
    assert rows.tolist() == (2 * features).tolist()
    # Attribute-major: each attribute of every case is one contiguous row.
    for attribute, column in enumerate(rows.T):
        assert column.flags.c_contiguous
        assert column.tolist() == (2 * features[:, attribute]).tolist()
    base.derived_rows(("scale", 2), doubled)  # no new rows: nothing to transform
    # A copy of a stored row adds no distinct row, so nothing to transform.
    base.add(make_case(chol=100))
    assert base.derived_rows(("scale", 2), doubled).tolist() == rows.tolist()
    assert seen == [3, 70]
    # A different key transforms every distinct row into a new array; views
    # handed out before it keep their values.
    assert base.derived_rows(("scale", 3), lambda f: 3 * f).tolist() == (3 * features).tolist()
    assert first.tolist() == (2 * features[:3]).tolist()
    assert rows.tolist() == (2 * features).tolist()
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
