"""Differential tests: `dataset._read_csv` parses every data line of a CSV
with one `np.loadtxt` call and must read what the per-cell `float()` loops it
replaced read (they are kept in percell_csv.py): the same bits, or a DataError
naming the same file line, column and cell. Three kinds of input part ways on
purpose, and each is asserted where it occurs: digit separators ('1_000') and
non-ASCII digits, which `float()` reads and numpy does not, and a quoted cell
still open at the end of a line, into which `csv.reader` reads the line break
(and the next line, if any) and which the new reader rejects.

The writer tests compare `experiments._write_csv`, which takes a table as
its columns, byte for byte with the `_cell` + `csv.writer` writer of rows it
replaced."""

import ast
import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit import dataset, experiments, load_csv, load_feature_matrix
from minimaxsplit.errors import DataError
from minimaxsplit.experiments import _write_csv

import percell_csv as oracle


def record_lines(path):
    """The file line of each record the oracle keeps, header first."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return [reader.line_num for r in reader if r and not r[0].lstrip().startswith("#")]


def line_break_in_cell(path) -> bool:
    """Whether csv.reader reads a line break into some cell of the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        return any("\n" in cell or "\r" in cell for record in csv.reader(fh) for cell in record)


def describe(message: str, lines=None):
    """An error as (kind, file line, column, cell); `lines` maps the
    oracle's row numbers (kept records, header = 1) to file lines."""
    line = (lambda row: row) if lines is None else (lambda row: lines[row - 1])
    if m := re.search(r"row (\d+) has (\d+) cells", message):
        return ("cells", line(int(m.group(1))), int(m.group(2)))
    if m := re.search(r"non-numeric cell at row (\d+), column ('.*'): (.*)$", message, re.S):
        column = ast.literal_eval(m.group(2)).strip()
        return ("cell", line(int(m.group(1))), column, ast.literal_eval(m.group(3)))
    if "non-finite" in message:
        return ("nonfinite",)
    if re.search(r"empty file|no data rows|need a header row", message):
        return ("nodata",)
    if "classification target outside" in message:
        return ("labels",)
    if m := re.search(r"line (\d+): a quoted cell runs past", message):
        return ("runs-on", int(m.group(1)))
    return ("other", message)


def outcome(load, path, *args, lines=None):
    try:
        result = load(path, *args)
    except DataError as exc:
        return describe(str(exc), lines)
    arrays = (result,) if isinstance(result, np.ndarray) else (result.features, result.targets)
    return ("ok",) + tuple((a.shape, np.ascontiguousarray(a).view(np.uint64).tolist())
                           for a in arrays)


def divergent_cell(text: str) -> bool:
    """A cell float() reads and numpy does not: one with a digit separator
    or a non-ASCII character inside its surrounding whitespace."""
    try:
        float(text)
    except ValueError:
        return False
    return "_" in text or not text.strip().isascii()


def check(path, *args):
    """Both readers agree on the file, or part ways only as documented.
    No args: load_feature_matrix; (target, task): load_csv."""
    new_load, old_load = ((load_csv, oracle.load_csv) if args else
                          (load_feature_matrix, oracle.load_feature_matrix))
    new = outcome(new_load, path, *args)
    if new[0] == "runs-on":
        assert line_break_in_cell(path), new
        return new
    old = outcome(old_load, path, *args, lines=record_lines(path))
    if new != old:
        assert new[0] == "cell" and divergent_cell(new[3]), (new, old)
    return new


# ---------------------------------------------------------------------------
# Fixed corpus
# ---------------------------------------------------------------------------

CORPUS = {
    "plain": "a,b,y\n1,2,3\n4,5,6\n",
    "quoted": 'a,b,y\n"1","2",3\n"4" ,"5""",6\n',
    "quoted comma": 'a,b,y\n"1,5",2,3\n',
    "quoted header": '"a","b,c",y\n1,2,3\n',
    "space before quote": 'a,b,y\n "1",2,3\n',
    "surrounding spaces": " a , b ,y\n 1 ,\t2\t, 3 \n",
    "crlf": "a,b,y\r\n1,2,3\r\n4,5,6\r\n",
    "cr": "a,b,y\r1,2,3\r4,5,6\r",
    "mixed breaks": "a,b,y\n1,2,3\r\n4,5,6\r7,8,9",
    "blank lines": "\n\na,b,y\n\n1,2,3\n\n\n4,5,6\n\n",
    "whitespace-only line": "a,b,y\n1,2,3\n   \n4,5,6\n",
    "whitespace-only line, one column": "y\n1\n \t \n2\n",
    "comments": "# head\na,b,y\n# mid\n1,2,3\n#\n4,5,6\n# tail",
    "indented comments": "  # head\na,b,y\n\t# mid\n1,2,3\n\x0c# ff\n4,5,6\n",
    "quoted comment": 'a,b,y\n"#x",1,2\n" # y",3,4\n1,2,3\n',
    "mid-row hash": "a,b,y\n1,#2,3\n",
    "trailing hash": "a,b,y\n1,2,3 # note\n",
    "hash in one-column file": "y\n1#2\n",
    "trailing comma": "a,b,y\n1,2,3,\n",
    "trailing comma everywhere": "a,b,y,\n1,2,3,\n",
    "short row": "a,b,y\n1,2,3\n4,5\n",
    "long row": "a,b,y\n1,2,3\n4,5,6,7\n",
    "short first row": "a,b,y\n1,2\n4,5,6\n",
    "short every row": "a,b,y\n1,2\n4,5\n",
    "empty cell": "a,b,y\n1,,3\n",
    "empty line cell": "y\n1\n\"\"\n",
    "bad after good": "a,b,y\n1,2,3\n4,5,6\n7,x,9\n",
    "bad target before bad feature": "y,a,b\nq,1,z\n",
    "bad and short": "a,b,y\n1,x\n",
    "inf": "a,b,y\n1,inf,3\n",
    "nan": "a,b,y\n1,2,nan\n",
    "overflow": "a,b,y\n1e400,2,3\n",
    "infinity words": "a,b,y\n-Infinity,2,3\n",
    "short forms": "a,b,y\n.5,5.,-0\n+.25,-0.0,0e0\n",
    "signed zeros": "a,b,y\n-0,+0,-0.0\n",
    "subnormals": "a,b,y\n5e-324,2.2250738585072014e-308,-4.9e-324\n",
    "repr floats": "a,b,y\n0.1,0.30000000000000004,1.7976931348623157e+308\n"
                   "2.718281828459045,-3.141592653589793,1e-05\n",
    "six decimals": "x0,x1,y\n0.123457,9.000000,-0.500000\n0.000001,1.000000,2.718282\n",
    "form feed in line": "a,b,y\n1\x0c,2,3\n",
    "line separator in line": "a,b,y\n1\u2028,2,3\n",
    "paragraph separator and nel": "a,b,y\n1\u2029,2\x85,3\x1c\n",
    "vertical tab": "a,b,y\n\x0b1,2,3\n",
    "no-break spaces": "a,b,y\n\xa01\xa0,2,3\n",
    "hex": "a,b,y\n0x10,2,3\n",
    "nul": "a,b,y\n1\x00,2,3\n",
    "one row": "a,b,y\n1,2,3",
    "one column": "y\n1\n2\n",
    "header only": "a,b,y\n",
    "comments only": "# a\n\n# b\n",
    "empty": "",
    "bom": "\ufeffa,b,y\n1,2,3\n",
    "quote at end of file": 'a,b,y\n1,2,"3',
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    check(path)
    check(path, "y", "regression")
    check(path, 0, "regression")


def test_corpus_reads_what_it_should(tmp_path):
    """Spot checks that the corpus exercises what it names."""
    path = tmp_path / "d.csv"
    for name, want in [("crlf", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                       ("form feed in line", [[1.0, 2.0, 3.0]]),
                       ("quoted comment", [[1.0, 2.0, 3.0]]),
                       ("signed zeros", [[-0.0, 0.0, -0.0]])]:
        path.write_bytes(CORPUS[name].encode("utf-8"))
        assert outcome(load_feature_matrix, path) == (
            "ok", ((len(want), 3), np.array(want).view(np.uint64).tolist()))
    path.write_bytes(CORPUS["quoted"].encode("utf-8"))
    assert outcome(load_feature_matrix, path) == ("cell", 3, "b", '5"')


@pytest.mark.parametrize("cell", ["1_000", "1_0.5", "\uff11", "\u0663"])
def test_digit_separators_and_non_ascii_digits_are_rejected(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,y\n{cell},2\n", encoding="utf-8")
    assert oracle.load_feature_matrix(path)[0, 1] == 2.0
    with pytest.raises(DataError, match=r"non-numeric cell at row 2, column 'a'"):
        load_feature_matrix(path)
    assert check(path)[0] == "cell"


def test_quoted_cell_running_past_its_line_is_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b'a,y\n"1\n",2\n3,4\n')
    assert oracle.load_feature_matrix(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(DataError, match="line 2: a quoted cell runs past"):
        load_feature_matrix(path)
    path.write_bytes(b'# note,"see\nbelow"\na,y\n1,2\n')
    with pytest.raises(DataError, match="line 1: a quoted cell runs past"):
        load_feature_matrix(path)


def test_errors_name_file_lines(tmp_path):
    """Rows are numbered by file line, comments and blank lines included."""
    path = tmp_path / "d.csv"
    path.write_text("# c\n\na,y\n# c\n1,2\n\n3,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"non-numeric cell at row 7, column 'y': 'oops'"):
        load_csv(path, "y")
    path.write_text("# c\na,y\n1,2\n\n3\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"row 5 has 1 cells, expected 2"):
        load_feature_matrix(path)


@pytest.mark.parametrize("tail,fault", [
    ("# late comment\n\n7,8\n", None),
    ("\n7,8\n", None),
    ("# late comment\n\n7,oops\n", "non-numeric cell at row {}, column 'y'"),
    ("\n7\n", "row {} has 1 cells"),
])
def test_late_comment_after_filter_free_blocks(tmp_path, tail, fault):
    """A comment or an empty line that first appears after blocks with
    neither (blocks a reader parses without a test of each line): the
    same table, or an error naming the same line of the file."""
    rows = 2 * dataset._CSV_CHARS // len("0.123457,1.5\n") + 3
    text = "x,y\n" + "0.123457,1.5\n" * rows + "3,4\n" + tail
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    assert len(list(dataset._blocks(path))) >= 3
    assert (check(path)[0] == "ok") == (fault is None)
    check(path, "y", "regression")
    if fault is not None:
        with pytest.raises(DataError, match=fault.format(text.count("\n"))):
            load_feature_matrix(path)
    else:
        assert load_feature_matrix(path)[-2:].tolist() == [[3.0, 4.0], [7.0, 8.0]]


def test_classification_targets(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y\n1,1\n2,-1\n", encoding="utf-8")
    check(path, "y", "classification")
    path.write_text("a,y\n1,1\n2,0.5\n", encoding="utf-8")
    assert check(path, "y", "classification") == ("labels",)


# ---------------------------------------------------------------------------
# Random files
# ---------------------------------------------------------------------------

TOKENS = ["0", "1", "-0", "+0", ".5", "5.", "1e400", "-1e400", "inf", "-nan", "Infinity",
          "5e-324", "0.1", "1.7976931348623157e308", "abc", "", " ", "#", "#1", "1#",
          '"1"', '"1', '1"', '""', '"1,2"', '" 2 "', '"3" ', "1_000", "\uff11", "\x0c1",
          "1\u2028", " 1 ", "\t2\t", "\xa03", "3\x1c", "\x1f2", "0x10", "1e", "--1", "1 2",
          "\x001"]

cells = st.one_of(
    st.sampled_from(TOKENS),
    st.floats().map(repr),
    st.floats(width=32).map(lambda x: f"{x:.6f}"),
    st.text(alphabet='0123456789.eE+-_ "#,\t\x0cinfa\uff11\u2028\xa0', max_size=6),
)


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    names = ["a", "b", "y"][:width]
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "comment", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \x0c"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "  #c,1", '"#q",1', "#,\"x\""])))
        else:
            n = width if kind == "row" else draw(st.integers(1, 4))
            lines.append(",".join(draw(st.lists(cells, min_size=n, max_size=n))))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["# top", "", "  # top"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, draw(st.sampled_from([None, "y", 0]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=400, deadline=None)
@given(case=csv_files())
def test_random_files(workdir, case):
    text, target = case
    path = workdir / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    if target is None:
        check(path)
    else:
        check(path, target, "regression")
    path.unlink()  # reopening a rewritten file can stall for tens of ms


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

WRITER_CASES = {
    "ints and bools": (("i", "b"), [(0, True), (-7, False), (np.int64(3), np.bool_(True))]),
    "none": (("a", "b"), [(None, 1.5), (2.5, None)]),
    "lone empty cell": (("only",), [("",), (None,), ("x",)]),
    "empty header cell": (("",), [(1,)]),
    "text needing quotes": (("s", "t"), [("a,b", 'say "hi"'), ("line\nbreak", "cr\ronly"),
                                          ("plain", " spaced "), ('"', ",")]),
    "special floats": (("x",), [(-0.0,), (0.0,), (5e-324,), (1e16,), (1e-7,), (1e22,),
                               (float("inf"),), (float("-inf"),), (float("nan"),)]),
    "17-digit floats": (("x", "y"), [(0.1 + 0.2, 2.718281828459045),
                                     (1.7976931348623157e308, -2.2250738585072014e-308)]),
    "numpy scalars": (("f", "i", "g"), [(np.float64(0.1), np.int32(-4), np.float32(0.1)),
                                        (np.float64(-0.0), np.uint8(200), np.float16(1.5))]),
    "mixed column": (("v",), [(1,), (1.0,), ("1",), (None,), (True,), (np.float64(2),)]),
    "other objects": (("o",), [((1, 2),), ([3],), (SystemExit,)]),
    "no rows": (("a", "b"), []),
    "non-ascii": (("name",), [("Ωmega",), ("naïve, too",)]),
}


def columns(header, rows) -> list:
    """The columns of a table of rows, as lists of its cells."""
    return [[row[j] for row in rows] for j in range(len(header))]


def same_bytes(tmp_path, header, rows, cols) -> None:
    """The columns `cols` written as the oracle writes `rows`."""
    for sub in ("old", "new"):
        (tmp_path / sub).mkdir(exist_ok=True)
    oracle._write_csv(tmp_path / "old", "t.csv", header, rows)
    assert _write_csv(tmp_path / "new", "t.csv", header, cols) == "t.csv"
    assert (tmp_path / "new" / "t.csv").read_bytes() == (tmp_path / "old" / "t.csv").read_bytes()
    for sub in ("old", "new"):  # reopening a rewritten file can stall for tens of ms
        (tmp_path / sub / "t.csv").unlink()


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_matches_csv_writer(tmp_path, name):
    header, rows = WRITER_CASES[name]
    same_bytes(tmp_path, header, rows, columns(header, rows))


SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-7, 0.1,
           -0.0, 1e16, float("nan"), 2.718281828459045, 1.7976931348623157e308, 1e22]


@pytest.mark.parametrize("n", [0, 1, 5, 4097])
def test_writer_numpy_columns(tmp_path, n):
    """float64 and int64 arrays (formatted by '%r' and '%d') beside a text
    column: special floats and repeats, and the classification triple
    row,label,log_odds that predict writes."""
    x = np.array((SPECIAL * (n // len(SPECIAL) + 1))[:n], dtype=np.float64)
    i = np.arange(n, dtype=np.int64) * -(2 ** 40) + 7
    text = ["a,b" if k % 3 else "" for k in range(n)]
    rows = list(zip(x.tolist(), i.tolist(), text))
    same_bytes(tmp_path, ("x", "i", "t"), rows, (x, i, text))
    labels = np.where(np.arange(n) % 2, 1, -1).astype(np.int64)
    rows = list(zip(range(n), labels.tolist(), x.tolist()))
    same_bytes(tmp_path, ("row", "label", "log_odds"), rows, (np.arange(n), labels, x))
    same_bytes(tmp_path, ("only",), [(v,) for v in x.tolist()], (x,))
    # other arrays: bools, float32, uint8, strings and objects, by cell text
    others = (x > 0, np.arange(n, dtype=np.float32) / 3, i.astype(np.uint8),
              np.array(text, dtype=str), np.array(text, dtype=object))
    rows = list(zip(*(column.tolist() for column in others)))
    same_bytes(tmp_path, ("b", "f", "u", "s", "o"), rows, others)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.floats(), st.integers(), st.none(), st.booleans(),
                                         st.text(max_size=5)),
                               st.one_of(st.floats(), st.text(alphabet=',"\n\r a#', max_size=4))),
                     max_size=6))
def test_writer_random_rows(workdir, rows):
    same_bytes(workdir, ("p", "q"), rows, columns(("p", "q"), rows))
    floats = [v for v, _ in rows if type(v) is float]
    same_bytes(workdir, ("f",), [(v,) for v in floats], (np.array(floats, dtype=np.float64),))


def test_writer_rejects_ragged_rows(tmp_path):
    """Columns of unequal length, which would make ragged rows, or a column
    count other than the header's raise ValueError and leave no file."""
    with pytest.raises(ValueError, match="same number of rows"):
        _write_csv(tmp_path, "t.csv", ("a", "b"), ([1, 3], [2]))
    assert not (tmp_path / "t.csv").exists()
    with pytest.raises(ValueError, match="3 columns for 2 header cells"):
        _write_csv(tmp_path, "t.csv", ("a", "b"), ([1], [2], [3]))
    assert not (tmp_path / "t.csv").exists()
    # a column that ends in a later block, after earlier blocks were written
    n = 3 * experiments._CSV_ROWS
    for ragged in (([1] * (n + 2), [2] * (n + 1)), (np.arange(n + 1), np.zeros(n + 2))):
        (tmp_path / "t.csv").write_text("an older file")
        with pytest.raises(ValueError, match="same number of rows"):
            _write_csv(tmp_path, "t.csv", ("a", "b"), ragged)
        assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# Blocks: the reader parses and the writer writes a block at a time
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Blocks of 7 characters and 2 rows, so that block boundaries fall
    inside comments, empty lines, quoted lines and faulty rows."""
    monkeypatch.setattr(dataset, "_CSV_CHARS", 7)
    monkeypatch.setattr(experiments, "_CSV_ROWS", 2)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_in_tiny_blocks(tiny_blocks, tmp_path, name):
    test_corpus(tmp_path, name)


@pytest.mark.parametrize("case", [
    test_corpus_reads_what_it_should, test_quoted_cell_running_past_its_line_is_rejected,
    test_errors_name_file_lines, test_classification_targets, test_writer_rejects_ragged_rows,
], ids=lambda case: case.__name__)
def test_cases_in_tiny_blocks(tiny_blocks, tmp_path, case):
    case(tmp_path)


@pytest.mark.parametrize("tail,fault", [("\n7,8\n", None),
                                        ("# c\n\n7,oops\n", "non-numeric cell at row {}")])
def test_late_comment_in_tiny_blocks(tiny_blocks, tmp_path, tail, fault):
    test_late_comment_after_filter_free_blocks(tmp_path, tail, fault)


@pytest.mark.parametrize("cell", ["1_000", "\uff11"])
def test_rejected_digits_in_tiny_blocks(tiny_blocks, tmp_path, cell):
    test_digit_separators_and_non_ascii_digits_are_rejected(tmp_path, cell)


def test_random_files_in_tiny_blocks(tiny_blocks, workdir):
    test_random_files(workdir=workdir)


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_in_tiny_blocks(tiny_blocks, tmp_path, name):
    test_writer_matches_csv_writer(tmp_path, name)


@pytest.mark.parametrize("n", [0, 1, 5, 4097])
def test_writer_numpy_columns_in_tiny_blocks(tiny_blocks, tmp_path, n):
    test_writer_numpy_columns(tmp_path, n)


def test_writer_random_rows_in_tiny_blocks(tiny_blocks, workdir):
    test_writer_random_rows(workdir=workdir)


def test_tiny_blocks_split_lines(tiny_blocks, tmp_path):
    """Lines longer than a block are read whole; the blocks end at line
    breaks of any kind."""
    path = tmp_path / "d.csv"
    path.write_bytes(b"# a long comment\r\nalpha,beta\r1,2\n\n3,4")
    blocks = list(dataset._blocks(path))
    assert "".join(blocks) == "# a long comment\nalpha,beta\n1,2\n\n3,4"
    assert len(blocks) > 3 and all(b.endswith("\n") for b in blocks[:-1])


def test_reader_memory_stays_near_the_table(tmp_path):
    """Reading a 100 000 x 9 file (six decimals, as the benchmark writes
    them) peaks below 3.2 times the table: the table, the blocks it was
    joined from and one block of text. Holding the whole text and its lines
    took 3.75 times."""
    path = tmp_path / "big.csv"
    table = np.random.default_rng(3).uniform(size=(100_000, 9))
    np.savetxt(path, table, fmt="%.6f", delimiter=",",
               header=",".join(f"x{j}" for j in range(9)), comments="")
    tracemalloc.start()
    try:
        got = load_feature_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (100_000, 9) and np.abs(got - table).max() <= 5e-7
    assert peak < 3.2 * got.nbytes, peak / got.nbytes


def test_writer_memory_is_one_block(tmp_path):
    """Writing 100 000 rows of an int64 and a float64 column peaks below
    8 MiB; formatting the whole table at once took 30 MiB."""
    values = np.random.default_rng(4).standard_normal(100_000)
    tracemalloc.start()
    try:
        _write_csv(tmp_path, "p.csv", ("row", "prediction"), (np.arange(values.size), values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
    written = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1)
    assert written[:, 0].tolist() == list(range(values.size))
    assert written[:, 1].tolist() == values.tolist()
