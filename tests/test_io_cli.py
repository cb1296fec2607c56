import contextlib
import dataclasses
import hashlib
import io
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asck import (
    Digraph,
    ParseError,
    ccm_text,
    cyclic_table,
    dg_text,
    dihedral_table,
    direct_product,
    rank_two_scheme,
    read_ccm,
    read_dg,
    scheme_from_colors,
    thin_scheme,
    validate,
    wl_closure,
    wreath,
    write_ccm,
    write_dg,
)
from asck.cli import EXIT_DISAGREE, EXIT_FALSE, EXIT_INPUT, EXIT_OK, _joined, build_parser, main
from asck import core
from asck import corpus as corpus_module
from asck.constructions import digraph_color_matrix
from asck.core import MAX_POINTS, _decimal_text, _digit_table, as_color_matrix
from asck.corpus import abelian_tables
from asck.errors import NonContiguousColors, SchemeError
from asck import io as asck_io
from asck.io import _content_lines
from oracles import (
    chords_shape,
    ladder_closures_64,
    old_decimal_words,
    old_read_ccm,
    same_matrix,
)


def z4_text() -> str:
    return ccm_text(thin_scheme(cyclic_table(4)).matrix)


class TestCcmFormat:
    def test_round_trip_through_file(self, tmp_path):
        s = thin_scheme(cyclic_table(5))
        path = tmp_path / "c5.ccm"
        write_ccm(s.matrix, path)
        assert np.array_equal(read_ccm(path), s.matrix)

    def test_round_trip_through_stream(self):
        w = wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3)))
        again = read_ccm(io.StringIO(ccm_text(w.matrix)))
        assert np.array_equal(again, w.matrix)

    def test_text_matches_per_row_join(self, corpus):
        """The per-entry ``str`` rows that the string table replaced are
        the oracle, on every corpus member, the n = 64 ladder closures
        and arrays that are not color matrices."""
        def per_row_text(matrix):
            arr = np.asarray(matrix, dtype=np.int64)
            body = "\n".join(" ".join(map(str, row)) for row in arr.tolist())
            return f"ccm {arr.shape[0]} {int(arr.max()) + 1}\n{body}\n"

        matrices = [m.scheme.matrix for m in corpus] + [s.matrix for s in ladder_closures_64()]
        for matrix in matrices:
            assert ccm_text(matrix) == per_row_text(matrix)
        # arrays that are not color matrices: the same body from the byte
        # encoder, and ccm_text refuses them as as_color_matrix does
        odd = [[[0, -1], [1, 2]], [[0, -3], [5, 2]], [[0, 10 ** 15], [7, 1]],
               [[2 ** 63 - 1, -2 ** 63], [0, 0]]]
        for matrix in odd:
            arr = np.array(matrix, dtype=np.int64)
            body = per_row_text(arr).split("\n", 1)[1]
            assert _decimal_text(arr, " ", "\n").decode("ascii") == body
            want = error_of(as_color_matrix, arr)
            assert want is not None and error_of(ccm_text, arr) == want

    def test_text_peak_without_a_copy(self):
        """``ccm_text`` checks an int64 matrix's ids in place: with a copy
        of the matrix it peaked at 14 bytes per cell on the n = 512
        wreath, and without one at about 10."""
        matrix = wreath(rank_two_scheme(16), rank_two_scheme(32)).matrix
        assert matrix.shape == (512, 512)
        tracemalloc.start()
        try:
            ccm_text(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * matrix.size

    @pytest.mark.parametrize("matrix", [[10, 2], 7])
    def test_text_rejects_non_matrices(self, matrix):
        with pytest.raises(SchemeError, match="expected a square matrix"):
            ccm_text(matrix)

    @pytest.mark.parametrize("matrix,message", [
        pytest.param(np.zeros((0, 0), dtype=np.int64), "expected at least one point", id="0x0"),
        pytest.param(np.zeros((2, 3), dtype=np.int64),
                     r"expected a square matrix, got shape \(2, 3\)", id="2x3"),
        pytest.param([[0.5, 1], [1, 0.2]], "expected integer entries", id="fractions"),
    ])
    def test_writers_refuse_what_read_ccm_cannot_read(self, matrix, message, tmp_path):
        """Before, these raised numpy's ValueError, wrote a 2 x 3 body
        under the header "ccm 2 3", or truncated 0.5 to 0; now each gives
        ``validate``'s SchemeError and writes no file."""
        with pytest.raises(SchemeError, match=message) as expected:
            validate(matrix)
        path = tmp_path / "out.ccm"
        for write in (ccm_text, lambda m: write_ccm(m, path)):
            with pytest.raises(SchemeError) as raised:
                write(matrix)
            assert str(raised.value) == str(expected.value)
        assert not path.exists()

    @pytest.mark.parametrize("matrix", [
        pytest.param([[-1, -1], [-1, -1]], id="all-negative"),
        pytest.param([[0, -1], [-1, 0]], id="negative"),
        pytest.param([[0, 5], [5, 0]], id="gap"),
    ])
    def test_writers_refuse_what_read_ccm_rejects(self, matrix, tmp_path):
        """Integer matrices without colors 0..r-1: before, these were
        written with the header "ccm 2 0", a negative id or a gap, text
        that ``read_ccm`` rejects; now both writers raise the SchemeError
        of ``as_color_matrix`` and write no file."""
        written = f"ccm 2 {max(map(max, matrix)) + 1}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in matrix)
        with pytest.raises(SchemeError):
            read_ccm(io.StringIO(written))
        want = error_of(as_color_matrix, matrix)
        path = tmp_path / "out.ccm"
        assert want is not None and error_of(ccm_text, matrix) == want
        assert error_of(lambda m: write_ccm(m, path), matrix) == want
        assert not path.exists()

    def test_comments_and_blank_lines_skipped(self):
        text = "# generated\n\nccm 2 2\n# rows follow\n0 1\n1 0\n"
        assert read_ccm(io.StringIO(text)).tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty input"),
        ("dgm 2 2\n0 1\n1 0\n", "expected header"),
        ("ccm 2\n0 1\n1 0\n", "expected header"),
        ("ccm two 2\n0 1\n1 0\n", "non-integer header"),
        ("ccm 0 1\n", "must be positive"),
        ("ccm 3 2\n0 1\n1 0\n", "expected 3 matrix rows, found 2"),
        ("ccm 2 2\n0 1 1\n1 0\n", "expected 2 fields, got 3"),
        ("ccm 2 2\n0 x\n1 0\n", "non-integer field"),
        ("ccm 2 5\n0 1\n1 0\n", "header says r=5 but the matrix has 2"),
    ])
    def test_rejects_malformed_input(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            read_ccm(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "\n\ndg 2 2\n0 1\n1 0\n", "ccm 2\n", "ccm 2 2 2\n",
        "ccm two 2\n0 1\n1 0\n", "ccm 2 2.0\n", "ccm 0 1\n"])
    def test_header_messages_match_per_line_parse(self, text):
        """The shared header reader keeps every message of the old parse."""
        with pytest.raises(ParseError) as got:
            read_ccm(io.StringIO(text))
        with pytest.raises(ParseError) as want:
            old_read_ccm(io.StringIO(text))
        assert str(got.value) == str(want.value)

    def test_error_carries_source_and_line(self):
        path_text = "ccm 2 2\n0 1\n1 oops\n"
        with pytest.raises(ParseError) as info:
            read_ccm(io.StringIO(path_text))
        assert info.value.line == 3

    def test_gapped_colors_raise_with_remap(self):
        text = "ccm 2 2\n0 2\n2 0\n"
        with pytest.raises(NonContiguousColors) as info:
            read_ccm(io.StringIO(text))
        assert info.value.remap == {0: 0, 2: 1}


def error_of(call, matrix):
    """The type and message of the SchemeError that ``call(matrix)``
    raises, or None."""
    try:
        call(matrix)
    except SchemeError as exc:
        return type(exc), str(exc)
    return None


INT64 = st.one_of(st.integers(0, 30), st.integers(-2 ** 63, 2 ** 63 - 1),
                  st.sampled_from([-2 ** 63, 2 ** 63 - 1, 0, -1, 10 ** 18, 99, 100]))


class TestDecimalText:
    """The byte encoder against the ``str`` joins it replaced: the .ccm
    body, the hash payload and both forms of the info lists."""

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_str_joins(self, data):
        rows, cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        if data.draw(st.booleans()):  # a color matrix: entries in 0..size-1
            values = st.integers(0, rows * cols - 1)
        else:
            values = INT64
        arr = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)),
                       dtype=np.int64).reshape(rows, cols)
        words = old_decimal_words(arr).tolist()
        body = "".join(" ".join(row) + "\n" for row in words)
        assert _decimal_text(arr, " ", "\n") == body.encode("ascii")
        if rows == cols:  # a color matrix is written, anything else refused alike
            want = error_of(as_color_matrix, arr)
            if want is None:
                assert ccm_text(arr) == f"ccm {rows} {int(arr.max()) + 1}\n{body}"
            else:
                assert error_of(ccm_text, arr) == want
        payload = f"{rows} {cols} " + " ".join(w for row in words for w in row)
        fake = core.Scheme(matrix=arr, n=rows, r=cols, transpose_map=None,
                           diagonal_colors=None, fibers=None, degrees=None, sizes=None,
                           first_cells=None, circulant=False)
        assert fake.hash == hashlib.sha256(payload.encode("ascii")).hexdigest()
        for vector in [*arr, arr.ravel()]:
            for sep in ",", " ":
                assert _joined(vector, sep) == sep.join(map(str, vector.tolist()))

    def test_digit_table_across_widths(self):
        for top in [*range(12), *range(98, 102), *range(998, 1002), 9999, 10000, 16383, 100000]:
            table = _digit_table(top)
            assert table.shape == (top + 1, len(str(top)) + 1)
            assert [bytes(row).replace(b"\0", b"") for row in table] == [
                str(v).encode() for v in range(top + 1)]


def parse_outcome(read, text):
    """The matrix ``read`` makes of the text, or the type and message of
    what it raises.  Where the per-line oracle overflowed in numpy, the
    outcome is the ParseError naming the first line with an out-of-range
    field, as the per-line fallback now raises it."""
    try:
        return read(io.StringIO(text)).tolist()
    except OverflowError:
        _, lines = _content_lines(io.StringIO(text))
        lineno, line = next((i, line) for i, line in lines[1:]
                            if any(not -2 ** 63 <= int(x) < 2 ** 63 for x in line.split()))
        return ParseError, f"<stream>:{lineno}: field out of range in: {line!r}"
    except SchemeError as exc:
        return type(exc), str(exc)


CCM_TEXTS = [ccm_text(s.matrix) for s in (
    thin_scheme(cyclic_table(4)), rank_two_scheme(3),
    wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3))))]
ODD_TOKENS = ["1_0", "+3", "\u0663", "x", "1.0", "-0", "00", "+1", "\uff11", "1__0",
              str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1),
              "99999999999999999999999", "9" * 18, "0" * 18 + "1"]
SEPARATORS = ["\t", "  ", "\x1f", "\xa0", " "]


def mutated(data, text: str, first: int = 1) -> str:
    """``text`` after up to four drawn edits of its lines from line
    ``first`` on: a token replaced by an odd one, a token dropped or
    added, one space between tokens replaced by another separator, or a
    comment or blank line inserted."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(
            ["token", "token", "drop", "add", "separator", "comment", "blank"]))
        at = data.draw(st.integers(first, len(lines) - 1))
        fields = lines[at].split()
        if kind == "token" and fields:
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(ODD_TOKENS))
            lines[at] = " ".join(fields)
        elif kind == "separator" and len(fields) > 1:
            k = data.draw(st.integers(1, len(fields) - 1))
            lines[at] = (" ".join(fields[:k]) + data.draw(st.sampled_from(SEPARATORS))
                         + " ".join(fields[k:]))
        elif kind == "drop" and fields:
            del fields[data.draw(st.integers(0, len(fields) - 1))]
            lines[at] = " ".join(fields)
        elif kind == "add":
            lines[at] = lines[at] + " " + data.draw(st.sampled_from(["0", "1", "x"]))
        elif kind == "comment":
            lines.insert(at, "  # a comment")
        else:
            lines.insert(at, data.draw(st.sampled_from(["", "   "])))
    return "\n".join(lines) + "\n"


class TestOneCallParse:
    @settings(max_examples=300)
    @given(st.data())
    def test_matches_per_line_parse(self, data):
        text = mutated(data, data.draw(st.sampled_from(CCM_TEXTS)))
        assert parse_outcome(read_ccm, text) == parse_outcome(old_read_ccm, text)

    @pytest.mark.parametrize("text", CCM_TEXTS)
    def test_valid_texts_parse_alike(self, text):
        assert parse_outcome(read_ccm, text) == parse_outcome(old_read_ccm, text)

    @pytest.mark.parametrize("text", CCM_TEXTS)
    def test_row_field_counts_total_n_squared(self, text):
        """Rows of n - 1 and n + 1 fields, n^2 fields in all, raise the
        per-line parse's ParseError for the short row."""
        lines = text.splitlines()
        first, second = lines[1].split(), lines[2].split()
        lines[1], lines[2] = " ".join(first[:-1]), " ".join([first[-1]] + second)
        moved = "\n".join(lines) + "\n"
        n = len(first)
        outcome = parse_outcome(read_ccm, moved)
        assert outcome == parse_outcome(old_read_ccm, moved)
        assert outcome == (ParseError, f"<stream>:2: expected {n} fields, got {n - 1}")

    @pytest.mark.parametrize("field,deferred", [
        ("9" * 18, False), ("0" * 17 + "1", False), ("9" * 19, True), ("0" * 18 + "1", True),
        (str(2 ** 63 - 1), True), (str(2 ** 63), True), ("3", False), ("\u0663", True)])
    def test_digit_bound(self, field, deferred, monkeypatch):
        """Fields of up to 18 ASCII digits are parsed at the byte level,
        longer ones line by line; both give the per-line outcome."""
        calls = []
        fallback = asck_io._int64_rows
        monkeypatch.setattr(asck_io, "_int64_rows", lambda *a: calls.append(a) or fallback(*a))
        text = "ccm 4 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 " + field + "\n"
        assert parse_outcome(read_ccm, text) == parse_outcome(old_read_ccm, text)
        assert bool(calls) == deferred


class TestDgFormat:
    def test_round_trip(self, tmp_path):
        g = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
        path = tmp_path / "g.dg"
        write_dg(g, path)
        again = read_dg(path)
        assert again.n == g.n and again.arcs == g.arcs

    def test_text_is_sorted_and_headed(self):
        g = Digraph.from_arcs(3, [(2, 0), (0, 1)])
        assert dg_text(g) == "dg 3 2\n0 1\n2 0\n"

    def test_loops_are_allowed(self):
        g = read_dg(io.StringIO("dg 2 2\n0 0\n0 1\n"))
        assert (0, 0) in g.arcs

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty input"),
        ("dg 2\n", "expected header"),
        ("dg 2 1\n0 5\n", "out of range"),
        ("dg 2 2\n0 1\n0 1\n", "duplicate arc"),
        ("dg 2 2\n0 1\n", "expected 2 arcs, found 1"),
        ("dg -1 0\n", "non-negative"),
    ])
    def test_rejects_malformed_input(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            read_dg(io.StringIO(text))

    @pytest.mark.parametrize("text,message", [
        ("", "<stream>:1: empty input"),
        ("\n# arcs\nccm 2 1\n", "<stream>:3: expected header 'dg <n> <m>', got 'ccm 2 1'"),
        ("dg 2\n", "<stream>:1: expected header 'dg <n> <m>', got 'dg 2'"),
        ("dg 2 one\n0 1\n", "<stream>:1: non-integer header fields"),
    ])
    def test_header_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            read_dg(io.StringIO(text))
        assert str(info.value) == message


class TestCliBasics:
    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "valid: n=4 r=4\n"

    def test_validate_bad_scheme(self, tmp_path, capsys):
        path = tmp_path / "bad.ccm"
        path.write_text("ccm 3 3\n0 1 1\n2 0 1\n2 2 0\n")
        assert main(["validate", str(path)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["99999999999999999999999", str(-2 ** 63 - 1)])
    def test_out_of_range_entry_is_an_input_error(self, entry, tmp_path, capsys):
        path = tmp_path / "huge.ccm"
        path.write_text(f"ccm 2 2\n0 1\n1 {entry}\n")
        assert main(["validate", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}:3: field out of range in: '1 {entry}'\n")

    def test_info_coerces_the_matrix_once(self, tmp_path, capsys, monkeypatch):
        """``read_ccm`` already returns colors 0..r-1, so reading a scheme
        checks the color ids (``core._color_ids``) once, with no second
        pass in ``validate``."""
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        calls = []
        real = core._color_ids

        def counting(matrix):
            calls.append(1)
            return real(matrix)

        monkeypatch.setattr(core, "_color_ids", counting)
        monkeypatch.setattr(asck_io, "_color_ids", counting)
        assert main(["info", str(path), "--machine"]) == EXIT_OK
        assert "n=4" in capsys.readouterr().out.splitlines()
        assert len(calls) == 1

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.ccm"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(z4_text()))
        assert main(["validate", "-"]) == EXIT_OK
        assert "valid: n=4" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_info_human_and_machine(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["info", str(path)]) == EXIT_OK
        human = capsys.readouterr().out
        assert "n: 4" in human and "homogeneous: true" in human
        assert main(["info", str(path), "--machine"]) == EXIT_OK
        pairs = dict(line.split("=", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert pairs["n"] == "4" and pairs["r"] == "4"
        assert pairs["degrees"] == "1,1,1,1"
        assert pairs["fibers"] == "1"

    def test_closed_sets_listing(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["closed-sets", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("closed sets: 3\n")
        assert "classes: 0 2 / 1 3" in out


class TestUndecodableInput:
    """A byte that is not UTF-8 is an input error (exit 2) naming the file
    and the line, in every command that reads a file."""

    def test_every_file_reading_command(self, tmp_path, capsys):
        ccm, dg, good = tmp_path / "bad.ccm", tmp_path / "bad.dg", tmp_path / "z4.ccm"
        ccm.write_bytes(b"# comment\nccm 2 2\n0 \xff\n1 0\n")
        dg.write_bytes(b"dg 2 1\r\n0 1\xc3\n")
        good.write_text(z4_text())
        bad_ccm = f"error: {ccm}:3: byte 0xff is not valid utf-8\n"
        bad_dg = f"error: {dg}:2: byte 0xc3 is not valid utf-8\n"
        runs = [(["validate", ccm], bad_ccm), (["info", ccm], bad_ccm),
                (["info", ccm, "--machine"], bad_ccm), (["closed-sets", ccm], bad_ccm),
                (["check-p", ccm, "-p", "2"], bad_ccm), (["theorem1", ccm, "-p", "2"], bad_ccm),
                (["corollary2", ccm], bad_ccm), (["gen", "wreath", ccm, good], bad_ccm),
                (["gen", "wreath", good, ccm], bad_ccm), (["gen", "wl-close", dg], bad_dg)]
        for argv, err in runs:
            assert main([str(a) for a in argv]) == EXIT_INPUT, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", err), argv

    def test_text_stream(self):
        raw = io.TextIOWrapper(io.BytesIO(b"ccm 2 2\n0 1\n\n1 \xe9\n"), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_ccm(raw)
        assert (info.value.line, info.value.message) == (4, "byte 0xe9 is not valid utf-8")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_machine_flag_does_not_stick(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["info", str(path), "--machine"]) == EXIT_OK
        assert "n=4" in capsys.readouterr().out.splitlines()
        assert main(["info", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "n: 4"

    def test_parse_failure_then_valid_call(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        with pytest.raises(SystemExit) as exc:
            main(["check-p", str(path), "-p", "two"])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err
        assert main(["check-p", str(path), "-p", "2", "--machine"]) == EXIT_OK
        assert "p-scheme=true" in capsys.readouterr().out.splitlines()
        with pytest.raises(SystemExit):
            main(["theorem1", str(path)])
        assert "the following arguments are required: -p" in capsys.readouterr().err
        assert main(["theorem1", str(path), "-p", "3"]) == EXIT_OK
        assert "p: 3" in capsys.readouterr().out.splitlines()


class TestCliChecks:
    def test_check_p_true(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["check-p", str(path), "-p", "2"]) == EXIT_OK
        assert "p-scheme: true" in capsys.readouterr().out

    def test_check_p_false_with_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(ccm_text(thin_scheme(cyclic_table(6)).matrix)))
        assert main(["check-p", "-", "-p", "2"]) == EXIT_FALSE
        out = capsys.readouterr().out
        assert "p-scheme: false" in out
        assert "color 0 has size 6" in out

    def test_check_p_machine_false_with_witness(self, tmp_path, capsys):
        s = thin_scheme(cyclic_table(6))
        path = tmp_path / "z6.ccm"
        path.write_text(ccm_text(s.matrix))
        assert main(["check-p", str(path), "-p", "3", "--machine"]) == EXIT_FALSE
        assert capsys.readouterr().out.splitlines() == [
            "n=6", "p=3", "p-scheme=false", "r=6", f"scheme={s.hash}",
            "witness.size-offender=color 0 has size 6"]

    def test_check_p_composite_p(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["check-p", str(path), "-p", "4"]) == EXIT_INPUT
        assert "not prime" in capsys.readouterr().err

    def test_check_p_nineteen_digit_primes(self, tmp_path, capsys):
        """Miller-Rabin answers at once; p of 2**63 or more exits 2."""
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["check-p", str(path), "-p", str(2 ** 63 - 25)]) == EXIT_FALSE
        assert main(["check-p", str(path), "-p", str(2 ** 63 + 29)]) == EXIT_INPUT
        assert f"2**63 = {2 ** 63}" in capsys.readouterr().err
        assert main(["corpus", "--max-n", "4", "--primes", f"2,{2 ** 63 + 29}"]) == EXIT_INPUT
        assert f"2**63 = {2 ** 63}" in capsys.readouterr().err

    def test_theorem1_agrees(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["theorem1", str(path), "-p", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "p-scheme: true" in out and "agree: true" in out

    def test_theorem1_machine(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["theorem1", str(path), "-p", "3", "--machine"]) == EXIT_OK
        pairs = dict(line.split("=", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert pairs["check"] == "partite-criterion"
        assert pairs["lhs"] == "false" and pairs["rhs"] == "false"
        assert pairs["agree"] == "true"

    def test_corollary2(self, tmp_path, capsys):
        path = tmp_path / "z4.ccm"
        path.write_text(z4_text())
        assert main(["corollary2", str(path)]) == EXIT_OK
        assert "agree: true" in capsys.readouterr().out


class TestCliGenerators:
    def test_gen_thin_cyclic_to_stdout(self, capsys):
        assert main(["gen", "thin-cyclic", "4"]) == EXIT_OK
        assert capsys.readouterr().out == z4_text()

    def test_gen_thin_cyclic_to_file(self, tmp_path):
        out = tmp_path / "c6.ccm"
        assert main(["gen", "thin-cyclic", "6", "-o", str(out)]) == EXIT_OK
        assert validate(read_ccm(out)).n == 6

    def test_gen_thin_cyclic_rejects_zero(self, capsys):
        """``cyclic_table`` tests the order; the command does not."""
        assert main(["gen", "thin-cyclic", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: order must be positive, got 0\n")

    def test_gen_wreath(self, tmp_path):
        inner = tmp_path / "i.ccm"
        outer = tmp_path / "o.ccm"
        out = tmp_path / "w.ccm"
        main(["gen", "thin-cyclic", "2", "-o", str(inner)])
        main(["gen", "thin-cyclic", "3", "-o", str(outer)])
        assert main(["gen", "wreath", str(inner), str(outer),
                     "-o", str(out)]) == EXIT_OK
        produced = validate(read_ccm(out))
        direct = wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3)))
        assert same_matrix(produced, direct)

    def test_gen_wl_close(self, tmp_path):
        g = tmp_path / "c4.dg"
        g.write_text("dg 4 4\n0 1\n1 2\n2 3\n3 0\n")
        out = tmp_path / "c4.ccm"
        assert main(["gen", "wl-close", str(g), "-o", str(out)]) == EXIT_OK
        assert same_matrix(validate(read_ccm(out)), thin_scheme(cyclic_table(4)))

    # 10**18 bytes exceed any process's address space, so not even a
    # missing check could allocate the n x n encoding at n = 10**9
    @pytest.mark.parametrize("n", [MAX_POINTS + 1, 10 ** 9])
    def test_gen_wl_close_rejects_oversized_header(self, n, tmp_path, capsys):
        g = tmp_path / "big.dg"
        g.write_text(f"dg {n} 0\n")
        assert main(["gen", "wl-close", str(g)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"n={n}" in err and f"n <= {MAX_POINTS}" in err


class TestPointBound:
    """Every n x n input stops at MAX_POINTS before any n x n array."""

    @pytest.mark.parametrize("entry", ["read_ccm", "cyclic_table", "wreath",
                                       "digraph_color_matrix", "rank_two_scheme",
                                       "scheme_from_colors", "dihedral_table",
                                       "direct_product"])
    def test_bound_plus_one(self, entry):
        m = MAX_POINTS + 1
        inner, outer = rank_two_scheme(25), rank_two_scheme(41)  # 25 * 41 = 1025
        left, right = cyclic_table(25), cyclic_table(41)
        n, call = {
            "read_ccm": (m, lambda: read_ccm(io.StringIO(f"ccm {m} 2\n"))),
            "cyclic_table": (m, lambda: cyclic_table(m)),
            "wreath": (m, lambda: wreath(inner, outer)),
            "digraph_color_matrix": (m, lambda: digraph_color_matrix(Digraph(m, frozenset()))),
            "rank_two_scheme": (m, lambda: rank_two_scheme(m)),
            "scheme_from_colors": (m, lambda: scheme_from_colors(m, [])),
            "direct_product": (m, lambda: direct_product(left, right)),
            # a dihedral group has an even order: 2 * 513 points
            "dihedral_table": (m + 1, lambda: dihedral_table((m + 1) // 2)),
        }[entry]
        tracemalloc.start()
        try:
            with pytest.raises(SchemeError) as info:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"n={n}" in str(info.value) and f"n <= {MAX_POINTS}" in str(info.value)
        assert peak < 2 ** 16

    def test_at_the_bound(self):
        assert MAX_POINTS == 1024
        n = MAX_POINTS
        matrix = 1 - np.eye(n, dtype=np.int64)
        assert np.array_equal(read_ccm(io.StringIO(ccm_text(matrix))), matrix)
        assert cyclic_table(n).m == n
        assert digraph_color_matrix(Digraph(n, frozenset())).shape == (n, n)

    def test_wreath_at_the_bound(self, monkeypatch):
        """The product of the factors' sizes is what is bounded (a real
        1,024-point wreath takes seconds to certify)."""
        monkeypatch.setattr(core, "MAX_POINTS", 12)
        assert wreath(rank_two_scheme(3), rank_two_scheme(4)).n == 12
        with pytest.raises(SchemeError, match="n=15"):
            wreath(rank_two_scheme(3), rank_two_scheme(5))

    def test_cli_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.ccm"
        big.write_text("ccm 100000 2\n")
        small = tmp_path / "k33.ccm"
        small.write_text(ccm_text(rank_two_scheme(33).matrix))
        for argv, n in ((["gen", "thin-cyclic", "100000"], 100000),
                        (["gen", "thin-cyclic", str(MAX_POINTS + 1)], MAX_POINTS + 1),
                        (["validate", str(big)], 100000),
                        (["gen", "wreath", str(small), str(small)], 33 * 33)):
            assert main(argv) == EXIT_INPUT
            err = capsys.readouterr().err
            assert f"n={n}" in err and f"n <= {MAX_POINTS}" in err
            assert "Traceback" not in err


def ladder_digraphs_64():
    """A circulant with jumps +-7 and a cycle-plus-chords digraph, n = 64."""
    n = 64
    circulant = [(u, (u + j) % n) for u in range(n) for j in (7, n - 7)]
    return {"circulant": Digraph.from_arcs(n, circulant),
            "chords": Digraph.from_arcs(n, chords_shape(random.Random(64), n))}


# a non-homogeneous scheme, a 4-cycle and a digraph that is no scheme's
CLI_TEXTS = CCM_TEXTS + [
    ccm_text(wl_closure(digraph_color_matrix(Digraph.from_arcs(3, [(0, 1)]))).matrix),
    dg_text(Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
    dg_text(Digraph.from_arcs(3, [(0, 1), (1, 1)]))]
CLI_COMMANDS = [["validate"], ["info"], ["info", "--machine"], ["closed-sets"],
                ["check-p", "-p", "2"], ["theorem1", "-p", "2"], ["corollary2"],
                ["gen", "wl-close"]]


class TestCliProperty:
    """Every command on mutated ``.ccm`` and ``.dg`` text, read from stdin
    by an in-process ``main``: an exit code from 0 to 3, nothing raised
    out of ``main``, no traceback, and a message on every exit 2."""

    @settings(max_examples=100)
    @given(st.data())
    def test_mutated_input_exits_cleanly(self, data):
        text = mutated(data, data.draw(st.sampled_from(CLI_TEXTS)), first=0)
        for command in CLI_COMMANDS:
            out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main([*command, "-"])
            finally:
                sys.stdin = stdin
            assert rc in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_DISAGREE), command
            assert "Traceback" not in err.getvalue(), command
            if rc == EXIT_INPUT:
                assert err.getvalue().startswith("error: "), command


class TestCliLadder:
    def test_pipeline_output_is_pinned(self, tmp_path, capsys):
        # sha256 of every stdout and written .ccm of the closure pipeline;
        # theorem1 runs on the homogeneous circulant closure only
        digest = hashlib.sha256()

        def call(argv):
            assert main(argv) == EXIT_OK
            out = capsys.readouterr().out
            digest.update(out.encode())
            return out

        for kind, g in ladder_digraphs_64().items():
            src, out = tmp_path / f"{kind}.dg", tmp_path / f"{kind}.ccm"
            write_dg(g, src)
            call(["gen", "wl-close", str(src), "-o", str(out)])
            digest.update(out.read_bytes())
            call(["validate", str(out)])
            info = call(["info", str(out), "--machine"]).splitlines()
            assert ("homogeneous=true" in info) == (kind == "circulant")
            if kind == "circulant":
                call(["theorem1", str(out), "-p", "2", "--machine"])
            else:
                assert "r=4096" in info
            call(["corollary2", str(out), "--machine"])
        assert digest.hexdigest() == (
            "9685f8ce8e4a99ffaf94f60859c7058ebef92a44f913609c75f0fcb555a1add4")


def relabeled_group_schemes():
    """The thin scheme of every abelian and every dihedral group of order
    8..24, its points relabeled by a permutation from a fixed seed."""
    rng = random.Random(24)
    tables = [t for m in range(8, 25) for _, t in abelian_tables(m)]
    tables += [dihedral_table(k) for k in range(4, 13)]
    schemes = []
    for t in tables:
        matrix = thin_scheme(t).matrix
        perm = list(range(t.m))
        rng.shuffle(perm)
        moved = np.empty_like(matrix)
        moved[np.ix_(perm, perm)] = matrix
        schemes.append(moved)
    return schemes


class TestCliClosedSets:
    def test_output_is_pinned(self, tmp_path, capsys):
        # sha256 of the closed-sets stdout over the 38 relabeled groups
        digest = hashlib.sha256()
        schemes = relabeled_group_schemes()
        for i, matrix in enumerate(schemes):
            path = tmp_path / f"g{i}.ccm"
            write_ccm(matrix, path)
            assert main(["closed-sets", str(path)]) == EXIT_OK
            digest.update(capsys.readouterr().out.encode())
        assert len(schemes) == 38
        assert digest.hexdigest() == (
            "ef54444f499ba2bf6a3aa07ddec6e6d3dd23f67c3f144c37abc7807d5f9692d2")


class TestCliCorpus:
    def test_small_corpus_run(self, capsys):
        code = main(["corpus", "--max-n", "8", "--primes", "2,3", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("corpus:")
        assert "all checks agree: true" in out
        assert "total" in out

    def test_small_corpus_machine_blocks(self, capsys):
        code = main(["corpus", "--max-n", "6", "--primes", "2",
                     "--seed", "7", "--machine"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        blocks = out.strip().split("\n\n")
        assert all(b.startswith("member=") for b in blocks)
        assert all("agree=true" in b for b in blocks)

    def test_deterministic_output(self, capsys):
        argv = ["corpus", "--max-n", "6", "--primes", "2,3", "--seed", "11"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_default_machine_output_is_pinned(self, capsys):
        # sha256 of the default ``asck corpus --machine`` stdout; any
        # change in a member, verdict, witness or format changes it
        assert main(["corpus", "--machine"]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "c4837677bbb0fd40735e604b094f7100212eb17809e5884e9b5ee04cddc68851"

    def test_default_text_output_is_pinned(self, capsys):
        # sha256 of the default ``asck corpus`` stdout: the header, the
        # per-family table, no DISAGREE line and the verdict
        assert main(["corpus"]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "faddff7b56acc3d38b9792ea9b3ec71b5f36293abad17ce12c709c71ee5b40d6"

    def test_disagreements_counted_per_family(self, capsys, monkeypatch):
        """With the bipartite check's rhs flipped on every 8-point member,
        those 47 reports disagree, in ten families; the table counts them
        per family, and each gets a DISAGREE line.  The pins are the text
        the summary printed for the same patch before it used Counters."""
        real = corpus_module.check_bipartite_criterion

        def flipped(scheme):
            report = real(scheme)
            return dataclasses.replace(report, rhs=not report.rhs) if scheme.n == 8 else report

        monkeypatch.setattr(corpus_module, "check_bipartite_criterion", flipped)
        assert main(["corpus"]) == EXIT_DISAGREE
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[1:13] == [
            "family         members  checks  disagreements",
            "quotient            66    1534             11",
            "rank-two            23     483              1",
            "thin-abelian        27     619              2",
            "thin-cyclic         24     542              1",
            "thin-dihedral       10     250              1",
            "wl-circulant        80    1852             12",
            "wl-random           60     360             12",
            "wreath-cyclic       30     696              2",
            "wreath-mixed        16     378              4",
            "wreath-triple        8     184              1",
            "total              344    6898             47",
        ]
        disagree = lines[13:-1]
        assert len(disagree) == 47 and lines[-1] == "all checks agree: false"
        assert all(line.startswith("DISAGREE member=")
                   and line.endswith(" check=bipartite-criterion p=2") for line in disagree)
        assert disagree[0] == ("DISAGREE member=quotient-thin-abelian-2x2x2x2-min0 "
                               "check=bipartite-criterion p=2")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "f40ec2cad0e3b6eea1e963ce809bf465acfd986812ec2dc12c1cb79a0c070eec"

    def test_invalid_thread_env_fails_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("ASCK_THREADS", "soon")
        assert main(["corpus", "--max-n", "6", "--primes", "2"]) == EXIT_INPUT
        assert "ASCK_THREADS" in capsys.readouterr().err

    def test_explicit_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ASCK_THREADS", "2")
        assert main(["corpus", "--max-n", "6", "--primes", "2"]) == EXIT_OK
        assert "all checks agree: true" in capsys.readouterr().out

    def test_repeated_prime_exits_2(self, capsys):
        assert main(["corpus", "--max-n", "3", "--primes", "2,2"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "prime 2 is repeated" in captured.err and captured.out == ""

    def test_bad_primes_argument(self, capsys):
        assert main(["corpus", "--max-n", "6", "--primes", "2;3"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err
