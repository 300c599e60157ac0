"""The edge-list loader, from_edges and prune against the per-line, sort-based
references in oracles.py: same graphs, same CSR bytes, or the same error at the
same line."""

import gzip
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed import graph as graph_mod
from walkembed.errors import EmptyGraphError, ParseError, ValidationError
from walkembed.graph import (
    from_edges,
    group_ids,
    load_edge_list,
    prune_low_degree,
    run_index,
    run_starts,
    save_csr,
    save_edge_list,
)

import oracles


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type and line number below
        return exc


def assert_same_graph(got, want):
    assert (got.num_nodes, got.num_edges) == (want.num_nodes, want.num_edges)
    assert got.offsets.dtype == want.offsets.dtype and got.targets.dtype == want.targets.dtype
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.targets, want.targets)
    if want.external_ids is None:
        assert got.external_ids is None
    else:
        assert np.array_equal(got.external_ids, want.external_ids)


def assert_same_load(path, fmt):
    want = outcome(lambda: oracles.load_edge_list_reference(path, fmt))
    got = outcome(lambda: load_edge_list(path, fmt))
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        if isinstance(want, ParseError):
            assert got.line_no == want.line_no
    else:
        assert not isinstance(got, Exception), got
        assert_same_graph(got, want)


# ---------------------------------------------------------------- edge-list texts

BLANKS = st.text(alphabet=" \t", max_size=3)
BULK_IDS = st.one_of(st.integers(-5, 40), st.integers(-(10**18) + 1, 10**18 - 1))
BAD_LINES = {  # "\xff" becomes a byte that is not UTF-8
    "tsv": ["bogus", "1", "1.5 2", "0x1f 2", "--1 2", "٣ 2", "1_000 2", "1 99999999999999999999",
            "-9223372036854775809 0", "\xff", "1 2x", "1,2", "3-4 5"],
    "csv": ["bogus", "1", "1.5,2", "0x1f,2", "--1,2", "٣,2", "1_000,2", "1,99999999999999999999",
            "-9223372036854775809,0", "\xff", "1,2x", "1,2.5", "3-4,5"],
}


@st.composite
def odd_ids(draw):
    """An in-range id of any length, zero-padded or '+'-signed."""
    i = draw(st.integers(-(2**63), 2**63 - 1))
    sign, digits = ("-" if i < 0 else ""), str(abs(i))
    return draw(st.sampled_from([str(i), sign + "00" + digits, (sign or "+") + digits]))


@st.composite
def edge_list_bytes(draw, fmt, odd: bool | None = None, bad: bool | None = None):
    """An edge-list text; odd texts use the rarer forms of the grammar, and a
    bad line is one the reference rejects.

    Every text may hold indented comments and blank lines, tabs and runs of
    spaces, weight and extra columns, negative and 18-digit ids, ASCII
    control bytes in comments, CRLF line ends and a last line without a line
    end. Odd texts add 19-digit, zero-padded and '+'-signed ids, non-ASCII
    whitespace and comments, non-numeric columns, vertical tabs and lone CR
    line ends.
    """
    odd = draw(st.booleans()) if odd is None else odd
    bad = draw(st.booleans()) if bad is None else bad
    gaps = [" ", "\t", "  \t "] if fmt == "tsv" else [",", " , ", ",\t"]
    tails = ["", " 3.5", "\t-1e-3 +2", " 1,2"] if fmt == "tsv" else ["", ",3.5", " ,-1e-3, 7", ","]
    comment_chars = st.characters(max_codepoint=127, blacklist_characters="\n\r")
    ids, blanks, ends = BULK_IDS, BLANKS, ["\n", "\r\n"]
    if odd:
        ids = st.one_of(ids, odd_ids())
        gaps += ["\u00a0", "\u2003", "\x0b"] if fmt == "tsv" else [",,", ", \u00a0"]
        tails += [" abc", " # note"] if fmt == "tsv" else [",abc", ", # note", ",+4 x"]
        comment_chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r")
        blanks = st.one_of(BLANKS, st.just(" \u00a0"))
        ends += ["\r"]
    data = st.builds(
        lambda b, u, g, v, t, e: f"{b}{u}{g}{v}{t}{e}",
        BLANKS, ids, st.sampled_from(gaps), ids, st.sampled_from(tails), BLANKS,
    )
    comment = st.builds(lambda b, t: b + "#" + t, BLANKS, st.text(comment_chars, max_size=8))
    lines = draw(st.lists(st.one_of(data, data, data, comment, blanks), max_size=12))
    if bad:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES[fmt])))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # last line without its line break
    return text.encode("utf-8").replace("\xff".encode("utf-8"), b"\xff")


class TestLoadAgainstReference:
    @given(st.data(), st.sampled_from(["tsv", "csv"]))
    @settings(max_examples=400, deadline=None)
    def test_any_text(self, tmp_path_factory, data, fmt):
        path = tmp_path_factory.mktemp("any") / "g.txt"
        path.write_bytes(data.draw(edge_list_bytes(fmt)))
        assert_same_load(path, fmt)

    @given(st.data(), st.sampled_from(["tsv", "csv"]))
    @settings(max_examples=150, deadline=None)
    def test_plain_text_is_parsed_in_bulk(self, tmp_path_factory, data, fmt):
        text = data.draw(edge_list_bytes(fmt, odd=False, bad=False))
        path = tmp_path_factory.mktemp("plain") / "g.txt"
        path.write_bytes(text)
        assert_same_load(path, fmt)

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("csv", b"0,1\n1 2\n"),  # spaces but no comma
            ("tsv", b"0 1 heavy\n"),  # non-numeric extra column
            ("csv", b"0,1,heavy\n"),
            ("tsv", b"1_000 2\n"),
            ("tsv", b"+3 4\n"),
            ("tsv", "0 1\n".encode()),  # non-ASCII whitespace
            ("tsv", b"# \xff\n0 1\n"),  # not UTF-8
            ("tsv", b"0 1\r2 3\n"),  # a lone carriage return ends a line
            ("tsv", b"0 1\n3-4 5\n"),  # no blank between the ids
            ("csv", b"0,1\n1,2.5\n"),  # the second id runs into a non-id
            ("csv", b"0,1\n1,2 3\n"),
            ("tsv", b"0 1234567890123456789\n"),  # 19 digits
            ("tsv", b"0 99999999999999999999\n"),  # outside int64
        ],
    )
    def test_outside_the_subset_falls_back(self, tmp_path, fmt, text):
        """Edge cases of the grammar: columns, signs, encodings, line ends and id ranges."""
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        assert_same_load(path, fmt)


class TestGrammar:
    """The forms where the grammar departs from what Python's int() reads."""

    @pytest.mark.parametrize(
        "fmt, text, line_no",
        [
            ("tsv", "0 1\n1_000 2\n", 2),  # '_'-grouped digits
            ("csv", "0,1\n\n2,1_000\n", 3),
            ("tsv", "# ids\n٣ 2\n", 2),  # non-ASCII digits
            ("csv", "0,1\n٣,2\n", 2),
        ],
    )
    def test_rejected_at_its_line(self, tmp_path, fmt, text, line_no):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_edge_list(path, fmt)
        assert exc.value.line_no == line_no
        assert_same_load(path, fmt)

    @pytest.mark.parametrize(
        "fmt, text",
        [("csv", b"1 2\n"), ("csv", b"1,2 3\n"), ("tsv", b"0 1#x\n"), ("csv", b"0,1#x\n")],
    )
    def test_accepted(self, tmp_path, fmt, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        assert load_edge_list(path, fmt).num_edges == 1
        assert_same_load(path, fmt)

    def test_lone_cr_ends_a_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\r2 3\n")
        g = load_edge_list(path)
        assert g.num_edges == 2 and g.external_ids.tolist() == [0, 1, 2, 3]

    def test_comment_only_file_is_empty_and_warns_nothing(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n  # more\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EmptyGraphError):
                load_edge_list(path)
        assert caught == []


def edge_pairs(g) -> list[list[int]]:
    """[u, v] of every edge u < v, in CSR order."""
    return np.column_stack(oracles.upper_edges(g)).tolist()


class TestPathRoute:
    """A tsv file is parsed by np.loadtxt from its path; these texts parse as
    they did when the whole file was decoded into a text stream first."""

    TRIANGLE = [[0, 1], [0, 2], [1, 2]]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_line_ends(self, tmp_path, end):
        path = tmp_path / "g.tsv"
        path.write_bytes(end.join([b"0 1", b"1 2", b"2 0"]) + end)
        g = load_edge_list(path)
        assert g.external_ids.tolist() == [0, 1, 2] and edge_pairs(g) == self.TRIANGLE
        assert_same_load(path, "tsv")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u00a0"])
    def test_unicode_blanks_separate_fields_not_lines(self, tmp_path, sep):
        # "0 1<sep>1 2" is one line of four fields, so its edge is 0-1
        path = tmp_path / "g.tsv"
        path.write_text(f"0 1{sep}1 2\n2{sep}3\n", encoding="utf-8")
        g = load_edge_list(path)
        assert g.external_ids.tolist() == [0, 1, 2, 3] and edge_pairs(g) == [[0, 1], [2, 3]]
        assert_same_load(path, "tsv")

    def test_comment_right_after_an_id(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"0 1#x\n")
        assert edge_pairs(load_edge_list(path)) == [[0, 1]]

    def test_bom_is_a_bad_first_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n")
        with pytest.raises(ParseError) as exc:
            load_edge_list(path)
        assert exc.value.line_no == 1
        assert_same_load(path, "tsv")

    def test_compression_suffix_is_read_as_text(self, tmp_path):
        # np.loadtxt would decompress a path ending in .gz; the text route does not
        path = tmp_path / "edges.tsv.gz"
        path.write_bytes(b"0 1\n1 2\n2 0\n")
        assert edge_pairs(load_edge_list(path)) == self.TRIANGLE

    def test_missing_file_is_not_found_beside_its_compressed_name(self, tmp_path):
        # np.loadtxt, given the missing g.tsv, would open g.tsv.gz
        (tmp_path / "g.tsv.gz").write_bytes(gzip.compress(b"0 1\n"))
        with pytest.raises(FileNotFoundError):
            load_edge_list(tmp_path / "g.tsv")


# ---------------------------------------------------------------- id remap


def assert_remap_is_unique(ids, packed: bool, monkeypatch):
    ids = np.asarray(ids, dtype=np.int64)
    want_ext, want_inv = np.unique(ids, return_inverse=True)
    calls = []
    real = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    ext, inv = graph_mod._remap(ids)
    monkeypatch.undo()
    assert (ext.dtype, inv.dtype, inv.shape) == (want_ext.dtype, want_inv.dtype, want_inv.shape)
    assert np.array_equal(ext, want_ext) and np.array_equal(inv, want_inv)
    assert calls == ([] if packed else [1])


class TestRemap:
    @given(st.lists(st.one_of(st.integers(-50, 50), st.integers(-(2**40), 2**40)), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_equals_unique(self, ids):
        with pytest.MonkeyPatch.context() as mp:
            assert_remap_is_unique(ids, packed=True, monkeypatch=mp)

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_equals_unique_over_int64(self, ids):
        m = len(ids)
        packed = (max(ids) - min(ids)).bit_length() + (m - 1).bit_length() <= 63
        with pytest.MonkeyPatch.context() as mp:
            assert_remap_is_unique(ids, packed, mp)

    def test_one_id_repeated(self, monkeypatch):
        assert_remap_is_unique([-7] * 9, packed=True, monkeypatch=monkeypatch)

    def test_int64_extremes(self, monkeypatch):
        ids = [2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63)]
        assert_remap_is_unique(ids, packed=False, monkeypatch=monkeypatch)

    # 6 positions take shift 3 bits, so a span of 60 bits is the widest that packs
    @pytest.mark.parametrize(
        "span, packed", [(2**59 - 1, True), (2**60 - 1, True), (2**60, False), (2**61 - 1, False)]
    )
    def test_span_at_the_packed_limit(self, monkeypatch, span, packed):
        lo = -(2**58) - 3
        ids = [lo + span, lo, lo + 5, lo + span, lo, lo + span // 2]
        assert_remap_is_unique(ids, packed, monkeypatch)


# ---------------------------------------------------------------- run helpers


class TestRunStarts:
    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=np.int64)
        want = [i for i in range(len(values)) if i == 0 or values[i] != values[i - 1]]
        got = run_starts(values)
        assert got.dtype == np.int64 and got.tolist() == want

    @given(st.lists(st.integers(-3, 3), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_equals_a_loop(self, values):
        self.check(values)

    @pytest.mark.parametrize("values", [[], [7] * 9, [4], [1, 2, 3, 5], [-1, 0, -1, 0]])
    def test_empty_all_equal_and_single_runs(self, values):
        self.check(values)


@st.composite
def runs_and_window(draw):
    """Run starts (some runs empty) and a window [lo, hi) of their positions."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    lo = draw(st.integers(0, sum(sizes)))
    return starts, lo, draw(st.integers(lo, sum(sizes)))


class TestRunIndex:
    @staticmethod
    def check(starts, lo, hi):
        want = np.searchsorted(starts, np.arange(lo, hi), "right") - 1
        got = run_index(starts, lo, hi)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @given(runs_and_window())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_search_per_position(self, case):
        self.check(*case)

    def test_windows_that_cut_runs(self):
        # runs of 7, 0, 0, 1, 12 and 0 positions; windows start and end inside runs
        starts = np.array([0, 7, 7, 7, 8, 20], dtype=np.int64)
        for lo in range(21):
            for hi in range(lo, 21):
                self.check(starts, lo, hi)


def assert_groups_like_unique(ids):
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    want_unique, want_starts = np.unique(ids[order], return_index=True)
    unique, got_order, starts = group_ids(ids)
    assert (unique.dtype, got_order.dtype, starts.dtype) == (np.int64, np.int64, np.int64)
    assert unique.tolist() == want_unique.tolist()
    assert got_order.tolist() == order.tolist() and starts.tolist() == want_starts.tolist()


class TestGroupIds:
    @given(st.lists(st.one_of(st.integers(-50, 50), st.integers(-(2**40), 2**40)), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_equals_unique_and_a_stable_argsort(self, ids):
        assert_groups_like_unique(np.asarray(ids, dtype=np.int64))

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_int32_ids_widened_before_packing(self, ids):
        # a span of up to 2**32 - 1 and up to 9 shift bits wrap an int32 key
        assert_groups_like_unique(np.asarray(ids, dtype=np.int32))

    # m positions take (m - 1).bit_length() shift bits; the span may take the rest of 63
    @pytest.mark.parametrize("m", [2, 3, 6, 300])
    @pytest.mark.parametrize("lo", [-(2**62), 0, 2**62 + 1])
    def test_span_at_the_packing_limit(self, m, lo):
        span = 2 ** (63 - (m - 1).bit_length()) - 1
        lo = min(lo, 2**63 - 2 - span)  # one past the largest id stays in int64
        ids = np.resize(np.array([lo + span, lo, lo + span // 2], dtype=np.int64), m)
        assert_groups_like_unique(ids)
        ids[0] += 1  # a span one bit past the limit
        with pytest.raises(ValidationError, match=f"^ids spanning {span + 1} at {m} positions do not fit int64"):
            group_ids(ids)


def benchmark_shaped_text(seed: int, nodes: int = 3_000, edges: int = 30_000) -> str:
    """A header comment, then odd external ids in planted classes, self-loops,
    repeated and reversed edges, and degree-1 pendants, shuffled."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, nodes, edges)
    same = rng.random(edges) < 0.75
    v = np.where(same, u // 750 * 750 + rng.integers(0, 750, edges), rng.integers(0, nodes, edges))
    pairs = np.column_stack([u, v])
    loops = np.repeat(rng.integers(0, nodes, 30)[:, None], 2, axis=1)
    dup = pairs[rng.integers(0, edges, 300)][:, ::-1]
    pend = np.column_stack([np.arange(nodes, nodes + 30), rng.integers(0, nodes, 30)])
    pairs = np.concatenate([pairs, loops, dup, pend])[rng.permutation(edges + 360)]
    body = "".join(f"{2 * a + 1}\t{2 * b + 1}\n" for a, b in pairs.tolist())
    return "# source\tdestination\n" + body


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_shaped_csr_bytes_identical(tmp_path, seed):
    path = tmp_path / "edges.tsv"
    path.write_text(benchmark_shaped_text(seed))
    g, want = load_edge_list(path), oracles.load_edge_list_reference(path)
    for name, got, ref in (("graph", g, want), ("pruned", prune_low_degree(g, 2), oracles.prune_reference(want, 2))):
        save_csr(got, tmp_path / f"{name}.new.csr")
        save_csr(ref, tmp_path / f"{name}.ref.csr")
        assert (tmp_path / f"{name}.new.csr").read_bytes() == (tmp_path / f"{name}.ref.csr").read_bytes()


def test_load_memory_bounded_by_file_size(tmp_path):
    # 150k benchmark-shaped lines (1.7 MB). Under tracemalloc the np.loadtxt
    # parse, the packed-key remap and from_edges peak at 8.7x the file size
    # (8.8x with the np.unique remap); the per-line reference, with its list
    # of int tuples, peaked at 23.3x.
    path = tmp_path / "edges.tsv"
    path.write_text(benchmark_shaped_text(3, nodes=15_000, edges=150_000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * size


# ------------------------------------------------------- from_edges and prune

edge_arrays = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80),
    )
)


@given(edge_arrays)
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_reference(case):
    n, pairs = case
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    assert_same_graph(from_edges(edges, n), oracles.from_edges_reference(edges, n))


@given(edge_arrays, st.integers(1, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_prune_matches_reference(case, min_degree, with_ids):
    n, pairs = case
    ext = np.arange(n, dtype=np.int64) * 3 + 7 if with_ids else None
    g = from_edges(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), n, ext)
    want = outcome(lambda: oracles.prune_reference(g, min_degree))
    got = outcome(lambda: prune_low_degree(g, min_degree))
    if isinstance(want, Exception):
        assert type(got) is type(want)
    else:
        assert_same_graph(got, want)
        oracles.validate_graph(got)


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("fmt", ["tsv", "csv"])
def test_save_edge_list_bytes_match_one_write(tmp_path, monkeypatch, fmt, block):
    # a 5-position block cuts rows, and nodes 0-9 and 200 are isolated
    if block:
        monkeypatch.setattr(graph_mod, "_WRITE_BLOCK", block)
    rng = np.random.default_rng(9)
    g = from_edges(rng.integers(10, 200, size=(1_000, 2)), 201)
    for name, g in (("g.txt", g), ("empty.txt", from_edges(np.empty((0, 2)), 3))):
        save_edge_list(g, tmp_path / name, format=fmt)
        oracles.save_edge_list_reference(g, tmp_path / f"ref-{name}", format=fmt)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
    assert (tmp_path / "empty.txt").read_bytes() == b""
