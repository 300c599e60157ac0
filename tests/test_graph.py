import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed import graph
from walkembed.errors import EmptyGraphError, ParseError, ValidationError
from walkembed.graph import (
    Graph,
    from_edges,
    load_csr,
    load_edge_list,
    load_graph,
    prune_low_degree,
    save_csr,
    save_edge_list,
)

import oracles
from conftest import build_graph


def write(tmp_path, text, name="g.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadEdgeList:
    def test_triangle(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n"))
        assert (g.num_nodes, g.num_edges) == (3, 3)
        assert g.neighbors(0).tolist() == [1, 2]

    def test_self_loop_dropped_and_remapped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "5 5\n5 7\n"))
        assert (g.num_nodes, g.num_edges) == (2, 1)
        assert g.external_ids.tolist() == [5, 7]

    def test_duplicate_edges_collapse(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n0 1\n1 0\n"))
        assert g.num_edges == 1

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n\n0 1\n"))
        assert g.num_edges == 1

    def test_weight_column_ignored(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1 3.5\n1 2 0.1\n"))
        assert g.num_edges == 2

    def test_csv_format(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0,1\n1,2\n"), format="csv")
        assert g.num_edges == 2

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_edge_list(write(tmp_path, "0 1\nbogus\n"))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "text, fmt, line_no",
        [
            ("0 1\n1 99999999999999999999\n", "tsv", 2),
            ("0,1\n\n-9223372036854775809,0\n", "csv", 3),
            ("# ids\n9223372036854775808 1 0.5\n", "tsv", 2),
        ],
    )
    def test_id_outside_int64_reports_number(self, tmp_path, text, fmt, line_no):
        with pytest.raises(ParseError) as exc:
            load_edge_list(write(tmp_path, text), format=fmt)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("text", ["0 1\n1.5 2\n", "0 1\n1e3 2\n", "0 1\n2 3.0\n"])
    def test_float_id_reports_number(self, tmp_path, text):
        with pytest.raises(ParseError) as exc:
            load_edge_list(write(tmp_path, text))
        assert exc.value.line_no == 2

    def test_int_parsed_via_float_warning_is_a_parse_error(self, tmp_path, monkeypatch):
        real = np.loadtxt

        def loadtxt(source, dtype, **kw):  # numpy 1.23-1.26: warn, then truncate the float
            try:
                return real(source, dtype=dtype, **kw)
            except ValueError:
                if hasattr(source, "seek"):  # a text stream; a path is opened again
                    source.seek(0)
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                return real(source, dtype=np.float64, **kw).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(ParseError) as exc:
            load_edge_list(write(tmp_path, "0 1\n# ids\n1.5 2\n"))
        assert exc.value.line_no == 3
        assert load_edge_list(write(tmp_path, "0 1\n")).num_edges == 1

    @pytest.mark.parametrize(
        "data, line_no",
        [(b"0 1\n\xff 2\n", 2), (b"# \xe9t\xe9\r\n0 1\n", 1), (b"0 1\r2 3\r4 \xc3\n", 3)],
    )
    def test_not_utf8_reports_number(self, tmp_path, data, line_no):
        path = tmp_path / "g.tsv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            load_edge_list(path)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("fmt, sep", [("tsv", "\t"), ("csv", ",")])
    def test_last_bad_line_of_many_found_by_halving(self, tmp_path, monkeypatch, fmt, sep):
        # each line was once parsed alone up to the bad one: 4 096 calls here
        calls, real = [], graph._read_ids
        monkeypatch.setattr(graph, "_read_ids", lambda text, format: calls.append(text) or real(text, format))
        path = tmp_path / f"g.{fmt}"
        path.write_text("".join(f"{i}{sep}{i + 1}\n" for i in range(4095)) + f"12{sep}x\n")
        with pytest.raises(ParseError, match="expected two decimal node ids") as exc:
            load_edge_list(path, format=fmt)
        assert exc.value.line_no == 4096
        assert len(calls) <= 2 * 12 + 2

    @pytest.mark.parametrize("first, second", [(0, 4095), (5, 3000), (2047, 2048), (4094, 4095)])
    @pytest.mark.parametrize("utf8_first", [True, False])
    def test_first_of_two_bad_lines_named(self, tmp_path, first, second, utf8_first):
        lines = [f"{i}\t{i + 1}".encode() for i in range(4096)]
        bad_ids, not_utf8 = b"12\tx", b"\xff\t2"
        lines[first], lines[second] = (not_utf8, bad_ids) if utf8_first else (bad_ids, not_utf8)
        path = tmp_path / "g.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match="not UTF-8" if utf8_first else "expected two decimal") as exc:
            load_edge_list(path)
        assert exc.value.line_no == first + 1

    def test_int64_extremes_accepted(self, tmp_path):
        g = load_edge_list(write(tmp_path, "-9223372036854775808 9223372036854775807\n"))
        assert g.external_ids.tolist() == [-(2**63), 2**63 - 1]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EmptyGraphError):
            load_edge_list(write(tmp_path, "# nothing\n"))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            load_edge_list(write(tmp_path, "0 1\n"), format="parquet")

    def test_external_ids_sorted_remap(self, tmp_path):
        g = load_edge_list(write(tmp_path, "30 10\n20 10\n"))
        assert g.external_ids.tolist() == [10, 20, 30]
        # 10 -> 0 is adjacent to 20 -> 1 and 30 -> 2
        assert g.neighbors(0).tolist() == [1, 2]


class TestPrune:
    def test_path_single_pass(self, path4):
        pruned = prune_low_degree(path4, 2)
        assert (pruned.num_nodes, pruned.num_edges) == (2, 1)
        # survivors now have degree 1 but are NOT re-pruned
        assert pruned.degrees.tolist() == [1, 1]

    def test_triangle_unchanged(self, triangle):
        pruned = prune_low_degree(triangle, 2)
        assert (pruned.num_nodes, pruned.num_edges) == (3, 3)

    def test_star_keeps_isolated_center(self, star5):
        pruned = prune_low_degree(star5, 2)
        assert (pruned.num_nodes, pruned.num_edges) == (1, 0)

    def test_zero_threshold_is_identity(self, triangle):
        assert prune_low_degree(triangle, 0) is triangle

    def test_everything_removed(self, two_node):
        with pytest.raises(EmptyGraphError):
            prune_low_degree(two_node, 5)

    def test_negative_threshold(self, triangle):
        with pytest.raises(ValidationError):
            prune_low_degree(triangle, -1)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_threshold(self, k):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 0)], 6)
        try:
            smaller = prune_low_degree(g, k + 1).num_nodes
        except EmptyGraphError:
            smaller = 0
        try:
            larger = prune_low_degree(g, k).num_nodes
        except EmptyGraphError:
            larger = 0
        assert smaller <= larger


class TestNeighbors:
    def test_triangle(self, triangle):
        assert triangle.neighbors(0).tolist() == [1, 2]

    def test_path_midpoint(self, path4):
        assert path4.neighbors(1).tolist() == [0, 2]

    def test_out_of_range(self, triangle):
        with pytest.raises(IndexError):
            triangle.neighbors(3)
        with pytest.raises(IndexError):
            triangle.neighbors(-1)

    def test_degree_matches_raw_edge_recount(self):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 30, size=(120, 2))
        g = from_edges(pairs, 30)
        # independent recount from the deduplicated symmetric edge set
        seen = {(a, b) for a, b in pairs.tolist() if a != b}
        seen |= {(b, a) for a, b in seen}
        for u in range(30):
            assert g.degree(u) == sum(1 for a, _ in seen if a == u)


edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=40
)


class TestInvariants:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_constructor_invariants(self, pairs):
        g = from_edges(np.asarray(pairs), 10)
        oracles.validate_graph(g)

    @given(edge_lists.filter(lambda ps: any(a != b for a, b in ps)))
    @settings(max_examples=30, deadline=None)
    def test_edge_list_round_trip(self, tmp_path_factory, pairs):
        g = from_edges(np.asarray(pairs), 10)
        path = tmp_path_factory.mktemp("rt") / "g.tsv"
        save_edge_list(g, path)
        # reload keeps only nodes that appear in some edge; compare edge sets
        g2 = load_edge_list(path)
        orig = set(zip(*(e.tolist() for e in oracles.upper_edges(g))))
        back = {
            (int(g2.external_ids[a]), int(g2.external_ids[b]))
            for a, b in zip(*oracles.upper_edges(g2))
        }
        assert orig == back

    def test_csr_cache_round_trip(self, tmp_path, path4):
        path = tmp_path / "g.csr"
        save_csr(path4, path)
        g2 = load_csr(path)
        assert g2.num_nodes == path4.num_nodes
        assert g2.num_edges == path4.num_edges
        assert np.array_equal(g2.offsets, path4.offsets)
        assert np.array_equal(g2.targets, path4.targets)

    def test_csr_cache_keeps_external_ids(self, tmp_path):
        g = from_edges(np.array([[0, 1]]), 2, external_ids=np.array([7, 9]))
        save_csr(g, tmp_path / "g.csr")
        assert load_csr(tmp_path / "g.csr").external_ids.tolist() == [7, 9]

    @pytest.mark.parametrize("flags", [0b10, 0b11, 0b110, 2**63])
    def test_csr_flags_other_than_0_and_1_rejected_before_any_array_is_read(self, tmp_path, monkeypatch, flags):
        # flags 0b110 once loaded as a 3-node graph with no external ids
        p = tmp_path / "g.csr"
        save_csr(from_edges(np.array([[0, 1], [1, 2]]), 3), p)
        data = bytearray(p.read_bytes())
        data[24:32] = flags.to_bytes(8, "little")
        p.write_bytes(bytes(data))
        counts, real = [], np.fromfile
        monkeypatch.setattr(np, "fromfile", lambda *a, count, **kw: counts.append(count) or real(*a, count=count, **kw))
        with pytest.raises(ValidationError, match=f"^{p}: flags {flags}, but only 0 and 1 \\(external ids\\) are defined$"):
            load_csr(p)
        assert counts == [3]  # the header's

    def test_csr_magic_check(self, tmp_path):
        p = tmp_path / "bad.csr"
        p.write_bytes(b"not a csr file")
        with pytest.raises(ValidationError):
            load_csr(p)

    @pytest.mark.parametrize("cut", ["short header", "short body", "trailing bytes"])
    def test_csr_length_checked_against_header(self, tmp_path, cut):
        g = from_edges(np.array([[0, 1], [1, 2]]), 3, external_ids=np.array([4, 5, 6]))
        save_csr(g, tmp_path / "g.csr")
        data = (tmp_path / "g.csr").read_bytes()
        data = {"short header": data[:20], "short body": data[:-8], "trailing bytes": data + bytes(64)}[cut]
        p = tmp_path / "cut.csr"
        p.write_bytes(data)
        with pytest.raises(ValidationError, match=str(p)):
            load_csr(p)

    # the path 0-1-2-3 is offsets [0, 1, 3, 5, 6], targets [1, 0, 2, 1, 3, 2]
    @pytest.mark.parametrize("offsets, targets, message", [
        ([1, 1, 3, 5, 6], [1, 0, 2, 1, 3, 2], "offsets run from 1 to 6, not from 0 to 6"),
        ([0, 1, 3, 5, 5], [1, 0, 2, 1, 3, 2], "offsets run from 0 to 5, not from 0 to 6"),
        ([0, 4, 3, 5, 6], [1, 0, 2, 1, 3, 2], "row 1 ends before it starts"),
        ([0, 1, 3, 5, 6], [1, 0, 2, 1, 4, 2], "row 2 holds target 4, outside \\[0, 4\\)"),
        ([0, 1, 3, 5, 6], [1, 0, 2, 1, 3, -1], "row 3 holds target -1, outside \\[0, 4\\)"),
        ([0, 1, 3, 5, 6], [1, 2, 0, 1, 3, 2], "row 1 is not strictly ascending"),
        ([0, 1, 3, 5, 6], [1, 0, 2, 3, 3, 2], "row 2 is not strictly ascending"),
    ])
    def test_csr_structure_checked(self, tmp_path, offsets, targets, message):
        p = tmp_path / "bad.csr"
        save_csr(Graph(4, 3, np.array(offsets), np.array(targets)), p)
        with pytest.raises(ValidationError, match=f"^{p}: {message}$"):
            load_csr(p)

    def test_csr_with_empty_first_and_last_rows_loads(self, tmp_path):
        g = from_edges(np.array([[1, 3], [2, 3], [1, 2]]), 5)
        assert g.degrees.tolist() == [0, 2, 2, 2, 0]
        save_csr(g, tmp_path / "g.csr")
        assert load_csr(tmp_path / "g.csr").content_hash() == g.content_hash()

    def test_save_edge_list_unknown_format(self, tmp_path, triangle):
        with pytest.raises(ValidationError, match="parquet"):
            save_edge_list(triangle, tmp_path / "g.txt", format="parquet")
        assert not (tmp_path / "g.txt").exists()

    def test_load_graph_sniffs_format(self, tmp_path, triangle):
        save_csr(triangle, tmp_path / "a")
        assert load_graph(tmp_path / "a").num_edges == 3
        (tmp_path / "b.tsv").write_text("0 1\n")
        assert load_graph(tmp_path / "b.tsv").num_edges == 1

    @pytest.mark.parametrize("name", ["edges.csv", "edges.CSV", "edges.Csv"])
    def test_load_graph_csv_suffix_in_any_case(self, tmp_path, name):
        (tmp_path / name).write_text("0,1\n1,2\n")
        g = load_graph(tmp_path / name)
        assert g.num_edges == 2 and g.external_ids.tolist() == [0, 1, 2]


class TestFromEdges:
    def test_keys_that_overflow_int64_rejected_before_allocating(self):
        with pytest.raises(ValidationError, match="num_nodes 4294967296"):
            from_edges(np.array([[0, 1]]), num_nodes=2**32)

    def test_one_node_above_the_limit_rejected(self):
        # 3037000499**2 - 1 < 2**63 <= 3037000500**2 - 1
        with pytest.raises(ValidationError, match="num_nodes 3037000500"):
            from_edges(np.array([[0, 1]]), num_nodes=3_037_000_500)
