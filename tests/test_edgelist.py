import pytest
from hypothesis import given, strategies as st

from ohmwalk import (
    BadParameter,
    BadVertexId,
    DisconnectedGraph,
    InvalidEdge,
    ParseError,
    build_network,
    cycle,
    format_edge_list,
    hypercube,
    parse_edge_list,
)
from support import OVERFLOWING_TOTALS, random_corpus


class TestParse:
    def test_triangle_with_word_labels(self):
        doc = parse_edge_list("a b\nb c\nc a\n")
        assert doc.labels == ("a", "b", "c")
        assert doc.network.edge_count == 3
        assert doc.network.vertex_count == 3

    def test_weighted_records(self):
        doc = parse_edge_list("0 1 2.5\n1 2 0.5\n0 2 1\n")
        assert doc.network.conductance(doc.id_of("0"), doc.id_of("1")) == 2.5
        assert doc.network.conductance(doc.id_of("1"), doc.id_of("2")) == 0.5

    def test_first_appearance_order(self):
        doc = parse_edge_list("x y\ny z\nz x\n")
        assert doc.labels == ("x", "y", "z")

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\na b  # first edge\nb c\n c a\n"
        doc = parse_edge_list(text)
        assert doc.network.edge_count == 3

    def test_header_declares_vertex_count(self):
        doc = parse_edge_list("3\n0 1\n1 2\n0 2\n")
        assert doc.network.vertex_count == 3

    def test_header_alone_is_refused(self):
        # A network has at least two vertices and is connected, so it has an edge.
        with pytest.raises(ParseError) as caught:
            parse_edge_list("1\n")
        assert str(caught.value) == "line 1: no edge records"

    def test_header_smaller_than_labels(self):
        with pytest.raises(ParseError, match="exceeds declared vertex count"):
            parse_edge_list("2\na b\nb c\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\na b\nb c\n", "line 3: label 'c' exceeds declared vertex count 2"),
            ("2\na b\nc a\n", "line 3: label 'c' exceeds declared vertex count 2"),
            ("1\na b\n", "line 2: label 'b' exceeds declared vertex count 1"),
        ],
    )
    def test_header_overflow_message(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_edge_list(text)
        assert str(caught.value) == message

    def test_header_larger_than_labels_means_isolated_vertices(self):
        with pytest.raises(DisconnectedGraph):
            parse_edge_list("4\na b\nb c\nc a\n")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="line 1.*self-loop"):
            parse_edge_list("a a\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            parse_edge_list("a b\nb c\nb a\n")

    @pytest.mark.parametrize("token", ["abc", "-1", "0", "inf", "nan"])
    def test_bad_conductance(self, token):
        with pytest.raises(ParseError):
            parse_edge_list(f"a b {token}\n")

    def test_too_many_fields(self):
        with pytest.raises(ParseError, match="too many fields"):
            parse_edge_list("a b 1 extra\n")

    def test_stray_bare_token(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("a b\nc\n")

    def test_empty_document(self):
        with pytest.raises(ParseError, match="no edge records"):
            parse_edge_list("# nothing here\n")

    def test_disconnected_document(self):
        with pytest.raises(DisconnectedGraph):
            parse_edge_list("a b\nc d\n")

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TOTALS))
    def test_total_strength_past_float64_range(self, name):
        _, edges = OVERFLOWING_TOTALS[name]
        with pytest.raises(InvalidEdge, match="past the float64 range"):
            parse_edge_list("".join(f"{a} {b} {c!r}\n" for a, b, c in edges))

    def test_unknown_label_lookup(self):
        doc = parse_edge_list("a b\n")
        with pytest.raises(BadVertexId):
            doc.id_of("zebra")


class TestFormat:
    def test_unit_conductance_is_omitted(self):
        text = format_edge_list(build_network(2, [(0, 1)]))
        assert text == "2\n0 1\n"

    def test_non_unit_conductance_is_written(self):
        text = format_edge_list(build_network(2, [(0, 1, 0.5)]))
        assert text == "2\n0 1 0.5\n"

    def test_label_count_must_match(self):
        with pytest.raises(BadParameter):
            format_edge_list(build_network(2, [(0, 1)]), labels=("only",))

    def test_labels_must_be_plain_tokens(self):
        with pytest.raises(BadParameter):
            format_edge_list(build_network(2, [(0, 1)]), labels=("a b", "c"))

    def test_labels_must_be_distinct(self):
        # A repeated label would re-parse as a self-loop or a merged vertex.
        with pytest.raises(BadParameter, match="label 'a' is repeated"):
            format_edge_list(cycle(3), ("a", "a", "b"))

    def test_labels_may_come_as_a_list(self):
        text = format_edge_list(build_network(2, [(0, 1)]), ["x", "y"])
        assert text == "2\nx y\n"
        assert parse_edge_list(text).labels == ("x", "y")


class TestRoundTrip:
    def test_generated_graph(self):
        net = hypercube(3)
        again = parse_edge_list(format_edge_list(net))
        assert again.network.edge_count == net.edge_count
        assert again.network.vertex_count == net.vertex_count

    def test_random_corpus_preserves_labeled_conductances(self):
        for net in random_corpus(count=15, seed=99):
            doc = parse_edge_list(format_edge_list(net))
            # Map back through the labels; conductances must survive exactly.
            rebuilt = {}
            for a, b, c in doc.network.edges:
                la, lb = int(doc.labels[a]), int(doc.labels[b])
                rebuilt[(min(la, lb), max(la, lb))] = c
            original = {(a, b): c for a, b, c in net.edges}
            assert rebuilt == original

    @given(
        st.lists(
            st.floats(min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_path_conductances_survive_seventeen_digits(self, conductances):
        net = build_network(
            len(conductances) + 1,
            [(i, i + 1, c) for i, c in enumerate(conductances)],
        )
        doc = parse_edge_list(format_edge_list(net))
        assert [c for _, _, c in doc.network.edges] == [c for _, _, c in net.edges]
