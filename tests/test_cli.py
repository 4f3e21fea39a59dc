import io
import json
from collections import Counter

import numpy as np
import pytest

from ohmwalk.cli import run_cli
from support import OVERFLOWING_TOTALS


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


TRIANGLE = "a b\nb c\nc a\n"


class TestGen:
    def test_cycle_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "4")
        assert code == 0
        assert out == "4\n0 1\n0 3\n1 2\n2 3\n"

    def test_petersen_takes_no_params(self, capsys):
        code, out, _ = run(capsys, "gen", "petersen")
        assert code == 0
        assert len(out.strip().splitlines()) == 16  # header + 15 edges

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "cube.edges"
        code, _, _ = run(capsys, "gen", "hypercube", "3", "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("8\n")

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "dodecahedron", "1")
        assert code == 2
        assert "unknown family" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "gen", "cycle")
        assert code == 2
        assert "parameter" in err

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2


class TestQueries:
    def test_resistance_pair(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, TRIANGLE)
        code, out, _ = run(capsys, "resistance", "--pair", "a", "c")
        assert code == 0
        assert out.strip() == "0.666666666667"

    def test_resistance_matrix_json(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, TRIANGLE)
        code, out, _ = run(capsys, "resistance", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["labels"] == ["a", "b", "c"]
        assert document["resistance"][0][1] == pytest.approx(2 / 3)
        assert document["kirchhoff_index"] == pytest.approx(2.0)

    def test_kirchhoff_from_file(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        run(capsys, "gen", "cycle", "4", "-o", str(path))
        code, out, _ = run(capsys, "kirchhoff", "-i", str(path))
        assert code == 0
        assert out.strip() == "5"

    def test_hitting(self, tmp_path, capsys):
        path = tmp_path / "cube.edges"
        run(capsys, "gen", "hypercube", "3", "-o", str(path))
        code, out, _ = run(capsys, "hitting", "-i", str(path), "--from", "0", "--to", "1")
        assert code == 0
        assert out.strip() == "7"

    def test_return_time(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        run(capsys, "gen", "cycle", "8", "-o", str(path))
        code, out, _ = run(capsys, "return-time", "-i", str(path), "--vertex", "0")
        assert code == 0
        assert out.strip() == "8"

    def test_unknown_label(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, TRIANGLE)
        code, _, err = run(capsys, "return-time", "--vertex", "zebra")
        assert code == 2
        assert "zebra" in err


class TestRemoveEdge:
    def test_hypercube_report_values(self, tmp_path, capsys):
        path = tmp_path / "cube.edges"
        run(capsys, "gen", "hypercube", "3", "-o", str(path))
        code, out, _ = run(capsys, "remove-edge", "-i", str(path), "--edge", "0", "1", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["edge"] == {"a": 0, "b": 1}
        assert document["r_before"] == pytest.approx(7 / 12)
        assert document["r_after_predicted"] == pytest.approx(1.4)
        assert document["r_after_direct"] == pytest.approx(1.4)
        assert document["r_increment"] == pytest.approx(49 / 60)
        assert document["hitting_before"] == pytest.approx(7.0)
        assert document["hitting_after_predicted"] == pytest.approx(15.4)
        assert document["hitting_after_direct"] == pytest.approx(15.4)
        assert document["kirchhoff_after"] >= document["kirchhoff_before"]
        assert document["walk_regular"] is True

    def test_remove_edge_factorises_each_network_once(self, tmp_path, capsys, monkeypatch):
        # One eigendecomposition of the original network; one grounded solve
        # of it and one of the edge-deleted network.
        path = tmp_path / "cube.edges"
        run(capsys, "gen", "hypercube", "3", "-o", str(path))
        counts = Counter()

        def count(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        count("eigh")
        count("solve")
        code, _, _ = run(capsys, "remove-edge", "-i", str(path), "--edge", "0", "1")
        assert code == 0
        assert counts == {"eigh": 1, "solve": 2}

    def test_human_readable_lists_every_field(self, tmp_path, capsys):
        path = tmp_path / "cube.edges"
        run(capsys, "gen", "hypercube", "3", "-o", str(path))
        code, out, _ = run(capsys, "remove-edge", "-i", str(path), "--edge", "0", "1")
        assert code == 0
        for field in (
            "edge:", "r_before:", "r_after_predicted:", "r_after_direct:", "r_increment:",
            "hitting_before:", "hitting_after_predicted:", "hitting_after_direct:",
            "kirchhoff_before:", "kirchhoff_after:", "walk_regular:",
        ):
            assert field in out

    def test_prediction_absent_without_certificate(self, capsys, monkeypatch):
        # 4-cycle plus one chord: regular? no - degrees differ, so no certificate.
        feed_stdin(monkeypatch, "0 1\n1 2\n2 3\n3 0\n0 2\n")
        code, out, _ = run(capsys, "remove-edge", "--edge", "0", "1", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["walk_regular"] is False
        assert document["hitting_after_predicted"] is None

    def test_cut_edge_is_input_error(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "a b\nb c\n")
        code, _, err = run(capsys, "remove-edge", "--edge", "a", "b")
        assert code == 2
        assert "cut-edge" in err

    # Labels 0 1 2 4 3 ... take ids in order of first appearance, so label
    # "3" is id 4 and label "4" is id 3: ids would name the wrong pair.
    CUBE_ORDER = "0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n4 5\n4 6\n3 7\n5 7\n6 7\n"

    def test_missing_edge_is_named_by_labels(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, self.CUBE_ORDER)
        code, _, err = run(capsys, "remove-edge", "--edge", "0", "3")
        assert code == 2
        assert err == "error: (0, 3) is not an edge\n"

    def test_labelled_edge_is_found(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, self.CUBE_ORDER)
        code, out, _ = run(capsys, "remove-edge", "--edge", "4", "0")
        assert code == 0
        assert out.startswith("edge: 0 4\n")

    def test_cut_edge_is_named_by_labels(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "hub x\nx y\ny hub\ny tail\n")
        code, _, err = run(capsys, "remove-edge", "--edge", "tail", "y")
        assert code == 2
        assert err == "error: (tail, y) is a cut-edge; removal would disconnect the graph\n"


class TestWalkRegular:
    def test_cycle_json(self, tmp_path, capsys):
        path = tmp_path / "c6.edges"
        run(capsys, "gen", "cycle", "6", "-o", str(path))
        code, out, _ = run(capsys, "walk-regular", "-i", str(path), "--json")
        assert code == 0
        document = json.loads(out)
        assert document == {
            "is_regular": True,
            "is_walk_regular": True,
            "first_violation": None,
            "checked_k_max": 5,
            "labels": ["0", "1", "5", "2", "3", "4"],
        }

    def test_star_fails_degrees(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "hub a\nhub b\nhub c\n")
        code, out, _ = run(capsys, "walk-regular", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["is_regular"] is False
        assert document["is_walk_regular"] is False
        assert document["first_violation"] is None

    def test_violation_schema(self, capsys, monkeypatch):
        # Regular graph with a lopsided triangle count: witness is (k, x, y).
        text = "0 1\n1 2\n0 2\n0 3\n1 4\n2 5\n3 6\n3 7\n4 6\n4 7\n5 6\n5 7\n"
        feed_stdin(monkeypatch, text)
        code, out, _ = run(capsys, "walk-regular", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["is_regular"] is True
        assert document["is_walk_regular"] is False
        assert document["first_violation"] == {"k": 3, "x": 0, "y": 3}
        assert document["checked_k_max"] == 2

    def test_witness_text_names_labels(self, capsys, monkeypatch):
        # The uneven cubic with vertex v labelled "v" + str(7 - v): the labels
        # v7, v6, v5, v4 take ids 0..3, so the witness ids (0, 3) print as v7, v4.
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (3, 7), (4, 6), (4, 7),
                 (5, 6), (5, 7)]
        feed_stdin(monkeypatch, "".join(f"v{7 - a} v{7 - b}\n" for a, b in edges))
        code, out, _ = run(capsys, "walk-regular")
        assert code == 0
        assert "first_violation: k=3 x=v7 y=v4\n" in out
        feed_stdin(monkeypatch, "".join(f"v{7 - a} v{7 - b}\n" for a, b in edges))
        code, out, _ = run(capsys, "walk-regular", "--json")
        document = json.loads(out)
        witness = document["first_violation"]
        assert document["labels"][witness["x"]] == "v7"
        assert document["labels"][witness["y"]] == "v4"


class TestMcVerify:
    def test_pendant_on_triangle_passes(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, TRIANGLE)
        code, out, _ = run(
            capsys, "mc-verify", "--what", "pendant", "--vertex", "a",
            "--samples", "2000", "--seed", "42", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["exact"] == 7.0
        assert document["pass"] is True
        assert {"mean", "stderr", "samples", "seed"} <= set(document)
        assert document["c_plus_1"] == 7.0
        assert document["cz_formula"] == pytest.approx(7.0)

    def test_return_on_cycle(self, tmp_path, capsys):
        path = tmp_path / "c8.edges"
        run(capsys, "gen", "cycle", "8", "-o", str(path))
        code, out, _ = run(
            capsys, "mc-verify", "-i", str(path), "--what", "return",
            "--vertex", "0", "--samples", "2000", "--seed", "7",
        )
        assert code == 0
        assert "PASS" in out

    def test_single_bad_sample_fails_verification(self, capsys, monkeypatch):
        # One walk, stderr zero, mean far from exact: verification failure.
        feed_stdin(monkeypatch, TRIANGLE)
        code, out, _ = run(
            capsys, "mc-verify", "--what", "hitting", "--from", "a", "--to", "b",
            "--samples", "1", "--seed", "0",
        )
        assert code == 1
        assert "FAIL" in out

    def test_repeat_runs_print_identically(self, tmp_path, capsys):
        path = tmp_path / "k4.edges"
        run(capsys, "gen", "complete", "4", "-o", str(path))
        args = ("mc-verify", "-i", str(path), "--what", "return", "--vertex", "0",
                "--samples", "3000", "--seed", "42", "--json")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert (code_a, out_a) == (code_b, out_b)

    def test_missing_query_arguments(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, TRIANGLE)
        code, _, err = run(capsys, "mc-verify", "--what", "return",
                           "--samples", "10", "--seed", "1")
        assert code == 2
        assert "--vertex" in err


class TestErrorChannel:
    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "kirchhoff", "-i", "/nonexistent/file.edges")
        assert code == 2
        assert "error" in err

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"\xff b\nb c\n")
        code, out, err = run(capsys, "kirchhoff", "-i", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_one_vertex_document_is_refused(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "1\n")
        code, out, err = run(capsys, "walk-regular")
        assert (code, out, err) == (2, "", "error: line 1: no edge records\n")

    @pytest.mark.parametrize("query", [["kirchhoff"], ["resistance", "--pair", "a", "b"]],
                             ids=["kirchhoff", "resistance"])
    @pytest.mark.parametrize("c", ["1e-310", "5e-324", "1e-308"])
    def test_resistances_past_float64_range(self, query, c, capsys, monkeypatch):
        feed_stdin(monkeypatch, f"a b {c}\nb c {c}\nc a {c}\n")
        code, out, err = run(capsys, *query)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past the float64 range" in err

    def test_kirchhoff_index_near_the_end_of_float64_range(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "a b 1.3e-308\nb c 1.3e-308\nc a 1.3e-308\n")
        code, out, err = run(capsys, "kirchhoff")
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(2 / 1.3e-308, rel=1e-9)

    def test_malformed_document(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "a a\n")
        code, _, err = run(capsys, "kirchhoff")
        assert code == 2
        assert "self-loop" in err

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TOTALS))
    @pytest.mark.parametrize("query", [["return-time", "--vertex", "0"], ["hitting", "--from", "0", "--to", "1"]],
                             ids=["return-time", "hitting"])
    def test_total_strength_past_float64_range(self, name, query, capsys, monkeypatch):
        _, edges = OVERFLOWING_TOTALS[name]
        feed_stdin(monkeypatch, "".join(f"{a} {b} {c!r}\n" for a, b, c in edges))
        code, out, err = run(capsys, *query)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past the float64 range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("query", [
        ["hitting", "--from", "2", "--to", "0"],
        ["return-time", "--vertex", "2"],
        ["mc-verify", "--what", "hitting", "--from", "2", "--to", "0", "--samples", "10", "--seed", "1"],
        ["mc-verify", "--what", "return", "--vertex", "2", "--samples", "10", "--seed", "1"],
        ["mc-verify", "--what", "pendant", "--vertex", "2", "--samples", "10", "--seed", "1"],
    ], ids=["hitting", "return-time", "mc-hitting", "mc-return", "mc-pendant"])
    def test_times_past_float64_range(self, query, capsys, monkeypatch):
        # Hitting times printed nan and return times inf here, with exit 0;
        # a walker of mc-verify --what return cycled to the step cap.
        def no_walk(*args):
            raise AssertionError("walked before the exact value was refused")

        monkeypatch.setattr("ohmwalk.montecarlo._sample", no_walk)
        feed_stdin(monkeypatch, "0 1 1e300\n1 2 1e-10\n")
        code, out, err = run(capsys, *query)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past the float64 range" in err
        assert "nan" not in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "mc-verify" in out


def pipe(capsys, monkeypatch, producer, consumer):
    """``ohmwalk <producer> | ohmwalk <consumer>``: the second reads the first's stdout."""
    code, out, _ = run(capsys, *producer)
    assert code == 0
    feed_stdin(monkeypatch, out)
    return run(capsys, *consumer)


class TestReadmeExamples:
    def test_cycle_return_time(self, capsys, monkeypatch):
        result = pipe(capsys, monkeypatch, ("gen", "cycle", "8"), ("return-time", "--vertex", "0"))
        assert result == (0, "8\n", "")

    def test_hypercube_remove_edge(self, capsys, monkeypatch):
        result = pipe(capsys, monkeypatch, ("gen", "hypercube", "3"), ("remove-edge", "--edge", "0", "1"))
        assert result == (
            0,
            "edge: 0 1\n"
            "r_before: 0.583333333333\n"
            "r_after_predicted: 1.4\n"
            "r_after_direct: 1.4\n"
            "r_increment: 0.816666666667\n"
            "hitting_before: 7\n"
            "hitting_after_predicted: 15.4\n"
            "hitting_after_direct: 15.4\n"
            "kirchhoff_before: 19.3333333333\n"
            "kirchhoff_after: 23.2\n"
            "walk_regular: true\n",
            "",
        )

    def test_golden_mc_verify(self, capsys, monkeypatch):
        result = pipe(
            capsys, monkeypatch, ("gen", "complete", "3"),
            ("mc-verify", "--what", "pendant", "--vertex", "0", "--samples", "20000", "--seed", "42"),
        )
        assert result == (
            0,
            "what: pendant\n"
            "exact: 7\n"
            "mean: 7.0508\n"
            "stderr: 0.0542908219008\n"
            "samples: 20000\n"
            "seed: 42\n"
            "result: PASS (threshold 3*stderr)\n",
            "",
        )


class TestSharedParser:
    """The parser is built once per process; no call may see another's state."""

    def test_json_flag_does_not_stick(self, tmp_path, capsys):
        path = tmp_path / "cube.edges"
        run(capsys, "gen", "hypercube", "3", "-o", str(path))
        args = ("hitting", "-i", str(path), "--from", "0", "--to", "1")
        alone = run(capsys, *args)
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0 and json.loads(out)["hitting"] == pytest.approx(7.0)
        assert run(capsys, *args) == alone == (0, "7\n", "")

    def test_usage_error_does_not_stick(self, tmp_path, capsys):
        path = tmp_path / "cube.edges"
        run(capsys, "gen", "hypercube", "3", "-o", str(path))
        args = ("hitting", "-i", str(path), "--from", "0", "--to", "1")
        alone = run(capsys, *args)
        code, _, err = run(capsys, "hitting", "-i", str(path), "--from", "0")
        assert code == 2 and "--to" in err
        assert run(capsys, *args) == alone == (0, "7\n", "")

    def test_optional_values_do_not_carry_over(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, TRIANGLE)
        code, _, _ = run(capsys, "mc-verify", "--what", "return", "--vertex", "a",
                         "--samples", "10", "--seed", "1")
        assert code in (0, 1)
        feed_stdin(monkeypatch, TRIANGLE)
        code, _, err = run(capsys, "mc-verify", "--what", "return", "--samples", "10", "--seed", "1")
        assert code == 2
        assert "--vertex" in err
