"""Command-line interface: commands, exit codes, report stability."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hyperinv.bouquets as bouquets
import hyperinv.hypergraph as hypergraph
from conftest import disjoint_edges_and_c5
import hyperinv
from hyperinv import named_instance
from hyperinv.cli import main
from hyperinv.errors import HyperinvError
from hyperinv.generators import FILTERS
from hyperinv.suites import SUITES


@pytest.fixture
def h1_file(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(named_instance("h1").to_json())
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(named_instance("star3").to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_h1_report(self, capsys, h1_file):
        code, out, err = run_cli(capsys, "invariants", h1_file)
        assert code == 0
        report = json.loads(out)
        assert report["matchings"]["c"] == 2
        assert report["matchings"]["c_prime"] == 3
        assert report["matchings"]["m"] == 4
        assert report["bouquets"]["d"] == 4
        assert report["bouquets"]["d_prime"] == 5
        assert report["homology"]["reg"] == 3
        assert report["homology"]["pd"] == 2
        assert report["codismantlable"]["order"] == ["x2", "x4"]
        assert "c=2" in err

    def test_star_report(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "invariants", star_file)
        assert code == 0
        report = json.loads(out)
        assert report["matchings"]["c_prime"] == 1
        assert report["complex"]["dim"] == 2

    def test_checklist_never_fails_on_success(self, capsys, h1_file):
        _, out, _ = run_cli(capsys, "invariants", h1_file)
        report = json.loads(out)
        for name, entry in report["theorems"].items():
            if "hypotheses_hold" in entry and entry["hypotheses_hold"]:
                assert entry["conclusion_holds"] is not False, name

    def test_skip_homology(self, capsys, h1_file):
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--skip-homology")
        assert code == 0
        report = json.loads(out)
        assert report["homology"] == {"omitted": "skipped by flag"}
        assert report["theorems"]["theorem-pd"] == {"omitted": "homology skipped"}

    def test_cycle_limit_option_is_gone(self, capsys, h1_file):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", h1_file, "--cycle-limit", "5"])
        assert exc.value.code == 2
        assert "--cycle-limit" in capsys.readouterr().err

    def test_field_flag(self, capsys, h1_file):
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--field", "f2")
        assert code == 0
        assert json.loads(out)["homology"]["field"] == "F2"

    def test_duplicate_edge_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2
        assert "duplicate edge" in err

    def test_edge_naming_a_vertex_twice_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a", "b"], "edges": [["a", "a"]]}')
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert "error: edge ('a', 'a') names a vertex twice" in err

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, _ = run_cli(capsys, "invariants", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": ["a", "b"], "edges": "ab"}',
            '{"vertices": "ab", "edges": [["a", "b"]]}',
            '{"vertices": ["a", "b"], "edges": [["a", 1]]}',
            '{"vertices": ["a", "b"]}',
            '[["a", "b"]]',
        ],
    )
    def test_instance_of_wrong_shape_exit_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: an instance is")

    @pytest.mark.parametrize("field", ["zz", "f4", "f6"])
    def test_unknown_field_exit_two(self, capsys, h1_file, field):
        code, out, err = run_cli(capsys, "invariants", h1_file, "--field", field)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown field") and "Traceback" not in err

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "/does/not/exist.json")
        assert code == 2

    def test_cap_exit_three(self, capsys, h1_file, monkeypatch):
        """h1's 6 edge unions hold 10 edges, summed: below that lattice cap,
        the lattice walks (matchings, homology) are omitted and the rest is
        reported."""
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 9)
        code, out, _ = run_cli(capsys, "invariants", h1_file)
        assert code == 3
        report = json.loads(out)
        for key in ("matchings", "homology"):
            assert report[key] == {"omitted": "edges inside the edge unions exceed lattice cap 9"}, key
        assert report["covers"]["bigheight"] == 2

    def test_edge_cap_option_is_gone(self, capsys, h1_file):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", h1_file, "--edge-cap", "3"])
        assert exc.value.code == 2
        assert "--edge-cap" in capsys.readouterr().err

    def test_k8_full_report_exit_zero(self, capsys, tmp_path):
        """K8 has 28 edges; no cap counts edges, so its C5 search and both
        bouquet searches run, and its 247 edge unions, holding 1,792 edges
        summed, are well inside the lattice cap."""
        labels = [f"x{i + 1}" for i in range(8)]
        edges = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]
        path = tmp_path / "k8.json"
        path.write_text(json.dumps({"vertices": labels, "edges": edges}))
        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 0
        report = json.loads(out)
        assert "omitted" not in json.dumps(report)
        assert (report["bouquets"]["d"], report["bouquets"]["d_prime"]) == (7, 7)
        assert [report["matchings"][k] for k in ("c", "c_prime", "m")] == [1, 1, 4]
        classes = report["vertex_classification"]
        assert classes["hypotheses"]["c5_free"] is False
        assert [row["vertex"] for row in classes["vertices"]] == labels
        assert classes["equivalence_holds"] is True
        assert report["structure"]["c5_free"] is False
        assert report["theorems"]["theorem-main"]["conclusion_holds"] is None
        assert report["codismantlable"] == {"order": labels[:7]}
        assert report["homology"]["pd"] == 7
        assert report["covers"]["bigheight"] == 7

    def test_capped_maximal_matchings_omit_prop_mh(self, capsys, tmp_path, monkeypatch):
        """prop-mh walks every matching once the lattice passes: under a cap
        of 2,000, K8's 247 edge unions (1,792 edges inside them, summed)
        pass and its 764 matchings (2,128 edges) do not, so the check is
        omitted and the matching numbers are reported."""
        labels = [f"x{i + 1}" for i in range(8)]
        path = tmp_path / "k8.json"
        path.write_text(json.dumps({"vertices": labels, "edges": [
            [a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]}))
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 2000)
        code, out, err = run_cli(capsys, "check", str(path), "--theorem", "prop-mh")
        assert code == 3 and "Traceback" not in err
        assert json.loads(out) == {"omitted": "edges in the matchings walked exceed lattice cap 2000"}
        code, out, _ = run_cli(capsys, "check", str(path), "--theorem", "graph-cc")
        assert code == 0 and json.loads(out)["details"] == {"c": 1, "c_prime": 1}

    def test_one_edge_on_400_vertices_reports_its_sphere(self, capsys, tmp_path):
        """One edge on 400 vertices is one lattice element, and the homology
        rules take its 399 steps on an explicit stack: the report holds the
        sphere's Betti table, and only the d' walk is capped."""
        labels = [f"x{i + 1}" for i in range(400)]
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"vertices": labels, "edges": [labels]}))
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["homology"] == {"entries": [[1, 400, 1]], "field": "Q", "pd": 1, "reg": 399}
        assert [key for key, section in report.items() if "omitted" in section] == ["bouquets"]
        for theorem in ("theorem-reg", "recursion-reg", "recursion-pd"):
            assert run_cli(capsys, "check", str(path), "--theorem", theorem)[0] == 0, theorem

    def test_transversal_cap_partial_report_exit_three(self, capsys, tmp_path, monkeypatch):
        """18 disjoint edges have 2^18 minimal covers, past the transversal
        cap: every section that needs them is omitted, the rest is reported.
        The profile keeps the cap error, so the input is dualized once."""
        labels = [f"x{i + 1}" for i in range(36)]
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps({"vertices": labels, "edges": [
            labels[2 * k: 2 * k + 2] for k in range(18)]}))
        dualize, calls = hypergraph._minimal_transversals, []
        monkeypatch.setattr(hypergraph, "_minimal_transversals",
                            lambda edges: calls.append(edges) or dualize(edges))
        code, out, err = run_cli(capsys, "invariants", str(path), "--skip-homology")
        assert code == 3 and "Traceback" not in err
        assert len(calls) == 1
        report = json.loads(out)
        for key in ("complex", "covers", "vertex_classification"):
            assert "transversals exceed cap" in report[key]["omitted"], key
        assert report["matchings"]["c"] == 18
        assert report["codismantlable"]["order"] == labels[::2]
        assert "omitted" in report["theorems"]["corollary-codis"]

    def test_output_byte_stable(self, capsys, h1_file):
        _, out1, _ = run_cli(capsys, "invariants", h1_file)
        _, out2, _ = run_cli(capsys, "invariants", h1_file)
        assert out1 == out2

    def test_output_byte_stable_after_a_parse_error(self, capsys, h1_file):
        """The parser outlives a call, also one that argparse rejects."""
        _, out1, _ = run_cli(capsys, "invariants", h1_file, "--field", "f2")
        with pytest.raises(SystemExit) as exc:
            main(["invariants", h1_file, "--no-such-option"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        _, out2, _ = run_cli(capsys, "invariants", h1_file, "--field", "f2")
        assert out1 == out2

    def test_parser_is_built_once_per_process(self, capsys, h1_file, tmp_path):
        import hyperinv.cli as cli

        cli._parser.cache_clear()
        run_cli(capsys, "invariants", h1_file, "--skip-homology")
        run_cli(capsys, "check", h1_file, "--theorem", "lemma-dim")
        run_cli(capsys, "verify", "graph-cc", "--family", '{"kind": "all_graphs", "n": 3}',
                "--out-dir", str(tmp_path))
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_candidate_cap_omits_the_bouquets(self, capsys, tmp_path):
        """Nine disjoint edges: d' scores 3^9 - 1 root sets, under the
        candidate cap, but the d search passes it; the bouquets and the
        check that reads d are omitted, the d' lemmas are reported."""
        labels = [f"x{i + 1}" for i in range(18)]
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps({"vertices": labels, "edges": [
            labels[2 * k: 2 * k + 2] for k in range(9)]}))
        code, out, err = run_cli(capsys, "invariants", str(path), "--skip-homology")
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["bouquets"] == {"omitted": "d search candidates exceed cap 500000"}
        assert report["theorems"]["prop-cd"] == report["bouquets"]
        lemmas = report["theorems"]["lemmas-dprime"]
        assert lemmas["conclusion_holds"] and lemmas["details"]["d_prime"] == 9

    def test_no_elimination_order_reports_null(self, capsys, tmp_path):
        """Four disjoint edges and a C5 have no elimination order: the
        section reads null, and nothing is capped."""
        path = tmp_path / "codis.json"
        path.write_text(disjoint_edges_and_c5(4).to_json())
        code, out, err = run_cli(capsys, "invariants", str(path), "--skip-homology")
        assert code == 0
        report = json.loads(out)
        assert report["codismantlable"] is None
        for key in ("matchings", "bouquets", "complex", "covers", "vertex_classification"):
            assert "omitted" not in report[key], key

    def test_capped_dprime_walks_once_up_to_the_cap(self, capsys, tmp_path, monkeypatch):
        """One 12-vertex edge has 2^12 - 2 nonempty independent sets.  The
        d' walk stops at the first root set over the cap, and the profile
        keeps the error for every later read of d', so one report walks
        once and stores cap + 1 root sets."""
        monkeypatch.setattr(bouquets, "DEFAULT_CANDIDATE_CAP", 100)
        walks, stored = [], []
        walk = bouquets._dprime_walk
        for mod in [m for n, m in list(sys.modules.items()) if n.startswith("hyperinv.")]:
            if getattr(mod, "_dprime_walk", None) is walk:
                monkeypatch.setattr(mod, "_dprime_walk",
                                    lambda *args: walks.append(args) or walk(*args))

        class CountedSet(set):
            def add(self, item):
                super().add(item)
                stored.append(len(self))

        # the face walk's set() resolves to its module's global before the builtin
        monkeypatch.setattr(hypergraph, "set", CountedSet, raising=False)
        labels = [f"x{i + 1}" for i in range(12)]
        path = tmp_path / "edge12.json"
        path.write_text(json.dumps({"vertices": labels, "edges": [labels]}))
        code, out, err = run_cli(capsys, "invariants", str(path), "--skip-homology")
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["bouquets"] == {"omitted": "d' search candidates exceed cap 100"}
        assert report["theorems"]["lemmas-dprime"] == report["bouquets"]
        assert len(walks) == 1 and max(stored) == 101


class TestCheck:
    def test_lemma_dim_h1(self, capsys, h1_file):
        code, out, err = run_cli(capsys, "check", h1_file, "--theorem", "lemma-dim")
        assert code == 0
        res = json.loads(out)
        assert res["hypotheses_hold"] and res["conclusion_holds"]
        assert "holds" in err

    def test_theorem_main_on_c5_graph(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(named_instance("c5").to_json())
        code, out, _ = run_cli(capsys, "check", str(path), "--theorem", "theorem-main")
        assert code == 0
        res = json.loads(out)
        assert not res["hypotheses_hold"]
        assert res["conclusion_holds"] is None

    def test_theorem_final_star(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "check", star_file, "--theorem", "theorem-final")
        assert code == 0
        res = json.loads(out)
        assert res["details"]["bigheight"] == 3

    @pytest.mark.parametrize("theorem", ["theorem-pd", "lemmas-dprime"])
    def test_singleton_edge_is_outside_the_hypotheses(self, capsys, tmp_path, theorem):
        """A singleton edge {a} adds 1 to pd, as a Koszul factor, but never to
        d', which needs a root and a flower: no counterexample, exit 0."""
        path = tmp_path / "singleton.json"
        path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a"], ["b", "c"]]}))
        code, out, _ = run_cli(capsys, "check", str(path), "--theorem", theorem)
        assert code == 0
        assert json.loads(out) == {"conclusion_holds": None, "details": {"no_singleton_edges": False},
                                   "hypotheses_hold": False}

    def test_unknown_theorem_exit_two(self, capsys, h1_file):
        code, _, _ = run_cli(capsys, "check", h1_file, "--theorem", "no-such")
        assert code == 2


class TestVerify:
    def test_small_family_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 4}',
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["instances_tested"] == 64
        assert report["counterexamples"] == []

    def test_unknown_suite_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "no-such-suite")
        assert code == 2

    def test_invalid_family_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "graph-cc", "--family", "{nope")
        assert code == 2

    def test_family_field_of_wrong_type_exit_two(self, capsys):
        family = '{"kind": "all_graphs", "n": "3"}'
        code, out, err = run_cli(capsys, "verify", "graph-cc", "--family", family)
        assert code == 2 and out == ""
        assert "family field 'n' must be a JSON int" in err

    def test_self_test_exit_one_and_rerunnable(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 3}',
            "--self-test",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 1
        report = json.loads(out)
        [ce] = report["counterexamples"]
        files = list(tmp_path.glob("counterexample-*.json"))
        assert len(files) == 1
        # the emitted file feeds straight back into `check`
        code2, out2, _ = run_cli(capsys, "check", str(files[0]), "--theorem", "graph-cc")
        assert code2 == 0  # the planted fault is not a real violation
        assert json.loads(out2)["hypotheses_hold"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 3}',
            "--out",
            str(out_path),
            "--out-dir",
            str(tmp_path),
        )
        assert out_path.read_text() == out

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_two(self, capsys, tmp_path, jobs):
        code, out, err = run_cli(capsys, "verify", "lemma-dim", "--jobs", jobs,
                                 "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"error: jobs must be at least 1, not {jobs}" in err

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("count", -2, "must be non-negative, not -2", id="count"),
        pytest.param("edge_count", -2, "must be non-negative, not -2", id="edge_count"),
        pytest.param("n", 10**9, "must be at most 1000, not 1000000000", id="n-above-bound"),
        pytest.param("edge_count", 1001, "must be at most 1000, not 1001",
                     id="edge_count-above-bound"),
    ])
    def test_negative_count_exit_two(self, capsys, tmp_path, field, value, message):
        """Counts below 0 and sizes above generators.MAX_FAMILY_SIZE are input errors."""
        family = json.loads('{"kind": "random_hypergraph", "n": 5, "edge_count": 3, "count": 3}')
        family[field] = value
        code, out, err = run_cli(capsys, "verify", "lemma-dim", "--family", json.dumps(family),
                                 "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"error: family field '{field}' {message}" in err

    def test_dedup_on_seven_vertices_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "lemma-dim", "--family",
                                 '{"kind": "all_graphs", "n": 7, "dedup": true}',
                                 "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "error: graph enumeration with dedup supports 1..6 vertices" in err

    def test_jobs_byte_identical(self, capsys, tmp_path):
        argv = [
            "verify",
            "lemma-dim",
            "--family",
            '{"kind": "all_graphs", "n": 4}',
            "--out-dir",
            str(tmp_path),
        ]
        _, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
        _, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert out1 == out2

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "r.json"
        code, _, err = run_cli(capsys, "verify", "lemma-dim", "--out", str(missing))
        assert code == 2
        assert f"error: cannot write {missing}" in err and "Traceback" not in err

    def test_closed_stdout_exits_two(self, tmp_path):
        """A reader that has gone away, as ``| head`` does, is an input error:
        an ``error:`` line, no traceback and no warning at shutdown."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(hyperinv.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperinv.cli", "verify", "lemma-dim", "--family",
                 '{"kind": "all_graphs", "n": 3}', "--out-dir", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_empty_family_list_exits_two(self, capsys, tmp_path):
        """An empty list is not "no families given": it runs nothing."""
        code, out, err = run_cli(capsys, "verify", "lemma-dim", "--family", "[]",
                                 "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "error: the family list is empty" in err

    def test_unwritable_counterexample_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        code, out, err = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 3}',
            "--self-test",
            "--out-dir",
            str(missing),
        )
        assert code == 2 and out == ""
        assert f"error: cannot write {missing}" in err and "Traceback" not in err

    # 30 edges on 80 vertices: more minimal covers than the transversal cap,
    # which the complex behind every check and filter reads
    CAPPED = ('{"kind": "random_hypergraph", "n": 80, "max_edge_size": 2, '
              '"edge_count": 30, "seed": 1, "count": 3}')

    def test_cap_inside_a_check_exits_three_with_omitted_instances(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "verify", "theorem-pd", "--family", self.CAPPED, "--out-dir", str(tmp_path)
        )
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["exit_status"] == 3 and report["instances_tested"] == 0
        assert report["omitted"] == [
            {"family": 0, "index": i, "reason": "minimal transversals exceed cap 10000"}
            for i in range(3)
        ]

    def test_counterexample_outranks_omitted_instances(self, capsys, tmp_path):
        families = f'[{self.CAPPED}, {{"kind": "all_graphs", "n": 3}}]'
        code, out, _ = run_cli(
            capsys, "verify", "theorem-pd", "--family", families, "--self-test",
            "--out-dir", str(tmp_path),
        )
        report = json.loads(out)
        assert code == 1 and report["exit_status"] == 1
        assert len(report["counterexamples"]) == 1 and len(report["omitted"]) == 3
        assert report["instances_tested"] == 8

    FILTER_CAPPED = CAPPED.replace('"count": 3}', '"count": 2, "filters": ["vertex_decomposable"]}')

    def test_cap_inside_a_filter_exits_three_with_omitted_instances(self, capsys, tmp_path):
        """The vertex decomposability filter reads the complex, whose facets
        pass the transversal cap."""
        code, out, err = run_cli(
            capsys, "verify", "theorem-reg", "--family", self.FILTER_CAPPED,
            "--out-dir", str(tmp_path),
        )
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["exit_status"] == 3 and report["instances_tested"] == 0
        assert report["omitted"] == [
            {"family": 0, "index": i, "reason": "minimal transversals exceed cap 10000"}
            for i in range(2)
        ]

    def test_unknown_filter_exits_two_before_any_draw(self, capsys, monkeypatch, tmp_path):
        import hyperinv.generators as generators

        def no_draw(spec, index):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(generators, "random_hypergraph", no_draw)
        family = self.FILTER_CAPPED.replace('"vertex_decomposable"', '"c5_fre"')
        code, out, err = run_cli(capsys, "verify", "theorem-main", "--family", family,
                                 "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "error: unknown filter 'c5_fre'" in err


FOOTPRINT = """
import os
import sys
import hyperinv
from hyperinv.cli import main
from hyperinv.generators import FamilySpec
from hyperinv.suites import run_suite
jobs = int(sys.argv[3])
if jobs > 1:
    os.sched_getaffinity = lambda pid: set(range(jobs))  # fork even on one usable CPU
assert main(["invariants", sys.argv[1], "--skip-homology"]) == 0
run_suite("lemma-dim", [FamilySpec(kind="all_graphs", n=3)], jobs=jobs, out_dir=sys.argv[2])
loaded = sorted(m for m in sys.modules
                if m == "concurrent.futures" or m.split(".")[0] == "multiprocessing")
sys.exit(" ".join(loaded) or None)
"""


def run_footprint(h1_file, tmp_path, jobs):
    env = dict(os.environ, PYTHONPATH=str(Path(hyperinv.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", FOOTPRINT, h1_file, str(tmp_path), str(jobs)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def test_a_run_that_does_not_fork_loads_no_process_pool(h1_file, tmp_path):
    """An invariants report and a --jobs 1 verify run in a fresh interpreter
    load neither concurrent.futures nor multiprocessing."""
    proc = run_footprint(h1_file, tmp_path, 1)
    assert proc.returncode == 0, proc.stderr


def test_a_forked_run_loads_no_process_pool(h1_file, tmp_path):
    """A --jobs 2 run forks its workers itself: it loads neither
    concurrent.futures nor multiprocessing either."""
    proc = run_footprint(h1_file, tmp_path, 2)
    assert proc.returncode == 0, proc.stderr


def run_invariants(path, **env_overrides):
    env = dict(os.environ, PYTHONPATH=str(Path(hyperinv.__file__).parents[1]), **env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "hyperinv.cli", "invariants", str(path)],
        capture_output=True, env=env, timeout=120,
    )


def test_a_utf8_instance_reads_the_same_under_the_c_locale(tmp_path):
    """Instance files are UTF-8 whatever the locale: a non-ASCII label gives
    the same report under LC_ALL=C without UTF-8 mode, and a Latin-1 file
    is still an input error there."""
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0"}
    path = tmp_path / "accent.json"
    path.write_bytes('{"vertices": ["a", "\u00e9"], "edges": [["a", "\u00e9"]]}'.encode())
    default, c = run_invariants(path), run_invariants(path, **c_locale)
    assert default.returncode == c.returncode == 0, c.stderr
    assert c.stdout == default.stdout and "\u00e9" in json.loads(c.stdout)["instance"]["vertices"]
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"vertices": ["a", "\u00e9"], "edges": [["a", "\u00e9"]]}'.encode("latin-1"))
    bad = run_invariants(latin1, **c_locale)
    assert bad.returncode == 2 and b"malformed instance file" in bad.stderr


class TestInternalError:
    def test_unexpected_exception_exits_four_with_traceback(
        self, capsys, monkeypatch, h1_file
    ):
        import hyperinv.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("planted bug")

        monkeypatch.setattr(cli, "check_instance", boom)
        code, out, err = run_cli(capsys, "check", h1_file, "--theorem", "lemma-dim")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert "Traceback" in err and "RuntimeError: planted bug" in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks its workers only where os.fork exists")
class TestForkedWorkers:
    """The exit-code contract holds at --jobs 2, where each shard runs in a
    forked child, and no child outlives the run."""

    FAMILY = '{"kind": "all_graphs", "n": 4}'

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # two usable CPUs, so --jobs 2 forks two children on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def plant(self, monkeypatch, fault):
        """Run ``fault(shard)`` in each forked child before its shard."""
        import hyperinv.suites as suites

        parent, run_shard = os.getpid(), suites._run_shard

        def planted(name, fams, shard, jobs):
            assert os.getpid() != parent, "a shard ran in the parent"
            fault(shard)
            return run_shard(name, fams, shard, jobs)

        monkeypatch.setattr(suites, "_run_shard", planted)

    def verify(self, capsys, tmp_path, family=FAMILY, jobs="2"):
        return run_cli(capsys, "verify", "lemma-dim", "--family", family, "--jobs", jobs,
                       "--out-dir", str(tmp_path))

    def test_input_error_in_a_worker_exits_two(self, capsys, tmp_path):
        family = '{"kind":"random_hypergraph","n":2,"max_edge_size":2,"edge_count":2,"count":4}'
        code, out, err = self.verify(capsys, tmp_path, family)
        assert code == 2 and out == ""
        assert "error: cannot place 2 distinct edges" in err and "Traceback" not in err

    def test_planted_error_in_a_worker_exits_four_with_traceback(
        self, capsys, monkeypatch, tmp_path
    ):
        def fault(shard):
            if shard == 1:
                raise RuntimeError("planted bug")

        self.plant(monkeypatch, fault)
        code, out, err = self.verify(capsys, tmp_path)
        assert code == 4 and out == ""
        assert "Traceback" in err and "RuntimeError: planted bug" in err
        assert "in verify worker" in err and ", in fault\n" in err  # the child's own frames

    def test_worker_killed_exits_four(self, capsys, monkeypatch, tmp_path):
        def fault(shard):
            if shard == 1:
                os.kill(os.getpid(), signal.SIGKILL)

        self.plant(monkeypatch, fault)
        code, out, err = self.verify(capsys, tmp_path)
        assert code == 4 and out == ""
        assert "RuntimeError: verify worker" in err and "exited without a report" in err

    def test_unpicklable_worker_exception_exits_four(self, capsys, monkeypatch, tmp_path):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fault(shard):
            raise LocalError("cannot be sent")

        self.plant(monkeypatch, fault)
        code, _, err = self.verify(capsys, tmp_path)
        assert code == 4
        assert "RuntimeError: verify worker" in err and "exited without a report" in err

    def test_lowest_failed_shard_wins_and_the_rest_are_killed(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        def fault(shard):
            if shard == 0:
                time.sleep(0.2)  # fails after shard 1 has
            if shard < 2:
                raise HyperinvError(f"shard {shard} failed")
            time.sleep(30)  # killed, not waited for

        self.plant(monkeypatch, fault)
        start = time.monotonic()
        code, _, err = self.verify(capsys, tmp_path, jobs="3")
        assert time.monotonic() - start < 20
        assert code == 2
        assert "error: shard 0 failed" in err and "shard 1" not in err

    def test_keyboard_interrupt_in_a_worker_reaps_every_child(self, monkeypatch, tmp_path):
        def fault(shard):
            if shard == 0:
                raise KeyboardInterrupt
            time.sleep(30)

        self.plant(monkeypatch, fault)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "lemma-dim", "--family", self.FAMILY, "--jobs", "2",
                  "--out-dir", str(tmp_path)])


# Small JSON values of every type, and instances and family specs, often
# malformed (wrong types, unknown names, negative counts, repeated or
# unknown vertices), small enough to run in tier-1.
SMALL_INTS = st.integers(-2, 4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner,
                                                               max_size=3),
    max_leaves=6,
)
LABELS = st.sampled_from(["a", "b", "c", "d"])
INSTANCES = st.fixed_dictionaries(
    {"vertices": st.just(["a", "b", "c", "d"]) | st.lists(LABELS, max_size=4) | JSON_VALUES,
     "edges": st.lists(st.lists(LABELS, max_size=3) | JSON_VALUES, max_size=4)},
    optional={"extra": JSON_VALUES},
)
FAMILY_FIELDS = {
    "kind": st.sampled_from(["all_graphs", "random_hypergraph", "named", "other"]),
    "n": SMALL_INTS,
    "max_edge_size": SMALL_INTS,
    "edge_count": SMALL_INTS,
    "seed": SMALL_INTS,
    "count": SMALL_INTS,
    "name": st.sampled_from(["h1", "c5", "other"]),
    "dedup": st.booleans(),
    "filters": st.lists(st.sampled_from(sorted(FILTERS) + ["other"]), max_size=2),
}
FAMILIES = st.fixed_dictionaries(
    {"kind": FAMILY_FIELDS["kind"]},
    optional={key: value for key, value in FAMILY_FIELDS.items() if key != "kind"}
    | {"other": SMALL_INTS},
)
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_contract(capsys, argv):
    """The documented exit codes for bad input: 0 ok, 2 input error, 3 cap."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)


class TestFuzz:
    @FUZZ
    @given(content=st.binary(max_size=8) | (INSTANCES | JSON_VALUES).map(json.dumps).map(str.encode),
           command=st.sampled_from([["invariants"], ["invariants", "--skip-homology"],
                                    ["check", "--theorem", "lemma-dim"],
                                    ["check", "--theorem", "theorem-main"]]),
           target=st.sampled_from(["file", "missing", "directory"]))
    def test_instance_files(self, capsys, tmp_path, content, command, target):
        """Any bytes in a file, a path to no file and a directory as the path."""
        path = {"file": tmp_path / "instance.json", "missing": tmp_path / "missing.json",
                "directory": tmp_path}[target]
        if target == "file":
            path.write_bytes(content)
        assert_contract(capsys, [command[0], str(path), *command[1:]])

    @FUZZ
    @given(family=FAMILIES | st.lists(FAMILIES, max_size=2) | JSON_VALUES,
           suite=st.sampled_from(sorted(SUITES)))
    def test_family_specs(self, capsys, tmp_path, family, suite):
        assert_contract(capsys, ["verify", suite, f"--family={json.dumps(family)}",
                                 "--out-dir", str(tmp_path)])
