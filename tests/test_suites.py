"""Suite registry behaviour, runner determinism, self-test fault."""

import json
import os
import re

import pytest

import hyperinv.homological as homological
import hyperinv.profile as profile_module
import hyperinv.suites as suites_module
from conftest import oracle_bouquet_numbers
from hyperinv import (
    SUITES,
    check_instance,
    contraction,
    deletion,
    from_masks,
    named_instance,
    random_hypergraph,
    run_suite,
)
from hyperinv.errors import HyperinvError
from hyperinv.generators import FamilySpec
from hyperinv.hypergraph import Hypergraph

EXPECTED_SUITES = {
    "theorem-main",
    "lemma-codominated",
    "graph-cc",
    "lemma-dim",
    "prop-mh",
    "prop-cd",
    "theorem-reg",
    "theorem-pd",
    "theorem-final",
    "corollary-codis",
    "lemmas-dprime",
    "recursion-pd",
    "recursion-reg",
}


def test_registry_complete():
    assert set(SUITES) == EXPECTED_SUITES


def test_unknown_suite():
    message = f"unknown suite 'nope'; have {sorted(SUITES)}"
    with pytest.raises(HyperinvError, match=f"^{re.escape(message)}$"):
        check_instance("nope", named_instance("p3"))


class TestSingleInstanceChecks:
    def test_lemma_dim_on_h1(self, h1):
        res = check_instance("lemma-dim", h1)
        assert res.hypotheses_hold and res.conclusion_holds
        assert res.details["c"] == 2
        assert res.details["c_prime"] == 3
        assert res.details["dim_plus_one"] == 4

    def test_theorem_main_skips_c5(self, c5):
        res = check_instance("theorem-main", c5)
        assert not res.hypotheses_hold
        assert res.conclusion_holds is None

    def test_theorem_final_star(self, star3):
        res = check_instance("theorem-final", star3)
        assert res.hypotheses_hold and res.conclusion_holds
        assert res.details["bigheight"] == res.details["pd"] == res.details["d_prime"] == 3

    def test_prop_mh_skips_nonuniform(self, h2):
        assert not check_instance("prop-mh", h2).hypotheses_hold

    def test_corollary_codis_h1(self, h1):
        res = check_instance("corollary-codis", h1)
        assert res.hypotheses_hold and res.conclusion_holds
        assert res.details["elimination_order"] == ["x2", "x4"]

    def test_lemmas_dprime_rows_match_the_oracle(self):
        """The d' of H/x and H\\x in each row, read through the link and the
        deletion of x in Ind(H), equal d' by literal enumeration."""
        spec = FamilySpec(kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=43)
        rows = 0
        for h in [named_instance(k) for k in ("h1", "h2", "star3", "p3", "c4", "c5")] + [
            random_hypergraph(spec, i) for i in range(40)
        ]:
            for row in check_instance("lemmas-dprime", h).details["shedding"]:
                ctr, dele = contraction(h, row["vertex"]), deletion(h, row["vertex"])
                assert row["d_prime_contraction"] == oracle_bouquet_numbers(ctr)[1], (h, row)
                assert row["d_prime_deletion"] == oracle_bouquet_numbers(dele)[1], (h, row)
                rows += 1
        assert rows >= 90  # 99 shedding vertices

    def test_every_suite_runs_on_worked_examples(self):
        for name in sorted(SUITES):
            for inst in ("h1", "p3", "star3", "c5"):
                res = check_instance(name, named_instance(inst))
                assert res.conclusion_holds is not False, (name, inst)


class TestTable:
    def test_homology_flag_marks_the_suites_that_read_betti_tables(self, monkeypatch):
        """With Betti tables unreadable (reg and pd too: they are bounded
        Betti-table walks), a suite without the flag never raises, and each
        suite with it raises somewhere."""

        def unreadable(*args, **kwargs):
            raise LookupError("Betti table read")

        for mod in (homological, profile_module):
            monkeypatch.setattr(mod, "betti_table", unreadable)
        for name, suite in SUITES.items():
            raised = False
            for inst in ("h1", "h2", "p3", "star3", "c4", "c5"):
                try:
                    suite.check(named_instance(inst))
                except LookupError:
                    raised = True
            assert raised == suite.homology, name

    @pytest.mark.parametrize("name,inst,details", [
        ("theorem-main", named_instance("c5"),
         {"c5_free": False, "three_cycle_condition": True}),
        # C2- and C5-free but not VD: VD is read but not reported
        ("theorem-reg", named_instance("c4"), {"c2_free": True, "c5_free": True}),
        # no singleton edge, so VD is read but not reported
        ("theorem-pd", named_instance("c4"), {"no_singleton_edges": True}),
        ("prop-mh", from_masks(["x1", "x2"], []), {"uniform": False, "strong_intersection": False}),
        # VD is the only hypothesis, so it is reported
        ("recursion-pd", named_instance("c4"), {"vertex_decomposable": False}),
    ])
    def test_skip_rule(self, name, inst, details):
        res = check_instance(name, inst)
        assert (res.hypotheses_hold, res.conclusion_holds) == (False, None)
        assert res.details == details


class TestRunner:
    FAM = [FamilySpec(kind="all_graphs", n=3)]

    def test_zero_counterexamples_exit_zero(self, tmp_path):
        rep = run_suite("graph-cc", self.FAM, out_dir=str(tmp_path))
        assert rep.exit_status == 0
        assert rep.instances_tested == 8
        assert rep.counterexamples == ()

    def test_reports_byte_identical_across_runs_and_jobs(self, tmp_path):
        fams = [FamilySpec(kind="all_graphs", n=4)]
        blobs = []
        for jobs in (1, 1, 2):
            rep = run_suite("lemma-dim", fams, jobs=jobs, out_dir=str(tmp_path))
            blobs.append(json.dumps(rep.to_json_obj(), sort_keys=True))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_self_test_plants_exactly_one_fault(self, tmp_path):
        rep = run_suite("graph-cc", self.FAM, self_test=True, out_dir=str(tmp_path))
        assert rep.exit_status == 1
        assert len(rep.counterexamples) == 1
        ce = rep.counterexamples[0]
        assert ce["details"]["planted_fault"] is True
        [path] = rep.counterexample_files
        with open(path) as fh:
            obj = json.load(fh)
        assert set(obj) == {"vertices", "edges"}  # re-runnable instance file

    def test_only_counterexamples_are_serialized(self, tmp_path, monkeypatch):
        serialize, calls = Hypergraph.to_json_obj, []
        monkeypatch.setattr(Hypergraph, "to_json_obj", lambda h: calls.append(h) or serialize(h))
        rep = run_suite("graph-cc", self.FAM, out_dir=str(tmp_path))
        assert rep.instances_tested == 8 and calls == []
        rep = run_suite("graph-cc", self.FAM, self_test=True, out_dir=str(tmp_path))
        [h] = calls  # the planted counterexample
        assert rep.counterexamples[0]["instance"] == serialize(h)

    def test_self_test_deterministic_across_jobs(self, tmp_path):
        a = run_suite("graph-cc", self.FAM, self_test=True, jobs=1, out_dir=str(tmp_path))
        b = run_suite("graph-cc", self.FAM, self_test=True, jobs=3, out_dir=str(tmp_path))
        assert json.dumps(a.to_json_obj(), sort_keys=True) == json.dumps(
            b.to_json_obj(), sort_keys=True
        )

    @pytest.mark.parametrize("name,families", [
        ("theorem-reg", None),
        ("corollary-codis", None),
        ("theorem-pd", [FamilySpec(kind="all_graphs", n=5,
                                   filters=("c5_free", "vertex_decomposable"))]),
    ])
    def test_filtered_families_byte_identical_across_jobs(self, tmp_path, name, families):
        """Shards filter only their own draws; reports and the planted
        fault's index are the same at every worker count."""
        for self_test in (False, True):
            blobs = []
            for jobs in (1, 2, 3):
                rep = run_suite(name, families, jobs=jobs, self_test=self_test,
                                out_dir=str(tmp_path))
                assert rep.hypotheses_passed > 0
                assert len(rep.counterexamples) == self_test
                blobs.append(json.dumps(rep.to_json_obj(), sort_keys=True))
            assert blobs[0] == blobs[1] == blobs[2]

    def test_elapsed_not_serialized(self, tmp_path):
        rep = run_suite("graph-cc", self.FAM, out_dir=str(tmp_path))
        assert "elapsed" not in rep.to_json_obj()
        assert "omitted" not in rep.to_json_obj()  # written only when non-empty

    def assert_workers(self, tmp_path, monkeypatch, jobs, cpus, mask, workers):
        """With ``cpu_count`` reading ``cpus`` and an affinity mask ``mask``
        (None: the platform has none), a --jobs ``jobs`` run of lemma-dim
        starts ``workers`` children, child s runs shard s of every family,
        a single worker forks nothing, and the report is the serial one.
        The fork helper is replaced by an inline runner, so no process is
        started."""
        forks, shard_runs = [], []
        run_shard = suites_module._run_shard

        def recording_shard(name, fams, shard, jobs):
            shard_runs.extend((fi, shard, jobs) for fi in range(len(fams)))
            return run_shard(name, fams, shard, jobs)

        def inline_forks(name, fams, workers):
            forks.append(workers)
            return [row for s in range(workers) for row in recording_shard(name, fams, s, workers)]

        monkeypatch.setattr(suites_module, "_fork_shards", inline_forks)
        monkeypatch.setattr(suites_module.os, "cpu_count", lambda: cpus)
        if mask is None:
            monkeypatch.delattr(suites_module.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(suites_module.os, "sched_getaffinity", lambda pid: set(mask))
        fams = [FamilySpec(kind="all_graphs", n=4), FamilySpec(kind="named", name="c5")]
        serial = run_suite("lemma-dim", fams, out_dir=str(tmp_path))
        monkeypatch.setattr(suites_module, "_run_shard", recording_shard)
        sharded = run_suite("lemma-dim", fams, jobs=jobs, out_dir=str(tmp_path))
        assert forks == ([workers] if workers > 1 else [])
        assert sorted(shard_runs) == [(fi, s, workers) for fi in range(2) for s in range(workers)]
        assert sharded.to_json_obj() == serial.to_json_obj()

    @pytest.mark.parametrize("cpus,jobs,workers", [(2, 64, 2), (None, 64, 1), (8, 3, 3)])
    def test_worker_pool_bounded_by_cpu_count(self, tmp_path, monkeypatch, cpus, jobs, workers):
        """Without an affinity mask the workers are min(jobs, cpu_count),
        however large ``--jobs`` is; an unknown cpu_count means one."""
        self.assert_workers(tmp_path, monkeypatch, jobs, cpus, None, workers)

    @pytest.mark.parametrize("mask,jobs,workers", [({0, 1}, 64, 2), ({3}, 64, 1), ({0, 2, 5}, 2, 2)])
    def test_workers_bounded_by_affinity_mask(self, tmp_path, monkeypatch, mask, jobs, workers):
        """The workers are bounded by the CPUs this process may use, not by
        the host's count: a mask smaller than cpu_count wins."""
        self.assert_workers(tmp_path, monkeypatch, jobs, 8, mask, workers)

    def test_no_fork_runs_in_process(self, tmp_path, monkeypatch):
        """Where os.fork does not exist, any --jobs runs in this process."""
        monkeypatch.delattr(suites_module.os, "fork")
        self.assert_workers(tmp_path, monkeypatch, 4, 8, {0, 1, 2, 3}, 1)

    def test_forked_children_are_reaped(self, tmp_path):
        """Two real forked shards give the serial rows and leave no child behind."""
        fams = [FamilySpec(kind="all_graphs", n=4), FamilySpec(kind="named", name="c5")]
        forked = suites_module._fork_shards("lemma-dim", fams, 2)
        serial = suites_module._run_shard("lemma-dim", fams, 0, 1)
        assert sorted(forked, key=lambda r: r[:2]) == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_default_families_used_when_none_given(self, tmp_path):
        rep = run_suite("graph-cc", out_dir=str(tmp_path))
        assert rep.families == SUITES["graph-cc"].default_families
        assert rep.exit_status == 0
