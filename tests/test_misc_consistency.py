"""Small consistency checks across the package surface."""

import numpy as np

from repro.solvers.result import SolverResult, SolverStatus


class TestSolverResult:
    def test_ok_only_when_optimal(self):
        x = np.zeros(1)
        assert SolverResult(x, 0.0, SolverStatus.OPTIMAL).ok
        for status in (
            SolverStatus.MAX_ITER,
            SolverStatus.INFEASIBLE,
            SolverStatus.FAILED,
        ):
            assert not SolverResult(x, 0.0, status).ok

    def test_repr_mentions_status_and_objective(self):
        r = SolverResult(np.zeros(1), 1.25, SolverStatus.OPTIMAL, iterations=3)
        text = repr(r)
        assert "optimal" in text and "1.25" in text and "3" in text


class TestRegistryConsistency:
    def test_every_experiment_is_runnable_metadata(self):
        from repro.experiments.registry import EXPERIMENTS

        for exp_id, exp in EXPERIMENTS.items():
            assert exp.id == exp_id
            assert exp.title
            assert exp.paper_artifact
            assert callable(exp.runner)

    def test_ids_are_kebab_case(self):
        from repro.experiments.registry import EXPERIMENTS

        for exp_id in EXPERIMENTS:
            assert exp_id == exp_id.lower()
            assert " " not in exp_id

    def test_cli_list_shows_every_experiment(self, capsys):
        from repro.cli import main
        from repro.experiments.registry import EXPERIMENTS

        main(["list"])
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_matches_pyproject(self):
        import pathlib
        import re

        import repro

        text = pathlib.Path("pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)
