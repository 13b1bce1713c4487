"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, _parse_value, build_parser, main


class TestParseValue:
    def test_scalars(self):
        assert _parse_value("3") == 3
        assert _parse_value("2.5") == 2.5
        assert _parse_value("true") is True
        assert _parse_value("hello") == "hello"

    def test_tuples(self):
        assert _parse_value("1,2,3") == (1, 2, 3)
        assert _parse_value("0.5,foo") == (0.5, "foo")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "table1" in out

    def test_registry_covers_every_evaluation_artifact(self):
        for name in ("fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
                     "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
                     "fig13", "table1"):
            assert name in EXPERIMENTS

    def test_registry_covers_the_extension_studies(self):
        assert "ext-solver-strategies" in EXPERIMENTS

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_bad_override(self, capsys):
        assert main(["run", "fig04", "blocks"]) == 2

    def test_run_fig04_with_overrides(self, capsys):
        assert main(["run", "fig04", "ny=24", "nx=24", "blocks=2"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "yellowstone" in out and "edison" in out

    def test_solve_small(self, capsys):
        assert main([
            "solve", "--config", "test", "--scale", "1.0",
            "--solver", "chrongear", "--precond", "diagonal",
            "--tol", "1e-10", "--cores", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "modeled @" in out

    def test_solve_show_events(self, capsys):
        assert main([
            "solve", "--config", "test", "--scale", "1.0",
            "--solver", "pcsi", "--precond", "diagonal", "--tol", "1e-10",
            "--cores", "64", "--show-events",
        ]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "global reductions" in out
        assert "loop reductions / iteration" in out

    @pytest.mark.parametrize("flag", ["--solver", "--precond"])
    def test_solve_unknown_name_is_a_usage_error(self, flag, capsys):
        # ``capcg`` names a solver older versions built.
        for name in ("bogus", "capcg"):
            with pytest.raises(SystemExit) as exit_:
                main(["solve", "--config", "test", flag, name])
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:") and "invalid choice" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
