"""Public API surface tests, and a guard on what the package imports."""

import ast
import pathlib

import repro

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_types_exported(self):
        assert repro.DDT is not None
        assert repro.FastDDT is not None
        assert repro.ARVIPredictor is not None
        assert repro.LevelTwoKind is not None
        assert callable(repro.simulate)
        assert callable(repro.machine_for_depth)

    def test_subpackages_importable(self):
        import repro.applications
        import repro.core
        import repro.experiments
        import repro.isa
        import repro.pipeline
        import repro.predictors
        import repro.workloads
        assert repro.workloads.BENCHMARKS


def test_no_module_imports_signal():
    """No signal handler, hence no asynchronous exception, can reach
    simulator state: every failure is raised where the code raises it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "signal" for name in names):
                offenders.append(f"{path.relative_to(SRC.parent)}:"
                                 f"{node.lineno}")
    assert offenders == []
