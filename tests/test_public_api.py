"""Package-level contracts: exports, versioning, documentation coverage.

Deliverable hygiene: every public item (everything reachable through a
package's ``__all__``) must carry a docstring, and every ``__all__``
entry must actually exist.
"""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.bench",
    "repro.core",
    "repro.cuda_port",
    "repro.data",
    "repro.gpusim",
    "repro.kde",
    "repro.kernels",
    "repro.multivariate",
    "repro.obs",
    "repro.parallel",
    "repro.regression",
    "repro.theory",
    "repro.utils",
]


class TestVersioning:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


@pytest.mark.parametrize("package", PACKAGES)
class TestExports:
    def test_module_docstring(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__ and mod.__doc__.strip()

    def test_all_entries_resolve(self, package):
        mod = importlib.import_module(package)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{package}.__all__ lists missing names: {missing}"

    def test_all_is_sorted_unique(self, package):
        mod = importlib.import_module(package)
        assert len(mod.__all__) == len(set(mod.__all__))

    def test_every_public_item_documented(self, package):
        mod = importlib.import_module(package)
        undocumented = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (inspect.getdoc(obj) or "").strip():
                    undocumented.append(name)
        assert not undocumented, (
            f"{package} exports undocumented items: {undocumented}"
        )

    def test_public_classes_have_documented_public_methods(self, package):
        mod = importlib.import_module(package)
        undocumented = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not inspect.isclass(obj):
                continue
            for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited (documented at the base)
                if not (inspect.getdoc(meth) or "").strip():
                    undocumented.append(f"{name}.{meth_name}")
        assert not undocumented, (
            f"{package} has undocumented public methods: {undocumented}"
        )


# Names outside the public surface (nothing that a selection, a CLI
# command or a server route runs reaches them); none may resolve.
REMOVED = [
    ("repro", "LocalLinear"),
    ("repro.regression", "LocalLinear"),
    ("repro.regression", "LocalPolynomial"),
    ("repro.regression", "loo_confidence_band"),
    ("repro.kde", "kde_confidence_band"),
    ("repro.theory", "SelectorStudy"),
    ("repro.utils", "check_probability"),
    ("repro.utils.validation", "check_probability"),
]
REMOVED_MODULES = [
    "repro.regression.local_linear",
    "repro.regression.local_polynomial",
    "repro.regression.confidence",
    "repro.kde.confidence",
    "repro.theory.simulation",
]


class TestTopLevelSurface:
    def test_all_is_exactly_the_selection_surface(self):
        assert sorted(repro.__all__) == [
            "BaggedCVSelector",
            "BandwidthGrid",
            "GridSearchSelector",
            "KernelDensity",
            "NadarayaWatson",
            "NumericalOptimizationSelector",
            "RuleOfThumbSelector",
            "SelectionResult",
            "__version__",
            "get_kernel",
            "list_kernels",
            "select_bandwidth",
            "select_kde_bandwidth",
        ]

    def test_removed_names_do_not_resolve(self):
        for package, name in REMOVED:
            mod = importlib.import_module(package)
            assert name not in mod.__all__, (package, name)
            with pytest.raises(AttributeError):
                getattr(mod, name)
        for module in REMOVED_MODULES:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)

    def test_headline_exports_present(self):
        for name in (
            "select_bandwidth",
            "NadarayaWatson",
            "KernelDensity",
            "GridSearchSelector",
            "BandwidthGrid",
        ):
            assert hasattr(repro, name)

    def test_quickstart_snippet_from_readme(self):
        import numpy as np

        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 300)
        y = 0.5 * x + 10 * x**2 + rng.uniform(0, 0.5, 300)
        result = repro.select_bandwidth(x, y, n_bandwidths=20)
        model = repro.NadarayaWatson(bandwidth=result.bandwidth).fit(x, y)
        curve = model.predict(np.linspace(0.1, 0.9, 11))
        assert np.isfinite(curve).all()
