"""Unit tests for the generic registry and the spec grammar."""

import inspect

import pytest

from repro.pipeline.registry import (
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
    format_spec,
    parse_spec,
)


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("ebv") == ("ebv", {})

    def test_name_is_lowercased_and_stripped(self):
        assert parse_spec(" EBV ") == ("ebv", {})

    def test_kwargs_coercion(self):
        name, kwargs = parse_spec("ebv?alpha=2,beta=1.5,sort_order=input,flag=true,opt=none")
        assert name == "ebv"
        assert kwargs == {
            "alpha": 2,
            "beta": 1.5,
            "sort_order": "input",
            "flag": True,
            "opt": None,
        }
        assert isinstance(kwargs["alpha"], int)
        assert isinstance(kwargs["beta"], float)

    def test_quoted_values_stay_strings(self):
        assert parse_spec("file?path='123'")[1] == {"path": "123"}
        assert parse_spec('powerlaw?name="true"')[1] == {"name": "true"}

    def test_issue_examples(self):
        assert parse_spec("ebv?alpha=2,sort_order=input")[1]["alpha"] == 2
        assert parse_spec("powerlaw?vertices=20000,eta=2.2")[1] == {
            "vertices": 20000,
            "eta": 2.2,
        }

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "?alpha=2", "ebv?", "ebv?alpha", "ebv?=2", "ebv?alpha=1,,beta=2"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(RegistryError):
            parse_spec(bad)

    def test_non_string_rejected(self):
        with pytest.raises(RegistryError, match="must be a string"):
            parse_spec(42)

    def test_malformed_error_is_descriptive(self):
        with pytest.raises(RegistryError, match="expected key=value"):
            parse_spec("ebv?alpha")


class TestFormatSpec:
    def test_round_trip_is_canonical(self):
        spec = "EBV?beta=1.5,alpha=2,flag=true"
        canonical = format_spec(*parse_spec(spec))
        assert canonical == "ebv?alpha=2,beta=1.5,flag=true"
        # Idempotent once canonical.
        assert format_spec(*parse_spec(canonical)) == canonical

    def test_no_kwargs(self):
        assert format_spec("EBV") == "ebv"
        assert format_spec("ebv", {}) == "ebv"

    def test_coercible_strings_round_trip_via_quoting(self):
        spec = format_spec("file", {"path": "123"})
        assert spec == "file?path='123'"
        assert parse_spec(spec)[1] == {"path": "123"}


class TestRegistry:
    def make(self):
        reg = Registry("widget")
        reg.register("alpha", lambda **kw: ("alpha", kw), aliases=("first",))
        return reg

    def test_get_and_create(self):
        reg = self.make()
        assert reg.get("alpha")() == ("alpha", {})
        assert reg.create("alpha?x=1") == ("alpha", {"x": 1})
        assert reg.create("alpha?x=1", x=2) == ("alpha", {"x": 2})

    def test_alias_and_case_insensitive_lookup(self):
        reg = self.make()
        assert reg.canonical("FIRST") == "alpha"
        assert reg.get("First")() == ("alpha", {})
        assert "first" in reg and "ALPHA" in reg

    def test_duplicate_names_rejected(self):
        reg = self.make()
        with pytest.raises(DuplicateComponentError):
            reg.register("alpha", lambda: None)
        with pytest.raises(DuplicateComponentError):
            reg.register("first", lambda: None)  # clashes with the alias
        with pytest.raises(DuplicateComponentError):
            reg.register("beta", lambda: None, aliases=("alpha",))

    def test_unknown_name_lists_available(self):
        reg = self.make()
        with pytest.raises(UnknownComponentError, match="available: alpha"):
            reg.get("bogus")
        assert "bogus" not in reg

    def test_decorator_registration(self):
        reg = self.make()

        @reg.register("beta")
        def make_beta(**kw):
            return ("beta", kw)

        assert reg.names() == ("alpha", "beta")
        assert reg.create("beta?y=2") == ("beta", {"y": 2})


class TestConcreteRegistries:
    def test_partitioners_cover_cli_names(self):
        from repro.pipeline.registries import PARTITIONERS

        expected = {
            "ebv", "ebv-unsort", "ebv-stream", "ebv-sharded", "ginger",
            "dbh", "cvc", "ne", "metis", "hdrf",
        }
        assert expected <= set(PARTITIONERS.names())

    def test_fennel_is_refused(self, capsys):
        from repro.cli import main
        from repro.pipeline.registries import PARTITIONERS

        available = ", ".join(PARTITIONERS.names())
        message = f"unknown partitioner 'fennel'; available: {available}"
        with pytest.raises(UnknownComponentError, match=f"{message}$"):
            PARTITIONERS.create("fennel")
        with pytest.raises(SystemExit) as exit_info:
            main(["partition", "g.txt", "--method", "fennel"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_partitioner_spec_kwargs_reach_constructor(self):
        from repro.pipeline.registries import PARTITIONERS

        p = PARTITIONERS.create("ebv?alpha=2,sort_order=input")
        assert p.alpha == 2.0 and p.sort_order == "input"
        unsort = PARTITIONERS.create("ebv-unsort")
        assert unsort.sort_order == "input"

    def test_apps_include_the_missing_three(self):
        from repro.pipeline.registries import APPS

        assert {"bfs", "kcore", "featprop"} <= set(APPS.names())
        assert APPS.canonical("pagerank") == "pr"
        assert APPS.canonical("k-core") == "kcore"

    def test_experiments_match_paper_artifacts(self):
        from repro.pipeline.registries import EXPERIMENTS

        assert set(EXPERIMENTS.names()) == {
            "all", "fig2", "fig3", "fig4", "fig5",
            "table1", "table2", "table3", "table4", "table5",
        }

    def test_generators_build_graphs(self):
        from repro.pipeline.registries import GENERATORS

        g = GENERATORS.create("powerlaw?vertices=128,min_degree=2,seed=1")
        assert g.num_vertices == 128
        road = GENERATORS.create("road?vertices=100,seed=1")
        assert road.num_vertices > 0


def _registered_factories():
    from repro.pipeline import registries

    return [
        pytest.param(family, name, id=f"{family}-{name}")
        for family in registries.__all__
        for name in getattr(registries, family).names()
    ]


@pytest.mark.parametrize("family, name", _registered_factories())
def test_registered_factory_is_sound(family, name):
    """No registry holds an abstract class, and every partitioner and
    backend builds from its bare name, which is what a ``"name"`` spec asks."""
    from repro.pipeline import registries

    registry = getattr(registries, family)
    factory = registry.get(name)
    assert not (inspect.isclass(factory) and inspect.isabstract(factory)), (
        f"{family} entry {name!r} registers abstract class {factory.__name__}"
    )
    if family in ("PARTITIONERS", "BACKENDS"):
        registry.create(name)
