"""Per-rule positive/negative fixtures for the REP0xx rule pack."""

import pytest

from repro.analysis import Analyzer, RuleRegistry, Severity, default_registry
from repro.analysis.rules import Rule
from repro.errors import AnalysisError

from .conftest import rule_ids


class TestRep001AmbientRandom:
    def test_import_random(self, lint):
        findings = lint("import random\n", select=["REP001"])
        assert rule_ids(findings) == ["REP001"]
        assert findings[0].line == 1

    def test_from_random_import(self, lint):
        assert rule_ids(
            lint("from random import choice\n", select=["REP001"])
        ) == ["REP001"]

    def test_numpy_random(self, lint):
        assert rule_ids(
            lint("import numpy.random\n", select=["REP001"])
        ) == ["REP001"]

    def test_attribute_use(self, lint):
        findings = lint(
            "import random\nx = random.random()\n", select=["REP001"]
        )
        assert rule_ids(findings) == ["REP001", "REP001"]
        assert findings[1].line == 2

    def test_seeded_rng_is_clean(self, lint):
        source = """
        from repro.rng import SeededRng

        def draw(rng):
            return rng.random()
        """
        assert lint(source, select=["REP001"]) == []


class TestRep002WallClock:
    @pytest.mark.parametrize(
        "expr",
        [
            "time.time()",
            "time.monotonic()",
            "time.perf_counter_ns()",
            "datetime.now()",
            "datetime.utcnow()",
            "date.today()",
            "datetime.datetime.now()",
        ],
    )
    def test_wall_clock_reads(self, lint, expr):
        assert rule_ids(
            lint(f"x = {expr}\n", select=["REP002"])
        ) == ["REP002"]

    def test_from_time_import(self, lint):
        assert rule_ids(
            lint("from time import monotonic\n", select=["REP002"])
        ) == ["REP002"]

    def test_simulation_clock_is_clean(self, lint):
        source = """
        def sample(clock):
            return clock.now
        """
        assert lint(source, select=["REP002"]) == []

    def test_unrelated_now_attribute_is_clean(self, lint):
        assert lint("x = clock.now\n", select=["REP002"]) == []


class TestRep003UnorderedSetIteration:
    def test_for_over_set_call(self, lint):
        source = """
        def f(items):
            for x in set(items):
                print(x)
        """
        assert rule_ids(lint(source, select=["REP003"])) == ["REP003"]

    def test_comprehension_over_set_literal(self, lint):
        assert rule_ids(
            lint("out = [x for x in {3, 1, 2}]\n", select=["REP003"])
        ) == ["REP003"]

    def test_set_comprehension_iterable(self, lint):
        assert rule_ids(
            lint("out = [y for y in {x for x in range(3)}]\n",
                 select=["REP003"])
        ) == ["REP003"]

    def test_call_to_set_annotated_method(self, lint):
        source = """
        from typing import Set

        class Timeline:
            def all_websites(self) -> Set[str]:
                return set()

            def spans(self):
                return {site: 1 for site in self.all_websites()}
        """
        findings = lint(source, select=["REP003"])
        assert rule_ids(findings) == ["REP003"]

    def test_sorted_wrapper_is_clean(self, lint):
        source = """
        def f(items):
            for x in sorted(set(items)):
                print(x)
        """
        assert lint(source, select=["REP003"]) == []

    def test_list_iteration_is_clean(self, lint):
        source = """
        def f(items):
            for x in list(items):
                print(x)
        """
        assert lint(source, select=["REP003"]) == []


class TestRep004SaltedHash:
    def test_hash_outside_dunder(self, lint):
        assert rule_ids(
            lint("bucket = hash('example.com') % 16\n", select=["REP004"])
        ) == ["REP004"]

    def test_hash_in_helper_function(self, lint):
        source = """
        def bucket_of(name):
            return hash(name) % 4
        """
        assert rule_ids(lint(source, select=["REP004"])) == ["REP004"]

    def test_hash_inside_dunder_hash_is_clean(self, lint):
        source = """
        class Name:
            def __hash__(self):
                return hash(self.labels)
        """
        assert lint(source, select=["REP004"]) == []

    def test_stable_hash_is_clean(self, lint):
        source = """
        from repro.rng import stable_hash

        def bucket_of(name):
            return stable_hash(name) % 4
        """
        assert lint(source, select=["REP004"]) == []


class TestRep005OsEntropy:
    @pytest.mark.parametrize(
        "source",
        [
            "import os\nx = os.urandom(8)\n",
            "from os import urandom\n",
            "import uuid\nx = uuid.uuid4()\n",
            "from uuid import uuid4\n",
            "import secrets\n",
            "from secrets import token_hex\n",
        ],
    )
    def test_entropy_sources(self, lint, source):
        assert "REP005" in rule_ids(lint(source, select=["REP005"]))

    def test_uuid5_is_clean(self, lint):
        # uuid5 is deterministic (namespace + name), so it is allowed.
        assert lint(
            "import uuid\nx = uuid.uuid5(ns, 'name')\n", select=["REP005"]
        ) == []


class TestRep010MagicTimeLiteral:
    @pytest.mark.parametrize("literal", ["3600", "86400", "604800"])
    def test_magic_literals(self, lint, literal):
        findings = lint(f"ttl = {literal}\n", select=["REP010"])
        assert rule_ids(findings) == ["REP010"]
        assert findings[0].severity is Severity.WARNING

    def test_clock_module_is_exempt(self, lint):
        assert lint(
            "SECONDS_PER_DAY = 86400\n", filename="clock.py",
            select=["REP010"],
        ) == []

    def test_named_constant_is_clean(self, lint):
        assert lint(
            "from repro.clock import SECONDS_PER_DAY\nttl = SECONDS_PER_DAY\n",
            select=["REP010"],
        ) == []

    def test_private_now_access(self, lint):
        assert rule_ids(
            lint("t = clock._now\n", select=["REP010"])
        ) == ["REP010"]

    def test_self_now_is_clean(self, lint):
        source = """
        class Clock:
            def read(self):
                return self._now
        """
        assert lint(source, select=["REP010"]) == []

    def test_boolean_literal_not_confused_with_int(self, lint):
        assert lint("flag = True\n", select=["REP010"]) == []


class TestRep011RawTimestamp:
    def test_timestamp_parameter(self, lint):
        source = """
        def record(timestamp):
            return timestamp
        """
        assert rule_ids(lint(source, select=["REP011"])) == ["REP011"]

    def test_keyword_only_epoch_seconds(self, lint):
        source = """
        def record(*, epoch_seconds):
            return epoch_seconds
        """
        assert rule_ids(lint(source, select=["REP011"])) == ["REP011"]

    def test_clock_module_is_exempt(self, lint):
        source = """
        def advance_to(self, timestamp):
            return timestamp
        """
        assert lint(source, filename="clock.py", select=["REP011"]) == []

    def test_day_index_is_clean(self, lint):
        source = """
        def record(day):
            return day
        """
        assert lint(source, select=["REP011"]) == []


class TestRep020MutableDefault:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "list()", "dict()", "{1, 2}"]
    )
    def test_mutable_defaults(self, lint, default):
        source = f"""
        def f(seen={default}):
            return seen
        """
        assert rule_ids(lint(source, select=["REP020"])) == ["REP020"]

    def test_keyword_only_mutable_default(self, lint):
        source = """
        def f(*, seen=[]):
            return seen
        """
        assert rule_ids(lint(source, select=["REP020"])) == ["REP020"]

    def test_none_default_is_clean(self, lint):
        source = """
        def f(seen=None):
            return seen or []
        """
        assert lint(source, select=["REP020"]) == []

    def test_tuple_default_is_clean(self, lint):
        source = """
        def f(seen=()):
            return seen
        """
        assert lint(source, select=["REP020"]) == []


class TestRep021OverBroadExcept:
    def test_bare_except(self, lint):
        source = """
        try:
            step()
        except:
            pass
        """
        assert rule_ids(lint(source, select=["REP021"])) == ["REP021"]

    @pytest.mark.parametrize("exc", ["Exception", "BaseException"])
    def test_broad_classes(self, lint, exc):
        source = f"""
        try:
            step()
        except {exc}:
            pass
        """
        assert rule_ids(lint(source, select=["REP021"])) == ["REP021"]

    def test_broad_class_in_tuple(self, lint):
        source = """
        try:
            step()
        except (ValueError, Exception):
            pass
        """
        assert rule_ids(lint(source, select=["REP021"])) == ["REP021"]

    def test_narrow_class_is_clean(self, lint):
        source = """
        try:
            step()
        except ValueError:
            pass
        """
        assert lint(source, select=["REP021"]) == []


class TestRep022MissingAll:
    def test_public_module_without_all(self, lint):
        source = """
        def api():
            return 1
        """
        assert rule_ids(lint(source, select=["REP022"])) == ["REP022"]

    def test_module_with_all_is_clean(self, lint):
        source = """
        __all__ = ["api"]

        def api():
            return 1
        """
        assert lint(source, select=["REP022"]) == []

    def test_main_module_is_exempt(self, lint):
        source = """
        def run():
            return 1
        """
        assert lint(source, filename="__main__.py", select=["REP022"]) == []

    def test_private_module_is_exempt(self, lint):
        source = """
        def helper():
            return 1
        """
        assert lint(source, filename="_internal.py", select=["REP022"]) == []

    def test_module_defining_nothing_public_is_clean(self, lint):
        assert lint("import os\n_cache = {}\n", select=["REP022"]) == []


class TestRep023UnusedImport:
    def test_unused_import(self, lint):
        findings = lint("import os\n", select=["REP023"])
        assert rule_ids(findings) == ["REP023"]
        assert "'os'" in findings[0].message

    def test_only_the_unused_names_of_an_import_are_reported(self, lint):
        source = """
        from typing import Dict, List, Set

        def f(x: List[int]) -> int:
            return len(x)
        """
        findings = lint(source, select=["REP023"])
        assert rule_ids(findings) == ["REP023", "REP023"]
        assert [finding.line for finding in findings] == [2, 2]
        assert "'Dict'" in findings[0].message
        assert "'Set'" in findings[1].message

    def test_dotted_import_binds_its_top_package(self, lint):
        assert lint("import os.path\nos.sep\n", select=["REP023"]) == []
        findings = lint("import os.path as p\n", select=["REP023"])
        assert "'p'" in findings[0].message

    def test_unused_function_local_import(self, lint):
        source = """
        def f():
            from os import sep
            return 1
        """
        assert rule_ids(lint(source, select=["REP023"])) == ["REP023"]

    def test_attribute_and_annotation_uses_are_clean(self, lint):
        source = """
        import json
        from typing import Optional

        def f(x: Optional[int]) -> str:
            return json.dumps(x)
        """
        assert lint(source, select=["REP023"]) == []

    def test_string_annotation_use_is_clean(self, lint):
        source = """
        from typing import TYPE_CHECKING, Iterable

        if TYPE_CHECKING:
            from .study import StudyRuntime

        def f(runtime: "StudyRuntime", names: "str | Iterable[str]") -> "StudyRuntime":
            return runtime

        held: "Iterable[StudyRuntime]" = ()
        """
        assert lint(source, select=["REP023"]) == []

    def test_all_reexport_is_clean(self, lint):
        source = """
        from os import sep

        __all__ = ["sep"]
        """
        assert lint(source, select=["REP023"]) == []

    def test_package_init_is_exempt(self, lint):
        assert lint("from os import sep\n", filename="__init__.py",
                    select=["REP023"]) == []

    def test_future_and_star_imports_are_ignored(self, lint):
        source = """
        from __future__ import annotations
        from os.path import *
        """
        assert lint(source, select=["REP023"]) == []


class TestRegistry:
    def test_default_pack_has_twenty_six_rules(self):
        # 11 per-module REP00x/01x/02x, REP030/REP031, the four REP04x
        # project rules, REP050 (stale inline suppression), the four
        # REP06x shard-safety project rules, and the four REP07x
        # purity/effect project rules.
        assert len(default_registry()) == 26

    def test_unknown_select_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            Analyzer(select=["REP999"], root=str(tmp_path))

    def test_unknown_ignore_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            Analyzer(ignore=["NOPE"], root=str(tmp_path))

    def test_ignore_filters_rule_out(self, lint):
        findings = lint("import random\n", ignore=["REP001", "REP022"])
        assert "REP001" not in rule_ids(findings)

    def test_duplicate_rule_id_rejected(self):
        registry = RuleRegistry()

        class A(Rule):
            rule_id = "REP900"

            def check(self, module):
                return iter(())

        class B(Rule):
            rule_id = "REP900"

            def check(self, module):
                return iter(())

        registry.add(A)
        with pytest.raises(AnalysisError):
            registry.add(B)

    def test_rule_without_id_rejected(self):
        class Anonymous(Rule):
            def check(self, module):
                return iter(())

        with pytest.raises(AnalysisError):
            RuleRegistry().add(Anonymous)


class TestEngine:
    def test_findings_sorted_and_deterministic(self, lint):
        source = """
        import random
        x = 86400
        y = 3600
        """
        first = lint(source)
        second = lint(source)
        assert [f.sort_key for f in first] == [f.sort_key for f in second]
        assert first == sorted(first, key=lambda f: f.sort_key)

    def test_duplicate_lines_get_distinct_fingerprints(self, lint):
        source = """
        a = 86400
        a = 86400
        """
        findings = lint(source, select=["REP010"])
        assert len(findings) == 2
        assert findings[0].fingerprint != findings[1].fingerprint
        assert findings[0].occurrence == 0
        assert findings[1].occurrence == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            Analyzer(root=str(tmp_path)).run([str(tmp_path / "absent.py")])

    def test_syntax_error_raises(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        with pytest.raises(AnalysisError):
            Analyzer(root=str(tmp_path)).run([str(bad)])

    def test_directory_discovery_skips_pycache(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text("import random\n", encoding="utf-8")
        cache = package / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import random\n", encoding="utf-8")
        findings = Analyzer(root=str(tmp_path), select=["REP001"]).run(
            [str(package)]
        )
        assert [f.path for f in findings] == ["pkg/mod.py"]
