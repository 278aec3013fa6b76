"""Registry integrity: every exported rule class is registered once.

Also the liveness anchor for the rule packs' public surface: each rule
class is imported and checked here, so REP043 (dead public export)
holds the analysis package to its own standard.
"""

import pytest

from repro.analysis import ProjectRule, Rule, Severity, default_registry
from repro.analysis.clockrules import (
    MagicTimeLiteralRule,
    RawTimestampParameterRule,
)
from repro.analysis.effects import (
    AmbientStateReadRule,
    ImpureMergeHelperRule,
    PureFunctionEffectRule,
    TransitiveImpurityRule,
)
from repro.analysis.determinism import (
    AmbientRandomRule,
    OsEntropyRule,
    SaltedHashRule,
    UnorderedSetIterationRule,
    WallClockRule,
)
from repro.analysis.graphrules import (
    CorrelatedStreamsRule,
    DeadExportRule,
    ShadowedInjectionRule,
    TransitiveNondeterminismRule,
)
from repro.analysis.hygiene import (
    MissingAllRule,
    MutableDefaultRule,
    OverBroadExceptRule,
    UnusedImportRule,
)
from repro.analysis.robustness import DirectStateWriteRule, UnboundedRetryRule
from repro.analysis.shardrules import (
    OrderSensitiveMergeRule,
    RngStreamEscapeRule,
    SharedMutableStateRule,
    UnregisteredCheckpointStateRule,
)
from repro.analysis.suppressions import StaleSuppressionRule

EXPORTED_RULES = {
    "REP001": AmbientRandomRule,
    "REP002": WallClockRule,
    "REP003": UnorderedSetIterationRule,
    "REP004": SaltedHashRule,
    "REP005": OsEntropyRule,
    "REP010": MagicTimeLiteralRule,
    "REP011": RawTimestampParameterRule,
    "REP020": MutableDefaultRule,
    "REP021": OverBroadExceptRule,
    "REP022": MissingAllRule,
    "REP023": UnusedImportRule,
    "REP030": UnboundedRetryRule,
    "REP031": DirectStateWriteRule,
    "REP040": TransitiveNondeterminismRule,
    "REP041": CorrelatedStreamsRule,
    "REP042": ShadowedInjectionRule,
    "REP043": DeadExportRule,
    "REP050": StaleSuppressionRule,
    "REP060": SharedMutableStateRule,
    "REP061": OrderSensitiveMergeRule,
    "REP062": RngStreamEscapeRule,
    "REP063": UnregisteredCheckpointStateRule,
    "REP070": PureFunctionEffectRule,
    "REP071": TransitiveImpurityRule,
    "REP072": AmbientStateReadRule,
    "REP073": ImpureMergeHelperRule,
}


class TestRegistry:
    def test_every_exported_rule_is_registered_under_its_id(self):
        registry = default_registry()
        for rule_id, rule_cls in EXPORTED_RULES.items():
            assert registry.get(rule_id) is rule_cls

    def test_no_unexpected_rules(self):
        assert set(default_registry().ids()) == set(EXPORTED_RULES)

    @pytest.mark.parametrize(
        "rule_id", sorted(EXPORTED_RULES), ids=sorted(EXPORTED_RULES)
    )
    def test_metadata_is_complete(self, rule_id):
        rule_cls = EXPORTED_RULES[rule_id]
        assert issubclass(rule_cls, Rule)
        assert rule_cls.rule_id == rule_id
        assert rule_cls.title
        assert isinstance(rule_cls.severity, Severity)

    def test_project_rules_are_the_graph_decades(self):
        project_ids = {
            rule_id
            for rule_id, rule_cls in EXPORTED_RULES.items()
            if issubclass(rule_cls, ProjectRule)
        }
        assert project_ids == {
            "REP040", "REP041", "REP042", "REP043",
            "REP060", "REP061", "REP062", "REP063",
            "REP070", "REP071", "REP072", "REP073",
        }
