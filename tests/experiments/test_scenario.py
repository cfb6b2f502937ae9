"""Tests for the declarative scenario layer."""

from __future__ import annotations

import re

import pytest

from repro.experiments.scenario import (
    PAPER_SCENARIO,
    Scenario,
    apply_overrides,
    parse_override,
)


class TestConstruction:
    def test_paper_default(self):
        assert PAPER_SCENARIO.gpus == ("V100", "P100")
        assert PAPER_SCENARIO.node == "DGX1"

    def test_sequences_normalized_to_tuples(self):
        s = Scenario(gpus=["V100"], gpu_counts=[2, 4])
        assert s.gpus == ("V100",)
        assert s.gpu_counts == (2, 4)

    def test_extras_sorted_for_stable_identity(self):
        a = Scenario(extras=(("b", "2"), ("a", "1")))
        b = Scenario(extras=(("a", "1"), ("b", "2")))
        assert a == b
        assert a.content_hash == b.content_hash

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gpus": ()},
            {"gpus": ("K80",)},
            {"node": "DGX9"},
            {"interconnect": "infiniband"},
            {"gpu_count": 0},
            {"gpu_counts": (0,)},
            {"size_bytes": 0},
            # Cross-field combinations that cannot build:
            {"node": "DGX2", "interconnect": "nvlink-cube-mesh"},  # mesh caps at 8
            {"gpu_count": 9},  # DGX1 cube-mesh has 8 GPUs
            {"node": "DGX2", "gpu_count": 17},  # NVSwitch caps at 16
            {"gpu_count": 4, "gpu_counts": (2, 5)},  # sweep beyond the node
        ],
    )
    def test_invalid_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"gpus": ("V100", "V100")}, "gpus repeat ['V100']"),
            ({"gpus": ("V100", "P100", "v100")}, "gpus repeat ['V100']"),
            ({"gpu_counts": (2, 4, 2)}, "gpu_counts repeat [2]"),
        ],
        ids=["gpus", "gpus-case-variant", "gpu_counts"],
    )
    def test_repeated_entries_rejected(self, kwargs, message):
        # Repeats would double-count rows and split one scenario's cache
        # identity; case variants of a GPU name are the same GPU.
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario(**kwargs)

    def test_buildable_cross_field_combinations_accepted(self):
        Scenario(node="DGX1", interconnect="nvswitch", gpu_count=16)
        Scenario(node="DGX2", gpu_count=12, gpu_counts=(2, 12))
        Scenario(interconnect="ring", gpu_count=6)


class TestResolution:
    def test_gpu_specs_in_order(self):
        names = [s.name for s in Scenario(gpus=("P100", "V100")).gpu_specs()]
        assert names == ["P100", "V100"]

    def test_node_spec_overrides(self):
        s = Scenario(gpus=("V100",), node="DGX1", interconnect="nvswitch", gpu_count=6)
        spec = s.node_spec()
        assert spec.interconnect == "nvswitch"
        assert spec.gpu_count == 6

    def test_build_node_applies_topology(self):
        node = Scenario(gpus=("V100",), interconnect="ring").build_node()
        assert node.interconnect.name == "ring"
        assert node.interconnect.hops(0, 4) == 4  # ring distance, not cube-mesh

    def test_sweep_counts_default_passthrough(self):
        assert PAPER_SCENARIO.sweep_counts((1, 2)) == (1, 2)
        assert Scenario(gpu_counts=(4, 8)).sweep_counts((1, 2)) == (4, 8)

    def test_sweep_counts_clamped_to_shrunk_node(self):
        """A gpu_count override below the paper sweep must clamp the
        default points (ending at the node size) instead of crashing."""
        s = Scenario(gpus=("V100",), gpu_count=4)
        assert s.sweep_counts((1, 2, 5, 6, 8)) == (1, 2, 4)
        assert s.sweep_counts((1, 2, 4)) == (1, 2, 4)

    def test_extra_lookup(self):
        s = Scenario(extras=(("k", "v"),))
        assert s.extra("k") == "v"
        assert s.extra("missing", "d") == "d"


class TestIdentity:
    def test_roundtrip_preserves_equality_and_hash(self):
        s = Scenario(
            gpus=("V100",), node="DGX2", gpu_count=12, interconnect="nvswitch",
            gpu_counts=(2, 4, 8), size_bytes=1 << 30, extras=(("x", "1"),),
        )
        back = Scenario.from_dict(s.to_dict())
        assert back == s
        assert back.content_hash == s.content_hash

    def test_hash_changes_with_content(self):
        assert (
            Scenario(gpus=("V100",)).content_hash
            != Scenario(gpus=("P100",)).content_hash
        )

    def test_case_variants_share_identity(self):
        """Lookups are case-insensitive, so case variants must canonicalize
        to one scenario — otherwise the cache stores duplicate entries."""
        a = Scenario(gpus=("v100",), node="dgx1")
        b = Scenario(gpus=("V100",), node="DGX1")
        assert a == b
        assert a.content_hash == b.content_hash
        assert a.gpus == ("V100",) and a.node == "DGX1"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"gpus": ["V100"], "bogus": 1})

    def test_describe_mentions_distinctives(self):
        s = Scenario(gpus=("V100",), node="DGX2", interconnect="nvswitch")
        d = s.describe()
        assert "V100" in d and "DGX2" in d and "nvswitch" in d


class TestOverrides:
    def test_parse_list_fields(self):
        assert parse_override("gpus=V100,P100") == ("gpus", ("V100", "P100"))
        assert parse_override("gpu_counts=2,4") == ("gpu_counts", (2, 4))

    def test_parse_scalar_fields(self):
        assert parse_override("gpu_count=4") == ("gpu_count", 4)
        assert parse_override("node=DGX2") == ("node", "DGX2")

    def test_namespaced_extra_accepted(self):
        assert parse_override("extra.knob=7") == ("extras", ("knob", "7"))

    def test_unknown_key_rejected_listing_valid_keys(self):
        """A typo ('gpu=' for 'gpus=') must fail loudly, not silently
        ride along as an ignored extra yielding the default scenario."""
        with pytest.raises(ValueError, match="unknown scenario key 'gpu'"):
            parse_override("gpu=V100")
        with pytest.raises(ValueError, match="gpus, gpu_counts, node"):
            parse_override("knob=7")
        with pytest.raises(ValueError, match="extra.<name>"):
            parse_override("knob=7")

    def test_bare_extra_prefix_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            parse_override("extra.=7")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_override("gpus")

    def test_apply_overrides(self):
        s = apply_overrides(
            PAPER_SCENARIO, ["gpus=V100", "interconnect=ring", "extra.knob=7"]
        )
        assert s.gpus == ("V100",)
        assert s.interconnect == "ring"
        assert s.extra("knob") == "7"
        # original untouched
        assert PAPER_SCENARIO.interconnect is None

    def test_apply_overrides_validates(self):
        with pytest.raises(ValueError):
            apply_overrides(PAPER_SCENARIO, ["gpu_count=0"])


class TestSyncStrategyKnob:
    def test_default_is_none_and_omitted_from_canonical_form(self):
        s = Scenario()
        assert s.sync_strategy is None
        # Omission keeps every pre-knob scenario's content hash (and cache
        # key, and report provenance) byte-identical.
        assert "sync_strategy" not in s.to_dict()

    def test_set_strategy_serializes_and_round_trips(self):
        s = Scenario(sync_strategy="atomic")
        d = s.to_dict()
        assert d["sync_strategy"] == "atomic"
        assert Scenario.from_dict(d) == s
        assert s.content_hash != Scenario().content_hash

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown sync_strategy"):
            Scenario(sync_strategy="telepathy")

    def test_parse_override(self):
        assert parse_override("sync_strategy=atomic") == ("sync_strategy", "atomic")
        s = apply_overrides(Scenario(), ["sync_strategy=cpu"])
        assert s.sync_strategy == "cpu"

    def test_describe_mentions_strategy(self):
        assert "sync=atomic" in Scenario(sync_strategy="atomic").describe()

    def test_sync_knobs_collects_known_keys_as_floats(self):
        s = Scenario(
            sync_strategy="atomic",
            extras=(
                ("poll_ns", "240"),
                ("workload_util", "0.5"),
                ("unrelated", "7"),
            ),
        )
        assert s.sync_knobs() == {"poll_ns": 240.0, "workload_util": 0.5}

    def test_typed_extra_accessors(self):
        s = Scenario(extras=(("n", "010"), ("x", "5e-1")))
        assert s.extra_int("n") == 10
        assert s.extra_float("x") == 0.5
        assert s.extra_int("missing", 3) == 3
        assert s.extra_float("missing") is None


class TestExtrasCanonicalization:
    def test_equivalent_int_spellings_share_identity(self):
        a = Scenario(extras=(("n", "10"),))
        b = Scenario(extras=(("n", "010"),))
        c = Scenario(extras=(("n", " 10 "),))
        assert a == b == c
        assert a.content_hash == b.content_hash == c.content_hash

    def test_equivalent_float_spellings_share_identity(self):
        a = Scenario(extras=(("u", "0.5"),))
        b = Scenario(extras=(("u", "5e-1"),))
        assert a == b
        assert a.content_hash == b.content_hash

    def test_int_and_float_stay_distinct(self):
        assert (
            Scenario(extras=(("n", "10"),)).content_hash
            != Scenario(extras=(("n", "10.0"),)).content_hash
        )

    def test_non_numeric_values_pass_through(self):
        s = Scenario(extras=(("name", "V100-sxm2"), ("inf", "inf")))
        assert s.extra("name") == "V100-sxm2"
        # Non-finite floats are not canonicalized (inf/nan stay strings).
        assert s.extra("inf") == "inf"

    def test_native_numbers_accepted(self):
        a = Scenario(extras=(("n", 10),))
        b = Scenario(extras=(("n", "10"),))
        assert a.content_hash == b.content_hash
