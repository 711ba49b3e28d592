"""Unit tests for error-scenario assembly."""

import pytest

from repro.common.format import SECONDS_PER_DAY
from repro.errors.cases import case_by_id
from repro.errors.scenario import prepare_scenario
from repro.exceptions import InjectionError
from repro.workload.tracegen import generate_trace
from repro.ttkv.store import DELETED


class TestPrepareScenario:
    def test_wrong_trace_rejected(self, chrome_trace):
        with pytest.raises(InjectionError, match="does not run"):
            prepare_scenario(chrome_trace, case_by_id(8))  # Evolution case

    def test_too_many_spurious_writes_rejected(self, chrome_trace):
        with pytest.raises(InjectionError, match="spurious"):
            prepare_scenario(chrome_trace, case_by_id(13), spurious_writes=3)

    def test_injection_time_position(self, chrome_trace):
        scenario = prepare_scenario(
            chrome_trace, case_by_id(13), days_before_end=7
        )
        expected = chrome_trace.end_time - 7 * SECONDS_PER_DAY
        assert scenario.injection_time == expected
        assert scenario.end_time == chrome_trace.end_time

    def test_erroneous_value_is_current(self, chrome_trace):
        scenario = prepare_scenario(chrome_trace, case_by_id(13))
        key = scenario.app.canonical_key("bookmark_bar/show_on_all_tabs")
        assert scenario.ttkv.current_value(key) is False

    def test_good_value_precedes_injection(self, chrome_trace):
        scenario = prepare_scenario(chrome_trace, case_by_id(13))
        key = scenario.app.canonical_key("bookmark_bar/show_on_all_tabs")
        before = scenario.ttkv.value_at(key, scenario.injection_time - 1)
        assert before is True

    def test_live_store_synced(self, chrome_trace):
        scenario = prepare_scenario(chrome_trace, case_by_id(13))
        assert scenario.app.value("bookmark_bar/show_on_all_tabs") is False

    def test_post_injection_writes_dropped_for_offending_keys(
        self, chrome_trace
    ):
        scenario = prepare_scenario(
            chrome_trace, case_by_id(13), days_before_end=14
        )
        key = scenario.app.canonical_key("bookmark_bar/show_on_all_tabs")
        post = [
            entry
            for entry in scenario.ttkv.history(key)
            if entry.timestamp > scenario.injection_time
        ]
        assert post == []

    def test_spurious_writes_recorded_after_injection(self, chrome_trace):
        scenario = prepare_scenario(
            chrome_trace, case_by_id(13), spurious_writes=2
        )
        url = scenario.app.canonical_key("homepage/url")
        post = [
            entry
            for entry in scenario.ttkv.history(url)
            if entry.timestamp > scenario.injection_time
        ]
        assert len(post) >= 2

    def test_word_deletion_injection(self):
        """Case 2's injection records deletions for every Item slot."""
        from repro.experiments.recovery import trace_for

        trace = trace_for("Windows 7")
        scenario = prepare_scenario(trace, case_by_id(2))
        item1 = scenario.app.canonical_key("RecentFiles/Item1")
        assert scenario.ttkv.current_value(item1) is DELETED

    def test_tuned_parameters_exposed(self, chrome_trace):
        default = prepare_scenario(chrome_trace, case_by_id(13))
        assert default.window == 1.0
        assert default.correlation_threshold == 2.0

    def test_base_trace_not_mutated(self, chrome_trace):
        before = len(chrome_trace.ttkv.write_events())
        prepare_scenario(chrome_trace, case_by_id(14))
        assert len(chrome_trace.ttkv.write_events()) == before

    def test_scenarios_on_one_trace_do_not_share_an_app(
        self, tiny_profile_factory
    ):
        """Preparing a second case on a trace leaves the first untouched."""
        trace = generate_trace(tiny_profile_factory("Evolution Mail", days=10))
        shared = trace.apps["Evolution Mail"]
        pristine = shared.store.as_dict()
        first = prepare_scenario(trace, case_by_id(8))
        first_config = first.app.store.as_dict()
        second = prepare_scenario(trace, case_by_id(9))
        assert first.app is not second.app
        assert first.app.schema is not second.app.schema
        assert first.app.store.as_dict() == first_config
        assert shared.store.as_dict() == pristine
        mark_seen = second.app.canonical_key("mail/mark_seen")
        assert second.app.value("mail/mark_seen") is False
        assert first.app.value("mail/mark_seen") == (
            first.ttkv.current_value(mark_seen)
            if mark_seen in first.ttkv
            else shared.value("mail/mark_seen")
        )
