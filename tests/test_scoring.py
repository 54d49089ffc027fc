"""Lexicon scorers, committee means, routing and the plugin protocol."""

import json
import sys
import textwrap

import numpy as np
import pytest

from helpers import FixedScorer
from ttalab.scoring import (
    BiasMonitor,
    CallLedger,
    LexiconScorer,
    PluginScorer,
    ScoringError,
    committee_score,
    is_safe,
    load_lexicon,
    normalize_words,
    report_score,
    route_types,
    save_lexicon,
    should_trigger,
)

# -- lexicons -------------------------------------------------------------


def test_normalize_strips_punctuation_and_case():
    assert normalize_words("They are Disgusting, and should be REMOVED!") == [
        "they", "are", "disgusting", "and", "should", "be", "removed"]


def test_lexicon_empty_match_scores_zero():
    sc = LexiconScorer("lex", {"vermin": 0.8})
    assert sc.score("a calm walk by the river") == 0.0


def test_lexicon_noisy_or():
    sc = LexiconScorer("lex", {"vermin": 0.5, "filthy": 0.4})
    assert sc.score("filthy vermin everywhere") == pytest.approx(1 - 0.5 * 0.6, abs=1e-12)
    # repeated occurrences of one term count once
    assert sc.score("vermin vermin vermin") == pytest.approx(0.5, abs=1e-12)


def test_lexicon_monotone_in_matched_terms():
    rng = np.random.default_rng(0)
    terms = {f"t{i}": float(w) for i, w in enumerate(rng.uniform(0, 1, size=8))}
    sc = LexiconScorer("lex", terms)
    words = list(terms)
    for k in range(len(words)):
        a = sc.score(" ".join(words[:k]))
        b = sc.score(" ".join(words[:k + 1]))
        assert b >= a - 1e-15


def test_lexicon_phrase_match():
    sc = LexiconScorer("lex", {"those people": 0.9})
    assert sc.score("i hate those people.") == pytest.approx(0.9)
    assert sc.score("those friendly people") == 0.0


def test_lexicon_rejects_bad_weight():
    with pytest.raises(ValueError):
        LexiconScorer("lex", {"x": 1.5})


def test_lexicon_file_roundtrip(tmp_path):
    path = tmp_path / "lex.tsv"
    save_lexicon(path, {"vermin": 0.8, "those people": 0.6})
    text = path.read_text()
    path.write_text("# comment line\n\n" + text)
    sc = load_lexicon(path)
    assert sc.score("those people are vermin") == pytest.approx(1 - 0.2 * 0.4)


def test_lexicon_file_bad_lines(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("vermin 0.8\n")  # no tab
    with pytest.raises(ValueError):
        load_lexicon(p)
    p.write_text("vermin\tnotanumber\n")
    with pytest.raises(ValueError):
        load_lexicon(p)


# -- committee ------------------------------------------------------------

ROUTER_ROWS = {
    "Black holes are fascinating objects in astrophysics.":
        ((0.0001, 0.0302, 0.5346), 0.1883, {"race": 0.1883, "sex": 0.0, "religion": 0.0, "other": 0.1883}, ()),
    "Asian students are good at math.":
        ((0.0014, 0.4274, 0.5608), 0.3299, {"race": 0.3299, "sex": 0.0, "religion": 0.0, "other": 0.3299}, ("race", "other")),
    "I hate those people. They are disgusting and should be removed.":
        ((0.9992, 0.9220, 0.9526), 0.9579, {"race": 0.9579, "sex": 0.9579, "religion": 0.9579, "other": 0.9579}, ("race", "sex", "religion", "other")),
    "The priest gave a sermon about compassion and forgiveness.":
        ((0.0000, 0.0243, 0.5397), 0.1880, {"race": 0.0, "sex": 0.0, "religion": 0.0, "other": 0.1880}, ()),
}


def router_committee():
    texts = list(ROUTER_ROWS)
    return [FixedScorer(f"raw{i}", {t: ROUTER_ROWS[t][0][i] for t in texts})
            for i in range(3)]


def test_committee_mean_matches_reference_rows():
    scorers = router_committee()
    for text, (raw, mean, _, _) in ROUTER_ROWS.items():
        assert committee_score(text, scorers) == pytest.approx(mean, abs=5e-5)


def test_committee_mean_zero_case_and_permutation():
    zeros = [FixedScorer(f"z{i}", default=0.0) for i in range(3)]
    assert committee_score("anything", zeros) == 0.0
    scorers = router_committee()
    text = "Asian students are good at math."
    assert committee_score(text, scorers) == committee_score(text, scorers[::-1])


def test_committee_clamps_wild_outputs():
    wild = [FixedScorer("hi", default=3.0), FixedScorer("lo", default=-1.0)]
    assert committee_score("x", wild) == pytest.approx(0.5)


def test_committee_requires_scorers():
    with pytest.raises(ValueError):
        committee_score("x", [])


def test_committee_counts_scorers_sharing_an_id():
    # lexicon files with the same stem in two directories share an id
    same = [LexiconScorer("neg", {"vile": 1.0}), LexiconScorer("neg", {"calm": 1.0})]
    assert committee_score("vile", same) == 0.5
    assert committee_score("vile", same[::-1]) == 0.5


def test_is_safe_boundary_and_reference_values():
    assert is_safe(0.1883, 0.3)
    assert is_safe(0.3, 0.3)  # boundary is safe
    assert not is_safe(0.3299, 0.3)
    with pytest.raises(ValueError):
        is_safe(1.2, 0.3)


def test_trigger_is_strict():
    assert not should_trigger(0.3, 0.3)
    assert should_trigger(0.3 + 1e-12, 0.3)


# -- routing ----------------------------------------------------------------


def test_route_types_strict_threshold_and_tie_break():
    r = route_types({"race": 0.4, "sex": 0.4, "religion": 0.4, "other": 0.4}, 0.3)
    assert r.dominant == "race"
    assert r.triggered == ("race", "sex", "religion", "other")
    r2 = route_types({"race": 0.3, "sex": 0.1, "religion": 0.0, "other": 0.2}, 0.3)
    assert r2.triggered == ()  # 0.3 is not strictly above
    assert r2.dominant == "race"


def test_route_types_missing_type_errors():
    with pytest.raises(ValueError):
        route_types({"race": 0.5}, 0.3)


def test_masked_router_reproduces_reference_table():
    cues = {
        "race": LexiconScorer("cues-race", {"black": 1.0, "asian": 1.0, "those people": 1.0}),
        "sex": LexiconScorer("cues-sex", {"those people": 1.0}),
        "religion": LexiconScorer("cues-religion", {"those people": 1.0}),
    }
    mon = BiasMonitor(router_committee(), cues)
    for text, (_, mean_ref, type_refs, triggered_ref) in ROUTER_ROWS.items():
        # at epsilon 0 every type with a non-zero score is routed, and a
        # routed type carries the committee mean
        rep = mon.evaluate(text, 0.0)
        assert rep.committee_mean == pytest.approx(mean_ref, abs=5e-5)
        for t, ref in type_refs.items():
            routed = rep.committee_mean if t in rep.triggered_types else 0.0
            assert routed == pytest.approx(ref, abs=5e-5), (text, t)
        assert mon.evaluate(text, 0.3).triggered_types == triggered_ref


def test_report_and_trigger_paths_are_instrumented_separately():
    ledger = CallLedger()
    trig = [FixedScorer("t1", default=0.5), FixedScorer("t2", default=0.7)]
    rep = [FixedScorer("r1", default=0.2)]
    committee_score("text", trig, ledger)
    report_score("text", rep, ledger)
    assert ledger.count("trigger") == 2
    assert ledger.count("report") == 1
    assert ledger.count() == 3


def test_monitor_evaluate_bundles_everything():
    ledger = CallLedger()
    trig = [FixedScorer("t1", default=0.62)]
    mon = BiasMonitor(trig, {
        "race": LexiconScorer("cue-race", {"blorix": 1.0}),
        "sex": LexiconScorer("cue-sex", {"shrells": 1.0}),
        "religion": LexiconScorer("cue-religion", {"zelnak": 1.0}),
    }, ledger=ledger)
    rep = mon.evaluate("the shrells are here", 0.3)
    assert rep.trigger and rep.committee_mean == pytest.approx(0.62)
    assert rep.dominant == "sex" and rep.triggered_types == ("sex", "other")
    assert ledger.count("trigger") == 1 and ledger.count("routing") == 3
    assert ledger.count("report") == 0
    # the same text at a threshold above the mean neither fires nor routes
    rep = mon.evaluate("the shrells are here", 0.7)
    assert not rep.trigger and rep.triggered_types == ()
    assert rep.dominant == "sex"


@pytest.mark.parametrize("cue_type", ["other", "gender"])
def test_monitor_rejects_cue_for_uncued_type(cue_type):
    with pytest.raises(ValueError, match=cue_type):
        BiasMonitor([FixedScorer("t1")], {cue_type: LexiconScorer("cue", {"x": 1.0})})


# -- plugin protocol -----------------------------------------------------------

ECHO_PLUGIN = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"id": req["id"], "scores": {"tox": 0.7, "bias": 0.2}}), flush=True)
""")

SLOW_PLUGIN = textwrap.dedent("""
    import sys, time
    sys.stdin.readline()
    time.sleep(30)
""")

SLOW_ONCE_PLUGIN = textwrap.dedent("""
    import json, sys, time
    for n, line in enumerate(sys.stdin):
        req = json.loads(line)
        if n == 0:
            time.sleep(1.0)
        print(json.dumps({"id": req["id"], "scores": {"tox": 0.4}}), flush=True)
""")

WRONG_ID_PLUGIN = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"id": req["id"] + 1, "scores": {"tox": 0.5}}), flush=True)
""")


DIE_ON_REQUEST_PLUGIN = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["text"] == "die":
            sys.exit(1)
        print(json.dumps({"id": req["id"], "scores": {"tox": 0.3}}), flush=True)
""")


def plugin(tmp_path, code, **kw):
    script = tmp_path / "plugin.py"
    script.write_text(code)
    return PluginScorer("plug", [sys.executable, str(script)], **kw)


def test_plugin_roundtrip_and_field_selection(tmp_path):
    with plugin(tmp_path, ECHO_PLUGIN, field="tox") as sc:
        assert sc.score("hello") == pytest.approx(0.7)
        assert sc.score("again") == pytest.approx(0.7)  # id sequencing holds


def test_plugin_multiple_scores_need_field(tmp_path):
    with plugin(tmp_path, ECHO_PLUGIN) as sc:
        with pytest.raises(ScoringError):
            sc.score("hello")


def test_plugin_timeout_carries_scorer_id(tmp_path):
    with plugin(tmp_path, SLOW_PLUGIN, timeout=0.3) as sc:
        with pytest.raises(ScoringError) as err:
            sc.score("hello")
        assert err.value.scorer_id == "plug"


def test_plugin_id_echo_enforced(tmp_path):
    with plugin(tmp_path, WRONG_ID_PLUGIN, field="tox") as sc:
        with pytest.raises(ScoringError):
            sc.score("hello")


def test_plugin_recovers_after_timeout(tmp_path):
    with plugin(tmp_path, SLOW_ONCE_PLUGIN, field="tox", timeout=0.3) as sc:
        with pytest.raises(ScoringError):
            sc.score("slow")
        # the late reply to the first request must be skipped, not read as
        # the answer to the next one
        sc.timeout = 10.0
        assert sc.score("fast") == pytest.approx(0.4)
        assert sc.score("again") == pytest.approx(0.4)


def test_plugin_restarts_after_it_died(tmp_path):
    # the dead process's pipes are closed on restart: pytest turns an
    # unclosed file into an error
    with plugin(tmp_path, DIE_ON_REQUEST_PLUGIN, field="tox", timeout=0.5) as sc:
        assert sc.score("first") == pytest.approx(0.3)
        with pytest.raises(ScoringError):
            sc.score("die")
        assert sc.score("after") == pytest.approx(0.3)
