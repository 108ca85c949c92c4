from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import qer.corpus
from qer.corpus import Query, ingest, normalize_name
from qer.expansion import ExpansionParams
from qer.rcer import ClusterState, resolve
from qer.similarity import (
    CorpusStats,
    SimilarityConfig,
    SimilarityContext,
    delta_similar_names,
    greedy_matching,
    jaccard,
    jaro_winkler,
    levenshtein,
    load_config,
    numeric_sim,
    representative,
    soft_tfidf,
)

from conftest import CORPUS_RECORDS

names = st.text(alphabet="abcdefgh .", min_size=0, max_size=12)
norm_names = names.map(normalize_name)


def test_levenshtein_basics():
    assert levenshtein("wang", "wang") == 0
    assert levenshtein("wang", "wong") == 1
    assert levenshtein("chen", "cheng") == 1
    assert levenshtein("", "abc") == 3


def test_jaro_winkler_known_value():
    # classic fixture: jaro("martha","marhta") = 0.9444..., 3-char prefix
    assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611, abs=1e-4)
    assert jaro_winkler("wang", "wang") == 1.0
    assert jaro_winkler("wang", "li") == 0.0


@given(norm_names, norm_names)
def test_jaro_winkler_symmetric_bounded(a, b):
    s = jaro_winkler(a, b)
    assert 0.0 <= s <= 1.0
    assert s == pytest.approx(jaro_winkler(b, a), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        SimilarityConfig(alpha=1.5, epsilon=0.9, delta=0.9, merge_threshold=0.5)
    with pytest.raises(ValueError, match="weights sum"):
        SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9, merge_threshold=0.5,
                         attr_weights={"name": 0.5})
    cfg = SimilarityConfig(alpha=0.0, epsilon=1.0, delta=0.0, merge_threshold=1.0)
    assert cfg.attr_weights == {"name": 1.0}


def test_load_config(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "# clustering parameters\n"
        "alpha = 0.5\n"
        "epsilon = 0.98\n"
        "delta = 0.9\n"
        "merge_threshold = 0.45\n"
        "attr_weights = name:0.8, title:0.2\n"
        "multiset_neighborhood = true\n"
    )
    cfg = load_config(path)
    assert cfg.alpha == 0.5
    assert cfg.attr_weights == {"name": 0.8, "title": 0.2}
    assert cfg.multiset_neighborhood

    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = 0.5\n")
    with pytest.raises(ValueError, match="missing config keys"):
        load_config(bad)


@pytest.mark.parametrize("weights, attr", [
    ("name:nan", "name"), ("name:0.5, title:nan", "title")])
def test_load_config_refuses_a_non_finite_weight(tmp_path, weights, attr):
    # a NaN weight made every score NaN, and a NaN score never falls
    # below the merge threshold
    path = tmp_path / "sim.cfg"
    path.write_text("alpha = 0.5\nepsilon = 0.98\ndelta = 0.9\n"
                    f"merge_threshold = 0.45\nattr_weights = {weights}\n")
    with pytest.raises(ValueError, match=f"attribute weight '{attr}'"):
        load_config(path)


@pytest.mark.parametrize("weights, match", [
    ("name", "entry 'name' is not attr:weight"),
    ("name:x", "entry 'name:x' is not attr:weight"),
    ("name:0.5, :0.5", "entry ':0.5' is not attr:weight"),
    ("name:0.5, title:0.2:0.3", "entry 'title:0.2:0.3' is not attr:weight"),
    ("name:0.0, name:1.0", "attribute 'name' is given twice"),
])
def test_load_config_names_a_bad_attr_weights_entry(tmp_path, weights, match):
    path = tmp_path / "sim.cfg"
    path.write_text("alpha = 0.5\nepsilon = 0.98\ndelta = 0.9\n"
                    f"merge_threshold = 0.45\nattr_weights = {weights}\n")
    with pytest.raises(ValueError, match=f"'attr_weights': {match}"):
        load_config(path)


@pytest.mark.parametrize("line, key", [
    ("multiset_neighbourhood = true", "multiset_neighbourhood"),
    ("merge_treshold = 0.9", "merge_treshold"),
    ("multiset_neighborhood = yes please", "multiset_neighborhood"),
])
def test_load_config_rejects_what_it_does_not_read(tmp_path, line, key):
    path = tmp_path / "sim.cfg"
    path.write_text("alpha = 0.5\nepsilon = 0.98\ndelta = 0.9\n"
                    "merge_threshold = 0.45\nattr_weights = name:1.0\n"
                    + line + "\n")
    with pytest.raises(ValueError, match=key):
        load_config(path)


@pytest.fixture
def ctx(corpus_ds, text_cfg):
    return SimilarityContext(corpus_ds, text_cfg)


def test_name_sim_fixtures(ctx):
    assert ctx.name_sim(normalize_name("W. Wang"),
                        normalize_name("W Wang")) == 1.0
    # one shared exact token plus one 0.9+ fuzzy match
    assert ctx.name_sim("w wang", "w w wang") == pytest.approx(0.949, abs=2e-3)
    assert ctx.name_sim("w wang", "l li") == 0.0
    assert ctx.name_sim("a ansari", "a ansari") == 1.0


def test_name_sim_orders_competitors(ctx):
    close = ctx.name_sim("w wang", "w w wang")
    far = ctx.name_sim("w wang", "c chen")
    assert 0.0 <= far < close < 1.0


@given(norm_names, norm_names)
@settings(max_examples=50)
def test_soft_tfidf_symmetric_bounded(a, b):
    ds = ingest(CORPUS_RECORDS)
    stats = CorpusStats(ds)
    s1 = soft_tfidf(a.split(), b.split(), stats)
    s2 = soft_tfidf(b.split(), a.split(), stats)
    assert 0.0 <= s1 <= 1.0
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_identical_token_multisets_score_one():
    ds = ingest(CORPUS_RECORDS)
    stats = CorpusStats(ds)
    assert soft_tfidf(["w", "wang"], ["w", "wang"], stats) == pytest.approx(1.0)


def test_corpus_stats_built_once_per_dataset(monkeypatch, text_cfg,
                                            numeric_cfg):
    assert CorpusStats is qer.corpus.CorpusStats  # re-exported
    built = []
    monkeypatch.setattr(qer.corpus, "CorpusStats",
                        lambda ds: built.append(ds) or CorpusStats(ds))
    ds = ingest(CORPUS_RECORDS)
    contexts = [SimilarityContext(ds, text_cfg) for _ in range(2)]
    params = ExpansionParams(d_star=3, delta=text_cfg.delta)
    for name in ("W. Wang", "C. Chen", "A. Ansari", "W. Wang"):
        assert resolve(ds, Query(name), params, text_cfg).groups()
    assert built == [ds]
    assert contexts[0].stats is contexts[1].stats is ds.corpus_stats
    fresh = CorpusStats(ds)
    assert ds.corpus_stats.n_docs == fresh.n_docs == 10
    assert ds.corpus_stats.df == fresh.df

    num = ingest([{"pub_id": "p", "authors": ["1.0", "1.5", "4.0"]}],
                 name_mode="numeric")
    assert SimilarityContext(num, numeric_cfg).stats is None
    assert resolve(num, Query("1.0"), params, numeric_cfg).groups()
    assert built == [ds]
    assert "corpus_stats" not in num.__dict__


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.9, 1.0]),
                          st.integers(0, 3), st.integers(0, 3))))
def test_greedy_matching_is_one_to_one_and_greedy(scored):
    matches = list(greedy_matching(scored))
    assert len({x for _, x, _ in matches}) == len(matches)
    assert len({y for _, _, y in matches}) == len(matches)
    assert matches == sorted(matches, key=lambda c: (-c[0], c[1], c[2]))
    # every candidate left out shares an end with a match taken before it
    for c in set(scored) - set(matches):
        assert any((m[1] == c[1] or m[2] == c[2])
                   and (-m[0], m[1], m[2]) <= (-c[0], c[1], c[2])
                   for m in matches)


def test_numeric_sim():
    assert numeric_sim(3.0, 3.0) == 1.0
    assert numeric_sim(0.0, 6.0) == 0.0
    assert numeric_sim(0.0, 3.0) == 0.5
    assert numeric_sim(0.0, 100.0) == 0.0


def test_delta_rule_text():
    assert delta_similar_names("w wang", "w w wang")
    assert delta_similar_names("w wang", "w wong")
    assert not delta_similar_names("w wang", "l li")       # initials differ
    assert not delta_similar_names("w wang", "w chang")    # first char differs
    assert not delta_similar_names("w wang", "w wangstro")  # >2 edits


def test_delta_rule_numeric():
    assert delta_similar_names("1.0", "2.0", numeric=True, delta=0.7)
    assert not delta_similar_names("1.0", "4.0", numeric=True, delta=0.7)


def test_epsilon_similar(ctx):
    assert ctx.epsilon_similar("r1", "r4")       # identical names
    assert not ctx.epsilon_similar("r1", "r9")   # 0.949 < 0.98
    assert not ctx.epsilon_similar("r1", "r6")


def _cluster_state(ds, labels, cfg):
    """A ClusterState with one cluster per label; returns it and the
    cluster id of each label."""
    groups = {}
    for rid, lab in sorted(labels.items()):
        groups.setdefault(lab, []).append(rid)
    order = sorted(groups)
    state = ClusterState(ds, SimilarityContext(ds, cfg),
                         [groups[lab] for lab in order])
    return state, {lab: cid for cid, lab in enumerate(order)}


def test_representative(corpus_ds, text_cfg):
    assert representative(["w wang", "w wang", "w w wang"]) == "w wang"
    assert representative(["b", "a"]) == "a"                 # tie: lexicographic
    assert representative(["10.0", "9.0"], numeric=True) == "9.0"
    # the merge loop's clusters take their name representative from it
    state, cid = _cluster_state(
        corpus_ds, {"r1": 0, "r4": 0, "r9": 0, "r2": 1, "r3": 1}, text_cfg)
    assert state.reps[cid[0]] == {"name": "w wang"}
    assert state.reps[cid[1]] == {"name": "a ansari"}        # tie: lexicographic
    nds = ingest([{"pub_id": "p", "authors": [
        {"id": "a", "name": "10.0"}, {"id": "b", "name": "9.0"}]}],
        name_mode="numeric")
    state, _ = _cluster_state(nds, {"a": 0, "b": 0}, text_cfg)
    assert state.reps[0] == {"name": "9.0"}                  # tie: numeric


def test_neighborhood_excludes_own_label(corpus_ds, text_cfg):
    # cluster {r1, r4, r9} labeled 0; co-occurring Ansari refs labeled 1,
    # Chen ref labeled 2
    labels = {"r1": 0, "r4": 0, "r9": 0, "r3": 1, "r5": 1, "r10": 1, "r2": 2}
    state, _ = _cluster_state(corpus_ds, labels, text_cfg)
    assert state.nbr[0] == Counter({1: 3, 2: 1})
    assert set(state.nbr[0]) == {1, 2}
    assert state.nbr[1] == Counter({0: 3, 2: 1})
    # set semantics: {1, 2} vs {0, 2}; multiset: 1 shared of 3 + 1 + 3
    assert state.rel_sim(0, 1) == pytest.approx(1 / 3)
    multi, _ = _cluster_state(
        corpus_ds, labels, replace(text_cfg, multiset_neighborhood=True))
    assert multi.rel_sim(0, 1) == pytest.approx(1 / 7)


def test_jaccard_conventions():
    assert jaccard(set(), set()) == 0.0
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
    assert jaccard(Counter(a=2), Counter(a=1, b=1)) == pytest.approx(1 / 3)


labels = st.lists(st.sampled_from("abcdef"), max_size=12)


@given(labels, labels)
def test_jaccard_equals_union_formula(x, y):
    """``jaccard`` counts the union as |a| + |b| - |a & b|; it gives the
    same float as dividing by the union built outright."""
    a, b = set(x), set(y)
    union = len(a | b)
    assert jaccard(a, b) == (len(a & b) / union if union else 0.0)
    assert jaccard(Counter(a).keys(), Counter(b).keys()) == jaccard(a, b)
    ca, cb = Counter(x), Counter(y)
    union = sum((ca | cb).values())
    assert jaccard(ca, cb) == (sum((ca & cb).values()) / union
                               if union else 0.0)


def test_relational_sim_running_example(corpus_ds, text_cfg):
    # after the two Chens merge, the Wang cluster and r8 share one of the
    # three neighbor labels: Wang-cluster nbrs {1, 2}, r8 nbrs {2, 4}
    labels = {"r1": 0, "r4": 0, "r9": 0, "r8": 3,
              "r3": 1, "r5": 1, "r10": 1, "r2": 2, "r7": 2, "r6": 4}
    state, _ = _cluster_state(corpus_ds, labels, text_cfg)
    assert state.rel_sim(0, 3) == pytest.approx(1 / 3)
    # the same state reached by merges from singletons
    state, cid = _cluster_state(corpus_ds, {r: r for r in labels}, text_cfg)
    wang = state.merge(state.merge(cid["r1"], cid["r4"]), cid["r9"])
    state.merge(state.merge(cid["r3"], cid["r5"]), cid["r10"])
    state.merge(cid["r2"], cid["r7"])
    assert state.rel_sim(wang, cid["r8"]) == pytest.approx(1 / 3)


def _pair_records(pairs, name=lambda lab: f"N{lab}"):
    """One two-author record per (label, label) pair, plus the labeling of
    the references it creates."""
    records, labels = [], {}
    for i, pair in enumerate(pairs):
        authors = []
        for j, lab in enumerate(pair):
            labels[f"p{i}:{j}"] = lab
            authors.append({"id": f"p{i}:{j}", "name": name(lab)})
        records.append({"pub_id": f"p{i}", "authors": authors})
    return ingest(records), labels


@given(st.floats(0, 1), st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_combine_monotone(alpha, pairs):
    """The merge loop's score is (1 - alpha) * attribute + alpha *
    relational, so between cluster pairs with equal attribute parts it
    never falls as the relational part rises."""
    # even and odd labels share a name, so attribute parts are 0 or 1
    ds, labels = _pair_records(pairs, name=lambda lab: f"N{lab % 2}")
    cfg = SimilarityConfig(alpha=alpha, epsilon=0.9, delta=0.9,
                           merge_threshold=0.0)
    state, _ = _cluster_state(ds, labels, cfg)
    scored = []
    for a, b in combinations(sorted(state.members), 2):
        attr = state.ctx.attribute_sim(state.reps[a], state.reps[b])
        rel = state.rel_sim(a, b)
        sim = state.combined(a, b)
        assert sim == pytest.approx((1 - alpha) * attr + alpha * rel)
        scored.append((attr, rel, sim))
    for (a1, r1, s1), (a2, r2, s2) in combinations(scored, 2):
        if a1 == a2:
            lo, hi = sorted(((r1, s1), (r2, s2)))
            assert hi[1] >= lo[1] - 1e-12


@given(st.data())
@settings(max_examples=40)
def test_merging_common_neighbors_never_decreases_relational_sim(data):
    """On a random co-occurrence graph, merging a neighbor of c1 only with a
    neighbor of c2 only gives the two clusters one more common neighbor and
    one fewer distinct one, so set-semantics relational similarity strictly
    rises.  (Merging two neighbors of both can lower it; see
    test_merging_two_shared_neighbors_can_decrease_relational_sim.)"""
    c1, c2, m1, m2 = 0, 1, 2, 3
    n_labels = data.draw(st.integers(4, 6))
    drawn = data.draw(st.lists(
        st.tuples(st.integers(0, n_labels - 1), st.integers(0, n_labels - 1)),
        max_size=10))
    # the premise holds by construction: m1 neighbors c1 and m2 neighbors
    # c2, and no record joins c1 with m2 or c2 with m1
    forbidden = {frozenset((c1, m2)), frozenset((c2, m1))}
    pairs = [(c1, m1), (c2, m2)] + [
        p for p in drawn if frozenset(p) not in forbidden]
    ds, labels = _pair_records(pairs)
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.0)
    state, cid = _cluster_state(ds, labels, cfg)
    n1, n2 = set(state.nbr[cid[c1]]), set(state.nbr[cid[c2]])
    assert cid[m1] in n1 - n2 and cid[m2] in n2 - n1
    before = state.rel_sim(cid[c1], cid[c2])
    state.merge(cid[m1], cid[m2])
    assert state.rel_sim(cid[c1], cid[c2]) > before


def test_merging_two_shared_neighbors_can_decrease_relational_sim():
    # c1 neighbors {m1, m2, k}, c2 neighbors {m1, m2, j}
    c1, c2, m1, m2, k, j = range(6)
    ds, labels = _pair_records([(c1, m1), (c1, m2), (c1, k),
                                (c2, m1), (c2, m2), (c2, j)])
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.0)

    def sim_after_merging(x, y):
        state, _ = _cluster_state(ds, labels, cfg)  # cluster id == label
        assert state.rel_sim(c1, c2) == 0.5
        state.merge(x, y)
        return state.rel_sim(c1, c2)

    # merging two shared neighbors drops one label from both the
    # intersection and the union: (I - 1) / (U - 1) <= I / U
    assert sim_after_merging(m1, m2) == 1 / 3
    # merging a c1-only with a c2-only neighbor adds a shared one
    assert sim_after_merging(k, j) == 1.0


TITLED = [
    {"pub_id": "p1", "title": "Entity Resolution at Query Time",
     "authors": [{"id": "a", "name": "W. Wang"}]},
    {"pub_id": "p2", "title": "entity  resolution AT query time",
     "authors": [{"id": "c", "name": "W. W. Wang"}]},
    {"pub_id": "p3", "title": "Graph Mining",
     "authors": [{"id": "d", "name": "W. Wang"}]},
    {"pub_id": "p4", "title": "Query Graphs",
     "authors": [{"id": "g", "name": "C. Chen"}]},
    {"pub_id": "p5", "authors": [{"id": "e", "name": "W. Wang"}]},
]
TITLE_WEIGHTS = {"name": 0.7, "title": 0.3}


def _titled_ctx(numeric=False):
    records = TITLED
    if numeric:  # the same records, every name a number
        records = [{**rec, "authors": [{**a, "name": "1.5"}
                                       for a in rec["authors"]]}
                   for rec in TITLED]
    ds = ingest(records, name_mode="numeric" if numeric else "text")
    cfg = SimilarityConfig(alpha=0.5, epsilon=0.9, delta=0.9,
                           merge_threshold=0.5, attr_weights=TITLE_WEIGHTS)
    return ds, SimilarityContext(ds, cfg)


def _title_part(ds, ctx, r1, r2):
    """The title's share of the two references' attribute similarity."""
    name = ctx.name_sim(ds.references[r1].norm_name,
                        ds.references[r2].norm_name)
    return ctx.ref_attribute_sim(r1, r2) - TITLE_WEIGHTS["name"] * name


def test_extra_attribute_is_symmetric_and_bounded():
    for numeric in (False, True):
        ds, ctx = _titled_ctx(numeric)
        for r1, r2 in combinations(sorted(ds.references), 2):
            s = ctx.ref_attribute_sim(r1, r2)
            assert s == ctx.ref_attribute_sim(r2, r1)
            assert 0.0 <= s <= 1.0


def test_extra_attribute_weighs_equal_missing_and_disjoint_titles():
    ds, ctx = _titled_ctx()
    # equal as normalized token sequences: the full weight
    assert _title_part(ds, ctx, "a", "c") == pytest.approx(0.3)
    # a missing title, or titles without a shared token, add nothing
    assert _title_part(ds, ctx, "a", "e") == pytest.approx(0.0)
    assert _title_part(ds, ctx, "a", "d") == pytest.approx(0.0)
    # one shared token of several: some, not all, of the weight
    assert 0.0 < _title_part(ds, ctx, "a", "g") < 0.3
    assert ctx.attribute_sim({"name": "w wang", "title": "Graph Mining"},
                             {"name": "w wang", "title": None}) \
        == pytest.approx(0.7)


def test_extra_attribute_on_numeric_dataset_scores_equal_tokens_only():
    ds, ctx = _titled_ctx(numeric=True)
    assert _title_part(ds, ctx, "a", "c") == pytest.approx(0.3)
    for other in ("d", "e", "g"):  # disjoint, missing, one shared token
        assert _title_part(ds, ctx, "a", other) == pytest.approx(0.0)
