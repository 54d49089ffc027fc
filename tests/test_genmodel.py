"""Generator core: vocabulary, features, sampling, gradients, checkpoints."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ZeroFeatureMap,
    reference_adapter_gradient,
    reference_logits,
    reference_nucleus_pick,
    reference_sample_segment,
    reference_sequence_log_prob,
)
from ttalab.artifacts import digest_obj, encode_array, write_json
from ttalab.genmodel import (
    AdapterParams,
    GenerationSettings,
    NgramOneHot,
    ToyLM,
    Vocabulary,
    init_adapter,
    nucleus_pick,
    softmax,
)


def small_model(seed=0, vocab_size=5, rank=3, alpha=6.0, w_scale=0.5):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - 1)])
    assert len(vocab) == vocab_size  # <unk> appended
    fmap = NgramOneHot(len(vocab), order=2)
    w = rng.normal(0.0, w_scale, size=(len(vocab), fmap.dimension))
    adapter = init_adapter(rng, len(vocab), fmap.dimension, rank=rank, alpha=alpha)
    # move off the zero point so both blocks carry signal in gradient tests
    adapter = AdapterParams(adapter.a, rng.normal(0.0, 0.3, size=adapter.b.shape), alpha)
    return ToyLM(vocab, w, adapter, fmap)


# -- vocabulary and features -------------------------------------------------


def test_vocab_encode_decode_roundtrip():
    v = Vocabulary(["the", "river", "sang"])
    ids = v.encode("the river sang")
    assert v.decode(ids) == "the river sang"


def test_vocab_oov_and_casefold():
    v = Vocabulary(["the", "river"])
    assert v.encode("THE unknownword") == [v.index["the"], v.oov_id]


def test_vocab_decode_rejects_bad_id():
    v = Vocabulary(["a"])
    with pytest.raises(ValueError):
        v.decode([99])


def test_feature_map_blocks():
    f = NgramOneHot(4, order=2)
    assert f.dimension == 8
    assert f.active_indices([]) == []
    assert f.active_indices([2]) == [2]          # last token, block 0
    assert f.active_indices([1, 3]) == [3, 4 + 1]  # last then second-last
    vec = f.rows([([1, 3], 2)])[0]
    assert vec.sum() == 2.0 and vec[3] == 1.0 and vec[5] == 1.0


def test_feature_map_same_history_same_vector():
    f = NgramOneHot(6, order=2)
    h = [5, 1, 4]
    assert np.array_equal(f.rows([(h, 3)]), f.rows([(list(h), 3)]))


@st.composite
def row_spans(draw):
    order = draw(st.integers(1, 3))
    vocab_size = draw(st.integers(1, 5))
    tokens = st.lists(st.integers(0, vocab_size - 1), max_size=6)
    spans = [(t, draw(st.integers(0, len(t)))) for t in draw(st.lists(tokens, max_size=4))]
    return order, vocab_size, spans


@settings(max_examples=200, deadline=None)
@given(row_spans())
def test_rows_stack_prefix_active_indices(case):
    order, vocab_size, spans = case
    f = NgramOneHot(vocab_size, order=order)
    want = []
    for tokens, start in spans:
        for i in range(start, len(tokens) + 1):
            row = np.zeros(f.dimension)
            row[f.active_indices(tokens[:i])] = 1.0
            want.append(row)
    assert np.array_equal(f.rows(spans), np.array(want).reshape(-1, f.dimension))


@pytest.mark.parametrize("bad", [-1, 5])
def test_out_of_vocabulary_ids_rejected(bad):
    # an id >= V would land in the next feature block and a negative one wrap
    # to the last column, so every reader of token ids refuses both
    m = small_model()  # V = 5, order 2
    with pytest.raises(ValueError, match="outside 0..4"):
        m.fmap.rows([([1, bad], 2)])
    with pytest.raises(ValueError, match="outside 0..4"):
        m.sequence_log_prob([3], history=[bad, 1])
    with pytest.raises(ValueError, match="outside 0..4"):
        m.sequence_log_prob([1, bad])
    with pytest.raises(ValueError, match="outside 0..4"):
        m.sample_segment([bad, 1], GenerationSettings(temperature=0.9, top_p=0.9,
                                            tokens_per_segment=1),
                         np.random.default_rng(0))


# -- logits and log-probs ------------------------------------------------------


def test_zero_adapter_logits_match_base_table():
    m = small_model()
    m.set_adapter_flat(np.concatenate([m.adapter.a.ravel(), np.zeros(m.adapter.b.size)]))
    h = [1, 2]
    expected = m.w_base @ m.fmap.rows([(h, 2)])[0]
    np.testing.assert_allclose(reference_logits(m, h), expected, atol=1e-12)


def test_adapter_shifts_logits_by_low_rank_term():
    m = small_model(seed=3)
    h = [0, 4]
    f = m.fmap.rows([(h, 2)])[0]
    expected = (m.w_base + m.adapter.scale * (m.adapter.b @ m.adapter.a)) @ f
    np.testing.assert_allclose(reference_logits(m, h), expected, atol=1e-12)


def test_uniform_when_weights_zero():
    v = Vocabulary(["a", "b", "c"])  # size 4 with <unk>
    fmap = NgramOneHot(len(v))
    adapter = AdapterParams(np.zeros((2, fmap.dimension)), np.zeros((len(v), 2)), alpha=2.0)
    m = ToyLM(v, np.zeros((len(v), fmap.dimension)), adapter, fmap)
    np.testing.assert_allclose(softmax(reference_logits(m, [1])), 0.25 * np.ones(4), atol=1e-12)
    assert m.sequence_log_prob([0, 3, 2]) == pytest.approx(3 * math.log(0.25), abs=1e-12)


def test_hand_logit_column():
    # single-token history activates exactly one base column
    v = Vocabulary(["a", "b"])  # size 3
    fmap = NgramOneHot(3)
    w = np.zeros((3, 6))
    w[:, 1] = [1.0, 0.0, -1.0]
    adapter = AdapterParams(np.zeros((1, 6)), np.zeros((3, 1)), alpha=1.0)
    m = ToyLM(v, w, adapter, fmap)
    z = math.e + 1.0 + math.exp(-1.0)
    assert m.sequence_log_prob([0], history=[1]) == pytest.approx(1.0 - math.log(z), abs=1e-12)


def test_sequence_log_prob_empty_target_errors():
    with pytest.raises(ValueError):
        small_model().sequence_log_prob([])


# -- sampling ------------------------------------------------------------------


def test_sampling_deterministic_given_seed():
    m = small_model(seed=7)
    s = GenerationSettings(temperature=0.9, top_p=0.9, tokens_per_segment=40)
    a = m.sample_segment([0], s, np.random.default_rng(123))
    b = m.sample_segment([0], s, np.random.default_rng(123))
    c = m.sample_segment([0], s, np.random.default_rng(124))
    assert a == b
    assert a != c


def test_tiny_temperature_is_greedy():
    m = small_model(seed=11)
    s = GenerationSettings(temperature=1e-9, top_p=1.0, tokens_per_segment=12)
    seg = m.sample_segment([2], s, np.random.default_rng(0))
    ctx = [2]
    for y in seg:
        assert y == int(np.argmax(reference_logits(m, ctx)))
        ctx.append(y)


def test_top_p_keeps_smallest_prefix():
    # next-token distribution (0.6, 0.3, 0.1); top_p = 0.5 keeps only the head
    v = Vocabulary(["a", "b"])
    fmap = NgramOneHot(3)
    w = np.zeros((3, 6))
    w[:, 0] = np.log([0.6, 0.3, 0.1])
    m = ToyLM(v, w, AdapterParams(np.zeros((1, 6)), np.zeros((3, 1)), alpha=1.0), fmap)
    s = GenerationSettings(temperature=1.0, top_p=0.5, tokens_per_segment=1)
    draws = {m.sample_segment([0], s, np.random.default_rng(i))[0] for i in range(50)}
    assert draws == {0}
    # top_p = 0.85 needs the first two tokens to reach the mass
    s2 = GenerationSettings(temperature=1.0, top_p=0.85, tokens_per_segment=1)
    draws2 = {m.sample_segment([0], s2, np.random.default_rng(i))[0] for i in range(300)}
    assert draws2 == {0, 1}


@st.composite
def nucleus_cases(draw):
    """A float64 distribution with ties and exact zeros, a top_p and a seed."""
    weights = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                                      st.floats(0.0, 1.0)), min_size=1, max_size=12))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    w = np.array(weights)
    probs = w / w.sum() if draw(st.booleans()) else w  # the draw renormalises
    top_p = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
    return probs, top_p, draw(st.integers(0, 2 ** 32 - 1))


def assert_same_draw(probs, top_p, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert nucleus_pick(probs, top_p, rng) == reference_nucleus_pick(probs, top_p, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # one uniform each


@settings(max_examples=400, deadline=None)
@given(nucleus_cases())
def test_nucleus_pick_matches_choice(case):
    assert_same_draw(*case)


@pytest.mark.parametrize("probs", [
    [0.4035760681074393, 0.06121156431979067, 0.402805720374044, 0.13240664719872622],
    [0.1892062428088396, 0.3699426254135193, 0.18289202420717798, 0.24564153023854884,
     0.012317577331914128],
    [0.1] * 10,
], ids=["cumsum-above-1", "cumsum-below-1", "ties-below-1"])
@pytest.mark.parametrize("top_p", [1.0, 0.9, 0.3])
def test_nucleus_pick_matches_choice_at_rounding_edges(probs, top_p):
    # at top_p = 1 a cumsum that rounds past 1 cuts the tail, one below keeps it
    probs = np.array(probs)
    for seed in range(50):
        assert_same_draw(probs, top_p, seed)


def outcome(pick, probs, top_p, seed):
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            return pick(probs, top_p, rng), rng.bit_generator.state
    except ValueError:
        return ValueError, rng.bit_generator.state


@pytest.mark.parametrize("probs, refused", [
    ([np.nan] * 3, True),          # the softmax of a NaN logit
    ([0.3, np.nan, 0.3], True),    # the prefix reaches the NaN
    ([0.5, np.nan, 0.5], False),   # the prefix stops before it
    ([0.0, 0.0], True),            # zero mass
    ([0.5, -0.1], True),           # a negative entry after normalising
    ([-0.5, -0.5], False),         # normalises to (0.5, 0.5)
])
def test_nucleus_pick_refuses_what_choice_refuses(probs, refused):
    probs = np.array(probs)
    got = outcome(nucleus_pick, probs, 0.9, 0)
    assert got == outcome(reference_nucleus_pick, probs, 0.9, 0)
    assert (got[0] is ValueError) == refused


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 3]), st.integers(2, 6), st.floats(0.05, 3.0),
       st.floats(0.05, 1.0), st.integers(0, 2 ** 32 - 1))
def test_sample_segment_matches_reference(order, vocab_size, temperature, top_p, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - 1)])
    fmap = NgramOneHot(vocab_size, order=order) if order else ZeroFeatureMap(2 * vocab_size)
    adapter = init_adapter(rng, vocab_size, fmap.dimension, rank=2, alpha=4.0)
    adapter = AdapterParams(adapter.a, rng.normal(0.0, 0.5, size=adapter.b.shape),
                            adapter.alpha)
    m = ToyLM(vocab, rng.normal(0.0, 1.0, size=(vocab_size, fmap.dimension)), adapter, fmap)
    s = GenerationSettings(temperature=temperature, top_p=top_p, tokens_per_segment=24)
    history = list(rng.integers(0, vocab_size, size=int(rng.integers(0, 4))))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert m.sample_segment(history, s, a) == reference_sample_segment(m, history, s, b)
    assert a.bit_generator.state == b.bit_generator.state


def test_settings_validation():
    with pytest.raises(ValueError):
        GenerationSettings(temperature=0.0, top_p=0.9, tokens_per_segment=1).validate()
    with pytest.raises(ValueError):
        GenerationSettings(temperature=0.9, top_p=0.0, tokens_per_segment=1).validate()
    with pytest.raises(ValueError):
        GenerationSettings(temperature=0.9, top_p=1.2, tokens_per_segment=1).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature must be finite"):
            GenerationSettings(temperature=bad, top_p=0.9,
                               tokens_per_segment=1).validate()


# -- adapter gradient -----------------------------------------------------------


def batch_loss(model, batch):
    return -sum(model.sequence_log_prob(t, h) for h, t in batch) / len(batch)


def test_gradient_matches_central_differences():
    m = small_model(seed=21)
    rng = np.random.default_rng(5)
    batch = [
        ([1, 2], list(rng.integers(0, len(m.vocab), size=4))),
        ([], list(rng.integers(0, len(m.vocab), size=3))),
    ]
    g = m.adapter_gradient(batch)[1]
    phi = m.adapter_flat()
    h = 1e-6
    fd = np.zeros_like(g)
    for i in range(phi.size):
        up = phi.copy(); up[i] += h
        dn = phi.copy(); dn[i] -= h
        m.set_adapter_flat(up)
        lu = batch_loss(m, batch)
        m.set_adapter_flat(dn)
        ld = batch_loss(m, batch)
        fd[i] = (lu - ld) / (2 * h)
    m.set_adapter_flat(phi)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


def test_gradient_batch_mean_of_duplicates():
    m = small_model(seed=2)
    pair = ([3], [1, 4, 0])
    g1 = m.adapter_gradient([pair])[1]
    g2 = m.adapter_gradient([pair, pair, pair])[1]
    np.testing.assert_allclose(g1, g2, atol=1e-14)


def test_gradient_zero_for_featureless_position():
    # empty history + order-2 features: first position sees the zero vector,
    # so a single-token target yields an exactly zero gradient
    m = small_model(seed=4)
    g = m.adapter_gradient([([], [2])])[1]
    assert np.all(g == 0.0)


def test_gradient_rejects_empty_batch():
    with pytest.raises(ValueError):
        small_model().adapter_gradient([])
    with pytest.raises(ValueError):
        small_model().adapter_gradient([([1], [])])


@st.composite
def kernel_cases(draw):
    """A random model (order 0 means the zero feature map) and batch."""
    order = draw(st.sampled_from([0, 1, 2, 3]))
    vocab_size = draw(st.integers(2, 5))
    tok = st.integers(0, vocab_size - 1)
    pair = st.tuples(st.lists(tok, max_size=5), st.lists(tok, min_size=1, max_size=6))
    batch = draw(st.lists(pair, min_size=1, max_size=4))
    if draw(st.booleans()):
        batch.append(batch[0])
    return order, vocab_size, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1)), batch


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_matches_per_token_oracle(case):
    order, vocab_size, rank, seed, batch = case
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - 1)])
    fmap = NgramOneHot(vocab_size, order=order) if order else ZeroFeatureMap(2 * vocab_size)
    adapter = init_adapter(rng, vocab_size, fmap.dimension, rank=rank, alpha=2.0 * rank)
    adapter = AdapterParams(adapter.a, rng.normal(0.0, 0.5, size=adapter.b.shape),
                            adapter.alpha)
    m = ToyLM(vocab, rng.normal(0.0, 1.0, size=(vocab_size, fmap.dimension)), adapter, fmap)

    nll, grad = m.adapter_gradient(batch)
    want_nll, want_grad = reference_adapter_gradient(m, batch)
    assert nll == pytest.approx(want_nll, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
    for history, target in batch:
        assert m.sequence_log_prob(target, history) == pytest.approx(
            reference_sequence_log_prob(m, target, history), rel=1e-12, abs=1e-12)


def test_gradient_layout_matches_flat():
    # bump one A coordinate and one B coordinate through the flat interface
    # and confirm the loss moves the way the gradient's layout claims
    m = small_model(seed=9)
    batch = [([1, 0], [2, 3])]
    g = m.adapter_gradient(batch)[1]
    phi = m.adapter_flat()
    na = m.adapter.a.size
    for idx in [na // 2, na + (m.adapter.b.size // 2)]:
        step = np.zeros_like(phi)
        step[idx] = 1e-6
        m.set_adapter_flat(phi + step)
        lu = batch_loss(m, batch)
        m.set_adapter_flat(phi - step)
        ld = batch_loss(m, batch)
        m.set_adapter_flat(phi)
        assert (lu - ld) / 2e-6 == pytest.approx(g[idx], rel=1e-4, abs=1e-9)


# -- reset and persistence -------------------------------------------------------


def test_reset_restores_initial_bits():
    m = small_model(seed=13)
    before = m.adapter_flat().tobytes()
    m.apply_delta(np.full(m.param_count, 0.01))
    assert m.adapter_flat().tobytes() != before
    m.reset_adapter()
    assert m.adapter_flat().tobytes() == before


WEIGHT_ARRAYS = {
    "phi": lambda m: m.adapter.phi,
    "a": lambda m: m.adapter.a,
    "b": lambda m: m.adapter.b,
    "initial-phi": lambda m: m.initial_adapter.phi,
    "initial-a": lambda m: m.initial_adapter.a,
    "initial-b": lambda m: m.initial_adapter.b,
    "w_base": lambda m: m.w_base,
    "combined": lambda m: m.combined_weight(),
}


@pytest.mark.parametrize("name", WEIGHT_ARRAYS)
def test_a_write_into_a_weight_array_raises(name):
    """Numpy refuses every write into a weight array the model exposes, so
    the weights and the cached log-probs stay as they were."""
    m = small_model(seed=15)
    target, history = [2, 3, 1], [0, 4]
    start = m.sequence_log_prob(target, history)
    phi, w = m.adapter_flat(), m.w_base.copy()
    view = WEIGHT_ARRAYS[name](m)
    with pytest.raises(ValueError, match="read-only"):
        view[...] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(view, 1.0, out=view)
    assert m.adapter_flat().tobytes() == phi.tobytes()
    assert m.initial_adapter.phi.tobytes() == phi.tobytes()
    assert m.w_base.tobytes() == w.tobytes()
    assert m.sequence_log_prob(target, history) == start


def test_only_the_writers_move_the_weights():
    """No weight array or adapter can be rebound; `set_adapter_flat` moves
    the state and the log-probs together."""
    m = small_model(seed=15)
    for name in ("a", "b", "phi", "alpha"):
        with pytest.raises(AttributeError):
            setattr(m.adapter, name, getattr(m.adapter, name))
    for name in ("w_base", "adapter", "initial_adapter"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))
    target, history = [2, 3, 1], [0, 4]
    start = m.sequence_log_prob(target, history)
    moved = m.adapter_flat()
    moved[m.adapter.a.size:] = 2.0
    m.set_adapter_flat(moved)
    assert np.all(m.adapter.b == 2.0)
    assert m.sequence_log_prob(target, history) != start
    assert m.sequence_log_prob(target, history) == pytest.approx(
        reference_sequence_log_prob(m, target, history), rel=1e-12)


def test_model_keeps_its_own_weights():
    """Writes into the arrays and adapter a model was built from reach
    neither the model nor its cached log-probs."""
    rng = np.random.default_rng(16)
    vocab = Vocabulary(["w0", "w1", "w2", "w3"])
    fmap = NgramOneHot(len(vocab), order=2)
    w = rng.normal(0.0, 0.5, size=(len(vocab), fmap.dimension))
    a = rng.normal(0.0, 0.3, size=(2, fmap.dimension))
    b = rng.normal(0.0, 0.3, size=(len(vocab), 2))
    adapter = AdapterParams(a, b, alpha=4.0)
    m = ToyLM(vocab, w, adapter, fmap)
    other = ToyLM(vocab, w, adapter, fmap)
    start = m.sequence_log_prob([1, 2], [0])
    w[0] += 3.0
    a[:] = 0.0
    b[:] = 0.0
    other.apply_delta(np.full(other.param_count, 0.5))
    assert not np.shares_memory(m.w_base, w)
    assert m.sequence_log_prob([1, 2], [0]) == start
    assert ToyLM(vocab, m.w_base, m.initial_adapter, fmap).sequence_log_prob(
        [1, 2], [0]) == start


@pytest.mark.parametrize("a, b, alpha", [
    (np.full((1, 6), np.nan), np.zeros((3, 1)), 1.0),
    (np.zeros((1, 6)), np.full((3, 1), np.inf), 1.0),
    (np.zeros((1, 6)), np.zeros((3, 1)), float("nan")),
    (np.zeros((1, 6)), np.zeros((3, 1)), float("inf")),
    (np.zeros((1, 6)), np.zeros((3, 1)), 0.0),
    (np.zeros((1, 6)), np.zeros((3, 1)), -2.0),
    (np.zeros((1, 6)), np.zeros((3, 1)), "x"),
    (np.zeros((1, 6)), np.zeros((3, 1)), True),
], ids=["a-nan", "b-inf", "alpha-nan", "alpha-inf", "alpha-0", "alpha-neg", "alpha-str",
        "alpha-bool"])
def test_adapter_refuses_non_finite_weights_and_bad_alpha(a, b, alpha):
    with pytest.raises(ValueError):
        AdapterParams(a, b, alpha=alpha)


def test_model_refuses_non_finite_base_weights():
    v = Vocabulary(["a", "b"])
    w = np.zeros((3, 6))
    w[1, 2] = np.nan
    with pytest.raises(ValueError, match="w_base must be finite"):
        ToyLM(v, w, AdapterParams(np.zeros((1, 6)), np.zeros((3, 1)), alpha=1.0))


def test_load_refuses_a_rank_that_disagrees_with_the_arrays(tmp_path):
    m = small_model(seed=14)
    path = tmp_path / "model.json"
    write_json(path, {**m.checkpoint_dict(), "rank": m.adapter.rank + 1})
    with pytest.raises(ValueError, match="rank") as err:
        ToyLM.load(path)
    assert str(path) not in str(err.value)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    """A saved adapted model reloads at its episode-start phi, bit for bit,
    with the same digest; the file holds no current-state blocks."""
    m = small_model(seed=17)
    start = m.adapter_flat()
    m.apply_delta(np.linspace(-0.1, 0.1, m.param_count))
    path = tmp_path / "model.json"
    m.save(path)
    assert not {"adapter_a", "adapter_b"} & json.loads(path.read_text()).keys()
    m2 = ToyLM.load(path)
    assert m2.vocab.tokens == m.vocab.tokens
    assert m2.w_base.tobytes() == m.w_base.tobytes()
    assert m2.adapter_flat().tobytes() == start.tobytes()
    assert m2.initial_adapter.phi.tobytes() == m.initial_adapter.phi.tobytes()
    assert m2.model_digest() == m.model_digest()


def test_older_layout_loads_only_at_its_episode_start(tmp_path):
    """Files that also saved the current state as `adapter_a`/`adapter_b`
    load when that state is the episode start, and are refused otherwise."""
    m = small_model(seed=18)
    doc = {**m.checkpoint_dict(), "adapter_a": encode_array(m.adapter.a),
           "adapter_b": encode_array(m.adapter.b)}
    path = tmp_path / "old.json"
    write_json(path, doc)
    assert ToyLM.load(path).model_digest() == m.model_digest()
    m.apply_delta(np.full(m.param_count, 0.01))
    write_json(path, {**doc, "adapter_b": encode_array(m.adapter.b)})
    with pytest.raises(ValueError, match="adapter state differs") as err:
        ToyLM.load(path)
    assert str(path) not in str(err.value)


def test_model_digest_tracks_base_not_current_adapter():
    m = small_model(seed=19)
    d0 = m.model_digest()
    m.apply_delta(np.full(m.param_count, 0.02))
    assert m.model_digest() == d0
    w = m.w_base.copy()
    w[0, 0] += 1.0
    assert ToyLM(m.vocab, w, m.initial_adapter, m.fmap).model_digest() != d0


def test_model_digest_is_computed_once(monkeypatch):
    """The digest hashes read-only arrays only, so the checkpoint is built
    and hashed on the first call and the stored value is returned after."""
    m = small_model(seed=20)
    calls = []
    build = m.checkpoint_dict
    monkeypatch.setattr(m, "checkpoint_dict", lambda: calls.append(1) or build())
    assert m.model_digest() == digest_obj(build())
    m.apply_delta(np.full(m.param_count, 0.02))
    assert m.model_digest() == digest_obj(build())
    assert len(calls) == 1


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "other", "format_version": 1}')
    with pytest.raises(ValueError):
        ToyLM.load(path)
